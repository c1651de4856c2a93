"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hier_backlogged --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs untraced and then traced reps of the same workload and
reports per-layer self time and counts (see ``layertrace.py``).  Either
way the outputs are checked (``drivers.Checks``) and the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The benchmark refuses to run when a ``REPRO_*`` environment override is
set, so it always measures the default configuration.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])

#: The end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "dstruct.heap.self_ns_per_pkt":
        "pkts_per_s on hier_backlogged; barely serve_churn",
    "dstruct.heap.ops_per_pkt":
        "pkts_per_s on hier_backlogged; barely serve_churn",
    "core.self_ns_per_pkt":
        "pkts_per_s on hier_backlogged; barely serve_churn",
    "core.calls_per_pkt":
        "pkts_per_s on hier_backlogged and flat_sparse",
    "sim.engine.self_ns_per_pkt":
        "pkts_per_s on flat_sparse; less on hier_backlogged",
    "sim.engine.events_per_pkt":
        "pkts_per_s on flat_sparse; less on hier_backlogged",
    "sim.engine.pending_peak":
        "pkts_per_s on flat_sparse; less on hier_backlogged",
    "traffic.self_ns_per_pkt":
        "pkts_per_s on flat_sparse; less on hier_backlogged",
    "sim.engine.elided_frac":
        "pkts_per_s on hier_backlogged; zero on serve_churn by design",
    "sim.link.pkts_per_drain":
        "pkts_per_s on hier_backlogged; zero on serve_churn by design",
    "sim.link.self_ns_per_pkt": "pkts_per_s on flat_sparse",
    "sim.link.drop_frac": "pkts_per_s on flat_sparse",
    "obs.self_ns_per_pkt":
        "slice_p50_ms and pkts_per_s on serve_churn; absent on pipelines",
    "obs.events_per_pkt":
        "slice_p50_ms and pkts_per_s on serve_churn; absent on pipelines",
    "faults.checkpoint.payload_ms":
        "checkpoint_p50_ms and slice_p99_ms on serve_churn",
    "faults.checkpoint.save_ms":
        "checkpoint_p50_ms and slice_p99_ms on serve_churn",
    "faults.checkpoint.bytes":
        "checkpoint_p50_ms and slice_p99_ms on serve_churn",
    "faults.checkpoint.load_ms": "recover_s on every workload",
    "serve.self_ns_per_slice": "peak_rss_mb and slice_p50_ms on serve_churn",
    "serve.evictions": "peak_rss_mb and slice_p50_ms on serve_churn",
    "serve.live_flows_peak": "peak_rss_mb and slice_p50_ms on serve_churn",
    "trace.overhead_frac": "none: traced vs untraced pkts_per_s",
    "trace.unattributed_frac": "none: window wall time no layer span covers",
}

#: The two layers each workload is built to stress (self-time share).
STRESSED = {
    "hier_backlogged": ("core", "dstruct.heap"),
    "flat_sparse": ("traffic", "sim.engine"),
    "serve_churn": ("faults.checkpoint", "obs"),
}

class Refusal(Exception):
    """The benchmark cannot measure the default configuration here."""


def preflight():
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        raise Refusal(f"repro environment overrides set: {overrides}; "
                      f"unset them to measure the default configuration")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise Refusal(f"no program source at {SRC}/repro: run from the "
                      f"root of a full checkout")
    sys.path.insert(0, SRC)


def provenance():
    """Where and on what this result was measured."""
    from importlib import metadata

    from repro.sim.engine import resolve_engine

    rev, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            rev, dirty = "unknown", None
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"git_rev": rev, "dirty": dirty, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy,
            "engine": resolve_engine(None),
            "platform": platform.platform()}


def mix_ok(workload, shares):
    """Do the workload's two stressed layers hold the largest pair share?"""
    named = STRESSED[workload]
    ranked = sorted(shares.values(), reverse=True)
    return sum(shares[n] for n in named) >= sum(ranked[:2]) - 1e-12


# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
    except Refusal as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2

    import drivers
    import measure

    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    checks = drivers.Checks()
    try:
        if args.trace:
            values, shares, samples = measure.layer_metrics(
                args.workload, args.seed, args.seconds, checks, workdir)
            metrics = BENCHMARK["per_layer"]
            print(f"{args.workload}: layer self-time shares "
                  f"({samples['reps']} traced reps, {samples['pkts']} pkts)")
            for layer, share in sorted(shares.items(),
                                       key=lambda kv: -kv[1]):
                print(f"  {layer:<20} {100 * share:6.2f}%")
            verdict = ("is" if mix_ok(args.workload, shares)
                       else "is NOT")
            print(f"  stressed {'+'.join(STRESSED[args.workload])} "
                  f"{verdict} the largest pair")
            for m in metrics:
                name = m["name"]
                print(f"  {name:<32} {values[name]:>14.6g} {m['unit']:<10} "
                      f"moves: {MOVES[name]}")
        else:
            values, samples = measure.end_to_end(
                args.workload, args.seed, args.seconds, checks, workdir)
            metrics = BENCHMARK["end_to_end"]
            print(f"{args.workload}: seed {args.seed}, samples {samples}")
            for m in metrics:
                print(f"  {m['name']:<20} {values[m['name']]:>14.6g} "
                      f"{m['unit']}")
            rate = checks.failed / checks.attempted
            print(f"  {'error_rate':<20} {rate:>14.6g} ratio "
                  f"({checks.failed} failed / {checks.attempted} attempted)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
