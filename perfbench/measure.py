"""Turn reps of one workload into the benchmark's metrics.

:func:`end_to_end` runs untraced reps and the verification pass and
returns the end-to-end metrics; :func:`layer_metrics` runs untraced reps,
then traced reps, and returns the per-layer metrics with each layer's
share of self time.  Both need ``src`` on ``sys.path`` (``run.py`` puts
it there after its pre-flight checks).
"""

import drivers
import layertrace

#: Scheduler entry points counted by ``core.calls_per_pkt``.
CORE_CALLS = tuple(f"core.{name}" for name in (
    "enqueue", "enqueue_batch", "dequeue", "dequeue_batch", "drain_until"))


def run_reps(workload, seed, seconds, checks, workdir, tracer=None,
             min_reps=1):
    """Timed reps until ``seconds`` of host time are spent."""
    reps = []
    start = drivers.clock()
    while len(reps) < min_reps or drivers.clock() - start < seconds:
        if workload == "serve_churn":
            rep = drivers.serve_rep(seed, checks, workdir, len(reps),
                                    tracer=tracer)
            if reps:
                # Only the last serve rep is recovered in verify().
                del reps[-1]["runner"]
        else:
            rep = drivers.pipeline_rep(
                workload, seed, drivers.PIPELINE_PLANS[workload], checks,
                workdir, tracer=tracer)
        if reps:
            checks.check(rep["fingerprint"] == reps[0]["fingerprint"],
                         f"{workload}: rep {len(reps)} fingerprint differs")
        reps.append(rep)
    return reps


def verify(workload, seed, reps, checks, workdir):
    """The untimed verification pass on the same seed."""
    if workload == "serve_churn":
        drivers.verify_serve(reps[-1], checks)
    else:
        drivers.verify_pipeline(
            workload, seed, drivers.PIPELINE_PLANS[workload],
            reps[0]["fingerprint"], checks, workdir)


def pooled(reps, key):
    return [x for r in reps for x in r[key]]


def typical_pps(reps):
    """Window packets over the per-slice median host time of the reps."""
    slices = drivers.replay_medians([r["slices"] for r in reps])
    return reps[0]["pkts"] / sum(slices)


def end_to_end(workload, seed, seconds, checks, workdir):
    """End-to-end metric values and sample counts of one untraced run."""
    reps = run_reps(workload, seed, seconds, checks, workdir, min_reps=3)
    verify(workload, seed, reps, checks, workdir)
    slices = drivers.replay_medians([r["slices"] for r in reps])
    # Serve checkpoint j is the same work in every rep; the pipeline
    # samples each checkpoint a rep's end state.
    checkpoints = (drivers.replay_medians([r["checkpoint"] for r in reps])
                   if workload == "serve_churn"
                   else pooled(reps, "checkpoint"))
    values = {
        "pkts_per_s": typical_pps(reps),
        "setup_s": drivers.median(pooled(reps, "setups")),
        "warmup_s": sum(drivers.replay_medians([r["warm"] for r in reps])),
        # Only the first rep's reading precedes every checkpoint and
        # recovery sample (the peak is a process-wide high-water mark).
        "peak_rss_mb": reps[0]["rss_mb"],
        "slice_p50_ms": 1e3 * drivers.percentile(slices, 50),
        "slice_p99_ms": 1e3 * drivers.percentile(slices, 99),
        "checkpoint_p50_ms": 1e3 * drivers.median(checkpoints),
        "recover_s": drivers.median(pooled(reps, "recover")),
    }
    samples = {"reps": len(reps), "slices": len(slices),
               "setups": len(pooled(reps, "setups")),
               "checkpoints": len(checkpoints),
               "recoveries": len(pooled(reps, "recover"))}
    return values, samples


def layer_metrics(workload, seed, seconds, checks, workdir):
    """Per-layer metrics, layer self-time shares, and sample counts.

    Half of ``seconds`` runs untraced reps (the base of
    ``trace.overhead_frac``), half traced reps; the per-layer numbers
    come from the traced reps' timed windows only.
    """
    from repro.core import HPFQScheduler, WF2QPlusScheduler

    untraced = run_reps(workload, seed, seconds / 2, checks, workdir)
    tracer = layertrace.LayerTracer()
    tracer.calibrate()
    with tracer.installed((HPFQScheduler, WF2QPlusScheduler)):
        reps = run_reps(workload, seed, seconds / 2, checks, workdir,
                        tracer=tracer)
    verify(workload, seed, reps, checks, workdir)

    def total(key):
        return sum(r["layers"][key] for r in reps)

    pkts = sum(r["pkts"] for r in reps)
    self_ns = {layer: sum(r["layers"]["self_ns"][layer] for r in reps)
               for layer in layertrace.LAYERS}
    calls = {}
    for r in reps:
        for name, n in r["layers"]["calls"].items():
            calls[name] = calls.get(name, 0) + n
    events = sum(r["events"] for r in reps)
    elided = sum(r["elided"] for r in reps)
    dropped = sum(r["dropped"] for r in reps)
    # Every packet a burst drain sends inline is one elided event; the
    # crossing packet it hands back to the event loop is not.
    drains = calls.get("Link._drain", 0)
    slices = total("slices")
    wall = total("wall_ns")

    def ratio(num, den):
        return num / den if den else 0.0

    def per_pkt(x):
        return ratio(x, pkts)

    def calls_of(names):
        return sum(calls.get(n, 0) for n in names)

    def median_ms(entry):
        return 1e-6 * drivers.median(tracer.durations.get(entry, []))

    values = {
        "dstruct.heap.self_ns_per_pkt": per_pkt(self_ns["dstruct.heap"]),
        "dstruct.heap.ops_per_pkt": per_pkt(calls_of(
            f"IndexedHeap.{a}" for a in layertrace.HEAP_ENTRIES)),
        "core.self_ns_per_pkt": per_pkt(self_ns["core"]),
        "core.calls_per_pkt": per_pkt(calls_of(CORE_CALLS)),
        "sim.engine.self_ns_per_pkt": per_pkt(self_ns["sim.engine"]),
        "sim.engine.events_per_pkt": per_pkt(events),
        "sim.engine.pending_peak": max(r["pending_peak"] for r in reps),
        "traffic.self_ns_per_pkt": per_pkt(self_ns["traffic"]),
        "sim.engine.elided_frac": ratio(elided, events + elided),
        "sim.link.pkts_per_drain": ratio(elided, drains),
        "sim.link.self_ns_per_pkt": per_pkt(self_ns["sim.link"]),
        "sim.link.drop_frac": ratio(dropped, pkts + dropped),
        "obs.self_ns_per_pkt": per_pkt(self_ns["obs"]),
        "obs.events_per_pkt": per_pkt(calls_of(["EventBus.emit"])),
        "faults.checkpoint.payload_ms": median_ms(
            "ServiceRunner._payload" if workload == "serve_churn"
            else "harness.payload"),
        "faults.checkpoint.save_ms": median_ms("CheckpointStore.save"),
        "faults.checkpoint.bytes": drivers.median(pooled(reps, "bytes")),
        "faults.checkpoint.load_ms": median_ms("CheckpointStore.load_latest"),
        "serve.self_ns_per_slice": ratio(self_ns["serve"], slices),
        "serve.evictions": ratio(total("evictions"), len(reps)),
        "serve.live_flows_peak": max(r.get("live_peak", 0) for r in reps),
        "trace.overhead_frac": typical_pps(untraced) / typical_pps(reps) - 1,
        "trace.unattributed_frac": 1.0 - ratio(total("covered_ns"), wall),
    }
    all_ns = sum(self_ns.values()) or 1
    shares = {layer: ns / all_ns for layer, ns in self_ns.items()}
    return values, shares, {"reps": len(reps), "pkts": pkts}
