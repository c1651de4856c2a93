"""Drive the three workloads through the program's public API.

Each workload is measured in *reps*: build from the plain-data spec
(set-up), run a simulated warm-up, then a fixed simulated window cut into
equal slices, each timed on the host.  After the window each rep also
times a further set-up, durable checkpoints and recoveries, so that every
timing is sampled across the whole run rather than in one burst.  Every
rep of one seed does identical simulated work, so every rep must end with
the same fingerprint, and slice ``k`` of every rep is the same work.

After the timed reps an untimed verification pass checks the outputs
(:func:`verify_pipeline`, :func:`verify_serve`).  All checks go through a
:class:`Checks` ledger whose ``attempted`` and ``failed`` counts are the
benchmark's error rate.
"""

import gc
import os
import resource
import shutil
import statistics
import time

import workloads
from repro.serve.runner import DigestTrace

#: Pipeline plans: simulated warm-up and window (seconds), the number of
#: equal slices each is timed in, and checkpoint/recovery samples per rep.
PIPELINE_PLANS = {
    "hier_backlogged": {"warmup": 0.02, "window": 0.08, "warm_slices": 16,
                        "slices": 1024, "samples": 3},
    "flat_sparse": {"warmup": 0.004, "window": 0.024, "warm_slices": 16,
                    "slices": 1024, "samples": 1},
}

#: serve_churn: horizon (simulated s), closed-loop slices, warm-up slices,
#: checkpoints per horizon, the checkpoint recovery restarts from, and
#: recoveries timed per rep.
SERVE_PLAN = {"horizon": 0.4, "slices": 1152, "warm_slices": 128,
              "checkpoints": 64, "recover_from": 48, "samples": 3}

#: Float slack on the delay-bound comparison (1 ns), as in the figure
#: benchmarks: the bound is exact, the simulated clock is float.
DELAY_SLACK = 1e-9

#: Incidents that mean a degraded service (a failed operation).
BAD_INCIDENTS = frozenset({"quarantine", "stall", "crash",
                           "checkpoint-skipped"})

clock = time.perf_counter


class Checks:
    """Ledger of correctness checks and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def median(values):
    return statistics.median(values) if values else 0.0


def replay_medians(series):
    """Per-index medians of per-rep series.

    Every rep replays the same simulated slices, so slice ``k`` of each
    rep does identical work; its median over reps filters host noise that
    hit one rep, and the medians add up to a typical rep.
    """
    return [statistics.median(column) for column in zip(*series)]


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (q in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def timed(fn, *args, **kwargs):
    """``(result, host seconds)`` of one call, after a full collection."""
    gc.collect()
    start = clock()
    result = fn(*args, **kwargs)
    return result, clock() - start


def peak_rss_mb():
    """The process's peak resident set size so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def engine_counters(sim, link):
    return (sim.events_processed, sim.events_elided, link.packets_dropped)


def counters_since(before, sim, link):
    events, elided, dropped = (b - a for a, b in
                               zip(before, engine_counters(sim, link)))
    return {"events": events, "elided": elided, "dropped": dropped}


# ----------------------------------------------------------------------
# Pipelines: source -> engine -> link -> scheduler -> heap
# ----------------------------------------------------------------------
class Pipeline:
    """One simulator, one link, and the sources feeding it."""

    def __init__(self, spec, trace=None, burst_drain=True, start=True):
        from repro.shard.worker import build_scheduler, build_source
        from repro.sim.engine import Simulator
        from repro.sim.link import Link

        self.spec = spec
        self.sim = Simulator()
        self.trace = trace
        self.link = Link(self.sim, build_scheduler(spec["scheduler"]),
                         trace=trace, burst_drain=burst_drain)
        self.sources = [build_source(s).attach(self.sim, self.link)
                        for s in spec["sources"]]
        if start:
            for source in self.sources:
                source.start()

    @classmethod
    def from_seed(cls, name, seed):
        return cls(getattr(workloads, name)(seed))

    @property
    def scheduler(self):
        return self.link.scheduler

    def run_slices(self, targets):
        """Host seconds of ``run(until=t)`` for each target ``t``, and the
        most events pending at any slice end."""
        run = self.sim.run
        out = []
        pending = 0
        for target in targets:
            start = clock()
            run(until=target)
            out.append(clock() - start)
            pending = max(pending, self.sim.pending)
        return out, pending

    def fingerprint(self):
        """Packets and bits sent, per-flow served bits, final virtual time."""
        sched = self.scheduler
        served = tuple(
            (s.flow_id, s.bits_sent - sched.queued_bits(s.flow_id))
            for s in self.sources)
        return (self.link.packets_sent, self.link.bits_sent, served,
                sched.system_virtual_time())

    def payload(self):
        """A durable checkpoint payload (the serve recipe, minus serve)."""
        return {"spec": self.spec, "clock": self.sim.now,
                "link": self.link.snapshot(),
                "sources": [s.snapshot() for s in self.sources],
                "digest": (self.trace.snapshot()
                           if self.trace is not None else None)}

    @classmethod
    def recover(cls, directory, trace=None):
        """Rebuild from the newest checkpoint in ``directory``."""
        from repro.faults import CheckpointStore

        payload, _path = CheckpointStore(directory).load_latest()
        pipe = cls(payload["spec"], trace=trace, start=False)
        pipe.link.restore(payload["link"], rearm=True)
        pairs = sorted(zip(pipe.sources, payload["sources"]),
                       key=lambda p: (p[1]["pending_time"] is None,
                                      p[1]["pending_time"] or 0.0))
        for source, snap in pairs:
            source.restore(snap)
        pipe.sim.run(until=payload["clock"])
        if trace is not None:
            trace.restore(payload["digest"])
        return pipe


def slice_targets(plan):
    """Absolute end times of every warm-up slice and window slice."""
    warm, window = plan["warmup"], plan["window"]
    m, n = plan["warm_slices"], plan["slices"]
    return ([warm * (k + 1) / m for k in range(m)],
            [warm + window * (k + 1) / n for k in range(n)])


def save_checkpoint(pipe, store, tracer=None):
    """Checkpoint ``pipe``; returns (payload s, save s, file bytes)."""
    start = clock()
    if tracer is not None:
        payload = tracer.run_span("faults.checkpoint", "harness.payload",
                                  pipe.payload)
    else:
        payload = pipe.payload()
    built = clock()
    path = store.save(payload)
    return built - start, clock() - built, os.path.getsize(path)


def pipeline_rep(name, seed, plan, checks, workdir, tracer=None):
    """Set up, warm up and time one window, then sample a second set-up
    and ``plan["samples"]`` checkpoints and recoveries of its end state."""
    from repro.faults import CheckpointStore

    pipe, setup = timed(Pipeline.from_seed, name, seed)
    warm_targets, targets = slice_targets(plan)
    warm, _pending = pipe.run_slices(warm_targets)
    sent0 = pipe.link.packets_sent
    counters0 = engine_counters(pipe.sim, pipe.link)
    mark = tracer.mark() if tracer is not None else None
    start = clock()
    lat, pending = pipe.run_slices(targets)
    layers = (tracer.since(mark, clock() - start)
              if tracer is not None else None)
    rep = {"warm": warm, "slices": lat, "pending_peak": pending,
           "rss_mb": peak_rss_mb(),
           "pkts": pipe.link.packets_sent - sent0, "layers": layers,
           "fingerprint": pipe.fingerprint(),
           **counters_since(counters0, pipe.sim, pipe.link)}
    ledger = pipe.scheduler.conservation()
    checks.check(ledger["balanced"], f"{name}: conservation {ledger}")

    store_dir = os.path.join(workdir, f"{name}-ckpt")
    store = CheckpointStore(store_dir)
    saved = [save_checkpoint(pipe, store, tracer)
             for _ in range(plan["samples"])]
    rep["checkpoint"] = [built + save for built, save, _b in saved]
    rep["bytes"] = [size for _p, _s, size in saved]
    rep["recover"] = [timed(Pipeline.recover, store_dir)[1]
                      for _ in range(plan["samples"])]
    shutil.rmtree(store_dir, ignore_errors=True)
    del pipe
    rep["setups"] = [setup, timed(Pipeline.from_seed, name, seed)[1]]
    return rep


def shaped_envelopes(spec):
    """{leaf: sigma bits} for the leaky-bucket-shaped leaves (CBR, trains).

    A CBR leaf offers one packet at a time (sigma = L); a train of n
    packets at a rate below the leaf's guaranteed rate fits sigma =
    (n + 1) L (see perfbench/README.md for the derivation).
    """
    out = {}
    for src in spec["sources"]:
        if src["type"] == "cbr":
            out[src["flow"]] = src["length"]
        elif src["type"] == "train":
            out[src["flow"]] = (src["train_length"] + 1) * src["length"]
    return out


class VerifyTrace(DigestTrace):
    """The service digest plus per-flow worst delay of shaped leaves."""

    def __init__(self, shaped=()):
        super().__init__()
        self.shaped = frozenset(shaped)
        self.max_delay = {}

    def record_service(self, record):
        super().record_service(record)
        packet = record.packet
        if packet.flow_id in self.shaped:
            delay = record.finish_time - packet.arrival_time
            if delay > self.max_delay.get(packet.flow_id, -1.0):
                self.max_delay[packet.flow_id] = delay


def verify_pipeline(name, seed, plan, reference, checks, workdir):
    """Untimed output checks on the same seed.

    * the run traced by a service digest reproduces the timed reps'
      fingerprint;
    * a recovery from its mid-window checkpoint, finished to the window
      end, reproduces its digest and fingerprint;
    * ``Link(burst_drain=False)`` yields a byte-equal digest;
    * every shaped leaf of an H-PFQ cell stays within Corollary 1's
      ``hpfq_delay_bound``.
    """
    from repro.faults import CheckpointStore

    spec = getattr(workloads, name)(seed)
    shaped = shaped_envelopes(spec) if spec["kind"] == "hpfq" else {}
    warm_targets, targets = slice_targets(plan)
    half = len(targets) // 2
    pipe = Pipeline(spec, trace=VerifyTrace(shaped))
    pipe.run_slices(warm_targets + targets[:half])
    store_dir = os.path.join(workdir, f"{name}-verify")
    save_checkpoint(pipe, CheckpointStore(store_dir))
    pipe.run_slices(targets[half:])
    checks.check(pipe.fingerprint() == reference,
                 f"{name}: digest-traced run changed the fingerprint")
    ledger = pipe.scheduler.conservation()
    checks.check(ledger["balanced"], f"{name}: conservation {ledger}")

    restored = Pipeline.recover(store_dir, trace=VerifyTrace())
    restored.run_slices(targets[half:])
    checks.check(restored.trace.digest == pipe.trace.digest,
                 f"{name}: recovered digest differs")
    checks.check(restored.fingerprint() == reference,
                 f"{name}: recovered fingerprint differs")
    shutil.rmtree(store_dir, ignore_errors=True)

    plain = Pipeline(spec, trace=VerifyTrace(), burst_drain=False)
    plain.sim.run(until=targets[-1])
    checks.check(plain.trace.digest == pipe.trace.digest,
                 f"{name}: digest differs with burst_drain=False")

    if shaped:
        from repro.analysis.bounds import hpfq_delay_bound

        hspec = pipe.scheduler.spec
        l_max = max(src["length"] for src in spec["sources"])
        for leaf, sigma in sorted(shaped.items()):
            bound = float(hpfq_delay_bound(hspec, leaf, sigma,
                                           pipe.link.rate,
                                           lambda _n: l_max))
            worst = pipe.trace.max_delay.get(leaf, 0.0)
            checks.check(worst <= bound + DELAY_SLACK,
                         f"{name}: leaf {leaf} delay {worst!r} > "
                         f"bound {bound!r}")


# ----------------------------------------------------------------------
# serve_churn: the closed-loop service
# ----------------------------------------------------------------------
def serve_options():
    plan = SERVE_PLAN
    return {"checkpoint_every": plan["horizon"] / plan["checkpoints"],
            "idle_ttl": plan["horizon"] / 32}


def build_runner(seed, directory):
    """The service cell and its command stream, ready to run."""
    from repro.serve import ServiceRunner

    plan = SERVE_PLAN
    spec = workloads.serve_churn(seed, plan["horizon"])
    commands = workloads.serve_commands(seed, plan["slices"],
                                        plan["horizon"])
    runner = ServiceRunner(spec, checkpoint_dir=directory, **serve_options())
    return runner, commands


def recover_runner(directory):
    from repro.serve import ServiceRunner

    return ServiceRunner.recover(directory, **serve_options())


def submit_due(runner, queue, k):
    """Submit the queued commands of slice ``k`` (queue is in k order)."""
    while queue and queue[0][0] == k:
        _k, op, params = queue.pop(0)
        runner.submit(op, **params)


def serve_rep(seed, checks, workdir, rep, tracer=None):
    """One closed-loop run of the service to its horizon.

    Each slice is ``advance(dt)`` then ``status()``; a slice fails if it
    records a degradation incident or its status shows an unbalanced
    ledger.  The checkpoint recovery restarts from is copied aside as
    soon as it is written; the rep then times ``plan["samples"]``
    recoveries from it, and a second set-up.
    """
    plan = SERVE_PLAN
    n = plan["slices"]
    rep_dir = os.path.join(workdir, f"serve-{rep}")
    keep_dir = os.path.join(workdir, f"serve-{rep}-recover")
    (runner, commands), setup = timed(build_runner, seed, rep_dir)

    ckpt, sizes = [], []
    inner = runner.checkpoint

    def timed_checkpoint():
        start = clock()
        path = inner()
        ckpt.append(clock() - start)
        sizes.append(os.path.getsize(path))
        return path

    runner.checkpoint = timed_checkpoint
    dt = plan["horizon"] / n
    queue = list(commands)
    warm, lat, ends = [], [], []
    copied_at = None
    seen_incidents = 0
    pending = 0
    for k in range(n):
        if k == plan["warm_slices"]:
            sent0 = runner.link.packets_sent
            counters0 = engine_counters(runner.sim, runner.link)
            mark = tracer.mark() if tracer is not None else None
            w0 = clock()
        submit_due(runner, queue, k)
        start = clock()
        runner.advance(dt)
        status = runner.status()
        (warm if k < plan["warm_slices"] else lat).append(clock() - start)
        ends.append(runner.now)
        pending = max(pending, runner.sim.pending)
        new = runner.incidents[seen_incidents:]
        seen_incidents = len(runner.incidents)
        checks.check(status["conservation_balanced"]
                     and not any(e.category in BAD_INCIDENTS for e in new),
                     f"serve slice {k}: incidents "
                     f"{[(e.category, e.target) for e in new]}")
        if (copied_at is None
                and runner.checkpoints_written >= plan["recover_from"]):
            newest = sorted(f for f in os.listdir(rep_dir)
                            if f.startswith("ckpt-"))[-1]
            os.makedirs(keep_dir, exist_ok=True)
            shutil.copy(os.path.join(rep_dir, newest), keep_dir)
            copied_at = k
    layers = (tracer.since(mark, clock() - w0, slices=len(lat))
              if tracer is not None else None)
    # The runner steps its boundary by repeated addition; replay that to
    # count the boundaries crossed (the last may land an ulp past the
    # horizon).
    every = serve_options()["checkpoint_every"]
    expected, boundary = 0, every
    while boundary <= runner.now:
        expected += 1
        boundary += every
    checks.check(runner.checkpoints_written == expected
                 and expected >= plan["checkpoints"] - 1,
                 f"serve: {runner.checkpoints_written} checkpoints written, "
                 f"{expected} boundaries crossed")
    checks.check(copied_at is not None, "serve: no checkpoint to recover")
    rss = peak_rss_mb()
    shutil.rmtree(rep_dir, ignore_errors=True)

    recover = []
    for _ in range(plan["samples"]):
        restored, seconds = timed(recover_runner, keep_dir)
        recover.append(seconds)
        checks.check(not any(e.category in BAD_INCIDENTS
                             for e in restored.incidents),
                     "serve: recovery recorded a degradation incident")
    del restored
    setup_dir = os.path.join(workdir, f"serve-{rep}-setup")
    setups = [setup, timed(build_runner, seed, setup_dir)[1]]
    shutil.rmtree(setup_dir, ignore_errors=True)
    return {"setups": setups, "warm": warm, "slices": lat,
            "pkts": runner.link.packets_sent - sent0,
            "checkpoint": ckpt, "bytes": sizes, "recover": recover,
            "rss_mb": rss,
            "live_peak": runner.peak_live_flows, "pending_peak": pending,
            **counters_since(counters0, runner.sim, runner.link),
            "runner": runner, "commands": commands, "ends": ends,
            "recover_dir": keep_dir, "copied_at": copied_at,
            "fingerprint": (runner.digest, runner.trace.rows,
                            runner.link.packets_sent,
                            runner.link.bits_sent),
            "layers": layers}


def verify_serve(rep, checks):
    """Recover from the copied checkpoint, finish the horizon through the
    same slice ends and commands, and compare with the uninterrupted run.
    """
    restored = recover_runner(rep["recover_dir"])
    # The checkpoint may sit a float ulp inside the slice it was copied
    # after: finish that slice before replaying later commands.
    copied_at = rep["copied_at"]
    if restored.now < rep["ends"][copied_at]:
        restored.run_to(rep["ends"][copied_at])
    queue = [c for c in rep["commands"] if c[0] > copied_at]
    for k in range(copied_at + 1, len(rep["ends"])):
        submit_due(restored, queue, k)
        restored.run_to(rep["ends"][k])
    original = rep["runner"]
    checks.check(restored.digest == original.digest
                 and restored.trace.rows == original.trace.rows,
                 "serve: recovered digest differs from uninterrupted run")
    checks.check(not any(e.category in BAD_INCIDENTS
                         for e in restored.incidents),
                 "serve: recovered run recorded a degradation incident")
    shutil.rmtree(rep["recover_dir"], ignore_errors=True)
