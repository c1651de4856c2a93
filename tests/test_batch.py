"""Differential suite for the batch scheduling APIs.

Three equivalence claims are pinned here:

* **batch == per-packet** — any mix of ``enqueue_batch`` /
  ``dequeue_batch`` / ``drain_until`` produces exactly the records the
  equivalent per-packet call sequence produces: same service order, same
  times, same virtual tags (exact under ``Fraction``), same drop
  ledgers, and the same observer event stream when a bus is attached.
* **mid-run changes apply to the very next call** — an observer or a
  buffer cap set *between* batch calls on WF2Q+ / H-WF2Q+ sees every
  later packet and enforces every cap, the batch counters cover every
  packet a call moved (even one cut short by a raising sink), and the
  schedule is the one an unobserved run serves.
* **the sim layer batch path is invisible** — ``Link.send_batch`` and
  the batch burst drain yield the same services and counters as the
  per-packet stepping path (forced via a non-passive sink).
"""

import random
from fractions import Fraction as Fr

import pytest

from repro.config import leaf, node
from repro.core import (
    FIFOScheduler,
    HPFQScheduler,
    SCFQScheduler,
    SFQScheduler,
    WF2QPlusScheduler,
)
from repro.core.packet import Packet
from repro.obs import CallbackSink, MetricsSink, RingBufferSink
from repro.obs.sinks import Sink
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import ServiceTrace
from repro.traffic.source import CBRSource


def rec_tuple(rec):
    return (rec.flow_id, rec.packet.length, rec.start_time, rec.finish_time,
            rec.virtual_start, rec.virtual_finish)


def flat(cls, rate, flows=6):
    sched = cls(rate)
    for i in range(flows):
        sched.add_flow(str(i), 1 + i % 3)
    return sched


def tree(rate):
    spec = node("root", 1, [
        node("left", 2, [leaf("0", 1), leaf("1", 2), leaf("2", 1)]),
        node("right", 1, [leaf("3", 2), leaf("4", 1), leaf("5", 3)]),
    ])
    return HPFQScheduler(spec, rate, policy="wf2qplus")


#: (name, builder, exact) — exact builders run the Fraction workload.
BUILDERS = [
    ("FIFO", lambda rate: flat(FIFOScheduler, rate), True),
    ("WF2Q+", lambda rate: flat(WF2QPlusScheduler, rate), True),
    ("SFQ", lambda rate: flat(SFQScheduler, rate), True),
    ("SCFQ", lambda rate: flat(SCFQScheduler, rate), True),
    ("H-WF2Q+", tree, True),
]

#: (name, builder) of the two SEFF schedulers the mid-run tests drive.
SEFF = [
    ("WF2Q+", lambda: flat(WF2QPlusScheduler, 1e6, flows=3)),
    ("H-WF2Q+", lambda: tree(1e6)),
]

LENGTHS = (500, 1000, 1500, 8000)


def make_ops(rng, flows=6, steps=60):
    """A deterministic mixed workload: bursts, chunked dequeues, drains.

    Times are relative ``gap`` values (both drivers resolve them against
    their own last finish time, identically while the runs agree), so
    the same op list drives the Fraction and float domains.
    """
    ops = []
    for _ in range(steps):
        r = rng.random()
        if r < 0.5:
            k = rng.choice((1, 2, 3, 7, 8, 12, 20, 40))
            pkts = [(str(rng.randrange(flows)), rng.choice(LENGTHS))
                    for _ in range(k)]
            # Mostly same-instant bursts inside the busy period; the
            # occasional large gap forces an idle boundary (epoch reset).
            gap = rng.choice((0, 0, 0, 0, (1, 1000), (3, 100)))
            ops.append(("enq", gap, pkts))
        elif r < 0.85:
            ops.append(("deq", rng.choice((1, 2, 5, 8, 16, 33))))
        else:
            ops.append(("drain", (rng.randrange(1, 50), 1000)))
    return ops


def _resolve(value, frac):
    if value == 0:
        return Fr(0) if frac else 0.0
    num, den = value
    return Fr(num, den) if frac else num / den


def apply_per_packet(sched, ops, frac):
    """The per-packet reference execution of an op list."""
    records = []
    t_last = Fr(0) if frac else 0.0
    for op in ops:
        if op[0] == "enq":
            _, gap, pkts = op
            base = records[-1].finish_time if records else t_last
            t = base + _resolve(gap, frac)
            if t < t_last:
                t = t_last
            t_last = t
            for fid, length in pkts:
                sched.enqueue(Packet(fid, length), now=t)
        elif op[0] == "deq":
            k = op[1]
            while k and not sched.is_empty:
                records.append(sched.dequeue())
                k -= 1
        else:
            if sched.is_empty:
                continue
            base = records[-1].finish_time if records else t_last
            limit = base + _resolve(op[1], frac)
            rec = sched.dequeue()
            records.append(rec)
            while rec.finish_time < limit and not sched.is_empty:
                rec = sched.dequeue()
                records.append(rec)
    while not sched.is_empty:
        records.append(sched.dequeue())
    return records


def apply_batched(sched, ops, frac):
    """The same op list through the batch APIs."""
    records = []
    t_last = Fr(0) if frac else 0.0
    for op in ops:
        if op[0] == "enq":
            _, gap, pkts = op
            base = records[-1].finish_time if records else t_last
            t = base + _resolve(gap, frac)
            if t < t_last:
                t = t_last
            t_last = t
            sched.enqueue_batch(
                [Packet(fid, length) for fid, length in pkts], now=t)
        elif op[0] == "deq":
            records.extend(sched.dequeue_batch(op[1]))
        else:
            if sched.is_empty:
                continue
            base = records[-1].finish_time if records else t_last
            sched.drain_until(base + _resolve(op[1], frac), into=records)
    sched.drain_until(None, into=records)
    return records


# ----------------------------------------------------------------------
# batch == per-packet
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("name,build,exact",
                         BUILDERS, ids=[b[0] for b in BUILDERS])
def test_batch_matches_per_packet(name, build, exact, seed):
    frac = exact
    rate = Fr(1_000_000) if frac else 1_000_000.0
    ops = make_ops(random.Random(seed))
    ref = apply_per_packet(build(rate), ops, frac)
    got = apply_batched(build(rate), ops, frac)
    assert [rec_tuple(r) for r in got] == [rec_tuple(r) for r in ref]
    assert len(ref) > 100  # the workload actually moved packets


def test_tags_stay_fraction_exact():
    """The batch APIs must not leak floats into a Fraction run.

    Fraction *shares* keep the guaranteed-rate division exact (int
    shares divide to float), so every tag must come out a Fraction.
    """
    sched = WF2QPlusScheduler(Fr(1_000_000))
    for i in range(6):
        sched.add_flow(str(i), Fr(1 + i % 3))
    sched.enqueue_batch(
        [Packet(str(i % 6), 1000) for i in range(24)], now=Fr(0))
    records = sched.dequeue_batch(24)
    assert len(records) == 24
    for rec in records:
        assert isinstance(rec.finish_time, Fr)
        assert isinstance(rec.virtual_finish, Fr)


def test_dequeue_batch_empty_and_zero():
    sched = flat(WF2QPlusScheduler, 1e6)
    assert sched.dequeue_batch(8) == []
    sched.enqueue(Packet("0", 1000), now=0.0)
    assert sched.dequeue_batch(0) == []
    assert len(sched.dequeue_batch(99)) == 1


def test_drain_until_crossing_semantics():
    sched = flat(WF2QPlusScheduler, 1e6, flows=4)
    sched.enqueue_batch([Packet(str(i % 4), 1000) for i in range(32)],
                        now=0.0)
    # 1000 bits at 1e6 bps = 1 ms per packet; the limit lands mid-burst.
    limit = 0.0105
    records = sched.drain_until(limit)
    assert all(r.finish_time < limit for r in records[:-1])
    assert records[-1].finish_time >= limit  # crossing packet included
    rest = sched.drain_until(None)
    assert len(records) + len(rest) == 32
    # ``into`` appends in place and returns the same list.
    sched.enqueue_batch([Packet("0", 1000) for _ in range(3)])
    out = []
    assert sched.drain_until(None, into=out) is out
    assert len(out) == 3


def test_enqueue_batch_respects_buffer_limits():
    """Caps hold on the batch path, including caps set between batch
    calls after earlier batches have already run."""
    burst = [(str(i % 3), 1000) for i in range(21)]

    def run(build, mid_run, batched):
        sched = build()
        records = []
        accepted = []

        def send(t):
            pkts = [Packet(fid, ln) for fid, ln in burst]
            if batched:
                accepted.append(sched.enqueue_batch(pkts, now=t))
            else:
                accepted.append(sum(bool(sched.enqueue(p, now=t))
                                    for p in pkts))

        if mid_run:
            send(0.0)
            sched.drain_until(None, into=records)
        sched.set_buffer_limit("0", 2)
        sched.set_buffer_limit("1", 3)
        send(records[-1].finish_time if records else 0.0)
        sched.drain_until(None, into=records)
        return (accepted, sched.conservation(),
                [rec_tuple(r) for r in records])

    for name, build in SEFF:
        for mid_run in (False, True):
            ref = run(build, mid_run, batched=False)
            got = run(build, mid_run, batched=True)
            assert got == ref, (name, mid_run)
            assert ref[0][-1] == 2 + 3 + 7, (name, mid_run)
            assert ref[1]["drops"] == len(burst) - ref[0][-1]


def test_enqueue_batch_with_observer_same_event_stream():
    """An observer attached before the run or between batch calls sees
    one enqueue and one dequeue event for every later packet, exactly the
    per-packet event stream, and the schedule is the unobserved one."""
    n = 32

    def run(build, attach, drain, batched):
        sched = build()
        ring = RingBufferSink()
        if attach == "start":
            sched.attach_observer(ring)
        records = []
        t = 0.0
        for round_ in range(2):
            if attach == "mid-run" and round_ == 1:
                sched.attach_observer(ring)
            pkts = [Packet(str(i % 3), 1000) for i in range(n)]
            if batched:
                sched.enqueue_batch(pkts, now=t)
                if drain == "dequeue_batch":
                    records.extend(sched.dequeue_batch(n))
                else:
                    sched.drain_until(None, into=records)
            else:
                for p in pkts:
                    sched.enqueue(p, now=t)
                for _ in range(n):
                    records.append(sched.dequeue())
            t = records[-1].finish_time + 0.001
        events = [(e.kind, getattr(e, "flow_id", None), e.time)
                  for e in ring.events()]
        return events, [rec_tuple(r) for r in records]

    for name, build in SEFF:
        _, unobserved = run(build, None, "dequeue_batch", batched=True)
        for attach in ("start", "mid-run"):
            observed = n * (2 if attach == "start" else 1)
            for drain in ("dequeue_batch", "drain_until"):
                case = (name, attach, drain)
                events, records = run(build, attach, drain, batched=True)
                ref_events, _ = run(build, attach, drain, batched=False)
                assert events == ref_events, case
                kinds = [kind for kind, _f, _t in events]
                assert kinds.count("enqueue") == observed, case
                assert kinds.count("dequeue") == observed, case
                assert records == unobserved, case


class BatchRounds:
    """Drives a scheduler in batch rounds: one same-instant burst of
    ``N`` packets per round, then a drain."""

    N = 32

    def __init__(self, build):
        self.sched = build()
        self.records = []
        self.t = 0.0

    def round(self, flows="012", drain="dequeue_batch"):
        """One burst over ``flows`` and a drain; returns the number of
        packets the burst got accepted."""
        accepted = self.sched.enqueue_batch(
            [Packet(flows[i % len(flows)], 1000) for i in range(self.N)],
            now=self.t)
        if drain == "dequeue_batch":
            self.records.extend(self.sched.dequeue_batch(self.N))
        else:
            self.sched.drain_until(None, into=self.records)
        self.t = self.records[-1].finish_time + 0.001
        return accepted


def kinds(sink):
    return [e.kind for e in sink.events()]


seff = pytest.mark.parametrize("name,build", SEFF, ids=[k[0] for k in SEFF])


@seff
def test_observer_forces_exact_path(name, build):
    """An observer attached before the first batch sees every packet:
    the batch APIs run the per-packet path, events included."""
    rounds = BatchRounds(build)
    ring = RingBufferSink()
    rounds.sched.attach_observer(ring)
    assert rounds.round() == BatchRounds.N
    assert rounds.round(drain="drain_until") == BatchRounds.N
    assert kinds(ring).count("enqueue") == 2 * BatchRounds.N
    assert kinds(ring).count("dequeue") == 2 * BatchRounds.N


@seff
def test_observer_attached_mid_run_disengages_next_batch(name, build):
    """An observer attached between batch calls sees every later packet."""
    rounds = BatchRounds(build)
    rounds.round()
    ring = RingBufferSink()
    rounds.sched.attach_observer(ring)  # mid-run, between batch calls
    assert rounds.round() == BatchRounds.N
    assert kinds(ring).count("enqueue") == BatchRounds.N
    assert kinds(ring).count("dequeue") == BatchRounds.N


@seff
def test_detaching_observer_reengages(name, build):
    """A detached observer sees nothing of later batches, and the
    schedule across attach and detach is the unobserved one."""
    def run(observe):
        rounds = BatchRounds(build)
        rounds.round()
        ring = RingBufferSink()
        if observe:
            rounds.sched.attach_observer(ring)
        rounds.round()
        if observe:
            rounds.sched.detach_observer(ring)
        rounds.round(drain="drain_until")
        return kinds(ring), [rec_tuple(r) for r in rounds.records]

    events, observed = run(observe=True)
    assert events.count("dequeue") == BatchRounds.N
    assert events.count("enqueue") == BatchRounds.N
    assert observed == run(observe=False)[1]


@seff
def test_drain_until_also_guarded(name, build):
    """``drain_until`` publishes every packet of a mid-run attach too."""
    rounds = BatchRounds(build)
    rounds.round(drain="drain_until")
    ring = RingBufferSink()
    rounds.sched.attach_observer(ring)
    assert rounds.round(drain="drain_until") == BatchRounds.N
    assert kinds(ring).count("dequeue") == BatchRounds.N


@seff
def test_buffer_limit_set_mid_run_enforced_on_next_batch(name, build):
    rounds = BatchRounds(build)
    rounds.round()
    rounds.sched.set_buffer_limit("0", 3)
    assert rounds.round(flows="0") == 3  # the cap is enforced, not bypassed
    assert rounds.sched.drops("0") == BatchRounds.N - 3
    # Clearing the cap admits the whole next burst again.
    rounds.sched.set_buffer_limit("0", None)
    assert rounds.round(flows="0") == BatchRounds.N


@seff
def test_schedule_identical_across_mid_run_attach(name, build):
    """Attaching an observer mid-run does not perturb service."""
    def run(observe):
        rounds = BatchRounds(build)
        rounds.round()
        if observe:
            rounds.sched.attach_observer(MetricsSink())
        rounds.round()
        return [rec_tuple(r) for r in rounds.records]

    assert run(observe=True) == run(observe=False)


class RaiseOnDequeue(Sink):
    """A passive sink that raises on the ``k``-th dequeue event, the way
    a passive :class:`~repro.obs.InvariantChecker` raises on a violation
    inside a burst drain."""

    passive = True

    def __init__(self, k):
        self.k = k
        self.seen = 0

    def accept(self, event):
        if event.kind == "dequeue":
            self.seen += 1
            if self.seen == self.k:
                raise RuntimeError("sink abort")


@pytest.mark.parametrize("name,build,exact",
                         BUILDERS, ids=[b[0] for b in BUILDERS])
def test_batch_counters_cover_a_drain_cut_short(name, build, exact):
    """A dequeue that raises mid-chunk still leaves ``batch_packets``
    equal to the records the call already handed back."""
    sched = build(1e6)
    sched.enqueue_batch([Packet(str(i % 6), 1000) for i in range(24)],
                        now=0.0)
    before = sched.batch_stats()["batch_packets"]
    sched.attach_observer(RaiseOnDequeue(k=5))
    into = []
    with pytest.raises(RuntimeError, match="sink abort"):
        sched.drain_until(None, into=into)
    assert len(into) == 4  # the 5th record never reached the caller
    stats = sched.batch_stats()
    assert stats["batch_packets"] - before == len(into)
    # dequeue_batch counts the packets it moved before the raise too.
    sched.detach_observer()
    sched.attach_observer(RaiseOnDequeue(k=3))
    with pytest.raises(RuntimeError, match="sink abort"):
        sched.dequeue_batch(10)
    assert sched.batch_stats()["batch_packets"] - before == len(into) + 2
    assert sched.batch_stats()["batch_calls"] == stats["batch_calls"] + 1


def test_batch_stats_counters():
    sched = flat(WF2QPlusScheduler, 1e6)
    sched.enqueue_batch([Packet(str(i % 6), 1000) for i in range(64)],
                        now=0.0)
    sched.dequeue_batch(1)
    sched.dequeue_batch(63)
    stats = sched.batch_stats()
    assert stats["batch_calls"] == 3
    assert stats["batch_packets"] == 128
    assert stats["batched_fraction"] == 1.0
    hist = stats["packets_per_batch"]
    assert sum(hist.values()) == stats["batch_calls"]
    assert hist["1"] == 1 and hist["64-511"] == 1 and hist["8-63"] == 1


# ----------------------------------------------------------------------
# sim layer
# ----------------------------------------------------------------------
def test_send_batch_matches_per_packet_send():
    def run(batched):
        sim = Simulator()
        sched = flat(WF2QPlusScheduler, 1e6, flows=3)
        trace = ServiceTrace()
        link = Link(sim, sched, trace=trace)
        pkts = lambda: [Packet(str(i % 3), 1000) for i in range(12)]
        if batched:
            sim.schedule(0.0, lambda: link.send_batch(pkts()))
            sim.schedule(0.005, lambda: link.send_batch(pkts()))
        else:
            sim.schedule(0.0, lambda: [link.send(p) for p in pkts()])
            sim.schedule(0.005, lambda: [link.send(p) for p in pkts()])
        sim.run()
        return ([rec_tuple(r) for r in trace.services],
                link.packets_sent, link.bits_sent,
                [(fid, t, ln) for fid, t, ln in trace.arrivals])

    assert run(batched=True) == run(batched=False)


def test_send_batch_falls_back_under_buffer_limits():
    sim = Simulator()
    sched = flat(WF2QPlusScheduler, 1e6, flows=2)
    sched.set_buffer_limit("0", 1)
    link = Link(sim, sched)
    dropped = []
    link.drop_callback = lambda pkt, now: dropped.append(pkt.flow_id)
    sim.schedule(0.0, lambda: link.send_batch(
        [Packet("0", 1000) for _ in range(4)]))
    sim.run()
    # Per-packet semantics: the first send starts transmitting (leaving
    # the buffer empty), the second queues, the rest hit the cap.
    assert link.packets_sent == 2
    assert dropped == ["0", "0"]


def _pipeline(force_steps):
    sim = Simulator()
    sched = flat(WF2QPlusScheduler, 1e6, flows=4)
    if force_steps:
        # A non-passive sink forces the per-packet stepping drain.
        sched.attach_observer(CallbackSink(lambda event: None))
    trace = ServiceTrace()
    link = Link(sim, sched, trace=trace)
    for i in range(4):
        CBRSource(str(i), 2.2e5, 1000,
                  start_time=i * 1e-4).attach(sim, link).start()
    sim.run(until=0.25)
    return trace, link


def test_link_batch_drain_matches_stepping_drain():
    ref_trace, ref_link = _pipeline(force_steps=True)
    got_trace, got_link = _pipeline(force_steps=False)
    assert [rec_tuple(r) for r in got_trace.services] == \
        [rec_tuple(r) for r in ref_trace.services]
    assert (got_link.packets_sent, got_link.bits_sent) == \
        (ref_link.packets_sent, ref_link.bits_sent)
    assert got_link.busy_time == pytest.approx(ref_link.busy_time)
    assert len(got_trace.services) > 200


def test_batch_drain_respects_run_horizon():
    """A drain must not run past ``run(until=...)``: packets finishing
    after the horizon stay queued, exactly as on the stepping path."""
    sim = Simulator()
    sched = flat(WF2QPlusScheduler, 1e6, flows=2)
    trace = ServiceTrace()
    link = Link(sim, sched, trace=trace)
    sim.schedule(0.0, lambda: link.send_batch(
        [Packet("0", 1000) for _ in range(10)]))
    sim.run(until=0.0055)
    assert sim.now == 0.0055
    assert all(r.finish_time <= 0.0055 for r in trace.services)
    assert link.packets_sent == 5
    sim.run()
    assert link.packets_sent == 10
