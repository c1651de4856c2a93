"""Checkpoint/restore: packet-for-packet identical continuation.

The acceptance bar is exactness under ``Fraction``: snapshot a busy
scheduler mid-run, keep running, restore, run again — the two
continuations must agree on every (flow, start, finish, virtual tags)
tuple with exact arithmetic, for the flat schedulers, a depth-3 H-WF2Q+
tree, and the joint Simulator+Link checkpoint with a packet in flight.
"""

import random
from fractions import Fraction

import pytest

from repro.config import leaf, node
from repro.core import (
    HPFQScheduler,
    SCFQScheduler,
    SFQScheduler,
    VirtualClockScheduler,
    WF2QPlusScheduler,
)
from repro.core.packet import Packet
from repro.errors import ConfigurationError
from repro.faults import checkpoint, rollback
from repro.sim.engine import Simulator
from repro.sim.link import Link

F = Fraction


def record_tuple(rec):
    return (rec.flow_id, rec.start_time, rec.finish_time,
            rec.virtual_start, rec.virtual_finish)


def churn(sched, rng, flows, steps, now=F(0)):
    """Drive a mixed enqueue/dequeue workload; returns served records."""
    records = []
    clock = now
    for _ in range(steps):
        if sched.is_empty or rng.random() < 0.55:
            fid = str(rng.randrange(flows))
            length = rng.choice((500, 1000, 1500))
            sched.enqueue(Packet(fid, length), now=clock)
        else:
            rec = sched.dequeue()
            records.append(rec)
            clock = max(clock, rec.finish_time)
        clock += F(rng.randrange(0, 5), 1000)
    return records


def drain_tuples(sched):
    return [record_tuple(rec) for rec in sched.drain()]


def build_flat(cls, flows=4, rate=F(1_000_000)):
    sched = cls(rate)
    for i in range(flows):
        sched.add_flow(str(i), i + 1)
    return sched


def build_depth3(rate=F(1_000_000), policy="wf2qplus"):
    """Three interior levels above the leaves (depth-3 tree)."""
    spec = node("root", 1, [
        node("agg-0", 2, [
            node("org-a", 3, [leaf("0", 1), leaf("1", 2)]),
            node("org-b", 1, [leaf("2", 1)]),
        ]),
        node("agg-1", 1, [
            node("org-c", 1, [leaf("3", 2)]),
        ]),
    ])
    return HPFQScheduler(spec, rate, policy=policy)


@pytest.mark.parametrize("cls", [WF2QPlusScheduler, SCFQScheduler,
                                 SFQScheduler, VirtualClockScheduler])
def test_flat_roundtrip_exact(cls):
    sched = build_flat(cls)
    churn(sched, random.Random(5), flows=4, steps=60)
    snap = sched.snapshot()
    first = drain_tuples(sched)
    assert first, "workload must leave a backlog to drain"
    sched.restore(snap)
    assert drain_tuples(sched) == first
    for row in first:
        assert isinstance(row[1], Fraction) and isinstance(row[2], Fraction)


def test_flat_restore_into_fresh_instance():
    a = build_flat(WF2QPlusScheduler)
    churn(a, random.Random(7), flows=4, steps=80)
    snap = a.snapshot()
    b = build_flat(WF2QPlusScheduler)
    b.restore(snap)
    assert drain_tuples(b) == drain_tuples(a)


def test_hpfq_depth3_roundtrip_exact():
    sched = build_depth3()
    churn(sched, random.Random(3), flows=4, steps=120)
    snap = sched.snapshot()
    first = drain_tuples(sched)
    assert first
    sched.restore(snap)
    assert drain_tuples(sched) == first


def test_hpfq_depth3_restore_into_fresh_instance():
    a = build_depth3()
    churn(a, random.Random(9), flows=4, steps=100)
    snap = a.snapshot()
    b = build_depth3()
    b.restore(snap)
    assert drain_tuples(b) == drain_tuples(a)


def test_hpfq_restores_snapshot_carrying_threshold():
    """Snapshots written before the node policy lost its two-step
    select/on_select pair carry a ``"threshold"`` scratch value per WF2Q+
    node.  The current writer omits it; restore accepts it, ignores it,
    and continues exactly like a snapshot without it."""
    a = build_depth3()
    churn(a, random.Random(9), flows=4, steps=100)
    snap = a.snapshot()
    policies = [ns["policy"] for ns in snap["extra"]["nodes"].values()
                if ns["policy"] is not None]
    assert len(policies) == 6
    assert all("threshold" not in pol for pol in policies)
    for name, ns in snap["extra"]["nodes"].items():
        if ns["policy"] is not None:
            ns["policy"]["threshold"] = ns["virtual"]
    b = build_depth3()
    b.restore(snap)
    assert drain_tuples(b) == drain_tuples(a)


@pytest.mark.parametrize("policy", ["wfq", "scfq", "sfq"])
def test_hpfq_other_policies_roundtrip(policy):
    sched = build_depth3(policy=policy)
    churn(sched, random.Random(4), flows=4, steps=90)
    snap = sched.snapshot()
    first = drain_tuples(sched)
    sched.restore(snap)
    assert drain_tuples(sched) == first


def test_snapshot_is_plain_data():
    import json

    sched = build_depth3()
    churn(sched, random.Random(2), flows=4, steps=40)
    # Fractions serialise via default=str; nothing else exotic may appear.
    json.dumps(sched.snapshot(), default=str)


def test_restore_rejects_wrong_scheduler():
    snap = build_flat(WF2QPlusScheduler).snapshot()
    with pytest.raises(ConfigurationError):
        build_flat(SCFQScheduler).restore(snap)


def test_restore_rejects_mismatched_flow_set():
    snap = build_flat(WF2QPlusScheduler, flows=4).snapshot()
    with pytest.raises(ConfigurationError):
        build_flat(WF2QPlusScheduler, flows=3).restore(snap)


def test_restore_rejects_mismatched_tree():
    snap = build_depth3().snapshot()
    other = HPFQScheduler(
        node("root", 1, [node("g", 1, [leaf("0", 1)])]), F(1_000_000))
    with pytest.raises(ConfigurationError):
        other.restore(snap)


def test_hpfq_snapshot_covers_in_flight_packet():
    sched = build_depth3()
    sched.enqueue(Packet("0", 1000), now=F(0))
    sched.enqueue(Packet("3", 1000), now=F(0))
    sched.dequeue()  # leaves a pending RESET-PATH (in-flight head)
    snap = sched.snapshot()
    first = drain_tuples(sched)
    sched.restore(snap)
    assert drain_tuples(sched) == first


class TestJointCheckpoint:
    def build(self, out):
        sched = build_flat(WF2QPlusScheduler)
        sim = Simulator()
        link = Link(sim, sched,
                    receiver=lambda p, t: out.append((p.flow_id, t)))
        rng = random.Random(12)
        for i in range(4):
            t = F(0)
            for _ in range(30):
                t += F(rng.randrange(1, 2000), 100_000)
                sim.schedule(t, link.send, Packet(str(i), 8000))
        return sim, link

    def test_rollback_replays_identically(self):
        out = []
        sim, link = self.build(out)
        sim.run(until=F(3, 100))
        assert link.current is not None  # snapshot lands mid-transmission
        snap = checkpoint(sim, link)
        prefix = list(out)
        sim.run()
        first = list(out)
        del out[:]
        rollback(sim, link, snap)
        sim.run()
        assert prefix + out == first
        assert len(first) == 120

    def test_straight_run_unchanged_by_checkpointing(self):
        ref = []
        sim, link = self.build(ref)
        sim.run()
        out = []
        sim, link = self.build(out)
        sim.run(until=F(3, 100))
        snap = checkpoint(sim, link)
        rollback(sim, link, snap)  # immediate rollback, then run to the end
        sim.run()
        assert out == ref

    def test_sim_restore_refused_while_running(self):
        from repro.errors import SimulationError

        sim = Simulator()
        snap = sim.snapshot()
        sim.schedule(0.0, lambda: sim.restore(snap))
        with pytest.raises(SimulationError):
            sim.run()


def test_simulator_snapshot_replays_fifo_ties():
    order = []
    sim = Simulator()
    for tag in "abcd":
        sim.schedule(1.0, order.append, tag)  # identical (time, priority)
    snap = sim.snapshot()
    sim.run()
    first = list(order)
    assert first == list("abcd")
    del order[:]
    sim.restore(snap)
    sim.run()
    assert order == first
