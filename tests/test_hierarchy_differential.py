"""Randomized-topology differential suite for the H-WF2Q+ hot path.

The flattened-tree rewrite (precomputed leaf->root paths, the fused
``reselect``, the two-heap node policy without a separate start-tag
heap) must be *packet-for-packet* identical to the naive RESTART-NODE
transliteration on **arbitrary** trees — not just the two hand-built
specs in ``test_equivalence_optimized``.  The fused ``reselect`` is the
only decision path, observed or not, so the random-tree cases also run
both policies with a :class:`~repro.obs.RingBufferSink` attached: the
full event streams (node restarts, virtual-time updates, enqueues and
dequeues) must match, and so must the schedule of the unobserved run.

Each case draws a random hierarchy (depth <= 4, fanout 2-4 per internal
node, mixed integer shares) and a mixed workload: a dense churn window
(every selection exercises the re-key/reselect path) followed by bursty
on/off arrivals (every burst crosses busy-period boundaries, exercising
the epoch reset and the max(F, V) tag floor).  Everything runs under
:class:`fractions.Fraction` (or, in the power-of-two case, under floats
whose every rate and tag is dyadic), so the transcripts — service order,
real times and virtual tags — are compared **exactly**; any divergence
is an algorithmic bug, never roundoff.
"""

import itertools
import random
from fractions import Fraction as Fr

import pytest

from repro.config import leaf, node
from repro.core.hierarchy import HPFQScheduler
from repro.obs import RingBufferSink

from tests.test_equivalence_optimized import (
    NaiveWF2QPlusNodePolicy,
    bursty_arrivals,
    drive,
)


#: Sibling share vectors whose every normalised share is a power of two,
#: by fanout: with them every guaranteed rate below a power-of-two link
#: rate is dyadic, so float tags are exact.
POW2_SHARES = {
    2: [(1, 1), (3, 3)],
    3: [(1, 1, 2), (2, 1, 1), (1, 2, 1)],
    4: [(1, 1, 1, 1), (1, 1, 2, 4), (4, 2, 1, 1)],
}


def random_tree(rng, max_depth=4, pow2=False):
    """A random spec of height <= ``max_depth``; returns (root, leaf ids).

    Internal nodes have fanout 2-4; a subtree stops early with
    probability 0.4, so depths mix within one tree.  Shares are small
    mixed integers — awkward on purpose, since Fraction arithmetic keeps
    every rate exact regardless.  ``pow2`` draws each sibling group's
    shares from :data:`POW2_SHARES` instead.
    """
    ids = itertools.count()
    leaves = []

    def build(depth, share):
        if depth >= max_depth or rng.random() < 0.4:
            name = f"L{next(ids)}"
            leaves.append(name)
            return leaf(name, rng.randint(1, 5) if share is None else share)
        children = group(depth + 1)
        return node(f"N{next(ids)}",
                    rng.randint(1, 5) if share is None else share, children)

    def group(depth):
        fanout = rng.randint(2, 4)
        shares = (rng.choice(POW2_SHARES[fanout]) if pow2
                  else (None,) * fanout)
        return [build(depth, share) for share in shares]

    # The root always branches, so every tree has at least two subtrees.
    root = node("root", 1, group(2))
    return root, leaves


def churn_window(rng, leaves, count, seq_base):
    """Dense arrivals in [0, 1): the scheduler stays saturated throughout."""
    return [
        (Fr(rng.randrange(4096), 4096), seq_base + i,
         rng.choice(leaves), Fr(rng.choice([1, 2, 3]), 2))
        for i in range(count)
    ]


def mixed_workload(rng, leaves, seed):
    """Churn window + bursty on/off tail, as exact Fractions."""
    arrivals = churn_window(rng, leaves, count=120, seq_base=0)
    tail = bursty_arrivals(leaves, seed=seed, bursts=15)
    arrivals += [
        (Fr(2) + Fr(t).limit_denominator(1 << 12), 1000 + seq, fid, Fr(ln))
        for t, seq, fid, ln in tail
    ]
    return sorted(arrivals)


def event_stream(ring):
    """The sink's events as comparable tuples.

    The scheduler name (it embeds the policy name) is dropped, and packet
    uids — drawn from a process-wide counter, so different in every run —
    are renumbered in order of first appearance.
    """
    uids = {}
    stream = []
    for event in ring.events():
        d = event.to_dict()
        del d["scheduler"]
        if "packet_uid" in d:
            d["packet_uid"] = uids.setdefault(d["packet_uid"], len(uids))
        stream.append(tuple(d.items()))
    return stream


def observed_drive(spec, rate, policy, arrivals):
    """:func:`drive` with a ring buffer attached; (transcript, events)."""
    sched = HPFQScheduler(spec, rate, policy=policy)
    ring = RingBufferSink(capacity=1 << 20)
    sched.attach_observer(ring)
    transcript = drive(sched, arrivals)
    assert ring.total_seen == len(ring)  # nothing evicted
    return transcript, event_stream(ring)


def assert_matches_naive(spec, rate, arrivals):
    """Fused vs naive policy: unobserved transcripts, then observed
    transcripts and event streams, all exactly equal."""
    got = drive(HPFQScheduler(spec, rate, policy="wf2qplus"), arrivals)
    want = drive(HPFQScheduler(spec, rate, policy=NaiveWF2QPlusNodePolicy),
                 arrivals)
    assert len(got) == len(arrivals)
    assert got == want  # flow order, real times and virtual tags, exactly

    got_obs, got_events = observed_drive(spec, rate, "wf2qplus", arrivals)
    want_obs, want_events = observed_drive(
        spec, rate, NaiveWF2QPlusNodePolicy, arrivals)
    assert got_obs == got  # an observer does not change the schedule
    assert want_obs == want
    kinds = {dict(e)["kind"] for e in got_events}
    assert {"enqueue", "dequeue", "node-restart", "virtual-time"} <= kinds
    assert got_events == want_events


def draw_tree(rng, pow2=False):
    spec, leaves = random_tree(rng, pow2=pow2)
    while len(leaves) < 4:  # bursty_arrivals samples up to 4 active flows
        spec, leaves = random_tree(rng, pow2=pow2)
    return spec, leaves


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13])
def test_random_topology_matches_naive_reference(seed):
    rng = random.Random(seed)
    spec, leaves = draw_tree(rng)
    arrivals = mixed_workload(rng, leaves, seed)
    assert_matches_naive(spec, Fr(16), arrivals)


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13])
def test_random_pow2_topology_matches_naive_reference_float(seed):
    """Float run on a power-of-two tree: every rate is dyadic, so the
    float tags are exact and the transcripts compare with ``==``."""
    rng = random.Random(seed)
    spec, leaves = draw_tree(rng, pow2=True)
    arrivals = [(float(t), seq, fid, float(ln))
                for t, seq, fid, ln in mixed_workload(rng, leaves, seed)]
    assert_matches_naive(spec, 16.0, arrivals)


def test_deep_skinny_chain_matches_naive_reference():
    """Depth-4 two-way chains: the longest restart paths the suite allows."""
    spec = node("root", 1, [
        node("n0", 1, [
            node("n00", 2, [leaf("a", 1), leaf("b", 3)]),
            leaf("c", 1),
        ]),
        node("n1", 2, [
            node("n10", 1, [leaf("d", 2), leaf("e", 1)]),
            node("n11", 1, [leaf("f", 1), leaf("g", 1)]),
        ]),
    ])
    rng = random.Random(99)
    arrivals = mixed_workload(
        rng, ["a", "b", "c", "d", "e", "f", "g"], seed=99)
    opt = HPFQScheduler(spec, Fr(9), policy="wf2qplus")
    ref = HPFQScheduler(spec, Fr(9), policy=NaiveWF2QPlusNodePolicy)
    assert drive(opt, arrivals) == drive(ref, arrivals)
