"""Seeded plain-data workload specs for the repository benchmark.

Every generator here is a pure function of its seed: it returns nested
dicts, lists, strings and floats in the cell-spec shape that
``repro.shard.worker.build_scheduler`` / ``build_source`` and
``repro.serve.ServiceRunner`` consume.  The program under test only ever
receives these specs; nothing here imports it.

Workloads
---------
``hier_backlogged``
    H-WF2Q+ on a 4x4x16 tree (256 leaves, seeded integer shares) at
    1 Gb/s and 98% load.  Leaves rotate CBR / Poisson / 16-packet trains
    at 4x the line rate; packet sizes cycle 64/500/1000/1500 bytes.
``flat_sparse``
    Flat WF2Q+ with 4096 low-rate Poisson flows of 64-byte packets at 70%
    aggregate load; first emissions spread over one mean gap.
``serve_churn``
    A ``build_service_spec``-shaped flat churn cell (1024 CBR flows in 8
    waves at 1 Gb/s) plus a seeded ``set_share``/``attach``/``detach``
    command stream keyed by closed-loop slice index.
"""

import random

LINK_RATE = 1e9
BYTE = 8

HIER_FANOUT = (4, 4, 16)
HIER_LOAD = 0.98
HIER_SIZES = (64, 500, 1000, 1500)
TRAIN_LENGTH = 16
TRAIN_SPEEDUP = 4.0

FLAT_FLOWS = 4096
FLAT_LOAD = 0.70
FLAT_SIZE = 64

SERVE_FLOWS = 1024
SERVE_WAVES = 8
SERVE_LOAD = 0.90
SERVE_SIZE = 1000


def _mix(seed, salt):
    """A child seed: distinct per (seed, salt), stable across runs."""
    return (seed * 1000003 + salt * 7919) & 0x7FFFFFFF


def hier_backlogged(seed):
    """The H-WF2Q+ tree cell: ``{"scheduler": ..., "sources": [...]}``.

    Each leaf offers 98% of its guaranteed rate, so the link runs at 98%
    load while every CBR and train leaf stays within a leaky-bucket
    envelope its delay bound can be checked against.
    """
    rng = random.Random(_mix(seed, 1))
    n_top, n_mid, n_leaf = HIER_FANOUT
    tree_children = []
    for a in range(n_top):
        mids = []
        for b in range(n_mid):
            leaves = [[f"L{a}{b}{c:02d}", rng.randint(1, 4), []]
                      for c in range(n_leaf)]
            mids.append([f"M{a}{b}", rng.randint(1, 4), leaves])
        tree_children.append([f"T{a}", rng.randint(1, 4), mids])
    tree = ["root", 1, tree_children]

    fractions = _leaf_fractions(tree)
    sources = []
    for i, (name, phi) in enumerate(fractions):
        rate = HIER_LOAD * phi * LINK_RATE
        length = float(HIER_SIZES[i % len(HIER_SIZES)] * BYTE)
        gap = length / rate
        start = rng.uniform(0.0, gap)
        kind = ("cbr", "poisson", "train")[i % 3]
        if kind == "cbr":
            src = {"type": "cbr", "flow": name, "length": length,
                   "rate": rate, "start": start}
        elif kind == "poisson":
            src = {"type": "poisson", "flow": name, "length": length,
                   "rate": rate, "seed": _mix(seed, 100 + i),
                   "start": start}
        else:
            src = {"type": "train", "flow": name, "length": length,
                   "train_length": TRAIN_LENGTH,
                   "interval": TRAIN_LENGTH * gap,
                   "line_rate": TRAIN_SPEEDUP * LINK_RATE,
                   "start": start * TRAIN_LENGTH}
        sources.append(src)
    return {
        "cell": "hier_backlogged", "kind": "hpfq",
        "scheduler": {"kind": "hpfq", "policy": "wf2qplus",
                      "rate": LINK_RATE, "tree": tree},
        "sources": sources,
    }


def _leaf_fractions(tree):
    """[(leaf name, guaranteed fraction of the link)] in preorder."""
    out = []

    def walk(node, fraction):
        _name, _share, children = node
        total = sum(child[1] for child in children)
        for child in children:
            phi = fraction * child[1] / total
            if child[2]:
                walk(child, phi)
            else:
                out.append((child[0], phi))

    walk(tree, 1.0)
    return out


def flat_sparse(seed):
    """4096 low-rate Poisson flows on flat WF2Q+ at 70% load."""
    rng = random.Random(_mix(seed, 2))
    length = float(FLAT_SIZE * BYTE)
    rate = FLAT_LOAD * LINK_RATE / FLAT_FLOWS
    gap = length / rate
    flows = []
    sources = []
    for i in range(FLAT_FLOWS):
        fid = f"p{i:04d}"
        flows.append([fid, rng.randint(1, 4)])
        sources.append({"type": "poisson", "flow": fid, "length": length,
                        "rate": rate, "seed": _mix(seed, 10000 + i),
                        "start": rng.uniform(0.0, gap)})
    return {
        "cell": "flat_sparse", "kind": "flat",
        "scheduler": {"kind": "flat", "policy": "wf2qplus",
                      "rate": LINK_RATE, "flows": flows,
                      "backend": "exact"},
        "sources": sources,
    }


def serve_churn(seed, duration):
    """The churn cell over ``duration`` simulated seconds.

    Same shape as ``repro.serve.soak.build_service_spec``: flows arrive in
    staggered waves, each emitting CBR for ~80% of its wave and then
    going quiet for good, so idle-flow eviction has work to do.
    """
    rng = random.Random(_mix(seed, 3))
    per_wave = SERVE_FLOWS // SERVE_WAVES
    wave_len = duration / SERVE_WAVES
    length = float(SERVE_SIZE * BYTE)
    flows = []
    sources = []
    for i in range(SERVE_FLOWS):
        fid = f"f{i:04d}"
        flows.append([fid, 1 + (i % 3)])
        wave = i // per_wave
        start = wave * wave_len + rng.uniform(0.0, 0.1 * wave_len)
        stop = min(start + 0.8 * wave_len, duration)
        sources.append({"type": "cbr", "flow": fid, "length": length,
                        "rate": SERVE_LOAD * LINK_RATE / per_wave,
                        "start": start, "stop": stop})
    return {
        "cell": "serve_churn", "kind": "flat",
        "scheduler": {"kind": "flat", "policy": "wf2qplus",
                      "rate": LINK_RATE, "flows": flows,
                      "backend": "exact"},
        "sources": sources,
    }


def serve_commands(seed, slices, duration):
    """Seeded command stream: ``[(slice index, op, params)]``.

    * ``set_share`` re-weights a flow of the wave live at that slice;
    * ``attach`` registers a fresh flow id (it never sends, so idle-flow
      eviction later reclaims it);
    * ``detach`` retires a flow whose wave ended at least one wave ago.

    Every command is valid whenever it is applied, so no command can fail
    or trip the invariant checker.
    """
    rng = random.Random(_mix(seed, 4))
    per_wave = SERVE_FLOWS // SERVE_WAVES
    slice_len = duration / slices
    out = []
    detached = set()
    attached = 0
    for k in range(8, slices, 8):
        t = k * slice_len
        wave = min(int(t / (duration / SERVE_WAVES)), SERVE_WAVES - 1)
        op = ("set_share", "attach", "detach")[rng.randrange(3)]
        if op == "detach" and wave < 2:
            op = "set_share"
        if op == "set_share":
            fid = f"f{wave * per_wave + rng.randrange(per_wave):04d}"
            out.append((k, "set_share", {"flow": fid,
                                         "share": rng.randint(1, 4)}))
        elif op == "attach":
            out.append((k, "attach", {"flow": f"x{attached:04d}",
                                      "share": rng.randint(1, 4)}))
            attached += 1
        else:
            fid = f"f{rng.randrange((wave - 1) * per_wave):04d}"
            if fid in detached:
                continue
            detached.add(fid)
            out.append((k, "detach", {"flow": fid}))
    return out
