"""Self-checks of the repository benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.  The
workload-mix checks run one short untraced and one traced rep of every
workload (about a minute in all).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import drivers  # noqa: E402
import layertrace  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec_bytes(spec):
    return json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("seed", [1, 7])
def test_specs_are_byte_identical_per_seed(seed):
    horizon = drivers.SERVE_PLAN["horizon"]
    slices = drivers.SERVE_PLAN["slices"]
    for make in (lambda s: workloads.hier_backlogged(s),
                 lambda s: workloads.flat_sparse(s),
                 lambda s: workloads.serve_churn(s, horizon),
                 lambda s: workloads.serve_commands(s, slices, horizon)):
        first = spec_bytes(make(seed))
        assert spec_bytes(make(seed)) == first
        assert spec_bytes(make(seed + 1)) != first


def test_hier_tree_shape_and_load():
    spec = workloads.hier_backlogged(3)
    tree = spec["scheduler"]["tree"]
    assert [len(tree[2]), len(tree[2][0][2]), len(tree[2][0][2][0][2])] \
        == list(workloads.HIER_FANOUT)
    fractions = dict(workloads._leaf_fractions(tree))
    assert len(fractions) == 256
    assert sum(fractions.values()) == pytest.approx(1.0)
    offered = 0.0
    for src in spec["sources"]:
        if src["type"] == "train":
            offered += src["train_length"] * src["length"] / src["interval"]
        else:
            offered += src["rate"]
    assert offered == pytest.approx(workloads.HIER_LOAD * workloads.LINK_RATE)
    assert {s["type"] for s in spec["sources"]} == {"cbr", "poisson", "train"}


def test_metric_and_workload_names():
    bench = run.BENCHMARK
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics + bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    assert set(run.MOVES) == {m["name"] for m in bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tracer_restores_every_class():
    from repro.core import HPFQScheduler, WF2QPlusScheduler
    from repro.dstruct.heap import IndexedHeap
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

    before = (IndexedHeap.push, Simulator.schedule, Link._finish,
              HPFQScheduler.enqueue, WF2QPlusScheduler.__dict__.get("enqueue"))
    tracer = layertrace.LayerTracer()
    with tracer.installed((HPFQScheduler, WF2QPlusScheduler)):
        assert IndexedHeap.push is not before[0]
    after = (IndexedHeap.push, Simulator.schedule, Link._finish,
             HPFQScheduler.enqueue, WF2QPlusScheduler.__dict__.get("enqueue"))
    assert after == before


def test_refuses_repro_environment_overrides(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_ENGINE", "calendar")
    code = run.main(["--workload", "flat_sparse", "--seed", "1",
                     "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat_sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def layer_shares(tmp_path_factory):
    """Self-time shares of one traced rep per workload (seed 5)."""
    shares = {}
    for workload in run.WORKLOADS:
        checks = drivers.Checks()
        workdir = str(tmp_path_factory.mktemp(workload))
        values, shares[workload], _samples = measure.layer_metrics(
            workload, 5, 0.0, checks, workdir)
        assert checks.failed == 0, checks.failures
        assert set(values) == set(run.MOVES)
    return shares


def _pair(shares, workload, pair):
    return sum(shares[workload][layer] for layer in pair)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_stressed_layers_peak_on_their_workload(layer_shares, workload):
    """Each workload gives its stressed pair of layers a larger share of
    self time than either other workload does."""
    pair = run.STRESSED[workload]
    mine = _pair(layer_shares, workload, pair)
    for other in run.WORKLOADS:
        if other != workload:
            assert mine > _pair(layer_shares, other, pair), (
                workload, other, layer_shares)


def test_hier_backlogged_is_core_and_heap_bound(layer_shares):
    assert run.mix_ok("hier_backlogged", layer_shares["hier_backlogged"])


@pytest.mark.xfail(strict=False, reason=(
    "measured finding: on flat_sparse the scheduler core and the engine "
    "lead; traffic generation is ~12% of self time, not the largest"))
def test_flat_sparse_is_traffic_and_engine_bound(layer_shares):
    assert run.mix_ok("flat_sparse", layer_shares["flat_sparse"])


@pytest.mark.xfail(strict=False, reason=(
    "measured finding: on serve_churn the serve layer (digest, sweeps) "
    "outweighs obs; checkpoint + serve is the largest pair"))
def test_serve_churn_is_checkpoint_and_obs_bound(layer_shares):
    assert run.mix_ok("serve_churn", layer_shares["serve_churn"])
