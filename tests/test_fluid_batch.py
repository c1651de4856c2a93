"""Differential suite for the batched GPS fluid reference.

Pins the :mod:`repro.analysis.fluid` numerics contract: the whole-trace
batched computation is **bit-equivalent** (``repr``-level, so int-vs-
float zero tags would also be caught) to driving the online
:class:`~repro.core.gps.GPSFluidSystem` packet by packet — on both the
numpy lane (same-instant bursts >= NUMPY_MIN_CHUNK) and the plain-loop
lane, across busy-period resets and interleaved same-instant arrivals.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction as Fr

import pytest

import repro.analysis as analysis
from repro.analysis.fluid import fluid_finish_times
from repro.errors import (
    ConfigurationError,
    DuplicateFlowError,
    UnknownFlowError,
)


def random_trace(rng, n_flows, n_pkts):
    flows = [(f"f{i}", rng.choice([1, 2, 3, 5])) for i in range(n_flows)]
    arrivals, t = [], 0.0
    for _ in range(n_pkts):
        if rng.random() < 0.4:
            # Mix of same-instant packets, short steps and long gaps
            # (the long gaps drain the system -> new busy periods).
            t += rng.choice([0.0, 0.01, 0.3, 2.5])
        arrivals.append((f"f{rng.randrange(n_flows)}",
                         rng.choice([1, 2, 5, 10]) * 100.0, t))
    return flows, arrivals


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for attr in ("flow_id", "length", "arrival_time", "virtual_start",
                     "virtual_finish", "finish_time"):
            va, vb = getattr(a, attr), getattr(b, attr)
            assert repr(va) == repr(vb), (
                f"uid {a.uid} {attr}: batched={va!r} exact={vb!r}")


class TestBatchedVsExact:
    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13])
    def test_random_traces_bit_identical(self, seed):
        rng = random.Random(seed)
        flows, arrivals = random_trace(
            rng, rng.randrange(1, 6), rng.randrange(1, 250))
        rate = rng.choice([7.0, 100.0, 1000.0])
        got = fluid_finish_times(flows, arrivals, rate)
        want = fluid_finish_times(flows, arrivals, rate, exact=True)
        assert_bit_identical(got, want)

    def test_large_bursts_numpy_lane(self):
        # Same-instant bursts well past NUMPY_MIN_CHUNK: the cumsum and
        # searchsorted lanes must reproduce the online chain exactly.
        flows = [("a", 1), ("b", 3), ("c", 2)]
        arrivals = ([("a", 100.0, 0.0)] * 120 + [("b", 50.0, 0.0)] * 120
                    + [("c", 75.0, 0.0)] * 40
                    # second busy period after the first drains
                    + [("a", 100.0, 9000.0)] * 64)
        got = fluid_finish_times(flows, arrivals, 10.0)
        want = fluid_finish_times(flows, arrivals, 10.0, exact=True)
        assert_bit_identical(got, want)

    def test_interleaved_same_instant_arrivals(self):
        # Per-flow chaining is interleaving-independent: a-b-a-b at one
        # instant tags exactly like the online per-packet order.
        flows = [("a", 1), ("b", 1)]
        arrivals = [("a", 10.0, 0.0), ("b", 20.0, 0.0),
                    ("a", 10.0, 0.0), ("b", 20.0, 0.0),
                    ("a", 30.0, 0.0)]
        got = fluid_finish_times(flows, arrivals, 5.0)
        want = fluid_finish_times(flows, arrivals, 5.0, exact=True)
        assert_bit_identical(got, want)

    def test_input_order_and_uids(self):
        flows = [("a", 1), ("b", 1)]
        arrivals = [("b", 10.0, 0.0), ("a", 20.0, 0.0), ("b", 5.0, 1.0)]
        pkts = fluid_finish_times(flows, arrivals, 1.0)
        assert [p.flow_id for p in pkts] == ["b", "a", "b"]
        assert [p.uid for p in pkts] == [0, 1, 2]
        assert [p.length for p in pkts] == [10.0, 20.0, 5.0]

    def test_busy_period_resets_virtual_time(self):
        flows = [("a", 1), ("b", 1)]
        # Burst drains fully (20 bits at rate 10 -> idle by t=2), so the
        # packet at t=100 restarts V at zero: same tags as the first.
        arrivals = [("a", 10.0, 0.0), ("b", 10.0, 0.0)]
        again = arrivals + [("a", 10.0, 100.0)]
        pkts = fluid_finish_times(flows, again, 10.0)
        assert pkts[2].virtual_start == pkts[0].virtual_start
        assert pkts[2].virtual_finish == pkts[0].virtual_finish
        assert pkts[2].finish_time == pytest.approx(100.0 + 1.0)

    def test_exact_mode_accepts_fractions(self):
        flows = [("a", Fr(1, 3)), ("b", Fr(2, 3))]
        arrivals = [("a", Fr(1), Fr(0)), ("b", Fr(1), Fr(0))]
        pkts = fluid_finish_times(flows, arrivals, Fr(1), exact=True)
        assert pkts[0].virtual_finish == Fr(3)
        assert isinstance(pkts[0].finish_time, Fr)


class TestValidation:
    def test_rejects_bad_rate_and_shares(self):
        with pytest.raises(ConfigurationError):
            fluid_finish_times([("a", 1)], [], 0.0)
        with pytest.raises(ConfigurationError):
            fluid_finish_times([("a", 0)], [], 1.0)
        with pytest.raises(DuplicateFlowError):
            fluid_finish_times([("a", 1), ("a", 2)], [], 1.0)

    def test_rejects_unknown_flow_and_bad_lengths(self):
        with pytest.raises(UnknownFlowError):
            fluid_finish_times([("a", 1)], [("zz", 1.0, 0.0)], 1.0)
        with pytest.raises(ValueError):
            fluid_finish_times([("a", 1)], [("a", 0.0, 0.0)], 1.0)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            fluid_finish_times(
                [("a", 1)], [("a", 1.0, 1.0), ("a", 1.0, 0.5)], 1.0)

    def test_empty_trace(self):
        assert fluid_finish_times([("a", 1)], [], 1.0) == []

    def test_exported_from_analysis_package(self):
        assert analysis.fluid_finish_times is fluid_finish_times


class TestNumpyProbe:
    def test_core_and_serve_imports_leave_numpy_unloaded(self):
        # numpy is optional and only analysis.fluid uses it: the
        # scheduler and service packages must not pull it in.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, repro, repro.core, repro.serve; "
                "print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
