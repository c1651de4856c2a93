"""Fault plans and the injector: determinism, validation, retry logic."""

from fractions import Fraction

import pytest

from repro.core import WF2QPlusScheduler
from repro.core.packet import Packet
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan
from repro.obs import RingBufferSink
from repro.sim.engine import Simulator
from repro.sim.link import Link


def plan_fingerprint(plan):
    return [(a.time, a.kind, a.target, a.value) for a in plan]


def make_stack(rate=Fraction(1000), flows=2):
    sched = WF2QPlusScheduler(rate)
    for i in range(flows):
        sched.add_flow(str(i), i + 1)
    sim = Simulator()
    link = Link(sim, sched)
    return sim, link, sched


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        def build(seed):
            plan = FaultPlan(seed=seed)
            plan.link_outage(1.0, 0.5)
            plan.share_storm(0.0, 10.0, ["a", "b", "c"], count=20)
            plan.churn_storm(2.0, 5.0, count=6)
            plan.buffer_ramp(0.5, 4.0, high=64, low=8)
            return plan

        assert plan_fingerprint(build(42)) == plan_fingerprint(build(42))
        assert plan_fingerprint(build(42)) != plan_fingerprint(build(43))

    def test_iteration_sorted_by_time_then_creation(self):
        plan = FaultPlan()
        plan.link_rate(5.0, 100)
        plan.link_down(1.0)
        plan.set_share(1.0, "a", 3)   # same instant as link_down, added later
        plan.link_up(2.0)
        kinds = [a.kind for a in plan]
        assert kinds == ["link_down", "set_share", "link_up", "link_rate"]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().link_down(-0.1)

    def test_nan_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().link_down(float("nan"))

    def test_outage_needs_positive_duration(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().link_outage(1.0, 0)

    def test_degradation_factor_must_be_fractional(self):
        plan = FaultPlan()
        with pytest.raises(ConfigurationError):
            plan.link_degradation(0.0, 1.0, factor=Fraction(3, 2))
        with pytest.raises(ConfigurationError):
            plan.link_degradation(0.0, 1.0, factor=0)

    def test_degradation_factors_cancel_exactly(self):
        plan = FaultPlan()
        plan.link_degradation(0.0, 1.0, factor=Fraction(1, 3))
        factors = [a.value for a in plan]
        assert factors[0] * factors[1] == 1

    def test_share_storm_needs_targets(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().share_storm(0.0, 1.0, [], count=3)

    def test_buffer_ramp_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().buffer_ramp(0.0, 1.0, high=4, low=8)
        with pytest.raises(ConfigurationError):
            FaultPlan().buffer_ramp(0.0, 1.0, high=8, low=4, steps=0)

    def test_churn_storm_lifetimes_inside_window(self):
        plan = FaultPlan(seed=9)
        plan.churn_storm(1.0, 4.0, count=8)
        born = {a.target: a.time for a in plan if a.kind == "add_flow"}
        for action in plan:
            if action.kind == "remove_flow":
                assert born[action.target] < action.time <= 5.0
            assert 1.0 <= action.time <= 5.0


class TestFaultInjector:
    def test_retry_interval_positive(self):
        sim, link, _ = make_stack()
        with pytest.raises(ConfigurationError):
            FaultInjector(FaultPlan(), link, retry_interval=0)

    def test_outage_pauses_and_resumes(self):
        sim, link, sched = make_stack()
        plan = FaultPlan()
        plan.link_outage(0.5, 1.0)
        FaultInjector(plan, link).arm()
        for k in range(4):
            sim.schedule(0.1 * k, link.send, Packet("0", 1000))
        sim.run(until=0.6)
        assert link.paused and not sched.is_empty
        down_backlog = sched.backlog
        sim.run(until=1.4)
        assert sched.backlog == down_backlog  # nothing served while down
        sim.run()
        assert not link.paused and sched.is_empty
        assert link.packets_sent == 4

    def test_degradation_restores_exact_rate(self):
        sim, link, sched = make_stack(rate=Fraction(1000))
        plan = FaultPlan()
        plan.link_degradation(0.25, 0.5, factor=Fraction(1, 4))
        FaultInjector(plan, link).arm()
        sim.schedule(0.0, link.send, Packet("0", 500))
        sim.run()
        assert sched.rate == Fraction(1000)

    def test_remove_flow_retries_until_drained(self):
        sim, link, sched = make_stack()
        plan = FaultPlan()
        plan.add_flow(0.0, "late", share=2)
        plan.enqueue_burst(0.0, "late", 3, 1000)
        plan.remove_flow(0.1, "late")  # long before the burst can drain
        injector = FaultInjector(plan, link).arm()
        sim.run()
        assert injector.retries > 0
        assert "late" not in sched.flow_ids
        assert link.packets_sent == 3

    def test_actions_emit_fault_events(self):
        sim, link, sched = make_stack()
        ring = RingBufferSink()
        sched.attach_observer(ring)
        plan = FaultPlan()
        plan.link_outage(0.2, 0.2)
        plan.set_share(0.3, "0", 5)
        FaultInjector(plan, link).arm()
        sim.schedule(0.0, link.send, Packet("0", 1000))
        sim.run()
        faults = [e for e in ring.events() if e.kind == "fault"]
        assert [e.action for e in faults] == ["link_down", "set_share",
                                              "link_up"]
        assert faults[1].target == "0" and faults[1].value == 5

    def test_empty_plan_applies_nothing(self):
        sim, link, _ = make_stack()
        injector = FaultInjector(FaultPlan(), link).arm()
        sim.schedule(0.0, link.send, Packet("0", 1000))
        sim.run()
        assert injector.applied == 0 and injector.retries == 0
