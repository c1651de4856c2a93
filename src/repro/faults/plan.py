"""Deterministic fault plans: seeded schedules of adverse events.

A :class:`FaultPlan` is a *pure description* — an ordered list of
:class:`FaultAction` records (link outages, degradation windows, rate
changes, share renegotiations, flow churn storms, buffer-pressure ramps)
built either directly from the primitives or from the seeded storm
helpers, which draw times and magnitudes from a private
``random.Random(seed)`` so the same seed always produces the same plan.

A plan does nothing by itself.  :class:`FaultInjector` binds it to a
:class:`~repro.sim.link.Link` and compiles every action into one
simulator event; each applied action also emits a typed
:class:`~repro.obs.events.FaultEvent` on the scheduler's observability
bus, so fault timelines appear in traces next to the enqueues and drops
they caused.

Determinism is the whole point: a fault plan is part of the experiment's
identity, exactly like an arrival pattern.  Replaying (seed, plan,
traffic) must reproduce every drop and every tag — the chaos harness
(:mod:`repro.faults.chaos`) asserts that it does.
"""

import random
from fractions import Fraction

from repro.errors import ConfigurationError
from repro.obs.events import FaultEvent

__all__ = ["FaultAction", "FaultPlan", "FaultInjector"]

#: Action kinds understood by :class:`FaultInjector`.
KINDS = frozenset({
    "link_down", "link_up", "link_rate", "link_scale",
    "set_share", "add_flow", "remove_flow", "enqueue_burst",
    "buffer_limit", "shared_buffer", "attach", "detach",
})


class FaultAction:
    """One scheduled fault: ``(time, kind, target, value)``.

    ``seq`` is the creation order — the tie-break for simultaneous
    actions, so a plan's execution order never depends on dict or sort
    instability.
    """

    __slots__ = ("time", "kind", "target", "value", "seq")

    def __init__(self, time, kind, target, value, seq):
        self.time = time
        self.kind = kind
        self.target = target
        self.value = value
        self.seq = seq

    def __repr__(self):
        extra = "" if self.target is None else f", {self.target!r}"
        return f"FaultAction(t={self.time!r}, {self.kind}{extra})"


class FaultPlan:
    """A seeded, deterministic schedule of fault actions.

    Primitives append one action; the ``*_storm`` / ``*_ramp`` helpers
    draw many from the plan's private RNG.  Actions may be added in any
    order — the injector sorts by ``(time, seq)``.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.actions = []
        self._seq = 0
        self._rng = random.Random(seed)

    def _add(self, time, kind, target=None, value=None):
        if not time >= 0:
            raise ConfigurationError(
                f"fault time must be >= 0, got {time!r}"
            )
        if kind not in KINDS:
            raise ConfigurationError(f"unknown fault kind {kind!r}")
        action = FaultAction(time, kind, target, value, self._seq)
        self._seq += 1
        self.actions.append(action)
        return action

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(sorted(self.actions, key=lambda a: (a.time, a.seq)))

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------
    def link_down(self, time):
        """Administratively down the link (packet-granular; see Link.pause)."""
        return self._add(time, "link_down")

    def link_up(self, time):
        return self._add(time, "link_up")

    def link_outage(self, start, duration):
        """A down/up window — arrivals keep queueing throughout."""
        if duration <= 0:
            raise ConfigurationError(
                f"outage duration must be positive, got {duration!r}"
            )
        self._add(start, "link_down")
        self._add(start + duration, "link_up")
        return self

    def link_rate(self, time, rate):
        """Set the link rate to an absolute value at ``time``."""
        return self._add(time, "link_rate", value=rate)

    def link_degradation(self, start, duration, factor=Fraction(1, 2)):
        """Scale the link rate by ``factor`` for a window, then undo it.

        Fraction factors compose exactly (``f * 1/f == 1``), so the rate
        is restored bit-for-bit even after nested windows.
        """
        if not 0 < factor < 1:
            raise ConfigurationError(
                f"degradation factor must be in (0, 1), got {factor!r}"
            )
        self._add(start, "link_scale", value=factor)
        self._add(start + duration, "link_scale",
                  value=1 / Fraction(factor) if not isinstance(factor, float)
                  else 1 / factor)
        return self

    # ------------------------------------------------------------------
    # Share renegotiation
    # ------------------------------------------------------------------
    def set_share(self, time, target, share):
        return self._add(time, "set_share", target=target, value=share)

    def share_storm(self, start, duration, targets, count,
                    low=1, high=10):
        """``count`` renegotiations at seeded times over seeded targets."""
        targets = list(targets)
        if not targets:
            raise ConfigurationError("share_storm needs at least one target")
        rng = self._rng
        for _ in range(count):
            self.set_share(
                start + rng.random() * duration,
                rng.choice(targets),
                rng.randint(low, high),
            )
        return self

    # ------------------------------------------------------------------
    # Flow churn
    # ------------------------------------------------------------------
    def add_flow(self, time, flow_id, share=1):
        return self._add(time, "add_flow", target=flow_id, value=share)

    def remove_flow(self, time, flow_id):
        """Remove a flow; retried by the injector until the flow drains."""
        return self._add(time, "remove_flow", target=flow_id)

    def enqueue_burst(self, time, flow_id, count, length):
        return self._add(time, "enqueue_burst", target=flow_id,
                         value=(count, length))

    def churn_storm(self, start, duration, count, prefix="churn",
                    burst=4, length=8000, low_share=1, high_share=5):
        """``count`` short-lived flows: add, burst, then remove.

        Every lifetime fits inside the window; removals retry until the
        burst drains, so churn exercises the add/remove bookkeeping under
        backlog without ever violating the idle-removal contract.
        """
        rng = self._rng
        for index in range(count):
            flow_id = f"{prefix}-{index}"
            born = start + rng.random() * (duration * 0.5)
            dies = born + duration * 0.25 + rng.random() * (duration * 0.25)
            self.add_flow(born, flow_id,
                          share=rng.randint(low_share, high_share))
            self.enqueue_burst(born, flow_id, 1 + rng.randrange(burst),
                               length)
            self.remove_flow(dies, flow_id)
        return self

    # ------------------------------------------------------------------
    # Buffer pressure
    # ------------------------------------------------------------------
    def buffer_limit(self, time, flow_id, packets, policy="tail"):
        return self._add(time, "buffer_limit", target=flow_id,
                         value=(packets, policy))

    def shared_buffer(self, time, packets, policy="tail"):
        return self._add(time, "shared_buffer", value=(packets, policy))

    def buffer_ramp(self, start, duration, high, low, steps=4,
                    policy="longest"):
        """Tighten the shared buffer from ``high`` to ``low`` and release.

        The cap steps down across the window (the classic congestion
        ramp), then the final action removes it, so a drained system ends
        every scenario with unconstrained admission again.
        """
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {steps!r}")
        if low > high:
            raise ConfigurationError(
                f"ramp goes from high={high!r} down to low={low!r}"
            )
        for step in range(steps):
            frac = step / steps
            limit = max(low, int(round(high - (high - low) * frac)))
            self.shared_buffer(start + frac * duration, limit, policy)
        self.shared_buffer(start + duration, low, policy)
        self.shared_buffer(start + duration * 1.25, None)
        return self

    # ------------------------------------------------------------------
    # Topology (hierarchical schedulers)
    # ------------------------------------------------------------------
    def attach(self, time, parent, subtree):
        """Graft a NodeSpec subtree under ``parent`` (H-PFQ only)."""
        return self._add(time, "attach", target=parent, value=subtree)

    def detach(self, time, name):
        return self._add(time, "detach", target=name)

    def __repr__(self):
        return f"FaultPlan(seed={self.seed}, actions={len(self.actions)})"


class FaultInjector:
    """Compiles a :class:`FaultPlan` into simulator events on a Link.

    Parameters
    ----------
    plan:
        The fault plan to execute.
    link:
        The :class:`~repro.sim.link.Link` under attack; its scheduler
        receives the share/buffer/topology actions.
    retry_interval:
        Seconds between retries of a ``remove_flow`` action whose flow is
        still backlogged (removal contracts require an idle flow).
    priority:
        Simulator priority of fault events.  The default ``1`` runs a
        fault *after* all same-instant traffic, which keeps plans
        readable ("at t=2 the link went down" means after t=2's arrival).
    """

    def __init__(self, plan, link, retry_interval=1e-3, priority=1):
        if retry_interval <= 0:
            raise ConfigurationError(
                f"retry interval must be positive, got {retry_interval!r}"
            )
        self.plan = plan
        self.link = link
        self.retry_interval = retry_interval
        self.priority = priority
        self.applied = 0
        self.retries = 0

    def arm(self):
        """Schedule every plan action; returns self for chaining."""
        sim = self.link.sim
        for action in self.plan:
            sim.schedule(action.time, self._fire, action,
                         priority=self.priority)
        return self

    # ------------------------------------------------------------------
    def _emit(self, action, value=None):
        scheduler = self.link.scheduler
        obs = scheduler.observer
        self.applied += 1
        if obs is not None:
            obs.emit(FaultEvent(self.link.sim.now, scheduler.name,
                                action.kind, action.target,
                                action.value if value is None else value))

    def _fire(self, action):
        link = self.link
        scheduler = link.scheduler
        kind = action.kind
        if kind == "link_down":
            link.pause()
        elif kind == "link_up":
            link.resume()
        elif kind == "link_rate":
            link.set_rate(action.value)
        elif kind == "link_scale":
            new_rate = scheduler.rate * action.value
            link.set_rate(new_rate)
            self._emit(action, value=new_rate)
            return
        elif kind == "set_share":
            scheduler.set_share(action.target, action.value)
        elif kind == "add_flow":
            scheduler.add_flow(action.target, action.value)
        elif kind == "remove_flow":
            scheduler.sync(link.sim.now)
            if scheduler.queue_length(action.target) > 0:
                # The contract requires an idle flow; try again shortly.
                self.retries += 1
                link.sim.schedule_in(self.retry_interval, self._fire,
                                     action, priority=self.priority)
                return
            scheduler.remove_flow(action.target)
        elif kind == "enqueue_burst":
            from repro.core.packet import Packet
            count, length = action.value
            for _ in range(count):
                link.send(Packet(action.target, length))
        elif kind == "buffer_limit":
            packets, policy = action.value
            scheduler.set_buffer_limit(action.target, packets, policy)
        elif kind == "shared_buffer":
            packets, policy = (action.value if action.value[0] is not None
                               else (None, "tail"))
            scheduler.set_shared_buffer(packets, policy)
        elif kind == "attach":
            scheduler.attach_subtree(action.target, action.value)
            self._emit(action, value=action.value.name)
            return
        elif kind == "detach":
            scheduler.sync(link.sim.now)
            try:
                scheduler.detach_subtree(action.target)
            except ConfigurationError:
                # Subtree still has queued or in-flight work; the detach
                # contract (like remove_flow's) wants it quiescent.
                self.retries += 1
                link.sim.schedule_in(self.retry_interval, self._fire,
                                     action, priority=self.priority)
                return
        else:  # pragma: no cover - _add validates kinds
            raise ConfigurationError(f"unknown fault kind {kind!r}")
        self._emit(action)

    def __repr__(self):
        return (f"FaultInjector(actions={len(self.plan)}, "
                f"applied={self.applied}, retries={self.retries})")
