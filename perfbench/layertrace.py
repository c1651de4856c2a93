"""Layer-attributed tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of the
``repro`` package in a span that counts calls and accumulates time.  A
layer's *self time* is the time its spans cover minus the time covered
by the spans they enclose and minus the wrappers' own cost (measured by
:meth:`LayerTracer.calibrate`).  Window time no span covers is the
``unattributed`` share.

The wrapping is done on the classes, for the lifetime of a ``with
tracer.installed():`` block, and is fully undone on exit; objects must be
built inside the block so that the callbacks they hand to
``Simulator.schedule`` are wrapped too.  Spans are aggregated as they
close (per-layer self time, per-entry call counts, and per-call
durations for the few entries whose distribution is reported); nothing
is kept per span, so memory stays flat on long runs.
"""

import contextlib
import statistics
import time

#: The layers, named after the ``repro`` modules they cover.
LAYERS = ("traffic", "sim.engine", "sim.link", "core", "dstruct.heap",
          "obs", "serve", "faults.checkpoint")

#: Entries whose per-call durations are kept for percentile metrics.
TIMED_ENTRIES = frozenset({
    "ServiceRunner._payload", "CheckpointStore.save",
    "CheckpointStore.load_latest", "harness.payload",
})

#: Scheduler entry points wrapped on the concrete scheduler class.
SCHEDULER_ENTRIES = ("enqueue", "enqueue_batch", "dequeue", "dequeue_batch",
                     "drain_until", "evict_idle_flow")

#: Emission callbacks the traffic sources schedule on the engine.
CALLBACKS = ("_emit", "_emit_timetable")

HEAP_ENTRIES = ("push", "pop", "replace_top", "pop_push", "move_top_to",
                "update", "remove")

#: The host clock every span reads.
clock = time.perf_counter_ns

#: :meth:`LayerTracer.calibrate` takes the median of this many loops of
#: this many wrapped empty calls.
CALIBRATE_ROUNDS = 7
CALIBRATE_CALLS = 20000


class LayerTracer:
    """Span accounting for one traced window (see the module docstring)."""

    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = {}
        self.durations = {}
        self.covered_ns = 0
        self.evictions = 0
        #: Per-span wrapper cost inside the span's own interval and
        #: outside it (charged to the parent); see :meth:`calibrate`.
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._stack = []
        self._saved = []

    def calibrate(self):
        """Measure the wrapper's own cost so self times can exclude it.

        A span costs some time inside its measured interval (the
        forwarding call, half of each clock read) and some outside it
        (bookkeeping before and after), which would otherwise inflate its
        own layer and its parent's.  Both are taken as medians over
        :data:`CALIBRATE_ROUNDS` loops of :data:`CALIBRATE_CALLS` wrapped
        empty calls.
        """
        n = CALIBRATE_CALLS

        def nothing():
            return None

        def per_call(fn):
            start = clock()
            fn()
            return (clock() - start) / n

        def empty():
            for _ in range(n):
                pass

        def direct():
            for _ in range(n):
                nothing()

        inner, outer = [], []
        for _ in range(CALIBRATE_ROUNDS):
            probe = LayerTracer()
            child = probe.wrap("core", "child", nothing)

            def wrapped():
                for _ in range(n):
                    child()

            loop = per_call(empty)
            call = per_call(direct) - loop
            probe.wrap("serve", "parent", wrapped)()
            inner.append(probe.self_ns["core"] / n - call)
            outer.append(probe.self_ns["serve"] / n - loop)
        self.inner_ns = max(0.0, statistics.median(inner))
        self.outer_ns = max(0.0, statistics.median(outer))

    # -- span primitive --------------------------------------------------
    def wrap(self, layer, name, fn):
        """``fn`` wrapped in a span charged to ``layer``, counted as ``name``."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        calls.setdefault(name, 0)
        keep = self.durations.setdefault(name, []) \
            if name in TIMED_ENTRIES else None

        inner = self.inner_ns
        outer = self.outer_ns

        def span(*args, **kwargs):
            calls[name] += 1
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                self_ns[layer] += spent - stack.pop() - inner
                if stack:
                    stack[-1] += spent + outer
                else:
                    self.covered_ns += spent
                if keep is not None:
                    keep.append(spent)

        span.__wrapped__ = fn
        return span

    def run_span(self, layer, name, fn, *args, **kwargs):
        """Call ``fn`` once inside a span (for harness-side work)."""
        return self.wrap(layer, name, fn)(*args, **kwargs)

    def mark(self):
        """Start of a traced window; pass the result to :meth:`since`."""
        return (dict(self.self_ns), dict(self.calls), self.covered_ns,
                self.evictions)

    def since(self, mark, wall_s, slices=0):
        """What the window opened by :meth:`mark` accumulated."""
        self_ns, calls, covered, evictions = mark
        return {
            "self_ns": {k: v - self_ns.get(k, 0)
                        for k, v in self.self_ns.items()},
            "calls": {k: v - calls.get(k, 0) for k, v in self.calls.items()},
            "covered_ns": self.covered_ns - covered,
            "wall_ns": wall_s * 1e9,
            "evictions": self.evictions - evictions,
            "slices": slices,
        }

    # -- installation ----------------------------------------------------
    def _patch(self, cls, attr, replacement):
        had = attr in cls.__dict__
        self._saved.append((cls, attr, had, cls.__dict__.get(attr)))
        setattr(cls, attr, replacement)

    def _patch_method(self, cls, attr, layer, name=None):
        fn = getattr(cls, attr)
        self._patch(cls, attr, self.wrap(layer, name or
                                         f"{cls.__name__}.{attr}", fn))

    @contextlib.contextmanager
    def installed(self, scheduler_classes):
        """Wrap every layer entry point for the duration of the block."""
        from repro.dstruct.heap import IndexedHeap
        from repro.faults.checkpoint import CheckpointStore
        from repro.obs import InvariantChecker, MetricsSink
        from repro.obs.events import EventBus
        from repro.serve.runner import DigestTrace, ServiceRunner
        from repro.sim.engine import Simulator
        from repro.sim.link import Link

        try:
            self._install_engine(Simulator)
            # ``_drain`` is wrapped only to count burst drains: it runs
            # inside ``Link._finish``, which is sim.link time already.
            for attr in ("send", "send_batch", "_drain"):
                self._patch_method(Link, attr, "sim.link")
            for cls in scheduler_classes:
                self._install_scheduler(cls)
            for attr in HEAP_ENTRIES:
                self._patch_method(IndexedHeap, attr, "dstruct.heap")
            self._patch_method(EventBus, "emit", "obs")
            for sink in (MetricsSink, InvariantChecker):
                self._patch_method(sink, "accept", "obs")
            for attr in ("advance", "status", "checkpoint"):
                self._patch_method(ServiceRunner, attr, "serve")
            # Building the payload (spec deepcopy, link/scheduler/source
            # snapshots) is checkpoint work, whichever module hosts it.
            self._patch_method(ServiceRunner, "_payload", "faults.checkpoint")
            recover = ServiceRunner.__dict__["recover"].__func__
            self._patch(ServiceRunner, "recover", classmethod(
                self.wrap("serve", "ServiceRunner.recover", recover)))
            for attr in ("record_arrival", "record_arrivals",
                         "record_service", "record_services"):
                self._patch_method(DigestTrace, attr, "serve")
            for attr in ("save", "load_latest"):
                self._patch_method(CheckpointStore, attr,
                                   "faults.checkpoint")
            yield self
        finally:
            while self._saved:
                cls, attr, had, old = self._saved.pop()
                if had:
                    setattr(cls, attr, old)
                else:
                    delattr(cls, attr)

    def _install_engine(self, Simulator):
        for attr in ("run", "run_guarded", "schedule", "schedule_in"):
            self._patch_method(Simulator, attr, "sim.engine")
        # The callbacks handed to ``schedule`` are charged to their owner:
        # wrapping the owners' callback methods on the class wraps every
        # bound method scheduled from them, at no per-schedule cost.
        from repro.sim.link import Link
        from repro.traffic import source

        self._patch_method(Link, "_finish", "sim.link", "callback:Link._finish")
        for cls in vars(source).values():
            if isinstance(cls, type) and issubclass(cls, source.Source):
                for attr in CALLBACKS:
                    if attr in cls.__dict__:
                        self._patch_method(cls, attr, "traffic",
                                           f"callback:{cls.__name__}.{attr}")

    def _install_scheduler(self, cls):
        tracer = self
        for attr in SCHEDULER_ENTRIES:
            original = getattr(cls, attr)
            if attr == "evict_idle_flow":
                def entry(sched, flow_id, now=None, _original=original):
                    evicted = _original(sched, flow_id, now=now)
                    if evicted:
                        tracer.evictions += 1
                    return evicted
            else:
                entry = original
            self._patch(cls, attr, self.wrap(
                "core", f"core.{attr}", entry))
