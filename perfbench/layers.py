"""Outside-in per-layer host-time accounting for the repro simulator.

:class:`LayerTrace` wraps the public boundary of each layer (a package
under ``src/repro/``) for the duration of a ``with`` block and restores
every original attribute on exit.  Nothing inside the program changes:
the wrappers only read the clock, and the engine observer follows the
read-only hook protocol of :mod:`repro.engine.observer`, so a traced run
simulates exactly what an untraced one does.

Accounting is a single stack of open frames.  Each frame belongs to one
layer; when it closes, its elapsed time minus the time of the frames
nested inside it is that layer's *self time*.  Nested calls are therefore
never counted twice, and the self times of all layers, together with the
root frame's own self time (``sim.driver``), add up to the root frame's
wall time.

Boundaries and the layer each one opens:

=============================================  ==================
``Workload.build``                             ``workloads.build``
``BuiltWorkload.validate``                     ``workloads.validate``
``repro.isa.vector.execute``/``execute_simt``  ``isa.vector``
``Engine.run``                                 ``engine``
each delivered event (observer hooks)          package of its callback
``PrefetchBuffer.demand_access``,
``SequentialPrefetcher.demand_access_multi``   ``mem``
``MemoryController.access``                    ``dram``
``FingerprintStore.put``/``get_spec``          ``sim.store.put``/``get``
=============================================  ==================

An event callback belongs to the package that defines its function
(``repro.core.replay`` -> ``core``).  On reference-backend specs the
reference interpreter runs inside the ``core``/``arch`` callbacks and
cannot be told apart from the core loop from outside, so that self time
is booked to ``isa.executor`` instead.

Spans (name, start, end, parent, spec id) are kept in memory for the
spec, build, validate, functional, ``engine.run``, store and campaign
boundaries only; per-event work is aggregated into counts and self time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

#: packages whose event callbacks get their own layer; callbacks defined
#: anywhere else are booked to ``engine.other``
EVENT_PACKAGES = ("core", "arch", "mem", "dram")
#: the layers whose self time is reinterpreted on reference-backend specs
REFERENCE_LAYERS = ("core", "arch")
#: span names recorded for boundaries (others are aggregated only)
SPAN_LAYERS = {
    "workloads.build": "build",
    "workloads.validate": "validate",
    "isa.vector": "functional",
    "engine": "engine.run",
    "sim.store.put": "store.put",
    "sim.store.get": "store.get",
}


class LayerTrace:
    """Frames, counters and spans for one traced region.

    Use :meth:`frame` (a context manager) for the benchmark's own
    boundaries - a pass, a spec, a campaign - and :meth:`installed` to
    wrap the program's boundaries while the traced code runs.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self.backend = "vector"
        self.spec_id = 0
        #: seconds inside ``Engine.run``, read around each call outside
        #: its frame (for the engine accounting check)
        self.engine_run_s = 0.0
        self._stack: list[list] = []
        self._next_span = 0
        self._owner: dict = {}
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def push(self, layer: str, span: Optional[str] = None) -> None:
        span_id = None
        if span is not None:
            span_id = self._next_span
            self._next_span += 1
        self._stack.append([layer, time.perf_counter(), 0.0, span, span_id,
                            self.spec_id])

    def pop(self) -> float:
        end = time.perf_counter()
        layer, start, child, span, span_id, spec = self._stack.pop()
        elapsed = end - start
        self.self_s[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        if span is not None:
            self.spans.append({
                "id": span_id,
                "parent": self._parent_span(),
                "spec": spec,
                "name": span,
                "start_s": start - self._t0,
                "end_s": end - self._t0,
            })
        return elapsed

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[4] is not None:
                return frame[4]
        return None

    def frame(self, layer: str, span: Optional[str] = None):
        """Context manager around one benchmark-owned boundary."""
        return _Frame(self, layer, span)

    def next_spec(self) -> float:
        """Close the open spec frame and open the next one; returns the
        closed spec's seconds.  Inside a campaign the progress callback
        calls this after each completed spec, so a spec's span runs from
        the previous completion to its own."""
        elapsed = self.pop()
        self.spec_id += 1
        self.push("sim.driver", "spec")
        return elapsed

    def close_specs(self) -> None:
        """Close the frame opened after a campaign's last completion."""
        self._stack[-1][3] = "campaign.tail"
        self.pop()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, layer: str, counter: str, fn: Callable) -> Callable:
        span = SPAN_LAYERS.get(layer)
        push, pop, counts = self.push, self.pop, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            push(layer, span)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return wrapper

    def _store_get(self, fn: Callable) -> Callable:
        timed = self._timed("sim.store.get", "sim.store.get_calls", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            counts["sim.store.get_hits"] += result is not None
            return result

        return wrapper

    def _engine_run(self, fn: Callable) -> Callable:
        from repro.engine.observer import attach_observer, detach_observer

        timed = self._timed("engine", "engine.run_calls", fn)
        observer = _EventObserver(self)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            start = time.perf_counter()
            observer.reference = self.backend == "reference"
            attach_observer(engine, observer)
            try:
                delivered = timed(engine, *args, **kwargs)
            finally:
                detach_observer(engine, observer)
                self.engine_run_s += time.perf_counter() - start
            counts["engine.events"] += delivered
            return delivered

        return wrapper

    def installed(self):
        """Context manager: wrap every boundary, restore them on exit."""
        from repro.dram.controller import MemoryController
        from repro.engine.events import Engine
        from repro.isa import vector
        from repro.mem.prefetch_buffer import PrefetchBuffer
        from repro.mem.prefetcher import SequentialPrefetcher
        from repro.sim.store import FingerprintStore
        from repro.workloads.base import BuiltWorkload, Workload

        timed = self._timed
        patches = [
            (Workload, "build",
             timed("workloads.build", "workloads.build_calls", Workload.build)),
            (BuiltWorkload, "validate",
             timed("workloads.validate", "workloads.validate_calls",
                   BuiltWorkload.validate)),
            (vector, "execute",
             timed("isa.vector", "isa.vector.calls", vector.execute)),
            (vector, "execute_simt",
             timed("isa.vector", "isa.vector.calls", vector.execute_simt)),
            (Engine, "run", self._engine_run(Engine.run)),
            (PrefetchBuffer, "demand_access",
             timed("mem", "mem.loads", PrefetchBuffer.demand_access)),
            (SequentialPrefetcher, "demand_access_multi",
             timed("mem", "mem.loads",
                   SequentialPrefetcher.demand_access_multi)),
            (MemoryController, "access",
             timed("dram", "dram.requests", MemoryController.access)),
            (FingerprintStore, "put",
             timed("sim.store.put", "sim.store.put_calls",
                   FingerprintStore.put)),
            (FingerprintStore, "get_spec",
             self._store_get(FingerprintStore.get_spec)),
        ]
        return _Patched(patches)

    # ------------------------------------------------------------------
    def owner(self, fn) -> str:
        """Layer of an event callback: the package defining its function."""
        func = getattr(fn, "__func__", fn)
        layer = self._owner.get(func)
        if layer is None:
            module = getattr(func, "__module__", None) or ""
            parts = module.split(".")
            package = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
            layer = package if package in EVENT_PACKAGES else "engine.other"
            self._owner[func] = layer
        return layer


class _EventObserver:
    """Engine observer: one frame per delivered event, named after the
    package owning its callback.  Read-only: it touches no engine state."""

    def __init__(self, trace: LayerTrace) -> None:
        self.trace = trace
        self.reference = False

    def on_deliver(self, ev) -> None:
        trace = self.trace
        layer = trace.owner(ev.fn)
        trace.counts[layer + ".events"] += 1
        if self.reference and layer in REFERENCE_LAYERS:
            layer = "isa.executor"
        trace.push(layer)

    def on_return(self, ev) -> None:
        self.trace.pop()


class _Frame:
    def __init__(self, trace: LayerTrace, layer: str, span: Optional[str]):
        self.trace, self.layer, self.span = trace, layer, span
        self.elapsed = 0.0

    def __enter__(self) -> "_Frame":
        self.trace.push(self.layer, self.span)
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = self.trace.pop()


class _Patched:
    """Install ``(owner, attribute, replacement)`` patches; undo on exit."""

    def __init__(self, patches: list[tuple]) -> None:
        self.patches = patches
        self.saved: list[tuple] = []

    def __enter__(self) -> "_Patched":
        for owner, name, replacement in self.patches:
            self.saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)
        return self

    def __exit__(self, *exc) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)
