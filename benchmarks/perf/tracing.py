"""Per-layer host-time attribution from outside the program.

:class:`LayerTracer` wraps the public entry point of each simulator
layer at class level (the program itself carries no timers).  Every
call is a span; spans nest through a stack, so a layer's *self* time is
its duration minus the time its direct children cover, and whatever no
span covers is reported as ``other``.  By construction the self times
plus ``other`` add up to the traced wall time.

Generator bodies (``Fabric.transfer_process``) run in slices whenever
the engine resumes them, so they are wrapped in a proxy that opens one
span per resume.  Garbage-collector pauses arrive through
``gc.callbacks`` and count as the ``gc`` layer, nested under whichever
span they interrupted.

Wrappers are installed before the runtime under test is built, so no
bound method cached at construction escapes them, and count only while
:attr:`LayerTracer.on` is set, which the caller flips around its timed
window.  The hot path keeps one float per open span; raw spans (layer,
start, end, tag) are kept only with ``record_spans``, for
:meth:`LayerTracer.chrome_trace`.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
from time import perf_counter

#: Layer name -> (module, class, entry points).  ``core.policies`` is
#: resolved to every policy class that defines its own ``assign``.
LAYERS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "sim.engine": ("repro.sim.engine", "Engine",
                   ("run", "run_steps", "step")),
    "core.controller": ("repro.core.controller", "Controller",
                        ("schedule",)),
    "core.pipeline.admission": ("repro.core.pipeline.admission",
                                "AdmissionStage", ("process",)),
    "core.pipeline.placement": ("repro.core.pipeline.placement",
                                "PlacementStage", ("process",)),
    "core.pipeline.movement": ("repro.core.pipeline.movement",
                               "DataMovementStage", ("process",)),
    "core.pipeline.coherence": ("repro.core.pipeline.coherence",
                                "CoherenceStage", ("process",)),
    "core.pipeline.dispatch": ("repro.core.pipeline.dispatch",
                               "DispatchStage", ("process",)),
    "core.policies": ("repro.core.policies", "Policy", ("assign",)),
    "core.dag.add": ("repro.core.dag", "DependencyDag",
                     ("add", "add_with_parents")),
    "core.dag.prune": ("repro.core.dag", "DependencyDag",
                       ("prune_completed",)),
    "core.intranode": ("repro.core.intranode", "IntraNodeScheduler",
                       ("submit",)),
    "uvm.price": ("repro.uvm.manager", "UvmSpace", ("price_kernel",)),
    "uvm.replay": ("repro.uvm.manager", "UvmSpace", ("replay_kernel",)),
    "net.fabric": ("repro.net.fabric", "Fabric",
                   ("transfer", "transfer_process")),
    "serve.submit": ("repro.serve.service", "GroutService", ("submit",)),
    "serve.pump": ("repro.serve.service", "GroutService", ("pump",)),
}

#: Every reported layer, in report order: the wrapped ones, then the
#: collector and the uncovered remainder.
LAYER_NAMES = (*LAYERS, "gc", "other")
_GC = LAYER_NAMES.index("gc")


class LayerTracer:
    """Class-level span wrappers plus the self-time accounting."""

    def __init__(self, *, record_spans: bool = False):
        self.on = False
        self.record_spans = record_spans
        n = len(LAYER_NAMES)
        #: Per-layer self seconds and calls (the wrappers hold
        #: references to these lists).
        self.self_s = [0.0] * n
        self.calls = [0] * n
        #: ``replay_kernel`` calls that returned ``None`` (live pricing).
        self.replay_fallbacks = 0
        #: Finished spans ``(layer, start, end, tag)`` if recording.
        self.spans: list[tuple] = []
        self._open: list[float] = []      # child seconds per open span
        self._gc_start = None
        self._patched: list[tuple[type, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points and hook the collector."""
        if self._patched:
            return
        for layer, (module, cls_name, methods) in LAYERS.items():
            base = getattr(importlib.import_module(module), cls_name)
            classes = _subclasses(base) if layer == "core.policies" \
                else [base]
            for cls in classes:
                for method in methods:
                    original = cls.__dict__.get(method)
                    if original is None or getattr(
                            original, "__isabstractmethod__", False):
                        continue
                    self._patched.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, layer))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped entry point and unhook the collector."""
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, fn, layer: str):
        index = LAYER_NAMES.index(layer)
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                return _GeneratorProxy(fn(*args, **kwargs), self, index)
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper
        tracer = self
        self_s, calls, stack = self.self_s, self.calls, self._open
        # Spans under Controller.schedule are tagged with the CE id and
        # serve submissions with their ticket id (recorded spans only).
        schedule = layer == "core.controller"
        submit = layer == "serve.submit"
        replay = layer == "uvm.replay"

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                self_s[index] += duration - stack.pop()
                calls[index] += 1
                if stack:
                    stack[-1] += duration
            if replay and result is None:
                tracer.replay_fallbacks += 1
            if tracer.record_spans:
                tag = getattr(args[1], "ce_id", None) if schedule else \
                    getattr(result, "ticket_id", None) if submit else None
                tracer.spans.append((index, start, end, tag))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _on_gc(self, phase: str, _info: dict) -> None:
        if not self.on:
            return
        if phase == "start":
            self._open.append(0.0)
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self._close(_GC, self._gc_start, None)
            self._gc_start = None

    def _close(self, index: int, start: float, tag: object) -> None:
        """Account one finished span opened with ``_open.append``."""
        end = perf_counter()
        duration = end - start
        stack = self._open
        self.self_s[index] += duration - stack.pop()
        self.calls[index] += 1
        if stack:
            stack[-1] += duration
        if self.record_spans:
            self.spans.append((index, start, end, tag))

    # -- reporting ------------------------------------------------------------

    def breakdown(self, wall: float) -> dict[str, dict[str, float]]:
        """Per-layer ``self_s``/``share``/``calls``/``us_per_call`` over a
        traced window of ``wall`` seconds; ``other`` takes the rest."""
        out = {}
        covered = 0.0
        for i, name in enumerate(LAYER_NAMES[:-1]):
            covered += self.self_s[i]
            out[name] = _layer_row(self.self_s[i], self.calls[i], wall)
        out["other"] = _layer_row(wall - covered, 0, wall)
        return out

    def chrome_trace(self) -> dict:
        """Recorded spans as Chrome trace-event JSON (``ph: X``).

        Parents are recovered from nesting: each span gets an ``id``,
        its enclosing span's ``parent`` id, and inherits the enclosing
        span's tag (so spans under ``Controller.schedule`` carry the CE
        id).
        """
        spans = sorted(self.spans, key=lambda s: (s[1], -s[2]))
        origin = spans[0][1] if spans else 0.0
        events, open_ = [], []           # open_: (end, id, tag)
        for sid, (index, start, end, tag) in enumerate(spans, 1):
            while open_ and open_[-1][0] <= start:
                open_.pop()
            parent, inherited = (open_[-1][1], open_[-1][2]) if open_ \
                else (0, None)
            tag = tag if tag is not None else inherited
            args = {"id": sid, "parent": parent}
            if tag is not None:
                args["tag"] = tag
            events.append({"name": LAYER_NAMES[index], "cat": "layer",
                           "ph": "X", "pid": 0, "tid": 0,
                           "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
            open_.append((end, sid, tag))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class _GeneratorProxy:
    """Forwards the generator protocol, opening one span per resume."""

    __slots__ = ("_gen", "_tracer", "_layer", "__name__")

    def __init__(self, gen, tracer: LayerTracer, layer: int):
        self._gen = gen
        self._tracer = tracer
        self._layer = layer
        # Process names default to the generator's name; keep them.
        self.__name__ = getattr(gen, "__name__", None)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        if not tracer.on:
            return self._gen.send(value)
        tracer._open.append(0.0)
        start = perf_counter()
        try:
            return self._gen.send(value)
        finally:
            tracer._close(self._layer, start, None)

    def throw(self, *args):
        tracer = self._tracer
        if not tracer.on:
            return self._gen.throw(*args)
        tracer._open.append(0.0)
        start = perf_counter()
        try:
            return self._gen.throw(*args)
        finally:
            tracer._close(self._layer, start, None)

    def close(self):
        return self._gen.close()


def _layer_row(self_s: float, calls: int, wall: float) -> dict[str, float]:
    return {"self_s": self_s,
            "share": self_s / wall if wall > 0 else 0.0,
            "calls": calls,
            "us_per_call": self_s / calls * 1e6 if calls else 0.0}


def _subclasses(base: type) -> list[type]:
    """``base`` and every subclass, depth first."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
