"""Spans and exact counters at the layer boundaries of ``skewbrauer``.

Installed from outside the package: every public function of a layer
module is replaced, in every module that holds a binding to it, by a
wrapper that records a span (name, layer, start, end, parent).  Calls
made through ``iso.enumerate_basis`` or ``brauer.enumerate_basis`` are
therefore seen as well as calls through ``basis.enumerate_basis``.  A
layer's self time is the time its spans cover minus the time their
child spans cover.

Two hot methods are counted but get no span, since a span per call
would cost more than the call: ``PathBasis.reduce`` and
``Quiver.arrows_from``.  Time spent inside them counts toward the
layer that called them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import Counter

LAYERS = ("basis", "brauer", "cartan", "dissection", "formats", "iso",
          "skewgentle", "trivext")
HOLDERS = LAYERS + ("quiver", "cli")


def algebra_key(bq, length_cap=None) -> tuple:
    """A bound quiver compared by value: labels, arrows, relation terms."""
    q = bq.quiver
    return (tuple((v.id, v.label) for v in q.vertices),
            tuple((a.id, a.label, a.source, a.target) for a in q.arrows),
            tuple(tuple((c, p.base, p.arrows) for c, p in r.terms)
                  for r in bq.relations),
            bq.special_vertices, length_cap)


class Tracer:
    """Records spans and counts while installed; one pass at a time."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[list] = []       # [name, layer, start, end, parent]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._seen: set = set()

    def reset(self) -> None:
        """Forget the previous pass; the wrappers keep these containers."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self._seen.clear()

    # -- spans -------------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][3] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> tuple[Counter, Counter]:
        """Self seconds by layer and by span name."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer, by_name = Counter(), Counter()
        for (name, layer, start, end, _), covered in zip(self.spans, child):
            own = end - start - covered
            by_layer[layer] += own
            by_name[name] += own
        return by_layer, by_name

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        wrappers: dict[int, object] = {}
        package = importlib.import_module("skewbrauer")
        holders = [package] + [importlib.import_module(f"skewbrauer.{m}")
                               for m in HOLDERS]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._patch(module, attr, wrappers[id(obj)])
        basis = importlib.import_module("skewbrauer.basis")
        quiver = importlib.import_module("skewbrauer.quiver")
        self._patch(basis.PathBasis, "reduce",
                    self._counted(basis.PathBasis.reduce, "basis.reduce_calls"))
        self._patch(quiver.Quiver, "arrows_from",
                    self._counted(quiver.Quiver.arrows_from,
                                  "quiver.arrows_from_calls"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _counted(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def resumed(*args, **kwargs):
                # one span per resumption: each step's work is its own span
                it = fn(*args, **kwargs)
                while True:
                    i = tracer.open(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    yield item
            return resumed

        if name == "basis.enumerate_basis":
            return self._wrap_basis(fn, name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            i = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
        return spanned

    def _wrap_basis(self, fn, name: str):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def enumerate_basis(bq, length_cap=None):
            k = tracer.open("trace.algebra_key", "trace")
            key = algebra_key(bq, length_cap)
            counts["basis.repeats"] += key in tracer._seen
            tracer._seen.add(key)
            tracer.close(k)
            counts["basis.calls"] += 1
            i = tracer.open(name, "basis")
            try:
                result = fn(bq, length_cap)
            finally:
                tracer.close(i)
            counts["basis.dim_sum"] += result.dimension
            return result
        return enumerate_basis
