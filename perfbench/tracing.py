"""Span tracing for the benchmark's traced run.

Timing wrappers are installed from here, never from the library: for every
public function of the traced layers, the wrapper replaces the name the
caller actually looks up.  ``bergesat.oracle`` imports ``add_edge`` by name,
so ``bergesat.oracle.add_edge`` is patched; ``bergesat.oracle`` reaches
``creates_new_berge`` through the ``engine`` module, so
``bergesat.engine.creates_new_berge`` is patched.  A span is named after the
module that defines the function (``core.add_edge``), whatever binding it
was reached through.

Spans stay in memory (name, start, end, parent id) and are written out by
``dump``.  Hot calls are aggregated per parent span into a count and a total
instead of one span each, so tracing them stays cheap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("core", "cli", "constructions", "engine", "saturation", "oracle")
HOT = frozenset({"engine.creates_new_berge", "oracle.berge_oracle"})


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans while its wrappers are installed.  Calls made from
    inside a hot call are not recorded, so a hot call's total is its own."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (parent span id, function name) -> [count, total seconds]
        self.hot: dict[tuple[int | None, str], list] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._hot_depth = 0
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        if name in HOT:

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                if tracer._hot_depth:
                    return fn(*args, **kwargs)
                tracer._hot_depth += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    tracer._hot_depth -= 1
                    parent = tracer._stack[-1] if tracer._stack else None
                    slot = tracer.hot.setdefault((parent, name), [0, 0.0])
                    slot[0] += 1
                    slot[1] += elapsed

            return hot_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._hot_depth:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans.append(Span(span_id, parent, name, start, end))

        return wrapper

    def take(self) -> tuple[list[Span], dict]:
        """Return what was recorded so far and start an empty record."""
        spans, hot = self.spans, self.hot
        self.spans, self.hot = [], {}
        return spans, hot

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function bound in the traced layer modules."""
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        defining = {f"bergesat.{layer}" for layer in LAYERS}
        for layer in LAYERS:
            module = importlib.import_module(f"bergesat.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if value.__module__ not in defining:
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                setattr(module, attr, self._wrap(name, value))
                self._patched.append((module, attr, value))

    def remove(self) -> None:
        """Put every patched attribute back to its original object."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# arithmetic over a recorded span tree


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the given intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[Span], hot: dict) -> tuple[dict, dict]:
    """Per-function and per-layer ``{"calls", "total_s", "self_s"}``.

    A span's self time is its duration minus the part of it that its child
    spans and aggregated hot calls cover.  A layer's total counts only the
    spans (and hot calls) not nested inside another span of the same layer,
    so time is never counted twice within one layer.
    """
    by_id = {s.id: s for s in spans}
    child_intervals: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            child_intervals[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    hot_time: dict[int | None, float] = defaultdict(float)
    for (parent, _), (_, total) in hot.items():
        hot_time[parent] += total

    def layer_of(name: str) -> str:
        return name.split(".", 1)[0]

    def inside_layer(parent: int | None, layer: str) -> bool:
        while parent is not None and parent in by_id:
            span = by_id[parent]
            if layer_of(span.name) == layer:
                return True
            parent = span.parent
        return False

    funcs: dict[str, dict] = {}
    layers: dict[str, dict] = {}

    def add(table: dict, key: str, calls: int, total: float, self_s: float) -> None:
        row = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += calls
        row["total_s"] += total
        row["self_s"] += self_s

    for s in spans:
        duration = s.end - s.start
        self_s = duration - _covered(child_intervals[s.id]) - hot_time[s.id]
        layer = layer_of(s.name)
        add(funcs, s.name, 1, duration, self_s)
        add(layers, layer, 1, duration if not inside_layer(s.parent, layer) else 0.0, self_s)
    for (parent, name), (count, total) in hot.items():
        layer = layer_of(name)
        add(funcs, name, count, total, total)
        add(layers, layer, count, total if not inside_layer(parent, layer) else 0.0, total)
    return funcs, layers


def children_of(spans: list[Span], parent_name: str, child_name: str) -> list[Span]:
    """Spans named ``child_name`` whose direct parent is named ``parent_name``."""
    by_id = {s.id: s for s in spans}
    return [
        s for s in spans
        if s.name == child_name and s.parent in by_id and by_id[s.parent].name == parent_name
    ]


def hot_under(spans: list[Span], hot: dict, parent_name: str, name: str) -> tuple[int, float]:
    """Count and total of hot calls ``name`` made directly from spans named
    ``parent_name``."""
    parents = {s.id for s in spans if s.name == parent_name}
    count, total = 0, 0.0
    for (parent, hname), (c, t) in hot.items():
        if hname == name and parent in parents:
            count += c
            total += t
    return count, total


def dump(path, phases: list[tuple[str, list[Span], dict]]) -> None:
    """Write every recorded phase to ``path`` as JSON."""
    out = []
    for label, spans, hot in phases:
        out.append({
            "phase": label,
            "spans": [s._asdict() for s in spans],
            "hot": [
                {"parent": parent, "name": name, "count": c, "total_s": t}
                for (parent, name), (c, t) in hot.items()
            ],
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
