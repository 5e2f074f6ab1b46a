"""Outside-in span recorder for the traced benchmark run.

The recorder replaces each public function of the ``mee`` layer modules at
every module-level name that binds it (``mee.cli.load_spectrum``,
``mee.experiments.gaussian_chunk``, ``mee.sampling.gaussian_chunk``, ...)
with a wrapper that records a span, and puts the originals back on
``restore``.  Nothing inside the package changes.  Spans stay in memory
until the run ends.

A span's parent is the innermost open span on the same thread.  A worker
thread that opens a span with nothing open on its own stack takes the
innermost open span of the op's thread instead: that thread is blocked in
the call that handed out the work, so its top span is the caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("cli", "io", "spectrum", "bounds", "canonical", "sampling", "experiments")

# Called per float in the CSV row loop: a span each would cost more than the
# work, so these only count calls.
COUNT_ONLY = frozenset({"io.format_float"})

# The experiments fan chunks out through this helper; wrapping the per-item
# function it receives gives one "experiments.chunk" span per chunk, the
# draw plus the reduction, on whichever worker thread runs it.
CHUNK_MAPPER = ("experiments", "_map_ordered")
CHUNK_SPAN = "experiments.chunk"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "thread": self.thread,
            **self.info,
        }


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children from parallel workers overlap; the union counts covered time
    once, so self time never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


class Recorder:
    """Installs span wrappers on the ``mee`` layer bindings and keeps the spans.

    ``annotate`` maps a span name to ``f(result) -> dict``; the dict is
    stored on the span, for counts that only the return value carries.
    """

    def __init__(self, annotate: dict[str, Callable] | None = None):
        self.spans: list[Span] = []
        self._counters: dict[str, itertools.count] = {}
        self.op: int | None = None
        self._annotate = annotate or {}
        # next() on an itertools.count is one C call, atomic under the GIL,
        # so ids and call counts need no lock even from worker threads.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Mark the calling thread as the op's thread for op ``op``."""
        self.op = op
        self._op_stack = self._stack()

    def span(self, name: str, fn: Callable) -> Callable:
        annotate = self._annotate.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._op_stack[-1] if self._op_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, self.op, threading.get_ident())
                self.spans.append(span)
            if annotate is not None:
                span.info = annotate(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        tick = self._counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def take_counts(self) -> dict[str, int]:
        """Calls made through the counting wrappers since the last take."""
        counts = {name: next(counter) for name, counter in self._counters.items()}
        self._counters.clear()
        return counts

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function at each layer-module name bound to it."""
        modules = {layer: importlib.import_module(f"mee.{layer}") for layer in LAYERS}
        wrappers: dict[Callable, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    label = f"{layer}.{attr}"
                    make = self.counted if label in COUNT_ONLY else self.span
                    wrappers[obj] = make(label, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        layer, attr = CHUNK_MAPPER
        mapper = getattr(modules[layer], attr, None)
        if mapper is not None:
            self._patch(modules[layer], attr, self._chunk_mapper(mapper))

    def _chunk_mapper(self, mapper: Callable) -> Callable:
        @functools.wraps(mapper)
        def wrapper(fn, items, *args, **kwargs):
            return mapper(self.span(CHUNK_SPAN, fn), items, *args, **kwargs)

        return wrapper

    def _patch(self, mod, attr: str, new) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def restore(self) -> None:
        """Put back every original binding, newest first."""
        while self._patches:
            mod, attr, old = self._patches.pop()
            setattr(mod, attr, old)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json(), sort_keys=True) + "\n")
