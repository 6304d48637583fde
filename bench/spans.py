"""Span tracing of bornsim's layers from outside the package.

``Tracer.installed()`` replaces each traced function, under every name a
bornsim module binds it to (``bornsim.cli.run_trials`` as well as
``bornsim.stats.run_trials``), with a wrapper that records a span: layer
name, start and end (``perf_counter_ns``), parent span, thread and the work
the call was given (trials, draws). Nothing under ``src/`` changes, and the
original functions are put back on exit.

A span's parent is the innermost open span of its own thread; a span opened
on a thread with no open span (the ``run_trials`` worker pool) takes the
innermost open span of the thread that created the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _uniforms_work(args, kwargs):
    n = _arg(args, kwargs, 2, "stop") - _arg(args, kwargs, 1, "start")
    return n, n * _arg(args, kwargs, 3, "ndraws"), 0


def _kernel_work(pos: int):
    return lambda args, kwargs: (int(np.size(_arg(args, kwargs, pos, "u1"))), 0, 0)


def _run_trials_work(args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    return cfg.trials, 0, cfg.workers


@dataclass(frozen=True)
class Layer:
    name: str  # "<module>.<function>", the module relative to bornsim
    work: Callable | None = None  # (args, kwargs) -> (trials, draws, workers)

    @property
    def module(self) -> str:
        return "bornsim." + self.name.rsplit(".", 1)[0]

    @property
    def function(self) -> str:
        return self.name.rsplit(".", 1)[1]


LAYERS = (
    Layer("cli.main"),
    Layer("stats.run_trials", _run_trials_work),
    Layer("streams.trial_uniforms", _uniforms_work),
    Layer("rod.outcomes_from_uniforms", _kernel_work(3)),
    Layer("disk.up_indices", _kernel_work(2)),
    Layer("sphere.outcome_indices", _kernel_work(1)),
    Layer("stats.chi_square_gof"),
    Layer("rod.rod_analytic"),
    Layer("quantum.frame_additivity_check"),
    Layer("geometry.random_frame"),
)


class Span:
    __slots__ = ("layer", "parent", "thread", "start", "end", "trials", "draws", "workers")


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span()
            span.layer = layer.name
            if stack:
                span.parent = stack[-1]
            else:
                span.parent = self._root_stack[-1] if self._root_stack else None
            span.thread = threading.get_ident()
            span.trials, span.draws, span.workers = (
                layer.work(args, kwargs) if layer.work else (0, 0, 0)
            )
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                self.spans.append(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "bornsim"]
        patched = []
        try:
            for layer in self.layers:
                owner = sys.modules.get(layer.module)
                original = getattr(owner, layer.function, None)
                if original is None:
                    print(f"warning: layer {layer.name} not found", file=sys.stderr)
                    continue
                wrapper = self.wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a new list."""
        spans, self.spans = self.spans, []
        return spans


@dataclass
class LayerStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    trials: int = 0
    draws: int = 0
    child_busy_ns: int = 0
    capacity_ns: int = 0  # workers x wall, for the thread pool's idle share

    def add(self, other: LayerStats) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(spans: list[Span], layers=LAYERS) -> dict[str, LayerStats]:
    """Per-layer calls, busy time, self time and work from one set of spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append(sp)
    stats = {layer.name: LayerStats() for layer in layers}
    for sp in spans:
        st = stats[sp.layer]
        dur = sp.end - sp.start
        kids = children.get(id(sp), ())
        st.calls += 1
        st.busy_ns += dur
        st.self_ns += dur - _covered(sp.start, sp.end, [(k.start, k.end) for k in kids])
        st.trials += sp.trials
        st.draws += sp.draws
        st.child_busy_ns += sum(k.end - k.start for k in kids)
        st.capacity_ns += max(sp.workers, 1) * dur
    return stats


def dump(spans: list[Span], path) -> None:
    """Write spans as compact JSON: one [layer, start, end, parent, thread] row each."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    threads: dict[int, int] = {}
    rows = [
        [sp.layer, sp.start, sp.end,
         index.get(id(sp.parent), -1) if sp.parent is not None else -1,
         threads.setdefault(sp.thread, len(threads))]
        for sp in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["layer", "start_ns", "end_ns", "parent", "thread"],
                   "spans": rows}, fh, separators=(",", ":"))
