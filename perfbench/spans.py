"""Spans and counters recorded around calls into the program's layers.

The program is never edited. :class:`Patcher` replaces a name where its
caller looks it up (a module global such as
``repro.sort.pairwise.dense_report``, or a class attribute such as
``PairwiseMergeSort.sort``) with a wrapper that opens a span in a
:class:`Tracer`, and puts the original back on :meth:`Patcher.restore`.

Spans are kept in memory; :func:`summarize` folds them into per-layer
busy time, self time and call counts when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter

__all__ = ["Patcher", "Span", "Tracer", "covered", "summarize"]


class Span:
    """One timed call: ``name``, ``start``/``end`` and the causing span."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int):
        self.name = name
        self.start = start
        self.end = end
        #: Index of the enclosing span in the tracer's list, -1 at top level.
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store, safe to share between threads.

    Parent links follow a per-thread stack, so a span opened inside
    another on the same thread becomes its child. Coroutine spans
    (``detached=True``) neither take a parent nor become one, because
    coroutines interleave on one thread.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, detached: bool = False) -> int:
        """Start a span now; returns its index for :meth:`close`."""
        stack = self._stack()
        parent = -1 if detached or not stack else stack[-1]
        now = self.clock()
        with self._lock:
            self.spans.append(Span(name, now, now, parent))
            index = len(self.spans) - 1
        if not detached:
            stack.append(index)
        return index

    def close(self, index: int, *, detached: bool = False) -> None:
        """End the span opened as ``index``."""
        self.spans[index].end = self.clock()
        if not detached:
            stack = self._stack()
            if stack and stack[-1] == index:
                stack.pop()

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        with self._lock:
            self.counts[name] += value


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``busy_s``, ``self_s`` and ``calls``.

    ``busy_s`` sums the durations of the spans with no ancestor of the
    same name, so a layer that re-enters itself is counted once, while
    calls on different threads that overlap in time are each counted.
    A span's self time is its duration minus the part of its interval
    its child spans cover; children that overlap each other count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += span.duration - covered(
            children.get(index, ()), span.start, span.end
        )
        if not _has_ancestor(spans, span, span.name):
            entry["busy_s"] += span.duration
    return out


class Patcher:
    """Installs span wrappers on names and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, span, hook=None) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

        ``span`` names the span opened around each call, or is a function
        of the call's positional arguments returning that name; ``None``
        records no span. ``hook(tracer, args, kwargs, result)`` runs
        after each call to add counters.
        """
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, name)
        own = not isinstance(owner, type) or name in owner.__dict__
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        wrapped = _wrapper(self.tracer, func, span, hook)
        setattr(owner, name, kind(wrapped) if kind is not None else wrapped)
        self._saved.append((owner, name, raw if own else None))

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._saved:
            owner, name, raw = self._saved.pop()
            if raw is None:
                delattr(owner, name)  # the class inherited it
            else:
                setattr(owner, name, raw)


def _wrapper(tracer: Tracer, func, span, hook):
    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def traced_async(*args, **kwargs):
            name = span(args) if callable(span) else span
            index = tracer.open(name, detached=True) if name else None
            try:
                result = await func(*args, **kwargs)
            finally:
                if index is not None:
                    tracer.close(index, detached=True)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced_async

    @functools.wraps(func)
    def traced(*args, **kwargs):
        name = span(args) if callable(span) else span
        index = tracer.open(name) if name else None
        try:
            result = func(*args, **kwargs)
        finally:
            if index is not None:
                tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced
