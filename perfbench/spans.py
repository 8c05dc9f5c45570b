"""In-memory spans and call counters around functions of a running program.

The tracer replaces module attributes from outside the program, so the
program's code stays untouched: a call made through a patched attribute
opens a span on entry and closes it on exit. Spans of nested calls record
their parent, and a span's self time is its duration minus the part of it
that its children cover. A name that a module no longer has is recorded as
absent instead of raising.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Patches module attributes with timing or counting wrappers.

    Use as a context manager; leaving it restores every patched attribute.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _timed(self, name: str, fn):
        """Wrap fn so that each call records a span called name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()

        return wrapper

    def trace(self, name: str, module, attr: str, also_in=()) -> bool:
        """Time module.attr, and the same function where also_in modules bind it.

        Returns False, and records name as absent, if module has no such
        function.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return False
        wrapper = self._timed(name, fn)
        for mod in (module, *also_in):
            if getattr(mod, attr, None) is fn:
                self.patch(mod, attr, wrapper)
        return True

    def count_module(self, name: str, module) -> None:
        """Count calls to every public function defined in module under name."""
        patched = 0
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            self.patch(module, attr, self._counting(name, fn))
            patched += 1
        if not patched:
            self.absent.append(name)

    def _counting(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and number of calls."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            row["total_s"] += span.end - span.start
            row["self_s"] += own
            row["calls"] += 1
        return out
