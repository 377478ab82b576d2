"""In-memory spans around the benchmark's calls into the library.

A span is ``(name, start_ns, end_ns, parent, case)``: ``parent`` is the index
of the enclosing span (or ``None``) and ``case`` the id of the case that was
running.  Spans are only ever recorded by the benchmark's own code, around
the calls it makes; the library is not instrumented.
"""

from __future__ import annotations

import contextlib
import statistics
import time

_now = time.perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, case=None):
        return contextlib.nullcontext()


class Tracer:
    """Tracing on: every ``call`` and ``span`` appends one span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._case = None

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _now(), None, parent, self._case])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = _now()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def span(self, name, case=None):
        outer_case = self._case
        if case is not None:
            self._case = case
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._case = outer_case

    # -- analysis -------------------------------------------------------------
    def durations_within(self, root):
        """Durations in ns, by span name, of the spans that have an ancestor
        called ``root``."""
        inside = [False] * len(self.spans)
        out = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            # a parent always opens, and so is appended, before its children
            if parent is not None and (inside[parent]
                                       or self.spans[parent][0] == root):
                inside[i] = True
                out.setdefault(name, []).append(end - start)
        return out

    def children_fit(self, name):
        """True iff, for every span called ``name``, its direct children
        together last no longer than the span itself."""
        covered = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0) + end - start
        return all(covered.get(i, 0) <= end - start
                   for i, (n, start, end, _, _) in enumerate(self.spans)
                   if n == name)

    def to_json(self):
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "case": c}
                for n, s, e, p, c in self.spans]


def p50(values):
    return statistics.median(values) if values else 0.0
