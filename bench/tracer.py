"""Spans recorded around calls into the program, from outside it.

A :class:`Tracer` replaces a function at the module attribute its caller
looks it up through with a wrapper that records one span per call, and
puts the original back afterwards.  Spans stay in memory until
:meth:`Tracer.write` saves them at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Span:
    """One call: name, start and end (perf_counter seconds), the index of
    the enclosing span (-1 for none), the operation id, and counts taken
    from the call's result."""

    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, start: float, end: float, parent: int,
                 op: int, counts: dict | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.counts = counts


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0          # id of the operation in flight, set by the caller
        self._open: list[int] = []

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` recording a span per call.  ``observe`` maps the
        call's result to a dict of counts stored on the span."""
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0,
                        open_spans[-1] if open_spans else -1, self.op)
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if observe is not None:
                span.counts = observe(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each ``(module, attribute, span name, observe)`` target for
        the duration of the block, then restore the originals."""
        saved = []
        try:
            for module, attr, name, observe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Save the spans as JSON lines, times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, "counts": s.counts}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out
