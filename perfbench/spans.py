"""Span recorder for the traced benchmark run.

Spans are taken from outside the program: the recorder swaps the names that
``polyplace.solver`` looks up at call time for timing wrappers, and the
benchmark opens one root span around each solver call. The solver imports its
helpers by name (``from .forbidden import build_sweep``), so wrapping
``polyplace.forbidden.build_sweep`` would never be seen; the wrappers go into
the solver module's namespace, plus ``polyplace.dyncover.run_plan``, which the
solver reaches through the module attribute.

A wrapper records only while a root span is open, so the benchmark's own
answer checks (``verify_containment`` calls the same helpers) stay out of the
trace. Each span keeps a reference to its call's arguments and return value
until the benchmark has read its counts from them (:meth:`SpanRecorder.drop_payloads`).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import polyplace.dyncover
import polyplace.solver

# wrapped name -> layer (module of src/polyplace that implements it)
SOLVER_CALLEES = {
    "normalize_center": "geometry",
    "cover_interior": "decompose",
    "cover_complement": "decompose",
    "padded_frame": "decompose",
    "coordinate_functions": "forbidden",
    "build_sweep": "forbidden",
    "critical_values": "forbidden",
    "find_hole": "coverage",
}
RUN_PLAN = "run_plan"  # polyplace.dyncover.run_plan, layer "dyncover"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    instance: int
    args: tuple | None = None
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans of one traced run, written out once at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._instance = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1], self._instance, args)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into the solver's namespace for the duration."""
        saved = {name: getattr(polyplace.solver, name) for name in SOLVER_CALLEES}
        saved_run_plan = polyplace.dyncover.run_plan
        try:
            for name, fn in saved.items():
                setattr(polyplace.solver, name, self._wrap(name, fn))
            polyplace.dyncover.run_plan = self._wrap(RUN_PLAN, saved_run_plan)
            yield self
        finally:
            for name, fn in saved.items():
                setattr(polyplace.solver, name, fn)
            polyplace.dyncover.run_plan = saved_run_plan

    @contextmanager
    def root(self, name: str, instance: int):
        """Root span around one solver call; yields the span's index."""
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, None, instance)
        self.spans.append(span)
        self._stack.append(idx)
        self._instance = instance
        span.start = perf_counter()
        try:
            yield idx
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def children(self, idx: int) -> list[Span]:
        """Direct child spans of span ``idx`` (they follow it in the list)."""
        out = []
        for span in self.spans[idx + 1:]:
            if span.parent is None:
                break
            if span.parent == idx:
                out.append(span)
        return out

    def self_time(self, idx: int) -> float:
        """Span duration minus the time covered by its direct children."""
        return self.spans[idx].duration - sum(c.duration for c in self.children(idx))

    def drop_payloads(self, first: int) -> None:
        """Release argument and result references of spans from ``first`` on."""
        for span in self.spans[first:]:
            span.args = span.result = None

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "instance": span.instance}) + "\n")
