"""Offline dynamic rectangle cover over an integer cell grid.

Given a preplanned add/delete trace of closed rank-space rectangles inside a
box, report the covered-cell count after every update and the first update
after which the box is no longer fully covered. An update is (id, RankRect)
for an add and (id, None) for a delete. Two interchangeable engines:

* ``naive`` (the default of :func:`polyplace.solver.max_scale`): a counting
  grid, one vectorized slice ``+=``/``-=`` per update, in int16 when the
  live bound fits it and int32 otherwise. Holes are found on query: the
  first query checks the whole grid; after a query that found the box full,
  a cell can only have dropped to zero inside a rectangle removed since, so
  the next query checks just those rectangles' slices.
* ``oy``: an Overmars-Yap structure on integer numpy arrays: about sqrt(n)
  vertical slabs cut at the upcoming batch's x edges, a count array of
  slab-crossing rectangles per slab and row, a count array of the other
  (partial) rectangles per compressed column and row, and the width each
  slab's partials cover per row. An update is O(1) numpy calls doing
  O(sqrt(n) * rows) integer work; a coverage read sums the slabs; the
  structure is rebuilt from scratch every n updates. The rebuild uses the
  upcoming batch, which is why the trace must be known in advance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .forbidden import RankRect

Update = tuple[object, "RankRect | None"]


class MalformedTrace(ValueError):
    """Delete of a dead id, out-of-box rectangle, or live-set overflow."""


@dataclass
class TraceProblem:
    n: int                      # max live-rectangle bound (structure capacity)
    box: tuple[int, int]        # cells [1, nx] x [1, ny]
    updates: list[Update]


class _NaiveGrid:
    """Counting-grid engine: per-cell cover counts, checked for holes on query.

    ``bound`` caps every cell count (the live-set bound), so it picks the
    count type. ``_removed`` lists the rectangles removed since the last
    query that found the box full; it is None before the first query and
    after one that found a hole, when the next query checks the whole grid.
    """

    def __init__(self, nx: int, ny: int, bound: int):
        dtype = np.int16 if bound <= np.iinfo(np.int16).max else np.int32
        self.grid = np.zeros((nx, ny), dtype=dtype)
        self._removed: list[RankRect] | None = None

    def _cells(self, r: RankRect) -> np.ndarray:
        return self.grid[r.x_lo - 1:r.x_hi, r.y_lo - 1:r.y_hi]

    def add(self, r: RankRect) -> None:
        cells = self._cells(r)
        cells += 1

    def remove(self, r: RankRect) -> None:
        cells = self._cells(r)
        cells -= 1
        if self._removed is not None:
            self._removed.append(r)

    def has_hole(self) -> bool:
        if self._removed is None:
            hole = not self.grid.all()
        else:
            hole = not all(self._cells(r).all() for r in self._removed)
        self._removed = None if hole else []
        return hole

    @property
    def covered_cells(self) -> int:
        return int(np.count_nonzero(self.grid))


class _SlabCover:
    """Overmars-Yap slab structure for one batch, on integer numpy arrays.

    The x axis is cut into about sqrt(n) slabs at every chunk-th sorted x
    edge of the batch universe (live set plus the batch's adds); x columns
    and y rows are compressed from the universe's edges, so every rectangle
    applied during the batch lands on whole columns and rows.

    * ``cross[s, r]``: rectangles spanning all of slab s on row r.
    * ``part[c, r]``: the other rectangles, counted on column c.
    * ``pcov[s, r]``: width of slab s that ``part`` covers on row r,
      refreshed only for the (at most two) end slabs an update cuts.
    """

    def __init__(self, box: tuple[int, int], universe: Sequence[RankRect]):
        nx, ny = box
        self.full = nx * ny
        edges = [1, nx + 1]
        for r in universe:
            edges += (r.x_lo, r.x_hi + 1)
        edges.sort()
        xs = sorted(set(edges))
        ys = sorted({1, ny + 1} | {r.y_lo for r in universe}
                    | {r.y_hi + 1 for r in universe})
        self.col = {x: i for i, x in enumerate(xs)}
        self.row = {y: i for i, y in enumerate(ys)}
        chunk = math.isqrt(len(edges)) + 1
        self.cuts = sorted({0, len(xs) - 1} | {self.col[e] for e in edges[::chunk]})
        xs_arr = np.array(xs, dtype=np.int64)
        self.colw = np.diff(xs_arr)
        self.slab_w = np.diff(xs_arr[self.cuts])[:, None]
        self.h = np.diff(np.array(ys, dtype=np.int64))
        self.cross = np.zeros((len(self.cuts) - 1, len(ys) - 1), dtype=np.int32)
        self.part = np.zeros((len(xs) - 1, len(ys) - 1), dtype=np.int32)
        self.pcov = np.zeros(self.cross.shape, dtype=np.int64)

    def _partial(self, s: int, c0: int, c1: int, r0: int, r1: int, d: int) -> None:
        self.part[c0:c1, r0:r1] += d
        lo, hi = self.cuts[s], self.cuts[s + 1]
        self.pcov[s, r0:r1] = self.colw[lo:hi] @ (self.part[lo:hi, r0:r1] > 0)

    def _apply(self, r: RankRect, d: int) -> None:
        c0, c1 = self.col[r.x_lo], self.col[r.x_hi + 1]
        r0, r1 = self.row[r.y_lo], self.row[r.y_hi + 1]
        cuts = self.cuts
        a = bisect_left(cuts, c0)        # first cut at or right of x_lo
        b = bisect_right(cuts, c1) - 1   # last cut at or left of x_hi + 1
        if a > b:                        # no cut inside: one partial slab
            self._partial(b, c0, c1, r0, r1, d)
            return
        self.cross[a:b, r0:r1] += d
        if c0 < cuts[a]:
            self._partial(a - 1, c0, cuts[a], r0, r1, d)
        if cuts[b] < c1:
            self._partial(b, cuts[b], c1, r0, r1, d)

    def add(self, r: RankRect) -> None:
        self._apply(r, 1)

    def remove(self, r: RankRect) -> None:
        self._apply(r, -1)

    @property
    def covered_cells(self) -> int:
        width = np.where(self.cross > 0, self.slab_w, self.pcov).sum(axis=0)
        return int(self.h @ width)

    def has_hole(self) -> bool:
        return self.covered_cells < self.full


# ---------------------------------------------------------------------------
# trace execution
# ---------------------------------------------------------------------------

def _check_rect(r: RankRect, box: tuple[int, int]) -> None:
    nx, ny = box
    if not (1 <= r.x_lo <= r.x_hi <= nx and 1 <= r.y_lo <= r.y_hi <= ny):
        raise MalformedTrace(f"rectangle {r} outside box {box}")


def _execute(box: tuple[int, int], capacity: int,
             initial: Sequence[tuple[object, RankRect]],
             updates: Sequence[Update], impl: str) -> Iterator[tuple]:
    """Apply the trace, yielding (k, struct, live) after k applied updates.

    The first state is k = 0, the preloaded set alone; stop iterating to
    stop early. ``capacity`` is the structure's live bound n; the oy engine
    rebuilds every n updates.
    """
    if impl not in ("naive", "oy"):
        raise ValueError(f"unknown implementation {impl!r}")
    capacity = max(1, capacity)
    if len(initial) > 2 * capacity:
        raise MalformedTrace("preloaded set exceeds twice the declared bound")
    live: dict[object, RankRect] = {}
    for uid, r in initial:
        _check_rect(r, box)
        if uid in live:
            raise MalformedTrace(f"duplicate id {uid!r}")
        live[uid] = r

    def apply_update(struct, uid, r: RankRect | None) -> None:
        if r is None:
            r = live.pop(uid, None)
            if r is None:
                raise MalformedTrace(f"delete of dead id {uid!r}")
            struct.remove(r)
            return
        _check_rect(r, box)
        if uid in live:
            raise MalformedTrace(f"duplicate id {uid!r}")
        if len(live) >= 2 * capacity:
            raise MalformedTrace("live set exceeds twice the declared bound")
        live[uid] = r
        struct.add(r)

    # the naive grid is one batch; the slab structure is rebuilt from the
    # upcoming batch every ``capacity`` updates
    step = capacity if impl == "oy" else max(1, len(updates))
    for start in range(0, max(1, len(updates)), step):
        batch = updates[start:start + step]
        if impl == "oy":
            universe = list(live.values()) + [r for _, r in batch if r is not None]
            struct = _SlabCover(box, universe)
        else:
            struct = _NaiveGrid(*box, bound=2 * capacity)
        for r in live.values():
            struct.add(r)
        if start == 0:
            yield 0, struct, live
        for k, (uid, r) in enumerate(batch, start + 1):
            apply_update(struct, uid, r)
            yield k, struct, live


def first_uncover(tp: TraceProblem, impl: str = "naive") -> int | None:
    """First 1-based update index after which the box is not fully covered."""
    failed, _ = run_plan(tp.box, tp.n, [], tp.updates,
                         range(1, len(tp.updates) + 1), impl)
    return None if failed is None else failed + 1


def area_after_each(tp: TraceProblem, impl: str = "naive") -> list[int]:
    """Covered-cell count after each update prefix."""
    return [struct.covered_cells
            for k, struct, _ in _execute(tp.box, tp.n, [], tp.updates, impl) if k > 0]


def run_plan(box: tuple[int, int], capacity: int,
             initial: Sequence[tuple[object, RankRect]],
             updates: Sequence[Update],
             query_positions: Sequence[int],
             impl: str) -> tuple[int | None, dict | None]:
    """Run a preloaded trace, querying coverage at given update-prefix lengths.

    Returns (index into query_positions of the first query that found the box
    uncovered, live id->rect map at that moment), or (None, None).
    """
    qi = 0
    for k, struct, live in _execute(box, capacity, initial, updates, impl):
        while qi < len(query_positions) and query_positions[qi] == k:
            if struct.has_hole():
                return qi, dict(live)
            qi += 1
    return None, None


def trace_problem(box: tuple[int, int], updates: Sequence[Update]) -> TraceProblem:
    """Wrap raw updates, inferring the live bound from the trace itself."""
    live: set = set()
    peak = 1
    for uid, r in updates:
        if r is None:
            live.discard(uid)
        else:
            live.add(uid)
        peak = max(peak, len(live))
    return TraceProblem(n=peak, box=box, updates=list(updates))
