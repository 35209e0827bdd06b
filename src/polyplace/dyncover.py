"""Offline dynamic rectangle cover over an integer cell grid.

Given an offline trace of closed rank-space rectangles inside a box and
ascending query positions in it, report the first query that finds the box
not fully covered. An update is a move (id, old, new) from the id's live
rectangle ``old`` to ``new``, None standing for no rectangle.
The trace may be streamed: the engine asks for more only when it needs an
update or a query position past what it holds. Two interchangeable engines,
each changed by ``move(old, new)``:

* ``naive`` (the default of :func:`polyplace.solver.max_scale`): a counting
  grid in int16 when the live bound fits it and int32 otherwise, changed by
  vectorized slice ``+=``/``-=``. A move whose rectangles overlap (a sweep
  key re-emitted at a critical) applies only their symmetric difference, at
  most four slices each way, so it touches the strips the rectangle lost
  and gained; any other move is one slice each way.
  Holes are found on query: the first query checks the whole grid; after a
  query that found the box full, a cell can only have dropped to zero where
  its count fell since, so the next query checks just the slices that were
  subtracted.
* ``oy``: an Overmars-Yap structure on integer numpy arrays, built once
  per run: the box's columns cut into slabs about sqrt(nx) columns wide, a
  count array of slab-crossing rectangles per slab and row, a count array of
  the other (partial) rectangles per column and row, and the columns each
  slab's partials cover per row. A move removes its old rectangle and adds
  its new one, each O(1) numpy calls doing O(sqrt(nx) * ny) integer work; a
  coverage read sums the slabs. It allocates an nx x ny count, as the naive
  grid does.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, Sequence

import numpy as np

from .forbidden import Move as Update, RankRect


class MalformedTrace(ValueError):
    """A move from a rectangle its id does not hold, out of the box, or over the bound."""


def _minus(a: RankRect | None, b: RankRect | None) -> list[tuple[int, int, int, int]]:
    """The cells of a outside b (all of a if b is None or disjoint from it), as
    at most four disjoint grid slices (x0, x1, y0, y1), zero-based, half-open."""
    if a is None:
        return []
    ax0, ax1, ay0, ay1 = a.x_lo - 1, a.x_hi, a.y_lo - 1, a.y_hi
    if (b is None or a.x_hi < b.x_lo or b.x_hi < a.x_lo
            or a.y_hi < b.y_lo or b.y_hi < a.y_lo):
        return [(ax0, ax1, ay0, ay1)]
    bx0, bx1, by0, by1 = b.x_lo - 1, b.x_hi, b.y_lo - 1, b.y_hi
    pieces = []
    if ax0 < bx0:
        pieces.append((ax0, bx0, ay0, ay1))
    if bx1 < ax1:
        pieces.append((bx1, ax1, ay0, ay1))
    mx0, mx1 = max(ax0, bx0), min(ax1, bx1)
    if ay0 < by0:
        pieces.append((mx0, mx1, ay0, by0))
    if by1 < ay1:
        pieces.append((mx0, mx1, by1, ay1))
    return pieces


class _NaiveGrid:
    """Counting-grid engine: per-cell cover counts, checked for holes on query.

    ``bound`` caps every cell count (the live-set bound), so it picks the
    count type. A move whose old and new rectangles overlap applies only
    their symmetric difference (the strips a re-emitted rectangle lost and
    gained); any other move applies each of them whole. ``_removed`` lists
    the slices whose counts fell since the last query that found the box
    full; it is None before the first query and after one that found a
    hole, when the next query checks the whole grid.
    """

    def __init__(self, nx: int, ny: int, bound: int):
        dtype = np.int16 if bound <= np.iinfo(np.int16).max else np.int32
        self.grid = np.zeros((nx, ny), dtype=dtype)
        self._removed: list[tuple[int, int, int, int]] | None = None

    def _lower(self, x0: int, x1: int, y0: int, y1: int) -> None:
        cells = self.grid[x0:x1, y0:y1]
        cells -= 1
        if self._removed is not None:
            self._removed.append((x0, x1, y0, y1))

    def move(self, old: RankRect | None, new: RankRect | None) -> None:
        for piece in _minus(old, new):
            self._lower(*piece)
        for x0, x1, y0, y1 in _minus(new, old):
            cells = self.grid[x0:x1, y0:y1]
            cells += 1

    def has_hole(self) -> bool:
        if self._removed is None:
            hole = not self.grid.all()
        else:
            grid = self.grid
            hole = not all(grid[x0:x1, y0:y1].all() for x0, x1, y0, y1 in self._removed)
        self._removed = None if hole else []
        return hole


class _SlabCover:
    """Overmars-Yap slab structure on integer numpy arrays, built once per run.

    The box's nx columns are cut once into slabs of about sqrt(nx) columns
    each (the last one may be narrower). In rank space every column belongs
    to one side function, so a slab holds O(sqrt(n)) rectangle x edges
    however the live set changes, and the cut needs no rebuild. ``bound``
    caps every count, so it picks the count type, as for the naive grid.

    * ``cross[s, r]``: rectangles spanning all of slab s on row r.
    * ``part[c, r]``: the other rectangles, counted on column c.
    * ``pcov[s, r]``: columns of slab s that ``part`` covers on row r,
      refreshed only for the (at most two) end slabs an update cuts.
    """

    def __init__(self, nx: int, ny: int, bound: int):
        dtype = np.int16 if bound <= np.iinfo(np.int16).max else np.int32
        self.cuts = list(range(0, nx, max(1, math.isqrt(nx)))) + [nx]
        self.slab_w = np.diff(self.cuts)[:, None]
        self.cross = np.zeros((len(self.cuts) - 1, ny), dtype=dtype)
        self.part = np.zeros((nx, ny), dtype=dtype)
        self.pcov = np.zeros(self.cross.shape, dtype=np.int32)

    def _partial(self, s: int, c0: int, c1: int, r0: int, r1: int, d: int) -> None:
        self.part[c0:c1, r0:r1] += d
        lo, hi = self.cuts[s], self.cuts[s + 1]
        self.pcov[s, r0:r1] = (self.part[lo:hi, r0:r1] > 0).sum(axis=0, dtype=np.int32)

    def _apply(self, r: RankRect, d: int) -> None:
        c0, c1, r0, r1 = r.x_lo - 1, r.x_hi, r.y_lo - 1, r.y_hi
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

    def move(self, old: RankRect | None, new: RankRect | None) -> None:
        if old is not None:
            self._apply(old, -1)
        if new is not None:
            self._apply(new, 1)

    @property
    def covered_cells(self) -> int:
        return int(np.where(self.cross > 0, self.slab_w, self.pcov).sum())

    def has_hole(self) -> bool:
        return self.covered_cells < self.part.size


# ---------------------------------------------------------------------------
# trace execution
# ---------------------------------------------------------------------------

def _check_rect(r: RankRect, box: tuple[int, int]) -> None:
    nx, ny = box
    if not (1 <= r.x_lo <= r.x_hi <= nx and 1 <= r.y_lo <= r.y_hi <= ny):
        raise MalformedTrace(f"rectangle {r} outside box {box}")


def _execute(box: tuple[int, int], capacity: int,
             initial: Sequence[tuple[object, RankRect]],
             updates: Sequence[Update], positions: Sequence[int], impl: str,
             more: Callable[[], bool] | None = None) -> Iterator[tuple]:
    """Apply the trace, yielding (qi, struct, live) after positions[qi] updates.

    ``positions`` ascend; position 0 is the preloaded set alone. The engine
    is built and preloaded once, and one plain loop applies the updates up
    to each query position; after the last position it applies the rest,
    so a malformed tail still raises. A move must start from its id's live
    rectangle (None for a dead id), and a delete needs a live id. Stop
    iterating to stop early. ``capacity`` is the live bound n. ``more``,
    when given, appends to ``updates`` and ``positions`` and returns False
    once it has nothing left. When the next query position lies past the
    end of ``positions``, it is called until the lists hold that position
    and n rectangle changes (two for a move with both rectangles) past the
    last move applied.
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

    limit = 2 * capacity
    struct = (_NaiveGrid if impl == "naive" else _SlabCover)(*box, bound=limit)
    move = struct.move
    for r in live.values():
        move(None, r)
    k = qi = 0  # updates applied, next query
    while True:
        if qi == len(positions):  # pull the next position and n changes past move k
            i, need = k, capacity
            while more is not None and (need > 0 or qi == len(positions)):
                if i < len(updates):
                    need -= (updates[i][1] is not None) + (updates[i][2] is not None)
                    i += 1
                elif not more():
                    more = None
        last = qi == len(positions) or positions[qi] > len(updates)
        target = len(updates) if last else positions[qi]
        for i in range(k, target):
            uid, old, new = updates[i]
            cur = live.get(uid)
            if cur is not old and cur != old or old is new is None:
                raise MalformedTrace(f"delete of dead id {uid!r}" if cur is None else
                                     f"duplicate id {uid!r}" if old is None else
                                     f"id {uid!r} moves from {old} but holds {cur}")
            if new is None:
                del live[uid]
            else:
                _check_rect(new, box)
                if old is None and len(live) >= limit:
                    raise MalformedTrace("live set exceeds twice the declared bound")
                live[uid] = new
            move(old, new)
        k = target
        if last:
            return
        yield qi, struct, live
        qi += 1


def run_plan(box: tuple[int, int], capacity: int,
             initial: Sequence[tuple[object, RankRect]],
             updates: Sequence[Update],
             query_positions: Sequence[int],
             impl: str, more: Callable[[], bool] | None = None) -> tuple[int | None, dict | None]:
    """Run a preloaded trace, querying coverage at given update-prefix lengths.

    The ``impl`` engine is built once over the box. Returns (index into
    query_positions of the first query that found the box uncovered, live
    id->rect map at that moment), or (None, None). With ``more``, the trace
    is streamed: ``updates`` and ``query_positions`` are lists that
    ``more()`` extends by the one pull rule of :func:`_execute`, for either
    engine, so a plan is built only as far as the engine runs it.
    """
    for qi, struct, live in _execute(box, capacity, initial, updates, query_positions,
                                     impl, more):
        if struct.has_hole():
            return qi, dict(live)
    return None, None


def live_bound(initial: Sequence[tuple[object, RankRect]], updates: Sequence[Update]) -> int:
    """The most rectangles live at once in a preloaded trace, at least 1."""
    live = {uid for uid, _ in initial}
    peak = max(1, len(live))
    for uid, _, r in updates:
        (live.discard if r is None else live.add)(uid)
        peak = max(peak, len(live))
    return peak
