"""Offline dynamic rectangle cover over an integer cell grid, and its trace files.

Given an offline trace of closed rank-space rectangles inside a box and
ascending query positions in it, report the first query that finds the box
not fully covered. An update is a move (id, old, new) from the id's live
rectangle ``old`` to ``new``, None standing for no rectangle.
The trace may be streamed: the engine asks for more only when it needs a
query position past what it holds. The engines trust the trace they run: a
solve's plan is built consistent, and a trace file is checked in full,
once, by :func:`read_trace`. Two interchangeable engines, each changed by
``move(old, new)``:

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
  query looks for a slab and row that no crossing rectangle covers and
  whose partials leave a column bare. It allocates an nx x ny count, as the
  naive grid does.

A trace file holds the header "N <nx> <ny>", then preloaded rectangles
"I <id> <x_lo> <x_hi> <y_lo> <y_hi>", then one event per line,
"A <id> <x_lo> <x_hi> <y_lo> <y_hi>" or "D <id>", then "Q <pos>" lines, one
per coverage query after the first <pos> events. A file without "Q" lines
queries after every event. An id is a rectangle's key; it recurs when the
rectangle is added again after its delete. A move with both rectangles is
written as its delete and then its add. Reading pairs them back into one
move, with the query positions counted in moves: a "D k" directly followed
by an "A k", when no query falls between the two and the file has "Q"
lines. Any other event is read as a move of its own.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, Sequence

import numpy as np

from .forbidden import Move as Update, RankRect


class MalformedTrace(ValueError):
    """A trace file that is not a valid trace, as :func:`read_trace` finds it."""


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

    def has_hole(self) -> bool:
        return bool(((self.cross == 0) & (self.pcov < self.slab_w)).any())


# ---------------------------------------------------------------------------
# trace execution
# ---------------------------------------------------------------------------

def _execute(box: tuple[int, int], capacity: int,
             initial: Sequence[tuple[object, RankRect]],
             updates: Sequence[Update], positions: Sequence[int], impl: str,
             more: Callable[[], bool] | None = None) -> Iterator[tuple[int, object]]:
    """Apply the trace, yielding (qi, struct) after positions[qi] updates.

    ``positions`` ascend; position 0 is the preloaded set alone. The engine
    is built and preloaded once, and one plain loop applies the updates up
    to each query position. The trace is trusted: every move starts from
    its id's live rectangle, and at most twice ``capacity`` (the live bound
    n) rectangles are live at once, which picks the engine's count type.
    Stop iterating to stop early; iteration ends at the first position past
    the updates held. ``more``, when given, appends to ``updates`` and
    ``positions`` and returns False, appending nothing, once it has nothing
    left; it is called only until the next query position is held.
    """
    if impl not in ("naive", "oy"):
        raise ValueError(f"unknown implementation {impl!r}")
    struct = (_NaiveGrid if impl == "naive" else _SlabCover)(*box, bound=2 * max(1, capacity))
    move = struct.move
    for _, r in initial:
        move(None, r)
    k = qi = 0  # updates applied, next query
    while True:
        while qi == len(positions) or positions[qi] > len(updates):
            if more is None or not more():
                return
        for _, old, new in updates[k:positions[qi]]:
            move(old, new)
        k = positions[qi]
        yield qi, struct
        qi += 1


def run_plan(box: tuple[int, int], capacity: int,
             initial: Sequence[tuple[object, RankRect]],
             updates: Sequence[Update],
             query_positions: Sequence[int],
             impl: str, more: Callable[[], bool] | None = None) -> tuple[int | None, dict | None]:
    """Run a preloaded trace, querying coverage at given update-prefix lengths.

    The ``impl`` engine is built once over the box, and the trace is trusted
    (see :func:`_execute`). Returns (index into query_positions of the first
    query that found the box uncovered, live id->rect map at that moment),
    or (None, None). With ``more``, the trace is streamed: ``updates`` and
    ``query_positions`` are lists that ``more()`` extends until they hold
    the next query position, for either engine, so a plan is built only as
    far as the engine runs it.
    """
    for qi, struct in _execute(box, capacity, initial, updates, query_positions, impl, more):
        if struct.has_hole():
            live = dict(initial)
            for uid, _, new in updates[:query_positions[qi]]:
                if new is None:
                    del live[uid]
                else:
                    live[uid] = new
            return qi, live
    return None, None


def live_bound(initial: Sequence[tuple[object, RankRect]], updates: Sequence[Update]) -> int:
    """The most rectangles live at once in a preloaded trace, at least 1."""
    live = {uid for uid, _ in initial}
    peak = max(1, len(live))
    for uid, _, r in updates:
        (live.discard if r is None else live.add)(uid)
        peak = max(peak, len(live))
    return peak


# ---------------------------------------------------------------------------
# trace files (the format is in the module docstring)
# ---------------------------------------------------------------------------

_TRACE_FIELDS = {"I": 6, "A": 6, "D": 2, "Q": 2}  # fields of each body line


def write_trace(path: str, box_cells: tuple[int, int],
                updates: Sequence[Update],
                initial: Sequence[tuple[int, RankRect]], query_pos: Sequence[int]) -> None:
    events = [0]  # event lines written before each move
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N {box_cells[0]} {box_cells[1]}\n")
        for uid, r in initial:
            fh.write(f"I {uid} {r.x_lo} {r.x_hi} {r.y_lo} {r.y_hi}\n")
        for uid, old, r in updates:
            if old is not None:
                fh.write(f"D {uid}\n")
            if r is not None:
                fh.write(f"A {uid} {r.x_lo} {r.x_hi} {r.y_lo} {r.y_hi}\n")
            events.append(events[-1] + (old is not None) + (r is not None))
        for pos in query_pos:
            fh.write(f"Q {events[pos]}\n")


def read_trace(path: str) -> tuple[tuple[int, int], list[tuple[int, RankRect]],
                                   list[Update], list[int]]:
    """Box, preloaded rectangles, moves and query positions of a trace file.

    The whole file is checked, so the engines can trust what it returns:
    every rectangle lies in the box, an "I" or "A" names a dead id, and a
    "D" a live one. The first fault raises :class:`MalformedTrace`.
    """
    def fields(parts: list[str]) -> list[int]:
        """The integers after a line's tag."""
        try:
            return [int(p) for p in parts[1:]]
        except ValueError:
            raise MalformedTrace(f"non-integer field in trace line {' '.join(parts)!r}") from None

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if not lines or lines[0][0] != "N" or len(lines[0]) != 3:
        raise MalformedTrace("trace file must start with an 'N <nx> <ny>' header")
    nx, ny = box_cells = tuple(fields(lines[0]))
    if min(box_cells) < 1:
        raise MalformedTrace(f"box {nx} x {ny} has no cells")
    initial: list[tuple[int, RankRect]] = []
    events: list[Update] = []  # one per event line
    query_pos: list[int] = []
    current: dict[int, RankRect] = {}
    for parts in lines[1:]:
        tag, line = parts[0], " ".join(parts)
        if _TRACE_FIELDS.get(tag) != len(parts):
            raise MalformedTrace(f"bad trace line {line!r}")
        nums = fields(parts)
        if tag == "Q":
            query_pos.append(nums[0])
            continue
        uid = nums[0]
        if tag == "D":
            if uid not in current:
                raise MalformedTrace(f"delete of dead id {uid!r}")
            events.append((uid, current.pop(uid), None))
            continue
        if tag == "I" and events:
            raise MalformedTrace(f"preloaded rectangle {line!r} after the first event")
        if uid in current:
            raise MalformedTrace(f"duplicate id {uid!r}")
        r = current[uid] = RankRect(*nums[1:])
        if not (1 <= r.x_lo <= r.x_hi <= nx and 1 <= r.y_lo <= r.y_hi <= ny):
            raise MalformedTrace(f"rectangle {line!r} outside box {nx} x {ny}")
        if tag == "I":
            initial.append((uid, r))
        else:
            events.append((uid, None, r))
    if query_pos != sorted(query_pos) or any(not 0 <= p <= len(events) for p in query_pos):
        raise MalformedTrace("query positions must be ascending and within the events")
    if not query_pos:
        return box_cells, initial, events, list(range(1, len(events) + 1))
    queried = set(query_pos)
    moves: list[Update] = []
    at = [0]  # moves read before each event line
    i = 0
    while i < len(events):
        uid, old, new = events[i]
        if (old is not None and i + 1 < len(events) and i + 1 not in queried
                and events[i + 1][0] == uid and events[i + 1][2] is not None):
            new = events[i + 1][2]
            i += 1
            at.append(None)  # no query reads the state between the two lines
        moves.append((uid, old, new))
        at.append(len(moves))
        i += 1
    return box_cells, initial, moves, [at[p] for p in query_pos]
