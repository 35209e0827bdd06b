"""Offline dynamic rectangle cover over an integer cell grid, and its trace files.

Given an offline trace of closed rank-space rectangles inside a box and
ascending query positions in it, report the first query that finds the box
not fully covered, and its position. An update is a move (id, old, new)
from the id's live rectangle ``old`` to ``new``, None standing for no
rectangle.
The trace may be streamed: the engine asks for more only when it needs a
query position past what it holds. The engines trust the trace they run: a
solve's plan is built consistent, and a trace file is checked in full,
once, by :func:`read_trace`. Two interchangeable engines, each changed by
``move(old, new)``:

* ``naive`` (the default of :func:`polyplace.solver.max_scale`): a counting
  grid in int16 when the live bound fits it and int32 otherwise, changed by
  vectorized slice ``+=``/``-=``. A move whose rectangles overlap (a sweep
  key re-emitted at a critical) applies only their symmetric difference,
  one strip at each end that moved: an x end lowers a strip over the old
  rectangle's rows or raises one over the new one's, and a y end does the
  same over the columns the two share. So the common re-emitted key, which
  keeps one axis's span, touches only the other axis's ends. Any other
  move is one slice each way.
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
"I <id> <x_lo> <x_hi> <y_lo> <y_hi>", then one move per line: an add
"A <id> <x_lo> <x_hi> <y_lo> <y_hi>" of a dead id, a delete "D <id>" of a
live one, or a move "M <id> <x_lo> <x_hi> <y_lo> <y_hi>" of a live id to a
new rectangle. Then come "Q <pos>" lines, one per coverage query after the
first <pos> moves; a file without "Q" lines queries after every move. An
id is a rectangle's key; it recurs when the rectangle is added again after
its delete. Files that write a move as its "D" and then its "A" line still
read, as the plain delete and add, with the queries counted in those lines.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, Sequence

import numpy as np

from .forbidden import Move as Update, RankRect


class MalformedTrace(ValueError):
    """A trace file that is not a valid trace, as :func:`read_trace` finds it."""


class _NaiveGrid:
    """Counting-grid engine: per-cell cover counts, checked for holes on query.

    ``bound`` caps every cell count (the live-set bound), so it picks the
    count type. A move whose old and new rectangles overlap applies only
    their symmetric difference, the strips a re-emitted rectangle lost and
    gained: one strip at each end that moved, over its own rectangle's rows
    for an x end and over the columns both share for a y end. Any other
    move applies each rectangle whole. ``_removed`` lists the slices whose
    counts fell since the last query that found the box full, in the order
    they fell; it is None before the first query and after one that found a
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
        grid = self.grid
        if old is not None and new is not None:
            ox0, ox1, oy0, oy1 = old
            nx0, nx1, ny0, ny1 = new
            if ox0 <= nx1 and nx0 <= ox1 and oy0 <= ny1 and ny0 <= oy1:
                # overlapping: at each x end a strip over its rectangle's rows,
                # then at each y end a strip over the columns both share
                if ox0 != nx0 or ox1 != nx1:
                    if ox0 < nx0:
                        self._lower(ox0 - 1, nx0 - 1, oy0 - 1, oy1)
                    elif nx0 < ox0:
                        cells = grid[nx0 - 1:ox0 - 1, ny0 - 1:ny1]
                        cells += 1
                    if nx1 < ox1:
                        self._lower(nx1, ox1, oy0 - 1, oy1)
                    elif ox1 < nx1:
                        cells = grid[ox1:nx1, ny0 - 1:ny1]
                        cells += 1
                if oy0 != ny0 or oy1 != ny1:
                    # the shared columns, without a max/min call per move
                    x0, x1 = (ox0 if nx0 < ox0 else nx0) - 1, ox1 if ox1 < nx1 else nx1
                    if oy0 < ny0:
                        self._lower(x0, x1, oy0 - 1, ny0 - 1)
                    elif ny0 < oy0:
                        cells = grid[x0:x1, ny0 - 1:oy0 - 1]
                        cells += 1
                    if ny1 < oy1:
                        self._lower(x0, x1, ny1, oy1)
                    elif oy1 < ny1:
                        cells = grid[x0:x1, oy1:ny1]
                        cells += 1
                return
        if old is not None:
            self._lower(old.x_lo - 1, old.x_hi, old.y_lo - 1, old.y_hi)
        if new is not None:
            cells = grid[new.x_lo - 1:new.x_hi, new.y_lo - 1:new.y_hi]
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
             impl: str, more: Callable[[], bool] | None = None) -> tuple[int | None, int | None]:
    """Run a preloaded trace, querying coverage at given update-prefix lengths.

    The ``impl`` engine is built once over the box, and the trace is trusted
    (see :func:`_execute`). Returns (index into query_positions of the first
    query that found the box uncovered, its position: the number of updates
    applied), or (None, None). With ``more``, the trace is streamed:
    ``updates`` and ``query_positions`` are lists that ``more()`` extends
    until they hold the next query position, for either engine, so a plan
    is built only as far as the engine runs it.
    """
    for qi, struct in _execute(box, capacity, initial, updates, query_positions, impl, more):
        if struct.has_hole():
            return qi, query_positions[qi]
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

_TRACE_FIELDS = {"I": 6, "A": 6, "M": 6, "D": 2, "Q": 2}  # fields of each body line


def write_trace(path: str, box_cells: tuple[int, int],
                initial: Sequence[tuple[int, RankRect]], updates: Sequence[Update],
                query_pos: Sequence[int]) -> None:
    """Write a trace file, one line per move, in the order :func:`read_trace` returns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N {box_cells[0]} {box_cells[1]}\n")
        for uid, r in initial:
            fh.write(f"I {uid} {r.x_lo} {r.x_hi} {r.y_lo} {r.y_hi}\n")
        for uid, old, r in updates:
            if r is None:
                fh.write(f"D {uid}\n")
            else:
                tag = "A" if old is None else "M"
                fh.write(f"{tag} {uid} {r.x_lo} {r.x_hi} {r.y_lo} {r.y_hi}\n")
        for pos in query_pos:
            fh.write(f"Q {pos}\n")


def read_trace(path: str) -> tuple[tuple[int, int], list[tuple[int, RankRect]],
                                   list[Update], list[int]]:
    """Box, preloaded rectangles, moves and query positions of a trace file.

    Each event line is one move. The whole file is checked, so the engines
    can trust what it returns: every rectangle is non-empty and lies in the
    box, an "I" or "A" names a dead id, and a "D" or "M" a live one. The
    first fault raises :class:`MalformedTrace`.
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
    moves: list[Update] = []
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
        if tag == "I" and moves:
            raise MalformedTrace(f"preloaded rectangle {line!r} after the first event")
        if (uid in current) != (tag in ("D", "M")):
            raise MalformedTrace(f"duplicate id {uid!r}" if uid in current else
                                 f"{'delete' if tag == 'D' else 'move'} of dead id {uid!r}")
        old = current.pop(uid, None)
        if tag == "D":
            moves.append((uid, old, None))
            continue
        r = current[uid] = RankRect(*nums[1:])
        if r.x_lo > r.x_hi or r.y_lo > r.y_hi:
            raise MalformedTrace(f"empty rectangle {line!r}")
        if not (1 <= r.x_lo <= r.x_hi <= nx and 1 <= r.y_lo <= r.y_hi <= ny):
            raise MalformedTrace(f"rectangle {line!r} outside box {nx} x {ny}")
        if tag == "I":
            initial.append((uid, r))
        else:
            moves.append((uid, old, r))
    if query_pos != sorted(query_pos) or any(not 0 <= p <= len(moves) for p in query_pos):
        raise MalformedTrace("query positions must be ascending and within the events")
    return box_cells, initial, moves, query_pos or list(range(1, len(moves) + 1))
