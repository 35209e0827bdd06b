"""Independent oracles that only the tests use.

* Exact union measure and full-coverage queries for closed rectangles. Two
  coordinate kinds share one sweep: real rectangles (`AxisRect`, rational
  Lebesgue area) and rank-space rectangles (`RankRect`, counting unit cells
  of the integer grid, where the closed rect [a,b]x[c,d] covers the cells
  a..b x c..d). The dispatching wrappers sniff the rectangle kind. They
  check the rank-space encoding and the solvers' static test.
* Rank snapshots from a full sort at one scale, against which the sweep's
  incremental order is checked. They share only the rank rule with it.
* The descending walk's criticals keyed by ``Fraction``, against which the
  walk's integer keys, node sets and order of the caller's events are
  checked.
* Whole-trace replays of the dynamic cover engines: the first update that
  uncovers the box, the covered cells after every update, and the live set
  after a prefix of the moves. The cells of one rectangle outside another
  as grid slices, against which the naive grid's overlapping move is
  checked.
* Per-move checks of an in-memory trace, which the engines do not make,
  against which the solver's plans are checked: every move starts from its
  id's live rectangle, and the live set stays in the box and within twice
  its bound.
* The pairwise simplicity check of a vertex cycle, against which the
  polygon validator's sweep is checked, and the cleanup loop that merges
  one flat vertex per rescan, against which the validator's one-pass
  cleanup is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence

import numpy as np

from polyplace.dyncover import MalformedTrace, _execute, _NaiveGrid, live_bound, run_plan
from polyplace.forbidden import CoordSets, Move, RankRect, _rank_rule
from polyplace.geometry import (AxisRect, DegenerateEdge, NonRectilinear, Point, Rational,
                                SelfIntersecting, TooFewVertices)

# ---------------------------------------------------------------------------
# static coverage
# ---------------------------------------------------------------------------


def _merge_length(intervals: list[tuple]):
    """Total length of a union of intervals given as half-open (lo, hi)."""
    if not intervals:
        return 0
    intervals.sort()
    total = 0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    return total + (cur_hi - cur_lo)


def _sweep_area(rects: list[tuple], box: tuple):
    """Union measure inside the box; rects and box are half-open (x0,x1,y0,y1)."""
    bx0, bx1, by0, by1 = box
    if bx0 >= bx1 or by0 >= by1:
        return 0
    clipped = []
    for x0, x1, y0, y1 in rects:
        x0, x1 = max(x0, bx0), min(x1, bx1)
        y0, y1 = max(y0, by0), min(y1, by1)
        if x0 < x1 and y0 < y1:
            clipped.append((x0, x1, y0, y1))
    xs = sorted({bx0, bx1} | {r[0] for r in clipped} | {r[1] for r in clipped})
    total = 0
    for k in range(len(xs) - 1):
        lo, hi = xs[k], xs[k + 1]
        ys = [(y0, y1) for x0, x1, y0, y1 in clipped if x0 <= lo and x1 >= hi]
        total += (hi - lo) * _merge_length(ys)
    return total


def union_area(rects: Sequence, box):
    """Exact measure of (union of rects) intersected with the box.

    Real rectangles yield rational Lebesgue area; rank rectangles yield the
    number of covered integer cells of the box grid (a closed rank rect
    [a,b]x[c,d] covers cells a..b x c..d).
    """
    if isinstance(box, AxisRect):
        halfopen = [(r.x0, r.x1, r.y0, r.y1) for r in rects]
        return Fraction(_sweep_area(halfopen, (box.x0, box.x1, box.y0, box.y1)))
    nx, ny = box
    halfopen = [(r.x_lo, r.x_hi + 1, r.y_lo, r.y_hi + 1) for r in rects]
    return _sweep_area(halfopen, (1, nx + 1, 1, ny + 1))


def covers_box(rects: Sequence, box) -> bool:
    """True when the union covers the whole box.

    Real coordinates compare Lebesgue measure, which is exact for closed
    rectangles: the uncovered set is relatively open, so it is empty exactly
    when it has measure zero. Rank space counts grid cells, so zero-width
    rectangles still contribute their degenerate cells.
    """
    if isinstance(box, AxisRect):
        return union_area(rects, box) == box.area
    nx, ny = box
    return union_area(rects, box) == nx * ny


# ---------------------------------------------------------------------------
# rank snapshots
# ---------------------------------------------------------------------------


def _full_ranks(axis, num: int, den: int) -> tuple[list[int], list[int]]:
    """Min and max rank of every node at scale num/den, ties grouped by value."""
    def value(i: int) -> int:
        return axis.alphas[i] * num + axis.betas[i] * den

    lo, hi = [0] * len(axis.alphas), [0] * len(axis.alphas)
    taken = 0
    for _, group in groupby(sorted(range(len(axis.alphas)), key=value), key=value):
        group = list(group)
        w = sum(axis.weights[g] for g in group)
        for g in group:
            lo[g], hi[g] = taken + 1, taken + w
        taken += w
    return lo, hi


def rank_snapshot(cs: CoordSets, lam: Rational) -> dict[int, RankRect]:
    """Closed rank representation of every nonempty rectangle at ``lam``.

    Evaluate at a critical value to get the tied snapshot, or at any interior
    point of a region between criticals (e.g. the midpoint) for the generic
    one. Keys are the sweep keys: rect indices, then n..n+3 for the bands L,
    R, B, T; empty rectangles are omitted. The ranks come from a full sort
    at ``lam``, independent of the sweep's incremental order.
    """
    lam = Fraction(lam)
    num, den = lam.numerator, lam.denominator
    rect = _rank_rule(cs, _full_ranks(cs.xaxis, num, den), _full_ranks(cs.yaxis, num, den))
    snap: dict[int, RankRect] = {}
    for key in range(cs.n_rects + 4):
        r = rect(key)
        if r is not None:
            snap[key] = r
    return snap


# ---------------------------------------------------------------------------
# the descending walk
# ---------------------------------------------------------------------------


def walk_reference(axes: Sequence, extra: Sequence[tuple] = ()) -> list[tuple]:
    """The criticals of a walk over ``axes`` and ``extra``, largest first, keyed by Fraction.

    Nodes i < j of an axis meet at (b_j - b_i) / (a_i - a_j) when that is
    positive, and an extra event (db, da, ...) sits at db / da. Events are
    generated axis by axis, meets in (i, j) order, then the extras in order.
    Each critical is (db, da, met, extras): the (db, da), da > 0, of its
    first generated event, each axis's set of meeting nodes, and its extra
    events, last generated first.
    """
    groups: dict[Fraction, list] = {}
    for s, axis in enumerate(axes):
        a, b = axis.alphas, axis.betas
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                if a[i] != a[j] and Fraction(b[j] - b[i], a[i] - a[j]) > 0:
                    sign = 1 if a[i] > a[j] else -1
                    pair = (sign * (b[j] - b[i]), sign * (a[i] - a[j]))
                    groups.setdefault(Fraction(*pair), []).append((pair, s, (i, j)))
    for ev in extra:
        groups.setdefault(Fraction(ev[0], ev[1]), []).append(((ev[0], ev[1]), None, ev))
    out = []
    for lam in sorted(groups, reverse=True):
        met: tuple[set, ...] = tuple(set() for _ in axes)
        for _, s, what in groups[lam]:
            if s is not None:
                met[s].update(what)
        extras = [what for _, s, what in reversed(groups[lam]) if s is None]
        out.append((*groups[lam][0][0], met, extras))
    return out


# ---------------------------------------------------------------------------
# whole-trace replays
# ---------------------------------------------------------------------------


@dataclass
class TraceProblem:
    n: int                      # max live-rectangle bound (structure capacity)
    box: tuple[int, int]        # cells [1, nx] x [1, ny]
    updates: list[Move]


def trace_problem(box: tuple[int, int], updates: Sequence[Move]) -> TraceProblem:
    """Wrap raw updates, inferring the live bound from the trace itself."""
    return TraceProblem(n=live_bound([], updates), box=box, updates=list(updates))


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


def first_uncover(tp: TraceProblem, impl: str = "naive") -> int | None:
    """First 1-based update index after which the box is not fully covered."""
    failed, _ = run_plan(tp.box, tp.n, [], tp.updates,
                         range(1, len(tp.updates) + 1), impl)
    return None if failed is None else failed + 1


def covered_cells(struct) -> int:
    """Covered cells of an engine: the grid's nonzero counts, or per slab
    and row, the whole slab when a rectangle crosses it, else its partials'."""
    if isinstance(struct, _NaiveGrid):
        return int(np.count_nonzero(struct.grid))
    return int(np.where(struct.cross > 0, struct.slab_w, struct.pcov).sum())


def area_after_each(tp: TraceProblem, impl: str = "naive") -> list[int]:
    """Covered-cell count after each update prefix."""
    return [covered_cells(struct) for _, struct in
            _execute(tp.box, tp.n, [], tp.updates, range(1, len(tp.updates) + 1), impl)]


def live_after(initial: Sequence[tuple[object, RankRect]], updates: Sequence[Move],
               k: int) -> dict[object, RankRect]:
    """The live id->rect map after the preloaded set and the first k moves."""
    live = dict(initial)
    for uid, _, new in updates[:k]:
        if new is None:
            del live[uid]
        else:
            live[uid] = new
    return live


def check_moves(box: tuple[int, int], capacity: int,
                initial: Sequence[tuple[object, RankRect]], updates: Sequence[Move]) -> None:
    """Raise MalformedTrace at the first move the engines could not trust.

    Every rectangle must lie in the box, the preloaded ids must differ, and
    at most twice ``capacity`` rectangles may be live. A move must start
    from its id's live rectangle (None for a dead id), and a delete needs a
    live id.
    """
    nx, ny = box
    limit = 2 * max(1, capacity)

    def inside(r: RankRect) -> None:
        if not (1 <= r.x_lo <= r.x_hi <= nx and 1 <= r.y_lo <= r.y_hi <= ny):
            raise MalformedTrace(f"rectangle {r} outside box {box}")

    if len(initial) > limit:
        raise MalformedTrace("preloaded set exceeds twice the declared bound")
    live: dict[object, RankRect] = {}
    for uid, r in initial:
        inside(r)
        if uid in live:
            raise MalformedTrace(f"duplicate id {uid!r}")
        live[uid] = r
    for uid, old, new in updates:
        cur = live.get(uid)
        if cur is not old and cur != old or old is new is None:
            raise MalformedTrace(f"delete of dead id {uid!r}" if cur is None else
                                 f"duplicate id {uid!r}" if old is None else
                                 f"id {uid!r} moves from {old} but holds {cur}")
        if new is None:
            del live[uid]
        else:
            inside(new)
            if old is None and len(live) >= limit:
                raise MalformedTrace("live set exceeds twice the declared bound")
            live[uid] = new


# ---------------------------------------------------------------------------
# polygon simplicity
# ---------------------------------------------------------------------------


def edges_meet(pts: Sequence[Point], i: int, j: int) -> bool:
    """True when the closed edges i and j of the cycle share a point.

    An axis-parallel segment is its own bounding box, so two of them meet
    exactly when their boxes overlap on both axes.
    """
    n = len(pts)
    (a, b), (c, d) = (pts[i], pts[(i + 1) % n]), (pts[j], pts[(j + 1) % n])
    return (max(min(a.x, b.x), min(c.x, d.x)) <= min(max(a.x, b.x), max(c.x, d.x))
            and max(min(a.y, b.y), min(c.y, d.y)) <= min(max(a.y, b.y), max(c.y, d.y)))


def simple_violation(pts: Sequence[Point]) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of non-adjacent edges that meet, or None
    when the cycle is simple. Compares every pair: O(n²)."""
    n = len(pts)
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            if edges_meet(pts, i, j):
                return i, j
    return None


def clean_cycle(pts: list[Point]) -> tuple[list[Point], int]:
    """Strip a duplicated closing vertex, reject bad edges, merge flat
    vertices: the first flat vertex of the cycle each time, rescanning from
    vertex 0 after every merge. O(n * merged)."""
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        raise TooFewVertices(f"{len(pts)} vertices")
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a == b:
            raise DegenerateEdge(f"repeated vertex {a}")
        if a.x != b.x and a.y != b.y:
            raise NonRectilinear(f"diagonal edge {a} -> {b}")

    merged = 0
    pts = list(pts)
    changed = True
    while changed:
        changed = False
        n = len(pts)
        if n < 3:
            break
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            if a.x == b.x == c.x:
                straight = (b.y > a.y) == (c.y > b.y)
            elif a.y == b.y == c.y:
                straight = (b.x > a.x) == (c.x > b.x)
            else:
                continue
            if not straight:
                raise SelfIntersecting(f"boundary folds back at {b}")
            del pts[i]
            merged += 1
            changed = True
            break
    if len(pts) < 4:
        raise TooFewVertices(f"{len(pts)} corners after merging collinear vertices")
    return pts, merged
