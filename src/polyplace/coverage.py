"""Exact union measure and full-coverage queries for closed rectangles.

Two coordinate kinds share one sweep: real rectangles (`AxisRect`, rational
Lebesgue area) and rank-space rectangles (`RankRect`, counting unit cells of
the integer grid, where the closed rect [a,b]x[c,d] covers the cells
a..b x c..d). The dispatching wrappers sniff the rectangle kind.

No solver uses this module: it is the independent oracle against which the
rank-space encoding and the solvers' static test are checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .geometry import AxisRect


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
