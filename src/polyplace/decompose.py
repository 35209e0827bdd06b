"""Rectangle covers of a rectilinear polygon and of its complement.

The interior cover is a vertical-slab decomposition with a horizontal merge
pass: at most one rectangle per slab interval, merged runs across slabs, so
the cover size never exceeds the vertex count. The complement cover applies
the same slab treatment to ``bbox \\ polygon``; a placement's scaled bounding
box is kept inside the target's by its translation range, not by rectangles.
:func:`padded_frame` supplies the four bands outside the bounding box for a
pairwise check that needs the complement of the whole plane.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .geometry import AxisRect, OrthoPolygon, Rational


@dataclass(frozen=True)
class RectCover:
    rects: tuple[AxisRect, ...]

    def __len__(self) -> int:
        return len(self.rects)


def _slab_intervals(poly: OrthoPolygon) -> tuple[list[Rational], list[list[tuple[Rational, Rational]]]]:
    """Distinct vertex x-values and, per slab, the interior y-intervals.

    Slab k lies between xs[k] and xs[k + 1]; a horizontal edge from xs[i] to
    xs[j] crosses slabs i..j-1, so each slab collects exactly its crossings.
    """
    xs = sorted({v.x for v in poly.vertices})
    crossings: list[list[Rational]] = [[] for _ in range(len(xs) - 1)]
    for a, b in poly.edges():
        if a.y == b.y:
            for k in range(bisect_left(xs, min(a.x, b.x)), bisect_left(xs, max(a.x, b.x))):
                crossings[k].append(a.y)
    slabs: list[list[tuple[Rational, Rational]]] = []
    for ys in crossings:
        if len(ys) % 2:
            raise RuntimeError("odd number of boundary crossings in a slab")
        ys.sort()
        slabs.append(list(zip(ys[::2], ys[1::2])))
    return xs, slabs


def _merge_runs(xs: list[Rational], slabs: list[list[tuple[Rational, Rational]]]) -> list[AxisRect]:
    """Merge horizontally adjacent slab rectangles with identical y-extents."""
    rects: list[AxisRect] = []
    active: dict[tuple[Rational, Rational], Rational] = {}  # interval -> run start x
    for k, intervals in enumerate(slabs):
        here = set(intervals)
        for iv in list(active):
            if iv not in here:
                rects.append(AxisRect(active.pop(iv), xs[k], iv[0], iv[1]))
        for iv in here:
            if iv not in active:
                active[iv] = xs[k]
    for iv, start in active.items():
        rects.append(AxisRect(start, xs[-1], iv[0], iv[1]))
    rects.sort(key=lambda r: (r.x0, r.y0, r.x1, r.y1))
    return rects


def cover_interior(poly: OrthoPolygon) -> RectCover:
    """Cover the polygon by closed rectangles with pairwise disjoint interiors.

    The union equals the polygon exactly (equal area, pointwise membership),
    and the rectangle count is at most the vertex count.
    """
    xs, slabs = _slab_intervals(poly)
    return RectCover(tuple(_merge_runs(xs, slabs)))




def cover_complement(poly: OrthoPolygon) -> RectCover:
    """Cover ``bbox \\ polygon`` by closed rectangles with disjoint interiors.

    Each slab's gaps between the polygon's interior intervals, merged across
    slabs as in :func:`cover_interior`; a rectangle's cover is empty.
    """
    b = poly.bounding_box()
    xs, slabs = _slab_intervals(poly)
    gap_slabs: list[list[tuple[Rational, Rational]]] = []
    for intervals in slabs:
        gaps = []
        cursor = b.y0
        for lo, hi in intervals:
            if cursor < lo:
                gaps.append((cursor, lo))
            cursor = hi
        if cursor < b.y1:
            gaps.append((cursor, b.y1))
        gap_slabs.append(gaps)
    return RectCover(tuple(_merge_runs(xs, gap_slabs)))


def padded_frame(target: OrthoPolygon, pattern_box: AxisRect,
                 scale_cap: Rational) -> tuple[AxisRect, ...]:
    """The bands left, right, bottom, top of a frame around ``bbox(target)``.

    The frame is wide enough that any placement of the centered pattern with
    translation inside bbox(target) and scale at most ``scale_cap`` stays
    strictly inside it, so the bands plus :func:`cover_complement` act as the
    complement of the whole plane for those placements.
    """
    b = target.bounding_box()
    # an integer margin keeps integral inputs integral
    f = b.inflated(math.ceil((scale_cap + 1) * (pattern_box.width + pattern_box.height) + 1))
    return (AxisRect(f.x0, b.x0, f.y0, f.y1), AxisRect(b.x1, f.x1, f.y0, f.y1),
            AxisRect(f.x0, f.x1, f.y0, b.y0), AxisRect(f.x0, f.x1, b.y1, f.y1))
