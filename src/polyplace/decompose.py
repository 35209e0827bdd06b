"""Rectangle covers of a rectilinear polygon and of its complement.

The interior cover is a vertical-slab decomposition with a horizontal merge
pass: at most one rectangle per slab interval, merged runs across slabs, so
the cover size never exceeds the vertex count. The complement cover is four
frame bands around the bounding box plus the slab decomposition of
``bbox \\ polygon``. The complement is taken inside a finite frame; callers
size the frame so that every consulted placement stays inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import AxisRect, OrthoPolygon, Rational


class FrameTooSmall(ValueError):
    """The complement frame must strictly exceed the bounding box on all sides."""


@dataclass(frozen=True)
class RectCover:
    rects: tuple[AxisRect, ...]
    source: str  # "interior" | "complement"
    frame: AxisRect | None = None
    inflation: Rational | None = None  # audit: how far the frame exceeds bbox(Q)

    def __len__(self) -> int:
        return len(self.rects)


def _slab_intervals(poly: OrthoPolygon) -> tuple[list[Rational], list[list[tuple[Rational, Rational]]]]:
    """Distinct vertex x-values and, per slab, the interior y-intervals."""
    xs = sorted({v.x for v in poly.vertices})
    hedges = []
    for a, b in poly.edges():
        if a.y == b.y:
            hedges.append((a.y, min(a.x, b.x), max(a.x, b.x)))
    slabs: list[list[tuple[Rational, Rational]]] = []
    for k in range(len(xs) - 1):
        lo, hi = xs[k], xs[k + 1]
        ys = sorted(y for (y, xl, xr) in hedges if xl <= lo and xr >= hi)
        if len(ys) % 2:
            raise RuntimeError("odd number of boundary crossings in a slab")
        slabs.append([(ys[i], ys[i + 1]) for i in range(0, len(ys), 2)])
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
    return RectCover(tuple(_merge_runs(xs, slabs)), source="interior")


def cover_complement(poly: OrthoPolygon, frame: AxisRect,
                     inflation: Rational | None = None) -> RectCover:
    """Cover ``frame \\ polygon`` by rectangles (overlaps allowed).

    Four bands cover ``frame \\ bbox``; the region ``bbox \\ polygon`` gets the
    slab treatment. The frame must strictly contain the bounding box.
    """
    b = poly.bounding_box()
    if not (frame.x0 < b.x0 and b.x1 < frame.x1 and frame.y0 < b.y0 and b.y1 < frame.y1):
        raise FrameTooSmall(f"frame {frame} does not strictly contain bbox {b}")

    bands = [
        AxisRect(frame.x0, b.x0, frame.y0, frame.y1),   # left
        AxisRect(b.x1, frame.x1, frame.y0, frame.y1),   # right
        AxisRect(frame.x0, frame.x1, frame.y0, b.y0),   # bottom
        AxisRect(frame.x0, frame.x1, b.y1, frame.y1),   # top
    ]

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
    inner = _merge_runs(xs, gap_slabs)

    return RectCover(tuple(bands + inner), source="complement",
                     frame=frame, inflation=inflation)


def padded_frame(target: OrthoPolygon, pattern_box: AxisRect,
                 scale_cap: Rational) -> tuple[AxisRect, Rational]:
    """Frame around ``bbox(target)`` valid for every scale up to ``scale_cap``.

    Any placement with translation inside bbox(target) and scale at most
    ``scale_cap`` keeps the scaled pattern strictly inside the frame, so the
    finite complement cover behaves like the complement of the whole plane
    for those queries.
    """
    pad = (scale_cap + 1) * (pattern_box.width + pattern_box.height) + 1
    pad = Fraction(math.ceil(pad))  # integer margin keeps integral inputs integral
    return target.bounding_box().inflated(pad), pad


def default_scale_cap(pattern_box: AxisRect, target_box: AxisRect) -> Rational:
    """Upper bound used to size frames before any critical scale is known.

    Four times the bounding-box perimeter ratio dominates the bbox-fit cap
    min(width ratio, height ratio), which itself bounds every feasible scale.
    """
    ratio = 4 * (target_box.width + target_box.height) / (pattern_box.width + pattern_box.height)
    return max(ratio, Fraction(1))
