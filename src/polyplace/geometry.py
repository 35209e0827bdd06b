"""Exact planar primitives for rectilinear geometry.

Every coordinate is an arbitrary-precision rational (``fractions.Fraction``);
nothing here ever rounds, so comparisons of derived quantities (areas,
critical scale factors, sorted coordinate orders) are exact. Polygons are
simple axis-parallel vertex cycles, validated and normalized to
counter-clockwise orientation on construction.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


class PolygonError(ValueError):
    """Input does not describe a valid simple rectilinear polygon."""


class NonRectilinear(PolygonError):
    """An edge is neither horizontal nor vertical."""


class SelfIntersecting(PolygonError):
    """Two non-adjacent edges touch, or the boundary folds back on itself."""


class DegenerateEdge(PolygonError):
    """Two consecutive vertices coincide."""


class TooFewVertices(PolygonError):
    """Fewer than four distinct corners remain after cleanup."""


class NonPositiveScale(ValueError):
    """Scale factors must be strictly positive."""


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or ``"num/den"`` string to an exact rational.

    Floats are rejected on purpose: they would smuggle rounding into an
    otherwise exact pipeline. A malformed string, a zero denominator
    included, raises a ``ValueError`` that names it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected int, Fraction or 'num/den' string, got {type(value).__name__}")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` (always carries the denominator)."""
    value = rat(value)
    return f"{value.numerator}/{value.denominator}"


def rat_json(value: Fraction):
    """JSON form of a rational: plain int when integral, else ``"num/den"``."""
    value = rat(value)
    if value.denominator == 1:
        return value.numerator
    return rat_str(value)


@dataclass(frozen=True)
class Point:
    x: Rational
    y: Rational

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, factor: Rational) -> "Point":
        return Point(self.x * factor, self.y * factor)

    def __iter__(self):
        yield self.x
        yield self.y

    def __str__(self) -> str:  # as error messages name a vertex: "(x, y)"
        return f"({self.x}, {self.y})"


ORIGIN = Point(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class AxisRect:
    """Closed axis-aligned rectangle [x0,x1] x [y0,y1]."""

    x0: Rational
    x1: Rational
    y0: Rational
    y1: Rational

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"inverted rectangle {self}")

    @property
    def width(self) -> Rational:
        return self.x1 - self.x0

    @property
    def height(self) -> Rational:
        return self.y1 - self.y0

    @property
    def area(self) -> Rational:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)

    def inflated(self, margin: Rational) -> "AxisRect":
        return AxisRect(self.x0 - margin, self.x1 + margin,
                        self.y0 - margin, self.y1 + margin)

    def contains_point(self, p: Point) -> bool:
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1


class OrthoPolygon:
    """Simple rectilinear polygon as a counter-clockwise vertex cycle.

    Construct through :func:`validate_polygon`; the raw constructor trusts its
    input and is reserved for internal transforms that preserve validity.
    """

    __slots__ = ("vertices", "merged_vertices", "_bbox", "_area")

    def __init__(self, vertices: Sequence[Point], merged_vertices: int = 0):
        self.vertices: tuple[Point, ...] = tuple(vertices)
        self.merged_vertices = merged_vertices
        self._bbox: AxisRect | None = None
        self._area: Rational | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrthoPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"OrthoPolygon({len(self.vertices)} vertices, bbox={self.bounding_box()})"

    def bounding_box(self) -> AxisRect:
        if self._bbox is None:
            xs = [v.x for v in self.vertices]
            ys = [v.y for v in self.vertices]
            self._bbox = AxisRect(min(xs), max(xs), min(ys), max(ys))
        return self._bbox

    def area(self) -> Rational:
        if self._area is None:
            total = Fraction(0)
            verts = self.vertices
            for i, a in enumerate(verts):
                b = verts[(i + 1) % len(verts)]
                total += a.x * b.y - b.x * a.y
            self._area = total / 2
        return self._area

    def translated(self, delta: Point) -> "OrthoPolygon":
        return OrthoPolygon([v + delta for v in self.vertices], self.merged_vertices)

    def edges(self):
        verts = self.vertices
        for i, a in enumerate(verts):
            yield a, verts[(i + 1) % len(verts)]


@dataclass(frozen=True)
class Placement:
    """Scale about the pattern's bounding-box center, then translate."""

    scale: Rational
    offset: Point

    def __post_init__(self):
        if self.scale <= 0:
            raise NonPositiveScale(f"scale must be positive, got {self.scale}")


def _as_points(vertices: Iterable) -> list[Point]:
    pts = []
    for v in vertices:
        if isinstance(v, Point):
            pts.append(v)
        else:
            x, y = v
            pts.append(Point(rat(x), rat(y)))
    return pts


def _clean_cycle(pts: list[Point]) -> tuple[list[Point], int]:
    """Strip a duplicated closing vertex, reject bad edges, merge flat vertices.

    A flat vertex lies on one line with its two neighbours. Merging a
    straight one joins two edges of the same direction, so it changes no
    other vertex's kind: one pass classifies every vertex against its input
    neighbours, keeps the corners in order and raises at the first vertex
    where the boundary folds back, as merging flat vertices one at a time
    from the first would.
    """
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

    corners = []
    for i, b in enumerate(pts):
        a, c = pts[i - 1], pts[(i + 1) % n]
        if a.x == b.x == c.x:
            straight = (b.y > a.y) == (c.y > b.y)
        elif a.y == b.y == c.y:
            straight = (b.x > a.x) == (c.x > b.x)
        else:
            corners.append(b)
            continue
        if not straight:
            if not corners and n - i < 3:  # on one line, merged down to two first
                raise TooFewVertices("2 corners after merging collinear vertices")
            raise SelfIntersecting(f"boundary folds back at {b}")
    if len(corners) < 4:
        raise TooFewVertices(f"{len(corners)} corners after merging collinear vertices")
    return corners, n - len(corners)


def _check_simple(pts: list[Point]) -> None:
    """All pairs of non-adjacent edges must be disjoint (closed segments).

    One exact sweep (Shamos & Hoey 1976; Bentley & Ottmann 1979) makes
    O(n log n) ``Fraction`` comparisons. It relies on the cycle alternating
    horizontal and vertical edges, as :func:`_clean_cycle` leaves it, so no
    two parallel edges are adjacent, and a vertical edge's two neighbours
    are horizontal edges that end on its two ends.

    * Parallel edges, sorted by (line, lo, hi, index): two of them overlap
      exactly when some two neighbours in that order do.
    * Crossings, a sweep in x: at each x, the horizontal edges that start
      there open, the vertical edges there are queried, and the horizontal
      edges that end there close. The open edges are a list sorted by
      (y, index). A vertical edge [ylo, yhi] meets its two neighbours at its
      ends, so a third open edge with y in [ylo, yhi] crosses or touches it.

    Opening and closing an edge are list insertions and deletions, C memmoves
    that move O(n²) bytes in the worst case.
    """
    n = len(pts)

    def edge(i: int) -> str:
        return f"{pts[i]}-{pts[(i + 1) % n]}"

    flat = [a.y == pts[(i + 1) % n].y for i, a in enumerate(pts)]
    horiz = []  # (y, xlo, xhi, index)
    vert = []   # (x, ylo, yhi, index)
    for i, a in enumerate(pts):
        if flat[i] == flat[i - 1]:
            raise PolygonError(f"consecutive edges {edge((i - 1) % n)} and {edge(i)} are parallel")
        b = pts[(i + 1) % n]
        if flat[i]:
            horiz.append((a.y, min(a.x, b.x), max(a.x, b.x), i))
        else:
            vert.append((a.x, min(a.y, b.y), max(a.y, b.y), i))

    for kind, edges in (("horizontal", horiz), ("vertical", vert)):
        edges.sort()
        for (line1, _, hi1, i), (line2, lo2, _, j) in zip(edges, edges[1:]):
            if line1 == line2 and lo2 <= hi1:
                raise SelfIntersecting(f"{kind} edges {edge(i)} and {edge(j)} overlap")

    # (x, 0 open / 1 query / 2 close, y or ylo, y or yhi, index)
    events = sorted([(xlo, 0, y, y, i) for y, xlo, _, i in horiz]
                    + [(x, 1, ylo, yhi, j) for x, ylo, yhi, j in vert]
                    + [(xhi, 2, y, y, i) for y, _, xhi, i in horiz])
    live: list[tuple[Rational, int]] = []  # open horizontal edges, (y, index)
    for _, step, lo, hi, i in events:
        if step == 0:
            insort(live, (lo, i))
        elif step == 2:
            del live[bisect_left(live, (lo, i))]
        else:
            first = bisect_left(live, (lo, -1))
            if bisect_right(live, (hi, n)) - first > 2:
                h = next(h for _, h in live[first:first + 3] if (i - h) % n not in (1, n - 1))
                raise SelfIntersecting(f"edges {edge(h)} and {edge(i)} cross")


def validate_polygon(vertices: Iterable) -> OrthoPolygon:
    """Validate a vertex cycle and return the normalized polygon.

    Accepts either orientation and tolerates redundant collinear vertices,
    which are merged, so the cleaned cycle alternates horizontal and vertical
    edges. Raises a :class:`PolygonError` subclass describing the first
    violated invariant otherwise. Simplicity is checked by one exact sweep of
    O(n log n) comparisons (see :func:`_check_simple`); when two non-adjacent
    edges meet, the :class:`SelfIntersecting` message names one such pair
    by the end points of each edge, which are input vertices, since merging
    drops only middle vertices.
    """
    pts = _as_points(vertices)
    if not pts:
        raise TooFewVertices("empty vertex list")
    pts, merged = _clean_cycle(pts)

    doubled = Fraction(0)
    n = len(pts)
    for i, a in enumerate(pts):
        b = pts[(i + 1) % n]
        doubled += a.x * b.y - b.x * a.y
    if doubled == 0:
        raise SelfIntersecting("polygon has zero area")
    if doubled < 0:
        pts.reverse()

    _check_simple(pts)

    # canonical starting vertex keeps serialization deterministic
    start = min(range(len(pts)), key=lambda i: (pts[i].x, pts[i].y))
    pts = pts[start:] + pts[:start]
    return OrthoPolygon(pts, merged)


def normalize_center(poly: OrthoPolygon) -> tuple[OrthoPolygon, Point]:
    """Translate the polygon so its bounding-box center is exactly the origin.

    Returns the centered polygon and the subtracted offset, so
    ``original = centered.translated(offset)``.
    """
    offset = poly.bounding_box().center
    if offset == ORIGIN:
        return poly, offset
    return poly.translated(ORIGIN - offset), offset


def transform(poly: OrthoPolygon, placement: Placement) -> OrthoPolygon:
    """Scale about the polygon's own bounding-box center, then translate."""
    if placement.scale <= 0:
        raise NonPositiveScale(str(placement.scale))
    c = poly.bounding_box().center
    lam, tau = placement.scale, placement.offset
    moved = [Point(lam * (v.x - c.x) + c.x + tau.x,
                   lam * (v.y - c.y) + c.y + tau.y) for v in poly.vertices]
    return OrthoPolygon(moved, poly.merged_vertices)


# ---------------------------------------------------------------------------
# polygon file format: {"vertices": [[x, y], ...]}, coordinates are JSON
# integers or "num/den" strings in lowest terms
# ---------------------------------------------------------------------------

def polygon_from_obj(obj) -> OrthoPolygon:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise PolygonError('expected an object with a "vertices" list')
    return validate_polygon(obj["vertices"])


def polygon_to_obj(poly: OrthoPolygon) -> dict:
    return {"vertices": [[rat_json(v.x), rat_json(v.y)] for v in poly.vertices]}


def load_polygon(path: str) -> OrthoPolygon:
    with open(path, "r", encoding="utf-8") as fh:
        return polygon_from_obj(json.load(fh))


def save_polygon(path: str, poly: OrthoPolygon) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polygon_to_obj(poly), fh)
        fh.write("\n")
