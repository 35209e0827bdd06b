"""Shared exact-arithmetic test helpers and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import TraceProblem
from polyplace.forbidden import RankRect
from polyplace.geometry import AxisRect, OrthoPolygon, Point, validate_polygon
from polyplace.instances import comb_polygon


def point_on_boundary(poly: OrthoPolygon, p: Point) -> bool:
    for a, b in poly.edges():
        if a.y == b.y:
            if p.y == a.y and min(a.x, b.x) <= p.x <= max(a.x, b.x):
                return True
        else:
            if p.x == a.x and min(a.y, b.y) <= p.y <= max(a.y, b.y):
                return True
    return False


def point_in_polygon(poly: OrthoPolygon, p: Point) -> bool:
    """Exact closed membership via crossing count of a ray going up."""
    if point_on_boundary(poly, p):
        return True
    crossings = 0
    for a, b in poly.edges():
        if a.y != b.y:
            continue
        lo, hi = min(a.x, b.x), max(a.x, b.x)
        # count horizontal edges strictly above p whose open x-range holds p.x;
        # p.x never equals a vertex x here because edge hits were handled above
        if lo < p.x < hi and a.y > p.y:
            crossings += 1
    return crossings % 2 == 1


def cell_grid_union_area(rects: list[AxisRect], box: AxisRect) -> Fraction:
    """Brute-force oracle: compress coordinates, test every cell's midpoint."""
    xs = sorted({box.x0, box.x1} | {v for r in rects for v in (r.x0, r.x1)
                                    if box.x0 < v < box.x1})
    ys = sorted({box.y0, box.y1} | {v for r in rects for v in (r.y0, r.y1)
                                    if box.y0 < v < box.y1})
    total = Fraction(0)
    for i in range(len(xs) - 1):
        mx = (xs[i] + xs[i + 1]) / 2
        for j in range(len(ys) - 1):
            my = (ys[j] + ys[j + 1]) / 2
            if any(r.x0 <= mx <= r.x1 and r.y0 <= my <= r.y1 for r in rects):
                total += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return total


def cell_grid_union_cells(rects, nx: int, ny: int) -> int:
    """Brute-force rank-space oracle: test every unit cell directly."""
    count = 0
    for x in range(1, nx + 1):
        for y in range(1, ny + 1):
            if any(r.x_lo <= x <= r.x_hi and r.y_lo <= y <= r.y_hi for r in rects):
                count += 1
    return count


def random_axis_rect(rng: random.Random, span: int = 100) -> AxisRect:
    x0 = rng.randint(0, span - 1)
    y0 = rng.randint(0, span - 1)
    return AxisRect(Fraction(x0), Fraction(rng.randint(x0 + 1, span)),
                    Fraction(y0), Fraction(rng.randint(y0 + 1, span)))


def random_trace(rng: random.Random, n: int, length: int, width: int) -> TraceProblem:
    """Random plain adds and deletes in a width x width box, at most n live."""
    updates = []
    live = {}
    uid = 0
    for _ in range(length):
        if live and (len(live) >= n or rng.random() < 0.45):
            victim = rng.choice(sorted(live))
            updates.append((victim, live.pop(victim), None))
        else:
            x0 = rng.randint(1, width)
            y0 = rng.randint(1, width)
            r = RankRect(x0, rng.randint(x0, width), y0, rng.randint(y0, width))
            live[uid] = r
            updates.append((uid, None, r))
            uid += 1
    return TraceProblem(n=n, box=(width, width), updates=updates)


def split_moves(updates, positions=()):
    """Moves as plain deletes and adds, one per rectangle change, and the
    positions counted in them: a move with both rectangles is its delete and
    then its add."""
    events, at = [], [0]
    for key, old, new in updates:
        if old is not None:
            events.append((key, old, None))
        if new is not None:
            events.append((key, None, new))
        at.append(len(events))
    return events, [at[p] for p in positions]


# a U: a pattern that is not star-shaped, no point of it sees the whole of it
U_SHAPE = validate_polygon([(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)])


def _comb(q):
    return comb_polygon(q, random.Random(q))


def _transposed_comb(q):
    """The comb with x and y swapped."""
    return validate_polygon([(v.y, v.x) for v in _comb(q).vertices])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
