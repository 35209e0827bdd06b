import random
from fractions import Fraction

import pytest

from conftest import cell_grid_union_area, point_in_polygon
from polyplace.decompose import (FrameTooSmall, cover_complement, cover_interior,
                                 default_scale_cap, padded_frame)
from polyplace.geometry import AxisRect, Point, validate_polygon
from polyplace.instances import random_orthogonal_polygon

LSHAPE = validate_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def test_rectangle_covers_itself():
    cov = cover_interior(validate_polygon([(0, 0), (4, 0), (4, 2), (0, 2)]))
    assert len(cov) == 1
    assert cov.rects[0] == AxisRect(*map(Fraction, (0, 4, 0, 2)))


def test_l_shape_two_rects():
    cov = cover_interior(LSHAPE)
    assert len(cov) == 2
    assert sum(r.area for r in cov.rects) == LSHAPE.area()


def test_staircase_three_rects():
    stairs = validate_polygon([(0, 0), (3, 0), (3, 3), (2, 3), (2, 2),
                               (1, 2), (1, 1), (0, 1)])
    cov = cover_interior(stairs)
    assert len(cov) == 3
    assert sum(r.area for r in cov.rects) == stairs.area()
    # representative points of every compressed cell agree with membership
    xs = sorted({v.x for v in stairs.vertices})
    ys = sorted({v.y for v in stairs.vertices})
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            p = Point((xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2)
            covered = any(r.contains_point(p) for r in cov.rects)
            assert covered == point_in_polygon(stairs, p)


def test_complement_unit_square():
    sq = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    cov = cover_complement(sq, AxisRect(*map(Fraction, (-1, 2, -1, 2))))
    assert len(cov) == 4  # four bands, nothing inside the bbox


def test_complement_l_shape():
    cov = cover_complement(LSHAPE, AxisRect(*map(Fraction, (-1, 3, -1, 3))))
    assert len(cov) == 5
    inner = [r for r in cov.rects if r == AxisRect(*map(Fraction, (1, 2, 1, 2)))]
    assert len(inner) == 1


def test_complement_comb_area_identity():
    # comb with k equal teeth: 4 bands plus k-1 gap rectangles
    k = 5
    verts = [(0, 0), (2 * k - 1, 0), (2 * k - 1, 4)]
    for i in range(k - 1, 0, -1):
        verts += [(2 * i, 4), (2 * i, 1), (2 * i - 1, 1), (2 * i - 1, 4)]
    verts.append((0, 4))
    comb = validate_polygon(verts)
    frame = comb.bounding_box().inflated(Fraction(3))
    cov = cover_complement(comb, frame)
    assert len(cov) == 4 + (k - 1)
    from polyplace.coverage import union_area
    assert union_area(cov.rects, frame) == frame.area - comb.area()


def test_frame_too_small():
    with pytest.raises(FrameTooSmall):
        cover_complement(LSHAPE, LSHAPE.bounding_box())


def test_count_bounds_and_disjointness(rng):
    for _ in range(40):
        poly = random_orthogonal_polygon(rng, 20, span=30)
        interior = cover_interior(poly)
        assert len(interior) <= len(poly)
        assert sum(r.area for r in interior.rects) == poly.area()
        rects = interior.rects
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                a, b = rects[i], rects[j]
                assert not (max(a.x0, b.x0) < min(a.x1, b.x1)
                            and max(a.y0, b.y0) < min(a.y1, b.y1))
        frame = poly.bounding_box().inflated(Fraction(5))
        comp = cover_complement(poly, frame)
        assert len(comp) <= len(poly) + 4


def test_membership_sampling(rng):
    poly = random_orthogonal_polygon(rng, 20, span=20)
    frame = poly.bounding_box().inflated(Fraction(4))
    interior = cover_interior(poly)
    comp = cover_complement(poly, frame)
    inside = outside = 0
    while inside < 1000 or outside < 1000:
        p = Point(Fraction(rng.randint(int(frame.x0) * 7, int(frame.x1) * 7), 7),
                  Fraction(rng.randint(int(frame.y0) * 9, int(frame.y1) * 9), 9))
        if not frame.contains_point(p):
            continue
        if point_in_polygon(poly, p):
            if inside >= 1000:
                continue
            inside += 1
            assert any(r.contains_point(p) for r in interior.rects)
        else:
            if outside >= 1000:
                continue
            outside += 1
            assert any(r.contains_point(p) for r in comp.rects)


def test_complement_area_identity(rng):
    for _ in range(10):
        poly = random_orthogonal_polygon(rng, 16, span=15)
        frame = poly.bounding_box().inflated(Fraction(2))
        comp = cover_complement(poly, frame)
        assert cell_grid_union_area(list(comp.rects), frame) == \
            frame.area - poly.area()


def test_padded_frame_covers_cap():
    poly = validate_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    pattern_box = AxisRect(*map(Fraction, (-1, 1, -1, 1)))
    cap = default_scale_cap(pattern_box, poly.bounding_box())
    frame, pad = padded_frame(poly, pattern_box, cap)
    assert pad >= (cap + 1) * (pattern_box.width + pattern_box.height)
    b = poly.bounding_box()
    assert frame.x0 <= b.x0 and b.x1 <= frame.x1
    assert frame.y0 <= b.y0 and b.y1 <= frame.y1
