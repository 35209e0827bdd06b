import random
from fractions import Fraction

from conftest import cell_grid_union_area, point_in_polygon
from oracles import union_area
from polyplace.decompose import cover_complement, cover_interior, padded_frame
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
    assert len(cover_complement(sq)) == 0  # nothing inside the bbox


def test_complement_l_shape():
    cov = cover_complement(LSHAPE)
    assert cov.rects == (AxisRect(*map(Fraction, (1, 2, 1, 2))),)


def test_complement_comb_area_identity():
    # comb with k equal teeth: k-1 gap rectangles
    k = 5
    verts = [(0, 0), (2 * k - 1, 0), (2 * k - 1, 4)]
    for i in range(k - 1, 0, -1):
        verts += [(2 * i, 4), (2 * i, 1), (2 * i - 1, 1), (2 * i - 1, 4)]
    verts.append((0, 4))
    comb = validate_polygon(verts)
    box = comb.bounding_box()
    cov = cover_complement(comb)
    assert len(cov) == k - 1
    assert union_area(cov.rects, box) == box.area - comb.area()


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
        assert len(cover_complement(poly)) <= len(poly)


def test_membership_sampling(rng):
    poly = random_orthogonal_polygon(rng, 20, span=20)
    box = poly.bounding_box()
    interior = cover_interior(poly)
    comp = cover_complement(poly)
    inside = outside = 0
    while inside < 1000 or outside < 1000:
        p = Point(Fraction(rng.randint(int(box.x0) * 7, int(box.x1) * 7), 7),
                  Fraction(rng.randint(int(box.y0) * 9, int(box.y1) * 9), 9))
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
        box = poly.bounding_box()
        comp = cover_complement(poly)
        assert cell_grid_union_area(list(comp.rects), box) == box.area - poly.area()


def test_padded_frame_covers_cap():
    poly = validate_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    pattern_box = AxisRect(*map(Fraction, (-1, 1, -1, 1)))
    cap = Fraction(8)
    bands = padded_frame(poly, pattern_box, cap)
    b = poly.bounding_box()
    frame = AxisRect(min(r.x0 for r in bands), max(r.x1 for r in bands),
                     min(r.y0 for r in bands), max(r.y1 for r in bands))
    # the bands cover exactly frame \ bbox ...
    assert union_area(bands, frame) == frame.area - b.area
    assert union_area(bands, b) == 0
    # ... and the frame holds every placement with translation in the bbox
    # and scale up to the cap strictly inside
    reach = AxisRect(b.x0 + cap * pattern_box.x0, b.x1 + cap * pattern_box.x1,
                     b.y0 + cap * pattern_box.y0, b.y1 + cap * pattern_box.y1)
    assert frame.x0 < reach.x0 and reach.x1 < frame.x1
    assert frame.y0 < reach.y0 and reach.y1 < frame.y1
