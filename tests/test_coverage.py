import random
from fractions import Fraction

from conftest import (cell_grid_union_area, cell_grid_union_cells,
                      random_axis_rect)
from oracles import covers_box, union_area
from polyplace.forbidden import RankRect
from polyplace.geometry import AxisRect


def R(*vals):
    return AxisRect(*map(Fraction, vals))


BOX4 = R(0, 4, 0, 4)


def test_empty_union():
    assert union_area([], BOX4) == 0
    assert not covers_box([], BOX4)


def test_two_overlapping():
    rects = [R(0, 2, 0, 2), R(1, 3, 1, 3)]
    assert union_area(rects, R(0, 3, 0, 3)) == 7  # 4 + 4 - 1


def test_covers_examples():
    assert covers_box([BOX4], BOX4)
    assert covers_box([R(0, 4, 0, 4), R(1, 2, 1, 2)], BOX4)
    assert not covers_box([R(0, 4, 0, 3)], BOX4)


def test_union_matches_grid_oracle(rng):
    box = R(0, 100, 0, 100)
    for trial in range(60):
        rects = [random_axis_rect(rng) for _ in range(rng.randint(0, 50))]
        assert union_area(rects, box) == cell_grid_union_area(rects, box)


def test_union_order_and_duplicates_invariant(rng):
    box = R(0, 50, 0, 50)
    rects = [random_axis_rect(rng, 50) for _ in range(20)]
    base = union_area(rects, box)
    shuffled = rects[:]
    rng.shuffle(shuffled)
    assert union_area(shuffled, box) == base
    assert union_area(rects + rects[:5], box) == base
    assert union_area(rects + [random_axis_rect(rng, 50)], box) >= base
    assert base <= box.area


# rank-space (cell counting) ------------------------------------------------

def test_cells_basics():
    box = (4, 4)
    assert union_area([], box) == 0
    assert union_area([RankRect(1, 2, 1, 2)], box) == 4
    assert covers_box([RankRect(1, 4, 1, 4)], box)
    # box minus one missing corner cell
    rects = [RankRect(1, 4, 1, 3), RankRect(1, 3, 4, 4)]
    assert not covers_box(rects, box)
    assert union_area(rects, box) == 15


def test_degenerate_cells_count():
    # zero-width rank rects still cover their degenerate cells
    assert union_area([RankRect(2, 2, 1, 3)], (3, 3)) == 3


def test_cells_match_grid_oracle(rng):
    for _ in range(50):
        nx, ny = rng.randint(1, 12), rng.randint(1, 12)
        rects = []
        for _ in range(rng.randint(0, 10)):
            x0 = rng.randint(1, nx)
            y0 = rng.randint(1, ny)
            rects.append(RankRect(x0, rng.randint(x0, nx), y0, rng.randint(y0, ny)))
        assert union_area(rects, (nx, ny)) == cell_grid_union_cells(rects, nx, ny)
