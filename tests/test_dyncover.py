
import numpy as np
import pytest

from conftest import U_SHAPE, _comb, _transposed_comb, random_trace, split_moves
from oracles import (TraceProblem, _minus, area_after_each, covered_cells, first_uncover,
                     live_after, trace_problem)
from polyplace.cli import run
from polyplace.dyncover import (MalformedTrace, _execute, _NaiveGrid, _SlabCover, read_trace,
                                run_plan, write_trace)
from polyplace.forbidden import RankRect, build_sweep
from polyplace.hardness import gen_foursum
from polyplace.instances import unit_square
from polyplace.solver import _Problem


def A(uid, x0, x1, y0, y1):
    """The move that adds a rectangle."""
    return uid, None, RankRect(x0, x1, y0, y1)


def D(uid, x0, x1, y0, y1):
    """The move that deletes a rectangle."""
    return uid, RankRect(x0, x1, y0, y1), None


def M(uid, old, new):
    """The move from one (x0, x1, y0, y1) rectangle to another."""
    return uid, RankRect(*old), RankRect(*new)


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_add_then_delete_full_box(impl):
    tp = TraceProblem(n=2, box=(3, 3), updates=[A(0, 1, 3, 1, 3), D(0, 1, 3, 1, 3)])
    assert first_uncover(tp, impl) == 2


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_add_only_never_uncovers(impl):
    tp = TraceProblem(n=2, box=(3, 3), updates=[A(0, 1, 3, 1, 3)])
    assert first_uncover(tp, impl) is None


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_area_examples(impl):
    assert area_after_each(TraceProblem(1, (4, 4), []), impl) == []
    tp = TraceProblem(1, (4, 4), [A(0, 1, 2, 1, 2)])
    assert area_after_each(tp, impl) == [4]


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_add_delete_inverse(impl, rng):
    tp = random_trace(rng, 20, 60, 12)
    areas = area_after_each(tp, impl)
    # replay adding one extra add+delete pair anywhere keeps the area
    base = tp.updates[:30]
    probe = base + [A(9999, 2, 5, 3, 7), D(9999, 2, 5, 3, 7)]
    got = area_after_each(TraceProblem(tp.n, tp.box, probe), impl)
    assert got[-1] == got[29] == areas[29]


def test_differential_small(rng):
    for _ in range(25):
        n = rng.randint(4, 40)
        tp = random_trace(rng, n, rng.randint(5, 200), rng.randint(2, 40))
        assert area_after_each(tp, "naive") == area_after_each(tp, "oy")
        assert first_uncover(tp, "naive") == first_uncover(tp, "oy")


def _cut_trace(rng, box, length, n=7):
    """Moves in ``box`` whose rectangles span its whole width, end on the
    oy slab cuts or on random columns, or take one column. The first add
    covers the box, so the first hole comes only after it leaves."""
    nx, ny = box
    cuts = _SlabCover(nx, ny, bound=1).cuts  # zero-based column offsets
    updates, live = [A(0, 1, nx, 1, ny)], {0: RankRect(1, nx, 1, ny)}
    for uid in range(1, length):
        if live and (len(live) >= n or rng.random() < 0.4):
            victim = rng.choice(sorted(live))
            updates.append((victim, live.pop(victim), None))
            continue
        kind = uid % 4
        if kind == 0:                              # full width
            x0, x1 = 1, nx
        elif kind == 1:                            # both ends on cuts
            a, b = sorted(rng.sample(cuts, 2))
            x0, x1 = a + 1, b
        elif kind == 2:                            # one column
            x0 = x1 = rng.randint(1, nx)
        else:                                      # one end on a cut
            x0 = rng.choice(cuts[:-1]) + 1
            x1 = rng.randint(x0, nx)
            if rng.random() < 0.5:
                x0, x1 = nx + 1 - x1, nx + 1 - x0
        y0 = rng.randint(1, ny)
        updates.append(A(uid, x0, x1, y0, rng.randint(y0, ny)))
        live[uid] = updates[-1][2]
    return TraceProblem(n=n, box=box, updates=updates)


def test_oy_slab_cuts(rng):
    # the slabs are cut once, about sqrt(nx) columns wide, whatever the trace
    assert _SlabCover(50, 3, bound=1).cuts == list(range(0, 50, 7)) + [50]
    # capacity far below the trace length, so the live set turns over often
    traces = [random_trace(rng, 7, 300, 25)]
    # a box much wider than the capacity, with rectangles spanning every
    # slab, rectangles whose x ends sit on a shared lattice, and one-column
    # rectangles
    width, height = 400, 12
    updates, live = [], {}
    for uid in range(300):
        if len(live) >= 7 or (live and rng.random() < 0.4):
            victim = list(live)[rng.randrange(len(live))]
            updates.append((victim, live.pop(victim), None))
            continue
        if uid % 3 == 0:
            x0, x1 = 1, width
        elif uid % 3 == 1:
            a, b = sorted(rng.sample(range(width // 40 + 1), 2))
            x0, x1 = 40 * a + 1, 40 * b
        else:
            x0 = x1 = rng.randint(1, width)
        y0 = rng.randint(1, height)
        updates.append(A(uid, x0, x1, y0, rng.randint(y0, height)))
        live[uid] = updates[-1][2]
    traces.append(TraceProblem(n=7, box=(width, height), updates=updates))
    # x ends on the cuts of a square slab count (49), a one-column last slab
    # (50), slabs that divide the box evenly (48), one column, and one row
    for box in ((1, 6), (49, 6), (50, 6), (48, 6), (50, 1), (1, 1)):
        traces += [_cut_trace(rng, box, 200) for _ in range(3)]
    uncovered = 0
    for tp in traces:
        assert area_after_each(tp, "oy") == area_after_each(tp, "naive"), tp.box
        first = first_uncover(tp, "naive")
        assert first_uncover(tp, "oy") == first, tp.box
        uncovered += first is not None and first > 1
    assert uncovered > len(traces) // 2


def _written(tmp_path, box, updates, initial=()):
    """The path of a trace file holding an in-memory trace, queried after every move."""
    path = tmp_path / "t.txt"
    write_trace(str(path), box, initial, updates, range(len(updates) + 1))
    return str(path)


def test_malformed_delete(tmp_path):
    # a delete of an id never added, and a second delete of one id
    twice = [A(0, 1, 3, 1, 3), A(1, 1, 3, 1, 3), D(1, 1, 3, 1, 3), D(1, 1, 3, 1, 3)]
    for ups in ([D(5, 1, 3, 1, 3)], twice):
        with pytest.raises(MalformedTrace, match="delete of dead id"):
            read_trace(_written(tmp_path, (3, 3), ups))


@pytest.mark.parametrize("impl", ["naive", "oy"])
@pytest.mark.parametrize("bad, message", [
    pytest.param(M(1, (1, 3, 1, 3), (1, 3, 1, 2)), "dead id", id="bad1-dead id"),  # of a dead id
    pytest.param(A(0, 1, 3, 1, 3), "duplicate id", id="bad3-duplicate id"),      # of a live id
    pytest.param(M(0, (1, 3, 1, 3), (1, 4, 1, 3)), "outside box 3 x 3", id="move-outside box"),
    pytest.param(M(0, (1, 3, 1, 3), (3, 1, 1, 3)), "empty rectangle", id="move-inverted"),
])
def test_malformed_move(tmp_path, capsys, impl, bad, message):
    # the file is refused when it is read, before either engine runs
    path = _written(tmp_path, (3, 3), [A(0, 1, 3, 1, 3), bad])
    with pytest.raises(MalformedTrace, match=message):
        read_trace(path)
    assert run(["dyncover", "--trace", path, "--impl", impl]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad trace file") and message in err, err
    assert len(err.strip().splitlines()) == 1


def test_malformed_out_of_box(tmp_path):
    # an added and a preloaded rectangle past the box's right side
    for initial, ups in (([], [A(0, 1, 4, 1, 2)]), ([(0, RankRect(1, 4, 1, 2))], [])):
        with pytest.raises(MalformedTrace, match="outside box 3 x 3"):
            read_trace(_written(tmp_path, (3, 3), ups, initial))


def test_run_plan_queries(rng):
    tp = random_trace(rng, 10, 40, 6)
    full = 36
    areas = area_after_each(tp, "naive")
    positions = list(range(len(tp.updates) + 1))
    failed, _ = run_plan(tp.box, tp.n, [], tp.updates, positions, "naive")
    expected = next((k + 1 for k, a in enumerate(areas) if a < full), None)
    if expected is None:
        if areas and areas[0] == full:
            assert failed is None or positions[failed] == 0
    else:
        # position 0 (empty structure) is uncovered unless the box is trivial
        assert failed == 0


def random_plan(rng, n, length, width):
    """A preloaded trace that starts covered, with sparse ascending queries.

    The preload is the full box plus random rectangles; half the adds span
    the box on one axis, so holes open and close many times. The queries
    include position 0, repeats and long stretches without a query.
    """
    initial = [(0, RankRect(1, width, 1, width))]
    for uid in range(1, rng.randint(1, n)):
        x0, y0 = rng.randint(1, width), rng.randint(1, width)
        initial.append((uid, RankRect(x0, rng.randint(x0, width),
                                      y0, rng.randint(y0, width))))
    live = dict(initial)
    updates = []
    uid = len(initial)
    for _ in range(length):
        if live and (len(live) >= n or rng.random() < 0.5):
            victim = list(live)[rng.randrange(len(live))]
            updates.append((victim, live.pop(victim), None))
            continue
        a, b = sorted((rng.randint(1, width), rng.randint(1, width)))
        if rng.random() < 0.5:
            updates.append(A(uid, a, b, 1, width))
        else:
            updates.append(A(uid, 1, width, a, b))
        live[uid] = updates[-1][2]
        uid += 1
    pos = [0]
    while pos[-1] < length:
        r = rng.random()
        step = 0 if r < 0.2 else rng.randint(1, 3) if r < 0.8 else rng.randint(10, 40)
        pos.append(min(length, pos[-1] + step))
    return initial, updates, pos


def test_sparse_queries_differential(rng):
    # the naive grid checks only the slices subtracted since the last query;
    # the slab structure and a full recount after every update must agree
    outcomes = set()
    for _ in range(60):
        n, width = rng.randint(3, 12), rng.randint(2, 12)
        initial, updates, pos = random_plan(rng, n, rng.randint(20, 150), width)
        got = [run_plan((width, width), n, initial, updates, pos, impl)[0]
               for impl in ("naive", "oy")]
        areas = area_after_each(TraceProblem(n, (width, width), _adds(initial) + updates))
        expected = next((q for q, k in enumerate(pos)
                         if areas[len(initial) + k - 1] < width * width), None)
        assert got == [expected, expected]
        outcomes.add(expected)
    assert len(outcomes) > 10  # the first hole turns up all along the traces


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_hole_between_queries_is_not_reported(impl):
    # the box loses its only cover and gets a new one between two queries
    initial = [(0, RankRect(1, 2, 1, 2))]
    updates = [D(0, 1, 2, 1, 2), A(1, 1, 1, 1, 2), A(2, 2, 2, 1, 2)]
    assert run_plan((2, 2), 3, initial, updates, [0, 3], impl) == (None, None)


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_uncovered_preload_covered_before_first_query(impl):
    # the preload leaves a hole that an add closes before the first query;
    # removing the preloaded rectangle then opens it again
    initial = [(0, RankRect(1, 1, 1, 1))]
    updates = [A(1, 2, 2, 1, 1), A(2, 1, 1, 1, 1), D(2, 1, 1, 1, 1), D(0, 1, 1, 1, 1)]
    failed, applied = run_plan((2, 1), 3, initial, updates, [2, 3, 4], impl)
    assert failed == 2 and set(live_after(initial, updates, applied)) == {1}


def test_count_type_boundary():
    # capacity 2**15 allows 2**16 live rectangles stacked on one cell; an
    # int16 count would wrap to 0 there and read as a hole
    stack = 2 ** 16
    ups = [A(i, 1, 1, 1, 1) for i in range(stack)] + [D(i, 1, 1, 1, 1) for i in range(stack)]
    tp = TraceProblem(2 ** 15, (1, 1), ups)
    assert area_after_each(tp, "naive") == [1] * (2 * stack - 1) + [0]
    assert first_uncover(tp, "naive") == 2 * stack


def test_trace_problem_infers_bound():
    ups = [A(0, 1, 1, 1, 1), A(1, 1, 1, 1, 1), D(0, 1, 1, 1, 1), A(2, 2, 2, 2, 2)]
    tp = trace_problem((3, 3), ups)
    assert tp.n == 2


# --- a move between two overlapping rectangles ------------------------------

SHAPES = ("identical", "grow", "shrink", "disjoint", "shift",
          "left", "right", "bottom", "top")


def _nested(rng, x0, x1, y0, y1):
    a = rng.randint(x0, x1)
    b = rng.randint(y0, y1)
    return RankRect(a, rng.randint(a, x1), b, rng.randint(b, y1))


def _reshape(rng, r, shape, width):
    """A rectangle in the width x width box related to r by ``shape``."""
    x0, x1, y0, y1 = r
    d = rng.randint(1, 3)
    if shape == "grow":       # r nested in the new rectangle
        return RankRect(rng.randint(max(1, x0 - d), x0), rng.randint(x1, min(width, x1 + d)),
                        rng.randint(max(1, y0 - d), y0), rng.randint(y1, min(width, y1 + d)))
    if shape == "shrink":     # the new rectangle nested in r
        return _nested(rng, x0, x1, y0, y1)
    if shape == "disjoint":   # one cell outside r, if r leaves one
        outside = [(x, y) for x in range(1, width + 1) for y in range(1, width + 1)
                   if not (x0 <= x <= x1 and y0 <= y <= y1)]
        if outside:
            x, y = rng.choice(outside)
            return RankRect(x, x, y, y)
        return r
    if shape == "shift":      # both axes move, so two sides change
        dx, dy = rng.randint(-d, d), rng.randint(-d, d)
        new = RankRect(max(1, x0 + dx), min(width, x1 + dx), max(1, y0 + dy), min(width, y1 + dy))
        return new if new.x_lo <= new.x_hi and new.y_lo <= new.y_hi else r
    if shape == "identical":
        return r
    # one side moves in or out by up to d cells; the rectangle stays non-empty
    side = ("left", "right", "bottom", "top").index(shape)
    lo, hi = (x0, x1) if side < 2 else (y0, y1)
    if side % 2 == 0:
        lo = rng.randint(max(1, lo - d), min(hi, lo + d))
    else:
        hi = rng.randint(max(lo, hi - d), min(width, hi + d))
    return RankRect(lo, hi, y0, y1) if side < 2 else RankRect(x0, x1, lo, hi)


def _pair_trace(rng, width, pairs, shapes, same_id):
    """Preloaded rectangles (the first one the whole box), then reshaped
    rectangles: with ``same_id`` one move each, and otherwise a delete and
    the add of the new rectangle under a fresh id."""
    live = {0: RankRect(1, width, 1, width)}
    for uid in range(1, rng.randint(1, 6)):
        live[uid] = _nested(rng, 1, width, 1, width)
    initial = list(live.items())
    updates, uid = [], len(live)
    for _ in range(pairs):
        key = rng.choice(sorted(live))
        old = live.pop(key)
        new = _reshape(rng, old, rng.choice(shapes), width)
        if same_id:
            updates.append((key, old, new))
        else:
            updates += [(key, old, None), (uid, None, new)]
            key, uid = uid, uid + 1
        live[key] = new
    return initial, updates


def _adds(initial):
    """A preloaded set as plain adds."""
    return [(uid, None, r) for uid, r in initial]


def _brute_areas(box, initial, updates):
    """Covered cells after each update, counted cell by cell."""
    live = dict(initial)
    areas = []
    for uid, _, r in updates:
        if r is None:
            del live[uid]
        else:
            live[uid] = r
        areas.append(sum(1 for x in range(1, box[0] + 1) for y in range(1, box[1] + 1)
                         if any(q.x_lo <= x <= q.x_hi and q.y_lo <= y <= q.y_hi
                                for q in live.values())))
    return areas


@pytest.mark.parametrize("same_id", [True, False])
@pytest.mark.parametrize("shape", SHAPES + ("mixed",))
def test_readd_pairs_differential(rng, shape, same_id):
    # the naive grid applies a move between overlapping rectangles as their
    # symmetric difference; every observed state must be the plain one
    shapes = SHAPES if shape == "mixed" else (shape,)
    step = 1 if same_id else 2  # updates per reshaped rectangle
    for _ in range(12):
        width = rng.randint(1, 8)
        box = (width, width)
        initial, updates = _pair_trace(rng, width, rng.randint(1, 20), shapes, same_id)
        n = len(initial) + 1
        expected = _brute_areas(box, initial, updates)
        full = _adds(initial) + updates
        for impl in ("naive", "oy"):
            # covered cells after every update, and after every reshaped
            # rectangle with nothing read in between
            assert area_after_each(TraceProblem(n, box, full), impl)[len(initial):] == expected
            after_pairs = [covered_cells(struct) for _, struct in
                           _execute(box, n, initial, updates,
                                    range(step, len(updates) + 1, step), impl)]
            assert after_pairs == expected[step - 1::step]
        # queries after reshaped rectangles, between a delete and its add, and repeated
        pos = sorted(rng.choices(range(len(updates) + 1), k=rng.randint(1, len(updates))))
        first = next((q for q, k in enumerate(pos)
                      if (expected[k - 1] if k else width * width) < width * width), None)
        for impl in ("naive", "oy"):
            assert run_plan(box, n, initial, updates, pos, impl)[0] == first


def test_naive_move_every_shape():
    # every ordered pair of rectangles in a 4 x 4 box, None included. The grid
    # after a move is the one with the old rectangle subtracted whole and the
    # new one added whole; the slices lowered are the old cells outside the new,
    # cut as _minus cuts them; and a query after one that found the box full
    # sees a hole exactly where a count fell to zero.
    spans = [(lo, hi) for lo in range(1, 5) for hi in range(lo, 5)]
    rects = [None] + [RankRect(*xs, *ys) for xs in spans for ys in spans]
    cells = {}
    for r in rects:
        cells[r] = np.zeros((4, 4), dtype=np.int16)
        if r is not None:
            cells[r][r.x_lo - 1:r.x_hi, r.y_lo - 1:r.y_hi] = 1
    for old in rects:
        for new in rects:
            grid = _NaiveGrid(4, 4, bound=2)
            grid.grid[:] = 1  # each cell covered once: by old inside it, by another outside
            assert not grid.has_hole()
            grid.move(old, new)
            want = 1 - cells[old] + cells[new]
            assert np.array_equal(grid.grid, want), (old, new)
            assert grid._removed == _minus(old, new), (old, new)
            assert grid.has_hole() == (not want.all()), (old, new)


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_hole_only_in_a_shrink_strip(impl):
    # the first query finds the box full; the first move then gives up the
    # top row, which nothing else covers, while the rest keeps its count
    initial = [(0, RankRect(1, 4, 1, 2)), (1, RankRect(1, 4, 1, 1))]
    updates = [M(0, (1, 4, 1, 2), (1, 4, 1, 1)), M(0, (1, 4, 1, 1), (1, 4, 1, 2))]
    failed, applied = run_plan((4, 2), 2, initial, updates, [0, 1, 2], impl)
    assert failed == 1 and live_after(initial, updates, applied) == {
        0: RankRect(1, 4, 1, 1), 1: RankRect(1, 4, 1, 1)}
    # a strip opened and closed again between two queries is no hole
    updates = [M(0, (1, 4, 1, 2), (1, 3, 1, 2)), M(1, (1, 4, 1, 1), (1, 4, 1, 1)),
               M(1, (1, 4, 1, 1), (4, 4, 1, 2))]
    assert run_plan((4, 2), 2, initial, updates, [0, 3], impl) == (None, None)


@pytest.mark.parametrize("make", [
    lambda: (unit_square(), _comb(50)),
    lambda: (unit_square(), _transposed_comb(50)),
    lambda: (U_SHAPE, _comb(50)),
    lambda: (lambda g: (g.pattern, g.target))(gen_foursum([0], [3], [1], [4])),
])
def test_seed_plans_agree_across_engines(make):
    prob = _Problem(*make())
    plan = build_sweep(prob.cs, start_below=prob.bbox_cap).drain()
    got = [run_plan(plan.box_cells, plan.live_bound, plan.initial, plan.updates,
                    plan.query_pos, impl) for impl in ("naive", "oy")]
    assert got[0][0] is not None and got[0] == got[1]
    live = live_after(plan.initial, plan.updates, got[0][1])
    # replayed as plain deletes and adds, one per rectangle change, it fails at
    # the same query with the same live set
    events, pos = split_moves(plan.updates, plan.query_pos)
    for impl in ("naive", "oy"):
        failed, applied = run_plan(plan.box_cells, plan.live_bound, plan.initial, events,
                                   pos, impl)
        assert failed == got[0][0] and live_after(plan.initial, events, applied) == live
