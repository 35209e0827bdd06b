import random

import pytest

from polyplace.dyncover import (MalformedTrace, TraceProblem, _execute, area_after_each,
                                first_uncover, run_plan, trace_problem)
from polyplace.forbidden import RankRect, build_sweep
from polyplace.hardness import gen_foursum
from polyplace.instances import comb_polygon, unit_square
from polyplace.solver import _Problem


def A(uid, x0, x1, y0, y1):
    return uid, RankRect(x0, x1, y0, y1)


def D(uid):
    return uid, None


def random_trace(rng, n, length, width):
    updates = []
    live = {}
    uid = 0
    for _ in range(length):
        if live and (len(live) >= n or rng.random() < 0.45):
            victim = rng.choice(sorted(live))
            del live[victim]
            updates.append(D(victim))
        else:
            x0 = rng.randint(1, width)
            y0 = rng.randint(1, width)
            r = RankRect(x0, rng.randint(x0, width), y0, rng.randint(y0, width))
            live[uid] = r
            updates.append((uid, r))
            uid += 1
    return TraceProblem(n=n, box=(width, width), updates=updates)


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_add_then_delete_full_box(impl):
    tp = TraceProblem(n=2, box=(3, 3), updates=[A(0, 1, 3, 1, 3), D(0)])
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
    probe = base + [A(9999, 2, 5, 3, 7), D(9999)]
    got = area_after_each(TraceProblem(tp.n, tp.box, probe), impl)
    assert got[-1] == got[29] == areas[29]


def test_differential_small(rng):
    for _ in range(25):
        n = rng.randint(4, 40)
        tp = random_trace(rng, n, rng.randint(5, 200), rng.randint(2, 40))
        assert area_after_each(tp, "naive") == area_after_each(tp, "oy")
        assert first_uncover(tp, "naive") == first_uncover(tp, "oy")


def test_oy_batch_boundaries(rng):
    # capacity far below the trace length forces many rebuilds
    tp = random_trace(rng, 7, 300, 25)
    assert area_after_each(tp, "oy") == area_after_each(tp, "naive")
    # a box much wider than the capacity, with rectangles spanning every
    # slab, rectangles whose x ends sit on a shared lattice (so on the slab
    # cuts), and one-column rectangles
    width, height = 400, 12
    updates, live = [], []
    for uid in range(300):
        if len(live) >= 7 or (live and rng.random() < 0.4):
            updates.append(D(live.pop(rng.randrange(len(live)))))
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
        live.append(uid)
    tp = TraceProblem(n=7, box=(width, height), updates=updates)
    assert area_after_each(tp, "oy") == area_after_each(tp, "naive")


def test_malformed_delete():
    # a second delete of an id, after a first that leaves the box covered
    twice = [A(0, 1, 3, 1, 3), A(1, 1, 3, 1, 3), D(1), D(1)]
    for ups in ([D(5)], [D(0)], twice):
        for impl in ("naive", "oy"):
            with pytest.raises(MalformedTrace, match="dead id"):
                first_uncover(TraceProblem(2, (3, 3), ups), impl)


def test_malformed_out_of_box():
    tp = TraceProblem(2, (3, 3), [A(0, 1, 4, 1, 2)])
    with pytest.raises(MalformedTrace):
        first_uncover(tp, "naive")


def test_malformed_overflow():
    # full-box adds keep coverage intact, so the live-set bound must trip
    ups = [A(i, 1, 3, 1, 3) for i in range(5)]
    tp = TraceProblem(1, (3, 3), ups)
    with pytest.raises(MalformedTrace):
        first_uncover(tp, "naive")


def test_run_plan_queries(rng):
    tp = random_trace(rng, 10, 40, 6)
    full = 36
    areas = area_after_each(tp, "naive")
    positions = list(range(len(tp.updates) + 1))
    failed, live = run_plan(tp.box, tp.n, [], tp.updates, positions, "naive")
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
    live = [uid for uid, _ in initial]
    updates = []
    uid = len(initial)
    for _ in range(length):
        if live and (len(live) >= n or rng.random() < 0.5):
            updates.append(D(live.pop(rng.randrange(len(live)))))
            continue
        a, b = sorted((rng.randint(1, width), rng.randint(1, width)))
        if rng.random() < 0.5:
            updates.append(A(uid, a, b, 1, width))
        else:
            updates.append(A(uid, 1, width, a, b))
        live.append(uid)
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
        areas = area_after_each(TraceProblem(n, (width, width), initial + updates))
        expected = next((q for q, k in enumerate(pos)
                         if areas[len(initial) + k - 1] < width * width), None)
        assert got == [expected, expected]
        outcomes.add(expected)
    assert len(outcomes) > 10  # the first hole turns up all along the traces


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_hole_between_queries_is_not_reported(impl):
    # the box loses its only cover and gets a new one between two queries
    initial = [(0, RankRect(1, 2, 1, 2))]
    updates = [D(0), A(1, 1, 1, 1, 2), A(2, 2, 2, 1, 2)]
    assert run_plan((2, 2), 3, initial, updates, [0, 3], impl) == (None, None)


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_uncovered_preload_covered_before_first_query(impl):
    # the preload leaves a hole that an add closes before the first query;
    # removing the preloaded rectangle then opens it again
    initial = [(0, RankRect(1, 1, 1, 1))]
    updates = [A(1, 2, 2, 1, 1), A(2, 1, 1, 1, 1), D(2), D(0)]
    failed, live = run_plan((2, 1), 3, initial, updates, [2, 3, 4], impl)
    assert failed == 2 and set(live) == {1}


def test_count_type_boundary():
    # capacity 2**15 allows 2**16 live rectangles stacked on one cell; an
    # int16 count would wrap to 0 there and read as a hole
    stack = 2 ** 16
    ups = [A(i, 1, 1, 1, 1) for i in range(stack)] + [D(i) for i in range(stack)]
    tp = TraceProblem(2 ** 15, (1, 1), ups)
    assert area_after_each(tp, "naive") == [1] * (2 * stack - 1) + [0]
    assert first_uncover(tp, "naive") == 2 * stack


def test_malformed_preload_overflow():
    initial = [(i, RankRect(1, 3, 1, 3)) for i in range(3)]
    for impl in ("naive", "oy"):
        with pytest.raises(MalformedTrace):
            run_plan((3, 3), 1, initial, [], [0], impl)


def test_trace_problem_infers_bound():
    ups = [A(0, 1, 1, 1, 1), A(1, 1, 1, 1, 1), D(0), A(2, 2, 2, 2, 2)]
    tp = trace_problem((3, 3), ups)
    assert tp.n == 2


# --- a delete followed by the re-add of an overlapping rectangle -----------

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
    """Preloaded rectangles (the first one the whole box), then delete/re-add
    pairs of reshaped rectangles; with ``same_id`` false the re-add takes a
    fresh id."""
    live = {0: RankRect(1, width, 1, width)}
    for uid in range(1, rng.randint(1, 6)):
        live[uid] = _nested(rng, 1, width, 1, width)
    initial = list(live.items())
    updates, uid = [], len(live)
    for _ in range(pairs):
        old = rng.choice(sorted(live))
        new = _reshape(rng, live.pop(old), rng.choice(shapes), width)
        updates.append(D(old))
        if not same_id:
            old, uid = uid, uid + 1
        updates.append((old, new))
        live[old] = new
    return initial, updates


def _brute_areas(box, initial, updates):
    """Covered cells after each update, counted cell by cell."""
    live = dict(initial)
    areas = []
    for uid, r in updates:
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
    # the naive grid applies a delete and an overlapping re-add as their
    # symmetric difference; every observed state must be the plain one
    shapes = SHAPES if shape == "mixed" else (shape,)
    for _ in range(12):
        width = rng.randint(1, 8)
        box = (width, width)
        initial, updates = _pair_trace(rng, width, rng.randint(1, 20), shapes, same_id)
        n = len(initial) + 1
        expected = _brute_areas(box, initial, updates)
        full = list(initial) + updates  # the preload as plain adds
        for impl in ("naive", "oy"):
            # covered cells after every update, and (with nothing read between
            # a delete and its re-add) after every re-add
            assert area_after_each(TraceProblem(n, box, full), impl)[len(initial):] == expected
            after_pairs = [struct.covered_cells for k, struct, _ in
                           _execute(box, n, initial, updates, impl) if k % 2 == 0 and k]
            assert after_pairs == expected[1::2]
        # queries after re-adds, between a delete and its re-add, and repeated
        pos = sorted(rng.choices(range(len(updates) + 1), k=rng.randint(1, len(updates))))
        first = next((q for q, k in enumerate(pos)
                      if (expected[k - 1] if k else width * width) < width * width), None)
        for impl in ("naive", "oy"):
            assert run_plan(box, n, initial, updates, pos, impl)[0] == first


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_hole_only_in_a_shrink_strip(impl):
    # the first query finds the box full; the re-add then gives up the top
    # row, which nothing else covers, while the rest keeps its count
    initial = [(0, RankRect(1, 4, 1, 2)), (1, RankRect(1, 4, 1, 1))]
    updates = [D(0), A(0, 1, 4, 1, 1), D(0), A(0, 1, 4, 1, 2)]
    assert run_plan((4, 2), 2, initial, updates, [0, 2, 4], impl) == (
        1, {0: RankRect(1, 4, 1, 1), 1: RankRect(1, 4, 1, 1)})
    # a strip opened and closed again between two queries is no hole
    updates = [D(0), A(0, 1, 3, 1, 2), D(1), A(1, 1, 4, 1, 1), D(1), A(1, 4, 4, 1, 2)]
    assert run_plan((4, 2), 2, initial, updates, [0, 6], impl) == (None, None)


@pytest.mark.parametrize("make", [
    lambda: (unit_square(), comb_polygon(50, random.Random(50))),
    lambda: (lambda g: (g.pattern, g.target))(gen_foursum([0], [3], [1], [4])),
])
def test_seed_plans_agree_across_engines(make):
    prob = _Problem(*make())
    plan = build_sweep(prob.cs, start_below=prob.bbox_cap)
    got = [run_plan(plan.box_cells, plan.live_bound, plan.initial, plan.updates,
                    plan.query_pos, impl) for impl in ("naive", "oy")]
    assert got[0][0] is not None and got[0] == got[1]
