import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyplace.solver
from conftest import U_SHAPE, _comb, _transposed_comb, split_moves, sweep
from oracles import check_moves, covers_box, rank_snapshot, walk_reference
from polyplace import dyncover
from polyplace.forbidden import Descent, build_sweep, critical_values
from polyplace.geometry import Placement, Point, kernel, transform, validate_polygon
from polyplace.hardness import gen_average, gen_foursum
from polyplace.instances import comb_polygon, random_instance_pair, unit_square
from polyplace.solver import (PlacementResult, SolveStats, _max_scale_and_plan, _Problem,
                              _x_events, _ZeroCount, contains_fixed, find_hole, max_scale,
                              max_scale_baseline, max_scale_x, verify_containment)


def F(n, d=1):
    return Fraction(n, d)


def P(x, y):
    return Point(Fraction(x), Fraction(y))


SQ = unit_square()
WIDE = validate_polygon([(0, 0), (3, 0), (3, 2), (0, 2)])
ARM = validate_polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)])


def test_verify_examples():
    assert verify_containment(SQ, SQ, F(1), P(0, 0))
    assert not verify_containment(SQ, SQ, F(1), P("1/2", 0))
    band = validate_polygon([("-3/2", -1), ("3/2", -1), ("3/2", 1), ("-3/2", 1)])
    assert verify_containment(SQ, band, F(2), P("1/2", 0))


def test_verify_rejects_floats():
    with pytest.raises(TypeError):
        verify_containment(SQ, SQ, 1.0, P(0, 0))
    with pytest.raises(TypeError):
        verify_containment(SQ, SQ, F(1), Point(0.0, F(0)))


def test_contains_fixed_examples():
    assert contains_fixed(SQ, SQ) == P(0, 0)
    two = validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert contains_fixed(two, SQ) is None
    tau = contains_fixed(SQ, WIDE)
    assert tau is not None and verify_containment(SQ, WIDE, F(1), tau)


def test_max_scale_rectangle():
    res = max_scale(SQ, WIDE)
    assert res.feasible and res.lambda_star == 2
    assert verify_containment(SQ, WIDE, res.lambda_star, res.witness)


def test_max_scale_arm_width():
    res = max_scale(SQ, ARM)
    assert res.lambda_star == 1
    assert verify_containment(SQ, ARM, res.lambda_star, res.witness)


# the star-shaped patterns that max_scale bisects are checked on the sweep too
SOLVERS = (max_scale, sweep)


def test_max_scale_structured_shapes():
    spiral = validate_polygon([(0, 0), (10, 0), (10, 10), (2, 10), (2, 4),
                               (4, 4), (4, 8), (8, 8), (8, 2), (0, 2)])
    h = validate_polygon([(0, 0), (3, 0), (3, 4), (7, 4), (7, 0), (10, 0),
                          (10, 10), (7, 10), (7, 6), (3, 6), (3, 10), (0, 10)])
    wide = validate_polygon([(0, 0), (8, 0), (8, 1), (0, 1)])
    slim = validate_polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
    mirror = validate_polygon([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)])
    lshape = validate_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    for solve in SOLVERS:
        res = solve(SQ, spiral)
        assert res.lambda_star == max_scale_baseline(SQ, spiral).lambda_star == 2
        assert solve(SQ, h).lambda_star == 3  # room width, corridor too thin
        assert solve(wide, slim).lambda_star == F(1, 2)
        res = solve(lshape, mirror)
        assert res.lambda_star == max_scale_baseline(lshape, mirror).lambda_star
        assert verify_containment(lshape, mirror, res.lambda_star, res.witness)


def test_max_scale_impls_agree(rng):
    pairs = [random_instance_pair(rng, 16, 16, 30) for _ in range(8)]
    # deep sweeps with many slab updates: the answer at the comb's last critical,
    # and a gadget with multi-way ties
    gadget = gen_foursum([0], [3], [1], [4])
    pairs += [(SQ, comb_polygon(50, random.Random(50))), (gadget.pattern, gadget.target)]
    for pat, tgt in pairs:
        a = sweep(pat, tgt, "oy")
        b = sweep(pat, tgt, "naive")
        assert ((a.status, a.lambda_star, a.stats.queries)
                == (b.status, b.lambda_star, b.stats.queries))


def test_deep_2d_sweeps_agree_across_engines_and_the_baseline():
    # p' >= 4 and at least 50 queries, found by a seeded search
    pairs = [random_instance_pair(random.Random(s), 24, 60, 80)
             for s in (6, 9, 16, 91, 93, 112, 228, 250)]
    assert all(len(_Problem(pat, tgt).pcov.rects) >= 4 for pat, tgt in pairs)
    # and the transposed combs, which sweep nearly all their criticals, and a
    # U in the comb, answered at query 444 of 446
    pairs += [(SQ, _transposed_comb(q)) for q in (50, 100)] + [(U_SHAPE, _comb(50))]
    for pat, tgt in pairs:
        base = max_scale_baseline(pat, tgt)
        assert base.stats.queries >= 50
        for impl in ("naive", "oy"):
            fast = sweep(pat, tgt, impl)
            assert (fast.status, fast.lambda_star, fast.witness) == \
                (base.status, base.lambda_star, base.witness)
            assert ((fast.stats.criticals, fast.stats.skipped, fast.stats.queries)
                    == (base.stats.criticals, base.stats.skipped, base.stats.queries))
        assert verify_containment(pat, tgt, base.lambda_star, base.witness)


def test_oracle_equivalence_small(rng):
    for _ in range(30):
        pat, tgt = random_instance_pair(rng, 20, 20, 50)
        fast = sweep(pat, tgt)
        base = max_scale_baseline(pat, tgt)
        assert fast.status == base.status == "feasible"
        assert fast.lambda_star == base.lambda_star
        assert verify_containment(pat, tgt, fast.lambda_star, fast.witness)
        assert verify_containment(pat, tgt, base.lambda_star, base.witness)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_and_baseline_give_the_same_witness(seed):
    pat, tgt = random_instance_pair(random.Random(seed), 12, 12, 20)
    fast = sweep(pat, tgt)
    base = max_scale_baseline(pat, tgt)
    assert (fast.status, fast.lambda_star, fast.witness) == \
        (base.status, base.lambda_star, base.witness)
    if fast.feasible:
        assert verify_containment(pat, tgt, fast.lambda_star, fast.witness)


def _answer(res):
    return res.status, res.lambda_star, res.witness, res.lambda_sup


def test_bisection_matches_the_sweep_on_combs():
    # the unit square in the comb and the transposed comb answers at the last
    # critical; U is not star-shaped, so it sweeps, stats and all
    for pat, tgt in [(SQ, comb(q)) for comb in (_comb, _transposed_comb)
                     for q in (50, 100, 200, 400)]:
        got, want = max_scale(pat, tgt), sweep(pat, tgt)
        assert _answer(got) == _answer(want)
        assert (got.stats.criticals, got.stats.skipped) == \
            (want.stats.criticals, want.stats.skipped)
        assert got.stats.updates == 0 and want.stats.updates > 0
        assert 2 ** (got.stats.queries - 1) <= got.stats.criticals - got.stats.skipped
    assert kernel(U_SHAPE) is None
    got, want = max_scale(U_SHAPE, _comb(50)), sweep(U_SHAPE, _comb(50))
    assert (_answer(got), got.stats) == (_answer(want), want.stats)


def test_star_feasibility_is_monotone():
    # with a kernel point, the static test finds a hole at every critical at
    # most lambda* and at none above it up to the bbox-fit cap; the deep
    # tests' distribution answers most pairs past their first critical
    rng = random.Random(20261022)
    star = deep = 0
    while star < 30:
        pat, tgt = random_instance_pair(rng, 24, 60, 80)
        if kernel(pat) is None:
            continue
        star += 1
        prob = _Problem(pat, tgt)
        lam_star = max_scale(pat, tgt).lambda_star
        crits = [c for c in critical_values(prob.cs) if c <= prob.bbox_cap]
        k = crits.index(lam_star)
        assert all(find_hole(prob, lam) is None for lam in crits[:k])
        assert all(find_hole(prob, lam) is not None for lam in crits[k:])
        deep += k > 0
    assert deep >= 20


def test_bisection_reports_no_hole_as_the_baseline_does(monkeypatch):
    # with a static test that never finds a hole, the bisection ends
    # infeasible at the smallest critical, as the baseline does, and a
    # witness that fails the pairwise check raises
    monkeypatch.setattr(polyplace.solver, "find_hole", lambda prob, lam: None)
    got, want = max_scale(SQ, ARM), max_scale_baseline(SQ, ARM)
    assert (got.status, got.lambda_sup, got.stats.criticals, got.stats.skipped) == \
        ("infeasible", want.lambda_sup, want.stats.criticals, want.stats.skipped)
    assert 1 <= got.stats.queries < want.stats.queries
    monkeypatch.setattr(polyplace.solver, "find_hole", lambda prob, lam: P(100, 100))
    with pytest.raises(RuntimeError, match="witness fails verification"):
        max_scale(SQ, ARM)


def test_gadget_patterns_have_no_kernel():
    # the hardness gadgets are not star-shaped, so max_scale sweeps them
    rng = random.Random(7)
    for _ in range(5):
        assert kernel(gen_foursum(*(rng.sample(range(-6, 7), 3) for _ in range(4))).pattern) is None
        assert kernel(_average_gadget(rng, 0).pattern) is None


def test_feasibility_persists_below(rng):
    for _ in range(6):
        pat, tgt = random_instance_pair(rng, 14, 14, 25)
        prob = _Problem(pat, tgt)
        for solve in SOLVERS:
            half = solve(pat, tgt).lambda_star / 2
            tau = find_hole(prob, half)
            assert tau is not None
            assert verify_containment(pat, tgt, half, tau)


def test_maximality(rng):
    for _ in range(8):
        pat, tgt = random_instance_pair(rng, 14, 14, 25)
        prob = _Problem(pat, tgt)
        crits = critical_values(prob.cs)
        for solve in SOLVERS:
            res = solve(pat, tgt)
            above = [c for c in crits if c > res.lambda_star]
            for lam in above:
                if lam <= prob.bbox_cap:
                    assert find_hole(prob, lam) is None
            # the midpoint of the region just above the answer is infeasible too
            if above:
                mid = (res.lambda_star + min(above)) / 2
                if mid <= prob.bbox_cap:
                    assert find_hole(prob, mid) is None


def _first_hole_by_enumeration(prob, lam):
    """The witness find_hole defines, by brute force over the item grid.

    Each axis lists B(lam)'s low side, then each gap midpoint and split value
    in turn, the split values being B's sides and the sides of the nonempty
    forbidden rectangles strictly inside B. The first (x, y) in that
    lexicographic order inside no open forbidden rectangle is the witness.
    """
    if lam > prob.bbox_cap:
        return None
    box = prob.fit_box(lam)
    rects = [(q.x0 - lam * p.x1, q.x1 - lam * p.x0, q.y0 - lam * p.y1, q.y1 - lam * p.y0)
             for p in prob.pcov.rects for q in prob.qcov.rects]
    rects = [r for r in rects if r[0] < r[1] and r[2] < r[3]]

    def items(lo, hi, sides):
        vals = sorted({lo, hi} | {v for v in sides if lo < v < hi})
        out = vals[:1]
        for a, b in zip(vals, vals[1:]):
            out += [(a + b) / 2, b]
        return out

    ys = items(box.y0, box.y1, [v for r in rects for v in r[2:]])
    for x in items(box.x0, box.x1, [v for r in rects for v in r[:2]]):
        column = [r for r in rects if r[0] < x < r[1]]
        for y in ys:
            if not any(y0 < y < y1 for _, _, y0, y1 in column):
                return Point(x, y)
    return None


def test_find_hole_returns_the_first_uncovered_item():
    rng = random.Random(20261019)
    pairs = [random_instance_pair(rng, 20, 20, 50) for _ in range(32)]
    pairs += [random_instance_pair(rng, 24, 60, 80) for _ in range(4)]
    # B(bbox_cap) is a point when both bounding boxes have one aspect ratio
    pairs += [(pat, transform(pat, Placement(F(k), P(0, 0)))) for k, (pat, _) in
              zip((2, 3, F(5, 2)), pairs)]
    pairs.append((SQ, ARM))
    seen = set()
    for pat, tgt in pairs:
        prob = _Problem(pat, tgt)
        crits = critical_values(prob.cs)
        mids = [(a + b) / 2 for a, b in zip(crits, crits[1:])]
        for lam in crits + mids + [prob.bbox_cap]:
            tau = find_hole(prob, lam)
            assert tau == _first_hole_by_enumeration(prob, lam), (pat, tgt, lam)
            if lam == prob.bbox_cap:
                box = prob.fit_box(lam)
                flat = (box.x0 == box.x1) + (box.y0 == box.y1)
                seen.add(("segment", "point")[flat - 1] + ("", " hole")[tau is not None])
    assert seen == {"segment", "segment hole", "point", "point hole"}
    # foursum gadgets: 28-bit axis scales and criticals where up to 31 meets
    # tie; a stride of the criticals, the cap and the baseline's answer
    for sets in (([0, 3], [1, 4], [-2, 5], [2, -1]), ([0, 1], [2, 3], [1, 2], [-1, 0])):
        inst = gen_foursum(*sets)
        prob = _Problem(inst.pattern, inst.target)
        assert prob.cs.scale.bit_length() >= 28
        crits = critical_values(prob.cs)
        lam_star = max_scale_baseline(inst.pattern, inst.target).lambda_star
        above = crits[crits.index(lam_star) - 1]
        for lam in crits[::40] + [prob.bbox_cap, above, lam_star]:
            tau = find_hole(prob, lam)
            assert tau == _first_hole_by_enumeration(prob, lam), (sets, lam)


def test_transformation_invariance(rng):
    for _ in range(5):
        pat, tgt = random_instance_pair(rng, 14, 14, 20)
        moved_p = pat.translated(P(13, -7))
        moved_q = tgt.translated(P(-4, 9))
        scaled_q = transform(tgt, Placement(F(3), P(0, 0)))
        scaled_p = transform(pat, Placement(F(3), P(0, 0)))
        for solve in SOLVERS:
            lam = solve(pat, tgt).lambda_star
            assert solve(moved_p, moved_q).lambda_star == lam
            assert solve(pat, scaled_q).lambda_star == 3 * lam
            assert solve(scaled_p, tgt).lambda_star == lam / 3


def test_monotone_in_target(rng):
    # appending a rectangle to the target never shrinks the best scale
    tgt = validate_polygon([(0, 0), (4, 0), (4, 2), (0, 2)])
    bigger = validate_polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 3), (0, 3)])
    assert max_scale(SQ, bigger).lambda_star >= max_scale(SQ, tgt).lambda_star


def test_max_scale_x_examples():
    assert max_scale_x(SQ, WIDE).lambda_star == 2
    strip = validate_polygon([(0, 1), (4, 1), (4, 2), (0, 2)])
    assert max_scale_x(SQ, strip).lambda_star == 1
    res = max_scale_x(SQ, WIDE)
    assert verify_containment(SQ, WIDE, res.lambda_star, res.witness)


def _max_scale_x_reference(pattern, target):
    """The x-only solver as a per-candidate loop over Fraction scales.

    The translation box is B(lam) = [qb.x0 - lam * pb.x0, qb.x1 - lam * pb.x1]
    x [qb.y0 - lam * pb.y0, qb.y1 - lam * pb.y1], and the vertical translation
    is its bottom, which aligns the bounding-box bottoms. Candidates are the
    positive scales where two x side functions meet (of the forbidden
    rectangles and of B), those where a pair's activity changes (the placed
    pattern rect meets the complement rect's open y extent), and the one
    where B's bottom and top meet. Each candidate at most the bbox cap,
    largest first, is tested for a point of B's x extent that no active
    pair's open x interval covers.
    """
    prob = _Problem(pattern, target)
    pb, qb = prob.pat_box, prob.box
    pairs = [(p, q) for p in prob.pcov.rects for q in prob.qcov.rects]
    forms = {(-pb.x0, qb.x0), (-pb.x1, qb.x1)}
    for p, q in pairs:
        forms |= {(-p.x1, q.x0), (-p.x0, q.x1)}
    meets = [(d - b, a - c) for (a, b), (c, d) in combinations(forms, 2)]
    meets.append((qb.y1 - qb.y0, pb.y1 - pb.y0))
    for p, q in pairs:
        meets += [(q.y1 - qb.y0, p.y0 - pb.y0), (q.y0 - qb.y0, p.y1 - pb.y0)]
    crits = sorted({num / den for num, den in meets if den != 0 and num / den > 0},
                   reverse=True)
    stats = SolveStats(criticals=len(crits))
    for lam in crits:
        if lam > prob.bbox_cap:
            stats.skipped += 1
            continue
        stats.queries += 1
        dy = qb.y0 - lam * pb.y0
        x = qb.x0 - lam * pb.x0  # the smallest point of B's x extent no active pair covers
        for lo, hi in sorted((q.x0 - lam * p.x1, q.x1 - lam * p.x0) for p, q in pairs
                             if max(lam * p.y0 + dy, q.y0) < min(lam * p.y1 + dy, q.y1)):
            if lo >= x:
                break
            x = max(x, hi)
        if x <= qb.x1 - lam * pb.x1:
            return PlacementResult("feasible", lam, Point(x, dy), stats)
    return PlacementResult("infeasible", stats=stats,
                           lambda_sup=crits[-1] if crits else None)


def _average_gadget(rng, k):
    """Criterion 2a's gadget: n = 3..8 values in [-n**3, n**3], a progression planted for even k."""
    n = rng.randint(3, 8)
    u = n ** 3
    if k % 2:
        return gen_average(rng.sample(range(-u, u + 1), n))
    d = rng.randint(1, u // 3)
    a = rng.randint(-u, u - 2 * d)
    chosen = {a, a + d, a + 2 * d}
    while len(chosen) < n:
        chosen.add(rng.randint(-u, u))
    return gen_average(sorted(chosen))


def test_sweep_and_baseline_agree_on_foursum_gadgets():
    # multi-way ties, criticals above the bbox-fit cap and >= 30-bit axis scales
    rng = random.Random(2024)
    for _ in range(6):
        inst = gen_foursum(*(rng.sample(range(-6, 7), 3) for _ in range(4)))
        fast = max_scale(inst.pattern, inst.target)
        base = max_scale_baseline(inst.pattern, inst.target)
        assert fast.feasible
        assert (fast.lambda_star, fast.witness) == (base.lambda_star, base.witness)
        assert ((fast.stats.criticals, fast.stats.skipped, fast.stats.queries)
                == (base.stats.criticals, base.stats.skipped, base.stats.queries))
        assert fast.stats.skipped > 0
        assert _Problem(inst.pattern, inst.target).cs.scale.bit_length() >= 30
        assert verify_containment(inst.pattern, inst.target, fast.lambda_star, fast.witness)


def test_closed_snapshot_matches_find_hole_on_ties():
    # criterion 3 on multi-way ties and weight-2 nodes: the closed rank
    # snapshot covers the rank box exactly when B(lam) has no free point,
    # at criticals (tied nodes sharing their group's ranks) and at region
    # midpoints, around the answer and spread over the capped walk
    rng = random.Random(24)
    # criterion 1's 22nd pair: just below its answer 8/5, each free translation
    # sits where a forbidden interval ends and another starts
    contact = (validate_polygon([(0, -10), (7, -10), (7, -4), (10, -4), (10, -1), (2, -1),
                                 (2, -4), (0, -4)]),
               validate_polygon([(-38, -27), (-32, -27), (-32, -35), (-24, -35), (-24, -8),
                                 (47, -8), (47, 2), (-32, 2), (-32, -8), (-38, -8)]))
    problems = [_Problem(*contact), _Problem(SQ, _transposed_comb(50))]
    for _ in range(4):
        inst = gen_foursum(*(rng.sample(range(-5, 6), rng.randint(2, 4)) for _ in range(4)))
        problems.append(_Problem(inst.pattern, inst.target))
    outcomes, doubled = set(), 0
    for prob in problems:
        cs = prob.cs
        doubled += (cs.xaxis.weights + cs.yaxis.weights).count(2)
        crits = [c for c in critical_values(cs) if c <= prob.bbox_cap]
        picks = set(range(0, len(crits), max(1, len(crits) // 12)))
        for i, c in enumerate(crits):
            if find_hole(prob, c) is not None:
                picks.update(range(max(0, i - 3), min(len(crits), i + 4)))
                break
        for i in sorted(picks):
            below = crits[i + 1] if i + 1 < len(crits) else crits[i] / 2
            for lam in (crits[i], (crits[i] + below) / 2):
                closed = covers_box(list(rank_snapshot(cs, lam).values()), cs.rank_box)
                assert closed == (find_hole(prob, lam) is None), lam
                outcomes.add(closed)
    assert outcomes == {True, False} and doubled > 0


def _foursum_gadgets(rng, count):
    """``count`` gadgets on four 4-element sets from [-6, 6], drawn like the
    benchmark's gadget-ties sets but with no planted solution."""
    for _ in range(count):
        inst = gen_foursum(*(rng.sample(range(-6, 7), 4) for _ in range(4)))
        yield inst.pattern, inst.target


def _solve_recording_below(monkeypatch, pattern, target, impl, drained):
    """max_scale, its plan, and the updates applied just below each critical
    the plan took. With ``drained``, the whole plan is built first and run
    without streaming."""
    below = []

    def recording_sweep(cs, start_below=None):
        plan = build_sweep(cs, start_below)
        extend = plan.extend

        def recording() -> bool:
            if not extend():
                return False
            below.append(len(plan.updates))
            return True

        plan.extend = recording
        while drained and plan.extend():
            pass
        return plan

    real_run_plan = dyncover.run_plan
    with monkeypatch.context() as m:
        m.setattr(polyplace.solver, "build_sweep", recording_sweep)
        if drained:
            m.setattr(dyncover, "run_plan", lambda *args, more=None: real_run_plan(*args))
        return (*_max_scale_and_plan(pattern, target, impl), below)


def test_streamed_plan_matches_the_drained_plan(monkeypatch):
    rng = random.Random(987123)  # criterion 1's distribution
    cases = [random_instance_pair(rng, max_p=20, max_q=20, span=50) for _ in range(60)]
    cases += _foursum_gadgets(random.Random(0), 4)
    cases.append((unit_square(), comb_polygon(50, random.Random(50))))
    batches = 0
    for pattern, target in cases:
        for impl in ("naive", "oy"):
            got, plan, below = _solve_recording_below(monkeypatch, pattern, target, impl,
                                                      drained=False)
            want, whole, whole_below = _solve_recording_below(monkeypatch, pattern, target,
                                                              impl, drained=True)
            assert (got.status, got.lambda_star, got.witness, got.lambda_sup, got.stats) == \
                (want.status, want.lambda_star, want.witness, want.lambda_sup, want.stats)
            assert plan.initial == whole.initial
            assert (plan.total, plan.skipped_above) == (whole.total, whole.skipped_above)
            for name in ("criticals", "updates", "query_pos"):
                part, full = getattr(plan, name), getattr(whole, name)
                assert part == full[:len(part)], name
            assert below == whole_below[:len(below)]
            if impl == "oy":
                changes = len(split_moves(plan.updates[:got.stats.updates])[0])
                batches = max(batches, changes // plan.live_bound)
    assert batches > 3  # some solve streams over 3n rectangle changes, many pulls deep


def test_plans_pass_the_per_move_checks():
    # the engines trust the solver's plans, so each must pass the per-move
    # checks, with the bbox-fit cap and without it
    rng = random.Random(987123)  # criterion 1's distribution
    cases = [random_instance_pair(rng, max_p=20, max_q=20, span=50) for _ in range(60)]
    cases += _foursum_gadgets(random.Random(0), 4)
    cases.append((unit_square(), comb_polygon(50, random.Random(50))))
    for pattern, target in cases:
        prob = _Problem(pattern, target)
        for cap in (prob.bbox_cap, None):
            plan = build_sweep(prob.cs, start_below=cap).drain()
            check_moves(plan.box_cells, plan.live_bound, plan.initial, plan.updates)
    # the checks see a wrong ``old`` in a copy of the last plan
    k = next(i for i, (_, old, _) in enumerate(plan.updates) if old is not None)
    key, old, new = plan.updates[k]
    wrong = list(plan.updates)
    wrong[k] = key, old._replace(y_lo=old.y_lo + 1), new
    with pytest.raises(dyncover.MalformedTrace, match="but holds"):
        check_moves(plan.box_cells, plan.live_bound, plan.initial, wrong)


@pytest.mark.parametrize("impl", ["naive", "oy"])
def test_max_scale_builds_only_the_plan_it_runs(impl):
    # a gadget is answered about a fifth of the way down its sweep, so the
    # engine must stop the plan there, not run it from a finished one
    pattern, target = next(_foursum_gadgets(random.Random(0), 1))
    res, plan = _max_scale_and_plan(pattern, target, impl)
    prob = _Problem(pattern, target)
    whole = build_sweep(prob.cs, start_below=prob.bbox_cap).drain()
    assert res.feasible and res.stats.updates == plan.query_pos[res.stats.queries - 1]
    assert 2 * len(plan.updates) < len(whole.updates)
    assert 2 * len(plan.criticals) < len(whole.criticals)


def test_max_scale_frees_its_plan_without_the_cycle_collector():
    # a plan the solve streamed must not outlive it waiting for a full
    # collection, or the next solve runs on top of it
    pattern, target = next(_foursum_gadgets(random.Random(0), 1))
    gc.disable()
    try:
        _, plan = _max_scale_and_plan(pattern, target, "naive")
        gone = weakref.ref(plan)
        del plan
        assert gone() is None
    finally:
        gc.enable()


def test_x_only_walk_matches_the_fraction_reference():
    # max_scale_x reads the closes and opens of a critical from its extra
    # events, so their order at each critical is checked along with the
    # scale and the met nodes, with and without the bbox-fit cap
    rng = random.Random(987123)
    problems = [_Problem(*random_instance_pair(rng, max_p=20, max_q=20, span=50))
                for _ in range(40)]
    problems += [_Problem(inst.pattern, inst.target)
                 for inst in (_average_gadget(rng, k) for k in range(6))]
    problems += [_Problem(SQ, comb(50)) for comb in (_comb, _transposed_comb)]
    shared = two_extras = 0
    for prob in problems:
        cs = prob.cs
        extra = _x_events(cs)[1]
        want = walk_reference((cs.xaxis,), extra)
        shared += sum(1 for _, _, (met,), extras in want if met and extras)
        two_extras += sum(1 for *_, extras in want if len(extras) > 1)
        for cap in (None, prob.bbox_cap):
            walk = Descent(cs, (cs.xaxis,), cap, extra)
            kept = [c for c in want if cap is None or F(c[0], c[1]) <= cap]
            assert list(walk) == kept
            assert (walk.total, walk.skipped) == (len(want), len(want) - len(kept))
    # an extra shares its key with a meet, and two extras share a key
    assert shared and two_extras


def test_x_only_walk_holds_one_int_per_event():
    # the walk's events of the unit square in the q = 400 comb, about 20,000,
    # packed one int each; as (key, axis, i, j) tuples they peaked at 2.8 MB
    prob = _Problem(SQ, comb_polygon(400, random.Random(400)))
    extra = _x_events(prob.cs)[1]
    tracemalloc.start()
    try:
        Descent(prob.cs, (prob.cs.xaxis,), prob.bbox_cap, extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_max_scale_x_matches_reference():
    rng = random.Random(4242)
    pairs = [random_instance_pair(rng, 12, 12, 20) for _ in range(60)]
    for _ in range(10):
        n = rng.randint(3, 5)
        inst = gen_average(rng.sample(range(-n ** 3, n ** 3 + 1), n))
        pairs.append((inst.pattern, inst.target))
    pairs += [(SQ, comb(q)) for comb in (_comb, _transposed_comb) for q in (50, 100)]
    for k in range(10):
        inst = _average_gadget(rng, k)
        pairs.append((inst.pattern, inst.target))
    deep = len(pairs)  # then deep sweeps, found by a seeded search
    pairs += [random_instance_pair(random.Random(s), 24, 60, 80)
              for s in (37, 62, 93, 112, 228, 241, 390)]
    for k, (pat, tgt) in enumerate(pairs):
        got, want = max_scale_x(pat, tgt), _max_scale_x_reference(pat, tgt)
        assert (got.status, got.lambda_star, got.witness, got.lambda_sup, got.stats) == \
            (want.status, want.lambda_star, want.witness, want.lambda_sup, want.stats)
        if k >= deep:  # p' >= 4, answered at or past half of the kept criticals
            assert len(_Problem(pat, tgt).pcov.rects) >= 4
            assert 2 * got.stats.queries >= got.stats.criticals - got.stats.skipped >= 50


def test_max_scale_x_raises_on_an_empty_walk(monkeypatch):
    class EmptyDescent(polyplace.solver.Descent):
        def __iter__(self):
            return iter(())

    monkeypatch.setattr(polyplace.solver, "Descent", EmptyDescent)
    with pytest.raises(RuntimeError, match="internal inconsistency"):
        max_scale_x(SQ, WIDE)


def test_zero_count_follows_moves_and_bands():
    # seeded random moves of pair intervals and of the bands L = [1, a] and
    # R = [b, size], each step checked against a recount
    rng, size, seen = random.Random(2026), 30, set()

    def interval(lo, hi):
        a, b = sorted((rng.randint(lo, hi), rng.randint(lo, hi)))
        return max(a, 1), min(b, size)

    for _ in range(30):
        count, spans = _ZeroCount(size), [None] * 4 + [(1, 1), (size, size)]
        count.move(None, spans[4])
        count.move(None, spans[5])
        for _ in range(150):
            before = [sum(1 for sp in spans if sp and sp[0] <= c <= sp[1])
                      for c in range(size + 1)]
            i = rng.randrange(len(spans))
            old, new = spans[i], None
            if i == 4:
                new = 1, rng.randint(1, size)
            elif i == 5:
                new = rng.randint(1, size), size
            else:
                kind = rng.randrange(4)
                if kind == 1:
                    new = interval(1, size)
                elif kind >= 2 and old is not None:
                    new = interval(old[0] - 3, old[0] + 3)[0], interval(old[1] - 3, old[1] + 3)[1]
                    if new[0] > new[1]:
                        new = None
            if i < 4:
                if old is not None and new is not None:
                    seen.add("overlap" if old[0] <= new[1] and new[0] <= old[1] else "disjoint")
            elif new != old:
                grows = new[0] <= old[0] and old[1] <= new[1]
                seen.add("band grows" if grows else "band shrinks")
            count.move(old, new)
            spans[i] = new
            if spans[5][0] <= spans[4][1]:
                seen.add("bands overlap")
            want = [sum(1 for sp in spans if sp and sp[0] <= c <= sp[1]) for c in range(size + 1)]
            assert count.cnt == want
            assert count.zeros == want[1:].count(0)
            if any(b and not w for b, w in zip(before, want)):
                seen.add("back to 0")
    assert seen == {"band grows", "band shrinks", "bands overlap", "overlap", "disjoint",
                    "back to 0"}


def test_max_scale_x_at_a_mixed_critical():
    # lam* = 4 is where two x side functions meet and also where a pair's
    # activity interval closes: the query there must see that pair inactive.
    # Querying before the close gives 11/3 instead.
    pat = validate_polygon([(-1, 0), (0, 0), (0, -1), (1, -1), (1, 0), (2, 0), (2, 1), (-1, 1)])
    tgt = validate_polygon([(-7, -16), (16, -16), (16, -8), (12, -8), (12, -2), (1, -2),
                            (1, -8), (-7, -8)])
    res = max_scale_x(pat, tgt)
    assert (res.status, res.lambda_star, res.witness, res.stats) == \
        ("feasible", F(4), P(F(-11, 2), -3),
         SolveStats(criticals=17, queries=5, skipped=10))
    assert verify_containment(pat, tgt, res.lambda_star, res.witness)
    want = _max_scale_x_reference(pat, tgt)
    assert (want.lambda_star, want.witness, want.stats) == (res.lambda_star, res.witness, res.stats)
    cs = _Problem(pat, tgt).cs
    meets = {F(db, da) for db, da, _, _ in walk_reference((cs.xaxis,))}
    ya0, yb0 = cs.box_sides[2]  # B's bottom
    closes = {F(yb - yb0, ya0 - ya) for (_, _, _, _, ya, yb, _, _) in cs.sides if ya0 != ya}
    assert F(4) in meets and F(4) in closes


def _rect(w, h):
    return validate_polygon([(0, 0), (w, 0), (w, h), (0, h)])


@pytest.mark.parametrize("pattern, target, lam, tau, fixed", [
    # the x-only answer is the scale where B's bottom and top meet
    (_rect(5, 7), _rect(20, 8), F(8, 7), P(F(-50, 7), 0), P(F(-15, 2), F(-1, 2))),
    (SQ, SQ, F(1), P(0, 0), P(0, 0)),
    (_rect(20, 8), _rect(5, 7), F(1, 4), P(0, F(-5, 2)), None),
])
def test_rectangles_fit_at_the_bbox_ratio(pattern, target, lam, tau, fixed):
    # a rectangular target leaves no forbidden rectangle: only B(lam) decides
    for solve in (max_scale, max_scale_baseline, max_scale_x):
        res = solve(pattern, target)
        assert (res.status, res.lambda_star, res.witness) == ("feasible", lam, tau)
    assert verify_containment(pattern, target, lam, tau)
    prob = _Problem(pattern, target)
    assert not prob.qcov.rects and prob.bbox_cap == lam
    # B(lam) is inverted above the cap, so the static test finds no hole there
    assert find_hole(prob, lam * F(11, 10)) is None
    assert contains_fixed(pattern, target) == fixed  # asks at lam = 1, whatever the cap


def test_max_scale_x_builds_fractions_only_for_its_answer(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    gadget = gen_average([-5, 0, 7, 9])
    monkeypatch.setattr(polyplace.solver, "Fraction", counting)
    for pat, tgt in ((SQ, comb_polygon(50, random.Random(50))),
                     (gadget.pattern, gadget.target)):
        built.clear()
        res = max_scale_x(pat, tgt)
        assert res.stats.queries >= 1 and len(built) <= 2


def test_x_variant_dominated(rng):
    for _ in range(10):
        pat, tgt = random_instance_pair(rng, 14, 14, 25)
        full = max_scale(pat, tgt).lambda_star
        restricted = max_scale_x(pat, tgt)
        if restricted.feasible:
            assert full >= restricted.lambda_star
            assert verify_containment(pat, tgt, restricted.lambda_star,
                                      restricted.witness)


def test_stats_contract(rng):
    for _ in range(6):
        pat, tgt = random_instance_pair(rng, 14, 14, 25)
        res, plan = _max_scale_and_plan(pat, tgt, "naive")
        prob = _Problem(pat, tgt)
        nx = len(prob.cs.x_entries)
        ny = len(prob.cs.y_entries)
        assert res.stats.criticals <= (nx * (nx - 1)) // 2 + (ny * (ny - 1)) // 2
        # a move with both rectangles counts as two changes
        changes = len(split_moves(plan.updates[:res.stats.updates])[0])
        assert changes <= 8 * (nx * nx + ny * ny)
        assert res.stats.queries >= 1


def test_result_serialization():
    for solve in SOLVERS:
        obj = solve(SQ, WIDE).to_obj()
        assert obj["lambda"] == "2/1"
        assert obj["status"] == "feasible"
        lam = Fraction(obj["lambda"])
        tau = Point(Fraction(obj["tau"][0]), Fraction(obj["tau"][1]))
        assert verify_containment(SQ, WIDE, lam, tau)


def test_dumbbell_feasibility_is_not_monotone():
    # two 10x10 squares joined by a 10x2 bar, placed into itself: the two
    # squares fit only at full size (lambda = 1); just below, they no longer
    # reach both ends and cannot enter the bar, and the whole pattern fits
    # into one square again only once its width 30 * lambda is at most 10
    bell = validate_polygon([(0, 0), (10, 0), (10, 4), (20, 4), (20, 0), (30, 0),
                             (30, 10), (20, 10), (20, 6), (10, 6), (10, 10), (0, 10)])
    assert kernel(bell) is None  # so max_scale sweeps it
    for res in (max_scale(bell, bell), max_scale_baseline(bell, bell)):
        assert res.feasible and res.lambda_star == 1
        assert verify_containment(bell, bell, res.lambda_star, res.witness)
    prob = _Problem(bell, bell)
    assert find_hole(prob, F(99, 100)) is None
    assert find_hole(prob, F(2, 5)) is None
    for lam in (F(1, 3), F(1, 4)):
        tau = find_hole(prob, lam)
        assert tau is not None and verify_containment(bell, bell, lam, tau)
