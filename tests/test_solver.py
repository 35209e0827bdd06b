import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from polyplace.forbidden import critical_values
from polyplace.geometry import (Placement, Point, transform, validate_polygon)
from polyplace.hardness import gen_foursum
from polyplace.instances import comb_polygon, random_instance_pair, unit_square
from polyplace.solver import (_Problem, contains_fixed, find_hole, max_scale,
                              max_scale_baseline, max_scale_x,
                              verify_containment)


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


def test_max_scale_structured_shapes():
    spiral = validate_polygon([(0, 0), (10, 0), (10, 10), (2, 10), (2, 4),
                               (4, 4), (4, 8), (8, 8), (8, 2), (0, 2)])
    res = max_scale(SQ, spiral)
    assert res.lambda_star == max_scale_baseline(SQ, spiral).lambda_star == 2
    h = validate_polygon([(0, 0), (3, 0), (3, 4), (7, 4), (7, 0), (10, 0),
                          (10, 10), (7, 10), (7, 6), (3, 6), (3, 10), (0, 10)])
    assert max_scale(SQ, h).lambda_star == 3  # room width, corridor too thin
    wide = validate_polygon([(0, 0), (8, 0), (8, 1), (0, 1)])
    slim = validate_polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
    assert max_scale(wide, slim).lambda_star == F(1, 2)
    mirror = validate_polygon([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)])
    lshape = validate_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    res = max_scale(lshape, mirror)
    assert res.lambda_star == max_scale_baseline(lshape, mirror).lambda_star
    assert verify_containment(lshape, mirror, res.lambda_star, res.witness)


def test_max_scale_impls_agree(rng):
    pairs = [random_instance_pair(rng, 16, 16, 30) for _ in range(8)]
    # deep sweeps with many rebuilds: the answer at the comb's last critical,
    # and a gadget with multi-way ties
    gadget = gen_foursum([0], [3], [1], [4])
    pairs += [(SQ, comb_polygon(50, random.Random(50))), (gadget.pattern, gadget.target)]
    for pat, tgt in pairs:
        a = max_scale(pat, tgt, impl="oy")
        b = max_scale(pat, tgt, impl="naive")
        assert ((a.status, a.lambda_star, a.stats.queries)
                == (b.status, b.lambda_star, b.stats.queries))


def test_oracle_equivalence_small(rng):
    for _ in range(30):
        pat, tgt = random_instance_pair(rng, 20, 20, 50)
        fast = max_scale(pat, tgt)
        base = max_scale_baseline(pat, tgt)
        assert fast.status == base.status == "feasible"
        assert fast.lambda_star == base.lambda_star
        assert verify_containment(pat, tgt, fast.lambda_star, fast.witness)
        assert verify_containment(pat, tgt, base.lambda_star, base.witness)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_and_baseline_give_the_same_witness(seed):
    pat, tgt = random_instance_pair(random.Random(seed), 12, 12, 20)
    fast = max_scale(pat, tgt)
    base = max_scale_baseline(pat, tgt)
    assert (fast.status, fast.lambda_star, fast.witness) == \
        (base.status, base.lambda_star, base.witness)
    if fast.feasible:
        assert verify_containment(pat, tgt, fast.lambda_star, fast.witness)


def test_feasibility_persists_below(rng):
    for _ in range(6):
        pat, tgt = random_instance_pair(rng, 14, 14, 25)
        res = max_scale(pat, tgt)
        half = res.lambda_star / 2
        prob = _Problem(pat, tgt)
        tau = find_hole(prob, half)
        assert tau is not None
        assert verify_containment(pat, tgt, half, tau)


def test_maximality(rng):
    for _ in range(8):
        pat, tgt = random_instance_pair(rng, 14, 14, 25)
        res = max_scale(pat, tgt)
        prob = _Problem(pat, tgt)
        crits = critical_values(prob.cs)
        above = [c for c in crits if c > res.lambda_star]
        for lam in above:
            if lam <= prob.bbox_cap:
                assert find_hole(prob, lam) is None
        # the midpoint of the region just above the answer is infeasible too
        if above:
            mid = (res.lambda_star + min(above)) / 2
            if mid <= prob.bbox_cap:
                assert find_hole(prob, mid) is None


def test_transformation_invariance(rng):
    for _ in range(5):
        pat, tgt = random_instance_pair(rng, 14, 14, 20)
        lam = max_scale(pat, tgt).lambda_star
        moved_p = pat.translated(P(13, -7))
        moved_q = tgt.translated(P(-4, 9))
        assert max_scale(moved_p, moved_q).lambda_star == lam
        scaled_q = transform(tgt, Placement(F(3), P(0, 0)))
        assert max_scale(pat, scaled_q).lambda_star == 3 * lam
        scaled_p = transform(pat, Placement(F(3), P(0, 0)))
        assert max_scale(scaled_p, tgt).lambda_star == lam / 3


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
        res = max_scale(pat, tgt)
        prob = _Problem(pat, tgt)
        nx = len(prob.cs.x_entries)
        ny = len(prob.cs.y_entries)
        assert res.stats.criticals <= (nx * (nx - 1)) // 2 + (ny * (ny - 1)) // 2
        assert res.stats.updates <= 8 * (nx * nx + ny * ny)
        assert res.stats.queries >= 1


def test_result_serialization():
    res = max_scale(SQ, WIDE)
    obj = res.to_obj()
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
    for res in (max_scale(bell, bell), max_scale_baseline(bell, bell)):
        assert res.feasible and res.lambda_star == 1
        assert verify_containment(bell, bell, res.lambda_star, res.witness)
    prob = _Problem(bell, bell)
    assert find_hole(prob, F(99, 100)) is None
    assert find_hole(prob, F(2, 5)) is None
    for lam in (F(1, 3), F(1, 4)):
        tau = find_hole(prob, lam)
        assert tau is not None and verify_containment(bell, bell, lam, tau)
