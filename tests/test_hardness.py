from fractions import Fraction

import pytest

from polyplace.geometry import Point, validate_polygon
from polyplace.hardness import (NonBinaryVector, OutOfUniverse, brute_solve,
                                gen_average, gen_foursum, gen_ov)
from polyplace.solver import (contains_fixed, max_scale, max_scale_x,
                              verify_containment)


def test_brute_examples():
    assert brute_solve("average", [1, 2, 3])
    assert not brute_solve("average", [0, 1, 5])
    assert not brute_solve("foursum", ([0], [1], [0], [5]))
    assert brute_solve("foursum", ([0], [3], [1], [4]))
    assert brute_solve("ov", ([(0, 1)], [(1, 0)]))
    assert not brute_solve("ov", ([(1, 1)], [(1, 1)]))


def test_gen_ov_examples():
    inst = gen_ov([(0, 1)], [(1, 0)])
    assert contains_fixed(inst.pattern, inst.target) is not None
    inst = gen_ov([(1, 1)], [(1, 1)])
    assert contains_fixed(inst.pattern, inst.target) is None


def test_gen_ov_validation():
    with pytest.raises(NonBinaryVector):
        gen_ov([(0, 2)], [(1, 0)])
    with pytest.raises(NonBinaryVector):
        gen_ov([], [(1, 0)])
    with pytest.raises(NonBinaryVector):
        gen_ov([(0, 1)], [(1, 0, 1)])


def test_generators_reject_non_integers():
    # a float or a bool would otherwise be coerced into a different instance
    for call in (lambda: gen_average([1.5, 2, 3]), lambda: gen_average([1, True, 3]),
                 lambda: gen_foursum([0.9], [3], [1], [4]),
                 lambda: gen_ov([(1.0, 0)], [(0, 1)]),
                 lambda: gen_ov([(0, 1)], [(True, 0)])):
        with pytest.raises(TypeError):
            call()


def test_gen_ov_round_trip(rng):
    for _ in range(25):
        d = rng.randint(1, 6)
        A = [tuple(rng.randint(0, 1) for _ in range(d))
             for _ in range(rng.randint(1, 8))]
        B = [tuple(rng.randint(0, 1) for _ in range(d))
             for _ in range(rng.randint(1, 8))]
        inst = gen_ov(A, B)
        geo = contains_fixed(inst.pattern, inst.target) is not None
        assert geo == brute_solve("ov", (A, B))


def test_gen_average_shape():
    inst = gen_average([1, 2, 3])
    assert len(inst.pattern) == 12
    assert inst.threshold == 1
    assert inst.mode == "scale-x-translation"
    n = 3
    assert inst.params.universe == n ** 3
    assert inst.params.prong_len == 2 * n ** 3
    assert inst.params.half_width == Fraction(1, 10 * n ** 3)
    assert inst.params.prong_len_target == inst.params.universe * inst.params.prong_len
    assert inst.params.half_width_target == inst.params.universe * inst.params.half_width


def test_gen_average_examples():
    yes = gen_average([1, 2, 3])
    assert max_scale_x(yes.pattern, yes.target).lambda_star >= 1
    no = gen_average([0, 1, 5])
    assert max_scale_x(no.pattern, no.target).lambda_star < 1


def test_gen_average_out_of_universe():
    with pytest.raises(OutOfUniverse):
        gen_average([1, 2, 1000])  # universe is n^3 = 27


def test_gen_average_round_trip(rng):
    for _ in range(20):
        n = rng.randint(3, 8)
        u = n ** 3
        A = rng.sample(range(-u, u + 1), n)
        inst = gen_average(A)
        res = max_scale_x(inst.pattern, inst.target)
        assert (res.lambda_star >= 1) == brute_solve("average", A)


def test_gen_average_forward_witness():
    # explicit construction placement: scale a2-a1, first prong on a1's slot
    A = [2, 5, 8]
    inst = gen_average(A)
    a1, a2, _a3 = 2, 5, 8
    lam = Fraction(a2 - a1)
    U = inst.params.universe
    eps = inst.params.half_width
    delta = inst.params.half_width_target
    pc = inst.pattern.bounding_box().center
    qc = inst.target.bounding_box().center
    # first prong center at slot center, bounding-box bottoms aligned
    t_orig_x = (a1 + U + delta) - lam * (eps - pc.x) - pc.x
    t_orig_y = -lam * (0 - pc.y) - pc.y
    tau = Point(t_orig_x + pc.x - qc.x, t_orig_y + pc.y - qc.y)
    assert verify_containment(inst.pattern, inst.target, lam, tau)


def test_gen_average_secondary_full_translation():
    # the equivalence also holds with free y-translation
    yes = gen_average([1, 2, 3])
    assert max_scale(yes.pattern, yes.target).lambda_star >= 1
    no = gen_average([0, 1, 5])
    assert max_scale(no.pattern, no.target).lambda_star < 1


def test_gen_foursum_shape():
    inst = gen_foursum([0], [3], [1], [4])
    assert len(inst.pattern) == 20
    U = inst.params.universe
    assert inst.params.spacing == 1000 * U * U
    assert inst.threshold == inst.params.spacing - 2 * U
    assert inst.mode == "scale-translation"
    assert len(inst.target) <= 20 + 16 * 4


def test_gen_foursum_examples():
    yes = gen_foursum([0], [3], [1], [4])
    r = max_scale(yes.pattern, yes.target)
    assert r.lambda_star >= yes.threshold
    no = gen_foursum([0], [1], [0], [5])
    r = max_scale(no.pattern, no.target)
    assert r.lambda_star < no.threshold


def test_gen_foursum_out_of_universe():
    with pytest.raises(OutOfUniverse):
        gen_foursum([0], [3], [1], [4], universe=2)


def test_gen_foursum_forward_witness():
    a1, a2, b1, b2 = 2, 5, -1, 2  # b2 - b1 = a2 - a1 = 3
    inst = gen_foursum([a1], [a2], [b1], [b2])
    M = inst.params.spacing
    lam = Fraction(M + a2 - a1)
    tau = Point(Fraction(a1), Fraction(b1))
    assert verify_containment(inst.pattern, inst.target, lam, tau)


def test_gen_foursum_round_trip(rng):
    for _ in range(6):
        sets = [rng.sample(range(-5, 6), rng.randint(1, 3)) for _ in range(4)]
        inst = gen_foursum(*sets)
        res = max_scale(inst.pattern, inst.target, impl="naive")
        assert (res.lambda_star >= inst.threshold) == brute_solve("foursum", sets)


def test_vertex_count_scaling():
    A = [(0, 1, 0), (1, 0, 1), (1, 1, 1)]
    B = [(0, 0, 1), (1, 0, 0)]
    inst = gen_ov(A, B)
    d = 3
    assert len(inst.pattern) <= 4 * len(A) * (d + 1) + 4
    assert len(inst.target) <= 4 * len(B) * (d + 1) + 4
    avg = gen_average([0, 2, 5, 9])
    assert len(avg.target) <= 4 * 4 + 8  # O(n): four corners per prong plus body
    fs = gen_foursum([0, 1, 2], [3], [1, 2], [4, 5])
    assert len(fs.pattern) == 20
    assert len(fs.target) == 4 + 4 * (3 + 1 + 2 + 2)


def test_generated_polygons_validate(rng):
    inst = gen_average([0, 3, 7])
    for poly in (inst.pattern, inst.target):
        validate_polygon([(v.x, v.y) for v in poly.vertices])
    inst = gen_foursum([0, 1], [2], [1], [3])
    for poly in (inst.pattern, inst.target):
        validate_polygon([(v.x, v.y) for v in poly.vertices])
