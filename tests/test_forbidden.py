import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polyplace.forbidden
from conftest import split_moves
from oracles import covers_box, rank_snapshot, walk_reference
from polyplace.decompose import RectCover, cover_complement, cover_interior
from polyplace.dyncover import read_trace, write_trace
from polyplace.forbidden import (CoordSets, Descent, LinearForm, _Axis, _AxisState,
                                 _rank_rule, build_sweep, coordinate_functions,
                                 critical_values)
from polyplace.geometry import AxisRect, normalize_center, validate_polygon
from polyplace.hardness import gen_average, gen_foursum
from polyplace.instances import comb_polygon, random_instance_pair, unit_square
from polyplace.solver import _Problem, find_hole


def R(*vals):
    return AxisRect(*map(Fraction, vals))


def F(n, d=1):
    return Fraction(n, d)


def _pair_forms(p_rect, q_rect):
    """The (x_lo, x_hi, y_lo, y_hi) forms that coordinate_functions gives one pair."""
    cs = coordinate_functions(RectCover((p_rect,)), RectCover((q_rect,)), R(-9, 9, -9, 9))
    x = {owner: form for form, owner in cs.x_entries}
    y = {owner: form for form, owner in cs.y_entries}
    return x["lo", 0], x["hi", 0], y["lo", 0], y["hi", 0]


def _forms_at(forms, lam):
    return tuple(f.alpha * lam + f.beta for f in forms)


def test_forbidden_rect_formula():
    forms = _pair_forms(R(0, 1, 0, 1), R(2, 4, 0, 1))
    lam = F(3)
    # (2 - lam, 4) x (-lam, 1)
    assert _forms_at(forms, lam) == (2 - lam, F(4), -lam, F(1))
    assert forms[0] == LinearForm(F(-1), F(2))
    assert forms[1] == LinearForm(F(0), F(4))


def test_forbidden_rect_symmetric():
    forms = _pair_forms(R(F(-1, 2), F(1, 2), F(-1, 2), F(1, 2)),
                        R(F(-1, 2), F(1, 2), F(-1, 2), F(1, 2)))
    lam = F(3, 2)
    a, b, c, d = _forms_at(forms, lam)
    assert (a, b) == (-(1 + lam) / 2, (1 + lam) / 2)
    assert (c, d) == (a, b)


def test_forbidden_rect_empty_at_closing_scale():
    # the forbidden x interval (q.x0 - lam * p.x1, q.x1 - lam * p.x0) has
    # width q.width + lam * p.width, so it closes at lam = -q.width / p.width
    forms = _pair_forms(R(1, 2, 0, 1), R(2, 3, 0, 2))
    assert _forms_at(forms, F(-1)) == (F(4), F(4), F(1), F(2))
    a, b, c, d = _forms_at(forms, F(1))
    assert a < b and c < d
    assert not a < 10 < b


def _square_pair(target):
    """Centered covers of the unit square and ``target``, and their bboxes."""
    p, _ = normalize_center(unit_square())
    q, _ = normalize_center(target)
    return cover_interior(p), cover_complement(q), p.bounding_box(), q.bounding_box()


def test_coordinate_counts():
    lshape = validate_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    for target, n_q in ((unit_square(), 0), (lshape, 1)):
        pcov, qcov, pb, qb = _square_pair(target)
        assert len(pcov) == 1 and len(qcov) == n_q
        cs = coordinate_functions(pcov, qcov, qb)
        assert len(cs.x_entries) == len(cs.y_entries) == 2 * n_q + 2
        # the box entries are B(lam)'s sides: alpha = -pb side, beta = qb side
        box = {(axis, o[1]): f for axis, entries in (("x", cs.x_entries), ("y", cs.y_entries))
               for f, o in entries if o[0] == "box"}
        assert box == {("x", 0): LinearForm(-pb.x0, qb.x0), ("x", 1): LinearForm(-pb.x1, qb.x1),
                       ("y", 0): LinearForm(-pb.y0, qb.y0), ("y", 1): LinearForm(-pb.y1, qb.y1)}
        # every pair's lo/hi entries are its forbidden rectangle's sides
        pairs = [(p, q) for p in pcov.rects for q in qcov.rects]
        assert cs.n_rects == len(pairs)
        for entries, lo_hi in ((cs.x_entries, lambda p, q: ((-p.x1, q.x0), (-p.x0, q.x1))),
                               (cs.y_entries, lambda p, q: ((-p.y1, q.y0), (-p.y0, q.y1)))):
            for form, owner in entries:
                if owner[0] != "box":
                    lo, hi = lo_hi(*pairs[owner[1]])
                    assert form == LinearForm(*(lo if owner[0] == "lo" else hi))
        # and the integer table holds each pair's sides, and B's, times the scale
        s = cs.scale
        for (p, q), sides in zip(pairs, cs.sides, strict=True):
            assert sides == tuple(v * s for v in (-p.x1, q.x0, -p.x0, q.x1,
                                                  -p.y1, q.y0, -p.y0, q.y1))
        assert cs.box_sides == tuple((-a * s, b * s) for a, b in (
            (pb.x0, qb.x0), (pb.x1, qb.x1), (pb.y0, qb.y0), (pb.y1, qb.y1)))


def _coordsets_from_forms(x_forms, y_forms):
    box = R(0, 1, 0, 1)
    x_entries = [(f, ("lo", i)) for i, f in enumerate(x_forms)]
    x_entries += [(LinearForm(F(0), box.x0), ("box", 0)),
                  (LinearForm(F(0), box.x1), ("box", 1))]
    y_entries = [(f, ("lo", i)) for i, f in enumerate(y_forms)]
    y_entries += [(LinearForm(F(0), box.y0), ("box", 0)),
                  (LinearForm(F(0), box.y1), ("box", 1))]
    return CoordSets(n_rects=0, x_entries=x_entries, y_entries=y_entries)


def test_critical_values_examples():
    # X = {lam, -lam + 4, 1}: crossings at 2, 1, 3 (constants 0 and 1 from the
    # box add crossings of lam and -lam+4 with 0, i.e. lam = 4 as well)
    cs = _coordsets_from_forms([LinearForm(F(1), F(0)), LinearForm(F(-1), F(4))], [])
    crits = critical_values(cs)
    assert crits == [F(4), F(3), F(2), F(1)]

    cs2 = _coordsets_from_forms([LinearForm(F(1), F(1)), LinearForm(F(1), F(2))], [])
    # parallel forms never meet; crossings with the constants 0/1 at lam <= 0 only
    assert critical_values(cs2) == []

    cs3 = _coordsets_from_forms([LinearForm(F(1), F(4)), LinearForm(F(-1), F(0))], [])
    # lam + 4 = -lam  =>  lam = -2: excluded; crossings with constants:
    # lam+4=0 -> -4 (excluded), lam+4=1 -> -3, -lam=0 -> 0 (not positive), -lam=1 -> -1
    assert critical_values(cs3) == []


def test_critical_values_descending_positive(rng):
    for _ in range(10):
        P, Q = random_instance_pair(rng, 12, 12, 20)
        prob = _Problem(P, Q)
        crits = critical_values(prob.cs)
        assert all(c > 0 for c in crits)
        assert all(crits[i] > crits[i + 1] for i in range(len(crits) - 1))


def test_rank_tie_intervals():
    # X values {2, 2, 7}: the equal pair shares rank interval [1,2]
    cs = _coordsets_from_forms(
        [LinearForm(F(0), F(2)), LinearForm(F(1), F(1)), LinearForm(F(0), F(7))], [])
    snap = rank_snapshot(cs, F(1))
    band_l, band_r = cs.n_rects, cs.n_rects + 1  # the bands' keys
    # box consts are 0 and 1 -> ranks 1, 2; the tied forms at value 2 get [3,4]
    # C_L right edge = end(min rank(0)) = 2*1-1 = 1
    assert snap[band_l].x_hi == 1
    assert snap[band_r].x_lo == 2 * 2  # start(max rank(1)) = start(2)


def test_end_start_arithmetic():
    # open (x, x') with max rank(x)=2, min rank(x')=3 -> [start(2), end(3)] = [4, 5]
    assert 2 * 2 == 4 and 2 * 3 - 1 == 5


def test_snapshot_stability(rng):
    for _ in range(6):
        P, Q = random_instance_pair(rng, 12, 12, 15)
        prob = _Problem(P, Q)
        crits = critical_values(prob.cs)
        if len(crits) < 2:
            continue
        lo, hi = crits[1], crits[0]
        s1 = rank_snapshot(prob.cs, lo + (hi - lo) / 3)
        s2 = rank_snapshot(prob.cs, lo + (hi - lo) * 2 / 3)
        assert s1 == s2  # stable inside one region


def test_sweep_matches_snapshots(rng):
    for _ in range(8):
        P, Q = random_instance_pair(rng, 16, 16, 25)
        prob = _Problem(P, Q)
        plan = build_sweep(prob.cs)
        below_pos = []  # the updates applied just below each critical
        while plan.extend():
            below_pos.append(len(plan.updates))
        crits = [F(db, da) for db, da in plan.criticals]
        live = dict(plan.initial)
        pos = 0
        # the preloaded state is the region's above the first swept critical
        assert live == rank_snapshot(prob.cs, crits[0] + 1)
        capped = build_sweep(prob.cs, start_below=prob.bbox_cap)
        k = capped.skipped_above
        above = (crits[k - 1] + crits[k]) / 2 if k else crits[0] + 1
        assert dict(capped.initial) == rank_snapshot(prob.cs, above)

        def play_to(stop):
            nonlocal pos
            for key, old, new in plan.updates[pos:stop]:
                assert live.get(key) == old  # a move starts from the key's live rectangle
                if new is None:
                    del live[key]
                else:
                    live[key] = new
            pos = stop

        for ci, lam in enumerate(crits):
            play_to(plan.query_pos[ci])
            assert live == rank_snapshot(prob.cs, lam)
            play_to(below_pos[ci])
            below = (lam + crits[ci + 1]) / 2 if ci + 1 < len(crits) else lam / 2
            assert live == rank_snapshot(prob.cs, below)
        assert pos == len(plan.updates)


def test_open_closed_equivalence(rng):
    # full coverage of the target box by the real open rectangles matches
    # full rank-space coverage by the closed snapshot, at criticals and
    # region midpoints alike
    for _ in range(10):
        P, Q = random_instance_pair(rng, 12, 12, 15)
        prob = _Problem(P, Q)
        crits = critical_values(prob.cs)
        samples = []
        for i, c in enumerate(crits[:6]):
            samples.append(c)
            nxt = crits[i + 1] if i + 1 < len(crits) else c / 2
            samples.append((c + nxt) / 2)
        for lam in samples:
            closed = covers_box(list(rank_snapshot(prob.cs, lam).values()),
                                prob.cs.rank_box)
            open_cover = find_hole(prob, lam) is None
            assert closed == open_cover


def test_weight_two_only_where_an_interval_starts_and_ends(rng):
    # an interval starts at a pair's low side and at B's high side (band R
    # or T) and ends at a pair's high side and at B's low side (band L or B)
    problems = [_Problem(*random_instance_pair(rng, 12, 12, 20)) for _ in range(4)]
    for inst in (gen_foursum([0, 2], [3, -1], [1], [4, 2]), gen_average([-7, 1, 4, 9])):
        problems.append(_Problem(inst.pattern, inst.target))
    seen = set()
    for prob in problems:
        cs = prob.cs
        for axis, entries in ((cs.xaxis, cs.x_entries), (cs.yaxis, cs.y_entries)):
            starts, ends = set(), set()
            for _, owner in entries:
                starting = owner[0] == "lo" or owner == ("box", 1)
                (starts if starting else ends).add(axis.node_of[owner])
            assert axis.weights == [2 if node in starts and node in ends else 1
                                    for node in range(len(axis.weights))]
            seen.update(axis.weights)
        assert cs.rank_box == (2 * sum(cs.xaxis.weights), 2 * sum(cs.yaxis.weights))
    assert seen == {1, 2}


def test_rank_boxes_of_the_seed_0_workloads_are_pinned():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import comb_deep, gadget_ties

    boxes = {inst.label: _Problem(inst.pattern, inst.target).cs.rank_box
             for inst in comb_deep(0) + gadget_ties(0)}
    assert [boxes[f"foursum{k}"] for k in range(4)] == [(312, 164)] * 4
    assert boxes["comb200-square"] == (396, 104)


def test_tie_group_without_a_pair_raises():
    axis = _Axis([(LinearForm(F(0), F(0)), ("box", 0)),
                  (LinearForm(F(1), F(1)), ("box", 1))], 1, 0)
    state = _AxisState(axis, 1, 1)
    with pytest.raises(RuntimeError, match="coinciding pair"):
        state.tie_groups({0}, 1, 1)


def _axis_state(forms, num, den):
    """The axis of integer (alpha, beta) forms, ordered at the scale num / den."""
    owners = [(side, i) for i in range(len(forms)) for side in ("lo", "hi")]
    axis = _Axis([(LinearForm(F(a), F(b)), owner) for (a, b), owner in zip(forms, owners)],
                 1, 0)
    return _AxisState(axis, num, den)


def test_tie_group_faults_raise():
    # two nodes whose values differ at the critical
    state = _axis_state([(0, 0), (1, 1)], 1, 1)
    with pytest.raises(RuntimeError, match="coinciding pair"):
        state.tie_pair(0, 1, 1, 1)
    # at scale 2 the order is d, b, c, a (values 4, 6, 7, 8); at scale 1, a, b
    # and d all take the value 4 while c, between them, takes 7
    a, b, c, d = range(4)
    forms = [(4, 0), (2, 2), (0, 7), (0, 4)]
    assert _axis_state(forms, 2, 1).order == [d, b, c, a]
    with pytest.raises(RuntimeError, match="tie group not contiguous"):
        _axis_state(forms, 2, 1).tie_pair(a, b, 1, 1)
    with pytest.raises(RuntimeError, match="tie group not contiguous"):
        _axis_state(forms, 2, 1).tie_groups({a, b, d}, 1, 1)


_INVARIANTS = """
import random
import sys
from fractions import Fraction
from polyplace.forbidden import LinearForm, _Axis, _AxisState
from polyplace.instances import comb_polygon, random_instance_pair, unit_square
from polyplace.solver import max_scale, max_scale_x

print("optimize", sys.flags.optimize)
for forms, pair in (([(0, 0), (1, 1)], (0, 1)),  # unequal values at scale 1
                    ([(4, 0), (2, 2), (0, 7), (0, 4)], (0, 1))):  # a and b, not adjacent
    owners = [(side, i) for i in range(len(forms)) for side in ("lo", "hi")]
    axis = _Axis([(LinearForm(Fraction(a), Fraction(b)), owner)
                  for (a, b), owner in zip(forms, owners)], 1, 0)
    try:
        _AxisState(axis, 2, 1).tie_pair(*pair, 1, 1)
        print("no error")
    except RuntimeError as exc:
        print(exc)
rng = random.Random(7)
pairs = [random_instance_pair(rng, 12, 12, 20) for _ in range(4)]
pairs.append((unit_square(), comb_polygon(30, random.Random(30))))
for pat, tgt in pairs:
    for solve in (max_scale, max_scale_x):
        res = solve(pat, tgt)
        print(res.status, res.lambda_star, res.witness, res.lambda_sup, res.stats)
"""


def test_runtime_invariants_hold_under_optimize():
    # the invariants are raised, not asserted, so python -O keeps them and
    # the solves' answers
    src = str(Path(polyplace.forbidden.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = [subprocess.run([sys.executable, *flag, "-c", _INVARIANTS], env=env, check=True,
                           capture_output=True, text=True, timeout=120).stdout.splitlines()
            for flag in (["-O"], [])]
    optimized, plain = runs
    assert (optimized[0], plain[0]) == ("optimize 1", "optimize 0")
    assert optimized[1:3] == ["critical without a coinciding pair", "tie group not contiguous"]
    assert optimized[1:] == plain[1:] and len(plain) == 13


def test_two_node_tie_shares_and_swaps():
    # b and d meet at scale 1, adjacent in the order d, b, c, a of scale 2
    a, b, c, d = range(4)
    state = _axis_state([(4, 0), (2, 2), (0, 7), (0, 4)], 2, 1)
    groups = (state.tie_pair(b, d, 1, 1),)
    assert [(start, sorted(nodes)) for start, nodes in groups] == [(0, [b, d])]
    assert (state.lo[b], state.hi[b], state.lo[d], state.hi[d]) == (1, 2, 1, 2)
    moved = set()
    state.reorder_below(groups, moved)  # below the meet, descending alpha: b, then d
    assert state.order == [b, d, c, a] and state.pos == [3, 0, 2, 1]
    assert (state.lo, state.hi) == ([4, 1, 3, 2], [4, 1, 3, 2])
    # b's max rank fell and d's min rank rose; b is the high side of key 0,
    # which reads only b's min rank, so key 1 alone may move
    assert (state.axis.keys, state.axis.reads_hi) == ([[0], [0], [1], [1]], [1, 0, 1, 0])
    assert moved == {1}


def test_reads_hi_splits_keys_as_the_rank_rule_reads_them(rng):
    # each node's keys list first those whose rank rectangle moves with the
    # node's max rank, then those that move with its min rank, the bands
    # included: a tie's resolution re-emits keys by this split
    def wide(axis):  # min ranks far above max ranks: no rectangle is empty
        return [[100] * len(axis.alphas), [1] * len(axis.alphas)]

    cs = _Problem(*random_instance_pair(rng, 12, 12, 20)).cs
    base = _rank_rule(cs, wide(cs.xaxis), wide(cs.yaxis))
    for slot, axis in enumerate((cs.xaxis, cs.yaxis)):
        for node, keys in enumerate(axis.keys):
            reads = []
            for side, step in ((1, 1), (0, -1)):  # the max rank up, then the min rank down
                ranks = [wide(cs.xaxis), wide(cs.yaxis)]
                ranks[slot][side][node] += step
                rule = _rank_rule(cs, *ranks)
                reads.append(sorted(k for k in keys if rule(k) != base(k)))
            split = axis.reads_hi[node]
            assert reads == [sorted(keys[:split]), sorted(keys[split:])], (slot, node)


def test_update_count_bound(rng):
    for _ in range(10):
        P, Q = random_instance_pair(rng, 16, 16, 25)
        prob = _Problem(P, Q)
        plan = build_sweep(prob.cs).drain()
        nx = len(prob.cs.x_entries)
        ny = len(prob.cs.y_entries)
        assert len(split_moves(plan.updates)[0]) <= 8 * (nx * nx + ny * ny)


def test_trace_file_round_trip(tmp_path, rng):
    P, Q = random_instance_pair(rng, 12, 12, 15)
    plan = build_sweep(_Problem(P, Q).cs).drain()
    path = tmp_path / "trace.txt"
    write_trace(str(path), plan.box_cells, plan.initial, plan.updates, plan.query_pos)
    box, initial, updates, query_pos = read_trace(str(path))
    assert box == plan.box_cells
    assert initial == plan.initial
    # every move is one line, so the query positions are written as they are
    assert (updates, query_pos) == (plan.updates, plan.query_pos)
    first = path.read_text().splitlines()[0]
    assert first == f"N {plan.box_cells[0]} {plan.box_cells[1]}"


def _walked(cs, cap=None, resolve=True):
    """(db, da, x nodes, y nodes) of each critical of the walk over both axes."""
    walk = Descent(cs, (cs.xaxis, cs.yaxis), cap)
    got = []
    for db, da, met, extras in walk:
        assert not extras
        got.append((db, da, *met))
        if resolve:
            walk.below()
    return walk, got


def test_critical_keys_are_exact():
    # the integer key must give the Fraction order and tie groups exactly,
    # on random pairs and on gadgets with large integer axis scales, both in
    # the walk and in critical_values
    rng = random.Random(987123)
    problems = [_Problem(*random_instance_pair(rng, max_p=20, max_q=20, span=50))
                for _ in range(25)]
    for k in range(3):
        sets = [rng.sample(range(-6, 7), 3 + k % 2) for _ in range(4)]
        inst = gen_foursum(*sets)
        problems.append(_Problem(inst.pattern, inst.target))
        assert problems[-1].cs.scale.bit_length() >= 30
    for values in ([-5, 0, 7, 9], random.Random(1).sample(range(-1728, 1729), 12)):
        inst = gen_average(values)
        problems.append(_Problem(inst.pattern, inst.target))
    for prob in problems:
        # a critical's pair is that of its first meet, x before y, in (i, j) order
        want = [(db, da, *met) for db, da, met, _ in
                walk_reference((prob.cs.xaxis, prob.cs.yaxis))]
        walk, got = _walked(prob.cs)
        assert got == want
        assert (walk.total, walk.skipped) == (len(want), 0)
        assert critical_values(prob.cs) == [F(db, da) for db, da, _, _ in want]
        # a walk that never calls below() resolves each tie on resuming
        assert _walked(prob.cs, resolve=False)[1] == got
        # from the bbox-fit cap, only the criticals above it are skipped
        cap = prob.bbox_cap
        walk, kept = _walked(prob.cs, cap)
        assert walk.skipped + len(kept) == walk.total == len(want)
        assert kept == got[walk.skipped:] and F(*kept[0][:2]) <= cap
        assert all(F(db, da) > cap for db, da, _, _ in want[:walk.skipped])

    # neighbouring Farey fractions 1/(D-1) > 1/D with D the whole alpha span,
    # so they differ by exactly 1/(D(D-1)): they must stay two criticals
    d = 2 ** 40 + 1
    xs = [(LinearForm(F(d), F(0)), ("lo", 0)), (LinearForm(F(0), F(1)), ("hi", 0)),
          (LinearForm(F(1), F(1)), ("box", 0)), (LinearForm(F(1), F(1)), ("box", 1))]
    ys = [(LinearForm(F(0), F(0)), owner) for owner in (("lo", 0), ("hi", 0),
                                                        ("box", 0), ("box", 1))]
    cs = CoordSets(1, xs, ys)
    assert cs.xaxis.alphas == [d, 0, 1] and cs.yaxis.alphas == [0]
    assert [(db, da, met) for db, da, met, _ in Descent(cs, (cs.xaxis, cs.yaxis), None)] \
        == [(1, d - 1, ({0, 2}, set())), (1, d, ({0, 1}, set()))]
    assert critical_values(cs) == [F(1, d - 1), F(1, d)]


def test_sweep_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("build_sweep built a Fraction")

    gadget = gen_foursum([0], [3], [1], [4])
    problems = [_Problem(unit_square(), comb_polygon(50, random.Random(50))),
                _Problem(gadget.pattern, gadget.target)]
    plans = [build_sweep(prob.cs, start_below=prob.bbox_cap).drain() for prob in problems]
    monkeypatch.setattr(polyplace.forbidden, "Fraction", no_fraction)
    for prob, plan in zip(problems, plans):
        again = build_sweep(prob.cs, start_below=prob.bbox_cap).drain()
        assert again.criticals and again.updates == plan.updates
