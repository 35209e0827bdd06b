"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The random-instance batch
of criterion 1 is shared with criteria 5 and 8 through a session fixture.
Expect a few minutes of total runtime; the scaling demonstration (criterion 6)
is the longest single test.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_trace, split_moves, sweep
from oracles import area_after_each, covers_box, first_uncover, rank_snapshot, union_area
from polyplace.forbidden import build_sweep, critical_values
from polyplace.geometry import AxisRect, OrthoPolygon, Placement, Point, kernel, transform
from polyplace.hardness import brute_solve, gen_average, gen_foursum, gen_ov
from polyplace.instances import comb_polygon, random_instance_pair, unit_square
from polyplace.solver import (PlacementResult, _Problem, contains_fixed,
                              find_hole, max_scale, max_scale_baseline,
                              max_scale_x, verify_containment)

SEED = 987123


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"\n{tag} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


@dataclass
class SolvedInstance:
    pattern: OrthoPolygon
    target: OrthoPolygon
    fast: PlacementResult  # max_scale's default: bisection for a star-shaped pattern
    sweep: PlacementResult  # max_scale's sweep, with the naive engine
    base: PlacementResult


@pytest.fixture(scope="session")
def core_batch() -> list[SolvedInstance]:
    """Criterion 1's 500 random instances, solved three ways."""
    rng = random.Random(SEED)
    batch = []
    for _ in range(500):
        pattern, target = random_instance_pair(rng, max_p=20, max_q=20, span=50)
        batch.append(SolvedInstance(pattern, target,
                                    max_scale(pattern, target),
                                    sweep(pattern, target),
                                    max_scale_baseline(pattern, target)))
    return batch


def test_criterion_1_oracle_equivalence(core_batch):
    # both routes of max_scale against the baseline, so the sweep stays
    # checked on the star-shaped patterns that the default bisects
    bad = 0
    for inst in core_batch:
        ok = (inst.fast.status == inst.sweep.status == inst.base.status == "feasible"
              and inst.fast.lambda_star == inst.sweep.lambda_star == inst.base.lambda_star
              and all(verify_containment(inst.pattern, inst.target,
                                         res.lambda_star, res.witness)
                      for res in (inst.fast, inst.sweep, inst.base)))
        bad += not ok
    _report("criterion 1 (oracle equivalence, 500 instances)", bad == 0,
            f"{bad} disagreement(s)")


def test_bisection_matches_the_sweep(core_batch):
    # a star-shaped pattern is bisected: same answer, criticals and skipped
    # as the sweep; any other pattern is swept, so its stats are the sweep's
    star = bad = 0
    for inst in core_batch:
        fast, sweep = inst.fast, inst.sweep
        same = ((fast.status, fast.lambda_star, fast.witness, fast.lambda_sup,
                 fast.stats.criticals, fast.stats.skipped)
                == (sweep.status, sweep.lambda_star, sweep.witness, sweep.lambda_sup,
                    sweep.stats.criticals, sweep.stats.skipped))
        if kernel(inst.pattern) is not None:
            star += 1
            same = same and fast.stats.updates == 0
        else:
            same = same and fast.stats == sweep.stats
        bad += not same
    _report("bisection vs sweep on criterion 1's instances", bad == 0 and star > 400,
            f"{bad} disagreement(s) over {star} star-shaped patterns")


def test_criterion_2a_average_round_trip():
    rng = random.Random(SEED + 1)
    bad = 0
    for k in range(100):
        n = rng.randint(3, 8)
        u = n ** 3
        if k % 2 == 0:  # plant a progression so both answers occur
            d = rng.randint(1, u // 3)
            a = rng.randint(-u, u - 2 * d)
            chosen = {a, a + d, a + 2 * d}
            while len(chosen) < n:
                chosen.add(rng.randint(-u, u))
            values = sorted(chosen)
        else:
            values = rng.sample(range(-u, u + 1), n)
        inst = gen_average(values)
        res = max_scale_x(inst.pattern, inst.target)
        if (res.lambda_star >= 1) != brute_solve("average", values):
            bad += 1
    _report("criterion 2a (100 average round-trips)", bad == 0,
            f"{bad} disagreement(s)")


def test_criterion_2b_foursum_round_trip():
    rng = random.Random(SEED + 2)
    bad = 0
    for k in range(100):
        sets = [rng.sample(range(-6, 7), rng.randint(1, 5)) for _ in range(4)]
        if k % 2 == 0:  # plant a matching difference pair
            d = rng.randint(-4, 4)
            a1 = rng.randint(-2, 2)
            b1 = rng.randint(-2, 2)
            sets[0].append(a1)
            sets[1].append(a1 + d)
            sets[2].append(b1)
            sets[3].append(b1 + d)
            sets = [s[-5:] for s in sets]
        inst = gen_foursum(*sets)
        res = max_scale(inst.pattern, inst.target, impl="naive")
        truth = brute_solve("foursum", tuple(
            inst.ground_truth_inputs[k2] for k2 in ("A1", "A2", "B1", "B2")))
        if (res.lambda_star >= inst.threshold) != truth:
            bad += 1
    _report("criterion 2b (100 foursum round-trips)", bad == 0,
            f"{bad} disagreement(s)")


def test_criterion_2c_ov_round_trip():
    rng = random.Random(SEED + 3)
    bad = 0
    for k in range(100):
        d = rng.randint(1, 6)
        A = [tuple(rng.randint(0, 1) for _ in range(d))
             for _ in range(rng.randint(1, 8))]
        B = [tuple(rng.randint(0, 1) for _ in range(d))
             for _ in range(rng.randint(1, 8))]
        if k % 2 == 0:  # plant an orthogonal pair
            a = tuple(rng.randint(0, 1) for _ in range(d))
            b = tuple(0 if a[i] else rng.randint(0, 1) for i in range(d))
            A[rng.randrange(len(A))] = a
            B[rng.randrange(len(B))] = b
        inst = gen_ov(A, B)
        geo = contains_fixed(inst.pattern, inst.target) is not None
        if geo != brute_solve("ov", (A, B)):
            bad += 1
    _report("criterion 2c (100 orthogonal-vector round-trips)", bad == 0,
            f"{bad} disagreement(s)")


def test_criterion_3_rank_space_equivalence():
    rng = random.Random(SEED + 4)
    bad = 0
    checked = 0
    for _ in range(50):
        pattern, target = random_instance_pair(rng, 16, 16, 30)
        prob = _Problem(pattern, target)
        crits = critical_values(prob.cs)
        samples = []
        for i, c in enumerate(crits):
            samples.append(c)
            nxt = crits[i + 1] if i + 1 < len(crits) else c / 2
            samples.append((c + nxt) / 2)
            if len(samples) >= 20:
                break
        for lam in samples[:20]:
            closed = covers_box(list(rank_snapshot(prob.cs, lam).values()),
                                prob.cs.rank_box)
            open_cover = find_hole(prob, lam) is None
            checked += 1
            if closed != open_cover:
                bad += 1
    _report("criterion 3 (rank-space equivalence)", bad == 0,
            f"{bad} disagreement(s) over {checked} sampled scales")


def test_criterion_4_dynamic_differential():
    rng = random.Random(SEED + 5)
    bad = 0
    for _ in range(200):
        n = rng.randint(10, 200)
        length = rng.randint(50, 2000)
        width = rng.randint(max(4, n // 2), 2 * n)
        tp = random_trace(rng, n, length, width)
        if (area_after_each(tp, "naive") != area_after_each(tp, "oy")
                or first_uncover(tp, "naive") != first_uncover(tp, "oy")):
            bad += 1
    _report("criterion 4 (200-trace differential)", bad == 0,
            f"{bad} disagreement(s)")


def test_criterion_5_update_count_bound(core_batch):
    bad = 0
    for inst in core_batch:
        prob = _Problem(inst.pattern, inst.target)
        plan = build_sweep(prob.cs).drain()  # full sweep, no cap
        nx = len(prob.cs.x_entries)
        ny = len(prob.cs.y_entries)
        if len(split_moves(plan.updates)[0]) > 8 * (nx * nx + ny * ny):
            bad += 1
    _report("criterion 5 (update-count bound on criterion-1 instances)",
            bad == 0, f"{bad} violation(s)")


def test_criterion_6_scaling_demonstration(tmp_path):
    sizes = (50, 100, 200, 400)
    pattern = unit_square()
    t_fast, t_base = [], []
    rows = []
    for q in sizes:
        target = comb_polygon(q, random.Random(q))
        reps = 3 if q <= 200 else 2
        best_f = best_b = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            fast = sweep(pattern, target, "oy")
            t1 = time.perf_counter()
            base = max_scale_baseline(pattern, target)
            t2 = time.perf_counter()
            assert fast.lambda_star == base.lambda_star
            best_f = min(best_f, t1 - t0)
            best_b = min(best_b, t2 - t1)
        t_fast.append(best_f)
        t_base.append(best_b)
        rows.append((len(pattern), q, fast.stats.criticals, fast.stats.updates,
                     best_f * 1000, best_b * 1000))
    csv_path = tmp_path / "bench.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("p,q,L,updates,t_fast_ms,t_base_ms\n")
        for row in rows:
            fh.write(",".join(f"{v:.3f}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    logq = np.log(sizes)
    slope_fast = float(np.polyfit(logq, np.log(t_fast), 1)[0])
    slope_base = float(np.polyfit(logq, np.log(t_base), 1)[0])
    print(f"\n  bench csv at {csv_path}")
    for row in rows:
        print(f"  p={row[0]} q={row[1]} L={row[2]} updates={row[3]} "
              f"fast={row[4]:.1f}ms base={row[5]:.1f}ms")
    _report("criterion 6 (log-log slope gap >= 0.4)",
            slope_base - slope_fast >= 0.4,
            f"slopes: sweep {slope_fast:.2f} vs baseline {slope_base:.2f}")


def _grid_union_area_int(rects: list[AxisRect], box: AxisRect) -> int:
    """Cell-grid brute force: mark each rectangle's cells, sum cell areas."""
    xs = sorted({int(box.x0), int(box.x1)}
                | {int(v) for r in rects for v in (r.x0, r.x1)
                   if box.x0 < v < box.x1})
    ys = sorted({int(box.y0), int(box.y1)}
                | {int(v) for r in rects for v in (r.y0, r.y1)
                   if box.y0 < v < box.y1})
    grid = np.zeros((len(xs) - 1, len(ys) - 1), dtype=bool)
    for r in rects:
        i0 = bisect_left(xs, max(r.x0, box.x0))
        i1 = bisect_left(xs, min(r.x1, box.x1))
        j0 = bisect_left(ys, max(r.y0, box.y0))
        j1 = bisect_left(ys, min(r.y1, box.y1))
        if i0 < i1 and j0 < j1:
            grid[i0:i1, j0:j1] = True
    wx = np.diff(np.array(xs, dtype=np.int64))
    wy = np.diff(np.array(ys, dtype=np.int64))
    return int((wx[:, None] * wy[None, :] * grid).sum())


def test_criterion_7_static_oracle():
    rng = random.Random(SEED + 6)
    box = AxisRect(Fraction(0), Fraction(100), Fraction(0), Fraction(100))
    bad = 0
    for _ in range(500):
        rects = []
        for _ in range(rng.randint(0, 60)):
            x0 = rng.randint(0, 99)
            y0 = rng.randint(0, 99)
            rects.append(AxisRect(Fraction(x0), Fraction(rng.randint(x0 + 1, 100)),
                                  Fraction(y0), Fraction(rng.randint(y0 + 1, 100))))
        if union_area(rects, box) != _grid_union_area_int(rects, box):
            bad += 1
    _report("criterion 7 (static union vs cell grid, 500 instances)",
            bad == 0, f"{bad} disagreement(s)")


def test_criterion_8_maximality_and_invariance(core_batch):
    zero = Point(Fraction(0), Fraction(0))
    bad = 0
    for inst in core_batch:
        if not inst.fast.feasible:
            bad += 1
            continue
        lam_star = inst.fast.lambda_star
        prob = _Problem(inst.pattern, inst.target)
        pb = prob.pat_box
        qb = prob.box
        for lam in critical_values(prob.cs):
            if lam <= lam_star:
                break
            if lam > prob.bbox_cap:
                # infeasible outright: the scaled bounding box cannot fit
                if lam * pb.width <= qb.width and lam * pb.height <= qb.height:
                    bad += 1
            elif find_hole(prob, lam) is not None:
                bad += 1
        if max_scale(inst.pattern, inst.target.translated(Point(Fraction(17), Fraction(-9)))
                     ).lambda_star != lam_star:
            bad += 1
        if max_scale(inst.pattern.translated(Point(Fraction(-3), Fraction(8))),
                     inst.target).lambda_star != lam_star:
            bad += 1
        tripled = transform(inst.target, Placement(Fraction(3), zero))
        if max_scale(inst.pattern, tripled).lambda_star != 3 * lam_star:
            bad += 1
    _report("criterion 8 (maximality, translation and scaling invariance)",
            bad == 0, f"{bad} violation(s)")
