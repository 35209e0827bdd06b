"""Seeded instances of the benchmark workloads, and the checks on their answers.

Every instance is a pair of polygons; the solvers see nothing else. The
generator inputs that an independent oracle needs (``brute_solve``) stay on
the benchmark side.

* ``comb-deep``: the answer sits at or next to the last critical, so the
  whole sweep plan runs. Seed 0 gives the combs of acceptance criterion 6
  (``comb_polygon(q, random.Random(q))``), whose q = 200 plan has 3,536
  criticals and 19,954 updates. A unit square in a q = 400 comb goes to the
  x-only solver alone, which then scans nearly all of its ~13,500
  candidates, so that the x-only pass takes over a second, not ~0.25 s.
* ``random-early``: criterion 1's distribution; most solves end after a few
  queries, so the plan and the engine's first build are mostly wasted work.
* ``gadget-ties``: hardness gadgets with multi-way ties and large integer
  axis scales; the x-only solver runs on progression gadgets with large
  integer coordinates. Sizes are fixed (4-element sets, 24/26/28/30-element
  progression inputs) so that the cost of a pass depends little on the
  seed; for the same reason only the smallest progression input gets a
  planted progression, since where a YES answer is found varies widely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from polyplace.geometry import OrthoPolygon, validate_polygon
from polyplace.hardness import brute_solve, gen_average, gen_foursum
from polyplace.instances import comb_polygon, random_instance_pair, unit_square
from polyplace.solver import verify_containment

MAX_SCALE = "max_scale"
BASELINE = "max_scale_baseline"
MAX_SCALE_X = "max_scale_x"
ALL_SOLVERS = (MAX_SCALE, BASELINE, MAX_SCALE_X)

RANDOM_PAIRS = 1000
AVERAGE_SIZES = (24, 26, 28, 30)


@dataclass
class Instance:
    label: str
    pattern: OrthoPolygon
    target: OrthoPolygon
    solvers: tuple[str, ...]
    kind: str | None = None            # "foursum" | "average": brute_solve applies
    inputs: object = None              # brute_solve's inputs for ``kind``
    threshold: Fraction | None = None  # answer is YES iff lambda* >= threshold


def staircase(steps: int) -> OrthoPolygon:
    """Monotone staircase of ``steps`` unit steps; its interior cover has
    ``steps`` rectangles."""
    verts = [(0, 0), (steps, 0)]
    for k in range(steps, 0, -1):
        verts += [(k, steps - k + 1), (k - 1, steps - k + 1)]
    return validate_polygon(verts)


def comb_deep(seed: int) -> list[Instance]:
    return [
        Instance("comb200-square", unit_square(),
                 comb_polygon(200, random.Random(1000 * seed + 200)), ALL_SOLVERS),
        Instance("comb50-staircase", staircase(4),
                 comb_polygon(50, random.Random(1000 * seed + 50)), ALL_SOLVERS),
        Instance("comb400-square", unit_square(),
                 comb_polygon(400, random.Random(1000 * seed + 400)), (MAX_SCALE_X,)),
    ]


def random_early(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [Instance(f"pair{i}", *random_instance_pair(rng, 20, 20, 50), ALL_SOLVERS)
            for i in range(RANDOM_PAIRS)]


def _plant(rng: random.Random, values: list[int], planted: tuple[int, ...]) -> None:
    """Put each planted value into ``values`` in place of a random other one."""
    for v in planted:
        if v not in values:
            free = [i for i, w in enumerate(values) if w not in planted]
            values[rng.choice(free)] = v


def gadget_ties(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    for k in range(4):
        sets = [rng.sample(range(-6, 7), 4) for _ in range(4)]
        if k % 2 == 0:  # plant a2 - a1 = b2 - b1
            d = rng.randint(-4, 4)
            a1, b1 = rng.randint(-2, 2), rng.randint(-2, 2)
            for s, v in zip(sets, (a1, a1 + d, b1, b1 + d)):
                _plant(rng, s, (v,))
        gen = gen_foursum(*sets)
        inputs = tuple(gen.ground_truth_inputs[key] for key in ("A1", "A2", "B1", "B2"))
        out.append(Instance(f"foursum{k}", gen.pattern, gen.target,
                            (MAX_SCALE, BASELINE), "foursum", inputs, gen.threshold))
    for k, n in enumerate(AVERAGE_SIZES):
        u = n ** 3
        values = rng.sample(range(-u, u + 1), n)
        if k == 0:  # plant a three-term progression in the smallest set only
            d = rng.randint(1, u // 3)
            a = rng.randint(-u, u - 2 * d)
            _plant(rng, values, (a, a + d, a + 2 * d))
        gen = gen_average(values)
        out.append(Instance(f"average{k}", gen.pattern, gen.target, (MAX_SCALE_X,),
                            "average", gen.ground_truth_inputs["A"], gen.threshold))
    return out


WORKLOADS = {
    "comb-deep": comb_deep,
    "random-early": random_early,
    "gadget-ties": gadget_ties,
}

WHY = {
    "comb-deep": "answer at the last critical, so the whole plan runs: dyncover does "
                 "most of max_scale and the static test most of the baseline",
    "random-early": "criterion 1's random pairs: half end at the first query, so "
                    "dyncover mostly builds and most planned updates are never run",
    "gadget-ties": "hardness gadgets: multi-way ties, 36-bit axis scales, criticals "
                   "skipped above the cap, and big-integer x-only solves",
}


def build(workload: str, seed: int) -> list[Instance]:
    """Generate the workload's instances and validate every polygon again."""
    instances = WORKLOADS[workload](seed)
    for inst in instances:
        for poly in (inst.pattern, inst.target):
            if validate_polygon(poly.vertices) != poly:
                raise ValueError(f"{inst.label}: generator returned a non-canonical polygon")
    return instances


def check_answers(inst: Instance, results: dict) -> list[str]:
    """Names of the solvers whose answer on ``inst`` fails a check.

    ``results`` maps solver name to its PlacementResult. Checks: every witness
    passes ``verify_containment``; ``max_scale`` agrees with
    ``max_scale_baseline`` on status and lambda*; the x-only optimum is at
    most the free one; for gadgets, lambda* >= threshold agrees with
    ``brute_solve``.
    """
    bad = set()
    for name, res in results.items():
        if res.feasible and not verify_containment(inst.pattern, inst.target,
                                                   res.lambda_star, res.witness):
            bad.add(name)
    fast, base, xonly = (results.get(n) for n in ALL_SOLVERS)
    if fast is not None and base is not None and (
            fast.status != base.status or fast.lambda_star != base.lambda_star):
        bad.add(MAX_SCALE)
    if fast is not None and xonly is not None and xonly.feasible and (
            not fast.feasible or xonly.lambda_star > fast.lambda_star):
        bad.add(MAX_SCALE_X)
    if inst.kind is not None:
        name = MAX_SCALE_X if inst.kind == "average" else MAX_SCALE
        res = results[name]
        yes = res.feasible and res.lambda_star >= inst.threshold
        if yes != brute_solve(inst.kind, inst.inputs):
            bad.add(name)
    return sorted(bad)
