"""Instance generators reducing search problems to polygon placement.

Three constructions, each pairing a small pattern polygon with a target
polygon that encodes the input sets, plus exhaustive reference solvers:

* :func:`gen_ov`: two 0/1 vector sets; the pattern fits (unscaled, free
  translation) iff some pair of vectors is orthogonal. Vector gadgets are
  skylines whose section heights encode the bits; separator columns force
  gadget alignment.
* :func:`gen_average`: one integer set; the largest bottom-aligned
  x-translated scale reaches 1 iff the set contains a 3-term arithmetic
  progression. Three upward prongs on the pattern select the three terms.
* :func:`gen_foursum`: four integer sets; the largest freely translated
  scale reaches M - 2U iff a2 - a1 = b2 - b1 has a solution. Four prongs,
  one per side, select one element from each set; the scale transfers the
  horizontal difference to the vertical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import OrthoPolygon, Rational, rat_json, validate_polygon


class NonBinaryVector(ValueError):
    """Vector components must all be 0 or 1 and dimensions must agree."""


class OutOfUniverse(ValueError):
    """An input integer exceeds the declared universe bound."""


@dataclass(frozen=True)
class GenParams:
    universe: int                              # U: integer inputs lie in [-U, U]
    prong_len: Rational | None = None          # pattern prong length
    prong_len_target: Rational | None = None   # target prong length
    half_width: Rational | None = None         # pattern prong half-width
    half_width_target: Rational | None = None  # target prong half-width
    spacing: int | None = None                 # gadget center distance (foursum)
    separator: int | None = None               # separator width (ov)
    dim: int | None = None                     # vector dimension (ov)

    def to_obj(self) -> dict:
        out = {"universe": self.universe}
        for key in ("prong_len", "prong_len_target", "half_width", "half_width_target"):
            val = getattr(self, key)
            if val is not None:
                out[key] = rat_json(val)
        for key in ("spacing", "separator", "dim"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass
class HardInstance:
    pattern: OrthoPolygon
    target: OrthoPolygon
    mode: str  # "fixed-translation" | "scale-x-translation" | "scale-translation"
    threshold: Rational | None
    ground_truth_inputs: dict
    params: GenParams

    def to_obj(self) -> dict:
        return {
            "mode": self.mode,
            "threshold": rat_json(self.threshold) if self.threshold is not None else None,
            "ground_truth_inputs": self.ground_truth_inputs,
            "params": self.params.to_obj(),
        }


def _skyline(columns: Sequence[tuple]) -> OrthoPolygon:
    """Polygon over the x axis with the given (width, height) columns."""
    cols = [(Fraction(w), Fraction(h)) for w, h in columns if w != 0]
    if not cols or any(w <= 0 or h <= 0 for w, h in cols):
        raise ValueError("skyline columns need positive widths and heights")
    total = sum(w for w, _ in cols)
    verts = [(Fraction(0), Fraction(0)), (total, Fraction(0))]
    x = total
    prev_h = None
    for w, h in reversed(cols):
        if prev_h is None:
            verts.append((x, h))
        elif h != prev_h:
            verts.append((x, prev_h))
            verts.append((x, h))
        x -= w
        prev_h = h
    verts.append((Fraction(0), prev_h))
    return validate_polygon(verts)


def _ints(values: Sequence[int]) -> list[int]:
    """The values as a list; each must be an int (a bool or float raises)."""
    values = list(values)
    if any(type(v) is not int for v in values):
        raise TypeError(f"expected integers, got {values!r}")
    return values


def _check_vectors(vectors, what: str) -> int:
    if not vectors:
        raise NonBinaryVector(f"{what} must be nonempty")
    dim = len(vectors[0])
    if dim < 1:
        raise NonBinaryVector("vectors need at least one component")
    for v in vectors:
        if len(v) != dim:
            raise NonBinaryVector("all vectors must share one dimension")
        if any(c not in (0, 1) for c in _ints(v)):
            raise NonBinaryVector(f"non-binary component in {v}")
    return dim


def gen_ov(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> HardInstance:
    """Orthogonal-pair instance: pattern fits the target iff some a._b = 0."""
    dim = _check_vectors(A, "A")
    if _check_vectors(B, "B") != dim:
        raise NonBinaryVector("A and B must share one dimension")
    sep = (len(A) - 1) * (dim + 1) + 1

    pat_cols: list[tuple] = [(1, 3)]
    for a in A:
        pat_cols.extend((1, 1 + bit) for bit in a)
        pat_cols.append((1, 3))
    tgt_cols: list[tuple] = [(sep, 3)]
    for b in B:
        tgt_cols.extend((1, 2 - bit) for bit in b)
        tgt_cols.append((sep, 3))

    params = GenParams(universe=1, separator=sep, dim=dim)
    return HardInstance(
        pattern=_skyline(pat_cols),
        target=_skyline(tgt_cols),
        mode="fixed-translation",
        threshold=None,
        ground_truth_inputs={"A": [list(a) for a in A], "B": [list(b) for b in B]},
        params=params,
    )


def gen_average(A: Sequence[int]) -> HardInstance:
    """3-term progression instance; scale >= 1 in x-translation mode iff YES.

    The pattern is a (2 + 2*eps) x 1 body with three upward prongs whose
    centers sit exactly 1 apart (the outer prongs flush with the body's
    sides, giving 12 vertices). The target is a (2U + 2*delta) x U body with
    one upward prong per input integer, centered on that integer's slot
    among 2U + 1 unit-spaced slots.
    """
    A = sorted(set(_ints(A)))
    n = len(A)
    if n == 0:
        raise OutOfUniverse("input set is empty")
    universe = n ** 3
    if any(abs(a) > universe for a in A):
        raise OutOfUniverse(f"values must lie in [-{universe}, {universe}]")
    U = universe
    length = Fraction(2 * U)
    eps = Fraction(1, 10 * U)
    length_t = U * length
    delta = U * eps  # = 1/10

    w = 2 + 2 * eps
    top = 1 + length
    pattern = validate_polygon([
        (0, 0), (w, 0), (w, top), (w - 2 * eps, top), (w - 2 * eps, 1),
        (1 + 2 * eps, 1), (1 + 2 * eps, top), (1, top), (1, 1),
        (2 * eps, 1), (2 * eps, top), (0, top),
    ])

    cols: list[tuple] = []
    cursor = Fraction(0)
    for a in A:
        start = Fraction(a + U)
        cols.append((start - cursor, U))
        cols.append((2 * delta, U + length_t))
        cursor = start + 2 * delta
    cols.append((2 * U + 2 * delta - cursor, U))
    target = _skyline(cols)

    params = GenParams(universe=U, prong_len=length, prong_len_target=length_t,
                       half_width=eps, half_width_target=delta)
    return HardInstance(pattern, target, "scale-x-translation", Fraction(1),
                        {"A": A}, params)


def gen_foursum(A1: Sequence[int], A2: Sequence[int],
                B1: Sequence[int], B2: Sequence[int],
                universe: int | None = None) -> HardInstance:
    """Equal-difference instance; scale >= M - 2U under free translation iff
    some a1 in A1, a2 in A2, b1 in B1, b2 in B2 satisfy b2 - b1 = a2 - a1.

    Pattern: a side-4 square, prongs down and left at the side centers,
    prong up at horizontal offset 1, prong right at vertical offset 1.
    Target: a side-10M square with one set gadget per side; the top and
    right gadgets are shifted by the spacing M, which the scale must bridge.
    """
    sets = [sorted(set(_ints(s))) for s in (A1, A2, B1, B2)]
    if any(not s for s in sets):
        raise OutOfUniverse("all four sets must be nonempty")
    n = max(len(s) for s in sets)
    top_abs = max(max(abs(v) for v in s) for s in sets)
    U = universe if universe is not None else max(n ** 4, top_abs, 1)
    if top_abs > U:
        raise OutOfUniverse(f"values must lie in [-{U}, {U}]")
    M = 1000 * U * U
    eps = Fraction(1, 800 * M)
    delta = Fraction(1, 400)
    length = Fraction(50)
    length_t = 2 * M * length
    a1s, a2s, b1s, b2s = sets

    L = length
    pattern = validate_polygon([
        (-2, -2), (-eps, -2), (-eps, -2 - L), (eps, -2 - L), (eps, -2), (2, -2),
        (2, 1 - eps), (2 + L, 1 - eps), (2 + L, 1 + eps), (2, 1 + eps), (2, 2),
        (1 + eps, 2), (1 + eps, 2 + L), (1 - eps, 2 + L), (1 - eps, 2), (-2, 2),
        (-2, eps), (-2 - L, eps), (-2 - L, -eps), (-2, -eps),
    ])

    side = 5 * M
    Lt = length_t
    verts: list[tuple] = [(-side, -side)]
    for a in a1s:  # bottom gadget, prongs down, centered at x = a
        verts += [(a - delta, -side), (a - delta, -side - Lt),
                  (a + delta, -side - Lt), (a + delta, -side)]
    verts.append((side, -side))
    for b in b2s:  # right gadget, prongs right, centered at y = M + b
        verts += [(side, M + b - delta), (side + Lt, M + b - delta),
                  (side + Lt, M + b + delta), (side, M + b + delta)]
    verts.append((side, side))
    for a in reversed(a2s):  # top gadget, prongs up, centered at x = M + a
        verts += [(M + a + delta, side), (M + a + delta, side + Lt),
                  (M + a - delta, side + Lt), (M + a - delta, side)]
    verts.append((-side, side))
    for b in reversed(b1s):  # left gadget, prongs left, centered at y = b
        verts += [(-side, b + delta), (-side - Lt, b + delta),
                  (-side - Lt, b - delta), (-side, b - delta)]
    target = validate_polygon(verts)

    params = GenParams(universe=U, prong_len=length, prong_len_target=length_t,
                       half_width=eps, half_width_target=delta, spacing=M)
    return HardInstance(pattern, target, "scale-translation", Fraction(M - 2 * U),
                        {"A1": a1s, "A2": a2s, "B1": b1s, "B2": b2s}, params)


def brute_solve(kind: str, inputs) -> bool:
    """Exhaustive reference answers for the three generated problems."""
    if kind == "ov":
        A, B = inputs
        return any(all(x * y == 0 for x, y in zip(a, b)) for a in A for b in B)
    if kind == "average":
        values = sorted(set(inputs))
        present = set(values)
        for i, a in enumerate(values):
            for c in values[i + 2:]:
                if (a + c) % 2 == 0 and (a + c) // 2 in present:
                    return True
        return False
    if kind == "foursum":
        A1, A2, B1, B2 = inputs
        adiffs = {a2 - a1 for a1 in A1 for a2 in A2}
        return any(b2 - b1 in adiffs for b1 in B1 for b2 in B2)
    raise ValueError(f"unknown kind {kind!r}")
