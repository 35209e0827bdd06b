"""Random and parametric test instances.

Random rectilinear polygons come from random polyominoes: grow a cell set
that never creates a diagonal pinch, fill enclosed holes, trace the single
boundary loop, then stretch the lattice through random strictly increasing
coordinate maps so edge lengths vary.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .geometry import OrthoPolygon, PolygonError, validate_polygon

_DIAGS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_ORTHO = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _diag_ok(cells: set, c: tuple[int, int]) -> bool:
    x, y = c
    for dx, dy in _DIAGS:
        d = (x + dx, y + dy)
        if d in cells and (x + dx, y) not in cells and (x, y + dy) not in cells:
            return False
    return True


def _grow_polyomino(rng: random.Random, target: int) -> set:
    cells = {(0, 0)}
    order = [(0, 0)]
    attempts = 0
    while len(cells) < target and attempts < 200:
        base = order[rng.randrange(len(order))]
        dx, dy = _ORTHO[rng.randrange(4)]
        cand = (base[0] + dx, base[1] + dy)
        attempts += 1
        if cand in cells or not _diag_ok(cells, cand):
            continue
        cells.add(cand)
        order.append(cand)
        attempts = 0
    return cells


def _fill_holes(cells: set) -> set:
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    outside = set()
    stack = [(x0, y0)]
    while stack:
        c = stack.pop()
        if c in outside or c in cells:
            continue
        if not (x0 <= c[0] <= x1 and y0 <= c[1] <= y1):
            continue
        outside.add(c)
        stack.extend((c[0] + dx, c[1] + dy) for dx, dy in _ORTHO)
    filled = set(cells)
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            if (x, y) not in outside:
                filled.add((x, y))
    return filled


def _trace_boundary(cells: set) -> list[tuple[int, int]] | None:
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    count = 0
    for (x, y) in cells:
        if (x, y - 1) not in cells:
            succ[(x, y)] = (x + 1, y)
            count += 1
        if (x + 1, y) not in cells:
            succ[(x + 1, y)] = (x + 1, y + 1)
            count += 1
        if (x, y + 1) not in cells:
            succ[(x + 1, y + 1)] = (x, y + 1)
            count += 1
        if (x - 1, y) not in cells:
            succ[(x, y + 1)] = (x, y)
            count += 1
    if len(succ) != count:
        return None  # a lattice point with two outgoing edges: boundary pinch
    start = min(succ)
    loop = [start]
    cur = succ[start]
    while cur != start:
        loop.append(cur)
        cur = succ.get(cur)
        if cur is None or len(loop) > count:
            return None
    if len(loop) != count:
        return None  # more than one boundary loop
    return loop


def random_orthogonal_polygon(rng: random.Random, max_vertices: int = 20,
                              span: int = 50) -> OrthoPolygon:
    """Random simple rectilinear polygon with at most ``max_vertices`` corners
    and integer coordinates within [-span, span]."""
    while True:
        # a polyomino of c cells has at most 2c + 2 corners
        target = rng.randint(1, max(1, (max_vertices - 2) // 2))
        cells = _fill_holes(_grow_polyomino(rng, target))
        loop = _trace_boundary(cells)
        if loop is None:
            continue
        xs = sorted({p[0] for p in loop})
        ys = sorted({p[1] for p in loop})
        if len(xs) > 2 * span or len(ys) > 2 * span:
            continue
        xmap = dict(zip(xs, sorted(rng.sample(range(-span, span + 1), len(xs)))))
        ymap = dict(zip(ys, sorted(rng.sample(range(-span, span + 1), len(ys)))))
        try:
            poly = validate_polygon([(xmap[x], ymap[y]) for x, y in loop])
        except PolygonError:
            continue
        if len(poly) <= max_vertices:
            return poly


def comb_polygon(vertices: int, rng: random.Random | None = None) -> OrthoPolygon:
    """Comb with exactly ``vertices`` corners (any even count >= 8).

    Teeth sit at irregular random positions with random heights on the scale
    of the comb's width, so the pairwise coordinate differences (and with
    them the critical scales of a placement instance) are mostly distinct;
    regular spacing would collapse them to a linear number of values.
    """
    if vertices < 8 or vertices % 2:
        raise ValueError("vertex count must be an even number >= 8")
    rng = rng or random.Random(0)
    teeth = (vertices - 4) // 4
    stepped = (vertices - 4) % 4 == 2
    # teeth on a random subset of a Sidon set: pairwise position differences
    # are all distinct, so no two tooth pairs share a critical scale
    prime = 2 * teeth + 1
    while any(prime % f == 0 for f in range(2, int(prime ** 0.5) + 1)):
        prime += 1
    sidon = [2 * prime * i + (i * i) % prime for i in range(prime)]
    starts = sorted(rng.sample(sidon, teeth))
    starts = [s + 1 for s in starts]
    width = starts[-1] + 2 if teeth else 5
    heights = rng.sample(range(2, max(10, width)), teeth)

    verts: list[tuple] = [(0, 0), (width, 0), (width, 1)]
    for i in range(teeth - 1, -1, -1):
        lo, hi = starts[i], starts[i] + 1
        h = heights[i]
        if stepped and i == 0:
            h2 = h + 1
            verts += [(hi, 1), (hi, h), (Fraction(2 * lo + 1, 2), h),
                      (Fraction(2 * lo + 1, 2), h2), (lo, h2), (lo, 1)]
        else:
            verts += [(hi, 1), (hi, h), (lo, h), (lo, 1)]
    verts.append((0, 1))
    poly = validate_polygon(verts)
    if len(poly) != vertices:
        raise RuntimeError(f"comb has {len(poly)} corners, expected {vertices}")
    return poly


def unit_square() -> OrthoPolygon:
    return validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def random_instance_pair(rng: random.Random, max_p: int = 20, max_q: int = 20,
                         span: int = 50) -> tuple[OrthoPolygon, OrthoPolygon]:
    """A pattern/target pair; the pattern is drawn on a tighter coordinate
    range so nontrivial scale factors are typical."""
    pattern = random_orthogonal_polygon(rng, max_p, span=rng.randint(2, max(3, span // 5)))
    target = random_orthogonal_polygon(rng, max_q, span=span)
    return pattern, target
