"""Placement solvers for rectilinear polygons under scaling and translation.

Five user-facing entry points:

* :func:`verify_containment`: direct O(p'q') pairwise check of a placement.
* :func:`contains_fixed`: can the pattern be translated (scale 1) into the
  target? Returns a feasible translation or None.
* :func:`max_scale`: the largest feasible scale, found by sweeping the
  critical scales in descending order while an offline dynamic cover
  structure tracks the rank-space forbidden rectangles.
* :func:`max_scale_baseline`: same answer via an independent route, running
  the exact static coverage test (:func:`find_hole`, prefix sums over a
  difference grid of the split values that each forbidden rectangle marks
  at its four corners) at every critical scale.
* :func:`max_scale_x`: translation restricted to the x axis with the
  bounding-box bottoms kept aligned, by a 1-D descending sweep that moves
  the active pairs' intervals and the bands L and R outside the
  translation box over one cell count whose zeros are counted live; the
  first zero cell gives the witness.

All solvers center both polygons on their bounding-box centers first, so
translations are expressed between the centered frames and results are
invariant under translating either input.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import dyncover
from .decompose import cover_complement, cover_interior, padded_frame
from .forbidden import (CoordSets, Descent, SweepPlan, build_sweep, coordinate_functions,
                        critical_values)
from .geometry import (AxisRect, NonPositiveScale, OrthoPolygon, Point,
                       Rational, normalize_center, rat, rat_str)


@dataclass
class SolveStats:
    criticals: int = 0
    updates: int = 0  # max_scale only: the plan's moves up to the failing query, or all
    queries: int = 0
    skipped: int = 0  # criticals above the bbox-fit cap, infeasible without a query

    def to_obj(self) -> dict:
        return {"criticals": self.criticals, "updates": self.updates,
                "queries": self.queries, "skipped": self.skipped}


@dataclass
class PlacementResult:
    status: str  # "feasible" | "infeasible"
    lambda_star: Rational | None = None
    witness: Point | None = None
    stats: SolveStats = field(default_factory=SolveStats)
    lambda_sup: Rational | None = None  # smallest critical when infeasible

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def to_obj(self) -> dict:
        obj = {"status": self.status, "stats": self.stats.to_obj()}
        obj["lambda"] = rat_str(self.lambda_star) if self.lambda_star is not None else None
        if self.witness is not None:
            obj["tau"] = [rat_str(self.witness.x), rat_str(self.witness.y)]
        else:
            obj["tau"] = None
        if self.lambda_sup is not None:
            obj["lambda_sup"] = rat_str(self.lambda_sup)
        return obj


class _Problem:
    """Centered covers, their coordinate functions ``cs`` and the bbox-fit cap.

    The translation box is B(lam) (see :func:`coordinate_functions`): it keeps
    the scaled pattern's bounding box inside the target's, so only the cover
    of ``bbox(target) \\ target`` is needed. B(lam) is empty above
    ``bbox_cap``, so no larger scale is feasible.
    """

    __slots__ = ("pcov", "qcov", "box", "cs", "bbox_cap", "pat_box")

    def __init__(self, pattern: OrthoPolygon, target: OrthoPolygon):
        pattern, _ = normalize_center(pattern)
        target, _ = normalize_center(target)
        self.pat_box = pb = pattern.bounding_box()
        self.box = qb = target.bounding_box()
        self.pcov = cover_interior(pattern)
        self.qcov = cover_complement(target)
        self.cs = coordinate_functions(self.pcov, self.qcov, qb)
        self.bbox_cap = min(qb.width / pb.width, qb.height / pb.height)

    def fit_box(self, lam: Rational) -> AxisRect:
        """B(lam) in rationals; ``lam`` must be at most ``bbox_cap``."""
        pb, qb = self.pat_box, self.box
        return AxisRect(qb.x0 - lam * pb.x0, qb.x1 - lam * pb.x1,
                        qb.y0 - lam * pb.y0, qb.y1 - lam * pb.y1)


def find_hole(prob: _Problem, lam: Rational) -> Point | None:
    """Exact per-scale coverage test: the least free translation in B(lam).

    Returns the lexicographically least point (least x, then least y), in
    centered frames, of the box B(lam) that lies in no open forbidden
    rectangle, or None when B(lam) is fully covered or, above the bbox-fit
    cap, empty. The rectangles are open, so the free part of B is closed:
    the point exists when that part is not empty, and its coordinates are
    split values, B's sides or sides of rectangles meeting B inside it.
    Holes of a single point at shared boundaries, that is boundary-contact
    placements, are found exactly.

    The test counts the cover of every pair of split values at once. A
    rectangle covers the split values strictly between its sides, x indices
    start..stop-1 by y indices a..b-1, and marks the corners of that block
    on an (nx+1) x (ny+1) difference grid: +1 at (start, a) and (stop, b),
    -1 at (start, b) and (stop, a). Two integer ``bincount`` passes count
    the marks, prefix sums along both axes turn them into each pair's count,
    and one ``argmin`` over the nx x ny block in row-major order finds the
    first zero: the least x, then the least y. The grid holds O(nx * ny)
    int64 counts.
    """
    num, den = lam.numerator, lam.denominator
    bx0, bx1, by0, by1 = (a * num + b * den for a, b in prob.cs.box_sides)
    if bx0 > bx1 or by0 > by1:
        return None
    xset, yset, rects = {bx0, bx1}, {by0, by1}, []
    for (xa, xb, Xa, Xb, ya, yb, Ya, Yb) in prob.cs.sides:
        lo = xa * num + xb * den
        hi = Xa * num + Xb * den
        clo = ya * num + yb * den
        chi = Ya * num + Yb * den
        if lo < hi and lo < bx1 and hi > bx0 and clo < chi and clo < by1 and chi > by0:
            rects.append((lo, hi, clo, chi))
            if lo > bx0:
                xset.add(lo)
            if hi < bx1:
                xset.add(hi)
            if clo > by0:
                yset.add(clo)
            if chi < by1:
                yset.add(chi)
    xs = sorted(xset)
    ys = sorted(yset)
    nx, ny = len(xs), len(ys)
    xk = {v: k for k, v in enumerate(xs)}
    yk = {v: k for k, v in enumerate(ys)}

    # flat row-major indices of the block's corners; an empty block's marks cancel
    w = ny + 1
    plus, minus = [], []
    for lo, hi, clo, chi in rects:
        a = yk[clo] + 1 if clo >= by0 else 0
        b = yk[chi] if chi <= by1 else ny
        start = (xk[lo] + 1) * w if lo >= bx0 else 0
        stop = xk[hi] * w if hi <= bx1 else nx * w
        plus += (start + a, stop + b)
        minus += (start + b, stop + a)
    size = (nx + 1) * w
    cnt = np.bincount(plus, minlength=size)
    cnt -= np.bincount(minus, minlength=size)
    cnt = cnt.reshape(nx + 1, w)
    np.cumsum(cnt, axis=0, out=cnt)
    np.cumsum(cnt, axis=1, out=cnt)
    k = int(cnt[:nx, :ny].argmin())  # counts are >= 0: the first zero
    i, j = divmod(k, ny)
    if cnt[i, j]:
        return None
    scale = den * prob.cs.scale
    return Point(Fraction(xs[i], scale), Fraction(ys[j], scale))


def _fits(prects: Sequence[AxisRect], qrects: Sequence[AxisRect], box: AxisRect,
          lam: Rational, tau: Point) -> bool:
    """Pairwise check of a placement between centered covers.

    True iff ``tau`` lies in ``box`` and no interior rectangle of the
    pattern, scaled by ``lam`` and translated by ``tau``, meets the interior
    of a complement rectangle (boundary contact allowed).
    """
    if not box.contains_point(tau):
        return False
    for pr in prects:
        sx0 = lam * pr.x0 + tau.x
        sx1 = lam * pr.x1 + tau.x
        sy0 = lam * pr.y0 + tau.y
        sy1 = lam * pr.y1 + tau.y
        for qr in qrects:
            if (max(sx0, qr.x0) < min(sx1, qr.x1)
                    and max(sy0, qr.y0) < min(sy1, qr.y1)):
                return False
    return True


def verify_containment(pattern: OrthoPolygon, target: OrthoPolygon,
                       lam: Rational, tau: Point) -> bool:
    """Exact containment check of the placement, independent of the sweep.

    Both polygons are centered internally; ``tau`` translates the centered
    scaled pattern within the centered target. Unlike the solvers, the check
    does not use the translation box B(lam): it requires ``tau`` in the
    target's bounding box and tests the pattern's cover pairwise (see
    :func:`_fits`) against the cover of ``bbox \\ target`` plus the four bands
    of a frame padded for ``lam``.
    """
    lam = rat(lam)
    if lam <= 0:
        raise NonPositiveScale(str(lam))
    tau = Point(rat(tau.x), rat(tau.y))
    pattern_c, _ = normalize_center(pattern)
    target_c, _ = normalize_center(target)
    bands = padded_frame(target_c, pattern_c.bounding_box(), lam)
    return _fits(cover_interior(pattern_c).rects, cover_complement(target_c).rects + bands,
                 target_c.bounding_box(), lam, tau)


def contains_fixed(pattern: OrthoPolygon, target: OrthoPolygon) -> Point | None:
    """A feasible translation of the unscaled pattern into the target, or None."""
    prob = _Problem(pattern, target)
    return find_hole(prob, Fraction(1))


def max_scale(pattern: OrthoPolygon, target: OrthoPolygon,
              impl: str = "naive") -> PlacementResult:
    """Largest scale at which the pattern fits into the target.

    Streams the descending-sweep trace of rank-space rectangles into the
    offline dynamic cover structure (``impl``: "naive", the query-driven
    counting grid, or "oy", Overmars-Yap slabs), which stops at the first
    critical whose snapshot leaves a hole. The plan is extended only as far
    as the engine asks, one critical at a time until it holds the next query
    position, and the engine trusts it without re-checking its moves. Both
    engines are built once, with an nx x ny count over the rank box. The
    naive grid is the default because it is the faster engine on the comb
    family, whose answers sit at the last critical. The witness is the
    translation that the exact static test (:func:`find_hole`) finds at
    that scale.

    ``stats.criticals`` counts every critical of the walk and
    ``stats.updates`` the plan's moves up to the failing query, or all of
    them when the instance is infeasible.
    """
    return _max_scale_and_plan(pattern, target, impl)[0]


def _max_scale_and_plan(pattern: OrthoPolygon, target: OrthoPolygon,
                        impl: str) -> tuple[PlacementResult, SweepPlan]:
    """:func:`max_scale`, also returning the sweep plan as far as it was built."""
    prob = _Problem(pattern, target)
    plan = build_sweep(prob.cs, start_below=prob.bbox_cap)
    stats = SolveStats(criticals=plan.total, skipped=plan.skipped_above)

    failed, applied = dyncover.run_plan(plan.box_cells, plan.live_bound,
                                        plan.initial, plan.updates,
                                        plan.query_pos, impl, more=plan.extend)
    if failed is None:
        stats.queries = len(plan.query_pos)
        stats.updates = len(plan.updates)
        sup = Fraction(*plan.criticals[-1]) if plan.criticals else None
        return PlacementResult("infeasible", stats=stats, lambda_sup=sup), plan

    stats.queries = failed + 1
    stats.updates = applied
    lam = Fraction(*plan.criticals[failed])
    tau = find_hole(prob, lam)
    if tau is None:
        raise RuntimeError("internal inconsistency: the sweep reported a hole "
                           "the static test cannot find")
    if not _fits(prob.pcov.rects, prob.qcov.rects, prob.fit_box(lam), lam, tau):
        raise RuntimeError("internal inconsistency: witness fails verification")
    return PlacementResult("feasible", lam, tau, stats), plan


def max_scale_baseline(pattern: OrthoPolygon, target: OrthoPolygon) -> PlacementResult:
    """Reference solver: run the static coverage test at every critical scale."""
    prob = _Problem(pattern, target)
    crits = critical_values(prob.cs)
    # the criticals descend: those above the bbox-fit cap come first
    skip = bisect_left(crits, -prob.bbox_cap, key=operator.neg)
    stats = SolveStats(criticals=len(crits), skipped=skip)
    for lam in crits[skip:]:
        stats.queries += 1
        tau = find_hole(prob, lam)
        if tau is not None:
            return PlacementResult("feasible", lam, tau, stats)
    return PlacementResult("infeasible", stats=stats,
                           lambda_sup=crits[-1] if crits else None)


_OPEN, _CLOSE, _MARK = -1, -2, -3  # tags of the x-only events other than meets


def _x_events(cs: CoordSets) -> tuple[list[tuple[int, int, int, int]], list[tuple]]:
    """Each pair's activity, and the x-only candidates other than the x meets.

    Pair j's activity ``acts[j]`` is (a1, c1, a2, c2): it is active iff
    a1*lam < c1 and a2*lam > c2, that is while B's bottom lies inside its
    open y interval. The events are (db, da, tag, j): at the scale db / da,
    pair j's activity interval opens (``_OPEN``) or closes (``_CLOSE``), or
    the scale is a candidate that changes nothing (``_MARK``).
    """
    (ya0, yb0), (ya1, yb1) = cs.box_sides[2:]
    acts = [(ya0 - Ya, Yb - yb0, ya0 - ya, yb - yb0)
            for (_, _, _, _, ya, yb, Ya, Yb) in cs.sides]
    # B's bottom and top meet at h_Q / h_P, where ya0 - ya1 is a y alpha difference
    events = [(yb1 - yb0, ya0 - ya1, _MARK, 0)]
    for j, (a1, c1, a2, c2) in enumerate(acts):
        # ya0 is the largest y alpha, so the slopes are alpha differences >= 0
        # and the keys are exact; as the scale falls, the activity interval
        # (c2 / a2, c1 / a1) opens at c1 / a1 and closes at c2 / a2
        if a1 < 0 or a2 < 0:
            raise RuntimeError("internal inconsistency: negative activity slope")
        live = c2 * a1 < c1 * a2  # the interval is not empty
        if a1 and c1 > 0:
            events.append((c1, a1, _OPEN if live else _MARK, j))
        if a2 and c2 > 0:
            events.append((c2, a2, _CLOSE if live else _MARK, j))
    return acts, events


class _ZeroCount:
    """A plain count over the cells 1..size, with its zero cells counted live.

    ``zeros`` is the number of cells 1..size that hold 0. Intervals of cells
    move by the cells between their old and new ends, so a step costs only
    the cells that changed.
    """

    __slots__ = ("cnt", "zeros")

    def __init__(self, size: int):
        self.cnt = [0] * (size + 1)
        self.zeros = size

    def _add(self, a: int, b: int, d: int) -> None:
        """Add d (1 or -1) to the cells a..b."""
        cnt = self.cnt
        crossed = 1 if d > 0 else 0  # a cell leaves 0 at 1, or reaches 0
        for c in range(a, b + 1):
            v = cnt[c] = cnt[c] + d
            if v == crossed:
                self.zeros -= d

    def move(self, old: tuple[int, int] | None, new: tuple[int, int] | None) -> None:
        """Replace the interval of cells ``old`` by ``new`` (None: no interval)."""
        if old is None or new is None or old[1] < new[0] or new[1] < old[0]:
            if old is not None:
                self._add(old[0], old[1], -1)
            if new is not None:
                self._add(new[0], new[1], 1)
            return
        (o0, o1), (n0, n1) = old, new
        if n0 < o0:
            self._add(n0, o0 - 1, 1)
        elif o0 < n0:
            self._add(o0, n0 - 1, -1)
        if o1 < n1:
            self._add(o1 + 1, n1, 1)
        elif n1 < o1:
            self._add(n1 + 1, o1, -1)


def max_scale_x(pattern: OrthoPolygon, target: OrthoPolygon) -> PlacementResult:
    """Largest scale with translation restricted to the x axis.

    The vertical translation is forced to keep the bounding-box bottoms
    aligned: it is the bottom side of the translation box B(lam). Cover pair
    i is active while B's bottom lies inside its open y interval, that is on
    an open scale interval (c2 / a2, c1 / a1), and then forbids its open x
    interval. The candidate scales are the activity endpoints, all pairwise
    meeting points of the x side functions (B's included) and the scale
    where B's bottom and top meet (see :func:`_x_events`).

    The candidates at most the bbox-fit cap are the criticals of the x
    axis's :class:`~polyplace.forbidden.Descent`, the other candidates its
    extra events. Over the walk's x order, a plain count (a list of ints,
    :class:`_ZeroCount`) covers the x rank cells with the active pairs'
    open intervals and with the 2-D plan's bands L and R, each encoded as
    in :func:`~polyplace.forbidden.build_sweep`; the bands hold the cells
    outside B's x range, so the count's zero cells are the free cells of
    B. At each candidate the pairs whose interval closes there are
    deactivated and re-put with the keys of the tied x nodes, bands
    included (an inactive pair holds no cells), and the zero count read;
    then the ties are resolved below it, the pairs whose interval opens
    there activated and re-put, and so are the active keys whose side reads
    a rank the resolution changed. A re-put moves the
    key's cells from its old interval to its new one, touching only the
    strips between their ends (both whole intervals only when they do not
    overlap, as on an open or a close), so a candidate costs the cells that
    moved, not B's width.
    At the first candidate with a zero cell, the witness is read off the
    count: the first zero cell lies in the rank group of the least point
    of B's x extent that no active pair covers, and the witness is that
    group's value, checked pairwise.
    """
    prob = _Problem(pattern, target)
    cs = prob.cs
    xaxis = cs.xaxis
    n = cs.n_rects
    acts, extra = _x_events(cs)
    walk = Descent(cs, (xaxis,), prob.bbox_cap, extra)
    stats = SolveStats(criticals=walk.total, skipped=walk.skipped)
    num, den = walk.start
    active = [a1 * num < c1 * den and a2 * num > c2 * den for a1, c1, a2, c2 in acts]
    active += (True, True)  # the bands L and R, keys n and n + 1
    order, lo, hi = walk.states[0].order, walk.states[0].lo, walk.states[0].hi
    bx0, bx1 = xaxis.node_of["box", 0], xaxis.node_of["box", 1]
    rect_nodes = cs.rect_nodes
    wx2 = cs.rank_box[0]
    count = _ZeroCount(wx2)
    cells: list[tuple[int, int] | None] = [None] * (n + 2)  # what each key adds to the count

    def reput(key: int) -> None:
        new = None
        if key == n:
            new = (1, 2 * lo[bx0] - 1)
        elif key > n:
            new = (2 * hi[bx1], wx2)
        elif active[key]:
            x_lo, x_hi = 2 * hi[rect_nodes[key][0]], 2 * lo[rect_nodes[key][1]] - 1
            if x_lo <= x_hi:
                new = (x_lo, x_hi)
        old = cells[key]
        if new != old:
            count.move(old, new)
            cells[key] = new

    for key in range(n + 2):
        reput(key)

    for db, da, (met,), extras in walk:
        tied = {k for node in met for k in xaxis.keys[node] if active[k]}
        for _, _, tag, j in extras:
            if tag == _CLOSE:
                active[j] = False
                tied.add(j)
        for k in tied:
            reput(k)
        stats.queries += 1
        if count.zeros:
            break
        tied = {k for k in walk.below() if active[k]}
        for _, _, tag, j in extras:
            if tag == _OPEN:
                active[j] = True
                tied.add(j)
        for k in tied:
            reput(k)
    else:
        # the walk is never empty: B's sides meet at the cap, on x or at h_Q / h_P
        if not stats.queries:
            raise RuntimeError("internal inconsistency: the x-only walk has no candidate")
        return PlacementResult("infeasible", stats=stats, lambda_sup=Fraction(db, da))

    # rank r holds the cells 2r - 1 and 2r; the node of the first zero's rank
    r = (count.cnt.index(0, 1) + 1) // 2
    node = order[bisect_right(order, r, key=lo.__getitem__) - 1]
    lam = Fraction(db, da)
    box = prob.fit_box(lam)
    x = xaxis.alphas[node] * db + xaxis.betas[node] * da
    tau = Point(Fraction(x, da * cs.scale), box.y0)
    if not _fits(prob.pcov.rects, prob.qcov.rects, box, lam, tau):
        raise RuntimeError("internal inconsistency: 1D witness fails verification")
    return PlacementResult("feasible", lam, tau, stats)
