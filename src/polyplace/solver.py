"""Placement solvers for rectilinear polygons under scaling and translation.

Five user-facing entry points:

* :func:`verify_containment`: direct O(p'q') pairwise check of a placement.
* :func:`contains_fixed`: can the pattern be translated (scale 1) into the
  target? Returns a feasible translation or None.
* :func:`max_scale`: the largest feasible scale, found by sweeping the
  critical scales in descending order while an offline dynamic cover
  structure tracks the rank-space forbidden rectangles.
* :func:`max_scale_baseline`: same answer via an independent route, running
  the exact static coverage test at every critical scale.
* :func:`max_scale_x`: translation restricted to the x axis with the
  bounding-box bottoms kept aligned.

All solvers center both polygons on their bounding-box centers first, so
translations are expressed between the centered frames and results are
invariant under translating either input.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, islice
from operator import itemgetter
from typing import Sequence

import numpy as np

from . import dyncover
from .decompose import cover_complement, cover_interior, padded_frame
from .forbidden import (CoordSets, SweepPlan, _Axis, _AxisState, _axis_events, _key_scale,
                        _start_scale, build_sweep, coordinate_functions,
                        critical_values)
from .geometry import (AxisRect, NonPositiveScale, OrthoPolygon, Point,
                       Rational, normalize_center, rat, rat_str)


@dataclass
class SolveStats:
    criticals: int = 0
    updates: int = 0
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


def _item_span(vals: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Interleaved value/gap items of ``vals`` covered by the open (lo, hi).

    Item 2k is the point vals[k]; item 2k+1 the open gap (vals[k], vals[k+1]).
    Returns an inclusive, possibly empty index range.
    """
    pl = bisect_right(vals, lo)
    pr = bisect_left(vals, hi)
    gl = bisect_left(vals, lo)
    gr = bisect_right(vals, hi) - 1
    return min(2 * pl, 2 * gl + 1), max(2 * pr - 2, 2 * gr - 1)


def _item_value(vals: list[int], item: int, den: int) -> Rational:
    k = item // 2
    if item % 2 == 0:
        return Fraction(vals[k], den)
    return Fraction(vals[k] + vals[k + 1], 2 * den)


def find_hole(prob: _Problem, lam: Rational) -> Point | None:
    """Exact per-scale coverage test on the tie-refined item grid.

    Returns a translation (in centered frames) in the box B(lam) that avoids
    every open forbidden rectangle, or None when B(lam) is fully covered or,
    above the bbox-fit cap, empty. Point-sized holes at shared boundaries are
    represented by the zero-width value items, so boundary-contact placements
    are found exactly.
    """
    num, den = lam.numerator, lam.denominator
    bx0, bx1, by0, by1 = (a * num + b * den for a, b in prob.cs.box_sides)
    if bx0 > bx1 or by0 > by1:
        return None
    rects = []
    for (xa, xb, Xa, Xb, ya, yb, Ya, Yb) in prob.cs.sides:
        lo = xa * num + xb * den
        hi = Xa * num + Xb * den
        if lo >= hi:
            continue
        clo = ya * num + yb * den
        chi = Ya * num + Yb * den
        if clo >= chi:
            continue
        rects.append((lo, hi, clo, chi))

    xset = {bx0, bx1}
    yset = {by0, by1}
    for lo, hi, clo, chi in rects:
        if bx0 < lo < bx1:
            xset.add(lo)
        if bx0 < hi < bx1:
            xset.add(hi)
        if by0 < clo < by1:
            yset.add(clo)
        if by0 < chi < by1:
            yset.add(chi)
    xs = sorted(xset)
    ys = sorted(yset)
    n_xitems = 2 * len(xs) - 1
    n_yitems = 2 * len(ys) - 1

    starts: list[list[tuple[int, int]]] = [[] for _ in range(n_xitems)]
    ends: list[list[tuple[int, int]]] = [[] for _ in range(n_xitems)]
    for lo, hi, clo, chi in rects:
        x_a, x_b = _item_span(xs, lo, hi)
        if x_a > x_b:
            continue
        y_a, y_b = _item_span(ys, clo, chi)
        if y_a > y_b:
            continue
        x_a, x_b = max(x_a, 0), min(x_b, n_xitems - 1)
        y_a, y_b = max(y_a, 0), min(y_b, n_yitems - 1)
        starts[x_a].append((y_a, y_b))
        ends[x_b].append((y_a, y_b))

    cnt = np.zeros(n_yitems, dtype=np.int32)
    zeros = n_yitems
    for i in range(n_xitems):
        for (a, b) in starts[i]:
            region = cnt[a:b + 1]
            zeros -= int(np.count_nonzero(region == 0))
            region += 1
        if zeros:
            j = int(np.flatnonzero(cnt == 0)[0])
            return Point(_item_value(xs, i, den * prob.cs.scale),
                         _item_value(ys, j, den * prob.cs.scale))
        for (a, b) in ends[i]:
            region = cnt[a:b + 1]
            region -= 1
            zeros += int(np.count_nonzero(region == 0))
    return None


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

    Builds the full descending-sweep trace of rank-space rectangles once,
    then lets the offline dynamic cover structure (``impl``: "naive", the
    query-driven counting grid, or "oy", Overmars-Yap slabs) execute it,
    stopping at the first critical whose snapshot leaves a hole. The naive
    grid is the default because it is the faster engine on the comb family,
    whose answers sit at the last critical. The witness is the translation
    that the exact static test (:func:`find_hole`) finds at that scale.
    """
    return _max_scale_and_plan(pattern, target, impl)[0]


def _max_scale_and_plan(pattern: OrthoPolygon, target: OrthoPolygon,
                        impl: str) -> tuple[PlacementResult, SweepPlan]:
    """:func:`max_scale`, also returning the sweep plan it ran."""
    prob = _Problem(pattern, target)
    plan = build_sweep(prob.cs, start_below=prob.bbox_cap)
    stats = SolveStats(criticals=plan.skipped_above + len(plan.criticals),
                       updates=len(plan.updates), skipped=plan.skipped_above)

    failed, _ = dyncover.run_plan(plan.box_cells, plan.live_bound,
                                  plan.initial, plan.updates,
                                  plan.query_pos, impl)
    if failed is None:
        stats.queries = len(plan.query_pos)
        sup = Fraction(*plan.criticals[-1]) if plan.criticals else None
        return PlacementResult("infeasible", stats=stats, lambda_sup=sup), plan

    stats.queries = failed + 1
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
    stats = SolveStats(criticals=len(crits))
    for lam in crits:
        if lam > prob.bbox_cap:
            stats.skipped += 1
            continue
        stats.queries += 1
        tau = find_hole(prob, lam)
        if tau is not None:
            return PlacementResult("feasible", lam, tau, stats)
    return PlacementResult("infeasible", stats=stats,
                           lambda_sup=crits[-1] if crits else None)


_OPEN, _CLOSE, _MARK = -1, -2, -3  # tags of the x-only events other than meets


def _x_events(cs: CoordSets, acts: list[tuple[int, int, int, int]]) -> list[tuple]:
    """The x-only candidates as flat events, largest scale first.

    Events are keyed by their scale as in
    :func:`~polyplace.forbidden._key_scale`. A meet (key, i, j) says that x
    nodes i and j meet there; it leaves out the scale, which follows from
    the two nodes (see :func:`_event_scale`). Any other event is (key, db,
    da, tag, j) at the scale db / da: pair j's activity interval opens
    (``_OPEN``) or closes (``_CLOSE``) there, or the scale is a candidate
    that changes nothing (``_MARK``). ``acts[j]`` is pair j's activity (a1,
    c1, a2, c2): it is active iff a1*lam < c1 and a2*lam > c2.
    """
    m = _key_scale(cs.xaxis, cs.yaxis)
    events = [(db * m // da, i, j) for db, da, i, j in _axis_events(cs.xaxis)]
    # B's bottom and top meet at h_Q / h_P, where ya0 - ya1 is a y alpha difference
    (ya0, yb0), (ya1, yb1) = cs.box_sides[2:]
    events.append(((yb1 - yb0) * m // (ya0 - ya1), yb1 - yb0, ya0 - ya1, _MARK, 0))
    for j, (a1, c1, a2, c2) in enumerate(acts):
        # ya0 is the largest y alpha, so the slopes are alpha differences >= 0
        # and the keys are exact; as the scale falls, the activity interval
        # (c2 / a2, c1 / a1) opens at c1 / a1 and closes at c2 / a2
        if a1 < 0 or a2 < 0:
            raise RuntimeError("internal inconsistency: negative activity slope")
        live = c2 * a1 < c1 * a2  # the interval is not empty
        if a1 and c1 > 0:
            events.append((c1 * m // a1, c1, a1, _OPEN if live else _MARK, j))
        if a2 and c2 > 0:
            events.append((c2 * m // a2, c2, a2, _CLOSE if live else _MARK, j))
    events.sort(key=itemgetter(0), reverse=True)
    return events


def _event_scale(xaxis: _Axis, ev: tuple) -> tuple[int, int]:
    """The scale (db, da), da > 0, of an event of :func:`_x_events`."""
    if len(ev) > 3:
        return ev[1], ev[2]
    _, i, j = ev
    da, db = xaxis.alphas[i] - xaxis.alphas[j], xaxis.betas[j] - xaxis.betas[i]
    return (db, da) if da > 0 else (-db, -da)


def max_scale_x(pattern: OrthoPolygon, target: OrthoPolygon) -> PlacementResult:
    """Largest scale with translation restricted to the x axis.

    The vertical translation is forced to keep the bounding-box bottoms
    aligned: it is the bottom side of the translation box B(lam). Cover pair
    i is active while B's bottom lies inside its open y interval, that is on
    an open scale interval (c2 / a2, c1 / a1), and then forbids its open x
    interval. The candidate scales are the activity endpoints, all pairwise
    meeting points of the x side functions (B's included) and the scale
    where B's bottom and top meet (see :func:`_x_events`).

    A descending sweep visits the candidates at most the bbox-fit cap. It
    keeps the x order in an ``_AxisState`` and a count of the active pairs
    over the x rank cells, each open interval encoded as in the 2-D sweep.
    At each candidate it deactivates the pairs whose interval closes there,
    re-puts the pairs of the tied x nodes and asks whether B's x cells hold
    a zero; then it resolves the ties below the candidate and activates the
    pairs whose interval opens there. So a candidate touches only its own
    pairs. At the first hole, the witness is the smallest point of B's x
    extent that the open x intervals of the pairs active at lam* leave
    uncovered, checked pairwise.
    """
    prob = _Problem(pattern, target)
    cs = prob.cs
    xaxis = cs.xaxis
    (xa0, xb0), (xa1, xb1), (ya0, yb0), _ = cs.box_sides
    acts = [(ya0 - Ya, Yb - yb0, ya0 - ya, yb - yb0)
            for (_, _, _, _, ya, yb, Ya, Yb) in cs.sides]

    def active_at(num: int, den: int) -> list[bool]:
        return [a1 * num < c1 * den and a2 * num > c2 * den for a1, c1, a2, c2 in acts]

    events = _x_events(cs, acts)
    stats = SolveStats(criticals=sum(1 for _ in groupby(events, itemgetter(0))))
    cap_num, cap_den = prob.bbox_cap.numerator, prob.bbox_cap.denominator
    scales = (_event_scale(xaxis, ev) for ev in events)
    first = next((k for k, (db, da) in enumerate(scales) if db * cap_den <= cap_num * da),
                 len(events))
    stats.skipped = sum(1 for _ in groupby(islice(events, first), itemgetter(0)))
    num, den = _start_scale(_event_scale(xaxis, events[first - 1]) if first else None,
                            _event_scale(xaxis, events[first]) if first < len(events) else None)

    xstate = _AxisState(xaxis, num, den)
    lo, hi = xstate.lo, xstate.hi
    bx0, bx1 = xaxis.node_of["box", 0], xaxis.node_of["box", 1]
    n = cs.n_rects
    pairs_of = [[k for k in keys if k < n] for keys in xaxis.keys]
    rect_nodes = cs.rect_nodes
    active = active_at(num, den)
    cnt = np.zeros(cs.rank_box[0] + 1, dtype=np.int32)  # cells 1..wx2
    cells: list[tuple[int, int] | None] = [None] * n  # what each pair adds to cnt

    def reput(i: int) -> None:
        new = None
        if active[i]:
            x_lo, x_hi = 2 * hi[rect_nodes[i][0]], 2 * lo[rect_nodes[i][1]] - 1
            if x_lo <= x_hi:
                new = (x_lo, x_hi)
        old = cells[i]
        if new != old:
            if old is not None:
                cnt[old[0]:old[1] + 1] -= 1
            if new is not None:
                cnt[new[0]:new[1] + 1] += 1
            cells[i] = new

    for i in range(n):
        reput(i)

    for _, group in groupby(islice(events, first, None), itemgetter(0)):
        met: set[int] = set()
        opens, closes = [], []
        for ev in group:
            if len(ev) == 3:
                met.update(ev[1:])
            elif ev[3] == _OPEN:
                opens.append(ev[4])
            elif ev[3] == _CLOSE:
                closes.append(ev[4])
        db, da = _event_scale(xaxis, ev)  # every event of the group has this scale
        groups = xstate.tie_groups(met, db, da)
        tied = {p for node in met for p in pairs_of[node]}
        for p in closes:
            active[p] = False
        for p in tied.union(closes):
            reput(p)
        stats.queries += 1
        if not cnt[2 * lo[bx0]:2 * hi[bx1]].all():
            break
        xstate.reorder_below(groups)
        for p in opens:
            active[p] = True
        for p in tied.union(opens):
            reput(p)
    else:
        # events is never empty: h_Q / h_P is always a candidate
        return PlacementResult("infeasible", stats=stats,
                               lambda_sup=Fraction(*_event_scale(xaxis, events[-1])))

    spans = ((xa * db + xb * da, Xa * db + Xb * da)
             for (xa, xb, Xa, Xb, *_), on in zip(cs.sides, active_at(db, da)) if on)
    hole = _open_cover_hole([sp for sp in spans if sp[0] < sp[1]],
                            xa0 * db + xb0 * da, xa1 * db + xb1 * da)
    if hole is None:
        raise RuntimeError("internal inconsistency: the sweep reported a hole "
                           "the 1D test cannot find")
    lam = Fraction(db, da)
    box = prob.fit_box(lam)
    tau = Point(Fraction(hole, da * cs.scale), box.y0)
    if not _fits(prob.pcov.rects, prob.qcov.rects, box, lam, tau):
        raise RuntimeError("internal inconsistency: 1D witness fails verification")
    return PlacementResult("feasible", lam, tau, stats)


def _open_cover_hole(intervals: list[tuple[int, int]], lo: int, hi: int):
    """Smallest point of [lo, hi] missed by a union of open intervals."""
    intervals.sort()
    cur = lo
    best = None
    ptr = 0
    n = len(intervals)
    while True:
        while ptr < n and intervals[ptr][0] < cur:
            b = intervals[ptr][1]
            if best is None or b > best:
                best = b
            ptr += 1
        if best is None or best <= cur:
            return cur
        cur = best
        if cur > hi:
            return None
