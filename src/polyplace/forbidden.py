"""Scale-parameterized forbidden translations and their rank-space encoding.

For each interior rectangle of the pattern and each complement rectangle of
the target, the translations that make them properly overlap form an open
rectangle whose sides are linear functions of the scale factor. The
translations that keep the scaled pattern's bounding box inside the target's
form the box B(scale), whose sides are linear in the scale too. As the scale
decreases, the sorted orders of all side functions change only at finitely
many critical values; between criticals the combinatorial picture is frozen.
Encoding each coordinate by its rank, with every rank split into an ``end``
(2r-1) and a ``start`` (2r) cell, turns the open rectangles into closed
integer ones whose union covers the rank-space box exactly when the real
rectangles cover B(scale).

Every side is normalized once, when :func:`coordinate_functions` builds the
:class:`CoordSets`: an integer form alpha * scale + beta over one common
denominator, deduplicated into weighted nodes per axis, with each cover
pair's four integer sides and B's. The critical scales, the sweep, the
solvers' static test and the x-only solver all read that table.
A critical scale is the integer pair (db, da), da > 0, ordered by an exact
integer key; it becomes a ``Fraction`` only where a solver returns it.

One descending walk, :class:`Descent`, visits the criticals at most a cap,
largest first, keeping each axis's sorted order and handing over the nodes
that meet and the caller's own events at each. Both sweeps consume it: the
2-D plan (:func:`build_sweep`) emits the trace of the closed rank
rectangles, touching only the rectangles whose defining forms participate
in a tie at each critical, and the x-only solver counts its active pairs
and the bands L and R over the x cells. The plan is lazy: it walks one
critical further each time the dynamic cover engine asks, so a solve that
ends at an early critical never builds the rest. Rectangles are keyed
0..n-1, then n..n+3 for the bands L, R, B, T around B(scale); an update is
a move (key, old, new) of a key whose rectangle changed, None standing for
no rectangle. The trace's execution and its file format belong to
:mod:`polyplace.dyncover`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, islice, product
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .decompose import RectCover
from .geometry import AxisRect, Rational


@dataclass(frozen=True)
class LinearForm:
    """The function scale -> alpha * scale + beta."""

    alpha: Rational
    beta: Rational


class RankRect(NamedTuple):
    """Closed rectangle in start/end rank coordinates (integers)."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int


Move = tuple[int, "RankRect | None", "RankRect | None"]  # (key, old, new)


class _Axis:
    """Distinct forms of one axis as integer (alpha, beta) nodes with weights.

    ``node_of`` maps every owner to its node. ``keys[node]`` lists the sweep
    keys of the forms merged into the node: the owning rect's index, or
    ``band + k`` for the box side ("box", k), where ``band`` is the key
    of the axis's lower band (L on x, B on y).
    """

    __slots__ = ("alphas", "betas", "weights", "keys", "node_of")

    def __init__(self, entries: Sequence[tuple[LinearForm, tuple]], scale: int,
                 band: int):
        index: dict[tuple[int, int], int] = {}
        self.alphas: list[int] = []
        self.betas: list[int] = []
        self.weights: list[int] = []
        self.keys: list[list[int]] = []
        self.node_of: dict[tuple, int] = {}
        for form, owner in entries:
            a, b = form.alpha, form.beta
            key = (a.numerator * (scale // a.denominator),
                   b.numerator * (scale // b.denominator))
            node = index.get(key)
            if node is None:
                node = len(self.alphas)
                index[key] = node
                self.alphas.append(key[0])
                self.betas.append(key[1])
                self.weights.append(0)
                self.keys.append([])
            self.weights[node] += 1
            self.keys[node].append(band + owner[1] if owner[0] == "box" else owner[1])
            self.node_of[owner] = node


@dataclass
class CoordSets:
    """All side functions of both axes, with their integer normalization.

    ``x_entries`` / ``y_entries`` hold (form, owner) pairs where owner is
    ("lo", rect_index), ("hi", rect_index), or ("box", 0|1) for the low and
    high side of the translation box B(scale): 2 * n_rects + 2 per axis, for
    ``n_rects`` cover pairs.

    The integer table is built here, once, on construction: ``scale`` is the
    lcm of all form denominators, ``xaxis`` / ``yaxis`` hold each axis's
    distinct forms times ``scale`` as integer nodes, ``rect_nodes[i]`` is the
    (x_lo, x_hi, y_lo, y_hi) node ids of rectangle i's sides, ``sides[i]``
    their integer (alpha, beta) pairs in that order, flattened, and
    ``box_sides`` the integer (alpha, beta) pairs of B's sides bx0, bx1, by0,
    by1.
    """

    n_rects: int
    x_entries: list[tuple[LinearForm, tuple]]
    y_entries: list[tuple[LinearForm, tuple]]
    rank_box: tuple[int, int] = field(init=False)  # cells: twice the entry counts
    scale: int = field(init=False)
    xaxis: _Axis = field(init=False, repr=False)
    yaxis: _Axis = field(init=False, repr=False)
    rect_nodes: list[tuple[int, int, int, int]] = field(init=False, repr=False)
    sides: list[tuple[int, ...]] = field(init=False, repr=False)
    box_sides: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        self.rank_box = 2 * len(self.x_entries), 2 * len(self.y_entries)
        denoms = [1]
        for entries in (self.x_entries, self.y_entries):
            for form, _ in entries:
                denoms += (form.alpha.denominator, form.beta.denominator)
        self.scale = math.lcm(*denoms)
        n = self.n_rects
        self.xaxis = _Axis(self.x_entries, self.scale, n)
        self.yaxis = _Axis(self.y_entries, self.scale, n + 2)
        xn, yn = self.xaxis.node_of, self.yaxis.node_of
        self.rect_nodes = [(xn["lo", i], xn["hi", i], yn["lo", i], yn["hi", i])
                           for i in range(n)]
        xa, xb = self.xaxis.alphas, self.xaxis.betas
        ya, yb = self.yaxis.alphas, self.yaxis.betas
        self.sides = [(xa[a], xb[a], xa[b], xb[b], ya[c], yb[c], ya[d], yb[d])
                      for a, b, c, d in self.rect_nodes]
        b0, b1, c0, c1 = xn["box", 0], xn["box", 1], yn["box", 0], yn["box", 1]
        self.box_sides = ((xa[b0], xb[b0]), (xa[b1], xb[b1]),
                          (ya[c0], yb[c0]), (ya[c1], yb[c1]))


def coordinate_functions(pcov: RectCover, qcov: RectCover, box: AxisRect) -> CoordSets:
    """Side functions of every cover pair's forbidden rectangle, plus B's.

    Pair i is the i-th (p, q) of pcov x qcov. The translations at which p,
    centered on the scaling reference point and scaled by lam, meets q's
    interior form the open rectangle (q.x0 - lam * p.x1, q.x1 - lam * p.x0)
    x (q.y0 - lam * p.y1, q.y1 - lam * p.y0); boundary contact is allowed.
    With pb the bounding box of pcov and qb = ``box`` the target's, the
    translations that keep the scaled pb inside qb form the closed box
    B(lam) = [qb.x0 - lam * pb.x0, qb.x1 - lam * pb.x1]
    x [qb.y0 - lam * pb.y0, qb.y1 - lam * pb.y1], empty above the bbox-fit ratio.
    """
    x_entries: list[tuple[LinearForm, tuple]] = []
    y_entries: list[tuple[LinearForm, tuple]] = []
    for idx, (p, q) in enumerate(product(pcov.rects, qcov.rects)):
        x_entries += ((LinearForm(-p.x1, q.x0), ("lo", idx)),
                      (LinearForm(-p.x0, q.x1), ("hi", idx)))
        y_entries += ((LinearForm(-p.y1, q.y0), ("lo", idx)),
                      (LinearForm(-p.y0, q.y1), ("hi", idx)))
    pr = pcov.rects
    x_entries += ((LinearForm(-min(p.x0 for p in pr), box.x0), ("box", 0)),
                  (LinearForm(-max(p.x1 for p in pr), box.x1), ("box", 1)))
    y_entries += ((LinearForm(-min(p.y0 for p in pr), box.y0), ("box", 0)),
                  (LinearForm(-max(p.y1 for p in pr), box.y1), ("box", 1)))
    return CoordSets(len(pcov) * len(qcov), x_entries, y_entries)


# ---------------------------------------------------------------------------
# critical scales
# ---------------------------------------------------------------------------

def _axis_events(axis: _Axis):
    """Every pair of nodes that meet at a positive scale db / da, as (db, da, i, j)."""
    alphas, betas = axis.alphas, axis.betas
    n = len(alphas)
    for i in range(n):
        ai = alphas[i]
        bi = betas[i]
        for j in range(i + 1, n):
            da = ai - alphas[j]
            if da == 0:
                continue  # parallel forms never meet
            db = betas[j] - bi
            if da < 0:
                da, db = -da, -db
            if db > 0:  # otherwise they meet at a scale <= 0
                yield db, da, i, j


def _key_scale(xaxis: _Axis, yaxis: _Axis) -> int:
    """M = D * D, with D the largest alpha difference on either axis.

    A scale db / da with 0 < da <= D is keyed by db * M // da: two distinct
    such scales differ by at least 1 / D**2, so their keys differ, and equal
    scales share one key.
    """
    span = max(max(axis.alphas) - min(axis.alphas) for axis in (xaxis, yaxis))
    return span * span


def critical_values(cs: CoordSets) -> list[Rational]:
    """All positive scales where two same-axis forms meet, strictly descending."""
    m = _key_scale(cs.xaxis, cs.yaxis)
    scales = {db * m // da: (db, da) for axis in (cs.xaxis, cs.yaxis)
              for db, da, _, _ in _axis_events(axis)}
    return [Fraction(*scales[key]) for key in sorted(scales, reverse=True)]


# ---------------------------------------------------------------------------
# rank-space rectangles
# ---------------------------------------------------------------------------

def _rank_rule(cs: CoordSets, xranks: tuple[list[int], list[int]],
               yranks: tuple[list[int], list[int]]):
    """The closed rank rectangle of a sweep key, None if empty.

    ``xranks`` / ``yranks`` are the lists (lo, hi) of each node's min and max
    rank; the rule reads them on every call, so they may change in place. An
    open side interval (a, b) becomes [start(max rank of a), end(min rank of
    b)]; the bands n..n+3 (L, R, B, T) cover the rank box outside the
    translation box B(scale). The tests' full-sort rank snapshots share this
    rule, so they check the sweep's order, not its encoding.
    """
    (xlo, xhi), (ylo, yhi) = xranks, yranks
    nodes = cs.rect_nodes
    n = len(nodes)
    xb0, xb1 = cs.xaxis.node_of["box", 0], cs.xaxis.node_of["box", 1]
    yb0, yb1 = cs.yaxis.node_of["box", 0], cs.yaxis.node_of["box", 1]
    wx2, wy2 = cs.rank_box

    def rect(key: int) -> RankRect | None:
        if key < n:
            ax, bx, cy, dy = nodes[key]
            x_lo = 2 * xhi[ax]
            x_hi = 2 * xlo[bx] - 1
            if x_lo > x_hi:
                return None
            y_lo = 2 * yhi[cy]
            y_hi = 2 * ylo[dy] - 1
            if y_lo > y_hi:
                return None
            return RankRect(x_lo, x_hi, y_lo, y_hi)
        band = key - n
        if band == 0:
            return RankRect(1, 2 * xlo[xb0] - 1, 1, wy2)
        if band == 1:
            return RankRect(2 * xhi[xb1], wx2, 1, wy2)
        if band == 2:
            return RankRect(1, wx2, 1, 2 * ylo[yb0] - 1)
        return RankRect(1, wx2, 2 * yhi[yb1], wy2)

    return rect


# ---------------------------------------------------------------------------
# the descending sweep
# ---------------------------------------------------------------------------

class _AxisState:
    """Sorted order of one axis, maintained across criticals.

    ``lo[node]`` / ``hi[node]`` are the node's min and max rank; while the
    snapshot at a critical is emitted, tied nodes hold their group's interval.
    """

    __slots__ = ("axis", "order", "pos", "lo", "hi")

    def __init__(self, axis: _Axis, num: int, den: int):
        """The order at the scale num / den (den > 0), which no pair meets at."""
        self.axis = axis
        self.order = sorted(range(len(axis.alphas)),
                            key=lambda i: axis.alphas[i] * num + axis.betas[i] * den)
        self.pos = [0] * len(self.order)
        self.lo = [0] * len(self.order)
        self.hi = [0] * len(self.order)
        self._rerank(0, len(self.order), 0)

    def _rerank(self, start: int, stop: int, taken: int) -> None:
        """Positions and ranks of order[start:stop], after ``taken`` ranks."""
        for p in range(start, stop):
            node = self.order[p]
            self.pos[node] = p
            self.lo[node] = taken + 1
            taken += self.axis.weights[node]
            self.hi[node] = taken

    def tie_groups(self, involved: set[int], num: int, den: int):
        """Group the involved nodes by value at num/den; each shares its group's ranks."""
        alphas, betas, pos, order = self.axis.alphas, self.axis.betas, self.pos, self.order
        if len(involved) == 2:  # the common case, a single pair: no grouping needed
            a, b = pair = list(involved)
            if alphas[a] * num + betas[a] * den != alphas[b] * num + betas[b] * den:
                raise RuntimeError("critical without a coinciding pair")
            tied = [pair]
        else:
            byval: dict[int, list[int]] = {}
            for node in involved:
                byval.setdefault(alphas[node] * num + betas[node] * den, []).append(node)
            tied = byval.values()
        groups: list[tuple[int, list[int]]] = []
        for nodes in tied:
            if len(nodes) < 2:
                raise RuntimeError("critical without a coinciding pair")
            ps = [pos[n] for n in nodes]
            start, last = min(ps), max(ps)
            if last - start != len(ps) - 1:
                raise RuntimeError("tie group not contiguous")
            lo, hi = self.lo[order[start]], self.hi[order[last]]
            for n in nodes:
                self.lo[n], self.hi[n] = lo, hi
            groups.append((start, nodes))
        return groups

    def reorder_below(self, groups) -> None:
        """Resolve each tie for scales just below the critical value."""
        alphas, order = self.axis.alphas, self.order
        for start, nodes in groups:
            taken = self.lo[nodes[0]] - 1  # the group's shared interval starts here
            # value just below the critical is v - alpha*eps: descending alpha
            if len(nodes) == 2:
                a, b = nodes
                order[start], order[start + 1] = (a, b) if alphas[a] >= alphas[b] else (b, a)
            else:
                order[start:start + len(nodes)] = sorted(nodes, key=lambda n: -alphas[n])
            self._rerank(start, start + len(nodes), taken)


class Descent:
    """The descending walk over the critical scales at most ``cap`` (None: all).

    The meets of ``axes`` and the caller's events (db, da, ...) of ``extra``
    are keyed as in :func:`_key_scale` (each da an alpha difference of
    ``cs``) and sorted once, as one list. ``total`` counts their scales and
    ``skipped`` those above the cap. ``states`` hold each axis's order from
    ``start``, a scale (num, den) just above the first kept critical.

    Iterating yields each kept critical, largest first, as (db, da, met,
    extras): the scale of its first listed event (x meets first), each axis's
    set of nodes that meet there, and its extra events. Its tie groups are
    applied, tied nodes sharing their group's ranks; :meth:`below` resolves
    them for the scales just below, as does resuming the walk.
    """

    def __init__(self, cs: CoordSets, axes: Sequence[_Axis],
                 cap: Rational | None, extra: Sequence[tuple] = ()):
        m = _key_scale(cs.xaxis, cs.yaxis)
        events = [(db * m // da, s, i, j)
                  for s, axis in enumerate(axes) for db, da, i, j in _axis_events(axis)]
        events += [(ev[0] * m // ev[1], -1, ev, None) for ev in extra]
        # reversed first, the stable sort lists each key's first event last
        events.reverse()
        events.sort(key=itemgetter(0), reverse=True)
        self.axes = axes
        first = 0
        if cap is not None:  # past the keys above the cap's; on the cap's own key, exactly
            ckey = cap.numerator * m // cap.denominator
            first = bisect_left(events, -ckey, key=lambda ev: -ev[0])
            if first < len(events) and events[first][0] == ckey:
                db, da = self._scale(events[first])
                if db * cap.denominator > cap.numerator * da:
                    first = bisect_left(events, 1 - ckey, key=lambda ev: -ev[0])
        self.total = sum(1 for _ in groupby(events, itemgetter(0)))
        self.skipped = sum(1 for _ in groupby(islice(events, first), itemgetter(0)))
        num, den = 1, 1
        if events:  # midway between the last skipped and first kept; with one, a/b and a/b + 2
            a, b = self._scale(events[max(first - 1, 0)])
            c, d = self._scale(events[first]) if 0 < first < len(events) else (a + 2 * b, b)
            num, den = a * d + c * b, 2 * b * d
        self.start = num, den
        self.states = [_AxisState(axis, num, den) for axis in axes]
        self._events, self._first, self._ties = events, first, ()

    def _scale(self, ev: tuple) -> tuple[int, int]:
        _, s, i, j = ev
        if s < 0:
            return i[0], i[1]
        axis = self.axes[s]
        da, db = axis.alphas[i] - axis.alphas[j], axis.betas[j] - axis.betas[i]
        return (db, da) if da > 0 else (-db, -da)

    def __iter__(self):
        states, scale, blank = self.states, self._scale, [()] * len(self.states)
        for _, group in groupby(islice(self._events, self._first, None), itemgetter(0)):
            met, extras = tuple(map(set, blank)), []
            for ev in group:
                _, s, i, j = ev
                if s < 0:
                    extras.append(i)
                else:
                    nodes = met[s]
                    nodes.add(i)
                    nodes.add(j)
            db, da = scale(ev)  # the group's first listed event
            self._ties = ties = []
            for st, nodes in zip(states, met):
                if nodes:
                    ties.append((st, st.tie_groups(nodes, db, da)))
            yield db, da, met, extras
            if self._ties:
                self.below()

    def below(self) -> None:
        """Resolve the current critical's ties for the scales just below it."""
        for state, groups in self._ties:
            state.reorder_below(groups)
        self._ties = ()


@dataclass
class SweepPlan:
    """Offline trace of the rank-space cover across the criticals, built lazily.

    ``criticals[i]`` is the i-th swept critical scale as the pair (db, da),
    the scale db / da. ``initial`` is the preloaded state for scales above
    the first swept critical, as (key, rect) pairs; each update is a move
    (key, old, new) of a key whose rectangle changed, None standing for no
    rectangle. After ``query_pos[i]`` updates the structure holds the
    snapshot at criticals[i] exactly, and after ``below_pos[i]`` the one
    just below it. When the sweep was started below a cap,
    ``skipped_above`` counts the dropped larger criticals; ``total`` counts
    the criticals of the whole walk, skipped ones included.

    The lists grow one critical per :meth:`extend`, in walk order, so a
    partly extended plan is a prefix of the whole one; :meth:`drain` extends
    it to the end.
    """

    criticals: list[tuple[int, int]]
    box_cells: tuple[int, int]
    initial: list[tuple[int, RankRect]]
    updates: list[Move]
    query_pos: list[int]
    below_pos: list[int]
    live_bound: int
    skipped_above: int = 0
    total: int = 0
    _steps: Iterator[None] = field(default_factory=lambda: iter(()), repr=False, compare=False)

    def extend(self) -> bool:
        """Append the next critical with its updates; False once the walk is done."""
        return next(self._steps, False) is None

    def drain(self) -> SweepPlan:
        """Extend the plan to the end of the walk, and return it."""
        for _ in self._steps:
            pass
        return self


def build_sweep(cs: CoordSets, start_below: Rational | None = None) -> SweepPlan:
    """The descending-sweep trace with embedded query points, as a lazy plan.

    Only the :class:`Descent` of both axes and the preloaded state are
    built here; each :meth:`SweepPlan.extend` takes the next critical of
    the walk, re-emits the rectangles of its tied nodes, records the query
    position, resolves the ties and re-emits them again. With
    ``start_below`` given, criticals above it are dropped and the sweep
    starts inside the region just above the first kept critical; the
    snapshot there is region-determined, so results at kept criticals are
    unchanged.
    """
    xaxis, yaxis = cs.xaxis, cs.yaxis
    walk = Descent(cs, (xaxis, yaxis), start_below)
    xstate, ystate = walk.states
    rect = _rank_rule(cs, (xstate.lo, xstate.hi), (ystate.lo, ystate.hi))

    current = [rect(key) for key in range(cs.n_rects + 4)]
    initial = [(key, r) for key, r in enumerate(current) if r is not None]
    criticals: list[tuple[int, int]] = []
    updates: list[Move] = []
    query_pos: list[int] = []
    below_pos: list[int] = []

    def emit(keys: list[int]) -> None:
        for key in keys:
            old, new = current[key], rect(key)
            if new != old:
                updates.append((key, old, new))
                current[key] = new

    def steps() -> Iterator[None]:  # holds the lists, not the plan: no cycle to outlive a solve
        for db, da, (ex, ey), _ in walk:
            criticals.append((db, da))
            affected = {key for node in ex for key in xaxis.keys[node]}
            affected.update(key for node in ey for key in yaxis.keys[node])
            keys = sorted(affected)

            emit(keys)
            query_pos.append(len(updates))
            walk.below()
            emit(keys)
            below_pos.append(len(updates))
            yield

    return SweepPlan(criticals=criticals, box_cells=cs.rank_box, initial=initial,
                     updates=updates, query_pos=query_pos, below_pos=below_pos,
                     live_bound=cs.n_rects + 4, skipped_above=walk.skipped,
                     total=walk.total, _steps=steps())
