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
rectangles cover B(scale). A distinct side value takes one rank, or two
where an interval ends and another starts at it (see :class:`CoordSets`).

Every side is normalized once, when :func:`coordinate_functions` builds the
:class:`CoordSets`: an integer form alpha * scale + beta over one common
denominator, deduplicated into weighted nodes per axis, with each cover
pair's four integer sides and B's. The critical scales, the sweep, the
solvers' static test and the x-only solver all read that table.
A critical scale is the integer pair (db, da), da > 0, ordered by an exact
integer key; it becomes a ``Fraction`` only where a solver returns it.

One descending walk, :class:`Descent`, visits the criticals at most a cap,
largest first, keeping each axis's sorted order and handing over the nodes
that meet and the caller's own events at each. It holds every event as one
int, the exact key shifted left past a code of the event's place in
generation order, so a plain descending sort orders the keys and, within a
key, puts the first generated event last. Both sweeps consume it: the
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
from itertools import groupby, islice, product, repeat
from operator import rshift
from typing import Callable, Iterator, NamedTuple, Sequence

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
    of the axis's lower band (L on x, B on y). The first ``reads_hi[node]``
    of them are those whose rank rectangle reads the node's max rank (a
    rect's low side, the band R or T); the others read its min rank (a
    rect's high side, the band L or B). ``weights[node]`` is the node's
    number of ranks: 2 when its keys hold both kinds, 1 otherwise (see
    :class:`CoordSets`).
    """

    __slots__ = ("alphas", "betas", "weights", "keys", "reads_hi", "node_of")

    def __init__(self, entries: Sequence[tuple[LinearForm, tuple]], scale: int,
                 band: int):
        index: dict[tuple[int, int], int] = {}
        self.alphas: list[int] = []
        self.betas: list[int] = []
        self.keys: list[list[int]] = []
        self.reads_hi: list[int] = []
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
                self.keys.append([])
                self.reads_hi.append(0)
            sweep_key = band + owner[1] if owner[0] == "box" else owner[1]
            if owner[0] == "lo" or owner == ("box", 1):
                self.keys[node].insert(self.reads_hi[node], sweep_key)
                self.reads_hi[node] += 1
            else:
                self.keys[node].append(sweep_key)
            self.node_of[owner] = node
        self.weights: list[int] = [2 if 0 < r < len(k) else 1
                                   for r, k in zip(self.reads_hi, self.keys)]


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

    ``rank_box`` is twice the summed node weights of each axis: a node of
    weight w takes w ranks, so 2w cells. Its weight is 2 when an interval
    starts at it (a pair's ``lo`` side, or B's high side, where band R or T
    starts) and one ends at it (a pair's ``hi`` side, or B's low side), and
    1 otherwise. That is sound: a value v needs a cell of its own only for
    a contact hole at v, between an interval that ends at v and one that
    starts there. Where none ends at v, every rectangle that covers the
    points just left of v also covers v; where none starts there, the same
    holds just right of v. So a free v has a free neighbouring cell. A tie
    group at a critical shares its nodes' ranks, at least two. One rank for
    every node is unsound: it misses the contact hole, as on one of the
    random pairs of acceptance criterion 1.
    """

    n_rects: int
    x_entries: list[tuple[LinearForm, tuple]]
    y_entries: list[tuple[LinearForm, tuple]]
    rank_box: tuple[int, int] = field(init=False)  # cells: twice the summed weights
    scale: int = field(init=False)
    xaxis: _Axis = field(init=False, repr=False)
    yaxis: _Axis = field(init=False, repr=False)
    rect_nodes: list[tuple[int, int, int, int]] = field(init=False, repr=False)
    sides: list[tuple[int, ...]] = field(init=False, repr=False)
    box_sides: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        denoms = [1]
        for entries in (self.x_entries, self.y_entries):
            for form, _ in entries:
                denoms += (form.alpha.denominator, form.beta.denominator)
        self.scale = math.lcm(*denoms)
        n = self.n_rects
        self.xaxis = _Axis(self.x_entries, self.scale, n)
        self.yaxis = _Axis(self.y_entries, self.scale, n + 2)
        self.rank_box = 2 * sum(self.xaxis.weights), 2 * sum(self.yaxis.weights)
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

def _meets(axis: _Axis, m: int, shift: int, code: int, stride: int) -> Iterator[int]:
    """Every pair of nodes i < j that meet at a positive scale db / da, packed.

    A meet is the one int ``key << shift | code + i * stride + j``, with
    ``key = db * m // da`` its exact key (see :func:`_key_scale`), da > 0.
    """
    alphas, betas = axis.alphas, axis.betas
    n = len(alphas)
    for i in range(n):
        ai = alphas[i]
        bi = betas[i]
        row = code + i * stride
        for j in range(i + 1, n):
            da = ai - alphas[j]
            if da == 0:
                continue  # parallel forms never meet
            db = betas[j] - bi
            if da < 0:
                da, db = -da, -db
            if db > 0:  # otherwise they meet at a scale <= 0
                yield (db * m // da) << shift | row + j


def _key_scale(xaxis: _Axis, yaxis: _Axis) -> int:
    """M = D * D, with D the largest alpha difference on either axis.

    A scale db / da with 0 < da <= D is keyed by db * M // da: two distinct
    such scales differ by at least 1 / D**2, so their keys differ, and equal
    scales share one key.
    """
    span = max(max(axis.alphas) - min(axis.alphas) for axis in (xaxis, yaxis))
    return span * span


def _meet_scale(axes: Sequence[_Axis], n: int, code: int) -> tuple[int, int]:
    """The scale (db, da), da > 0, of the meet of nodes i < j on ``axes[s]``,
    coded (s * n + i) * n + j as :class:`Descent` codes it."""
    s, ij = divmod(code, n * n)
    i, j = divmod(ij, n)
    alphas, betas = axes[s].alphas, axes[s].betas
    da, db = alphas[i] - alphas[j], betas[j] - betas[i]
    return (db, da) if da > 0 else (-db, -da)


def critical_keys(cs: CoordSets) -> tuple[list[int], Callable[[int], Fraction]]:
    """The exact keys (see :func:`_key_scale`) of all positive scales where
    two same-axis forms meet, strictly descending, and the map from a key to
    its scale.

    Only the keys are built for every critical; a ``Fraction`` is built for
    each key the map is asked for, so a search that reads a few criticals
    pays for those alone.
    """
    m = _key_scale(cs.xaxis, cs.yaxis)
    axes = cs.xaxis, cs.yaxis
    n = max(len(axis.alphas) for axis in axes)
    nn = n * n
    shift = (2 * nn).bit_length()
    first: dict[int, int] = {}  # key -> its first meet, packed as in Descent
    for s, axis in enumerate(axes):
        for ev in _meets(axis, m, shift, s * nn, n):
            key = ev >> shift
            if key not in first:
                first[key] = ev
    mask = (1 << shift) - 1

    def scale(key: int) -> Fraction:
        return Fraction(*_meet_scale(axes, n, first[key] & mask))

    return sorted(first, reverse=True), scale


def critical_values(cs: CoordSets) -> list[Rational]:
    """All positive scales where two same-axis forms meet, strictly descending."""
    keys, scale = critical_keys(cs)
    return [scale(key) for key in keys]


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
    A tie of two nodes, the common critical, takes a direct path both ways:
    :meth:`tie_pair` reads their two positions and checks adjacency and the
    one equal value, and :meth:`reorder_below` puts them in order and splits
    the shared interval without a sort or a rerank. :class:`Descent` takes
    it for each of a critical's meets on an axis when no two of them share a
    node, and :meth:`tie_groups` for the rest.
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

    def tie_pair(self, a: int, b: int, num: int, den: int) -> tuple[int, tuple[int, int]]:
        """The tie of two nodes at num/den, sharing its ranks, as the group (start, (a, b)).

        It reads the two positions, checks their adjacency and the one equal
        value, and puts the nodes in their order.
        """
        alphas, betas, pos = self.axis.alphas, self.axis.betas, self.pos
        if alphas[a] * num + betas[a] * den != alphas[b] * num + betas[b] * den:
            raise RuntimeError("critical without a coinciding pair")
        start = pos[a]
        if pos[b] < start:
            a, b, start = b, a, pos[b]
        if pos[b] != start + 1:
            raise RuntimeError("tie group not contiguous")
        self.lo[b], self.hi[a] = self.lo[a], self.hi[b]
        return start, (a, b)

    def tie_groups(self, involved, num: int, den: int):
        """Group the involved nodes by value at num/den; each shares its group's ranks.

        Returns the groups as (start, nodes), ``start`` the position of the
        group's first node.
        """
        alphas, betas, pos, lo, hi = self.axis.alphas, self.axis.betas, self.pos, self.lo, self.hi
        byval: dict[int, list[int]] = {}
        for node in involved:
            byval.setdefault(alphas[node] * num + betas[node] * den, []).append(node)
        groups: list[tuple[int, list[int]]] = []
        for nodes in byval.values():
            if len(nodes) < 2:
                raise RuntimeError("critical without a coinciding pair")
            ps = [pos[n] for n in nodes]
            start, last = min(ps), max(ps)
            if last - start != len(ps) - 1:
                raise RuntimeError("tie group not contiguous")
            glo, ghi = lo[self.order[start]], hi[self.order[last]]
            for n in nodes:
                lo[n], hi[n] = glo, ghi
            groups.append((start, nodes))
        return groups

    def reorder_below(self, groups, moved: set[int]) -> None:
        """Resolve each tie for scales just below the critical value.

        Adds to ``moved`` the sweep keys whose rank rectangle may change: in
        each group, the new order changes the max rank of every node but the
        last and the min rank of every node but the first.
        """
        axis, order, pos, lo, hi = self.axis, self.order, self.pos, self.lo, self.hi
        alphas, keys, reads_hi = axis.alphas, axis.keys, axis.reads_hi
        for start, nodes in groups:
            # value just below the critical is v - alpha*eps: descending alpha
            if len(nodes) == 2:
                a, b = nodes
                if alphas[a] < alphas[b]:
                    a, b = b, a
                order[start], order[start + 1] = a, b
                pos[a], pos[b] = start, start + 1
                hi[a] = lo[a] + axis.weights[a] - 1  # lo[a]: the pair's shared start
                lo[b] = hi[a] + 1
                moved.update(keys[a][:reads_hi[a]], keys[b][reads_hi[b]:])
            else:
                stop = start + len(nodes)
                taken = lo[nodes[0]] - 1  # the group's shared interval starts here
                order[start:stop] = sorted(nodes, key=lambda n: -alphas[n])
                self._rerank(start, stop, taken)
                moved.update(*(keys[n][:reads_hi[n]] for n in order[start:stop - 1]),
                             *(keys[n][reads_hi[n]:] for n in order[start + 1:stop]))


class Descent:
    """The descending walk over the critical scales at most ``cap`` (None: all).

    The meets of ``axes`` and the caller's events (db, da, ...) of ``extra``
    are keyed as in :func:`_key_scale` (each da an alpha difference of
    ``cs``) and sorted once, as one list of ints, one per event: the key
    shifted left past a code of the event's place in generation order. With
    n the most nodes on an axis, the meet of nodes i < j on axis s has the
    code (s * n + i) * n + j, and the k-th extra event len(axes) * n * n + k.
    A descending sort with no key function thus orders the keys and, within
    a key, lists the events last generated first, so a critical's first
    generated event (x meets first, in (i, j) order) ends its group. An
    event holds one int and its list slot: about 42 bytes on the combs and
    49 on the average gadgets, whose keys are longer. ``total`` counts the
    scales and ``skipped`` those above the cap. ``states`` hold each axis's
    order from ``start``, a scale (num, den) just above the first kept
    critical.

    Iterating yields each kept critical, largest first, as (db, da, met,
    extras): the scale of its first generated event, each axis's set of
    nodes that meet there, and its extra events, last generated first. Its
    tie groups are applied, tied nodes sharing their group's ranks;
    :meth:`below` resolves them for the scales just below, as does resuming
    the walk, and returns the sweep keys whose rank rectangle the resolution
    may change. The sets are the caller's to read, not to change: where one
    event makes the critical, the common case, the axes it does not touch
    share one empty frozenset.
    """

    def __init__(self, cs: CoordSets, axes: Sequence[_Axis],
                 cap: Rational | None, extra: Sequence[tuple] = ()):
        m = _key_scale(cs.xaxis, cs.yaxis)
        n = max(len(axis.alphas) for axis in axes)
        xtra = len(axes) * n * n  # the code of the first extra event
        shift = (xtra + len(extra)).bit_length()
        events: list[int] = []
        for s, axis in enumerate(axes):
            events += _meets(axis, m, shift, s * n * n, n)
        events += [(ev[0] * m // ev[1]) << shift | xtra + k for k, ev in enumerate(extra)]
        events.sort(reverse=True)
        self.axes, self._extra = axes, extra
        self._stride, self._xtra, self._shift = n, xtra, shift
        first = 0
        if cap is not None:  # past the keys above the cap's; on the cap's own key, exactly
            ckey = cap.numerator * m // cap.denominator
            first = bisect_left(events, -ckey, key=lambda ev: -(ev >> shift))
            if first < len(events) and events[first] >> shift == ckey:
                db, da = self._scale(events[first])
                if db * cap.denominator > cap.numerator * da:
                    first = bisect_left(events, 1 - ckey, key=lambda ev: -(ev >> shift))
        self.total = sum(1 for _ in groupby(map(rshift, events, repeat(shift))))
        self.skipped = sum(1 for _ in groupby(map(rshift, islice(events, first), repeat(shift))))
        num, den = 1, 1
        if events:  # midway between the last skipped and first kept; with one, a/b and a/b + 2
            a, b = self._scale(events[max(first - 1, 0)])
            c, d = self._scale(events[first]) if 0 < first < len(events) else (a + 2 * b, b)
            num, den = a * d + c * b, 2 * b * d
        self.start = num, den
        self.states = [_AxisState(axis, num, den) for axis in axes]
        self._events, self._first, self._ties = events, first, ()

    def _scale(self, ev: int) -> tuple[int, int]:
        """The scale (db, da), da > 0, of the event ``ev``."""
        code = ev & ((1 << self._shift) - 1)
        if code >= self._xtra:
            extra = self._extra[code - self._xtra]
            return extra[0], extra[1]
        return _meet_scale(self.axes, self._stride, code)

    def __iter__(self):
        states, extra = self.states, self._extra
        events, shift, n, xtra = self._events, self._shift, self._stride, self._xtra
        nn = n * n
        forms = [(axis.alphas, axis.betas) for axis in self.axes]
        unmet = (frozenset(),) * len(states)  # no node of any axis meets
        k, end = self._first, len(events)
        while k < end:
            ev = events[k]
            low = ev >> shift << shift  # the least int with ev's key
            stop = k + 1
            while stop < end and events[stop] >= low:
                stop += 1
            code = events[stop - 1] - low  # the group's first generated event gives the scale
            if code >= xtra:
                first = extra[code - xtra]
                db, da = first[0], first[1]
            else:
                s, ij = divmod(code, nn)
                i, j = divmod(ij, n)
                alphas, betas = forms[s]
                da, db = alphas[i] - alphas[j], betas[j] - betas[i]
                if da < 0:
                    da, db = -da, -db
            if stop == k + 1:  # one event makes the critical: a pair meets, or an extra
                if code >= xtra:
                    met, extras, ties = unmet, [first], ()
                else:
                    st = states[s]
                    met, extras = unmet[:s] + ({i, j},) + unmet[s + 1:], []
                    ties = ((st, (st.tie_pair(i, j, db, da),)),)
            else:
                met, extras = tuple(set() for _ in states), []
                meets: tuple[list[tuple[int, int]], ...] = tuple([] for _ in states)
                for ev in events[k:stop]:
                    code = ev - low
                    if code >= xtra:
                        extras.append(extra[code - xtra])
                    else:
                        s, ij = divmod(code, nn)
                        pair = divmod(ij, n)
                        met[s].update(pair)
                        meets[s].append(pair)
                ties = []
                for st, nodes, pairs in zip(states, met, meets):
                    # the nodes of a group of three or more meet pairwise, so
                    # meets that share no node are each a group of their own
                    if len(nodes) == 2 * len(pairs):
                        groups = [st.tie_pair(i, j, db, da) for i, j in pairs]
                    else:
                        groups = st.tie_groups(nodes, db, da)
                    if groups:
                        ties.append((st, groups))
            k = stop
            self._ties = ties
            yield db, da, met, extras
            if self._ties:
                self.below()

    def below(self) -> set[int]:
        """Resolve the current critical's ties for the scales just below it.

        Returns the sweep keys whose rank rectangle may change with it (see
        :meth:`_AxisState.reorder_below`).
        """
        moved: set[int] = set()
        for state, groups in self._ties:
            state.reorder_below(groups, moved)
        self._ties = ()
        return moved


@dataclass
class SweepPlan:
    """Offline trace of the rank-space cover across the criticals, built lazily.

    ``criticals[i]`` is the i-th swept critical scale as the pair (db, da),
    the scale db / da. ``initial`` is the preloaded state for scales above
    the first swept critical, as (key, rect) pairs; each update is a move
    (key, old, new) of a key whose rectangle changed, None standing for no
    rectangle. After ``query_pos[i]`` updates the structure holds the
    snapshot at criticals[i] exactly, and the updates that the same
    :meth:`extend` appends after those bring it to the one just below. When
    the sweep was started below a cap, ``skipped_above`` counts the dropped
    larger criticals; ``total`` counts the criticals of the whole walk,
    skipped ones included.

    The lists grow one critical per :meth:`extend`, in walk order, so a
    partly extended plan is a prefix of the whole one; :meth:`drain` extends
    it to the end.
    """

    criticals: list[tuple[int, int]]
    box_cells: tuple[int, int]
    initial: list[tuple[int, RankRect]]
    updates: list[Move]
    query_pos: list[int]
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
    position, resolves the ties and re-emits the rectangles that
    :meth:`Descent.below` names, those whose side reads a rank the
    resolution changed. Each re-emission computes a key's rectangle once
    and records a move only if it changed, keys in ascending order. With
    ``start_below`` given, criticals above it are dropped and the sweep
    starts inside the region just above the first kept critical; the
    snapshot there is region-determined, so results at kept criticals are
    unchanged.
    """
    xaxis, yaxis = cs.xaxis, cs.yaxis
    xkeys, ykeys = xaxis.keys, yaxis.keys
    walk = Descent(cs, (xaxis, yaxis), start_below)
    xstate, ystate = walk.states
    rect = _rank_rule(cs, (xstate.lo, xstate.hi), (ystate.lo, ystate.hi))

    current = [rect(key) for key in range(cs.n_rects + 4)]
    initial = [(key, r) for key, r in enumerate(current) if r is not None]
    criticals: list[tuple[int, int]] = []
    updates: list[Move] = []
    query_pos: list[int] = []

    def emit(keys: list[int]) -> None:
        for key in keys:
            old, new = current[key], rect(key)
            if new != old:
                updates.append((key, old, new))
                current[key] = new

    def steps() -> Iterator[None]:  # holds the lists, not the plan: no cycle to outlive a solve
        for db, da, (ex, ey), _ in walk:
            criticals.append((db, da))
            affected: set[int] = set()
            for node in ex:
                affected.update(xkeys[node])
            for node in ey:
                affected.update(ykeys[node])
            keys = sorted(affected)

            emit(keys)
            query_pos.append(len(updates))
            emit(sorted(walk.below()))
            yield

    return SweepPlan(criticals=criticals, box_cells=cs.rank_box, initial=initial,
                     updates=updates, query_pos=query_pos, live_bound=cs.n_rects + 4,
                     skipped_above=walk.skipped, total=walk.total, _steps=steps())
