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
pair's four integer sides and B's. The critical scales, the snapshots,
the sweep, the solvers' static test and the x-only solver all read that table.
A critical scale is the integer pair (db, da), da > 0, ordered by an exact
integer key; it becomes a ``Fraction`` only where a solver returns it.

The sweep below walks the criticals in descending order and emits the add /
delete trace of the closed rank rectangles, touching only the rectangles
whose defining forms participate in a tie at each critical. Rectangles are
keyed 0..n-1, then n..n+3 for the bands L, R, B, T around B(scale); an
update is (key, RankRect) for an add and (key, None) for a delete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, product
from typing import NamedTuple, Sequence

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


def _critical_events(xaxis: _Axis, yaxis: _Axis) -> list[tuple[int, int, set, set]]:
    """Each critical scale db / da with the x and y nodes that meet there.

    Returned in descending order of scale as (db, da, x_nodes, y_nodes),
    keyed as in :func:`_key_scale`: every da is an alpha difference.
    """
    m = _key_scale(xaxis, yaxis)
    events: dict[int, tuple[int, int, set, set]] = {}
    for slot, axis in enumerate((xaxis, yaxis), 2):
        for db, da, i, j in _axis_events(axis):
            key = db * m // da
            ev = events.get(key)
            if ev is None:
                ev = events[key] = (db, da, set(), set())
            ev[slot].add(i)
            ev[slot].add(j)
    return [events[key] for key in sorted(events, reverse=True)]


def critical_values(cs: CoordSets) -> list[Rational]:
    """All positive scales where two same-axis forms meet, strictly descending."""
    return [Fraction(db, da) for db, da, _, _ in _critical_events(cs.xaxis, cs.yaxis)]


# ---------------------------------------------------------------------------
# rank-space rectangles and snapshots
# ---------------------------------------------------------------------------

def _rank_rule(cs: CoordSets, xranks: tuple[list[int], list[int]],
               yranks: tuple[list[int], list[int]]):
    """The closed rank rectangle of a sweep key, None if empty.

    ``xranks`` / ``yranks`` are the lists (lo, hi) of each node's min and max
    rank; the rule reads them on every call, so they may change in place. An
    open side interval (a, b) becomes [start(max rank of a), end(min rank of
    b)]; the bands n..n+3 (L, R, B, T) cover the rank box outside the
    translation box B(scale).
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


def _full_ranks(axis: _Axis, num: int, den: int) -> tuple[list[int], list[int]]:
    """Min and max rank of every node at scale num/den, ties grouped by value."""
    def value(i: int) -> int:
        return axis.alphas[i] * num + axis.betas[i] * den

    lo, hi = [0] * len(axis.alphas), [0] * len(axis.alphas)
    taken = 0
    for _, group in groupby(sorted(range(len(axis.alphas)), key=value), key=value):
        group = list(group)
        w = sum(axis.weights[g] for g in group)
        for g in group:
            lo[g], hi[g] = taken + 1, taken + w
        taken += w
    return lo, hi


def rank_snapshot(cs: CoordSets, lam: Rational) -> dict[int, RankRect]:
    """Closed rank representation of every nonempty rectangle at ``lam``.

    Evaluate at a critical value to get the tied snapshot, or at any interior
    point of a region between criticals (e.g. the midpoint) for the generic
    one. Keys are the sweep keys: rect indices, then n..n+3 for the bands L,
    R, B, T; empty rectangles are omitted. The ranks come from a full sort
    at ``lam``, independent of the sweep's incremental order.
    """
    lam = Fraction(lam)
    num, den = lam.numerator, lam.denominator
    rect = _rank_rule(cs, _full_ranks(cs.xaxis, num, den), _full_ranks(cs.yaxis, num, den))
    snap: dict[int, RankRect] = {}
    for key in range(cs.n_rects + 4):
        r = rect(key)
        if r is not None:
            snap[key] = r
    return snap


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


@dataclass
class SweepPlan:
    """Preplanned offline trace of the rank-space cover across the criticals.

    ``criticals[i]`` is the i-th swept critical scale as the pair (db, da),
    the scale db / da. ``initial`` is the preloaded state for scales above
    the first swept critical, as (key, rect) pairs; each update is (key,
    rect) for an add and (key, None) for a delete, and a key's delete comes
    before its re-add. After ``query_pos[i]`` updates the structure holds
    the snapshot at criticals[i] exactly, and after ``below_pos[i]`` the one
    just below it. When the sweep was started below a cap,
    ``skipped_above`` counts the dropped larger criticals.
    """

    criticals: list[tuple[int, int]]
    box_cells: tuple[int, int]
    initial: list[tuple[int, RankRect]]
    updates: list[tuple[int, RankRect | None]]
    query_pos: list[int]
    below_pos: list[int]
    live_bound: int
    skipped_above: int = 0


def _start_scale(above: tuple[int, int] | None,
                 below: tuple[int, int] | None) -> tuple[int, int]:
    """A scale num / den (den > 0) inside the region just above ``below``.

    ``above`` is the smallest critical (db, da) skipped above the sweep and
    ``below`` the first kept one, None where there is none: the start is
    midway between them, else one above the critical given, else 1. No pair
    meets there.
    """
    if above and below:
        (a, b), (c, d) = above, below
        return a * d + c * b, 2 * b * d
    if above or below:
        a, b = above or below
        return a + b, b
    return 1, 1


def build_sweep(cs: CoordSets, start_below: Rational | None = None) -> SweepPlan:
    """Construct the descending-sweep trace with embedded query points.

    With ``start_below`` given, criticals above it are dropped and the sweep
    starts inside the region just above the first kept critical; the snapshot
    there is region-determined, so results at kept criticals are unchanged.
    """
    xaxis, yaxis = cs.xaxis, cs.yaxis
    events = _critical_events(xaxis, yaxis)
    skipped = 0
    if start_below is not None:
        cap_num, cap_den = start_below.numerator, start_below.denominator
        while (skipped < len(events)
               and events[skipped][0] * cap_den > cap_num * events[skipped][1]):
            skipped += 1
    num, den = _start_scale(events[skipped - 1][:2] if skipped else None,
                            events[skipped][:2] if skipped < len(events) else None)
    events = events[skipped:]

    xstate = _AxisState(xaxis, num, den)
    ystate = _AxisState(yaxis, num, den)
    rect = _rank_rule(cs, (xstate.lo, xstate.hi), (ystate.lo, ystate.hi))

    current = [rect(key) for key in range(cs.n_rects + 4)]
    initial = [(key, r) for key, r in enumerate(current) if r is not None]
    updates: list[tuple[int, RankRect | None]] = []
    query_pos: list[int] = []
    below_pos: list[int] = []

    def emit(keys: list[int]) -> None:
        for key in keys:
            new = rect(key)
            old = current[key]
            if new != old:
                if old is not None:
                    updates.append((key, None))
                if new is not None:
                    updates.append((key, new))
                current[key] = new

    for db, da, ex, ey in events:
        xgroups = xstate.tie_groups(ex, db, da)
        ygroups = ystate.tie_groups(ey, db, da)
        affected = {key for node in ex for key in xaxis.keys[node]}
        affected.update(key for node in ey for key in yaxis.keys[node])
        keys = sorted(affected)

        emit(keys)
        query_pos.append(len(updates))
        xstate.reorder_below(xgroups)
        ystate.reorder_below(ygroups)
        emit(keys)
        below_pos.append(len(updates))

    return SweepPlan(
        criticals=[(db, da) for db, da, _, _ in events],
        box_cells=cs.rank_box,
        initial=initial,
        updates=updates,
        query_pos=query_pos,
        below_pos=below_pos,
        live_bound=cs.n_rects + 4,
        skipped_above=skipped,
    )


# ---------------------------------------------------------------------------
# update-trace file format: header "N <nx> <ny>", then preloaded rectangles
# "I <id> <x_lo> <x_hi> <y_lo> <y_hi>", then one event per line,
# "A <id> <x_lo> <x_hi> <y_lo> <y_hi>" or "D <id>", then "Q <pos>" lines, one
# per coverage query after the first <pos> events. A file without "Q" lines
# queries after every event. An id is a rectangle's key; it recurs when the
# rectangle is added again after its delete.
# ---------------------------------------------------------------------------

_TRACE_FIELDS = {"I": 6, "A": 6, "D": 2, "Q": 2}  # fields of each body line

def write_trace(path: str, box_cells: tuple[int, int],
                updates: Sequence[tuple[int, RankRect | None]],
                initial: Sequence[tuple[int, RankRect]], query_pos: Sequence[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N {box_cells[0]} {box_cells[1]}\n")
        for uid, r in initial:
            fh.write(f"I {uid} {r.x_lo} {r.x_hi} {r.y_lo} {r.y_hi}\n")
        for uid, r in updates:
            if r is None:
                fh.write(f"D {uid}\n")
            else:
                fh.write(f"A {uid} {r.x_lo} {r.x_hi} {r.y_lo} {r.y_hi}\n")
        for pos in query_pos:
            fh.write(f"Q {pos}\n")


def read_trace(path: str) -> tuple[tuple[int, int], list[tuple[int, RankRect]],
                                   list[tuple[int, RankRect | None]], list[int]]:
    """Box, preloaded rectangles, events and query positions of a trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if not lines or lines[0][0] != "N" or len(lines[0]) != 3:
        raise ValueError("trace file must start with an 'N <nx> <ny>' header")
    box_cells = (int(lines[0][1]), int(lines[0][2]))
    if min(box_cells) < 1:
        raise ValueError(f"box {box_cells[0]} x {box_cells[1]} has no cells")
    initial: list[tuple[int, RankRect]] = []
    updates: list[tuple[int, RankRect | None]] = []
    query_pos: list[int] = []
    for parts in lines[1:]:
        if _TRACE_FIELDS.get(parts[0]) != len(parts):
            raise ValueError(f"bad trace line {' '.join(parts)!r}")
        if parts[0] in ("A", "I"):
            uid, x_lo, x_hi, y_lo, y_hi = map(int, parts[1:])
            (initial if parts[0] == "I" else updates).append(
                (uid, RankRect(x_lo, x_hi, y_lo, y_hi)))
        elif parts[0] == "D":
            updates.append((int(parts[1]), None))
        else:
            query_pos.append(int(parts[1]))
    if query_pos != sorted(query_pos) or any(not 0 <= p <= len(updates) for p in query_pos):
        raise ValueError("query positions must be ascending and within the events")
    if not query_pos:
        query_pos = list(range(1, len(updates) + 1))
    return box_cells, initial, updates, query_pos
