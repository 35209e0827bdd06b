"""Scale-parameterized forbidden translations and their rank-space encoding.

For each interior rectangle of the pattern and each complement rectangle of
the target, the translations that make them properly overlap form an open
rectangle whose sides are linear functions of the scale factor. As the scale
decreases, the sorted orders of all side functions change only at finitely
many critical values; between criticals the combinatorial picture is frozen.
Encoding each coordinate by its rank, with every rank split into an ``end``
(2r-1) and a ``start`` (2r) cell, turns the open rectangles into closed
integer ones whose union covers the rank-space box exactly when the real
rectangles cover the target's bounding box.

The sweep below walks the criticals in descending order and emits the add /
delete trace of the closed rank rectangles, touching only the rectangles
whose defining forms participate in a tie at each critical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .decompose import RectCover
from .geometry import AxisRect, ORIGIN, Point, Rational


@dataclass(frozen=True)
class LinearForm:
    """The function scale -> alpha * scale + beta."""

    alpha: Rational
    beta: Rational

    def at(self, lam: Rational) -> Rational:
        return self.alpha * lam + self.beta


@dataclass(frozen=True)
class LinearRect:
    """Open rectangle (x_lo, x_hi) x (y_lo, y_hi) with linear-form sides.

    Empty whenever x_lo >= x_hi or y_lo >= y_hi at the evaluated scale.
    """

    x_lo: LinearForm
    x_hi: LinearForm
    y_lo: LinearForm
    y_hi: LinearForm
    src: tuple[int, int] = (-1, -1)

    def at(self, lam: Rational) -> tuple[Rational, Rational, Rational, Rational]:
        return (self.x_lo.at(lam), self.x_hi.at(lam), self.y_lo.at(lam), self.y_hi.at(lam))


@dataclass(frozen=True)
class RankRect:
    """Closed rectangle in start/end rank coordinates (integers)."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    @property
    def cells(self) -> int:
        return (self.x_hi - self.x_lo + 1) * (self.y_hi - self.y_lo + 1)


@dataclass(frozen=True)
class CoverUpdate:
    kind: str            # "add" | "delete"
    rect: RankRect | None
    uid: object          # stable rectangle identity (int in sweep traces)
    at_step: int = 0     # index into the region sequence


@dataclass
class CoordSets:
    """All side functions of both axes, with back-references to their owners.

    ``x_entries`` / ``y_entries`` hold (form, owner) pairs where owner is
    ("lo", rect_index), ("hi", rect_index), or ("box", 0|1) for the bounding
    box constants. Entry counts are 2 * p' * q' + 2 per axis.
    """

    rects: list[LinearRect]
    x_entries: list[tuple[LinearForm, tuple]]
    y_entries: list[tuple[LinearForm, tuple]]
    box: AxisRect

    @property
    def rank_box(self) -> tuple[int, int]:
        return 2 * len(self.x_entries), 2 * len(self.y_entries)


def forbidden_rect(p_rect: AxisRect, q_rect: AxisRect, center: Point = ORIGIN,
                   src: tuple[int, int] = (-1, -1)) -> LinearRect:
    """Translations for which the scaled pattern rect meets q_rect's interior.

    The pattern rectangle is taken in coordinates centered on ``center`` (the
    scaling reference point). Boundary contact is not forbidden, hence the
    open-interval semantics.
    """
    x0, x1 = p_rect.x0 - center.x, p_rect.x1 - center.x
    y0, y1 = p_rect.y0 - center.y, p_rect.y1 - center.y
    return LinearRect(
        x_lo=LinearForm(-x1, q_rect.x0),
        x_hi=LinearForm(-x0, q_rect.x1),
        y_lo=LinearForm(-y1, q_rect.y0),
        y_hi=LinearForm(-y0, q_rect.y1),
        src=src,
    )


def coordinate_functions(pcov: RectCover, qcov: RectCover, box: AxisRect) -> CoordSets:
    """Forbidden rectangles of every cover pair plus the box constants."""
    rects: list[LinearRect] = []
    for i, pr in enumerate(pcov.rects):
        for j, qr in enumerate(qcov.rects):
            rects.append(forbidden_rect(pr, qr, src=(i, j)))
    x_entries: list[tuple[LinearForm, tuple]] = []
    y_entries: list[tuple[LinearForm, tuple]] = []
    for idx, lr in enumerate(rects):
        x_entries.append((lr.x_lo, ("lo", idx)))
        x_entries.append((lr.x_hi, ("hi", idx)))
        y_entries.append((lr.y_lo, ("lo", idx)))
        y_entries.append((lr.y_hi, ("hi", idx)))
    x_entries.append((LinearForm(Fraction(0), box.x0), ("box", 0)))
    x_entries.append((LinearForm(Fraction(0), box.x1), ("box", 1)))
    y_entries.append((LinearForm(Fraction(0), box.y0), ("box", 0)))
    y_entries.append((LinearForm(Fraction(0), box.y1), ("box", 1)))
    return CoordSets(rects=rects, x_entries=x_entries, y_entries=y_entries, box=box)


# ---------------------------------------------------------------------------
# integer-normalized axis tables
# ---------------------------------------------------------------------------

class _Axis:
    """Distinct forms of one axis as integer (alpha, beta) nodes with weights."""

    __slots__ = ("alphas", "betas", "weights", "backs", "b0", "b1", "total")

    def __init__(self, entries: Sequence[tuple[LinearForm, tuple]], scale: int):
        index: dict[tuple[int, int], int] = {}
        self.alphas: list[int] = []
        self.betas: list[int] = []
        self.weights: list[int] = []
        self.backs: list[list[tuple]] = []
        self.b0 = self.b1 = -1
        for form, owner in entries:
            a = form.alpha * scale
            b = form.beta * scale
            key = (a.numerator, b.numerator)
            node = index.get(key)
            if node is None:
                node = len(self.alphas)
                index[key] = node
                self.alphas.append(key[0])
                self.betas.append(key[1])
                self.weights.append(0)
                self.backs.append([])
            self.weights[node] += 1
            self.backs[node].append(owner)
            if owner == ("box", 0):
                self.b0 = node
            elif owner == ("box", 1):
                self.b1 = node
        self.total = sum(self.weights)


def _axis_scale(cs: CoordSets) -> int:
    denoms = [1]
    for entries in (cs.x_entries, cs.y_entries):
        for form, _ in entries:
            denoms.append(form.alpha.denominator)
            denoms.append(form.beta.denominator)
    return math.lcm(*denoms)


def _build_axes(cs: CoordSets) -> tuple["_Axis", "_Axis", int]:
    scale = _axis_scale(cs)
    return _Axis(cs.x_entries, scale), _Axis(cs.y_entries, scale), scale


def _axis_events(axis: _Axis):
    """Every pair of nodes that meet at a positive scale, as (scale, i, j)."""
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
            if db == 0 or (db > 0) != (da > 0):
                continue  # meeting point at scale <= 0
            yield Fraction(db, da), i, j


def _critical_events(xaxis: _Axis, yaxis: _Axis) -> dict[Fraction, tuple[set, set]]:
    """Each critical scale with the x and y nodes that meet there."""
    events: dict[Fraction, tuple[set, set]] = {}
    for slot, axis in enumerate((xaxis, yaxis)):
        for lam, i, j in _axis_events(axis):
            ev = events.get(lam)
            if ev is None:
                ev = (set(), set())
                events[lam] = ev
            ev[slot].add(i)
            ev[slot].add(j)
    return events


def critical_values(cs: CoordSets) -> list[Rational]:
    """All positive scales where two same-axis forms meet, strictly descending."""
    xaxis, yaxis, _ = _build_axes(cs)
    return sorted(_critical_events(xaxis, yaxis), reverse=True)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def _full_ranks(axis: _Axis, num: int, den: int) -> dict[int, tuple[int, int]]:
    """Rank interval of every node at scale num/den, ties grouped by value."""
    keyed = sorted(range(len(axis.alphas)),
                   key=lambda i: axis.alphas[i] * num + axis.betas[i] * den)
    ranks: dict[int, tuple[int, int]] = {}
    taken = 0
    i = 0
    while i < len(keyed):
        v = axis.alphas[keyed[i]] * num + axis.betas[keyed[i]] * den
        group = [keyed[i]]
        i += 1
        while i < len(keyed) and axis.alphas[keyed[i]] * num + axis.betas[keyed[i]] * den == v:
            group.append(keyed[i])
            i += 1
        w = sum(axis.weights[g] for g in group)
        interval = (taken + 1, taken + w)
        for g in group:
            ranks[g] = interval
        taken += w
    return ranks


def _node_of_sides(cs: CoordSets, xaxis: _Axis, yaxis: _Axis, scale: int):
    """Map each rect side to its axis node (mirrors the dedup in _Axis)."""
    def index_of(axis: _Axis):
        table = {}
        for node in range(len(axis.alphas)):
            table[(axis.alphas[node], axis.betas[node])] = node
        return table

    xi, yi = index_of(xaxis), index_of(yaxis)
    nodes = []
    for lr in cs.rects:
        ax = xi[((lr.x_lo.alpha * scale).numerator, (lr.x_lo.beta * scale).numerator)]
        bx = xi[((lr.x_hi.alpha * scale).numerator, (lr.x_hi.beta * scale).numerator)]
        cy = yi[((lr.y_lo.alpha * scale).numerator, (lr.y_lo.beta * scale).numerator)]
        dy = yi[((lr.y_hi.alpha * scale).numerator, (lr.y_hi.beta * scale).numerator)]
        nodes.append((ax, bx, cy, dy))
    return nodes


def _assemble(cs: CoordSets, rect_nodes, xranks, yranks, wx2: int, wy2: int) -> dict:
    snap: dict = {}
    for idx in range(len(cs.rects)):
        ax, bx, cy, dy = rect_nodes[idx]
        x_lo = 2 * xranks[ax][1]
        x_hi = 2 * xranks[bx][0] - 1
        if x_lo > x_hi:
            continue
        y_lo = 2 * yranks[cy][1]
        y_hi = 2 * yranks[dy][0] - 1
        if y_lo > y_hi:
            continue
        snap[idx] = RankRect(x_lo, x_hi, y_lo, y_hi)
    return snap


def _band_rects(xaxis: _Axis, yaxis: _Axis, xranks, yranks, wx2: int, wy2: int) -> dict:
    return {
        "L": RankRect(1, 2 * xranks[xaxis.b0][0] - 1, 1, wy2),
        "R": RankRect(2 * xranks[xaxis.b1][1], wx2, 1, wy2),
        "B": RankRect(1, wx2, 1, 2 * yranks[yaxis.b0][0] - 1),
        "T": RankRect(1, wx2, 2 * yranks[yaxis.b1][1], wy2),
    }


def rank_snapshot(cs: CoordSets, lam: Rational) -> dict:
    """Closed rank representation of every nonempty rectangle at ``lam``.

    Evaluate at a critical value to get the tied snapshot, or at any interior
    point of a region between criticals (e.g. the midpoint) for the generic
    one. Keys are rect indices plus "L", "R", "B", "T" for the boundary
    rectangles; empty rectangles are omitted.
    """
    lam = Fraction(lam)
    xaxis, yaxis, scale = _build_axes(cs)
    num, den = lam.numerator, lam.denominator
    xr = _full_ranks(xaxis, num, den)
    yr = _full_ranks(yaxis, num, den)
    wx2, wy2 = 2 * xaxis.total, 2 * yaxis.total
    rect_nodes = _node_of_sides(cs, xaxis, yaxis, scale)
    snap = _assemble(cs, rect_nodes, xr, yr, wx2, wy2)
    snap.update(_band_rects(xaxis, yaxis, xr, yr, wx2, wy2))
    return snap


# ---------------------------------------------------------------------------
# the descending sweep
# ---------------------------------------------------------------------------

class _AxisState:
    """Sorted order of one axis, maintained across criticals."""

    __slots__ = ("axis", "order", "pos", "pref")

    def __init__(self, axis: _Axis, lam0: Fraction):
        self.axis = axis
        num, den = lam0.numerator, lam0.denominator
        self.order = sorted(range(len(axis.alphas)),
                            key=lambda i: axis.alphas[i] * num + axis.betas[i] * den)
        self.pos = [0] * len(self.order)
        for p, node in enumerate(self.order):
            self.pos[node] = p
        self.pref = [0] * (len(self.order) + 1)
        for p, node in enumerate(self.order):
            self.pref[p + 1] = self.pref[p] + axis.weights[node]

    def rank(self, node: int) -> tuple[int, int]:
        p = self.pos[node]
        return self.pref[p] + 1, self.pref[p + 1]

    def tie_groups(self, involved: set[int], num: int, den: int):
        """Group the involved nodes by value at num/den; return interval map."""
        byval: dict[int, list[int]] = {}
        alphas, betas = self.axis.alphas, self.axis.betas
        for node in involved:
            byval.setdefault(alphas[node] * num + betas[node] * den, []).append(node)
        tie: dict[int, tuple[int, int]] = {}
        groups: list[tuple[int, list[int]]] = []
        for nodes in byval.values():
            if len(nodes) < 2:
                raise RuntimeError("critical without a coinciding pair")
            ps = sorted(self.pos[n] for n in nodes)
            if ps[-1] - ps[0] != len(ps) - 1:
                raise RuntimeError("tie group not contiguous")
            interval = (self.pref[ps[0]] + 1, self.pref[ps[-1] + 1])
            for n in nodes:
                tie[n] = interval
            groups.append((ps[0], nodes))
        return tie, groups

    def reorder_below(self, groups) -> None:
        """Resolve each tie for scales just below the critical value."""
        alphas = self.axis.alphas
        weights = self.axis.weights
        for start, nodes in groups:
            # value just below the critical is v - alpha*eps: descending alpha
            nodes = sorted(nodes, key=lambda n: -alphas[n])
            for off, node in enumerate(nodes):
                self.order[start + off] = node
                self.pos[node] = start + off
            for p in range(start, start + len(nodes)):
                self.pref[p + 1] = self.pref[p] + weights[self.order[p]]


@dataclass
class SweepPlan:
    """Preplanned offline trace of the rank-space cover across the criticals.

    ``query_pos[i]`` is the number of updates after which the structure holds
    the snapshot at criticals[i] exactly; ``initial`` is the preloaded state
    for scales above the first swept critical. When the sweep was started
    below a cap, ``skipped_above`` counts the dropped larger criticals.
    """

    criticals: list[Rational]
    box_cells: tuple[int, int]
    initial: list[tuple[int, RankRect]]
    updates: list[CoverUpdate]
    query_pos: list[int]
    live_bound: int
    skipped_above: int = 0


def build_sweep(cs: CoordSets, start_below: Rational | None = None) -> SweepPlan:
    """Construct the descending-sweep trace with embedded query points.

    With ``start_below`` given, criticals above it are dropped and the sweep
    starts inside the region just above the first kept critical; the snapshot
    there is region-determined, so results at kept criticals are unchanged.
    """
    xaxis, yaxis, scale = _build_axes(cs)
    events = _critical_events(xaxis, yaxis)
    criticals = sorted(events, reverse=True)
    skipped = 0
    if start_below is not None:
        while skipped < len(criticals) and criticals[skipped] > start_below:
            skipped += 1
        if skipped:
            dropped_last = criticals[skipped - 1]  # smallest dropped critical
            criticals = criticals[skipped:]
            # any interior point of (criticals[0], dropped_last) gives the
            # region order just above the first kept critical
            lam0 = ((dropped_last + criticals[0]) / 2 if criticals
                    else dropped_last + 1)
        else:
            lam0 = (criticals[0] + 1) if criticals else Fraction(1)
    else:
        lam0 = (criticals[0] + 1) if criticals else Fraction(1)

    xstate = _AxisState(xaxis, lam0)
    ystate = _AxisState(yaxis, lam0)
    rect_nodes = _node_of_sides(cs, xaxis, yaxis, scale)
    wx2, wy2 = 2 * xaxis.total, 2 * yaxis.total

    EMPTY: dict[int, tuple[int, int]] = {}

    def make_rect(key, xtie, ytie):
        if isinstance(key, int):
            ax, bx, cy, dy = rect_nodes[key]
            x_lo = 2 * (xtie.get(ax) or xstate.rank(ax))[1]
            x_hi = 2 * (xtie.get(bx) or xstate.rank(bx))[0] - 1
            if x_lo > x_hi:
                return None
            y_lo = 2 * (ytie.get(cy) or ystate.rank(cy))[1]
            y_hi = 2 * (ytie.get(dy) or ystate.rank(dy))[0] - 1
            if y_lo > y_hi:
                return None
            return RankRect(x_lo, x_hi, y_lo, y_hi)
        if key == "L":
            return RankRect(1, 2 * (xtie.get(xaxis.b0) or xstate.rank(xaxis.b0))[0] - 1, 1, wy2)
        if key == "R":
            return RankRect(2 * (xtie.get(xaxis.b1) or xstate.rank(xaxis.b1))[1], wx2, 1, wy2)
        if key == "B":
            return RankRect(1, wx2, 1, 2 * (ytie.get(yaxis.b0) or ystate.rank(yaxis.b0))[0] - 1)
        return RankRect(1, wx2, 2 * (ytie.get(yaxis.b1) or ystate.rank(yaxis.b1))[1], wy2)

    current: dict = {}
    uid_of: dict = {}
    next_uid = 0
    initial: list[tuple[int, RankRect]] = []
    all_keys = list(range(len(cs.rects))) + ["L", "R", "B", "T"]
    for key in all_keys:
        r = make_rect(key, EMPTY, EMPTY)
        current[key] = r
        if r is not None:
            uid_of[key] = next_uid
            initial.append((next_uid, r))
            next_uid += 1

    updates: list[CoverUpdate] = []
    query_pos: list[int] = []

    def emit(keys, xtie, ytie, at_step):
        nonlocal next_uid
        adds = []
        dels = []
        for key in keys:
            new = make_rect(key, xtie, ytie)
            old = current[key]
            if new == old:
                continue
            if old is not None:
                dels.append(uid_of.pop(key))
            current[key] = new
            if new is not None:
                adds.append((key, new))
        for key, rect in adds:
            uid_of[key] = next_uid
            updates.append(CoverUpdate("add", rect, next_uid, at_step))
            next_uid += 1
        for uid in dels:
            updates.append(CoverUpdate("delete", None, uid, at_step))

    for ci, lam in enumerate(criticals):
        ex, ey = events[lam]
        num, den = lam.numerator, lam.denominator
        xtie, xgroups = xstate.tie_groups(ex, num, den)
        ytie, ygroups = ystate.tie_groups(ey, num, den)

        affected: set = set()
        for node in ex:
            for owner in xaxis.backs[node]:
                affected.add(("L" if owner[1] == 0 else "R") if owner[0] == "box" else owner[1])
        for node in ey:
            for owner in yaxis.backs[node]:
                affected.add(("B" if owner[1] == 0 else "T") if owner[0] == "box" else owner[1])
        keys = sorted(affected, key=lambda k: (isinstance(k, str), str(k)))

        emit(keys, xtie, ytie, 2 * ci + 1)
        query_pos.append(len(updates))
        xstate.reorder_below(xgroups)
        ystate.reorder_below(ygroups)
        emit(keys, EMPTY, EMPTY, 2 * ci + 2)

    return SweepPlan(
        criticals=criticals,
        box_cells=(wx2, wy2),
        initial=initial,
        updates=updates,
        query_pos=query_pos,
        live_bound=len(cs.rects) + 4,
        skipped_above=skipped,
    )


# ---------------------------------------------------------------------------
# update-trace file format: header "N <nx> <ny>", then preloaded rectangles
# "I <id> <x_lo> <x_hi> <y_lo> <y_hi>", then one event per line,
# "A <id> <x_lo> <x_hi> <y_lo> <y_hi>" or "D <id>", then "Q <pos>" lines, one
# per coverage query after the first <pos> events. A file without "Q" lines
# queries after every event.
# ---------------------------------------------------------------------------

def write_trace(path: str, box_cells: tuple[int, int], updates: Sequence[CoverUpdate],
                initial: Sequence[tuple[int, RankRect]], query_pos: Sequence[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N {box_cells[0]} {box_cells[1]}\n")
        for uid, r in initial:
            fh.write(f"I {uid} {r.x_lo} {r.x_hi} {r.y_lo} {r.y_hi}\n")
        for u in updates:
            if u.kind == "add":
                r = u.rect
                fh.write(f"A {u.uid} {r.x_lo} {r.x_hi} {r.y_lo} {r.y_hi}\n")
            else:
                fh.write(f"D {u.uid}\n")
        for pos in query_pos:
            fh.write(f"Q {pos}\n")


def read_trace(path: str) -> tuple[tuple[int, int], list[tuple[int, RankRect]],
                                   list[CoverUpdate], list[int]]:
    """Box, preloaded rectangles, events and query positions of a trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if not lines or lines[0][0] != "N":
        raise ValueError("trace file must start with an 'N <nx> <ny>' header")
    box_cells = (int(lines[0][1]), int(lines[0][2]))
    initial: list[tuple[int, RankRect]] = []
    updates: list[CoverUpdate] = []
    query_pos: list[int] = []
    for parts in lines[1:]:
        if parts[0] in ("A", "I"):
            uid, x_lo, x_hi, y_lo, y_hi = map(int, parts[1:6])
            r = RankRect(x_lo, x_hi, y_lo, y_hi)
            if parts[0] == "I":
                initial.append((uid, r))
            else:
                updates.append(CoverUpdate("add", r, uid, len(updates)))
        elif parts[0] == "D":
            updates.append(CoverUpdate("delete", None, int(parts[1]), len(updates)))
        elif parts[0] == "Q":
            query_pos.append(int(parts[1]))
        else:
            raise ValueError(f"unknown trace line {' '.join(parts)!r}")
    if query_pos != sorted(query_pos) or any(not 0 <= p <= len(updates) for p in query_pos):
        raise ValueError("query positions must be ascending and within the events")
    if not query_pos:
        query_pos = list(range(1, len(updates) + 1))
    return box_cells, initial, updates, query_pos
