"""Timed and traced passes of the exact solvers over one workload's instances.

A round solves every instance once with each of its solvers, interleaved per
instance. Rounds continue until the time budget is spent, and there are at
least two. The first round is a warm-up: each instance's answers are checked
in it, right after its solves and outside their timing (see
``workloads.check_answers``), and the peak memory is read after it. The later
rounds are timed and must return the same answers. A call that raises or
fails a check counts as failed.

Solver calls are preceded by a run of the reference loop (``reference.py``),
at most one per second. A solver's pass time is the sum over its instances of the
median call time over the timed rounds, in reference seconds.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
from time import perf_counter

from polyplace.dyncover import run_plan
from polyplace.solver import max_scale, max_scale_baseline, max_scale_x

import reference
import workloads
from spans import RUN_PLAN, SOLVER_CALLEES, SpanRecorder
from workloads import BASELINE, MAX_SCALE, MAX_SCALE_X

SOLVERS = {MAX_SCALE: max_scale, BASELINE: max_scale_baseline, MAX_SCALE_X: max_scale_x}
MIN_ROUNDS = 2  # the warm-up round and at least one timed round


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def _answer(res) -> int:
    """Hash of a result's answer; kept instead of the result so that the
    benchmark holds no memory across solves."""
    return hash((res.status, res.lambda_star, res.witness))


class Tally:
    """Solver calls attempted and failed; the first answer of each call site."""

    def __init__(self, instances):
        self.instances = instances
        self.attempted = 0
        self.failed = 0
        self.answers: list[dict] = [dict() for _ in instances]

    def call(self, i: int, solver: str, fn):
        """Run one solver call; returns (result or None, seconds)."""
        self.attempted += 1
        inst = self.instances[i]
        t0 = perf_counter()
        try:
            res = fn(inst.pattern, inst.target)
        except Exception:  # a crash of the program under test is a failed call
            dt = perf_counter() - t0
            self.fail(f"{inst.label} {solver} raised:\n{traceback.format_exc()}")
            return None, dt
        dt = perf_counter() - t0
        answer = _answer(res)
        seen = self.answers[i].setdefault(solver, answer)
        if seen != answer:
            self.fail(f"{inst.label} {solver}: answer differs between rounds")
        return res, dt

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    def check(self, i: int, results: dict) -> None:
        """Check one instance's answers (solver name -> result or None)."""
        inst = self.instances[i]
        if any(res is None for res in results.values()):
            return  # a call raised; already counted
        for name in workloads.check_answers(inst, results):
            self.fail(f"{inst.label} {name}: answer fails its check")


def _more_rounds(started: float, rounds: int, last_round: float, seconds: float) -> bool:
    """Start another round if fewer than ``MIN_ROUNDS`` are done or if it
    should end by about ``seconds``."""
    return rounds < MIN_ROUNDS or perf_counter() - started + last_round / 2 < seconds


def run_untraced(instances, seconds: float) -> dict:
    """End-to-end metrics: pass times, max_scale call latency, peak memory."""
    tally = Tally(instances)
    solvers = [s for s in SOLVERS if any(s in inst.solvers for inst in instances)]
    times = [{s: [] for s in inst.solvers} for inst in instances]  # timed rounds
    loops = reference.Sampler()  # timed rounds only
    rss0 = _rss_bytes()
    started = perf_counter()
    rounds = 0
    while True:
        warm_up = rounds == 0
        round_start = perf_counter()
        for i, inst in enumerate(instances):
            results = {}
            for solver in inst.solvers:
                if not warm_up:
                    loops.tick()
                results[solver], dt = tally.call(i, solver, SOLVERS[solver])
                if not warm_up:
                    times[i][solver].append(dt)
            if warm_up:
                tally.check(i, results)
        if warm_up:
            peak_rise = _peak_rss_bytes() - rss0
        rounds += 1
        if not _more_rounds(started, rounds, perf_counter() - round_start, seconds):
            break

    scale = reference.scale(loops.samples)
    raw_pass_s = {s: sum(statistics.median(t[s]) for t in times if s in t) for s in solvers}
    latency_ms = [1e3 * scale * dt for t in times for dt in t.get(MAX_SCALE, ())]
    deciles = statistics.quantiles(latency_ms, n=10, method="inclusive")
    return {
        "tally": tally,
        "timed_rounds": rounds - 1,
        "loop_s": statistics.median(loops.samples),
        "loop_samples": len(loops.samples),
        "raw_pass_s": raw_pass_s,
        "pass_s": {s: scale * v for s, v in raw_pass_s.items()},
        "solve_ms_p50": deciles[4],
        "solve_ms_p90": deciles[8],
        "latency_calls": len(latency_ms),
        "latency_instances": sum(MAX_SCALE in inst.solvers for inst in instances),
        "peak_mem_bytes": peak_rise,
    }


def _scale_bits(cs) -> int:
    """Bit length of the lcm of all form denominators (the integer axis scale).

    Computed here from the public CoordSets rather than through the solver's
    private helper, so the benchmark does not depend on private names."""
    denoms = [1]
    for entries in (cs.x_entries, cs.y_entries):
        for form, _ in entries:
            denoms += (form.alpha.denominator, form.beta.denominator)
    return math.lcm(*denoms).bit_length()


COUNTS = ("criticals", "skipped", "updates_planned", "updates_applied", "queries",
          "box_cells", "scale_bits", "p_rects", "q_rects", "static_tests", "x_candidates")
MAX_COUNTS = ("box_cells", "scale_bits")  # aggregated by max, the rest by sum


class _TracedRound:
    """Per-round sums of span times and counts read from return values."""

    def __init__(self):
        self.time = dict.fromkeys(list(SOLVER_CALLEES) + [RUN_PLAN], 0.0)
        self.self_time = dict.fromkeys(SOLVERS, 0.0)
        self.root_time = dict.fromkeys(SOLVERS, 0.0)
        self.untraced_max_scale = 0.0
        self.naive = 0.0
        self.loops = reference.Sampler()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.per_instance: dict[str, dict] = {}

    def add_count(self, key: str, value: int) -> None:
        if key in MAX_COUNTS:
            self.counts[key] = max(self.counts[key], value)
        else:
            self.counts[key] += value


def _read_max_scale_spans(rec: SpanRecorder, root: int, rnd: _TracedRound, tally: Tally,
                          label: str) -> None:
    """Layer times and counts of one traced max_scale call, plus the naive replay."""
    inst_counts = {}
    for span in rec.children(root):
        rnd.time[span.name] += span.duration
        res = span.result
        if span.name == "cover_interior":
            inst_counts["p_rects"] = len(res.rects)
        elif span.name == "cover_complement":
            inst_counts["q_rects"] = len(res.rects)
        elif span.name == "coordinate_functions":
            inst_counts["scale_bits"] = _scale_bits(res)
        elif span.name == "build_sweep":
            inst_counts.update(criticals=res.skipped_above + len(res.criticals),
                               skipped=res.skipped_above,
                               updates_planned=len(res.updates),
                               box_cells=res.box_cells[0] * res.box_cells[1])
        elif span.name == RUN_PLAN:
            box, capacity, initial, updates, query_pos = span.args[:5]
            failed = res[0]
            inst_counts["queries"] = len(query_pos) if failed is None else failed + 1
            inst_counts["updates_applied"] = (len(updates) if failed is None
                                              else query_pos[failed])
            tally.attempted += 1
            t0 = perf_counter()
            try:
                naive_failed, _ = run_plan(box, capacity, initial, updates, query_pos, "naive")
            except Exception:  # counted, like a solver crash
                tally.fail(f"{label} naive replay raised:\n{traceback.format_exc()}")
            else:
                if naive_failed != failed:
                    tally.fail(f"{label} naive replay: first uncovered query "
                               f"{naive_failed} != {failed}")
            rnd.naive += perf_counter() - t0
    for key, value in inst_counts.items():
        rnd.add_count(key, value)
    rnd.per_instance[label] = inst_counts


def run_traced(instances, seconds: float) -> dict:
    """Per-layer metrics from spans taken around each module's public calls.

    Each instance is solved untraced with ``max_scale`` and then traced with
    every one of its solvers, so the tracing overhead is measured on the same
    stretch of machine time. Each traced plan is replayed with the naive
    engine off the solve path; its first uncovered query must match. Counts
    come from the first round; times are medians over the later rounds (over
    the first, if it is the only one), in reference seconds.
    """
    tally = Tally(instances)
    rec = SpanRecorder()
    rounds: list[_TracedRound] = []
    started = perf_counter()
    while True:
        round_start = perf_counter()
        rnd = _TracedRound()
        for i, inst in enumerate(instances):
            if MAX_SCALE in inst.solvers:
                rnd.loops.tick()
                _, dt = tally.call(i, MAX_SCALE, max_scale)
                rnd.untraced_max_scale += dt
            results = {}
            for solver in inst.solvers:
                first_span = len(rec.spans)
                rnd.loops.tick()
                with rec.installed(), rec.root(solver, i) as root:
                    res, _ = tally.call(i, solver, SOLVERS[solver])
                results[solver] = res
                rnd.self_time[solver] += rec.self_time(root)
                rnd.root_time[solver] += rec.spans[root].duration
                if solver == MAX_SCALE:
                    if res is not None:
                        _read_max_scale_spans(rec, root, rnd, tally, inst.label)
                elif solver == BASELINE:
                    for span in rec.children(root):
                        if span.name == "critical_values":
                            rnd.time["critical_values"] += span.duration
                    if res is not None:
                        rnd.add_count("static_tests", res.stats.queries)
                elif res is not None:
                    rnd.add_count("x_candidates", res.stats.criticals)
                rec.drop_payloads(first_span)
            if not rounds:
                tally.check(i, results)
        rounds.append(rnd)
        if not _more_rounds(started, len(rounds), perf_counter() - round_start, seconds):
            break
    return {"tally": tally, "rounds": rounds, "recorder": rec}


def _timed(traced: dict) -> list[_TracedRound]:
    return traced["rounds"][1:] or traced["rounds"]


def _cover_time(rnd: _TracedRound) -> float:
    return (rnd.time["cover_interior"] + rnd.time["cover_complement"]
            + rnd.time["padded_frame"])


def layer_metrics(traced: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a traced run."""
    rounds = _timed(traced)
    counts = traced["rounds"][0].counts
    scale = reference.scale([loop for r in rounds for loop in r.loops.samples])

    def med(fn):
        return scale * statistics.median(fn(r) for r in rounds)

    run_plan_s = med(lambda r: r.time[RUN_PLAN])
    applied, planned = counts["updates_applied"], counts["updates_planned"]
    untraced = med(lambda r: r.untraced_max_scale)
    return {
        "dyncover.run_plan_s": run_plan_s,
        "dyncover.us_per_update": 1e6 * run_plan_s / applied if applied else 0.0,
        "dyncover.updates_applied": applied,
        "dyncover.queries": counts["queries"],
        "dyncover.run_plan_naive_s": med(lambda r: r.naive),
        "forbidden.build_sweep_s": med(lambda r: r.time["build_sweep"]),
        "forbidden.updates_planned": planned,
        "forbidden.plan_used_frac": applied / planned if planned else 0.0,
        "forbidden.coordinate_functions_s": med(lambda r: r.time["coordinate_functions"]),
        "forbidden.critical_values_s": med(lambda r: r.time["critical_values"]),
        "forbidden.criticals": counts["criticals"],
        "forbidden.skipped": counts["skipped"],
        "forbidden.scale_bits": counts["scale_bits"],
        "forbidden.box_cells": counts["box_cells"],
        "geometry.normalize_center_s": med(lambda r: r.time["normalize_center"]),
        "decompose.cover_s": med(_cover_time),
        "decompose.p_rects": counts["p_rects"],
        "decompose.q_rects": counts["q_rects"],
        "coverage.find_hole_s": med(lambda r: r.time["find_hole"]),
        "solver.max_scale_self_s": med(lambda r: r.self_time[MAX_SCALE]),
        "solver.baseline_self_s": med(lambda r: r.self_time[BASELINE]),
        "solver.static_tests": counts["static_tests"],
        "solver.max_scale_x_self_s": med(lambda r: r.self_time[MAX_SCALE_X]),
        "solver.x_candidates": counts["x_candidates"],
        "trace.overhead_frac": (med(lambda r: r.root_time[MAX_SCALE]) / untraced - 1
                                if untraced else 0.0),
    }


def layer_shares(traced: dict) -> dict[str, dict[str, float]]:
    """Each layer's share of a traced solver pass (medians over timed rounds),
    for ``max_scale`` and ``max_scale_baseline``."""
    rounds = _timed(traced)

    def shares(solver: str, parts: dict) -> dict[str, float]:
        total = statistics.median(r.root_time[solver] for r in rounds)
        if not total:
            return {}
        return {layer: statistics.median(fn(r) for r in rounds) / total
                for layer, fn in parts.items()}

    return {
        MAX_SCALE: shares(MAX_SCALE, {
            "geometry": lambda r: r.time["normalize_center"],
            "decompose": _cover_time,
            "forbidden": lambda r: r.time["coordinate_functions"] + r.time["build_sweep"],
            "dyncover": lambda r: r.time[RUN_PLAN],
            "coverage": lambda r: r.time["find_hole"],
            "solver": lambda r: r.self_time[MAX_SCALE],
        }),
        BASELINE: shares(BASELINE, {
            "forbidden.critical_values": lambda r: r.time["critical_values"],
            "solver": lambda r: r.self_time[BASELINE],
        }),
    }
