"""Benchmark of the exact placement solvers (metrics listed in BENCHMARK.json).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload comb-deep --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the traced run and reports the per-layer metrics. Every answer is
checked. Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exits with status 2, printing no result, when the checkout has
no polyplace sources.
"""

from __future__ import annotations

import os

# One process with one thread: pin the BLAS pools before numpy is imported.
# Child processes inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"  # span dumps of traced runs
WORKLOADS = ("comb-deep", "random-early", "gadget-ties")
SETUP_SAMPLES = 9
DEFAULT_SEED = 0
# ROADMAP's counts for the unit square in comb_polygon(200, random.Random(200))
ROADMAP_COMB200 = {"criticals": 3536, "updates_planned": 19954}

END_TO_END_UNITS = {
    "max_scale_s": "s", "baseline_s": "s", "max_scale_x_s": "s", "setup_s": "s",
    "peak_mem_mb": "MB",
}
PER_LAYER_UNITS = {
    "dyncover.run_plan_s": "s", "dyncover.us_per_update": "us",
    "dyncover.updates_applied": "count", "dyncover.queries": "count",
    "dyncover.run_plan_naive_s": "s", "forbidden.build_sweep_s": "s",
    "forbidden.updates_planned": "count", "forbidden.plan_used_frac": "frac",
    "forbidden.coordinate_functions_s": "s", "forbidden.critical_values_s": "s",
    "forbidden.criticals": "count", "forbidden.skipped": "count",
    "forbidden.scale_bits": "bits", "forbidden.box_cells": "count",
    "geometry.normalize_center_s": "s", "decompose.cover_s": "s",
    "decompose.p_rects": "count", "decompose.q_rects": "count",
    "coverage.find_hole_s": "s", "solver.max_scale_self_s": "s",
    "solver.baseline_self_s": "s", "solver.static_tests": "count",
    "solver.max_scale_x_self_s": "s", "solver.x_candidates": "count",
    "trace.overhead_frac": "frac",
}


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters (import, generate, validate), each
    with the reference loop time measured right after it in the same process."""
    setups, loops = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        setup, loop = map(float, out.stdout.split()[-2:])
        setups.append(setup)
        loops.append(loop)
    return setups, loops


def end_to_end(args) -> tuple[dict, object]:
    import measure
    import reference
    import workloads

    setups, setup_loops = setup_seconds(args.workload, args.seed)
    instances = workloads.build(args.workload, args.seed)
    res = measure.run_untraced(instances, args.seconds)
    tally, rounds = res["tally"], res["timed_rounds"]
    pass_s, raw = res["pass_s"], res["raw_pass_s"]
    metrics = {
        "max_scale_s": pass_s[workloads.MAX_SCALE],
        "baseline_s": pass_s[workloads.BASELINE],
        "max_scale_x_s": pass_s[workloads.MAX_SCALE_X],
        "setup_s": statistics.median(s * reference.scale([loop])
                                     for s, loop in zip(setups, setup_loops)),
        "peak_mem_mb": res["peak_mem_bytes"] / 1e6,
    }
    notes = {name: f"raw {raw[solver]:.4g} s; medians of {rounds} timed rounds"
             for name, solver in (("max_scale_s", workloads.MAX_SCALE),
                                  ("baseline_s", workloads.BASELINE),
                                  ("max_scale_x_s", workloads.MAX_SCALE_X))}
    notes.update({
        "setup_s": (f"raw {statistics.median(setups):.4g} s; median of {len(setups)} "
                    "fresh interpreters"),
        "peak_mem_mb": "peak RSS rise over post-set-up RSS, warm-up round",
    })
    print(f"{args.workload} seed {args.seed}: {len(instances)} instances, "
          f"1 warm-up and {rounds} timed rounds; reference loop median "
          f"{res['loop_s'] * 1e3:.2f} ms of {res['loop_samples']} samples "
          f"(nominal {reference.LOOP_S * 1e3:g} ms)")
    _print_metrics(metrics, END_TO_END_UNITS, notes)
    # Latency deciles are printed, not gated: only random-early has enough
    # max_scale instances for them to describe a distribution.
    latency_note = (f"ungated; {res['latency_calls']} max_scale calls on "
                    f"{res['latency_instances']} instances")
    _print_metrics({"solve_ms_p50": res["solve_ms_p50"], "solve_ms_p90": res["solve_ms_p90"]},
                   {"solve_ms_p50": "ms", "solve_ms_p90": "ms"},
                   {"solve_ms_p50": latency_note, "solve_ms_p90": latency_note})
    return metrics, tally


def per_layer(args) -> tuple[dict, object]:
    import measure
    import workloads

    instances = workloads.build(args.workload, args.seed)
    traced = measure.run_traced(instances, args.seconds)
    metrics = measure.layer_metrics(traced)
    rounds = traced["rounds"]
    print(f"{args.workload} seed {args.seed}: {len(instances)} instances, "
          f"{len(rounds)} traced rounds (counts from the first, times are medians "
          "over the rest, in reference seconds)")
    _print_metrics(metrics, PER_LAYER_UNITS, {})
    for solver, shares in measure.layer_shares(traced).items():
        print(f"layer shares of the traced {solver} pass: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    if args.seed == DEFAULT_SEED:
        _report_drift(args.workload, rounds[0])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced["recorder"].write(path)
    print(f"{len(traced['recorder'].spans)} spans written to {path.relative_to(ROOT)}")
    return metrics, traced["tally"]


def _report_drift(workload: str, first_round) -> None:
    """Compare counts with the recorded fingerprint; drift is information only."""
    if workload == "comb-deep":
        got = first_round.per_instance.get("comb200-square", {})
        for key, want in ROADMAP_COMB200.items():
            state = "matches" if got.get(key) == want else "DRIFT"
            print(f"info: comb200-square {key} {got.get(key)} ({state} ROADMAP {want})")
    path = BENCH_DIR / "provenance.json"
    if not path.is_file():
        return
    recorded = json.loads(path.read_text())["workloads"].get(workload, {})
    for key, want in recorded.get("fingerprint", {}).items():
        got = first_round.counts.get(key)
        state = "matches" if got == want else "DRIFT"
        print(f"info: fingerprint {key} {got} ({state} recorded {want})")


def _print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:>14.6g} {units[name]}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polyplace" / "__init__.py").is_file():
        print(f"error: no polyplace sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = perf_counter()
    metrics, tally = (per_layer if args.trace else end_to_end)(args)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':34s} {frac:>14.6g} frac  "
          f"({tally.failed} failed of {tally.attempted} calls attempted)")
    print(f"wall {perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
