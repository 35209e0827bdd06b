"""Record the default seed's count fingerprints and layer shares.

Usage, from the root of a checkout: python3 perfbench/provenance.py

Writes perfbench/provenance.json: per workload why it was chosen, its exact
counts (criticals, skipped, updates planned, queries, box cells, scale bits)
and layer shares of one traced max_scale pass, together with the Python and
numpy versions, nproc, the default engine, and a held-out seed. Traced runs
on the default seed compare their counts with this file and report drift as
information: a change of sweep may legitimately change the planned counts.
"""

import inspect
import json
import os
import platform
import sys

import run  # pins the thread pools before numpy is imported

FINGERPRINT = ("criticals", "skipped", "updates_planned", "queries", "box_cells",
               "scale_bits")
HELD_OUT_SEED = 1


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import numpy

    import measure
    import workloads
    from polyplace.solver import max_scale

    record = {
        "default_seed": run.DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "default_engine": inspect.signature(max_scale).parameters["impl"].default,
        "workloads": {},
    }
    for name in run.WORKLOADS:
        instances = workloads.build(name, run.DEFAULT_SEED)
        traced = measure.run_traced(instances, seconds=0)
        if traced["tally"].failed:
            print(f"{name}: {traced['tally'].failed} failed calls", file=sys.stderr)
            return 1
        first = traced["rounds"][0]
        entry = {
            "why": workloads.WHY[name],
            "instances": len(instances),
            "fingerprint": {key: first.counts[key] for key in FINGERPRINT},
            "layer_shares": {solver: {k: round(v, 4) for k, v in shares.items()}
                             for solver, shares in measure.layer_shares(traced).items()},
        }
        if name == "comb-deep":
            entry["comb200-square"] = {key: first.per_instance["comb200-square"][key]
                                       for key in FINGERPRINT}
        record["workloads"][name] = entry
        print(name, json.dumps(entry))
    path = run.BENCH_DIR / "provenance.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
