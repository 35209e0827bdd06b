"""Time one set-up in a fresh interpreter: import polyplace, then generate and
validate a workload's seeded instances. Prints the seconds, then the median
seconds of five reference loops run right after.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import statistics
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import polyplace  # noqa: F401  (the import is what is timed)
    import workloads
    workloads.build(sys.argv[1], int(sys.argv[2]))
    setup = perf_counter() - t0
    import reference
    print(setup, statistics.median(reference.time_loop() for _ in range(5)))
