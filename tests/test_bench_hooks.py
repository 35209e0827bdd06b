"""The traced benchmark (``perfbench/run.py --trace 1``) wraps names that the
solver looks up at call time. These checks fail when a refactor renames or
bypasses one of them, which would otherwise only show as missing spans."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import SpanRecorder  # noqa: E402

from polyplace.geometry import validate_polygon  # noqa: E402
from polyplace.instances import unit_square  # noqa: E402
from polyplace.solver import max_scale, max_scale_baseline  # noqa: E402

TARGET = validate_polygon([(0, 0), (6, 0), (6, 1), (4, 1), (4, 3), (0, 3)])


def test_traced_solves_record_every_hooked_layer():
    rec = SpanRecorder()
    with rec.installed():
        with rec.root("max_scale", 0) as fast_root:
            fast = max_scale(unit_square(), TARGET)
        with rec.root("max_scale_baseline", 0) as base_root:
            base = max_scale_baseline(unit_square(), TARGET)
    assert fast.feasible and fast.lambda_star == base.lambda_star

    fast_spans = {span.name: span for span in rec.children(fast_root)}
    assert {"coordinate_functions", "build_sweep", "run_plan",
            "find_hole"} <= set(fast_spans)
    run_plan = fast_spans["run_plan"]
    assert len(run_plan.args) >= 5  # box, capacity, initial, updates, query_pos
    assert isinstance(run_plan.result, tuple) and len(run_plan.result) == 2

    base_names = {span.name for span in rec.children(base_root)}
    assert {"coordinate_functions", "critical_values", "find_hole"} <= base_names
