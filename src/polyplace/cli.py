"""Command-line front end.

Subcommands: validate, contain, maxscale, maxscale-x, gen, decompose,
dyncover, plot. Rationals print as "num/den"; machine errors go to
stderr as a single line and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dyncover, hardness, svg
from .decompose import cover_complement, cover_interior
from .forbidden import build_sweep
from .geometry import (OrthoPolygon, PolygonError, Point, load_polygon,
                       normalize_center, rat, rat_json, rat_str, save_polygon)
from .solver import (PlacementResult, _max_scale_and_plan, _Problem, contains_fixed,
                     max_scale, max_scale_baseline, max_scale_x)


class CliError(Exception):
    pass


def _load(path: str) -> OrthoPolygon:
    try:
        return load_polygon(path)
    except (OSError, PolygonError, TypeError, ValueError) as exc:
        raise CliError(f"invalid polygon file {path}: {exc}") from exc


def _emit_result(res: PlacementResult, as_json: bool, svg_path: str | None,
                 pattern: OrthoPolygon, target: OrthoPolygon) -> None:
    if svg_path and res.feasible:  # first, so an unwritable path fails before any output
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg.render_placement(pattern, target, res.lambda_star, res.witness))
    if as_json:
        print(json.dumps(res.to_obj()))
    elif res.feasible:
        print(f"lambda = {rat_str(res.lambda_star)}")
        print(f"tau = ({rat_str(res.witness.x)}, {rat_str(res.witness.y)})")
        s = res.stats
        print(f"stats: criticals={s.criticals} updates={s.updates} "
              f"queries={s.queries} skipped={s.skipped}")
    else:
        sup = rat_str(res.lambda_sup) if res.lambda_sup is not None else "none"
        print(f"infeasible (smallest critical scale {sup})")


def _cmd_validate(args) -> int:
    poly = _load(args.polygon)
    print(f"vertices: {len(poly)}")
    print(f"area: {rat_str(poly.area())}")
    b = poly.bounding_box()
    print(f"bbox: [{rat_str(b.x0)}, {rat_str(b.x1)}] x [{rat_str(b.y0)}, {rat_str(b.y1)}]")
    return 0


def _cmd_contain(args) -> int:
    pattern, target = _load(args.p), _load(args.q)
    tau = contains_fixed(pattern, target)
    if args.json:
        obj = None if tau is None else [rat_str(tau.x), rat_str(tau.y)]
        print(json.dumps({"feasible": tau is not None, "tau": obj}))
    elif tau is None:
        print("NO")
    else:
        print(f"tau = ({rat_str(tau.x)}, {rat_str(tau.y)})")
    return 0


def _cmd_maxscale(args) -> int:
    pattern, target = _load(args.p), _load(args.q)
    if args.baseline:
        res = max_scale_baseline(pattern, target)
    elif args.trace_out:  # the dump is the sweep's plan, so the solve sweeps
        res, plan = _max_scale_and_plan(pattern, target, args.impl)
    else:
        res = max_scale(pattern, target, args.impl)
    if args.trace_out:
        if args.baseline:  # the baseline runs no sweep: dump max_scale's whole plan
            prob = _Problem(pattern, target)
            plan = build_sweep(prob.cs, start_below=prob.bbox_cap).drain()
        dyncover.write_trace(args.trace_out, plan.box_cells, plan.initial,
                             plan.updates, plan.query_pos)
    _emit_result(res, args.json, args.svg, pattern, target)
    return 0


def _cmd_maxscale_x(args) -> int:
    pattern, target = _load(args.p), _load(args.q)
    res = max_scale_x(pattern, target)
    _emit_result(res, args.json, None, pattern, target)
    return 0


def _cmd_gen(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            sets = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad generator input {args.input}: {exc}") from exc
    if not isinstance(sets, dict):
        raise CliError(f"bad generator input {args.input}: not a JSON object")
    try:
        if args.kind == "ov":
            inst = hardness.gen_ov(sets["A"], sets["B"])
        elif args.kind == "average":
            inst = hardness.gen_average(sets["A"])
        else:
            inst = hardness.gen_foursum(sets["A1"], sets["A2"], sets["B1"], sets["B2"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad generator input: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    save_polygon(os.path.join(args.out_dir, "P.json"), inst.pattern)
    save_polygon(os.path.join(args.out_dir, "Q.json"), inst.target)
    with open(os.path.join(args.out_dir, "instance.json"), "w", encoding="utf-8") as fh:
        json.dump(inst.to_obj(), fh, indent=2)
        fh.write("\n")
    print(f"wrote P.json ({len(inst.pattern)} vertices), Q.json "
          f"({len(inst.target)} vertices), instance.json to {args.out_dir}")
    return 0


def _cmd_decompose(args) -> int:
    poly = _load(args.polygon)
    centered, _ = normalize_center(poly)
    covers = {"interior": cover_interior(centered)}
    if args.complement:
        covers["complement"] = cover_complement(centered)
    print(json.dumps({name: [[rat_json(r.x0), rat_json(r.x1), rat_json(r.y0), rat_json(r.y1)]
                             for r in cov.rects] for name, cov in covers.items()}))
    return 0


def _cmd_dyncover(args) -> int:
    try:
        box, initial, updates, query_pos = dyncover.read_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad trace file {args.trace}: {exc}") from exc
    bound = dyncover.live_bound(initial, updates)
    failed, _ = dyncover.run_plan(box, bound, initial, updates, query_pos, args.impl)
    print("none" if failed is None else failed + 1)
    return 0


def _cmd_plot(args) -> int:
    target = _load(args.q)
    if args.placement:
        pattern = _load(args.p) if args.p else None
        if pattern is None:
            raise CliError("--placement requires --p")
        try:
            lam, tx, ty = (rat(v) for v in args.placement)
        except ValueError as exc:
            raise CliError(f"bad placement {' '.join(args.placement)}: {exc}") from exc
        if lam <= 0:
            raise CliError(f"bad placement: scale {rat_str(lam)} is not positive")
        out = svg.render_placement(pattern, target, lam, Point(tx, ty))
    else:
        out = svg.render(target)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(out)
    print(f"wrote {args.svg}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="polyplace",
                                  description="largest-copy placement of rectilinear polygons")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a polygon file, print stats")
    p.add_argument("polygon")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("contain", help="fixed-size containment test")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_contain)

    p = sub.add_parser("maxscale", help="largest feasible scale factor")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--impl", choices=("naive", "oy"), default="naive",
                   help="the sweep's engine: for a pattern that is not star-shaped "
                   "(a star-shaped one is bisected), or with --trace-out")
    p.add_argument("--svg")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace-out", help="dump the rank-space update trace the solve ran "
                   "(with --baseline, the whole plan)")
    p.set_defaults(fn=_cmd_maxscale)

    p = sub.add_parser("maxscale-x", help="largest scale, x-translation only")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_maxscale_x)

    p = sub.add_parser("gen", help="write a hardness instance")
    p.add_argument("kind", choices=("ov", "average", "foursum"))
    p.add_argument("--input", required=True, help="JSON file with the input sets")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("decompose", help="dump rectangle covers as JSON")
    p.add_argument("polygon")
    p.add_argument("--complement", action="store_true")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("dyncover", help="first query of an update trace that finds a hole")
    p.add_argument("--trace", required=True)
    p.add_argument("--impl", choices=("naive", "oy"), default="naive")
    p.set_defaults(fn=_cmd_dyncover)

    p = sub.add_parser("plot", help="render a polygon (and placement) to SVG")
    p.add_argument("--p")
    p.add_argument("--q", required=True)
    p.add_argument("--placement", nargs=3, metavar=("LAMBDA", "TAU_X", "TAU_Y"))
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=_cmd_plot)
    return top


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, OSError) as exc:  # OSError: an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PolygonError as exc:
        print(f"error: invalid polygon: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
