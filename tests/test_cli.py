import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

import polyplace.cli
import polyplace.solver
from polyplace.cli import run
from polyplace.dyncover import read_trace, write_trace
from polyplace.forbidden import RankRect, build_sweep
from polyplace.geometry import Point, load_polygon, save_polygon, validate_polygon
from polyplace.hardness import gen_foursum
from polyplace.instances import comb_polygon, random_instance_pair, unit_square
from polyplace.solver import _Problem, verify_containment

SQ = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
WIDE = validate_polygon([(0, 0), (3, 0), (3, 2), (0, 2)])


def _paths(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    save_polygon(str(p), SQ)
    save_polygon(str(q), WIDE)
    return str(p), str(q)


def test_validate(tmp_path, capsys):
    p, _ = _paths(tmp_path)
    assert run(["validate", p]) == 0
    out = capsys.readouterr().out
    assert "vertices: 4" in out and "area: 1/1" in out


def test_validate_bad_polygon(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # a diagonal edge, a repeated vertex, a zero denominator, a float
    # coordinate, vertices that are not pairs
    errs = []
    for text in ('{"vertices": [[0,0],[2,0],[2,1],["1/2",2],[0,2]]}',
                 '{"vertices": [[0,0],[0,0],[1,0],[1,1],[0,1]]}',
                 '{"vertices": [[0,0],["1/0",0],[1,1],[0,1]]}',
                 '{"vertices": [[0,0],[1.5,0],[1.5,1],[0,1]]}',
                 '{"vertices": [0, 1, 2, 3]}'):
        bad.write_text(text)
        assert run(["validate", str(bad)]) == 1, text
        errs.append(capsys.readouterr().err)
        assert errs[-1].startswith("error: invalid polygon"), (text, errs[-1])
        assert len(errs[-1].strip().splitlines()) == 1
    # the bad edges name their points as (x, y), not by their reprs
    assert "diagonal edge (2, 1) -> (1/2, 2)" in errs[0]
    assert "repeated vertex (0, 0)" in errs[1]
    assert "zero denominator in '1/0'" in errs[2]
    assert not any("Point(" in err or "Fraction(" in err for err in errs[:3]), errs


def test_validate_large_comb(tmp_path, capsys):
    comb = tmp_path / "comb.json"
    save_polygon(str(comb), comb_polygon(2000, random.Random(0)))
    assert run(["validate", str(comb)]) == 0
    assert "vertices: 2000" in capsys.readouterr().out
    # push the first tooth (vertices 3-6) half-way into its neighbour (7-10)
    obj = json.loads(comb.read_text())
    verts = obj["vertices"]
    lo = Fraction(verts[10][0])
    for k, x in zip(range(3, 7), (lo + Fraction(3, 2),) * 2 + (lo + Fraction(1, 2),) * 2):
        verts[k][0] = f"{x.numerator}/{x.denominator}"
    pushed = tmp_path / "pushed.json"
    pushed.write_text(json.dumps(obj))
    assert run(["validate", str(pushed)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid polygon"), err
    # the two edges are named by their end points, which are vertices of the file
    named = re.search(r"edges \((.+?)\)-\((.+?)\) and \((.+?)\)-\((.+?)\) (overlap|cross)", err)
    assert named, err
    given = {tuple(map(Fraction, v)) for v in verts}
    assert all(tuple(map(Fraction, p.split(", "))) in given for p in named.groups()[:4]), err


def test_contain(tmp_path, capsys):
    p, q = _paths(tmp_path)
    assert run(["contain", "--p", p, "--q", q]) == 0
    assert "tau" in capsys.readouterr().out
    assert run(["contain", "--p", q, "--q", p]) == 0
    assert "NO" in capsys.readouterr().out


def test_maxscale_text_and_json(tmp_path, capsys):
    p, q = _paths(tmp_path)
    assert run(["maxscale", "--p", p, "--q", q]) == 0
    assert "lambda = 2/1" in capsys.readouterr().out
    assert run(["maxscale", "--p", p, "--q", q, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    lam = Fraction(obj["lambda"])
    tau = Point(Fraction(obj["tau"][0]), Fraction(obj["tau"][1]))
    assert verify_containment(SQ, WIDE, lam, tau)


def test_maxscale_baseline_agrees(tmp_path, capsys):
    p, q = _paths(tmp_path)
    run(["maxscale", "--p", p, "--q", q, "--json"])
    fast = json.loads(capsys.readouterr().out)
    run(["maxscale", "--p", p, "--q", q, "--baseline", "--json"])
    base = json.loads(capsys.readouterr().out)
    assert fast["lambda"] == base["lambda"]


def test_maxscale_bisects_a_star_pattern_unless_it_traces(tmp_path, capsys):
    # a square is star-shaped: it is bisected, applying no moves, whichever
    # engine is named; --trace-out dumps the sweep's plan, so it sweeps
    p, q = _paths(tmp_path)
    stats = {}
    for args in ([], ["--impl", "oy"], ["--trace-out", str(tmp_path / "t.txt")]):
        assert run(["maxscale", "--p", p, "--q", q, "--json"] + args) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["lambda"] == "2/1"
        stats[args[0] if args else None] = obj["stats"]
    assert stats[None] == stats["--impl"]
    assert stats[None]["updates"] == 0 and stats["--trace-out"]["updates"] > 0


def test_maxscale_x(tmp_path, capsys):
    p, q = _paths(tmp_path)
    assert run(["maxscale-x", "--p", p, "--q", q]) == 0
    assert "lambda = 2/1" in capsys.readouterr().out


def test_maxscale_trace_out_and_dyncover(tmp_path, capsys, monkeypatch):
    # the answer is at query 206 of 207 in the capped plan, far past its first update
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    pattern, target = SQ, comb_polygon(50, random.Random(50))
    save_polygon(str(p), pattern)
    save_polygon(str(q), target)
    trace = tmp_path / "trace.txt"
    builds = []
    for module in (polyplace.solver, polyplace.cli):
        def counted(*args, real=module.build_sweep, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "build_sweep", counted)
    assert run(["maxscale", "--p", str(p), "--q", str(q), "--json",
                "--trace-out", str(trace)]) == 0
    queries = json.loads(capsys.readouterr().out)["stats"]["queries"]
    assert queries > 1
    assert len(builds) == 1  # the dump is the plan the solve ran, not a rebuild
    for impl in ("naive", "oy"):
        assert run(["dyncover", "--trace", str(trace), "--impl", impl]) == 0
        assert capsys.readouterr().out.strip() == str(queries)

    # the solve streamed its plan: the dump is a proper prefix of the whole one
    prob = _Problem(pattern, target)
    whole = build_sweep(prob.cs, start_below=prob.bbox_cap).drain()
    box, initial, updates, query_pos = read_trace(str(trace))
    assert (box, initial) == (whole.box_cells, whole.initial)
    assert updates == whole.updates[:len(updates)]
    assert query_pos == whole.query_pos[:queries] and queries < len(whole.query_pos)

    # with --baseline there is no solve to stop the plan: the dump is all of it
    full = tmp_path / "full.txt"
    assert run(["maxscale", "--p", str(p), "--q", str(q), "--baseline",
                "--trace-out", str(trace)]) == 0
    write_trace(str(full), whole.box_cells, whole.initial, whole.updates, whole.query_pos)
    assert trace.read_text() == full.read_text()


def test_maxscale_trace_out_is_pinned(tmp_path):
    # trace files hold one line per move, and queries count those lines.
    # The streamed prefix is pinned too: the plan is pulled a critical at a
    # time until it holds the next query position. Both engines pull it by
    # that one rule, so the random pair, answered early, dumps the same
    # prefix under either engine. The foursum gadget pins a plan with
    # multi-way ties, whose streamed prefix both engines dump alike too.
    rng = random.Random(987123)
    for _ in range(27):
        pair = random_instance_pair(rng, max_p=20, max_q=20, span=50)
    comb = (unit_square(), comb_polygon(50, random.Random(50)))
    gadget = gen_foursum([0], [3], [1], [4])
    foursum = (gadget.pattern, gadget.target)
    foursum_digest = "7b211da8dfbf3e8aa5b50a93eff54d54ca6a6385f3ce87e072ba61aac6683a09"
    pair_digest = "2d2b879668e91104143090cc1a5c0db4fd862d59c5c942f34f581cab2dacef62"
    p, q, trace = tmp_path / "p.json", tmp_path / "q.json", tmp_path / "trace.txt"
    for (pattern, target), extra, digest in (
            (comb, [], "cd20b1931c46a0f627878ce0747072757f398abe5e4927778f6c030980e0358a"),
            (comb, ["--baseline"],
             "0bcbcd1dd3691a0a9c0ea1a4c22ef8bbf87214ed4c7a55004661a38bd83d7b1f"),
            (pair, ["--impl", "naive"], pair_digest),
            (pair, ["--impl", "oy"], pair_digest),
            (foursum, ["--impl", "naive"], foursum_digest),
            (foursum, ["--impl", "oy"], foursum_digest)):
        save_polygon(str(p), pattern)
        save_polygon(str(q), target)
        assert run(["maxscale", "--p", str(p), "--q", str(q),
                    "--trace-out", str(trace)] + extra) == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest, extra


def test_maxscale_trace_out_writes_a_line_per_move(tmp_path):
    # the dump holds one event line per move of the plan the solve ran, and
    # its "Q" values are the plan's query positions as they are
    gadget = gen_foursum([0], [3], [1], [4])
    p, q, trace = tmp_path / "p.json", tmp_path / "q.json", tmp_path / "trace.txt"
    for (pattern, target), moves in (((unit_square(), comb_polygon(50, random.Random(50))), 559),
                                     ((gadget.pattern, gadget.target), 598)):
        save_polygon(str(p), pattern)
        save_polygon(str(q), target)
        assert run(["maxscale", "--p", str(p), "--q", str(q), "--trace-out", str(trace)]) == 0
        _, plan = polyplace.solver._max_scale_and_plan(pattern, target, "naive")
        lines = [ln.split() for ln in trace.read_text().splitlines()]
        assert sum(ln[0] in ("A", "D", "M") for ln in lines) == len(plan.updates) == moves
        assert [int(ln[1]) for ln in lines if ln[0] == "Q"] == plan.query_pos


def test_dyncover_example(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("N 3 3\nA 0 1 3 1 3\nD 0\n")
    assert run(["dyncover", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_dyncover_malformed_trace(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    cases = [
        ("N 3 3\nD 5\n", "delete of dead id"),
        # the add after it does not make a delete of a dead id one move
        ("N 3 3\nI 0 1 3 1 3\nD 5\nA 5 1 3 1 3\nQ 2\n", "delete of dead id"),
        # a move of a dead id, of one already deleted, with a missing side,
        # past the box and inverted
        ("N 3 3\nI 0 1 3 1 3\nM 5 1 3 1 3\n", "move of dead id 5"),
        ("N 3 3\nI 0 1 3 1 3\nD 0\nM 0 1 3 1 3\nQ 2\n", "move of dead id 0"),
        ("N 3 3\nI 0 1 3 1 3\nM 0 1 3 1\n", "bad trace line 'M 0 1 3 1'"),
        ("N 3 3\nI 0 1 3 1 3\nM 0 1 4 1 3\n", "rectangle 'M 0 1 4 1 3' outside box 3 x 3"),
        ("N 3 3\nI 0 1 3 1 3\nM 0 3 1 1 3\n", "empty rectangle 'M 0 3 1 1 3'"),
        ("N 3 3\nA 0 1 3 1 3\nA 0 1 3 1 3\n", "duplicate id"),  # an add of a live id
        ("N 3 3\nI 0 1 3 1 3\nI 0 1 3 1 3\n", "duplicate id"),  # a repeated preloaded id
        # a second delete of one id, after a first that leaves the box covered
        ("N 3 3\nI 0 1 3 1 3\nA 1 1 3 1 3\nD 1\nD 1\nQ 3\n", "delete of dead id 1"),
        # rectangles past the box, named by their file line
        ("N 3 3\nA 0 1 4 1 2\n", "rectangle 'A 0 1 4 1 2' outside box 3 x 3"),
        ("N 3 3\nI 0 0 3 1 3\nD 0\n", "rectangle 'I 0 0 3 1 3' outside box 3 x 3"),
        # an inverted rectangle inside the box is named as empty
        ("N 3 3\nA 0 2 1 1 1\n", "empty rectangle 'A 0 2 1 1 1'"),
        ("N 4\n", "header"),                       # missing box size
        ("N 3 3\nD\n", "bad trace line 'D'"),      # delete without an id
        ("N 3 3\nQ\n", "bad trace line 'Q'"),      # query without a position
        ("N 3 3\nA 0 1 3 1\n", "bad trace line"),  # add with a missing side
        ("N -1 4\n", "no cells"),                  # negative box size
        ("N 3 0\n", "no cells"),
        # a preloaded rectangle listed after an event would be preloaded ahead of it
        ("N 2 2\nA 0 1 2 1 2\nI 1 1 2 1 2\nD 0\nQ 1\n", "after the first event"),
        # fields that are not integers, named by their line
        ("N 3 3\nA 0 1 x 1 3\n", "non-integer field in trace line 'A 0 1 x 1 3'"),
        ("N 4 y\n", "non-integer field in trace line 'N 4 y'"),
        ("N 3 3\nQ z\n", "non-integer field in trace line 'Q z'"),
    ]
    for text, message in cases:
        trace.write_text(text)
        assert run(["dyncover", "--trace", str(trace)]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace file") and message in err, (text, err)
        assert len(err.strip().splitlines()) == 1
        assert "invalid literal" not in err, (text, err)


R = RankRect
MOVE_LINES = [
    # files that write a move as its "D" and then its "A" line read as the
    # plain deletes and adds, with the queries counted in those lines
    pytest.param("N 2 1\nI 0 1 2 1 1\nA 1 2 2 1 1\nD 0\nA 0 1 1 1 1\nD 1\nA 1 1 1 1 1\n"
                 "Q 1\nQ 3\nQ 5\n",
                 [(1, None, R(2, 2, 1, 1)), (0, R(1, 2, 1, 1), None), (0, None, R(1, 1, 1, 1)),
                  (1, R(2, 2, 1, 1), None), (1, None, R(1, 1, 1, 1))], [1, 3, 5], "3",
                 id="delete-add-pairs"),
    pytest.param("N 2 1\nI 0 1 2 1 1\nD 0\nA 0 1 2 1 1\nQ 0\nQ 1\nQ 2\n",
                 [(0, R(1, 2, 1, 1), None), (0, None, R(1, 2, 1, 1))], [0, 1, 2], "2",
                 id="query-between-delete-and-add"),
    pytest.param("N 2 1\nI 0 1 2 1 1\nD 0\nA 1 1 2 1 1\nQ 2\n",
                 [(0, R(1, 2, 1, 1), None), (1, None, R(1, 2, 1, 1))], [2], "none",
                 id="delete-then-add-of-another-id"),
    # without "Q" lines every move is queried
    pytest.param("N 2 1\nI 0 1 2 1 1\nD 0\nA 0 1 2 1 1\n",
                 [(0, R(1, 2, 1, 1), None), (0, None, R(1, 2, 1, 1))], [1, 2], "1",
                 id="delete-add-without-queries"),
    # an "M" line is one move of a live id
    pytest.param("N 2 1\nI 0 1 2 1 1\nA 1 2 2 1 1\nM 0 1 1 1 1\nM 1 1 1 1 1\n"
                 "Q 1\nQ 2\nQ 3\n",
                 [(1, None, R(2, 2, 1, 1)), (0, R(1, 2, 1, 1), R(1, 1, 1, 1)),
                  (1, R(2, 2, 1, 1), R(1, 1, 1, 1))], [1, 2, 3], "3", id="moves"),
    pytest.param("N 2 1\nI 0 1 2 1 1\nM 0 1 1 1 1\nD 0\nA 0 1 2 1 1\nM 0 2 2 1 1\n"
                 "Q 0\nQ 3\n",
                 [(0, R(1, 2, 1, 1), R(1, 1, 1, 1)), (0, R(1, 1, 1, 1), None),
                  (0, None, R(1, 2, 1, 1)), (0, R(1, 2, 1, 1), R(2, 2, 1, 1))], [0, 3], "none",
                 id="move-delete-add-move"),
    pytest.param("N 2 1\nI 0 1 2 1 1\nM 0 1 2 1 1\nM 0 2 2 1 1\n",
                 [(0, R(1, 2, 1, 1), R(1, 2, 1, 1)), (0, R(1, 2, 1, 1), R(2, 2, 1, 1))],
                 [1, 2], "2", id="moves-without-queries"),
]


@pytest.mark.parametrize("text, moves, positions, answer", MOVE_LINES)
def test_dyncover_reads_a_move_per_line(tmp_path, capsys, text, moves, positions, answer):
    trace, copy = tmp_path / "t.txt", tmp_path / "copy.txt"
    trace.write_text(text)
    read = read_trace(str(trace))
    assert read == ((2, 1), [(0, R(1, 2, 1, 1))], moves, positions)
    for impl in ("naive", "oy"):
        assert run(["dyncover", "--trace", str(trace), "--impl", impl]) == 0
        assert capsys.readouterr().out.strip() == answer
    # writing what was read copies the file, its queries made explicit
    write_trace(str(copy), *read)
    assert copy.read_text() == text + "".join(f"Q {p}\n" for p in positions if "Q" not in text)


def test_gen_writes_instance(tmp_path, capsys):
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"A": [1, 2, 3]}))
    out = tmp_path / "inst"
    assert run(["gen", "average", "--input", str(sets), "--out-dir", str(out)]) == 0
    pattern = load_polygon(str(out / "P.json"))
    assert len(pattern) == 12
    meta = json.loads((out / "instance.json").read_text())
    assert meta["mode"] == "scale-x-translation"
    assert meta["threshold"] == 1
    assert meta["ground_truth_inputs"]["A"] == [1, 2, 3]


def test_gen_and_plot_bad_input(tmp_path, capsys):
    sets = tmp_path / "sets.json"
    p, q = _paths(tmp_path)
    cases = []
    # missing, malformed, a list, a set that is not a list, a nested list, a float
    for text in (None, "{not json", "[1, 2, 3]", '{"A": null}', '{"A": [[1]]}',
                 '{"A": [1.5, 2]}'):
        cases.append((text, ["gen", "average", "--input", str(sets),
                             "--out-dir", str(tmp_path / "out")], "bad generator input"))
    for scale in ("abc", "1/0", "0", "-1"):
        cases.append((None, ["plot", "--p", p, "--q", q, "--placement", scale, "0", "0",
                             "--svg", str(tmp_path / "a.svg")], "bad placement"))
    for text, argv, message in cases:
        sets.unlink(missing_ok=True)
        if text is not None:
            sets.write_text(text)
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), (argv, err)
        assert len(err.strip().splitlines()) == 1
    # a zero denominator is named by its input, not by Fraction's repr
    assert run(["plot", "--p", p, "--q", q, "--placement", "1", "1/0", "0",
                "--svg", str(tmp_path / "a.svg")]) == 1
    assert capsys.readouterr().err == "error: bad placement 1 1/0 0: zero denominator in '1/0'\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "a.svg").exists()


@pytest.mark.parametrize("command", ["maxscale-trace-out", "maxscale-svg", "plot-svg", "gen"])
def test_unwritable_output_is_a_one_line_error(tmp_path, capsys, command):
    p, q = _paths(tmp_path)
    missing = tmp_path / "missing"  # a directory that does not exist
    plain = tmp_path / "plain.txt"  # a regular file where a directory should be
    plain.write_text("")
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"A": [1, 2, 3]}))
    argv, bad = {
        "maxscale-trace-out": (["maxscale", "--p", p, "--q", q, "--trace-out"], missing / "t.txt"),
        "maxscale-svg": (["maxscale", "--p", p, "--q", q, "--svg"], missing / "x.svg"),
        "plot-svg": (["plot", "--q", q, "--svg"], missing / "x.svg"),
        "gen": (["gen", "average", "--input", str(sets), "--out-dir"], plain / "inst"),
    }[command]
    assert run(argv + [str(bad)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(bad.parent) in err, err
    assert len(err.strip().splitlines()) == 1
    # an output that cannot be written fails the command before it prints anything
    assert out == "", out


def test_decompose_dump(tmp_path, capsys):
    p, _ = _paths(tmp_path)
    assert run(["decompose", p, "--complement"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["interior"]) == 1
    assert obj["complement"] == []  # a rectangle fills its bounding box


def test_plot_deterministic(tmp_path, capsys):
    p, q = _paths(tmp_path)
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    args = ["plot", "--p", p, "--q", q, "--placement", "2/1", "0", "0", "--svg"]
    assert run(args + [str(svg1)]) == 0
    assert run(args + [str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert b"<svg" in svg1.read_bytes()
