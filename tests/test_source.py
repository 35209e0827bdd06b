import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyplace"


def test_no_assert_statements_in_the_package():
    # runtime invariants must raise real exceptions: python -O strips asserts
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_no_float_outside_svg():
    # exactness: only the SVG renderer may turn a rational into a float
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "svg.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Name) and node.id == "float"]
    assert not found, f"float used outside svg.py: {found}"


def test_solver_imports_only_public_names_of_forbidden():
    # the sweeps share one walk (forbidden.Descent), not forbidden's internals
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "forbidden"
             for alias in node.names]
    private = [name for name in names if name.startswith("_")]
    assert names and not private, f"private names of forbidden in solver.py: {private}"


def test_baseline_is_independent_of_the_sweep():
    # the reference solver checks the sweep, so neither it nor the static test
    # it runs, nor any solver helper they reach, may use the sweep's code
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    sweep = {"dyncover", "Descent", "build_sweep", "SweepPlan"}
    todo, seen, used = ["find_hole", "max_scale_baseline"], set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
                if node.id in defs:
                    todo.append(node.id)
    assert "_Problem" in seen  # the walk reaches the helpers
    assert not used & sweep, f"the baseline reaches the sweep: {sorted(used & sweep)}"


def _names(tree: ast.AST) -> set[str]:
    """The names a tree uses: bare and attribute names, imported names, and
    identifier strings, which ``getattr`` may look up."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_src_holds_no_test_only_code():
    # the package ships only what a solve, the CLI or perfbench reaches; the
    # oracles that only the tests use live in tests/oracles.py. The roots are
    # the names used by perfbench, the entry modules and the package's
    # module-level statements; a top-level def is reached when a root or the
    # body of a reached def names it.
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name in ("cli.py", "__main__.py", "__init__.py"):
            roots |= _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= _names(ast.parse(path.read_text(encoding="utf-8")))
    todo, reached = list(roots & defs.keys()), set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs[name]:
                todo += _names(node) & defs.keys() - reached
    assert len(reached) > 50  # the walk reaches through the solver
    unreached = sorted(f"{module}.{name}" for name in defs.keys() - reached
                       for module, _ in defs[name])
    assert not unreached, f"no solve, CLI command or perfbench code reaches {unreached}"


def test_every_record_field_has_a_reader():
    # a field of a dataclass or NamedTuple in the package is read somewhere in
    # the package or perfbench, as an attribute or as a string, which getattr
    # may look up; its declaration and its writes do not count
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef) and (
                    any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                        == "dataclass" for d in cls.decorator_list)
                    or any(getattr(base, "id", None) == "NamedTuple" for base in cls.bases)):
                fields += [(f"{path.stem}.{cls.name}", node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)]
    read = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert len(fields) > 40  # SolveStats, SweepPlan, RankRect, Point, ...
    unread = [f"{owner}.{name}" for owner, name in fields if name not in read]
    assert not unread, f"record fields that nothing in src/ or perfbench/ reads: {unread}"


def test_malformed_trace_is_raised_only_by_the_reader():
    # the engines trust what they run: a solve's plan is built consistent, and
    # a trace file is checked in full, once, when dyncover.read_trace reads it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if "MalformedTrace" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                        found.append((path.stem, getattr(top, "name", None), node.lineno))
    assert len(found) >= 4, found  # dead delete, duplicate id, out of box, ...
    elsewhere = [f for f in found if f[:2] != ("dyncover", "read_trace")]
    assert not elsewhere, f"MalformedTrace raised outside dyncover.read_trace: {elsewhere}"
