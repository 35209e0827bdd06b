import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polyplace"


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
