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
