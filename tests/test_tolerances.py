"""The tolerance ladder: the inequalities README's "Tolerances" table states
between the rungs, the table against the constants, and a guard that keeps
every tolerance in ``src/esrsim`` a named module constant."""

import ast
import importlib
import pathlib
import re

import numpy as np

from esrsim import cli, linalg, measurement, model

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "esrsim").glob("*.py"))
EPS = float(np.finfo(float).eps)
# K + 1 outcomes at d = 64, the largest dimension verify is run at
MAX_OUTCOMES = 65
# a module constant with one of these endings is a rung of the ladder
RUNG = re.compile(r"_(TOL|RTOL|FLOOR|FACTOR|ROUNDOFF)$")
# a row of the README table: | `module.NAME` | value | ...
TABLE_ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([0-9.e+-]+) \|", re.MULTILINE)


def ladder() -> dict[str, bool]:
    """Each inequality of the table's last column, by its statement."""
    gate, clamp, check = model.BUILD_GATE_TOL, model.PROBABILITY_TOL, cli.DEFAULT_TOL
    branch, mixture = measurement.BRANCH_FLOOR, measurement.MIXTURE_FLOOR
    zero = measurement.ZERO_BRANCH_TOL
    return {
        "BUILD_GATE_TOL > PROBABILITY_TOL > DEFAULT_TOL": gate > clamp > check,
        "(eps / DEFAULT_TOL)**2 < BRANCH_FLOOR": (EPS / check) ** 2 < branch,
        "BRANCH_FLOOR >= PROBABILITY_TOL": branch >= clamp,
        "ZERO_BRANCH_TOL <= BRANCH_FLOOR": zero <= branch,
        "65 * MIXTURE_FLOOR <= DEFAULT_TOL": MAX_OUTCOMES * mixture <= check,
        "ZERO_BRANCH_TOL**2 <= MIXTURE_FLOOR": zero ** 2 <= mixture,
        "CLUSTER_TOL_ROUNDOFF > 3": linalg.CLUSTER_TOL_ROUNDOFF > 3.0,
    }


def test_tolerance_ladder_holds():
    assert [statement for statement, holds in ladder().items() if not holds] == []


def _module_constants(tree: ast.Module) -> dict[str, ast.expr]:
    """Module-level ``NAME = value`` assignments, by name."""
    return {stmt.targets[0].id: stmt.value for stmt in tree.body
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)}


def test_readme_table_states_every_rung_once():
    """The table names each rung once, with the value its module gives it, and
    every rung a module defines is in the table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = TABLE_ROW.findall(section)
    names = [f"{module}.{name}" for module, name, _ in rows]
    assert len(names) == len(set(names))
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"esrsim.{module}"), name) == float(value)
    defined = {f"{path.stem}.{name}" for path in SOURCES
               for name in _module_constants(ast.parse(path.read_text(encoding="utf-8")))
               if RUNG.search(name)}
    assert defined == set(names)
    for statement in ladder():
        assert f"`{statement}`" in section


def bare_tolerance_literals(path: pathlib.Path) -> list[str]:
    """``file:line`` of each float literal with ``0 < |x| < 1e-3`` in ``path`` that
    is not the value of a module constant (its sign may be outside it)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = set()
    for value in _module_constants(tree).values():
        named.add(id(value.operand if isinstance(value, ast.UnaryOp) else value))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-3 and id(node) not in named]


def test_no_bare_tolerance_literal():
    assert [hit for path in SOURCES for hit in bare_tolerance_literals(path)] == []
