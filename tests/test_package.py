"""Package surface: what ``from esrsim import *`` exports, and that the
library itself uses each export."""

import ast
import pathlib
import re
import types

import esrsim

# Exports the paper defines and the library keeps public although no other
# library code refers to them.
PAPER_LEVEL = ("compound_density", "overall_probability_density", "post_measurement_density",
               "post_measurement_state_no", "pv_projector")

# A docstring's reference to a name: a Sphinx role or a double-backquoted literal.
DOC_REFERENCE = re.compile(r":\w+:`~?(?:\w+\.)*(\w+)`|``(?:\w+\.)*(\w+)(?:\(\))?``")


def referenced_names(source: str) -> set[str]:
    """Names a module reads outside the function or class defining them: loaded
    names and attributes, and docstring references."""
    used = set()
    for stmt in ast.parse(source).body:
        defined = {getattr(stmt, "name", None)}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = {node.id}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = {node.attr}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = {a or b for a, b in DOC_REFERENCE.findall(node.value)}
            else:
                continue
            used |= names - defined
    return used


def test_star_import_exports_no_modules():
    namespace: dict = {}
    exec("from esrsim import *", namespace)
    exported = {k: v for k, v in namespace.items() if k != "__builtins__"}
    assert set(exported) == set(esrsim.__all__)
    assert [k for k, v in exported.items() if isinstance(v, types.ModuleType)] == []


def test_every_export_is_used_by_the_library():
    # an export that only tests call belongs in the tests
    package = pathlib.Path(esrsim.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(path.read_text())
    assert set(PAPER_LEVEL) <= set(esrsim.__all__)
    assert sorted(set(esrsim.__all__) - used - set(PAPER_LEVEL)) == []
