"""Oracle independence: every reference helper of ``tests/helpers.py`` is held
to its entry in ``helpers.ORACLES``. It fails when a helper calls a library
function it checks, directly or through another helper, or calls a private
kernel of the library that its entry does not declare with a reason: a
reference that reads the code it checks agrees with it whatever that code does."""

import ast
import importlib
import inspect

import pytest

import helpers
from helpers import ORACLES, Oracle

MODULES = [importlib.import_module(f"esrsim.{name}") for name in (
    "apparatus", "cli", "errors", "linalg", "measurement", "model", "sampling", "scenario")]
# every name the library defines: module attributes and the attributes of its classes
LIBRARY = {name for module in MODULES for name, obj in vars(module).items()
           if getattr(obj, "__module__", module.__name__).startswith("esrsim")}
LIBRARY |= {name for module in MODULES for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__.startswith("esrsim") for name in vars(obj)}


def _called(node: ast.AST) -> set[str]:
    """Names of the functions called anywhere in ``node``: ``f(...)`` and ``x.f(...)``."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))}


def violations(source: str, oracles: dict[str, Oracle]) -> list[str]:
    """Each way a declared helper of ``source`` breaks its entry in ``oracles``."""
    tree = ast.parse(source)
    functions = {node.name: _called(node) for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    out = []
    for name, oracle in oracles.items():
        reached, todo = set(), [name]
        while todo:  # every call of the helper and of the helpers it calls
            for callee in functions[todo.pop()] - reached:
                reached.add(callee)
                if callee in functions:
                    todo.append(callee)
        out += [f"{name} calls {callee}, which it checks"
                for callee in sorted(reached & set(oracle.checks))]
        out += [f"{name} reads the undeclared private kernel {callee}"
                for callee in sorted(reached - set(functions) - set(oracle.reads + oracle.checks))
                if callee.startswith("_") and not callee.startswith("__") and callee in LIBRARY]
    return out


def test_every_reference_helper_is_declared():
    source = inspect.getsource(helpers)
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert {name for name in defined if name.startswith("reference_")} <= ORACLES.keys()
    assert ORACLES.keys() <= defined
    for oracle in ORACLES.values():
        assert oracle.checks and set(oracle.checks + oracle.reads) <= LIBRARY, oracle
        assert bool(oracle.reads) == bool(oracle.why), oracle


def test_helpers_keep_their_declarations():
    assert violations(inspect.getsource(helpers), ORACLES) == []


@pytest.mark.parametrize("body, found", [
    ("return model._projector_sums(obs, masks)", "ref calls _projector_sums, which it checks"),
    ("return inner(obs)", "ref calls _projector_sums, which it checks"),
    ("return model._born_weights(obs, masks)",
     "ref reads the undeclared private kernel _born_weights"),
])
def test_guard_sees_a_reference_that_reads_what_it_checks(body, found):
    # directly, through another helper, and through an undeclared private kernel
    source = (f"def ref(obs, masks):\n    {body}\n\n"
              "def inner(obs):\n    return model._projector_sums(obs, None)\n")
    assert violations(source, {"ref": Oracle(("_projector_sums",))}) == [found]
