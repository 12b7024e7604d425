"""Package surface: what ``from esrsim import *`` exports, that each export is
declared once, in the module that defines it, that the library itself uses
each export and each public member of an exported class, that README's
quick start runs, and that its scenario example is a scenario file."""

import ast
import dataclasses
import pathlib
import re
import textwrap
import types
from collections import Counter

import esrsim
from esrsim.scenario import build_scenario, parse_scenario

# Exports the paper defines and the library keeps public although no other
# library code refers to them.
PAPER_LEVEL = ("compound_density", "overall_probability_density", "post_measurement_density",
               "post_measurement_state_no", "post_measurement_state_yes", "pv_projector",
               "state_after_outcome")
# Public members of exported classes that the demos call and no library code does.
DEMO_LEVEL = ("DensityOperator.purity", "GeneralizedObservable.from_matrix")
# Exported classes: a read ``Cls.member`` of one, or a docstring reference to
# ``member`` inside ``Cls`` where ``Cls`` defines it, counts for ``Cls`` only.
CLASSES = {name for name in esrsim.__all__ if isinstance(getattr(esrsim, name), type)}

# A docstring's reference to a name: a Sphinx role or a double-backquoted literal.
DOC_REFERENCE = re.compile(r":\w+:`~?(?:\w+\.)*(\w+)`|``(?:\w+\.)*(\w+)(?:\(\))?``")


def referenced_names(source: str) -> set[str]:
    """Names a module reads outside the function or class defining them: loaded
    names and attributes, and docstring references. An attribute read off an
    exported class by name, or a docstring reference inside the exported class
    that defines it, is ``"Cls.attr"``."""
    used = set()
    for stmt in ast.parse(source).body:
        defined = {getattr(stmt, "name", None)}
        own = vars(getattr(esrsim, stmt.name)) if defined <= CLASSES else {}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = {node.id}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                names = {f"{owner}.{node.attr}" if owner in CLASSES else node.attr}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = {f"{stmt.name}.{n}" if n in own else n
                         for n in (a or b for a, b in DOC_REFERENCE.findall(node.value))}
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


def declared_and_defined(path: pathlib.Path) -> tuple[list[str], set[str]]:
    """The names a module's ``__all__`` lists, and the names it defines at its
    top level by a ``def``, a ``class`` or an assignment; an import defines none."""
    exported, defined = [], set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {target.id for target in targets if isinstance(target, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(stmt.value)
            defined |= names
    return exported, defined


def test_each_export_is_declared_once_where_it_is_defined():
    # adding or dropping an export is one edit to the __all__ of its module
    package = pathlib.Path(esrsim.__file__).parent
    modules = {path.stem: declared_and_defined(path) for path in package.glob("*.py")
               if path.name != "__init__.py"}
    declarations = Counter(name for exported, _ in modules.values() for name in exported)
    assert sorted(name for name in esrsim.__all__ if declarations[name] != 1) == []
    for module, (exported, defined) in modules.items():
        assert sorted(set(exported) - defined) == [], module
        for name in exported:
            assert getattr(esrsim, name) is getattr(getattr(esrsim, module), name)


def library_references() -> set[str]:
    """Names the package's modules, ``__init__`` aside, refer to."""
    package = pathlib.Path(esrsim.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(path.read_text())
    return used


def test_every_export_is_used_by_the_library():
    # an export that only tests call belongs in the tests
    assert set(PAPER_LEVEL) <= set(esrsim.__all__)
    assert sorted(set(esrsim.__all__) - library_references() - set(PAPER_LEVEL)) == []


def test_readme_quick_start_runs():
    # a public-API change that breaks the README's example fails here
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_scenario_example_builds():
    # README's example under "Scenario format", and the grammar of the scenario
    # module's docstring, parse and build as written
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^## Scenario format\n.*?^```\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    grammar = esrsim.scenario.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
    for text in (blocks[0], textwrap.dedent(grammar)):
        build_scenario(parse_scenario(text))


def test_every_public_member_is_used_by_the_library():
    # a method or property that only tests call belongs in the tests; the
    # fields of a dataclass or a NamedTuple are data, not code, and are not
    # counted (vars() lists a NamedTuple's fields as class attributes). A
    # class-qualified read (see ``CLASSES``) counts for that class only; any
    # other read is matched by attribute name only: a member passes when any
    # object's attribute of that name is read (``Effect.dim`` would pass because
    # ``gobs.dim`` is read), so a member that shares its name with another needs
    # a look by hand
    members = set()
    for name in esrsim.__all__:
        cls = getattr(esrsim, name)
        if isinstance(cls, type):
            if dataclasses.is_dataclass(cls):
                fields = {f.name for f in dataclasses.fields(cls)}
            else:
                fields = set(getattr(cls, "_fields", ()))
            members |= {f"{name}.{attr}" for attr in vars(cls)
                        if not attr.startswith("_") and attr not in fields}
    assert set(DEMO_LEVEL) <= members
    used = library_references()
    assert sorted(m for m in members - set(DEMO_LEVEL)
                  if m not in used and m.split(".")[1] not in used) == []


def test_model_imports_only_linalg_and_errors():
    # model sits below measurement and sampling: it imports neither, not even
    # inside a function, so the sampler's caches live in sampling
    source = (pathlib.Path(esrsim.__file__).parent / "model.py").read_text()
    package = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("esrsim")):
            module = (node.module or "").removeprefix("esrsim").lstrip(".")
            package |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            package |= {alias.name.removeprefix("esrsim.") for alias in node.names
                        if alias.name.startswith("esrsim")}
    assert package == {"linalg", "errors"}
