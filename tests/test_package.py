"""Package surface: what ``from esrsim import *`` exports."""

import types

import esrsim


def test_star_import_exports_no_modules():
    namespace: dict = {}
    exec("from esrsim import *", namespace)
    exported = {k: v for k, v in namespace.items() if k != "__builtins__"}
    assert set(exported) == set(esrsim.__all__)
    assert [k for k, v in exported.items() if isinstance(v, types.ModuleType)] == []
