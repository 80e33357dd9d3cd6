"""The package namespace: what ``import cotstab`` offers.

Public names resolve from the submodules' own ``__all__`` lists on first
use; which submodules each CLI command loads is pinned in test_cli.py.
"""

import ast
import importlib
import os
import sys
import types

import cotstab

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
ANALYSIS = ("errors", "linalg", "models", "sampled", "bifurcation",
            "harmonic", "simulate")
SUBMODULES = ANALYSIS + ("tables", "cases", "cli")


def test_all_lists_the_analysis_names_and_no_module():
    names = cotstab.__all__
    assert len(names) == len(set(names)) == 75
    expected = {name for mod in ANALYSIS
                for name in importlib.import_module(f"cotstab.{mod}").__all__}
    assert set(names) == expected - {"simulate"}
    assert not [name for name in names
                if isinstance(getattr(cotstab, name), types.ModuleType)]


def test_names_resolve_to_their_submodule():
    for mod in SUBMODULES:
        assert getattr(cotstab, mod) is importlib.import_module(f"cotstab.{mod}")
    for mod in ANALYSIS:
        module = sys.modules[f"cotstab.{mod}"]
        for name in module.__all__:
            if name not in SUBMODULES:
                assert getattr(cotstab, name) is getattr(module, name), name
    assert set(cotstab.__all__) <= set(dir(cotstab))


def test_names_follow_the_submodule_attribute(monkeypatch):
    from cotstab import linalg

    def stand_in(*args):
        return None

    monkeypatch.setattr(linalg, "expm", stand_in)
    assert cotstab.expm is stand_in


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "_private", "__wrapped__", "Check"):
        assert not hasattr(cotstab, name), name


def test_init_names_no_public_function_or_class():
    with open(os.path.join(SRC, "cotstab", "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    spelled = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    spelled |= {node.name for node in ast.walk(tree)
                if isinstance(node, ast.alias)}
    spelled |= {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not spelled & set(cotstab.__all__)
