"""The package's public names, the one module that calls scipy, the one
link formula and the one copy of each SNR."""

import ast
from pathlib import Path

import clfbl


def _module_trees():
    """(file name, AST) of each clfbl module."""
    for path in Path(clfbl.__file__).resolve().parent.glob("*.py"):
        yield path.name, ast.parse(path.read_text())


def _scipy_importers() -> set[str]:
    """Names of the clfbl modules with an import of scipy or a submodule."""
    importers = set()
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                importers.add(name)
    return importers


def test_exports_resolve_and_only_fbl_imports_scipy():
    # a stale name in __all__ breaks `from clfbl import *`
    namespace = {}
    exec("from clfbl import *", namespace)
    assert set(clfbl.__all__) <= set(namespace)
    assert len(set(clfbl.__all__)) == len(clfbl.__all__)
    # Q and log Q come from fbl._eps_of and fbl._log_eps_of alone
    assert _scipy_importers() == {"fbl.py"}


def test_link_formula_has_one_copy():
    # fbl._channel computes the capacity for floats and arrays
    # alike; a second log1p call would be a fork of the link formula
    calls = [
        node for _, tree in _module_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "log1p"
    ]
    assert len(calls) == 1


def test_snr_formulas_have_one_copy():
    # SystemConfig.eta and .gamma_dl are the two SNRs; another module that
    # reads a channel gain would restate one of them
    readers = {
        name for name, tree in _module_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("g_ul", "g_dl")
    }
    assert readers == {"fbl.py"}
