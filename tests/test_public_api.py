"""The package's public names, and the one module that calls scipy."""

import ast
from pathlib import Path

import clfbl


def _scipy_importers() -> set[str]:
    """Names of the clfbl modules with an import of scipy or a submodule."""
    importers = set()
    for path in Path(clfbl.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                importers.add(path.name)
    return importers


def test_exports_resolve_and_only_fbl_imports_scipy():
    # a stale name in __all__ breaks `from clfbl import *`
    namespace = {}
    exec("from clfbl import *", namespace)
    assert set(clfbl.__all__) <= set(namespace)
    assert len(set(clfbl.__all__)) == len(clfbl.__all__)
    # Q and log Q come from fbl._eps_of and fbl._log_eps_of alone
    assert _scipy_importers() == {"fbl.py"}
