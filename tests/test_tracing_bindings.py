"""The benchmark's traced run wraps ``clfbl`` functions by name.

``perfbench/tracing.py`` resolves each name with ``getattr`` when a traced
run starts, so deleting or renaming one of them breaks only that run.
This test resolves the same names in the ordinary suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracing = _tracing_module()
    assert tracing.TRACED and tracing.TRACED_CLASSMETHODS
    for name, (module, attr) in tracing.TRACED.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    for name, (module, cls, attr) in tracing.TRACED_CLASSMETHODS.items():
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, attr, None)), name
