import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_function_exists():
    """perfbench/tracing.py wraps each (module, name) of LAYER_FUNCTIONS by
    getattr at install, so a renamed function breaks `run.py --trace 1`."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name in tracing.LAYER_FUNCTIONS.values()
               if not callable(getattr(importlib.import_module("qutsparse." + module), name,
                                       None))]
    assert tracing.LAYER_FUNCTIONS and missing == []
