"""The benchmark's tracer wraps radopf functions by name; they must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    """`Tracer.install` re-binds each (module, attr) of `TARGETS` and raises
    on a missing one, which would stop the traced benchmark run."""
    spec = importlib.util.spec_from_file_location("_radopf_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert module.__name__.startswith("radopf."), module
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
