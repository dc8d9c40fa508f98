import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def _traced():
    """TRACED from perfbench/tracing.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.TRACED.items() for name in names]


@pytest.mark.parametrize("mod, name", _traced())
def test_traced_function_exists(mod, name):
    # the benchmark tracer wraps these by name, so a rename must keep them
    assert callable(getattr(importlib.import_module(f"restalg.{mod}"), name, None)), f"restalg.{mod}.{name}"
