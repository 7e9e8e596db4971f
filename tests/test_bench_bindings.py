"""The benchmark's tracer wraps each name in `bench/tracer.py`'s WRAPS where
the workbench binds it (`module` plus a dotted `attr`). A refactor under
`src/` that unbinds one would otherwise only show in a traced benchmark
run; here every binding is resolved, and nothing is wrapped."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("wrap", tracer.WRAPS, ids=tracer.binding)
def test_traced_binding_resolves_to_a_callable(wrap):
    owner = importlib.import_module(wrap.module)
    for part in wrap.attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
