"""Every function the benchmark tracer wraps still exists in the library.

`bench/tracer.py` looks its targets up by name; a renamed or moved
function would leave a layer silently unmeasured.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    """Execute the tracer's source without importing it, so no bytecode
    cache is written next to it."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = load_tracer()
TARGETS = [target for targets in tracer.LAYERS.values() for target in targets]


@pytest.mark.parametrize("modname, path", TARGETS, ids=lambda x: x)
def test_layer_target_exists(modname, path):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{modname}.{path}"
