"""Every function the benchmark tracer wraps still exists in the library,
and the work counts it reads off their results still resolve.

`bench/tracer.py` looks its targets up by name; a renamed or moved
function would leave a layer silently unmeasured, and a changed result
type would break only traced runs.
"""

import importlib
import types
from pathlib import Path

import pytest

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import limits as lm
from brickforge import surfaces as sf

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


def test_counted_results_resolve(count_calls, cold_caches):
    m, e = lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=2))
    sweep = bk.LevelSweep.of(m.complex, e)
    searches = count_calls(lm, "_find_obstructors")
    stages = lm.exhaust(sweep, 2)
    assert searches
    results = {
        "blocks.decompose": bl.decompose(sweep),
        "limits.exhaust": stages,
        "limits._find_obstructors": lm._find_obstructors(*searches[0]),
    }
    stats = {layer: set(names) for layer, names, *_ in tracer.PER_LAYER}
    for layer, result in results.items():
        counts = tracer._count_result(layer, result)
        assert counts and set(counts) <= stats[layer], layer
        assert all(type(n) is int and n >= 0 for n in counts.values()), layer
