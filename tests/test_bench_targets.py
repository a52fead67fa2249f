"""Every function the benchmark tracer wraps still exists in the library,
and the work counts it reads off their results still resolve.

`bench/tracer.py` looks its targets up by name; a renamed or moved
function would leave a layer silently unmeasured, and a changed result
type would break only traced runs.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import limits as lm
from brickforge import surfaces as sf

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"


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


# One round of a workload's schedule, run through `cli.run` under the
# tracer.  The tracer rebinds module globals of the library, so the round
# runs in its own interpreter; the bench sources are executed, not
# imported, so no bytecode cache is written next to them.
TRACED_ROUND = """
import contextlib, io, json, sys, types
from pathlib import Path

def load(path):
    module = types.ModuleType(Path(path).stem)
    exec(compile(Path(path).read_text(), path, "exec"), module.__dict__)
    return module

bench, workload = sys.argv[1:]
from brickforge import cli
wl = load(f"{bench}/workloads.py")
tracer = load(f"{bench}/tracer.py").Tracer()
tracer.install()
for argv in wl.schedule(workload, 1, wl.ROUND_S[workload]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.run(argv)
print(json.dumps(tracer.snapshot()))
"""


@pytest.mark.parametrize("workload", ["c5-cold", "c5-warm", "c4-stream"])
def test_a_round_of_each_workload_covers_its_layers(workload, tmp_path):
    """Every layer that `PER_LAYER` expects on a workload records calls
    in one round of its schedule, and every tracer target is found."""
    wl = types.ModuleType("bench_workloads")
    path = BENCH / "workloads.py"
    exec(compile(path.read_text(), str(path), "exec"), wl.__dict__)
    inputs = tmp_path / wl.INPUT_DIR
    inputs.mkdir(parents=True)
    for name, text in json.loads((BENCH / "inputs.json").read_text()).items():
        (inputs / f"{name}.json").write_text(text)
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
    }
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, str(BENCH), workload],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    snapshot = json.loads(proc.stdout.splitlines()[-1])
    assert snapshot["missing"] == []
    uncovered = [
        layer
        for layer, _, workloads, _ in tracer.PER_LAYER
        if workload in workloads and not snapshot["calls"][layer]
    ]
    assert uncovered == []
