"""Every process-wide table of the library that the benchmark's jobs fill
is emptied by the `cold_caches` fixture, or is named here with the
reason it outlives it, so that a test which asks for cold caches gets
them whatever ran before it."""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

from brickforge import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (module, name) -> why `cold_caches` leaves the table as it is
KEPT = {
    ("brickforge.surfaces", "_CLASS_NUMBERS"): (
        "a class's number names it and answers nothing; numbers are never "
        "reused, so the tables keyed by them stay consistent when emptied"
    ),
}


def load_workloads():
    """Execute bench/workloads.py without importing it, so no bytecode
    cache is written next to it."""
    module = types.ModuleType("bench_workloads")
    path = BENCH / "workloads.py"
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def tables():
    """(module, name) -> each dict bound at the top level of a loaded
    brickforge module."""
    return {
        (modname, name): value
        for modname, module in list(sys.modules.items())
        if modname.split(".")[0] == "brickforge"
        for name, value in vars(module).items()
        if isinstance(value, dict) and not name.startswith("__")
    }


def test_every_table_a_pool_fills_is_emptied_or_kept(
    cold_caches, tmp_path, monkeypatch
):
    wl = load_workloads()
    monkeypatch.chdir(tmp_path)
    inputs = tmp_path / wl.INPUT_DIR
    inputs.mkdir(parents=True)
    for name, text in json.loads((BENCH / "inputs.json").read_text()).items():
        (inputs / f"{name}.json").write_text(text)
    before = {key: len(table) for key, table in tables().items()}
    for workload in wl.WORKLOADS:
        for argv in wl.pool(workload):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv) == 0, argv
    grown = {
        key for key, table in tables().items() if len(table) > before.get(key, 0)
    }
    assert ("brickforge.limits", "_SCENARIO_SWEEPS") in grown
    cold_caches()
    now = tables()
    assert sorted(key for key in grown if now[key] and key not in KEPT) == []
    assert set(KEPT) <= set(now)
