"""Every process-wide table of the library is a `records.Memo`, which the
`cold_caches` fixture empties, or is named here with the reason it
outlives it, so that a test which asks for cold caches gets them
whatever ran before it.  One guard reads the source, so it sees tables
that no command fills; the other runs the benchmark's jobs, so it sees
tables that no module-level assignment shows."""

import ast
import contextlib
import io
import json
import types
from pathlib import Path

from brickforge import cli
from conftest import tables

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "brickforge"

INDEX = (
    "one fixed walk of the enumeration fills the index, so a lookup "
    "answers the same in any process"
)
# (module, name) -> why `cold_caches` leaves the table as it is
KEPT = {
    ("brickforge.surfaces", "_CLASS_NUMBERS"): (
        "a class's number names it and answers nothing; numbers are never "
        "reused, so the tables keyed by them stay consistent when emptied"
    ),
    ("brickforge.charts", "AMBIENT._curve_cache"): INDEX,
    ("brickforge.charts", "AMBIENT._by_class"): INDEX,
    ("brickforge.charts", "AMBIENT._by_coords"): INDEX,
}


def load_workloads():
    """Execute bench/workloads.py without importing it, so no bytecode
    cache is written next to it."""
    module = types.ModuleType("bench_workloads")
    path = BENCH / "workloads.py"
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_no_module_binds_an_empty_table_outside_kept():
    """A module-level name bound to an empty `{}`, `dict()`, `set()` or
    `[]` is a table that the module fills, so a memo is a `Memo` instead,
    and any other such table is named in `KEPT`."""
    empty = {"{}", "dict()", "set()", "[]"}
    bound = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if ast.unparse(node.value) in empty:
                bound.update(
                    (f"brickforge.{path.stem}", t.id)
                    for t in targets
                    if isinstance(t, ast.Name)
                )
    assert ("brickforge.surfaces", "_CLASS_NUMBERS") in bound
    assert sorted(bound - set(KEPT)) == []


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
