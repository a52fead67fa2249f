"""The CLI output contract: every job of the benchmark's pools prints the
bytes whose SHA-256 `bench/goldens.json` records.

The jobs run in this process through `cli.run`, in a temporary directory
that holds the committed model documents at the relative paths the jobs
name (a `limit` job echoes its scenario path).
"""

import contextlib
import hashlib
import io
import json
import types
from pathlib import Path

from brickforge import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    """Execute the workloads' source without importing it, so no bytecode
    cache is written next to it."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("bench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_pool_jobs_print_their_goldens(tmp_path, monkeypatch):
    wl = load_workloads()
    goldens = json.loads((BENCH / "goldens.json").read_text())
    inputs = tmp_path / wl.INPUT_DIR
    inputs.mkdir(parents=True)
    for name, text in json.loads((BENCH / "inputs.json").read_text()).items():
        (inputs / f"{name}.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    jobs = {" ".join(j): j for w in wl.WORKLOADS for j in wl.pool(w)}
    assert set(jobs) == set(goldens)
    wrong = []
    for key, argv in jobs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.run(argv)
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if digest != goldens[key]:
            wrong.append(key)
    assert wrong == []
