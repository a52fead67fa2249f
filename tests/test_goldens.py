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


def bench_setup(tmp_path, monkeypatch):
    """The workloads and the goldens, with the working directory set to a
    temporary one that holds the model documents."""
    wl = load_workloads()
    inputs = tmp_path / wl.INPUT_DIR
    inputs.mkdir(parents=True)
    for name, text in json.loads((BENCH / "inputs.json").read_text()).items():
        (inputs / f"{name}.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    return wl, json.loads((BENCH / "goldens.json").read_text())


def stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.run(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_pool_jobs_print_their_goldens(tmp_path, monkeypatch):
    wl, goldens = bench_setup(tmp_path, monkeypatch)
    jobs = {" ".join(j): j for w in wl.WORKLOADS for j in wl.pool(w)}
    assert set(jobs) == set(goldens)
    wrong = [key for key, argv in jobs.items() if stdout_digest(argv) != goldens[key]]
    assert wrong == []


def test_caches_never_change_an_answer(tmp_path, monkeypatch, cold_caches):
    """The complexity-5 warm pool prints its goldens with the class-keyed
    caches emptied before each job, and again in reverse order with the
    caches warm."""
    wl, goldens = bench_setup(tmp_path, monkeypatch)
    jobs = wl.pool("c5-warm")
    wrong = []
    for argv in jobs:
        cold_caches()
        if stdout_digest(argv) != goldens[" ".join(argv)]:
            wrong.append(("cold", " ".join(argv)))
    for argv in reversed(jobs):
        if stdout_digest(argv) != goldens[" ".join(argv)]:
            wrong.append(("warm", " ".join(argv)))
    assert wrong == []
