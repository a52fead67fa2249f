"""The brickforge benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload c4-stream --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Jobs run through `brickforge.cli.run`
in worker processes (`worker.py`) that import the library from `src/`.
Each job's stdout is checked against the SHA-256 recorded in
`goldens.json`; a nonzero exit, an exception, a timeout or a different
hash fails the job.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics (`tracer.PER_LAYER`) with
`--trace 1`.  The line before it is a report with the environment, the
sample counts and, when traced, each layer's share of job time.

Other modes:

    python3 bench/run.py --record-goldens   # rewrite goldens.json
    python3 bench/run.py --probe            # the known failures, bounded

See NOTES.md for why each workload exists and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens.json"
RESULTS = ROOT / ".bench_build" / "results"
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
START_TIMEOUT_S = 60.0
SETUP_PROBES = 12  # extra worker spawns spread over a run, for setup_s
PROBE_TIMEOUT_S = 5.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def materialize_inputs():
    """Write the committed documents to their stable relative paths."""
    docs = json.loads((BENCH / "inputs.json").read_text())
    out = ROOT / wl.INPUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    for name, text in docs.items():
        path = out / f"{name}.json"
        if not path.exists() or path.read_text() != text:
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(text)
            tmp.replace(path)


def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # set and dict orders, so counts repeat exactly
    return env


class Worker:
    """One worker process and its JSON-lines channel."""

    def __init__(self, trace: bool):
        t0 = perf_counter()
        cmd = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_worker_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.last = None  # the latest job reply
        ready = self._read(START_TIMEOUT_S)
        if not ready or not ready.get("ready"):
            self.close(kill=True)
            raise BenchError("worker did not start; is src/brickforge present?")
        self.setup_s = perf_counter() - t0
        self.budget = ready["budget"]

    def _read(self, timeout):
        if not self._sel.select(timeout):
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def run(self, argv, timeout):
        """The job's reply, or None when it timed out or the worker died."""
        try:
            self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        reply = self._read(timeout)
        if reply is not None:
            self.last = reply
        return reply

    def close(self, kill=False):
        if kill:
            self.proc.kill()
        else:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()
        self._sel.close()


def _key(argv):
    return " ".join(argv)


def run_jobs(workload, jobs, trace, goldens, deadline, probes=0, timeout=None):
    """Run `jobs` in order, closed loop, one worker at a time.

    `probes` extra workers are started and stopped at evenly spaced points
    of the run, to sample set-up time across it; their time is left out of
    the run's wall time."""
    cold = workload in wl.COLD
    timeout = timeout or wl.JOB_TIMEOUT_S[workload]
    records, workers, setups = [], [], []
    probe_at = {i * len(jobs) // probes for i in range(probes)} if probes else set()
    paused = 0.0
    worker = None
    t_start = perf_counter()
    try:
        for i, argv in enumerate(jobs):
            if i in probe_at:
                t0 = perf_counter()
                probe = Worker(False)
                probe.close()
                setups.append(probe.setup_s)
                paused += perf_counter() - t0
            remaining = deadline - perf_counter()
            t0 = perf_counter()
            if remaining > 0 and worker is None:
                worker = Worker(trace)
                workers.append(worker)
                setups.append(worker.setup_s)
                if not cold:
                    t0 = perf_counter()
            reply = worker.run(argv, min(timeout, remaining)) if remaining > 0 else None
            latency = perf_counter() - t0
            rec = {"job": _key(argv), "latency_s": latency, "reply": reply}
            rec["reason"] = _failure(reply, goldens.get(_key(argv)))
            records.append(rec)
            if worker is not None and (reply is None or cold):
                worker.close(kill=reply is None)
                worker = None
    finally:
        if worker is not None:
            worker.close()
    wall = perf_counter() - t_start - paused
    return {"records": records, "workers": workers, "setups": setups, "wall_s": wall}


def _failure(reply, golden):
    if reply is None:
        return "no reply: timeout or worker exit"
    if reply["code"] != 0:
        return f"exit {reply['code']}: {(reply['error'] or '').strip()[-300:]}"
    if golden is None:
        return "no golden recorded"
    if reply["sha256"] != golden:
        return "stdout differs from golden"
    return None


def tail_latency(sorted_lat):
    """The latency with exactly 10 samples above it, and its percentile.
    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead."""
    n = len(sorted_lat)
    if n < 20:
        return sorted_lat[-1], 100.0
    return sorted_lat[n - 11], 100.0 * (n - 10) / n


def end_to_end(run):
    setups = run["setups"]
    ok = [r for r in run["records"] if r["reason"] is None]
    lat = sorted(r["latency_s"] for r in ok) or [0.0]
    tail, pct = tail_latency(lat)
    rss = [w.last["maxrss_kb"] for w in run["workers"] if w.last]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(ok) / run["wall_s"], "1/s"),
        "job_tail_s": (tail, "s"),
        "cpu_s_per_job": (sum(r["reply"]["cpu_s"] for r in ok) / max(len(ok), 1), "s"),
        "peak_rss_mb": (max(rss, default=0) / 1024.0, "MB"),
    }
    by_job = {}
    for r in ok:
        by_job.setdefault(r["job"], []).append(r["latency_s"])
    # The median latency is reported but is not a metric: where the host's
    # speed alternates between two levels, it flips between them from run
    # to run (see NOTES.md).
    detail = {
        "ok_jobs": len(ok),
        "job_p50_s": statistics.median(lat),
        "tail_percentile": pct,
        "tail_samples_above": 10 if len(ok) >= 20 else 0,
        "setup_samples": len(setups),
        "wall_s": run["wall_s"],
        "job_median_s": {k: statistics.median(v) for k, v in sorted(by_job.items())},
    }
    return metrics, detail


def sum_traces(run):
    """The traced workers' counters, added up: calls, self_s and counts
    per layer, plus the targets the tracer could not find."""
    total = {"calls": {}, "self_s": {}, "counts": {}, "missing": set()}
    for w in run["workers"]:
        if not w.last:
            continue
        snap = w.last["trace"]
        for part in ("calls", "self_s", "counts"):
            for k, v in snap[part].items():
                total[part][k] = total[part].get(k, 0) + v
        total["missing"].update(snap["missing"])
    return total


def layer_values(total):
    """Every `tracer.PER_LAYER` metric, as (value, unit)."""
    calls, counts = total["calls"], total["counts"]
    metrics = {}
    for layer, stats, _, _ in tracer.PER_LAYER:
        for stat in stats:
            if stat in ("calls", "builds"):
                value = calls.get(layer, 0)
            elif stat == "self_s":
                value = total["self_s"].get(layer, 0.0)
            elif stat == "repeat_ratio":
                n = calls.get(layer, 0)
                value = 1.0 - counts.get(f"{layer}.distinct_pairs", 0) / n if n else 0.0
            else:
                value = counts.get(f"{layer}.{stat}", 0)
            metrics[f"{layer}.{stat}"] = (value, tracer.UNITS.get(stat, "count"))
    return metrics


def per_layer(workload, untraced, traced):
    total = sum_traces(traced)
    metrics = layer_values(total)
    ok = [r for r in traced["records"] if r["reason"] is None]
    metrics["serialize.stdout_bytes"] = (sum(r["reply"]["stdout_bytes"] for r in ok), "bytes")
    jps_u, jps_t = _jobs_per_s(untraced), _jobs_per_s(traced)
    metrics["trace.overhead_frac"] = (jps_u / jps_t - 1.0 if jps_t else 0.0, "ratio")

    job_s = sum(r["latency_s"] for r in ok) or 1.0
    detail = {
        "shares": {
            f"{layer}.self_s": {"share_of_job_time": total["self_s"].get(layer, 0.0) / job_s,
                                "moves": moves}
            for layer, _, _, moves in tracer.PER_LAYER
        },
        "uncovered": [layer for layer, _, wls, _ in tracer.PER_LAYER
                      if workload in wls and not total["calls"].get(layer)],
        "missing": sorted(total["missing"]),
        "bindings": next((w.last["trace"]["bindings"] for w in traced["workers"] if w.last), {}),
        "jobs_per_s_untraced": jps_u,
        "jobs_per_s_traced": jps_t,
    }
    return metrics, detail


def _jobs_per_s(run):
    return sum(1 for r in run["records"] if r["reason"] is None) / run["wall_s"]


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment(seed, budget):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "brickforge_budget": budget,
    }


def _load_goldens():
    if not GOLDENS.exists():
        raise BenchError(f"{GOLDENS.name} is missing; run with --record-goldens")
    return json.loads(GOLDENS.read_text())


def benchmark(workload, seed, seconds, trace):
    if not (ROOT / "src" / "brickforge" / "cli.py").is_file():
        raise BenchError("src/brickforge/cli.py not found under the checkout root")
    goldens = _load_goldens()
    materialize_inputs()
    load_start = _loadavg()
    jobs = wl.schedule(workload, seed, seconds)
    deadline = perf_counter() + RUN_DEADLINE_S
    report = {"workload": workload, "seconds": seconds, "trace": trace, "jobs": len(jobs)}
    if trace:
        untraced = run_jobs(workload, jobs, False, goldens, deadline)
        traced = run_jobs(workload, jobs, True, goldens, deadline)
        runs = [untraced, traced]
        metrics, report["layers"] = per_layer(workload, untraced, traced)
    else:
        run = run_jobs(workload, jobs, False, goldens, deadline, probes=SETUP_PROBES)
        runs = [run]
        metrics, report["run"] = end_to_end(run)
    budget = next((w.budget for r in runs for w in r["workers"]), None)
    report["environment"] = environment(seed, budget)
    report["environment"]["loadavg_start"] = load_start
    report["environment"]["loadavg_end"] = _loadavg()
    records = [r for run in runs for r in run["records"]]
    failures = [(r["job"], r["reason"]) for r in records if r["reason"] is not None]
    report["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def record_goldens():
    """Run every pool job once and write the SHA-256 of its stdout."""
    materialize_inputs()
    goldens, bad = {}, []
    deadline = perf_counter() + 3600.0
    for workload in wl.WORKLOADS:
        jobs = [j for j in wl.pool(workload) if _key(j) not in goldens]
        run = run_jobs(workload, jobs, False, {}, deadline)
        for r in run["records"]:
            if r["reply"] is None or r["reply"]["code"] != 0:
                bad.append((r["job"], r["reason"]))
            else:
                goldens[r["job"]] = r["reply"]["sha256"]
        print(f"{workload}: {len(jobs)} jobs, {run['wall_s']:.1f} s", file=sys.stderr)
    if bad:
        for job, reason in bad:
            print(f"FAILED {job}: {reason}", file=sys.stderr)
        raise BenchError("some pool jobs fail; goldens not written")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS}")


def probe_known_failures():
    """Run the known failures; a hang is cut at PROBE_TIMEOUT_S."""
    materialize_inputs()
    records = []
    for workload, jobs in wl.KNOWN_FAILURES.items():
        timeout = PROBE_TIMEOUT_S if workload == "c4-stream" else None
        run = run_jobs(workload, jobs, False, {}, perf_counter() + 3600.0, timeout=timeout)
        records += run["records"]
    for r in records:
        reply = r["reply"]
        outcome = "timeout" if reply is None else f"exit {reply['code']}"
        print(f"{outcome:8} {r['latency_s']:7.2f}s  {r['job']}")
    failed = sum(1 for r in records if r["reply"] is None or r["reply"]["code"] != 0)
    print(json.dumps({"attempted": len(records), "failed": failed,
                      "failed_frac": failed / len(records)}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-goldens", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.record_goldens:
            record_goldens()
            return 0
        if args.probe:
            probe_known_failures()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        if args.seconds < 1:
            p.error("--seconds must be at least 1")
        result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"result": result, "report": report}, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
