"""Checks of the benchmark itself: schedules, goldens and the tracer.

    python3 -m pytest -q bench/test_bench.py
    BENCH_SLOW=1 python3 -m pytest -q bench/test_bench.py  # + full c5 traces

The fast checks take about half a minute; with BENCH_SLOW=1 two traced
runs of each complexity-5 workload are added (several minutes).
"""

from __future__ import annotations

import collections
import os

import pytest

import run
import tracer
import workloads as wl

COUNT_STATS = {"calls", "builds", "distinct_pairs", "rounds", "tubes_placed",
               "obstructors", "stages"}


def _kind(argv):
    """A job with its inputs blanked out: what a round's composition fixes."""
    if argv[0] == "limit":
        scenario = argv[2]
        return ("limit", "document" if "/" in scenario else scenario.split(":")[0])
    return (argv[0],)


def _values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[1] in COUNT_STATS}


def test_schedule_repeats_for_a_seed():
    for workload in wl.WORKLOADS:
        assert wl.schedule(workload, 5, 30) == wl.schedule(workload, 5, 30)


def test_seed_orders_and_picks_but_keeps_the_composition():
    for workload in wl.WORKLOADS:
        a, b = wl.schedule(workload, 1, 30), wl.schedule(workload, 2, 30)
        assert collections.Counter(map(_kind, a)) == collections.Counter(map(_kind, b))
    assert wl.schedule("c4-stream", 1, 30) != wl.schedule("c4-stream", 2, 30)


def test_every_scheduled_job_has_a_golden():
    goldens = run._load_goldens()
    for workload in wl.WORKLOADS:
        pool = {run._key(j) for j in wl.pool(workload)}
        assert pool <= set(goldens)
        for seed in range(5):
            assert {run._key(j) for j in wl.schedule(workload, seed, 30)} <= pool


def test_known_failures_stay_out_of_the_workloads():
    known = {run._key(j) for jobs in wl.KNOWN_FAILURES.values() for j in jobs}
    for workload in wl.WORKLOADS:
        assert not known & {run._key(j) for j in wl.pool(workload)}
    assert len(wl.KNOWN_FAILURES["c4-stream"]) == 29 and len(wl.SB11_LIMITS) == 31


def test_tail_latency_leaves_ten_samples_above():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail_latency(lat)
    assert value == 89.0 and sum(1 for x in lat if x > value) == 10
    assert pct == 90.0
    assert run.tail_latency([1.0, 3.0]) == (3.0, 100.0)


def test_per_layer_names_match_the_tracer():
    names = set(tracer.LAYERS)
    assert {layer for layer, *_ in tracer.PER_LAYER} == names


def test_c4_stream_traced_counts_repeat_and_cover_its_layers():
    first, report = run.benchmark("c4-stream", seed=3, seconds=1, trace=True)
    second, _ = run.benchmark("c4-stream", seed=3, seconds=1, trace=True)
    assert first["correct"] and second["correct"]
    assert _counts(_values(first)) == _counts(_values(second))
    assert report["layers"]["uncovered"] == []
    assert report["layers"]["missing"] == []
    # surfaces binds these with `from .farey import`; both names are wrapped
    assert report["layers"]["bindings"]["farey.slope_intersection"] == 2
    assert report["layers"]["bindings"]["farey.farey_geodesic_slopes"] == 2


def test_c5_traced_counts_repeat_on_a_short_job_list():
    jobs = [
        ["decompose", wl.doc("kt12")],
        wl.limit("kt:1,2:1", 2),
        ["decompose", wl.doc("kt12")],
    ]
    goldens = run._load_goldens()
    run.materialize_inputs()
    totals = []
    for _ in range(2):
        r = run.run_jobs("c5-warm", jobs, True, goldens, run.perf_counter() + 120)
        assert all(rec["reason"] is None for rec in r["records"])
        totals.append(run.layer_values(run.sum_traces(r)))
    counts = [_counts({k: v for k, (v, _) in t.items()}) for t in totals]
    assert counts[0] == counts[1]
    assert counts[0]["flatcurves.flat_intersection.calls"] > 0
    assert 0 < counts[0]["flatcurves.flat_intersection.distinct_pairs"]
    assert counts[0]["surfaces.DistanceCertificate.builds"] > 0
    # the second decompose repeats the first's pairs: the memo ceiling shows
    ratio = totals[0]["flatcurves.flat_intersection.repeat_ratio"][0]
    assert 0.5 <= ratio < 1.0


@pytest.mark.skipif(not os.environ.get("BENCH_SLOW"), reason="set BENCH_SLOW=1")
@pytest.mark.parametrize("workload", ["c5-cold", "c5-warm"])
def test_c5_traced_runs_repeat_and_cover_their_layers(workload):
    first, report = run.benchmark(workload, seed=1, seconds=30, trace=True)
    second, _ = run.benchmark(workload, seed=1, seconds=30, trace=True)
    assert first["correct"] and second["correct"]
    assert _counts(_values(first)) == _counts(_values(second))
    assert report["layers"]["uncovered"] == []
