"""The benchmark's workloads: job pools and seeded schedules.

A job is the argv of one `brickforge` CLI command.  Every workload is a
closed loop with one client: the next job is sent only when the previous
one has answered, and one worker process runs at a time.

A run does a fixed amount of work, sized by `--seconds`: a workload is a
sequence of rounds, each round a fixed multiset of job kinds, and a run
does `max(1, round(seconds / ROUND_S))` rounds.  `ROUND_S` is what one
round took at the commit that defined the benchmark on a 2-core host with
Python 3.11, so a run lasts about `--seconds` there and a faster program
finishes sooner.  The seed orders the jobs and, where a round has a slot
with several equal-cost variants, picks among them; it never changes how
many jobs of each kind a round holds.
"""

from __future__ import annotations

import random
from math import gcd

INPUT_DIR = ".bench_build/inputs"

# Single-brick T(1,1) fixtures of the acceptance tests (initial p/q,
# terminal p/q).
SLOPE_PAIRS = [
    (0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 2, 1), (0, 1, 3, 2),
    (0, 1, 5, 3), (0, 1, 8, 5), (1, 0, 1, 1), (1, 0, 2, 3),
    (1, 1, 3, 4), (0, 1, 2, 7), (0, 1, 3, 8), (2, 1, 1, 3),
    (1, 2, 5, 2), (1, 0, 3, 5), (1, 1, 8, 5),
]

# Single-brick T(1,2) models, marked by named ambient curves.
SB12_MARKINGS = [
    (("v0",), ("v1",)),
    (("v0", "v1"), ("sigma",)),
    (("v0",), ("sigma",)),
    (("v0",), ("h",)),
]


def _slopes():
    """Slopes p/q with |p| <= 2 and 1 <= q <= 3 in lowest terms, and 1/0."""
    out = [(1, 0)]
    for q in range(1, 4):
        for p in range(-2, 3):
            if gcd(p, q) == 1:
                out.append((p, q))
    return out


def stream_pairs():
    """Unordered pairs of distinct slopes of the bounded range."""
    s = _slopes()
    return [a + b for i, a in enumerate(s) for b in s[i + 1 :]]


def sb11_name(p1, q1, p2, q2):
    return "sb11_" + "_".join(
        f"{p}-{q}".replace("-", "n", 1) if p < 0 else f"{p}-{q}"
        for p, q in ((p1, q1), (p2, q2))
    )


def sb12_name(initial, terminal):
    return f"sb12_{''.join(initial)}_{''.join(terminal)}"


def doc(name):
    return f"{INPUT_DIR}/{name}.json"


def limit(scenario, stages):
    return ["limit", "--scenario", scenario, "--stages", str(stages)]


# -- complexity-5 jobs (twice-punctured torus) ------------------------------

# Light: under a second in a fresh interpreter, most of it spent filling
# the per-process ambient curve cache (`charts.AMBIENT`).
C5_LIMITS = [limit(f"kt:1,2:{n}", s) for n in (1, 2, 3) for s in (1, 2)]
C5_LIGHT = (
    C5_LIMITS
    + [limit("bo:1,2:1", s) for s in (1, 2)]
    + [[cmd, doc("brock")] for cmd in ("validate", "export")]
    + [[cmd, doc("kt12")] for cmd in ("validate", "decompose", "export")]
)
# Heavy: 6-15 s each, about 90% of it in `flatcurves.flat_intersection`.
# Each builds the certificate adjacency of the same 21 ambient curves, and
# the crosscheck and the second job decompose the same model.
C5_HEAVY = [
    ["crosscheck", doc(sb12_name(("v0", "v1"), ("sigma",)))],
    ["decompose", doc(sb12_name(("v0", "v1"), ("sigma",)))],
    ["decompose", doc(sb12_name(("v0",), ("v1",)))],
]

# A round's latencies fall in clusters, one per kind of job.  Where the
# median or the tail falls on the edge between two clusters, it jumps
# between them from run to run, so each round repeats one cluster of
# similar jobs until it holds both.
#
# c5-cold runs, each in a fresh interpreter, the light jobs that take
# 0.6-0.7 s cold three times per round, and `validate` and `export` once.
# (Cold, `limit --stages 1` takes longer than `--stages 2`; it runs on
# c5-warm.)  c5-warm runs, in one long-lived worker, the heavy jobs, every
# light job, and the warm `limit kt:1,2:n` jobs three more times.
C5_COLD_ROUND = (
    [limit(f"kt:1,2:{n}", 2) for n in (1, 2, 3)]
    + [limit("bo:1,2:1", 2), ["decompose", doc("kt12")]]
) * 3 + [[cmd, doc(name)] for name in ("brock", "kt12") for cmd in ("validate", "export")]
C5_WARM_ROUND = C5_HEAVY + C5_LIGHT + C5_LIMITS * 3

# -- c4-stream: hundreds of short T(1,1) jobs ------------------------------

C4_SCENARIOS = [limit(f"{kind}:{n}", s) for kind in ("kt", "bo")
                for n in range(1, 7) for s in range(1, 5)]
C4_DOC_COMMANDS = ("validate", "decompose", "metric", "crosscheck", "export")
C4_METRIC_K = (1, 3, 5)
C4_DOCS_PER_ROUND = 24  # jobs of each document command per round

# `limit` on a single-brick document.  At the commit that defined the
# benchmark, `limits.exhaust` hangs (ROADMAP item 2) on 29 of the 60
# (fixture, stages) pairs: at stages 2 on 4 fixtures, at 3 on 10, at 4 on
# all 15.  The stream draws only from the 31 pairs that terminate, so that
# no job of a workload fails; `run.py --probe` runs the 29 hangs, each
# bounded by a timeout, and reports their failed share.
SB11_LIMIT_HANGS = {
    1: set(),
    2: {(0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 3, 4)},
    3: set(SLOPE_PAIRS) - {(0, 1, 5, 3), (0, 1, 8, 5), (2, 1, 1, 3), (1, 2, 5, 2), (1, 0, 3, 5)},
    4: set(SLOPE_PAIRS),
}
SB11_LIMITS = [limit(doc(sb11_name(*p)), s) for s, hangs in SB11_LIMIT_HANGS.items()
               for p in SLOPE_PAIRS if p not in hangs]

# Jobs that fail at the defining commit, by the workload whose timeout
# bounds them; run only by `run.py --probe`.
KNOWN_FAILURES = {
    "c4-stream": [limit(doc(sb11_name(*p)), s) for s, hangs in SB11_LIMIT_HANGS.items()
                  for p in SLOPE_PAIRS if p in hangs],
    # exits 1, BudgetExceeded: no coordinate chart for a strip component domain
    "c5-warm": [["crosscheck", doc(sb12_name(("v0",), ("h",)))]],
}


ROUND_S = {"c5-cold": 10.5, "c5-warm": 28.0, "c4-stream": 2.5}
JOB_TIMEOUT_S = {"c5-cold": 90.0, "c5-warm": 90.0, "c4-stream": 10.0}
COLD = {"c5-cold"}
WORKLOADS = tuple(ROUND_S)


def rounds(workload, seconds):
    return max(1, round(seconds / ROUND_S[workload]))


def _c4_round(rng):
    pairs = stream_pairs()
    jobs = list(C4_SCENARIOS)
    for cmd in C4_DOC_COMMANDS:
        for _ in range(C4_DOCS_PER_ROUND):
            path = doc(sb11_name(*rng.choice(pairs)))
            if cmd == "metric":
                jobs.append(["metric", "--k", str(rng.choice(C4_METRIC_K)), path])
            else:
                jobs.append([cmd, path])
    jobs.append(rng.choice(SB11_LIMITS))
    return jobs


def schedule(workload, seed, seconds):
    """The job list of one run."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds(workload, seconds)):
        if workload == "c5-cold":
            jobs = list(C5_COLD_ROUND)
        elif workload == "c5-warm":
            jobs = list(C5_WARM_ROUND)
        else:
            jobs = _c4_round(rng)
        rng.shuffle(jobs)
        out.extend(jobs)
    return out


def pool(workload):
    """Every job a schedule of the workload can contain."""
    if workload == "c5-cold":
        return [list(j) for j in dict.fromkeys(map(tuple, C5_COLD_ROUND))]
    if workload == "c5-warm":
        return C5_HEAVY + C5_LIGHT
    jobs = list(C4_SCENARIOS) + list(SB11_LIMITS)
    for p in stream_pairs():
        path = doc(sb11_name(*p))
        jobs += [[cmd, path] for cmd in C4_DOC_COMMANDS if cmd != "metric"]
        jobs += [["metric", "--k", str(k), path] for k in C4_METRIC_K]
    return jobs
