"""Benchmark worker: imports `brickforge.cli`, then runs CLI jobs.

Protocol, one JSON object per line.  The worker prints `{"ready": true}`
once the import is done, then reads `{"argv": [...]}` requests from stdin
and answers each with the job's exit code, the SHA-256 and size of what it
wrote to stdout, its wall and CPU time and the process's peak RSS.  With
`--trace` the answer also carries the tracer's cumulative counters.

The job's own stdout and stderr are captured, so the protocol channel only
ever carries protocol lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main():
    channel = sys.stdout
    from brickforge import cli
    from brickforge.config import get_budget

    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def reply(doc):
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    reply({"ready": True, "budget": get_budget()})
    for line in sys.stdin:
        argv = json.loads(line)["argv"]
        out, err = io.StringIO(), io.StringIO()
        error = None
        cpu0, t0 = _cpu_s(), perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception:  # the job failed; the worker keeps serving
            code = None
            error = traceback.format_exc(limit=-3)
        wall, cpu = perf_counter() - t0, _cpu_s() - cpu0
        data = out.getvalue().encode("utf-8")
        doc = {
            "code": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "stdout_bytes": len(data),
            "wall_s": wall,
            "cpu_s": cpu,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "error": error or err.getvalue()[-2000:] or None,
        }
        if tracer is not None:
            doc["trace"] = tracer.snapshot()
        reply(doc)


if __name__ == "__main__":
    main()
