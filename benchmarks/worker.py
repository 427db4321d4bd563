"""One benchmark pass in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 benchmarks/worker.py            # run the jobs given as JSON on stdin
    python3 benchmarks/worker.py --trace

The job list on stdin is a JSON list of CLI argv lists.  Each job runs
through ``sympow.cli.run`` in this process, back to back.  One JSON object
goes to stdout: the monotonic time and the steal counter (``steal.py``) at
which ``sympow.cli`` was imported, each job's exit code, report text and
wall time, the pass's wall time, clock time, steal time, CPU time and peak
RSS, and with ``--trace`` the aggregated spans.  A wall time is the clock
time of its interval minus the steal time that accrued during it.
"""

import time

import sympow.cli  # importing the CLI is the set-up that ``setup_s`` measures

READY = time.perf_counter()

from steal import steal_s  # noqa: E402

READY_STEAL = steal_s()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_pass(jobs: list[list[str]], trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    cpu0 = time.process_time()
    steal0 = steal_s()
    start = time.perf_counter()
    for argv in jobs:
        t0, s0 = time.perf_counter(), steal_s()
        try:
            code, text, _out = sympow.cli.run(argv)
        except Exception:  # a crashing job is a failed job; the pass goes on
            code, text = -1, traceback.format_exc()
        wall = time.perf_counter() - t0 - (steal_s() - s0)
        results.append({"code": code, "text": text, "wall_s": wall})
    clock = time.perf_counter() - start
    steal = steal_s() - steal0
    out = {
        "jobs": results,
        "wall_s": clock - steal,
        "clock_s": clock,
        "steal_s": steal,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()
    return out


def main() -> None:
    result = {"ready": READY, "ready_steal": READY_STEAL}
    result.update(run_pass(json.load(sys.stdin), "--trace" in sys.argv[1:]))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
