"""The benchmark's pinned outputs still hold, checked in-process.

Every job of the ``generic`` and ``verify`` workloads (``benchmarks/
workloads.py``) runs at the default seed through ``cli.run``, and
``benchmarks/check.check_job`` judges its output against
``benchmarks/expected.json``: homology bytes, goldens, and every pinned
verify check by name, passing.  A renamed or failing pinned check, or a
changed homology byte, fails here before it fails the benchmark.
"""

import pathlib

import pytest

import sympow.cli as cli

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("workload", ["generic", "verify"])
def test_workload_outputs_match_the_pins(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from check import check_job, load_expected
    from workloads import DEFAULT_SEED, WORKLOADS

    expected = load_expected()
    w = WORKLOADS[workload]
    failures = {}
    for job, argv in zip(w.jobs, w.argvs(DEFAULT_SEED)):
        code, text, _ = cli.run(argv)
        why = check_job(job, DEFAULT_SEED, code, text, expected)
        if why is not None:
            failures[" ".join(argv)] = why
    assert not failures
