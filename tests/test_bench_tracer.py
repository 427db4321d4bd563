"""The benchmark's span tracer still installs against the package.

``benchmarks/tracer.py`` wraps a fixed list of sympow functions and methods
by name; a renamed or removed one would crash the traced benchmark run.
These install the tracer, run CLI reports and remove the tracer again; every
job of the benchmark's ``generic`` and ``verify`` workloads must print the
same stdout with the tracer installed, as the traced benchmark run checks.
"""

import pathlib
import sys

import pytest

import sympow.cli as cli
import sympow.homology as homology

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def _workload_argvs(name):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from workloads import DEFAULT_SEED, WORKLOADS
    finally:
        sys.path.remove(str(BENCHMARKS))
    return [pytest.param(argv, id=" ".join(argv)) for argv in WORKLOADS[name].argvs(DEFAULT_SEED)]


@pytest.mark.parametrize("argv", _workload_argvs("generic") + _workload_argvs("verify"))
def test_tracer_keeps_every_workload_job_byte_identical(monkeypatch, argv):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracer import Tracer

    plain = cli.run(argv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = cli.run(argv)
    finally:
        tracer.uninstall()
    assert traced == plain and plain[0] == 0
    assert tracer.stats["cli.run"]["calls"] == 1


def test_tracer_installs_and_keeps_stdout(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracer import Tracer

    argv = ["cover-homology", "--genus", "2", "--k", "2"]
    originals = (cli.run, homology.modp_rank)
    plain = cli.run(argv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = cli.run(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (cli.run, homology.modp_rank) == originals
    assert cli.run(argv) == plain
    assert tracer.stats["homology.generic_homology"]["calls"] > 0


def test_tracer_passes_the_pivot_list_to_integer_rank(monkeypatch):
    # integer_free_ranks hands integer_rank a pivot list for clearing; the
    # wrapped integer_rank must pass it through and still count the calls
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracer import Tracer

    argv = ["verify", "--suite", "theorem-main", "--genus", "2", "--k", "2", "--N", "2"]
    plain = cli.run(argv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = cli.run(argv)
    finally:
        tracer.uninstall()
    assert traced == plain and plain[0] == 0
    assert tracer.stats["homology.integer_rank"]["calls"] > 0
    # the wedge ranks of the expected degree-k dimension are sparse rows now,
    # so the dense kernel the tracer also wraps sees no call on this suite
    assert tracer.stats["homology.generic_homology"]["calls"] > 0
    assert "homology.modp_rank" not in tracer.stats


def test_tracer_counts_the_fused_dga_boundary(monkeypatch):
    # boundary and dga_mul add their products into packed terms without
    # calling GroupRingElement.__mul__, so their own spans carry that time
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracer import Tracer

    argv = ["verify", "--suite", "dga", "--genus", "2"]
    plain = cli.run(argv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = cli.run(argv)
    finally:
        tracer.uninstall()
    assert traced == plain and plain[0] == 0
    assert tracer.stats["dga.boundary"]["calls"] > 0
    assert tracer.stats["dga.dga_mul"]["calls"] > 0
