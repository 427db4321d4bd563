"""Self-test of the benchmark's checking, on small real outputs.

Run from the repository root: ``python3 benchmarks/selftest.py``.  It shows
that a corrupted rank, a missing verify check, a changed field at another
seed, a traced/untraced stdout mismatch and a worker that overruns are
each counted as failed jobs, that a job over the base_change cap is
refused without running, and that ``BENCHMARK.json`` names exactly the
metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]

from check import load_expected  # noqa: E402
from run import END_TO_END, LAYER_UNITS, Bench, failures  # noqa: E402
from workloads import WORKLOADS, Job, Workload, _job  # noqa: E402

import sympow.cli  # noqa: E402

EXPECTED = load_expected()


def _pass(workload: Workload, seed: int, edit=None) -> dict:
    jobs = []
    for argv in workload.argvs(seed):
        code, text, _ = sympow.cli.run(argv)
        jobs.append({"code": code, "text": edit(argv, text) if edit else text, "wall_s": 0.0})
    return {"jobs": jobs, "ran": list(range(len(jobs)))}


def _corrupt_rank(argv, text):
    if argv[0] != "cover-homology":
        return text
    report = json.loads(text)
    report["homology"][2]["rank"] += 1
    return json.dumps(report, indent=2) + "\n"


def test_corrupted_rank_counts_in_failed_ratio():
    w = Workload("t", "", False, (_job("cover-homology --genus 2 --k 2 --method snf --N 2"),
                                  _job("quotient-homology --genus 2 --k 2 --method snf --N 2")))
    good = _pass(w, 0)
    assert failures(w, 0, [good], EXPECTED) == []
    bad = _pass(w, 0, _corrupt_rank)
    reasons = failures(w, 0, [good, bad], EXPECTED)
    attempted = 2 * len(w.jobs)
    assert len(reasons) == 1 and "cover_homology_genus_2_k_2" in reasons[0], reasons
    assert len(reasons) / attempted == 0.25


def test_other_seed_compares_fields():
    w = Workload("t", "", True, (_job("cover-homology --genus 3 --k 3"),))
    assert failures(w, 7, [_pass(w, 7)], EXPECTED) == []
    bad = _pass(w, 7, lambda argv, text: text.replace('"euler": -4', '"euler": -5'))
    assert len(failures(w, 7, [bad], EXPECTED)) == 1


def test_verify_check_names_pinned():
    w = Workload("t", "", True, (_job("verify --suite mattuck --genus 3 --format json"),))
    extra = _pass(w, 0, lambda argv, text: text.replace(
        '"checks": [', '"checks": [{"name": "certified", "pass": true, "detail": ""}, ', 1))
    assert failures(w, 0, [extra], EXPECTED) == []
    missing = _pass(w, 0, lambda argv, text: text.replace("torus-projective-pattern", "renamed"))
    assert len(failures(w, 0, [missing], EXPECTED)) == 1


def test_traced_stdout_must_match():
    w = Workload("t", "", False, (_job("cover-homology --genus 2 --k 2 --method snf --N 2"),))
    plain = _pass(w, 0)
    traced = dict(_pass(w, 0, lambda argv, text: text + " "), plain=plain)
    reasons = failures(w, 0, [plain, traced], EXPECTED)
    assert len(reasons) == 1 and "(traced)" in reasons[0], reasons


def test_dead_worker_fails_its_jobs():
    w = Workload("t", "", False, (_job("cover-homology --genus 2 --k 2 --method snf --N 2"),
                                  _job("quotient-homology --genus 2 --k 2 --method snf --N 2")))
    broken = Bench(ROOT, 20_000_000).run_pass(w.argvs(0), [0, 1], False, timeout=0.01)
    assert "broken" in broken, broken
    assert len(failures(w, 0, [broken], EXPECTED)) == 2


def test_cap_refuses_before_running():
    bench = Bench(ROOT, cap_cells=100_000)
    argvs = WORKLOADS["finite-cover"].argvs(0)
    refused = bench.refusals(argvs)
    assert list(refused) == [0], refused  # the N=3 rung, about 420k cells
    assert Bench(ROOT, 20_000_000).refusals(
        [list(Job(("cover-homology", "--genus", "3", "--k", "2", "--method", "snf", "--N", "3")).argv)])


def test_benchmark_json_names_match():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: WORKLOADS[n].why for n in ("generic", "verify")}


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
