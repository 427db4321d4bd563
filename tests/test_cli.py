import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
import tracemalloc

import pytest

import sympow
import sympow.cli as cli
from sympow.cli import run
from sympow.verify import VerifyReport


def test_betti_json():
    code, text, out = run(["betti", "--genus", "2", "--k", "2"])
    assert code == 0 and out is None
    payload = json.loads(text)
    assert [h["rank"] for h in payload["homology"]] == [1, 4, 7, 4, 1]
    assert payload["method"] == "betti-count"
    assert payload["euler"] == 1


def test_cover_homology_generic():
    code, text, _ = run(["cover-homology", "--genus", "2", "--k", "2",
                         "--method", "generic", "--trials", "5", "--seed", "1"])
    assert code == 0
    payload = json.loads(text)
    assert [h["rank"] for h in payload["homology"]] == [0, 0, 1, 0, 0]
    assert payload["prime"] == 1000003 and payload["trials"] == 5 and payload["seed"] == 1


def test_cover_homology_snf():
    code, text, _ = run(["cover-homology", "--genus", "2", "--k", "2",
                         "--method", "snf", "--N", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["method"] == "integer-snf"
    assert payload["N"] == 2
    assert [h["rank"] for h in payload["homology"]] == [1, 4, 22, 4, 1]
    assert payload["euler"] == 16


def test_wedge_homology():
    code, text, _ = run(["wedge-homology", "--arity", "4", "--k", "2",
                         "--method", "generic", "--seed", "2"])
    assert code == 0
    payload = json.loads(text)
    assert [h["rank"] for h in payload["homology"]] == [0, 0, 3]
    assert payload["case"] == "wedge" and payload["g"] == 4


def test_quotient_homology_positions():
    code, text, _ = run(["quotient-homology", "--genus", "2", "--k", "2", "--seed", "1"])
    assert code == 0
    payload = json.loads(text)
    by_degree = {h["degree"]: h["rank"] for h in payload["homology"]}
    assert by_degree == {0: 0, 1: 0, 2: 3}


def test_verify_suite_exit_zero():
    code, text, _ = run(["verify", "--suite", "lemma-cohomology", "--genus", "2", "--seed", "7"])
    assert code == 0
    payload = json.loads(text)
    assert payload["pass"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "sigma-boundary-identities", "lambda-sigma-nonzero-finite-cover"}


def test_verify_failure_exit_one(monkeypatch):
    failing = VerifyReport("stub", {})
    failing.add("stub-check", False, "synthetic failure")
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [failing])
    code, text, _ = run(["verify", "--suite", "dga", "--genus", "2"])
    assert code == 1
    assert json.loads(text)["pass"] is False


def test_usage_errors_exit_two():
    code, text, _ = run(["betti", "--genus", "0", "--k", "2"])
    assert code == 2 and "usage error" in text
    code, text, _ = run(["wedge-homology", "--arity", "2", "--k", "5"])
    assert code == 2
    code, text, _ = run(["cover-homology", "--k", "2"])
    assert code == 2  # missing --genus
    code, _, _ = run(["no-such-command"])
    assert code == 2
    code, _, _ = run(["betti", "--genus", "2"])
    assert code == 2  # missing --k


def test_verify_nonfg_rejects_k_outside_range():
    for genus, k in (("3", "7"), ("2", "3")):
        code, text, _ = run(["verify", "--suite", "nonfg", "--genus", genus, "--k", k])
        assert code == 2 and text == "usage error: need 2 <= k <= 2g-2\n", (genus, k)


def test_prime_below_three_is_a_clear_usage_error():
    for prime in ("0", "1", "2"):
        for argv in (["cover-homology", "--genus", "2", "--k", "2", "--prime", prime],
                     ["verify", "--suite", "lemma-q", "--genus", "2", "--prime", prime]):
            code, text, _ = run(argv)
            assert code == 2 and text == "usage error: prime must be an odd prime >= 3\n", argv


def test_prime_past_the_primality_proof_bound_is_a_usage_error():
    # 318665857834031151167461 = 399165290221 * 798330580441 passes Miller-Rabin
    # at every base 2..37; it used to be reported as the prime of the run
    for prime in ("318665857834031151167461", "3317044064679887385961981"):
        code, text, _ = run(["cover-homology", "--genus", "2", "--k", "2", "--prime", prime])
        assert code == 2 and text.startswith("usage error: prime must be below "), prime


def test_a_composite_prime_is_refused_after_a_valid_one():
    # primality answers are kept per value; each refusal still comes, every time
    for argv in (["cover-homology", "--genus", "2", "--k", "2", "--prime"],
                 ["verify", "--suite", "lemma-q", "--genus", "2", "--prime"]):
        assert run(argv + ["1000003"])[0] == 0
        for prime in ("1000004", "1000001", "1000004", "1000001"):  # even; 101 * 9901
            code, text, _ = run(argv + [prime])
            assert code == 2 and text == "usage error: prime must be an odd prime >= 3\n", (argv, prime)
        for _ in range(2):
            code, text, _ = run(argv + ["318665857834031151167461"])
            assert code == 2 and text.startswith("usage error: prime must be below "), argv
        assert run(argv + ["1000003"])[0] == 0


def test_export_and_homology_commands_share_usage_errors():
    cases = [
        ("cover", "cover-homology", ["--k", "2"]),
        ("cover", "cover-homology", ["--genus", "0", "--k", "2"]),
        ("q", "quotient-homology", ["--k", "2"]),
        ("q", "quotient-homology", ["--genus", "0", "--k", "0"]),
        ("q", "quotient-homology", ["--genus", "2", "--k", "0"]),
        ("wedge", "wedge-homology", ["--k", "2"]),
        ("wedge", "wedge-homology", ["--arity", "0", "--k", "2"]),
        ("wedge", "wedge-homology", ["--arity", "2", "--k", "5"]),
        ("cover", "cover-homology", ["--genus", "2", "--k", "-1"]),
    ]
    for case, command, flags in cases:
        exported = run(["export", "--case", case, *flags])
        assert exported[0] == 2 and exported[1].startswith("usage error: "), (case, flags)
        assert run([command, *flags]) == exported, (case, flags)


def test_export_refuses_the_size_flag_of_the_other_case():
    for case, flags, extra in (("wedge", ["--arity", "3", "--k", "2"], "genus"),
                               ("cover", ["--genus", "2", "--k", "2"], "arity"),
                               ("q", ["--genus", "2", "--k", "2"], "arity")):
        assert run(["export", "--case", case, *flags])[0] == 0
        code, text, _ = run(["export", "--case", case, *flags, f"--{extra}", "4"])
        assert (code, text) == (2, f"usage error: --{extra} does not apply to --case {case}\n")


def test_count_method_builds_no_complex(monkeypatch):
    def refuse(*args):
        raise AssertionError("--method count built a complex")

    monkeypatch.setattr(cli, "build_cover_complex", refuse)
    code, text, _ = run(["cover-homology", "--genus", "3", "--k", "3", "--method", "count"])
    assert code == 0 and text == run(["betti", "--genus", "3", "--k", "3"])[1]


def test_verify_all_rejects_k():
    # each suite of the battery picks its own k; a --k would be dropped silently
    code, text, _ = run(["verify", "--suite", "all", "--genus", "2", "--k", "3"])
    assert code == 2 and "usage error" in text and "--k" in text


# Each suite at small sizes with every flag it reads, and the report key of each flag.
_SUITE_ARGV = {
    "dga": "--genus 1 --k 2 --seed 3",
    "lemma-torus": "--arity 3 --k 2 --trials 2 --seed 3 --prime 1000003",
    "lemma-q": "--genus 1 --k 1 --trials 2 --seed 3 --prime 1000003",
    "lemma-cohomology": "--genus 2 --trials 2 --seed 3 --prime 1000003",
    "theorem-main": "--genus 1 --k 2 --N 2 --trials 2 --seed 3 --prime 1000003",
    "nonfg": "--genus 2 --k 2",
    "mattuck": "--genus 1 --k 3 --trials 2 --seed 3 --prime 1000003",
}
_REPORT_KEY = {"genus": "g", "arity": "n", "k": "k", "N": "N_list",
               "trials": "trials", "seed": "seed", "prime": "prime"}


@pytest.mark.parametrize("suite", sorted(_SUITE_ARGV))
def test_verify_suite_takes_only_the_flags_it_reads(suite):
    argv = ["verify", "--suite", suite] + _SUITE_ARGV[suite].split()
    code, text, _ = run(argv)
    assert code == 0, text
    given = [a[2:] for a in argv[3:] if a.startswith("--")]
    payload = json.loads(text)
    # every flag it takes shows in its report, and its report shows no other
    assert set(payload) - {"suite", "checks", "pass"} == {_REPORT_KEY[f] for f in given}
    for flag in sorted(set(_REPORT_KEY) - set(given)):
        value = "3" if flag != "prime" else "7"
        code, text, _ = run(argv + [f"--{flag}", value])
        assert (code, text) == (2, f"usage error: --{flag} does not apply to --suite {suite}\n"), flag


def test_verify_flags_once_ignored_are_usage_errors():
    for args in ("dga --genus 2 --N 3", "dga --genus 2 --trials 9 --prime 7",
                 "nonfg --genus 3 --k 2 --seed 5", "lemma-q --genus 2 --k 2 --N 3",
                 "lemma-torus --genus 3 --k 2", "lemma-cohomology --genus 3 --k 5"):
        code, text, _ = run(["verify", "--suite"] + args.split())
        assert code == 2 and "does not apply to --suite" in text, args


def test_verify_all_takes_every_flag_but_k():
    code, text, _ = run(["verify", "--suite", "all", "--genus", "2", "--arity", "3", "--N", "2",
                         "--trials", "2", "--seed", "3", "--prime", "1000003"])
    assert code == 0, text
    by_suite = {r["suite"]: r for r in json.loads(text)["suites"]}
    assert by_suite["lemma-torus"]["n"] == 3 and by_suite["theorem-main"]["N_list"] == [1, 2]
    assert all(r.get("seed", 3) == 3 and r.get("g", 2) == 2 for r in by_suite.values())


def test_N_rejected_outside_snf():
    for argv in (["cover-homology", "--genus", "2", "--k", "2", "--N", "2"],
                 ["cover-homology", "--genus", "2", "--k", "2", "--method", "generic", "--N", "2"],
                 ["cover-homology", "--genus", "2", "--k", "2", "--method", "count", "--N", "2"],
                 ["wedge-homology", "--arity", "4", "--k", "2", "--N", "3"]):
        code, text, _ = run(argv)
        assert code == 2 and "usage error" in text and "--N" in text, argv


def test_each_numeric_flag_has_one_least_value():
    base = ["cover-homology", "--genus", "2", "--k", "2", "--method", "snf"]
    for flag, least, argv in (("k", 0, ["cover-homology", "--genus", "2"]),
                              ("N", 1, base),
                              ("trials", 1, base[:5]),
                              ("prime", 0, base[:5])):
        code, text, _ = run(argv + [f"--{flag}", str(least - 1)])
        assert (code, text) == (2, f"usage error: --{flag} must be >= {least}\n"), flag


def test_betti_rejects_N():
    code, text, _ = run(["betti", "--genus", "2", "--k", "2", "--N", "3"])
    assert code == 2 and "usage error" in text and "--N" in text


def test_betti_rejects_method():
    for method in ("generic", "snf", "count"):
        code, text, _ = run(["betti", "--genus", "2", "--k", "2", "--method", method])
        assert code == 2 and "usage error" in text and "--method" in text, method


def test_verify_rejects_method():
    for method in ("generic", "snf", "count"):
        code, text, _ = run(["verify", "--suite", "dga", "--genus", "2", "--method", method])
        assert code == 2 and "usage error" in text and "--method" in text, method


def test_subcommands_reject_flags_they_do_not_read():
    for argv, flags in ((["betti", "--genus", "2", "--k", "2", "--prime", "7", "--trials", "3",
                          "--seed", "9", "--arity", "4"], ("--prime", "--trials", "--seed", "--arity")),
                        (["cover-homology", "--genus", "2", "--k", "2", "--arity", "3"], ("--arity",)),
                        (["wedge-homology", "--arity", "3", "--k", "2", "--genus", "2"], ("--genus",))):
        code, text, out = run(argv)
        assert (code, out) == (2, None) and text.startswith("usage error: "), argv
        assert all(flag in text for flag in flags), argv


def test_count_method_is_cover_homology_only():
    for argv in (["quotient-homology", "--genus", "2", "--k", "2", "--method", "count"],
                 ["wedge-homology", "--arity", "3", "--k", "2", "--method", "count"]):
        code, text, _ = run(argv)
        assert code == 2 and text.startswith("usage error: ") and "--method" in text, argv
    for argv in (["quotient-homology", "--genus", "2", "--k", "2", "--method", "snf"],
                 ["wedge-homology", "--arity", "3", "--k", "2", "--method", "snf", "--N", "2"]):
        assert run(argv)[0] == 0, argv
    # there is no --threads flag: specialization trials run serially
    for argv in (["betti", "--genus", "2", "--k", "2"],
                 ["wedge-homology", "--arity", "3", "--k", "2", "--seed", "1"]):
        code, text, _ = run(argv + ["--threads", "1"])
        assert code == 2 and text.startswith("usage error: "), argv


def test_homology_method_defaults_to_generic():
    argv = ["cover-homology", "--genus", "2", "--k", "2", "--seed", "1"]
    code, text, _ = run(argv)
    assert code == 0 and json.loads(text)["method"] == "generic-rank"
    assert run(argv + ["--method", "generic"])[1] == text


def test_verify_N1_is_only_the_base():
    code, text, _ = run(["verify", "--suite", "theorem-main", "--genus", "2", "--k", "2",
                         "--N", "1", "--trials", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["N_list"] == [1]
    growth = next(c for c in payload["checks"] if c["name"] == "finite-cover-rank-growth")
    assert growth["detail"] == "no N >= 2 requested"
    _, text, _ = run(["verify", "--suite", "theorem-main", "--genus", "2", "--k", "2",
                      "--N", "3", "--trials", "2"])
    assert json.loads(text)["N_list"] == [1, 3]


def test_formats():
    code, text, _ = run(["betti", "--genus", "1", "--k", "1", "--format", "csv"])
    assert code == 0
    assert text.splitlines()[0] == "degree,rank,torsion"
    assert text.splitlines()[1] == "0,1,"
    code, text, _ = run(["betti", "--genus", "1", "--k", "1", "--format", "text"])
    assert code == 0 and "euler = 0" in text
    code, text, _ = run(["verify", "--suite", "lemma-torus", "--arity", "4", "--k", "2",
                         "--format", "csv", "--seed", "1"])
    assert code == 0
    assert text.splitlines()[0] == "suite,check,pass,detail"


def test_export_text_and_out_file(tmp_path):
    code, text, out = run(["export", "--genus", "1", "--k", "1", "--case", "cover",
                           "--out", str(tmp_path / "c.txt")])
    assert code == 0 and out == str(tmp_path / "c.txt")
    assert text.startswith("SYMPOW-COMPLEX v1 case=cover g=1 k=1")
    code, text, _ = run(["export", "--arity", "2", "--k", "2", "--case", "wedge",
                         "--format", "json"])
    payload = json.loads(text)
    assert payload["case"] == "wedge" and [m["rank"] for m in payload["modules"]] == [1, 2, 1]
    code, text, _ = run(["export", "--genus", "2", "--k", "2", "--case", "q"])
    assert code == 0 and "case=q g=2 k=2" in text.splitlines()[0]


def test_determinism_across_runs():
    argv = ["cover-homology", "--genus", "2", "--k", "2", "--method", "generic",
            "--trials", "4", "--seed", "3"]
    runs = [run(argv)[1] for _ in range(3)]
    assert len(set(runs)) == 1
    argv = ["verify", "--suite", "theorem-main", "--genus", "2", "--k", "2", "--seed", "5"]
    assert run(argv)[1] == run(argv)[1]


def test_console_script_entry_point(tmp_path):
    # cli.main in its own process writes --out files and honors the exit
    # contract; run through the installed `sympow` script when there is one,
    # else through `python -m sympow`; PYTHONPATH leads with this process's
    # sympow location, so the child imports the same sympow
    script = shutil.which("sympow")
    launcher = [script] if script else [sys.executable, "-m", "sympow"]
    source = str(pathlib.Path(sympow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "report.json"
    proc = subprocess.run(
        launcher + ["betti", "--genus", "1", "--k", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert [h["rank"] for h in payload["homology"]] == [1, 2, 2, 2, 1]
    proc = subprocess.run(launcher + ["betti", "--genus", "-3", "--k", "1"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2


def test_unwritable_out_path_is_a_usage_error(tmp_path):
    # exit 1 is reserved for a failed check; a missing directory is a usage error
    out = tmp_path / "missing" / "report.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(sympow.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
    for argv in (["betti", "--genus", "1", "--k", "2"],
                 ["export", "--genus", "1", "--k", "1", "--case", "cover"]):
        proc = subprocess.run([sys.executable, "-m", "sympow", *argv, "--out", str(out)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error: cannot write --out: ") and "Traceback" not in proc.stderr
        assert not out.exists()


def test_cli_import_loads_no_dataclasses_csv_or_typing():
    # start-up: importing the CLI loads neither dataclasses (with inspect, ast,
    # dis and tokenize behind it), nor csv, which only --format csv needs, nor
    # typing; comparing sys.modules before and after the import keeps this
    # valid where site has already loaded one of them
    code = ("import sys; before = set(sys.modules); import sympow.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(sympow.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "sympow.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv", "typing"}


def test_export_goldens():
    # SHA-256 of the complete export text as the element-level builders produced it
    golden = {
        "export --genus 3 --k 3 --case cover":
            "5269e6d5b38e881fecfc469fb84fda0003cd7d2ca29e45d834afdacfe4ee3a2b",
        "export --genus 3 --k 4 --case q":
            "9c1b86f2ac38ea539924832224c57a2fc979f5e0d22f236bf1b602dcd2be7350",
        "export --arity 6 --k 3 --case wedge":
            "e1d024af556e3a7b61d077a2f1c4bff13d9a0104b4d84640cff011c654f55ab5",
        "export --genus 2 --k 2 --case cover --format json":
            "ac487e334ece01cc37cdf0bbdec4ceb1cb3b379949b1388ec4e320055c9457e8",
    }
    for argv, digest in golden.items():
        code, text, _ = run(argv.split())
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


def test_oversized_base_change_exits_two_up_front():
    tracemalloc.start()
    try:
        code, text, _ = run(["cover-homology", "--genus", "3", "--k", "3",
                             "--method", "snf", "--N", "5"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert text == ("usage error: base change of the surface-cover complex at N=5 would build up to "
                    "8,625,000 nonzeros, over the limit of 3,000,000 nonzeros\n")
    assert peak < 5_000_000


@pytest.mark.parametrize("argv,estimate", [
    (["cover-homology", "--genus", "15", "--k", "15"],
     "the cover complex at g=15, k=15 would have 1,777,811,072 cells"),
    (["verify", "--suite", "lemma-cohomology", "--genus", "15"],
     "the lam-complex at g=15, k=30 would have 1,073,741,824 cells"),
])
def test_oversized_build_exits_two_up_front(argv, estimate):
    start = time.process_time()
    code, text, _ = run(argv)
    assert time.process_time() - start < 1.0
    assert code == 2
    assert text == f"usage error: {estimate}, over the limit of 2,000,000 cells\n"


@pytest.mark.parametrize("command", [["betti"], ["cover-homology", "--method", "count"]])
def test_oversized_betti_count_exits_two_up_front(command, monkeypatch):
    start = time.process_time()
    code, text, _ = run(command + ["--genus", "1", "--k", "400001"])
    assert time.process_time() - start < 1.0
    assert code == 2
    assert text == ("usage error: the Betti count at g=1, k=400,001 would list 800,003 degrees, "
                    "over the limit of k=400,000\n")
    monkeypatch.setattr(cli, "MAX_BETTI_K", 5)
    assert run(command + ["--genus", "1", "--k", "5"])[0] == 0
    assert run(command + ["--genus", "1", "--k", "6"])[0] == 2


def test_theorem_main_exits_two_only_where_rank_growth_base_changes():
    # k = 7 > 2g - 2 has no rank-growth check, so no cover is base-changed;
    # at k = 3 rank growth base-changes the N=2 cover, within the nonzero cap
    # at g = 4 and over it at g = 3 with N=5
    code, text, _ = run(["verify", "--suite", "theorem-main", "--genus", "4", "--k", "7", "--N", "2"])
    assert code == 0
    assert [c["name"] for c in json.loads(text)["checks"]] == ["generic-dims-pattern", "euler-scaling"]
    code, text, _ = run(["verify", "--suite", "theorem-main", "--genus", "4", "--k", "3", "--N", "2"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert checks["finite-cover-rank-growth"] == {"name": "finite-cover-rank-growth", "pass": True,
                                                  "detail": "N=2: rank H_3 = 5164 > 64"}
    code, text, _ = run(["verify", "--suite", "theorem-main", "--genus", "3", "--k", "3", "--N", "5"])
    assert code == 2
    assert text == ("usage error: base change of the surface-cover complex at N=5 would build up to "
                    "8,625,000 nonzeros, over the limit of 3,000,000 nonzeros\n")


def test_base_change_refusals_exit_two_before_any_boundary_is_base_changed(monkeypatch):
    # the guard of both integer routes reads term counts only; --N 0 is the parser's
    from sympow.complexes import SparseRingMatrix

    def refuse(M, N):
        raise AssertionError("a boundary was base-changed before the guard")

    monkeypatch.setattr(SparseRingMatrix, "base_change", refuse)
    for argv, error in (("verify --suite theorem-main --genus 5 --k 5",
                         "base change of the surface-cover complex at N=2 would build up to 18,145,280 nonzeros, "
                         "over the limit of 3,000,000 nonzeros"),
                        ("cover-homology --genus 4 --k 4 --method snf --N 3",
                         "base change of the surface-cover complex at N=3 would build up to 21,415,104 nonzeros, "
                         "over the limit of 3,000,000 nonzeros"),
                        ("cover-homology --genus 4 --k 4 --method snf --N 0", "--N must be >= 1")):
        assert run(argv.split())[:2] == (2, f"usage error: {error}\n"), argv


def test_snf_cover_genus3_k2_N2():
    # formerly too slow for the suite under the dense SNF; stdout pinned at the dense SNF
    from sympow.complexes import build_cover_complex
    from sympow.homology import integer_free_ranks

    code, text, _ = run(["cover-homology", "--genus", "3", "--k", "2", "--method", "snf", "--N", "2"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "03ed2bae70efc74ead3a9f939aa835518b9290b83caeb311d881bb6475a059b6"
    payload = json.loads(text)
    ranks = [h["rank"] for h in payload["homology"]]
    assert ranks == integer_free_ranks(build_cover_complex(3, 2), 2) == [1, 6, 394, 6, 1]
    assert all(h["torsion"] == [] for h in payload["homology"])


def test_rank_flags_rejected_off_the_generic_route():
    # snf and count use no prime, trials or seed; an explicit one is a usage error
    routes = (["cover-homology", "--genus", "1", "--k", "1", "--method", "snf"],
              ["cover-homology", "--genus", "1", "--k", "1", "--method", "count"],
              ["wedge-homology", "--arity", "3", "--k", "2", "--method", "snf"],
              ["quotient-homology", "--genus", "1", "--k", "1", "--method", "snf"])
    for route in routes:
        assert run(route)[0] == 0, route
        for flag, value in (("--prime", "7"), ("--trials", "9"), ("--seed", "0")):
            code, text, out = run(route + [flag, value])
            assert (code, out) == (2, None) and text.startswith("usage error: ") and flag in text, \
                (route, flag)


def test_cached_parser_keeps_no_state_between_runs():
    argv = ["cover-homology", "--genus", "2", "--k", "2"]
    assert json.loads(run(argv + ["--seed", "3", "--trials", "2"])[1])["seed"] == 3
    payload = json.loads(run(argv)[1])
    assert (payload["seed"], payload["trials"], payload["prime"]) == (0, 5, 1000003)
    assert run(argv + ["--bogus"])[0] == 2
    assert run(["verify", "--suite", "dga", "--genus", "2", "--k", "2", "--format", "text"])[0] == 0
    assert json.loads(run(argv)[1]) == payload
    assert cli._parser() is cli._parser()
