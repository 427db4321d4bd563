"""Output checker: every job's report against outputs pinned from the seed
commit (``expected.json``) and against goldens known by value.

* Homology and export reports must be byte-identical to the pinned output
  (compared by SHA-256 and length) when the job ran at the CLI's default
  seed or takes no seed.  At any other seed the ``homology`` and ``euler``
  fields must match.
* ``verify`` reports (``--format json``) must say ``"pass": true`` and
  contain every pinned check name of every pinned suite, each passing.
  Extra checks are allowed.
* Goldens: the Euler characteristic of every finite or generic cover,
  ``N^{2g} * (-1)^k * binom(2g-2, k)`` (Macdonald), the concentration of
  generic homology in one degree (main theorem, lemma-torus, lemma-q), and
  the known finite-cover rank vectors below.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED, flag_value

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Rank vectors known independently of the pinned outputs.
GOLDEN_RANKS = {
    "cover-homology --genus 2 --k 2 --method snf --N 2": [1, 4, 22, 4, 1],
    "cover-homology --genus 3 --k 2 --method snf --N 2": [1, 6, 394, 6, 1],
}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _golden_failure(job, report: dict) -> str | None:
    """Check a homology report against values known by formula."""
    argv = list(job.argv)
    ranks = [e["rank"] for e in report["homology"]]
    golden = GOLDEN_RANKS.get(" ".join(argv))
    if golden is not None and ranks != golden:
        return f"ranks {ranks} != golden {golden}"
    k = int(flag_value(argv, "--k"))
    snf = flag_value(argv, "--method") == "snf"
    if argv[0] == "cover-homology":
        g = int(flag_value(argv, "--genus"))
        N = int(flag_value(argv, "--N", 1)) if snf else 1
        chi = N ** (2 * g) * (-1) ** k * math.comb(2 * g - 2, k)
        if report["euler"] != chi:
            return f"euler {report['euler']} != {chi}"
        if not snf and k <= 2 * g:
            want = [math.comb(2 * g - 2, k) if i == k else 0 for i in range(len(ranks))]
            if ranks != want:
                return f"generic ranks {ranks} != {want}"
    elif not snf and argv[0] == "wedge-homology":
        n = int(flag_value(argv, "--arity"))
        if any(ranks[:k]) or ranks[k] != math.comb(n - 1, k):
            return f"wedge ranks {ranks}: expected binom({n - 1},{k}) at degree {k} only"
    elif not snf and argv[0] == "quotient-homology":
        g = int(flag_value(argv, "--genus"))
        if any(ranks[:-1]) or ranks[-1] != math.comb(2 * g - 1, k):
            return f"quotient ranks {ranks}: expected binom({2 * g - 1},{k}) at the top only"
    return None


def check_job(job, seed: int | None, code: int, text: str, expected: dict) -> str | None:
    """Return why ``job``'s output is wrong, or None if it is right.

    ``seed`` is the ``--seed`` the job ran with, or None if it took none.
    """
    if code != 0:
        return f"exit code {code}: {text.strip()[:200]}"
    pinned = expected.get(job.job_id)
    if pinned is None:
        return "no pinned output"
    command = job.argv[0]
    if command == "verify":
        payload = json.loads(text)
        if payload.get("pass") is not True:
            return "verify report does not pass"
        suites = {s["suite"]: s for s in payload.get("suites", [payload])}
        for suite, names in pinned["checks"].items():
            if suite not in suites:
                return f"suite {suite} missing"
            passed = {c["name"]: c["pass"] for c in suites[suite]["checks"]}
            for name in names:
                if passed.get(name) is not True:
                    return f"check {suite}/{name} missing or failing"
        return None
    if digest(text) == pinned["digest"]:
        return _golden_failure(job, json.loads(text)) if command != "export" else None
    if command == "export" or seed in (None, DEFAULT_SEED):
        return "output differs from the pinned bytes"
    report = json.loads(text)
    for key in ("homology", "euler"):
        if report[key] != pinned[key]:
            return f"{key} {report[key]} != pinned {pinned[key]}"
    return _golden_failure(job, report)
