"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are exact (integer equality); the two runtime budgets
are wall-clock bounds on the stated workloads.
"""

import math
import time

import sympow.dga as dga
from sympow.cli import run as cli_run
from sympow.complexes import build_cover_complex
from sympow.dga import (
    boundary,
    dga_mul,
    gamma_power,
    monomial_elem,
    surface_context,
)
from sympow.homology import (
    betti_symmetric_power,
    euler_characteristic,
    generic_homology,
    integer_homology,
)
from sympow.verify import (
    admissible_nonfg_choices,
    verify_dga_suite,
    verify_lemma_cohomology,
    verify_lemma_q,
    verify_lemma_torus,
    verify_nonfg_witness,
    verify_theorem_main,
)
from oracles import gf_betti

# regression-pinned golden number: free rank of H_2 of the N=2 cover at (g,k)=(2,2),
# first computed by the SNF engine (criterion 8b requires only > 7)
GOLDEN_H2_RANK_N2_G2K2 = 22


def _report(criterion, passed, detail=""):
    line = f"[criterion-{criterion}] {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


def test_criterion_01_dga_soundness():
    t0 = time.monotonic()
    ok = True
    for g in (1, 2, 3):
        rep = verify_dga_suite(g, 6, seed=7)
        ok = ok and rep.passed
    # k-fold divided powers up to 6 are part of the suite; assert once more explicitly
    c1 = surface_context(1)
    power = monomial_elem(c1, 0, 0)
    for j in range(1, 7):
        power = dga_mul(power, gamma_power(c1, 1))
        ok = ok and power == math.factorial(j) * gamma_power(c1, j)
    elapsed = time.monotonic() - t0
    _report(1, ok and elapsed < 10.0,
            f"dga suites at g<=3, weight<=6, 100 random elements each; {elapsed:.1f}s")


def test_criterion_02_betti_oracle_agreement():
    ok = True
    for g in range(1, 5):
        for k in range(0, 7):
            expected = gf_betti(g, k)
            ok = ok and betti_symmetric_power(g, k) == expected
            rep = integer_homology(build_cover_complex(g, k), 1)
            ok = ok and rep.ranks() == expected
            ok = ok and all(e.torsion == () for e in rep.entries)
    _report(2, ok, "betti == generating-function coefficients == N=1 homology, g<=4, k<=6")


def test_criterion_03_euler_characteristic():
    ok = True
    for g in range(1, 5):
        for k in range(0, 2 * g - 1):
            ok = ok and euler_characteristic(g, k) == (-1) ** k * math.comb(2 * g - 2, k)
    rep = integer_homology(build_cover_complex(2, 2), 2)
    ok = ok and rep.euler == 16 == 2 ** 4 * euler_characteristic(2, 2)
    _report(3, ok, "chi = (-1)^k binom(2g-2,k) for k<=2g-2, g<=4; chi(2-cover) = 16")


def test_criterion_04_lemma_torus_shadow():
    ok = True
    for seed in (1, 2, 3):
        for n in range(2, 7):
            for k in range(2, n + 1):
                rep = verify_lemma_torus(n, k, trials=5, seed=seed, prime=2147483647)
                ok = ok and rep.passed
    _report(4, ok, "wedge homology vanishes below top, dim K_k = binom(n-1,k), "
                   "2<=k<=n<=6, seeds {1,2,3}, prime 2147483647")


def test_criterion_05_lemma_q_shadow():
    ok = True
    for g in (1, 2, 3):
        for k in range(1, 2 * g + 1):
            rep = verify_lemma_q(g, k, trials=5, seed=1, prime=2147483647)
            ok = ok and rep.passed
    _report(5, ok, "truncated lam-complex cohomology concentrated in top, g<=3, k<=2g")


def test_criterion_06_lemma_cohomology():
    rep2 = verify_lemma_cohomology(2, trials=5, seed=1, prime=2147483647)
    rep3 = verify_lemma_cohomology(3, trials=3, seed=1, prime=2147483647)
    ok = rep2.passed and rep3.passed
    detail2 = next(c.detail for c in rep2.checks if c.name == "lambda-sigma-nonzero-finite-cover")
    detail3 = next(c.detail for c in rep3.checks if c.name == "lambda-sigma-nonzero-finite-cover")
    ok = ok and "position 3" in detail2 and "position 5" not in detail2
    ok = ok and "position 3" in detail3 and "position 5" in detail3
    # symbolic d(sigma_m) = -lam sigma_{m-1} for all m <= g <= 4
    from sympow.dga import lambda_element, sigma_element, surface_context

    for g in range(1, 5):
        ctx = surface_context(g)
        lam = lambda_element(ctx)
        for m in range(1, g + 1):
            ok = ok and boundary(sigma_element(ctx, m)) == -dga_mul(lam, sigma_element(ctx, m - 1))
    _report(6, ok, "classes at position 3 (g=2) and 3,5 (g=3) witnessed by lam*sigma_m "
                   "(cycle + N=2-cover nontriviality); d(sigma_m) = -lam*sigma_(m-1) for m<=g<=4")


def test_criterion_07_theorem_main_shadow():
    t0 = time.monotonic()
    ok = generic_homology(build_cover_complex(2, 2), 5, 1, 2147483647).ranks() == [0, 0, 1, 0, 0]
    for g, k in ((1, 2), (2, 4), (2, 5)):
        dims = generic_homology(build_cover_complex(g, k), 5, 1, 2147483647).ranks()
        ok = ok and all(d == 0 for d in dims)
    elapsed = time.monotonic() - t0
    _report(7, ok and elapsed < 60.0,
            f"cover(2,2) generic dims (0,0,1,0,0); (1,2),(2,4),(2,5) vanish; {elapsed:.1f}s")


def test_criterion_08_nonfg_witness():
    ok = True
    for g, k in ((2, 2), (3, 2), (3, 3), (3, 4)):
        ctx = surface_context(g)
        choices = admissible_nonfg_choices(g, k)
        ok = ok and len(choices) > 0
        for es, fs in choices:
            ok = ok and verify_nonfg_witness(ctx, k, es, fs).passed
    rep = integer_homology(build_cover_complex(2, 2), 2)
    rank_h2 = rep.entries[2].rank
    ok = ok and rank_h2 > 7 and rank_h2 == GOLDEN_H2_RANK_N2_G2K2
    _report(8, ok, f"F(lam*d(a)) closed form at all admissible choices; "
                   f"rank H_2(N=2 cover) = {rank_h2} > 7 (golden {GOLDEN_H2_RANK_N2_G2K2})")


def test_criterion_09_mutation_sensitivity(monkeypatch):
    orig = dga._ext_boundary_coeff

    def flipped(ctx, i):
        if ctx.case == "surface" and i == ctx.size:
            return ctx.ring.gen(i) - ctx.ring.one()
        return orig(ctx, i)

    monkeypatch.setattr(dga, "_ext_boundary_coeff", flipped)
    sign_mutant_caught = not verify_dga_suite(2, 3, seed=7).passed
    monkeypatch.setattr(dga, "_ext_boundary_coeff", orig)

    monkeypatch.setattr(dga, "_gamma_product_coeff", lambda a, b: 1)
    binom_mutant_caught = not verify_dga_suite(2, 3, seed=7).passed
    monkeypatch.setattr(dga, "_gamma_product_coeff", lambda a, b: math.comb(a + b, a))

    _report(9, sign_mutant_caught and binom_mutant_caught,
            "sign-flip of d(f1) and binomial->1 divided-power mutants both break suite 1")


def test_criterion_10_determinism():
    commands = [
        ["cover-homology", "--genus", "2", "--k", "2", "--method", "generic",
         "--trials", "5", "--seed", "1"],
        ["verify", "--suite", "lemma-cohomology", "--genus", "2", "--seed", "7"],
        ["export", "--genus", "2", "--k", "2", "--case", "cover"],
        ["betti", "--genus", "3", "--k", "4", "--format", "csv"],
    ]
    ok = True
    for argv in commands:
        outputs = {cli_run(argv)[1] for _ in range(2)}
        ok = ok and len(outputs) == 1
    _report(10, ok, "byte-identical CLI reports across repeat runs")
