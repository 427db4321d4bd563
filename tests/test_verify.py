import hashlib
import itertools
import json
import math
import random
import time

import pytest

import sympow.complexes as complexes
import sympow.dga as dga
import sympow.verify as verify
from sympow.cli import run
from sympow.complexes import SparseRingMatrix, exterior_boundary_matrix, lambda_matrix
from sympow.dga import (
    boundary,
    dga_mul,
    ext_gen,
    lambda_element,
    monomial_elem,
    sigma_element,
    surface_context,
    wedge_context,
)
from sympow.groupring import surface_ring
from sympow.homology import (
    VERIFY_PRIME,
    _trial_specialization,
    betti_symmetric_power,
    mod2_apply,
    mod2_in_span,
    mod2_nullspace,
    modp_matvec,
    modp_nullspace,
    modp_rank_of_columns,
)
from sympow.verify import (
    _kernel_quotient_dim,
    admissible_nonfg_choices,
    evaluate_F,
    verify_dga_suite,
    verify_lemma_cohomology,
    verify_lemma_q,
    verify_lemma_torus,
    verify_mattuck,
    verify_nonfg_all_choices,
    verify_nonfg_witness,
    verify_theorem_main,
)
from oracles import (
    brute_force_lambda_ker_contains,
    lambda_ker_contains_mod2,
    mattuck_pattern,
    mod2_columns,
    random_laurent_matrix,
)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_dga_suite_passes():
    rep = verify_dga_suite(2, 3, seed=7)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    rep = verify_dga_suite(1, 6, seed=7)
    assert rep.passed


def test_dga_suite_refuses_more_monomials_than_a_build_may_have():
    # the suite enumerates the cover complex's monomials, under the builders' cap
    with pytest.raises(ValueError, match="the dga suite's monomials at g=15, k=15 would have "
                                         "1,777,811,072 cells, over the limit of 2,000,000 cells"):
        verify_dga_suite(15, 15)
    assert verify_dga_suite(13, 1).passed


def test_dga_suite_detects_sign_flip_mutant(monkeypatch):
    orig = dga._ext_boundary_coeff

    def flipped(ctx, i):
        if ctx.case == "surface" and i == ctx.size:  # the first f-generator
            return ctx.ring.gen(i) - ctx.ring.one()
        return orig(ctx, i)

    monkeypatch.setattr(dga, "_ext_boundary_coeff", flipped)
    rep = verify_dga_suite(2, 3, seed=7)
    assert not rep.passed
    failing = [c.name for c in rep.checks if not c.passed]
    assert "boundary-squared-monomials" in failing
    # the first counterexample, in the order the monomials are enumerated
    assert _check(rep, "boundary-squared-monomials").detail == "d(d(m)) != 0 for m = g^(1)"


def test_dga_suite_detects_divided_power_mutant(monkeypatch):
    monkeypatch.setattr(dga, "_gamma_product_coeff", lambda a, b: 1)
    rep = verify_dga_suite(2, 3, seed=7)
    assert not rep.passed
    failing = [c.name for c in rep.checks if not c.passed]
    assert "divided-power-products" in failing or "graded-leibniz" in failing


@pytest.mark.parametrize("suite", [
    lambda: verify_dga_suite(2, 3),
    lambda: verify_theorem_main(2, 2, N_list=(1, 2)),
    lambda: verify_lemma_cohomology(3),
    lambda: verify_nonfg_all_choices(3, 2),
], ids=["dga", "theorem-main", "lemma-cohomology", "nonfg"])
def test_dga_suite_builds_one_coefficient_table(monkeypatch, suite):
    # one table per suite: the suite makes one context and hands it to every
    # element, map and witness, so each generator's boundary is read once
    calls = []
    orig = dga._ext_boundary_coeff

    def counting(ctx, i):
        calls.append((ctx, i))
        return orig(ctx, i)

    monkeypatch.setattr(dga, "_ext_boundary_coeff", counting)
    assert suite().passed
    contexts = {id(ctx): ctx for ctx, _ in calls}  # holds every context, so no id is reused
    assert len(contexts) == 1
    assert sorted((id(ctx), i) for ctx, i in calls) == [(c, i) for c, ctx in contexts.items()
                                                        for i in range(ctx.ngens)]


# First and last of the 350 random elements verify_dga_suite(2, 3, seed=7)
# draws, and the SHA-256 of all of them joined by newlines, in draw order.
DGA_SEED7_FIRST = ("(2*x1*x2^-2*y1^-1*y2^-2 - 2*x1*x2^-2*y1^2*y2^-2) * e1*g^(1) + "
                   "(-1*x1^-2*x2^-2*y1^2*y2^-2 - 3*x1^2*x2^-2*y1^2*y2^-1) * e2*g^(2)")
DGA_SEED7_LAST = ("(-2*y1^-2 + 1*x1*x2^-2*y1*y2^-1) * e2 + (1*x1^-1*x2^-2*y1^2*y2^-2 - "
                  "2*x1*x2*y1^-2*y2^-2 - 2*x1*x2^2*y1^2*y2^-2) * f2")
DGA_SEED7_SHA256 = "236ee151a0b4043b87c3792a1ef571802931b9c5645e60a30e8c18405f3b56cd"


def test_dga_suite_random_draws_are_pinned(monkeypatch):
    # _random_element is the suite's one draw helper: it also makes each
    # homogeneous element, from the degree list the suite picks
    draws = []
    orig = verify._random_element

    def recording(*args):
        a = orig(*args)
        draws.append(a.canonical_str())
        return a

    monkeypatch.setattr(verify, "_random_element", recording)
    assert verify_dga_suite(2, 3, seed=7).passed
    assert len(draws) == 350
    assert draws[0] == DGA_SEED7_FIRST
    assert draws[-1] == DGA_SEED7_LAST
    assert hashlib.sha256("\n".join(draws).encode()).hexdigest() == DGA_SEED7_SHA256


def test_lemma_torus():
    rep = verify_lemma_torus(4, 2, trials=3, seed=1)
    assert rep.passed
    assert "dim K_2 = 3" in _check(rep, "top-kernel-dimension").detail
    assert verify_lemma_torus(4, 4, trials=3, seed=1).passed
    assert verify_lemma_torus(2, 2, trials=3, seed=1).passed
    with pytest.raises(ValueError):
        verify_lemma_torus(4, 1)
    with pytest.raises(ValueError):
        verify_lemma_torus(4, 5)


def test_lemma_q():
    assert verify_lemma_q(1, 2, trials=3, seed=1).passed
    assert verify_lemma_q(2, 3, trials=3, seed=1).passed
    assert verify_lemma_q(2, 4, trials=3, seed=1).passed


def test_lemma_cohomology_g2():
    rep = verify_lemma_cohomology(2, trials=3, seed=1)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert "positions [3]" in _check(rep, "lambda-sigma-cocycles").detail
    assert "position 3" in _check(rep, "lambda-sigma-nonzero-finite-cover").detail
    assert _check(rep, "lambda-sigma-kernel-specialized").detail == (
        "next lam-map times lam*sigma_m is 0, an exact product over Z[pi], for m = 1..1")
    assert _check(rep, "lambda-complex-integral-shadow").detail == (
        "N=1: lam augments to 0, so every boundary is zero and the check reads the cell counts binom(4,i); "
        "N=2: SNF free of rank binom(4,i), no torsion")


def test_lemma_cohomology_g3():
    rep = verify_lemma_cohomology(3, trials=2, seed=1)
    assert rep.passed
    assert "positions [3, 5]" in _check(rep, "lambda-sigma-cocycles").detail
    assert _check(rep, "lambda-sigma-kernel-specialized").detail == (
        "next lam-map times lam*sigma_m is 0, an exact product over Z[pi], for m = 1..2")
    assert _check(rep, "lambda-complex-integral-shadow").detail == (
        "only N=1: lam augments to 0, so every boundary is zero and the check reads the cell counts binom(6,i)")
    with pytest.raises(ValueError):
        verify_lemma_cohomology(1)


@pytest.mark.parametrize("g", [2, 3])
def test_lemma_cohomology_kernel_check_catches_a_flipped_lambda_matrix(monkeypatch, g):
    # the matrix rule alone negates generator 0's lam coefficient; lam*sigma_m
    # still comes from dga_mul with the true lam, so only the product with
    # the built lam-map sees the mutant
    def flipped(sources, table, index, cols):
        (c, neg), *rest = table[1]
        dga.lambda_image(sources, (table[0], ((neg, c), *rest)), index, cols)

    monkeypatch.setattr(complexes, "lambda_image", flipped)
    rep = verify_lemma_cohomology(g, trials=2, seed=1)
    assert _check(rep, "lambda-sigma-cocycles").passed
    kernel = _check(rep, "lambda-sigma-kernel-specialized")
    assert not kernel.passed and kernel.detail == "lam*sigma_1 not in ker of next lam-map over Z[pi]"


def test_lemma_cohomology_integral_shadow_catches_a_nonaugmented_lambda(monkeypatch):
    # lam's first coefficient 2 - y1 augments to 1, so the N=1 boundaries are
    # no longer zero and the homology leaves the cell counts binom(2g, i)
    original = dga._lambda_coeff

    def shifted(ctx, i):
        c = original(ctx, i)
        return c + ctx.ring.one() if i == 0 else c

    monkeypatch.setattr(dga, "_lambda_coeff", shifted)
    for g in (2, 3):
        shadow = _check(verify_lemma_cohomology(g, trials=2, seed=1), "lambda-complex-integral-shadow")
        assert not shadow.passed and shadow.detail == "N=1: lam coefficient of e1 augments to 1", shadow.detail


@pytest.mark.parametrize("g, orders", [(2, [2]), (3, []), (4, [])])
def test_lemma_cohomology_base_changes_only_at_genus_two(monkeypatch, g, orders):
    # the N=1 shadow reads the table; only g=2 base-changes, at N=2
    calls = []
    orig = verify.base_change

    def counting(c, N):
        calls.append(N)
        return orig(c, N)

    monkeypatch.setattr(verify, "base_change", counting)
    shadow = _check(verify_lemma_cohomology(g, trials=2, seed=1), "lambda-complex-integral-shadow")
    assert calls == orders
    n1 = f"N=1: lam augments to 0, so every boundary is zero and the check reads the cell counts binom({2 * g},i)"
    assert shadow.passed and shadow.detail == (
        f"{n1}; N=2: SNF free of rank binom({2 * g},i), no torsion" if g == 2 else f"only {n1}")


def test_lemma_cohomology_kernel_check_reads_no_rank_flag():
    results = {(c.passed, c.detail)
               for trials, seed, prime in itertools.product((1, 5), (0, 7), (1000003, 2147483647))
               for c in verify_lemma_cohomology(2, trials=trials, seed=seed, prime=prime).checks
               if c.name == "lambda-sigma-kernel-specialized"}
    assert results == {(True, "next lam-map times lam*sigma_m is 0, an exact product over Z[pi], for m = 1..1")}


@pytest.mark.parametrize("g", [5, 6, 7])
def test_lemma_cohomology_runs_past_genus_four(g):
    # the witness over F_2[pi]/I^2 has blocks of 1 + 2g, so no genus is refused
    code, text, _ = run(["verify", "--suite", "lemma-cohomology", "--genus", str(g)])
    assert code == 0, text
    payload = json.loads(text)
    assert payload["pass"] and all(c["pass"] for c in payload["checks"])
    detail = next(c["detail"] for c in payload["checks"] if c["name"] == "lambda-sigma-nonzero-finite-cover")
    assert [f"position {2 * m + 1}" in detail for m in range(1, g + 1)] == [True] * (g - 1) + [False]


def _nullspace_route(g, m):
    """The witness before the stacked test: a basis of ker d_2m mod 2 on the N=2
    cover, its lam-images, and lam applied to sigma_m placed at exponent 0."""
    j, blocks = 2 * m, 4 ** g
    ctx = surface_context(g)
    d_cols, _ = mod2_columns(exterior_boundary_matrix(ctx, j), 2)
    lam_cols, _ = mod2_columns(lambda_matrix(ctx, j), 2)
    ker = mod2_nullspace(d_cols, len(d_cols))
    index = {mono: i for i, mono in enumerate(complexes._exterior_basis(ctx, j))}
    sigma_bits = sum(1 << (index[mono] * blocks) for mono in sigma_element(ctx, m).terms)
    images = [mod2_apply(lam_cols, v) for v in ker]
    return ker, lam_cols, images, mod2_apply(lam_cols, sigma_bits)


def _column(ring, basis, elem):
    """``elem`` as a one-column matrix over ``basis``."""
    index = {mono: i for i, mono in enumerate(basis)}
    return SparseRingMatrix(ring, len(basis), 1, {(index[mono], 0): c for mono, c in elem.terms.items()})


def _bits_as_column(ring, rows, bits):
    """A one-column matrix whose N=2 base change has the bitset ``bits`` as column 0:
    bit ``r*2^n + b`` becomes the term ``x^e`` of row r, ``e`` the binary digits of b."""
    n, terms = ring.nvars, {}
    while bits:
        pos = bits.bit_length() - 1
        bits ^= 1 << pos
        r, b = divmod(pos, 2 ** n)
        terms.setdefault(r, {})[tuple((b >> (n - 1 - i)) & 1 for i in range(n))] = 1
    return SparseRingMatrix(ring, rows, 1, {(r, 0): ring.from_terms(t) for r, t in terms.items()})


@pytest.mark.parametrize("g", [2, 3, 4])
def test_stacked_witness_matches_the_nullspace_route(g):
    # the bitset witness on the N=2 cover (oracle), its nullspace route, and the
    # library's span test over F_2[pi]/I^2 agree on three targets per class
    ctx = surface_context(g)
    lam = lambda_element(ctx)
    rng = random.Random(g)
    for m in range(1, g):
        j = 2 * m
        d, lam_j = exterior_boundary_matrix(ctx, j), lambda_matrix(ctx, j)
        ker, lam_cols, images, old_target = _nullspace_route(g, m)
        cls = _column(ctx.ring, complexes._exterior_basis(ctx, j + 1), dga_mul(lam, sigma_element(ctx, m)))
        assert mod2_columns(cls, 2)[0][0] == old_target, (g, m)
        assert not mod2_in_span(images, old_target), (g, m)
        assert not lambda_ker_contains_mod2(d, lam_j, cls), (g, m)
        assert not verify._lambda_ker_contains(d, lam_j, cls), (g, m)
        # a planted lam*v with v in ker d (mod 2, on the cover) is in the span,
        # and adding it to lam*sigma_m keeps the class outside.  Over F_2[pi]/I^2
        # the entries of d and lam lie in I, and lam*ker(d_2m) vanishes there, so
        # the span test at these matrices reduces to lam*sigma_m != 0 mod I^2;
        # test_lambda_ker_contains_matches_brute_force covers nonzero spans
        v = 0
        while not mod2_apply(lam_cols, v):
            v = 0
            for w in rng.sample(ker, min(3, len(ker))):
                v ^= w
        planted = lam_j.compose(_bits_as_column(ctx.ring, d.cols, v))
        assert mod2_columns(planted, 2)[0][0] == mod2_apply(lam_cols, v)
        assert lambda_ker_contains_mod2(d, lam_j, planted), (g, m)
        assert verify._lambda_ker_contains(d, lam_j, planted), (g, m)
        shifted = _bits_as_column(ctx.ring, cls.rows, old_target ^ mod2_apply(lam_cols, v))
        assert not lambda_ker_contains_mod2(d, lam_j, shifted), (g, m)
        assert not verify._lambda_ker_contains(d, lam_j, shifted), (g, m)


def _brute_force_cases(d_rows=1, cols=2, seed=11):
    """(trial, d, lam, target): random Laurent matrices over two variables, where
    lam*ker d over F_2[pi]/I^2 is often nonzero; the target is random or lam*w,
    and d is zero at times."""
    ring = surface_ring(1)
    rng = random.Random(seed)
    for trial in range(60):
        d = random_laurent_matrix(ring, d_rows, cols, rng, density=0.0 if trial % 3 == 0 else 0.6)
        lam = random_laurent_matrix(ring, 2, cols, rng)
        w = random_laurent_matrix(ring, cols, 1, rng, density=1.0)
        target = lam.compose(w) if trial % 2 else random_laurent_matrix(ring, 2, 1, rng)
        yield trial, d, lam, target


def test_lambda_ker_contains_matches_brute_force():
    # in the second set d has more rows than columns, so lam's rows overlap
    # d's unless they are shifted past every row of d
    for shape, cases in (((1, 2), _brute_force_cases()), ((3, 1), _brute_force_cases(3, 1, seed=12))):
        answers = []
        for trial, d, lam, target in cases:
            expected = brute_force_lambda_ker_contains(d, lam, target)
            assert verify._lambda_ker_contains(d, lam, target) == expected, (shape, trial)
            answers.append(expected)
        assert answers.count(True) >= 10 and answers.count(False) >= 10, shape


def test_lambda_ker_contains_needs_every_block_column(monkeypatch):
    # a witness that keeps only block column 0 of each source, the image of 1,
    # is right only when every entry augments to 0, as in lemma-cohomology; on
    # these matrices it must disagree with the brute force
    first_order_columns = SparseRingMatrix.first_order_columns

    def column_zero_only(M):
        bs = 1 + M.ring.nvars
        return [col if i % bs == 0 else {} for i, col in enumerate(first_order_columns(M))]

    monkeypatch.setattr(SparseRingMatrix, "first_order_columns", column_zero_only)
    wrong = [trial for trial, d, lam, target in _brute_force_cases()
             if verify._lambda_ker_contains(d, lam, target) != brute_force_lambda_ker_contains(d, lam, target)]
    assert wrong


def _nullspace_kernel_quotient_dim(ctx, k, spec):
    """dim K_k - dim lam*K_(k-1) through explicit kernel bases and their lam-images."""
    p = spec.prime
    dim_kk = len(modp_nullspace(exterior_boundary_matrix(ctx, k).specialize(spec), p))
    kbasis = modp_nullspace(exterior_boundary_matrix(ctx, k - 1).specialize(spec), p)
    lam_mat = lambda_matrix(ctx, k - 1).specialize(spec)
    return dim_kk - modp_rank_of_columns([modp_matvec(lam_mat, v, p) for v in kbasis], p)


def test_kernel_quotient_dim_matches_nullspace_route():
    for g in (1, 2, 3):
        ctx = surface_context(g)
        for k in range(2, 2 * g + 1):
            maps = (exterior_boundary_matrix(ctx, k), exterior_boundary_matrix(ctx, k - 1), lambda_matrix(ctx, k - 1))
            for prime in (VERIFY_PRIME, 3, 5):
                for seed in (0, 1, 7):
                    for t in range(3):
                        spec = _trial_specialization(ctx.ring, prime, seed, t)
                        assert _kernel_quotient_dim(*maps, spec) == _nullspace_kernel_quotient_dim(ctx, k, spec), \
                            (g, k, prime, seed, t)


def test_theorem_main_g2k2():
    rep = verify_theorem_main(2, 2, trials=3, seed=1, N_list=(1, 2))
    assert rep.passed
    assert "rank H_2 = 22 > 7" in _check(rep, "finite-cover-rank-growth").detail


def test_theorem_main_all_z_cases():
    for g, k in ((1, 2), (2, 4), (2, 5)):
        rep = verify_theorem_main(g, k, trials=3, seed=1, N_list=(1,))
        assert rep.passed, (g, k, [c for c in rep.checks if not c.passed])
        dims_detail = _check(rep, "generic-dims-pattern").detail
        assert "expected [0" in dims_detail


def test_theorem_main_above_2g_expects_zero_without_wedge_maps(monkeypatch):
    calls = []
    orig = verify.exterior_boundary_matrix

    def counting(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(verify, "exterior_boundary_matrix", counting)
    rep = verify_theorem_main(2, 5, trials=3, seed=1, N_list=(1,))
    assert rep.passed
    assert _check(rep, "generic-dims-pattern").detail == (
        f"generic dims {[0] * 11}, expected {[0] * 11} "
        "(k > 2g = 4: the complex is exact, so 0 is expected in every degree)")
    assert not calls


@pytest.mark.parametrize("g,k,N_list,base_changed", [
    (2, 3, (1, 2, 3), []),  # k outside 2..2g-2: no rank-growth check
    (2, 2, (1,), []),
    (2, 2, (1, 2), [2]),
])
def test_theorem_main_base_changes_only_for_rank_growth(monkeypatch, g, k, N_list, base_changed):
    # euler-scaling reads the cover's cell counts; only rank growth ranks a cover
    calls = []
    orig = verify.base_change

    def counting(c, N):
        calls.append(N)
        return orig(c, N)

    monkeypatch.setattr(verify, "base_change", counting)
    rep = verify_theorem_main(g, k, trials=3, seed=1, N_list=N_list)
    assert rep.passed
    assert _check(rep, "euler-scaling").detail == f"chi(N) = N^{2 * g} * {(-1) ** k * math.comb(2 * g - 2, k)} " \
                                                   f"for N in {list(N_list)}"
    assert calls == base_changed
    with pytest.raises(ValueError, match="N must be >= 1"):
        verify_theorem_main(g, k, trials=1, N_list=(1, 0))


def test_theorem_main_euler_scaling_fails_on_a_wrong_chi(monkeypatch):
    orig = verify.euler_characteristic
    monkeypatch.setattr(verify, "euler_characteristic", lambda g, k: orig(g, k) + 1)
    rep = verify_theorem_main(2, 2, trials=3, seed=1, N_list=(1, 2))
    euler = _check(rep, "euler-scaling")
    assert not euler.passed and euler.detail == "N=1: euler 1 != 1 * 2"
    assert _check(rep, "finite-cover-rank-growth").passed
    rep = verify_theorem_main(2, 3, trials=3, seed=1, N_list=(2, 3))
    assert _check(rep, "euler-scaling").detail == "N=2: euler 0 != 16 * 1"


@pytest.mark.parametrize("g,k,top_dim", [(2, 3, 0), (3, 3, 4), (3, 2, 6)])
def test_theorem_main_middle_range(g, k, top_dim):
    rep = verify_theorem_main(g, k, trials=3, seed=1, N_list=(1,))
    assert rep.passed
    assert f"dims [0, 0" in _check(rep, "generic-dims-pattern").detail
    if top_dim:
        assert f", {top_dim}," in _check(rep, "generic-dims-pattern").detail


def test_mattuck():
    assert verify_mattuck(2, 4, trials=2, seed=1).passed
    assert verify_mattuck(1, 2, trials=2, seed=1).passed
    with pytest.raises(ValueError):
        verify_mattuck(2, 3)


def test_mattuck_pattern_matches_the_per_degree_oracle():
    # the pattern is summed over exterior sizes j <= 2g and s <= k - g, not over
    # betti_symmetric_power's cells; its detail must read as the per-degree loop's
    for g in range(1, 4):
        for k in range(2 * g, 2 * g + 6):
            detail = _check(verify_mattuck(g, k, trials=1), "torus-projective-pattern").detail
            betti = betti_symmetric_power(g, k)
            assert detail == f"betti {betti} vs T^(2g) x CP^(k-g) pattern {mattuck_pattern(g, k)}"


def test_mattuck_takes_linear_time_in_k():
    start = time.process_time()
    report = verify_mattuck(1, 4000)
    assert time.process_time() - start < 1.0
    assert report.passed


def test_evaluate_F_basics():
    ctx = surface_context(2)
    one = monomial_elem(ctx, 0, 0)
    assert evaluate_F(one) == one
    # positive x1 exponents die, others evaluate to 1
    elem = monomial_elem(ctx, 0, 0, ctx.ring.gen(0))  # x1
    assert not evaluate_F(elem)
    elem = monomial_elem(ctx, 0, 0, ctx.ring.gen(1) + ctx.ring.gen(3))  # x2 + y2
    assert evaluate_F(elem) == 2 * one
    with pytest.raises(ValueError):
        evaluate_F(monomial_elem(ctx, 0, 0, ctx.ring.monomial((-1, 0, 0, 0))))


def test_nonfg_witness_g2():
    ctx = surface_context(2)
    rep = verify_nonfg_witness(ctx, 2, (2,), (2,))
    assert rep.passed
    expected = -dga_mul(dga_mul(monomial_elem(ctx, 1 << 2), ext_gen(ctx, 1)), ext_gen(ctx, 3))
    witness = dga_mul(lambda_element(ctx), boundary(
        dga_mul(dga_mul(ext_gen(ctx, 0), ext_gen(ctx, 1)), ext_gen(ctx, 3))))
    assert evaluate_F(witness) == expected


def test_nonfg_witness_g3():
    ctx = surface_context(3)
    # a = e1 e2 e3 f2: m = 2 (indices 2,3), n = 1 (index 2)
    rep = verify_nonfg_witness(ctx, 3, (2, 3), (2,))
    assert rep.passed
    # F(lam * d(a)) = -f1 e2 e3 f2
    f1 = monomial_elem(ctx, 1 << 3)
    expected = -dga_mul(dga_mul(dga_mul(f1, ext_gen(ctx, 1)), ext_gen(ctx, 2)), ext_gen(ctx, 4))
    a = dga_mul(dga_mul(dga_mul(ext_gen(ctx, 0), ext_gen(ctx, 1)), ext_gen(ctx, 2)), ext_gen(ctx, 4))
    assert evaluate_F(dga_mul(lambda_element(ctx), boundary(a))) == expected


def test_nonfg_witness_validation():
    ctx = surface_context(2)
    with pytest.raises(ValueError):
        verify_nonfg_witness(ctx, 2, (1,), (2,))  # index 1 not allowed
    with pytest.raises(ValueError):
        verify_nonfg_witness(ctx, 2, (2,), ())  # counts must sum to k
    with pytest.raises(ValueError):
        verify_nonfg_witness(ctx, 3, (2,), (2,))  # k > 2g-2
    with pytest.raises(ValueError, match="lam lives in the surface algebra"):
        verify_nonfg_witness(wedge_context(3), 2, (2,), (2,))


def test_nonfg_all_choices_rejects_k_outside_range():
    # outside 2 <= k <= 2g-2 there is no admissible choice; that must not pass
    for g, k in ((3, 7), (2, 3), (3, 1), (1, 2)):
        with pytest.raises(ValueError, match="need 2 <= k <= 2g-2"):
            verify_nonfg_all_choices(g, k)


def test_nonfg_admissible_enumeration():
    assert admissible_nonfg_choices(2, 2) == [((2,), (2,))]
    assert len(admissible_nonfg_choices(3, 2)) == 6
    assert len(admissible_nonfg_choices(3, 3)) == 4
    assert admissible_nonfg_choices(3, 4) == [((2, 3), (2, 3))]


def test_nonfg_all_admissible_pass():
    for g, k in ((2, 2), (3, 2), (3, 3), (3, 4)):
        assert verify_nonfg_all_choices(g, k).passed, (g, k)


def test_report_json_contract():
    rep = verify_lemma_torus(4, 2, trials=2, seed=3)
    d = rep.to_json_dict()
    assert d["suite"] == "lemma-torus"
    assert d["pass"] is True
    assert all(set(c) == {"name", "pass", "detail"} for c in d["checks"])
