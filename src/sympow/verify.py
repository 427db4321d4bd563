"""Verification suites for the homological statements behind the library.

Each verifier runs a list of named checks and returns a report; a suite
passes iff every check passes.  Two kinds of evidence appear:

* fraction-field shadows: generic dimensions computed through random unit
  specializations (seeded, reproducible);
* integral witnesses: exact integer computations after base change to
  Z[(Z/N)^m], and exact F_2 computations over F_2[pi]/I^2, which retain
  torsion phenomena that any field-valued specialization provably kills.

The second kind is what certifies the odd cohomology classes lam*sigma_m
of the kernel complex: those classes are copies of Z with trivial deck
action, so they vanish after tensoring with any field, but a relation
lam*sigma_m = lam*v with v in ker(d) over the group ring would descend to
F_2[pi]/I^2 = F_2[(Z/2)^m]/I^2 (I the augmentation ideal), a quotient of the
N=2 cover's algebra; its failure there is an exact proof of nontriviality.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable

from . import dga
from .complexes import (
    SparseRingMatrix,
    _exterior_basis,
    base_change,
    build_cover_complex,
    build_Q_complex,
    build_wedge_complex,
    check_cells,
    exterior_boundary_matrix,
    lambda_matrix,
)
from .dga import (
    DgaContext,
    DgaElement,
    boundary,
    dga_mul,
    ext_gen,
    gamma_power,
    lambda_element,
    monomial_elem,
    sigma_element,
    surface_context,
)
from .groupring import _FIELD, GroupRingElement, UnitSpecialization
from .homology import (
    DEFAULT_TRIALS,
    VERIFY_PRIME,
    _sparse_rank,
    _trial_specialization,
    betti_symmetric_power,
    euler_characteristic,
    generic_homology,
    integer_free_ranks,
    integer_homology,
)


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


class VerifyReport:
    def __init__(self, suite: str, params: dict):
        self.suite = suite
        self.params = params
        self.checks: list[CheckResult] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def to_json_dict(self) -> dict:
        out = {"suite": self.suite}
        out.update(self.params)
        out["checks"] = [{"name": c.name, "pass": c.passed, "detail": c.detail} for c in self.checks]
        out["pass"] = self.passed
        return out


# ---------------------------------------------------------------------------
# Random elements for the DGA property suite


_UNITS = (-3, -2, -1, 1, 2, 3)


def _below(bits: Callable[[int], int], n: int) -> int:
    """``Random._randbelow(n)`` for ``bits = rng.getrandbits``: draw ``n.bit_length()``
    bits until the value is below ``n`` (CPython's ``_randbelow_with_getrandbits``).
    ``randint(a, b)`` is ``a + _below(bits, b - a + 1)`` and ``choice(seq)`` is
    ``seq[_below(bits, len(seq))]``, draw for draw and state for state."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_monomials(ctx, max_weight: int):
    """Every monomial of weight <= max_weight, its masks from the builders' ``_exterior_basis``
    in ascending order; and the same monomials grouped by degree, in increasing degree."""
    masks = sorted(mask for size in range(min(max_weight, ctx.ngens) + 1)
                   for mask, _ in _exterior_basis(ctx, size))
    surface = ctx.case == "surface"
    monos = [(mask, s) for mask in masks for s in range(max_weight - mask.bit_count() + 1 if surface else 1)]
    by_degree: dict[int, list] = {}
    for m in monos:
        by_degree.setdefault(dga.monomial_degree(m), []).append(m)
    return monos, [by_degree[d] for d in sorted(by_degree)]


def _random_element(ctx, monos, rng: random.Random) -> DgaElement:
    """One to three random terms on ``monos``, each coefficient one or two random
    terms, exponents in -2..2 and values in ``_UNITS``; ``by_degree[i]`` as ``monos``
    gives a homogeneous element.

    The draws are ``randint``'s and ``choice``'s own (``_below``), so a seed gives
    the same elements and the same generator state.  Exponents in -2..2 pass
    ``LaurentRing.pack``'s checks, so each value is added straight into the packed
    dict of its monomial: every sum, and so the element, is what ``+`` would give.
    """
    bits = rng.getrandbits
    ring = ctx.ring
    shifts = range(0, _FIELD * ring.nvars, _FIELD)
    nmonos = len(monos)
    terms: dict = {}
    for _ in range(1 + _below(bits, 3)):
        packed = terms.setdefault(monos[_below(bits, nmonos)], {})
        for _ in range(1 + _below(bits, 2)):
            key = 0
            for shift in shifts:
                key += (_below(bits, 5) - 2) << shift
            v = packed.get(key, 0) + _UNITS[_below(bits, 6)]
            if v:
                packed[key] = v
            else:
                del packed[key]
    return DgaElement(ctx, {m: GroupRingElement(ring, p) for m, p in terms.items() if p})


def verify_dga_suite(g: int, k: int, seed: int = 0) -> VerifyReport:
    """Batch runner for the algebra invariants on exhaustive and random inputs."""
    ctx = surface_context(g)
    if k < 0:
        raise ValueError("k must be >= 0")
    check_cells(ctx, k, True, f"the dga suite's monomials at g={g}, k={k}")
    monos, by_degree = _random_monomials(ctx, k)
    rng = random.Random(seed)
    bits = rng.getrandbits
    report = VerifyReport("dga", {"g": g, "k": k, "seed": seed})

    bad = next((m for m in monos if boundary(boundary(monomial_elem(ctx, *m)))), None)
    report.add("boundary-squared-monomials", bad is None,
               f"d(d(m)) != 0 for m = {dga.monomial_str(ctx, bad)}" if bad else
               f"all monomials of weight <= {k}")

    bad = None
    for _ in range(100):
        a = _random_element(ctx, monos, rng)
        if boundary(boundary(a)):
            bad = a.canonical_str()
            break
    report.add("boundary-squared-random", bad is None,
               f"d(d(a)) != 0 for a = {bad}" if bad else "100 seeded random elements")

    bad = None
    for _ in range(50):
        a = _random_element(ctx, by_degree[_below(bits, len(by_degree))], rng)
        b = _random_element(ctx, monos, rng)
        d = a.degree()
        lhs = boundary(dga_mul(a, b))
        a_db = dga_mul(a, boundary(b))
        rhs = dga_mul(boundary(a), b) + (-a_db if d & 1 else a_db)
        if lhs != rhs:
            bad = f"a = {a.canonical_str()}, b = {b.canonical_str()}"
            break
    report.add("graded-leibniz", bad is None, bad or "50 seeded random pairs")

    bad = None
    for _ in range(50):
        a = _random_element(ctx, by_degree[_below(bits, len(by_degree))], rng)
        b = _random_element(ctx, by_degree[_below(bits, len(by_degree))], rng)
        sign = (-1) ** (a.degree() * b.degree())
        if dga_mul(a, b) != sign * dga_mul(b, a):
            bad = f"a = {a.canonical_str()}, b = {b.canonical_str()}"
            break
    report.add("graded-commutativity", bad is None, bad or "50 seeded random pairs")

    bad = None
    power = monomial_elem(ctx, 0, 0)
    for j in range(1, min(k, 6) + 1):
        power = dga_mul(power, gamma_power(ctx, 1))
        if power != math.factorial(j) * gamma_power(ctx, j):
            bad = f"gamma^(1)^{j} != {j}! * gamma^({j})"
            break
    if bad is None:
        for a in range(k + 1):
            for b in range(k + 1 - a):
                lhs = dga_mul(gamma_power(ctx, a), gamma_power(ctx, b))
                if lhs != math.comb(a + b, a) * gamma_power(ctx, a + b):
                    bad = f"gamma^({a}) * gamma^({b})"
                    break
            if bad:
                break
    report.add("divided-power-products", bad is None, bad or f"k-fold powers up to {min(k, 6)}")

    # the boundary preserves the weight filtration: it never raises weight
    # (it does drop it on exterior generators, e.g. d(e1) = 1 - x1)
    bad = None
    for _ in range(50):
        a = _random_element(ctx, by_degree[_below(bits, len(by_degree))], rng)
        da = boundary(a)
        if da and max(da.weights()) > max(a.weights()):
            bad = f"a = {a.canonical_str()}"
            break
    report.add("weight-filtration", bad is None, bad or "boundary never raises the filtration weight")

    lam = lambda_element(ctx)
    ok = not dga_mul(lam, lam) and not boundary(lam)
    report.add("lambda-squared-and-cycle", ok, "lam * lam = 0 and d(lam) = 0")
    return report


# ---------------------------------------------------------------------------
# Lemma verifiers


def verify_lemma_torus(n: int, k: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                       prime: int = VERIFY_PRIME) -> VerifyReport:
    """Generic homology of the truncated wedge complex: one kernel at the top.

    Checks that the fraction-field homology vanishes in degrees < k (degree 0
    included: the integral class there is torsion over the group ring) and
    that the top dimension equals binom(n-1, k).
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    report = VerifyReport("lemma-torus",
                          {"n": n, "k": k, "trials": trials, "seed": seed, "prime": prime})
    rep = generic_homology(build_wedge_complex(n, k), trials, seed, prime)
    dims = rep.ranks()
    report.add("vanishing-below-top", all(d == 0 for d in dims[:k]),
               f"generic dims {dims}")
    expected = math.comb(n - 1, k)
    report.add("top-kernel-dimension", dims[k] == expected,
               f"dim K_{k} = {dims[k]}, expected binom({n - 1},{k}) = {expected}")
    return report


def verify_lemma_q(g: int, k: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                   prime: int = VERIFY_PRIME) -> VerifyReport:
    """Generic cohomology of the truncated lam-complex is concentrated at the top."""
    if g < 1 or k < 1:
        raise ValueError("need g >= 1 and k >= 1")
    report = VerifyReport("lemma-q",
                          {"g": g, "k": k, "trials": trials, "seed": seed, "prime": prime})
    q = build_Q_complex(g, k)
    rep = generic_homology(q, trials, seed, prime)
    dims = rep.ranks()  # stored index j <-> cochain position top - j
    top = q.params["top"]
    report.add("concentrated-in-top", all(d == 0 for d in dims[1:]),
               f"positions {[top - j for j in range(len(dims))]} dims {dims}")
    expected = math.comb(2 * g - 1, k) if k <= 2 * g else 0
    report.add("top-dimension", dims[0] == expected,
               f"dim at position {top} = {dims[0]}, expected binom({2 * g - 1},{k}) = {expected}")
    return report


def _stacked(upper: list[dict[int, int]], lower: list[dict[int, int]], shift: int) -> list[dict[int, int]]:
    """The new columns of ``[upper; lower]``, each column of ``lower`` moved
    down by ``shift`` rows under the one of ``upper`` beside it."""
    return [u | {shift + r: x for r, x in v.items()} for u, v in zip(upper, lower)]


def _lambda_ker_contains(d: SparseRingMatrix, lam: SparseRingMatrix,
                         target: SparseRingMatrix) -> bool:
    """Whether column 0 of ``target`` lies in ``lam * ker d`` over F_2[pi]/I^2:
    ``t`` is in ``lam * ker d`` iff ``(0; t)`` is in the column span of the stacked
    ``[d; lam]``, the identity behind ``theorem-main``'s ``rank[d; lam] - rank d``,
    that is iff adjoining ``(0; t)`` as a column keeps the rank."""
    shift = d.rows * (1 + d.ring.nvars)
    t = _stacked([{}], target.first_order_columns()[:1], shift)
    def stacked() -> list[dict[int, int]]:  # fresh columns for each rank, which takes them over
        return _stacked(d.first_order_columns(), lam.first_order_columns(), shift)
    return _sparse_rank(stacked() + t, 2) == _sparse_rank(stacked(), 2)


def verify_lemma_cohomology(g: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                            prime: int = VERIFY_PRIME) -> VerifyReport:
    """The odd cohomology classes lam*sigma_m of the kernel complex.

    For m = 1 .. g-1 the class lives in position 2m+1 of the complex
    K_0 -> K_1 -> .. -> K_2g (K_j = ker d_j in the wedge complex on the 2g
    one-cells), and the suite certifies it by:

    * symbolic identities d(sigma_m) = -lam * sigma_{m-1} and
      lam * (lam * sigma_m) = 0 (cycle check);
    * the kernel check: the lam-map of the built complex sends lam*sigma_m
      to 0, one exact product over Z[pi] per class;
    * exact nontriviality over F_2[pi]/I^2, a quotient of the N=2 cover's
      algebra: lam*sigma_m is not in lam * ker(d_{2m}) there, so adjoining
      it grows the rank of the stacked [d; lam] (rank-increase check); any
      relation over the group ring would descend, so the class is nonzero;
    * the integral shadow of the full lam-complex over Z[(Z/N)^{2g}]: at N=1
      it checks from the table that lam augments to 0, so that the homology is
      the cell counts binom(2g, i); only g=2 also runs N=2, whose SNF is
      torsion-free of rank binom(2g, i);
    * the honest fraction-field shadow: the specialized lam-complex is
      exact everywhere, because the integral classes are copies of Z with
      trivial deck action and die under any unit specialization.  It is the
      only check that reads ``trials``, ``seed`` and ``prime``.
    """
    if g < 2:
        raise ValueError("genus must be >= 2")
    report = VerifyReport("lemma-cohomology",
                          {"g": g, "trials": trials, "seed": seed, "prime": prime})
    full_q = build_Q_complex(g, 2 * g)  # boundaries[2g - s]: lam from exterior degree s to s + 1
    ctx = full_q.ctx  # every element and map below lives over the one table of full_q
    lam = lambda_element(ctx)
    sigmas = [sigma_element(ctx, m) for m in range(g + 1)]
    lam_sigmas = [dga_mul(lam, sigma) for sigma in sigmas[:g]]

    bad = None
    for m in range(1, g + 1):
        if boundary(sigmas[m]) != -lam_sigmas[m - 1]:
            bad = m
            break
    report.add("sigma-boundary-identities", bad is None,
               f"d(sigma_{bad}) != -lam*sigma_{bad - 1}" if bad else
               f"d(sigma_m) = -lam*sigma_(m-1) for m = 1..{g}")

    positions = [2 * m + 1 for m in range(1, g)]
    bad = None
    for m in range(1, g):
        cls = lam_sigmas[m]
        if not cls or dga_mul(lam, cls) or boundary(cls):
            bad = m
            break
    report.add("lambda-sigma-cocycles", bad is None,
               f"lam*sigma_{bad} fails the cycle check" if bad is not None else
               f"lam*sigma_m nonzero cycles, positions {positions}")

    # kernel check: one exact product over Z[pi] with the next built lam-map
    classes = {}  # lam*sigma_m as one column over exterior degree 2m + 1
    for m in range(1, g):
        index = {mono: i for i, mono in enumerate(full_q.modules[2 * g - (2 * m + 1)].basis)}
        classes[m] = SparseRingMatrix(ctx.ring, len(index), 1,
                                      {(index[mono], 0): c for mono, c in lam_sigmas[m].terms.items()})
    bad = next((m for m in range(1, g)
                if full_q.boundaries[2 * g - (2 * m + 1)].compose(classes[m]).entries), None)
    report.add("lambda-sigma-kernel-specialized", bad is None,
               f"lam*sigma_{bad} not in ker of next lam-map over Z[pi]" if bad else
               f"next lam-map times lam*sigma_m is 0, an exact product over Z[pi], for m = 1..{g - 1}")

    # exact nontriviality witness over F_2[pi]/I^2
    bad = None
    detail_parts = []
    for m in range(1, g):
        j = 2 * m
        if _lambda_ker_contains(exterior_boundary_matrix(ctx, j), full_q.boundaries[2 * g - j], classes[m]):
            bad = m
            break
        detail_parts.append(f"position {2 * m + 1}: lam*sigma_{m} outside lam*ker(d_{j}) over F_2[pi]/I^2")
    report.add("lambda-sigma-nonzero-finite-cover", bad is None,
               f"lam*sigma_{bad} lies in lam*ker(d_{2 * bad}) over F_2[pi]/I^2" if bad else
               "; ".join(detail_parts))

    # integral shadow of the full lam-complex (torsion-free Tor pattern).  At N=1
    # each entry is +- the augmentation of a lam coefficient, and each coefficient
    # is an entry of the first map: the homology is free on the cells iff all are 0.
    bad_detail = next((f"N=1: lam coefficient of {ctx.gen_name(i)} augments to {c.augmentation()}"
                       for i, (c, _) in enumerate(ctx.table[1]) if c.augmentation()), None)
    if bad_detail is None and full_q.ranks != [math.comb(2 * g, i) for i in range(2 * g + 1)]:
        bad_detail = f"N=1: cell counts {full_q.ranks}, not binom({2 * g},i)"
    if bad_detail is None and g == 2:
        for e in integer_homology(base_change(full_q, 2)).entries:
            pos = 2 * g - e.degree
            if e.rank != math.comb(2 * g, pos) or e.torsion:
                bad_detail = f"N=2 position {pos}: rank {e.rank} torsion {list(e.torsion)}"
                break
    n1 = f"N=1: lam augments to 0, so every boundary is zero and the check reads the cell counts binom({2 * g},i)"
    report.add("lambda-complex-integral-shadow", bad_detail is None,
               bad_detail or (f"{n1}; N=2: SNF free of rank binom({2 * g},i), no torsion" if g == 2 else
                              f"only {n1}"))

    rep = generic_homology(full_q, trials, seed, prime)
    report.add("specialized-lambda-complex-exact", all(d == 0 for d in rep.ranks()),
               f"generic dims {rep.ranks()} (integral classes are trivial modules and die mod p)")
    return report


def _kernel_quotient_dim(d_k: SparseRingMatrix, d_prev: SparseRingMatrix,
                         lam_prev: SparseRingMatrix, spec: UnitSpecialization) -> int:
    """``dim K_k - dim lam*K_(k-1)`` under one specialization (``K_j = ker d_j``),
    from ranks alone: ``dim lam(ker d) = rank[d; lam] - rank d`` for the stacked
    matrix, whose kernel is the kernel of lam on ker d.  The matrices are the
    wedge boundaries ``d_k``, ``d_(k-1)`` and ``lam_(k-1)`` on the 2g one-cells."""
    p = spec.prime
    d_cols = d_prev.specialize_columns(spec)
    stacked = _stacked(d_cols, lam_prev.specialize_columns(spec), d_prev.rows)
    return (d_k.cols - _sparse_rank(d_k.specialize_columns(spec), p)
            - _sparse_rank(stacked, p) + _sparse_rank(d_cols, p))


def verify_theorem_main(g: int, k: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                        prime: int = VERIFY_PRIME, N_list: tuple[int, ...] = (1,)) -> VerifyReport:
    """Fraction-field shadow of the main homology theorem, plus finite covers.

    Generic homology of the cover complex must vanish except in degree k
    (k <= 2g), where it equals dim K_k - dim lam*K_{k-1} computed
    independently from wedge-complex specializations; for k > 2g it must
    vanish everywhere.  Finite covers add the Euler scaling
    chi(N) = N^{2g} chi(1) and, for 2 <= k <= 2g-2, strict rank growth of
    H_k (the non-finite-generation witness).  The alternating sum of the free
    ranks of the N-cover telescopes to N^{2g} sum (-1)^i rank C_i whatever the
    boundary ranks are, so euler-scaling reads chi(N) from the cell counts and
    checks them against Macdonald's chi(1).  Rank growth is the only check
    that reads ranks, and the only one that base-changes: once for each
    N >= 2, and never when k is outside 2..2g-2.
    """
    if g < 1 or k < 2:
        raise ValueError("need g >= 1 and k >= 2")
    if any(N < 1 for N in N_list):
        raise ValueError("N must be >= 1")
    report = VerifyReport("theorem-main",
                          {"g": g, "k": k, "trials": trials, "seed": seed, "prime": prime,
                           "N_list": list(N_list)})
    cover = build_cover_complex(g, k)
    rep = generic_homology(cover, trials, seed, prime)
    dims = rep.ranks()

    expected = [0] * len(dims)
    if k <= 2 * g:
        ctx = cover.ctx
        maps = (exterior_boundary_matrix(ctx, k), exterior_boundary_matrix(ctx, k - 1), lambda_matrix(ctx, k - 1))
        expected[k] = min(_kernel_quotient_dim(*maps, _trial_specialization(ctx.ring, prime, seed, t))
                          for t in range(trials))
        why = f"degree-{k} dimension = dim K_{k} - dim lam*K_{k - 1} from wedge specializations"
    else:
        why = f"k > 2g = {2 * g}: the complex is exact, so 0 is expected in every degree"
    report.add("generic-dims-pattern", dims == expected, f"generic dims {dims}, expected {expected} ({why})")

    # chi(N) of the (Z/N)^{2g}-cover from its cell counts, which the free ranks telescope to
    chi1 = euler_characteristic(g, k)
    chi_cells = sum((-1) ** i * r for i, r in enumerate(cover.ranks))
    # N^2g >= 1 scales both sides, so one comparison decides every N; a failure names the first
    if chi_cells == chi1 or not N_list:
        report.add("euler-scaling", True, f"chi(N) = N^{2 * g} * {chi1} for N in {list(N_list)}")
    else:
        scale = N_list[0] ** (2 * g)
        report.add("euler-scaling", False, f"N={N_list[0]}: euler {scale * chi_cells} != {scale} * {chi1}")

    if 2 <= k <= 2 * g - 2:
        # exact Q-ranks suffice here (torsion not needed)
        free_ranks = {N: integer_free_ranks(base_change(cover, N)) for N in N_list if N >= 2}
        base_rank = betti_symmetric_power(g, k)[k]
        bad_detail = None
        growth_details = []
        for N in N_list:
            if N == 1:
                continue
            rank_k = free_ranks[N][k]
            if rank_k <= base_rank:
                bad_detail = f"N={N}: rank H_{k} = {rank_k} <= {base_rank}"
                break
            growth_details.append(f"N={N}: rank H_{k} = {rank_k} > {base_rank}")
        report.add("finite-cover-rank-growth", bad_detail is None,
                   bad_detail or ("; ".join(growth_details) or "no N >= 2 requested"))
    return report


def verify_mattuck(g: int, k: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                   prime: int = VERIFY_PRIME) -> VerifyReport:
    """For k >= 2g the cover is homologically a complex projective space.

    The fraction-field homology of the cover complex vanishes identically
    (all integral classes are single copies of Z), and the Betti numbers of
    the k-th symmetric power match the Kunneth pattern of a CP^{k-g} bundle
    over the 2g-torus.
    """
    if g < 1 or k < 2 * g:
        raise ValueError("mattuck suite needs k >= 2g")
    report = VerifyReport("mattuck",
                          {"g": g, "k": k, "trials": trials, "seed": seed, "prime": prime})
    rep = generic_homology(build_cover_complex(g, k), trials, seed, prime)
    report.add("generic-dims-vanish", all(d == 0 for d in rep.ranks()),
               f"generic dims {rep.ranks()}")

    betti = betti_symmetric_power(g, k)
    pattern = [0] * (2 * k + 1)
    for j in range(2 * g + 1):
        for s in range(k - g + 1):
            pattern[j + 2 * s] += math.comb(2 * g, j)
    report.add("torus-projective-pattern", betti == pattern,
               f"betti {betti} vs T^(2g) x CP^(k-g) pattern {pattern}")
    return report


# ---------------------------------------------------------------------------
# Non-finite-generation witness (the evaluation F)


def evaluate_F(a: DgaElement) -> DgaElement:
    """Monomial substitution x1 -> 0, all other group generators -> 1.

    Defined only on elements whose coefficients have nonnegative x1
    exponents (x1 is a unit in the Laurent ring, so the substitution cannot
    extend further); raises ValueError outside that subring.
    """
    if a.ctx.case != "surface":
        raise ValueError("F is defined on the surface algebra")
    terms = {}
    for mono, coeff in a.terms.items():
        total = 0
        for exps, c in coeff.terms.items():
            if exps[0] < 0:
                raise ValueError("negative x1 exponent: outside the domain of F")
            if exps[0] == 0:
                total += c
        if total:
            terms[mono] = a.ctx.ring.one() * total
    return DgaElement(a.ctx, terms)


def admissible_nonfg_choices(g: int, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All index choices (i_1<..<i_m; j_1<..<j_n), m+n = k, indices in 2..g."""
    out = []
    pool = range(2, g + 1)
    for m in range(0, k + 1):
        n = k - m
        for es in itertools.combinations(pool, m):
            for fs in itertools.combinations(pool, n):
                out.append((es, fs))
    return out


def verify_nonfg_witness(ctx: DgaContext, k: int, e_indices: tuple[int, ...],
                         f_indices: tuple[int, ...]) -> VerifyReport:
    """Explicit nonzero element of lam*K_k, detected by the evaluation F.

    With a = e_1 e_{i_1}..e_{i_m} f_{j_1}..f_{j_n} (indices > 1, m+n = k) over
    the genus-g surface context ``ctx``, computes lam*d(a) and checks
    F(lam*d(a)) = -f_1 e_{i_1}..f_{j_n} != 0, plus F(lam*d(a)) = F(lam) F(d(a)).
    """
    g = ctx.size
    lam = lambda_element(ctx)  # refuses a wedge context
    if not 2 <= k <= 2 * g - 2:
        raise ValueError("need 2 <= k <= 2g-2")
    for idx in (*e_indices, *f_indices):
        if not 2 <= idx <= g:
            raise ValueError(f"index {idx} outside 2..{g}")
    if list(e_indices) != sorted(set(e_indices)) or list(f_indices) != sorted(set(f_indices)):
        raise ValueError("indices must be strictly increasing")
    if len(e_indices) + len(f_indices) != k:
        raise ValueError("index counts must sum to k")
    report = VerifyReport("nonfg",
                          {"g": g, "k": k, "e_indices": list(e_indices), "f_indices": list(f_indices)})
    a = ext_gen(ctx, 0)
    for i in e_indices:
        a = dga_mul(a, ext_gen(ctx, i - 1))
    for j in f_indices:
        a = dga_mul(a, ext_gen(ctx, g + j - 1))
    da = boundary(a)
    witness = dga_mul(lam, da)

    expected = monomial_elem(ctx, 1 << g)  # f_1
    for i in e_indices:
        expected = dga_mul(expected, ext_gen(ctx, i - 1))
    for j in f_indices:
        expected = dga_mul(expected, ext_gen(ctx, g + j - 1))
    expected = -expected

    image = evaluate_F(witness)
    report.add("f-evaluation-closed-form", image == expected,
               f"F(lam*d(a)) = {image.canonical_str()}, expected {expected.canonical_str()}")
    report.add("f-evaluation-nonzero", bool(image), "nonzero output certifies lam*K_k != 0")
    report.add("f-multiplicativity",
               image == dga_mul(evaluate_F(lam), evaluate_F(da)),
               "F(lam*d(a)) = F(lam) * F(d(a))")
    return report


def verify_nonfg_all_choices(g: int, k: int) -> VerifyReport:
    """Run the witness over every admissible index choice.

    Outside ``2 <= k <= 2g-2`` there is no choice to run, so this raises the
    witness's ``ValueError`` instead of passing on none.
    """
    if not 2 <= k <= 2 * g - 2:
        raise ValueError("need 2 <= k <= 2g-2")
    report = VerifyReport("nonfg", {"g": g, "k": k})
    ctx = surface_context(g)
    choices = admissible_nonfg_choices(g, k)
    bad = None
    for es, fs in choices:
        sub = verify_nonfg_witness(ctx, k, es, fs)
        if not sub.passed:
            bad = (es, fs)
            break
    report.add("all-admissible-choices", bad is None,
               f"failed at {bad}" if bad else f"{len(choices)} index choices verified")
    return report


# ---------------------------------------------------------------------------
# Suite registry


# Each suite's verifier, called with one keyword per CLI flag the suite reads,
# and those flags with their defaults.  ``N`` holds the tuple of cover orders,
# and mattuck's k of None is its k = 2g.  ``run_suite`` fills in the defaults
# and ``cli`` refuses every other flag.  The lambdas look the verifiers up
# when called, so a wrapped or patched verifier is the one that runs.
_RANK_FLAGS = {"trials": DEFAULT_TRIALS, "seed": 0, "prime": VERIFY_PRIME}
SUITES: dict[str, tuple[Callable[..., VerifyReport], dict[str, object]]] = {
    "dga": (lambda genus, k, seed: verify_dga_suite(genus, k, seed),
            {"genus": 2, "k": 3, "seed": 0}),
    "lemma-torus": (lambda arity, k, **rank: verify_lemma_torus(arity, k, **rank),
                    {"arity": 4, "k": 2, **_RANK_FLAGS}),
    "lemma-q": (lambda genus, k, **rank: verify_lemma_q(genus, k, **rank),
                {"genus": 2, "k": 2, **_RANK_FLAGS}),
    "lemma-cohomology": (lambda genus, **rank: verify_lemma_cohomology(genus, **rank),
                         {"genus": 2, **_RANK_FLAGS}),
    "theorem-main": (lambda genus, k, N, **rank: verify_theorem_main(genus, k, N_list=N, **rank),
                     {"genus": 2, "k": 2, "N": (1, 2), **_RANK_FLAGS}),
    "nonfg": (lambda genus, k: verify_nonfg_all_choices(genus, k), {"genus": 2, "k": 2}),
    "mattuck": (lambda genus, k, **rank: verify_mattuck(genus, 2 * genus if k is None else k, **rank),
                {"genus": 2, "k": None, **_RANK_FLAGS}),
}
SUITE_ORDER = list(SUITES)


def run_suite(name: str, *, g: int | None = None, n: int | None = None, k: int | None = None,
              trials: int | None = None, seed: int | None = None, prime: int | None = None,
              N_list: tuple[int, ...] | None = None) -> list[VerifyReport]:
    """Run one named suite, or the full battery for ``all`` (each suite at its
    own k).  A value left at None takes the suite's default from ``SUITES``;
    one the suite does not read is ignored."""
    if name == "all":
        return [report for suite in SUITE_ORDER
                for report in run_suite(suite, g=g, n=n, trials=trials, seed=seed, prime=prime,
                                        N_list=N_list)]
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name}")
    verifier, defaults = SUITES[name]
    given = dict(genus=g, arity=n, k=k, N=N_list, trials=trials, seed=seed, prime=prime)
    return [verifier(**{flag: default if given[flag] is None else given[flag]
                        for flag, default in defaults.items()})]
