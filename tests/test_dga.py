import hashlib
import math
import random

import pytest

import sympow.dga as dga
from sympow.complexes import lambda_matrix
from sympow.dga import (
    DgaElement,
    boundary,
    dga_mul,
    ext_gen,
    gamma_power,
    lambda_element,
    monomial_elem,
    monomial_str,
    sigma_element,
    surface_context,
    wedge_context,
)
from sympow.groupring import EXPONENT_BOUND
from sympow.verify import _random_element, _random_monomials
from oracles import per_term_boundary, per_term_dga_mul

C1 = surface_context(1)
C2 = surface_context(2)
C3 = surface_context(3)


def test_divided_power_product():
    g1 = gamma_power(C1, 1)
    assert dga_mul(g1, g1) == 2 * gamma_power(C1, 2)
    for a in range(4):
        for b in range(4):
            assert dga_mul(gamma_power(C1, a), gamma_power(C1, b)) == \
                math.comb(a + b, a) * gamma_power(C1, a + b)


def test_exterior_square_and_koszul_sign():
    e1, f1 = ext_gen(C1, 0), ext_gen(C1, 1)
    assert not dga_mul(e1, e1)
    assert dga_mul(f1, e1) == -dga_mul(e1, f1)


def test_case_mismatch():
    with pytest.raises(ValueError):
        dga_mul(ext_gen(C1, 0), ext_gen(wedge_context(2), 0))


def test_boundary_of_generators():
    e1 = ext_gen(C1, 0)
    assert boundary(e1) == monomial_elem(C1, 0, 0, C1.ring.one() - C1.ring.gen(0))
    f1 = ext_gen(C1, 1)
    assert boundary(f1) == monomial_elem(C1, 0, 0, C1.ring.one() - C1.ring.gen(1))
    w = wedge_context(3)
    assert boundary(ext_gen(w, 2)) == monomial_elem(w, 0, 0, w.ring.one() - w.ring.gen(2))


def test_boundary_of_gamma_is_lambda():
    assert boundary(gamma_power(C1, 1)) == lambda_element(C1)
    assert boundary(gamma_power(C2, 1)) == lambda_element(C2)


def test_boundary_of_e1f1_is_minus_lambda():
    e1f1 = dga_mul(ext_gen(C1, 0), ext_gen(C1, 1))
    assert boundary(e1f1) == -lambda_element(C1)


def test_lambda_element_forms():
    lam = lambda_element(C1)
    ring = C1.ring
    expected = monomial_elem(C1, 0b01, 0, ring.one() - ring.gen(1)) + \
        monomial_elem(C1, 0b10, 0, ring.gen(0) - ring.one())
    assert lam == expected
    lam2 = lambda_element(C2)
    ring = C2.ring
    expected = (monomial_elem(C2, 1 << 0, 0, ring.one() - ring.gen(2)) +
                monomial_elem(C2, 1 << 1, 0, ring.one() - ring.gen(3)) +
                monomial_elem(C2, 1 << 2, 0, ring.gen(0) - ring.one()) +
                monomial_elem(C2, 1 << 3, 0, ring.gen(1) - ring.one()))
    assert lam2 == expected
    with pytest.raises(ValueError):
        surface_context(0)
    with pytest.raises(ValueError):
        lambda_element(wedge_context(2))
    with pytest.raises(ValueError, match="lam lives in the surface algebra"):
        lambda_matrix(wedge_context(3), 1)  # a wedge table has no lam part


def test_lambda_element_reads_its_context_table(monkeypatch):
    # lam takes its coefficients from ctx.table: a context whose table was read
    # keeps lam and d(g^(1)) in step after the lam source is patched, and a
    # fresh context sees the patch in both
    orig = dga._lambda_coeff
    ctx = surface_context(2)
    lam = lambda_element(ctx)
    monkeypatch.setattr(dga, "_lambda_coeff", lambda c, i: -orig(c, i))
    assert lambda_element(ctx) == lam == boundary(gamma_power(ctx, 1))
    fresh = surface_context(2)
    assert lambda_element(fresh) == -lam == boundary(gamma_power(fresh, 1))


def test_lambda_is_a_cycle_and_squares_to_zero():
    for ctx in (C1, C2, C3):
        lam = lambda_element(ctx)
        assert not boundary(lam)
        assert not dga_mul(lam, lam)


def test_sigma_examples():
    s1 = sigma_element(C2, 1)
    assert s1 == dga_mul(ext_gen(C2, 0), ext_gen(C2, 2)) + dga_mul(ext_gen(C2, 1), ext_gen(C2, 3))
    s2 = sigma_element(C2, 2)
    e1f1 = dga_mul(ext_gen(C2, 0), ext_gen(C2, 2))
    e2f2 = dga_mul(ext_gen(C2, 1), ext_gen(C2, 3))
    assert s2 == dga_mul(e1f1, e2f2)
    with pytest.raises(ValueError):
        sigma_element(C2, 3)
    with pytest.raises(ValueError):
        sigma_element(wedge_context(4), 1)


def test_sigma_boundary_identity():
    for ctx in (C2, C3):
        lam = lambda_element(ctx)
        for m in range(1, ctx.size + 1):
            assert boundary(sigma_element(ctx, m)) + dga_mul(lam, sigma_element(ctx, m - 1)) == \
                DgaElement(ctx, {})


def test_boundary_squared_exhaustive_small():
    for ctx, cap in ((C1, 4), (C2, 4)):
        for mask in range(1 << ctx.ngens):
            ext = mask.bit_count()
            if ext > cap:
                continue
            for s in range(cap - ext + 1):
                m = monomial_elem(ctx, mask, s)
                assert not boundary(boundary(m)), monomial_str(ctx, (mask, s))


def test_boundary_squared_wedge():
    w = wedge_context(4)
    for mask in range(1 << 4):
        assert not boundary(boundary(monomial_elem(w, mask, 0)))


def test_graded_leibniz_seeded():
    rng = random.Random(11)
    monos = [(mask, s) for mask in range(1 << 4) for s in range(3 - min(2, mask.bit_count()))]
    for _ in range(40):
        ma = monos[rng.randrange(len(monos))]
        mb = monos[rng.randrange(len(monos))]
        ca = C2.ring.monomial(tuple(rng.randint(-1, 1) for _ in range(4)), rng.choice([-2, 1, 3]))
        cb = C2.ring.monomial(tuple(rng.randint(-1, 1) for _ in range(4)), rng.choice([-1, 2]))
        a = monomial_elem(C2, ma[0], ma[1], ca)
        b = monomial_elem(C2, mb[0], mb[1], cb)
        d = ma[0].bit_count() + 2 * ma[1]
        lhs = boundary(dga_mul(a, b))
        rhs = dga_mul(boundary(a), b) + (-1) ** d * dga_mul(a, boundary(b))
        assert lhs == rhs


def test_remark_cycle_is_nonzero_kernel_element():
    # the boundary of a product of k+1 distinct one-cells is a nonzero cycle
    w = wedge_context(4)
    chain = monomial_elem(w, 0b0111, 0)  # e1 e2 e3, k = 2
    cycle = boundary(chain)
    assert cycle
    assert not boundary(cycle)


def test_monomial_strings():
    assert monomial_str(C2, (0b0101, 2)) == "e1*f1*g^(2)"
    assert monomial_str(C2, (0, 0)) == "1"
    elem = monomial_elem(C2, 0b0101, 2, C2.ring.one() - C2.ring.gen(0))
    assert elem.canonical_str() == "(1 - 1*x1) * e1*f1*g^(2)"


def _random_wide(ctx, monos, rng):
    """A random element whose coefficients mix small exponents with ones near +-2^31."""
    near = (EXPONENT_BOUND - 1, EXPONENT_BOUND - 2, 1 - EXPONENT_BOUND, 2 - EXPONENT_BOUND)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = {tuple(rng.choice(near) if rng.random() < 0.3 else rng.randint(-2, 2)
                      for _ in range(ctx.ring.nvars)): rng.choice([-2, -1, 1, 3])
                for _ in range(rng.randint(1, 3))}
        terms[rng.choice(monos)] = ctx.ring.from_terms(exps)
    return DgaElement(ctx, {m: c for m, c in terms.items() if c})


def _same_terms(fused, oracle):
    assert fused.terms.keys() == oracle.terms.keys()
    for m, c in oracle.terms.items():
        assert fused.terms[m].terms == c.terms
    assert fused == oracle


@pytest.mark.parametrize("ctx,weight", [
    (surface_context(2), 3),
    (surface_context(3), 3),
    (wedge_context(4), 4),
    (surface_context(6), 2),  # 12 group variables
    (wedge_context(12), 2),
])
def test_fused_boundary_and_product_match_per_term_oracles(ctx, weight):
    rng = random.Random(ctx.size * 31 + weight)
    monos, by_degree = _random_monomials(ctx, weight)
    for _ in range(40):
        a = _random_wide(ctx, monos, rng) if rng.random() < 0.5 else _random_element(ctx, monos, rng)
        b = _random_wide(ctx, monos, rng)
        _same_terms(boundary(a), per_term_boundary(a))
        _same_terms(dga_mul(a, b), per_term_dga_mul(a, b))
        _same_terms(dga_mul(b, a), per_term_dga_mul(b, a))
        h = _random_element(ctx, rng.choice(by_degree), rng)
        _same_terms(dga_mul(h, boundary(b)), per_term_dga_mul(h, per_term_boundary(b)))
        assert not boundary(boundary(a))


def test_fused_product_round_trips_exponents_near_the_bound():
    ctx = wedge_context(12)
    top = EXPONENT_BOUND - 1
    exps = tuple(top if i % 2 else -top for i in range(12))
    a = monomial_elem(ctx, 1, 0, ctx.ring.monomial(exps, 5))
    b = monomial_elem(ctx, 2, 0, ctx.ring.monomial(exps, -2))
    (coeff,) = dga_mul(a, b).terms.values()
    assert coeff.terms == {tuple(2 * e for e in exps): -10}
    assert per_term_dga_mul(a, b) == dga_mul(a, b)


# sha256 of the canonical strings the dga suite draws at g=2, k=3, in its
# order: 100 elements, 50 (homogeneous, element) pairs, 100 homogeneous
# for the 50 commutativity pairs and 50 for the weight check
DGA_DRAW_DIGESTS = {
    0: "0a11adb536bfc65ec9aae65be8406d58aceebc5df669e1d912c1fdb7fdc08fd4",
    7: "70d643106b473071c41629268bbb09e9affba5bcc55c356414c5ba62283940d8",
}


@pytest.mark.parametrize("seed", sorted(DGA_DRAW_DIGESTS))
def test_dga_suite_draws_are_pinned(seed):
    ctx = surface_context(2)
    monos, by_degree = _random_monomials(ctx, 3)
    rng = random.Random(seed)
    draws = [_random_element(ctx, monos, rng) for _ in range(100)]
    for _ in range(50):
        draws += [_random_element(ctx, rng.choice(by_degree), rng), _random_element(ctx, monos, rng)]
    draws += [_random_element(ctx, rng.choice(by_degree), rng) for _ in range(150)]
    digest = hashlib.sha256(b"".join(a.canonical_str().encode() + b"\n" for a in draws))
    assert digest.hexdigest() == DGA_DRAW_DIGESTS[seed]
