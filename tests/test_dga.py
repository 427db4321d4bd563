import math
import random

import pytest

from sympow.dga import (
    DgaElement,
    boundary,
    coefficient_table,
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
from sympow.verify import _random_element, _random_monomials

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
    assert boundary(gamma_power(C1, 1)) == lambda_element(1)
    assert boundary(gamma_power(C2, 1)) == lambda_element(2)


def test_boundary_of_e1f1_is_minus_lambda():
    e1f1 = dga_mul(ext_gen(C1, 0), ext_gen(C1, 1))
    assert boundary(e1f1) == -lambda_element(1)


def test_lambda_element_forms():
    lam = lambda_element(1)
    ring = C1.ring
    expected = monomial_elem(C1, 0b01, 0, ring.one() - ring.gen(1)) + \
        monomial_elem(C1, 0b10, 0, ring.gen(0) - ring.one())
    assert lam == expected
    lam2 = lambda_element(2)
    ring = C2.ring
    expected = (monomial_elem(C2, 1 << 0, 0, ring.one() - ring.gen(2)) +
                monomial_elem(C2, 1 << 1, 0, ring.one() - ring.gen(3)) +
                monomial_elem(C2, 1 << 2, 0, ring.gen(0) - ring.one()) +
                monomial_elem(C2, 1 << 3, 0, ring.gen(1) - ring.one()))
    assert lam2 == expected
    with pytest.raises(ValueError):
        lambda_element(0)


def test_lambda_is_a_cycle_and_squares_to_zero():
    for g in (1, 2, 3):
        lam = lambda_element(g)
        assert not boundary(lam)
        assert not dga_mul(lam, lam)


def test_sigma_examples():
    s1 = sigma_element(2, 1)
    assert s1 == dga_mul(ext_gen(C2, 0), ext_gen(C2, 2)) + dga_mul(ext_gen(C2, 1), ext_gen(C2, 3))
    s2 = sigma_element(2, 2)
    e1f1 = dga_mul(ext_gen(C2, 0), ext_gen(C2, 2))
    e2f2 = dga_mul(ext_gen(C2, 1), ext_gen(C2, 3))
    assert s2 == dga_mul(e1f1, e2f2)
    with pytest.raises(ValueError):
        sigma_element(2, 3)


def test_sigma_boundary_identity():
    for g in (2, 3):
        lam = lambda_element(g)
        for m in range(1, g + 1):
            assert boundary(sigma_element(g, m)) + dga_mul(lam, sigma_element(g, m - 1)) == \
                DgaElement(surface_context(g), {})


def test_boundary_with_passed_table_matches_own_table():
    rng = random.Random(3)
    contexts = [surface_context(g) for g in (1, 2, 3)] + [wedge_context(n) for n in (1, 3, 4)]
    for ctx in contexts:
        monos, _ = _random_monomials(ctx, 3)
        table = coefficient_table(ctx)
        # a table built from an equal but distinct context serves as well
        twin = coefficient_table(surface_context(ctx.size) if ctx.case == "surface"
                                 else wedge_context(ctx.size))
        for _ in range(30):
            a = _random_element(ctx, monos, rng)
            expected = boundary(a)
            assert boundary(a, table) == expected
            assert boundary(a, twin) == expected


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
