import random

import pytest
from hypothesis import given, settings, strategies as st

from sympow.groupring import (
    UnitSpecialization,
    _is_prime,
    finite_quotient,
    random_specialization,
    surface_ring,
    wedge_ring,
)
from sympow.homology import FAST_PRIME, VERIFY_PRIME
from oracles import laurent_product, regular_representation

R1 = surface_ring(1)  # variables x1, y1
R2 = surface_ring(2)


def x1(ring=R1):
    return ring.gen(0)


def test_add_examples():
    a = x1() - R1.one()
    assert a + -a == R1.zero()
    assert x1() + x1() == 2 * x1()
    # commutativity of the group: x1*y1^-1 written either way
    m = R1.monomial((1, -1))
    assert m + m == 2 * m


def test_mul_examples():
    assert (x1() - R1.one()) * (x1() + R1.one()) == R1.monomial((2, 0)) - R1.one()
    assert (R1.one() - x1()) * R1.zero() == R1.zero()
    y1 = R1.gen(1)
    lhs = (R1.one() - y1) * (R1.one() - x1())
    assert lhs == R1.one() - x1() - y1 + R1.monomial((1, 1))


def test_genus_mismatch_raises():
    with pytest.raises(ValueError):
        R1.one() + R2.one()
    with pytest.raises(ValueError):
        R1.one() * R2.one()


def _random_laurent(ring, rng, nterms):
    return ring.from_terms({tuple(rng.randint(-3, 3) for _ in range(ring.nvars)): rng.randint(-4, 4)
                            for _ in range(nterms)})


def test_mul_matches_dict_product_oracle():
    rng = random.Random(5)
    for make_ring in (lambda: surface_ring(1), lambda: surface_ring(3), lambda: wedge_ring(2)):
        ring, twin = make_ring(), make_ring()
        assert ring == twin and ring is not twin
        for _ in range(60):
            a = _random_laurent(ring, rng, rng.randint(0, 5))
            b = _random_laurent(rng.choice((ring, twin)), rng, rng.randint(0, 5))
            expected = laurent_product(a.terms, b.terms)
            assert (a * b).terms == expected
            assert (b * a).terms == expected
            assert (a * b).ring == ring


def test_augmentation_examples():
    assert (x1() - R1.one()).augmentation() == 0
    a = 3 * R2.monomial((2, 0, 0, -1)) + 2 * R2.one()
    assert a.augmentation() == 5
    assert R1.zero().augmentation() == 0


def test_specialize_examples():
    s = UnitSpecialization(7, (1, 1))
    assert (x1() - R1.one()).specialize(s) == 0
    s = UnitSpecialization(7, (2, 1))
    assert (x1() - R1.one()).specialize(s) == 1
    # modular inverse oracle: 3 * 5 = 15 = 1 mod 7
    s = UnitSpecialization(7, (3, 1))
    assert pow(3, -1, 7) == 5
    assert R1.monomial((-1, 0)).specialize(s) == 5


def test_specialization_validation():
    with pytest.raises(ValueError):
        UnitSpecialization(7, (0, 1))
    with pytest.raises(ValueError):
        UnitSpecialization(2, (1, 1))
    with pytest.raises(ValueError):
        UnitSpecialization(9, (1, 1))  # composite modulus
    UnitSpecialization(2147483647, (5, 6))  # Mersenne prime accepted


def test_random_specialization_checks_prime_before_drawing():
    for prime in (0, 1, 2, 9):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match="prime must be an odd prime >= 3"):
            random_specialization(R2, prime, rng)
        assert rng.getstate() == state  # nothing drawn
    # valid primes draw exactly as before: one randrange(1, p) per variable
    for prime in (3, 1000003, 2147483647):
        expected = random.Random(11)
        spec = random_specialization(R2, prime, random.Random(11))
        assert spec.values == tuple(expected.randrange(1, prime) for _ in range(R2.nvars))


def test_primes_past_the_miller_rabin_bound_are_refused():
    # strong pseudoprimes to every base 2..37: 399165290221 * 798330580441 is
    # the least, and the next one passes the twelve-base test too
    for composite in (318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(ValueError, match="prime must be below 318,665,857,834,031,151,167,461"):
            _is_prime(composite)
        with pytest.raises(ValueError, match="prime must be"):
            UnitSpecialization(composite, (1, 1))
    assert _is_prime(318665857834031151167441)  # the largest prime below the bound
    assert _is_prime(FAST_PRIME) and _is_prime(VERIFY_PRIME)
    UnitSpecialization(FAST_PRIME, (2, 3))
    UnitSpecialization(VERIFY_PRIME, (2, 3))


def test_finite_quotient_identity_and_n1():
    for N in (1, 2, 3):
        M = finite_quotient(R1.one(), N)
        size = N ** 2
        assert M == [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    assert finite_quotient(x1() - R1.one(), 1) == [[0]]
    a = 3 * R2.monomial((2, 0, 0, -1)) + 2 * R2.one()
    assert finite_quotient(a, 1) == [[a.augmentation()]]


def test_finite_quotient_regular_representation_oracle():
    # multiplication by x1 at g=1, N=2 permutes exponent classes (0,b) <-> (1,b)
    expected = regular_representation((1, 0), 2, 2)
    assert finite_quotient(x1(), 2) == expected
    expected = regular_representation((0, 1), 3, 2)
    assert finite_quotient(R1.gen(1), 3) == expected


def test_finite_quotient_rejects_zero():
    with pytest.raises(ValueError):
        finite_quotient(R1.one(), 0)


def _matmul(A, B):
    n, m = len(A), len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(m)] for i in range(n)]


def test_finite_quotient_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(10):
        a = sum((R1.monomial((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-3, 3))
                 for _ in range(2)), R1.zero())
        b = sum((R1.monomial((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-3, 3))
                 for _ in range(2)), R1.zero())
        for N in (1, 2, 3):
            assert finite_quotient(a * b, N) == _matmul(finite_quotient(a, N), finite_quotient(b, N))


def test_no_zero_divisors_on_monomials():
    rng = random.Random(9)
    for _ in range(20):
        mono = R2.monomial(tuple(rng.randint(-2, 2) for _ in range(4)), rng.choice([-2, -1, 1, 2]))
        other = sum((R2.monomial(tuple(rng.randint(-1, 1) for _ in range(4)), rng.randint(-2, 2))
                     for _ in range(2)), R2.zero())
        if other:
            assert mono * other


def test_canonical_string():
    assert (R1.one() - x1()).canonical_str() == "1 - 1*x1"
    assert R1.zero().canonical_str() == "0"
    assert R1.monomial((2, -1), -3).canonical_str() == "-3*x1^2*y1^-1"
    w = wedge_ring(2)
    assert (w.one() - w.gen(1)).canonical_str() == "1 - 1*z2"
    assert (2 * R1.one()).canonical_str() == "2"


# -- property tests ---------------------------------------------------------

coeffs = st.integers(min_value=-5, max_value=5)
exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 4)
elements = st.lists(st.tuples(exps, coeffs), min_size=0, max_size=4).map(
    lambda terms: sum((R2.monomial(e, c) for e, c in terms), R2.zero())
)


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_mul_commutative_and_augmentation_multiplicative(a, b):
    assert a * b == b * a
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_mul_associative_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(elements, elements, st.integers(min_value=0, max_value=10 ** 6))
def test_specialize_is_ring_homomorphism(a, b, seed):
    rng = random.Random(seed)
    p = 1000003
    s = UnitSpecialization(p, tuple(rng.randrange(1, p) for _ in range(4)))
    assert (a * b).specialize(s) == a.specialize(s) * b.specialize(s) % p
    assert (a + b).specialize(s) == (a.specialize(s) + b.specialize(s)) % p


@pytest.mark.parametrize("exps", [
    (1, 2, 3),  # wrong length for two variables
    (1,),
    (1.5, 0),  # non-int exponents
    (1.0, 0),
    ("1", 0),
    (True, 0),
    (1 << 31, 0),  # at or past the packing bound |e| < 2^31
    (0, -(1 << 31)),
    (0, 1 << 70),
])
def test_exponent_vectors_are_validated(exps):
    with pytest.raises(ValueError):
        R1.monomial(exps)
    with pytest.raises(ValueError):
        R1.from_terms({exps: 1})
    with pytest.raises(ValueError):  # a zero coefficient does not excuse a bad vector
        R1.monomial(exps, 0)
    with pytest.raises(ValueError):
        R1.from_terms({(0, 0): 1, exps: 0})


def test_exponents_at_the_bound_round_trip():
    top = (1 << 31) - 1
    ring = wedge_ring(12)
    rng = random.Random(4)
    for _ in range(50):
        terms = {tuple(rng.choice((top, -top, 0, 1, -1, rng.randint(-top, top))) for _ in range(12)):
                 rng.choice((-7, 1, 2)) for _ in range(4)}
        a = ring.from_terms(terms)
        assert a.terms == terms
        assert (a * ring.one()).terms == terms
        assert (a * a).terms == laurent_product(terms, terms)
    x = R1.monomial((top, -top))
    assert (x * x * x).terms == {(3 * top, -3 * top): 1}
    assert x.canonical_str() == f"1*x1^{top}*y1^{-top}"


def test_one_and_generators_are_the_unit_vectors():
    for ring in (R1, R2, wedge_ring(5)):
        n = ring.nvars
        assert ring.one().terms == ring.monomial((0,) * n).terms == {(0,) * n: 1}
        for i in range(n):
            assert ring.gen(i).terms == {tuple(int(j == i) for j in range(n)): 1}
        for i in (-1, n, n + 1, 0.0, True):
            with pytest.raises(ValueError, match="generator index"):
                ring.gen(i)


def test_terms_is_a_read_only_view():
    a = R1.one() - x1()
    with pytest.raises(TypeError):
        a.terms[(5, 5)] = 1
    assert a.terms == {(0, 0): 1, (1, 0): -1}
