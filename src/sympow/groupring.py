"""Exact arithmetic in integral group rings of free abelian groups.

The deck group of the covers we care about is Z^m, so its integral group
ring is the ring of Laurent polynomials in m commuting variables with
integer coefficients.  Elements are kept in canonical sparse form: a map
from exponent vectors (tuples of ints, possibly negative) to nonzero
arbitrary-precision integer coefficients.

Two rings appear in practice: the "surface" ring with variables
x1..xg, y1..yg, and the "wedge" ring with variables z1..zn.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LaurentRing:
    """A Laurent polynomial ring over Z with named commuting variables."""

    names: tuple[str, ...]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> GroupRingElement:
        return GroupRingElement(self, {})

    def one(self) -> GroupRingElement:
        return self.monomial((0,) * self.nvars)

    def gen(self, i: int) -> GroupRingElement:
        """The i-th group generator as a ring element."""
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.monomial(exps)

    def monomial(self, exps: tuple[int, ...], coeff: int = 1) -> GroupRingElement:
        if len(exps) != self.nvars:
            raise ValueError(f"exponent vector has length {len(exps)}, ring has {self.nvars} variables")
        if coeff == 0:
            return self.zero()
        return GroupRingElement(self, {tuple(exps): coeff})

    def from_terms(self, terms: dict[tuple[int, ...], int]) -> GroupRingElement:
        return GroupRingElement(self, {e: c for e, c in terms.items() if c})


def surface_ring(g: int) -> LaurentRing:
    """Group ring of the deck group Z^{2g}: variables x1..xg, y1..yg."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    names = tuple(f"x{i + 1}" for i in range(g)) + tuple(f"y{i + 1}" for i in range(g))
    return LaurentRing(names)


def wedge_ring(n: int) -> LaurentRing:
    """Group ring for the wedge of n circles: variables z1..zn."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    return LaurentRing(tuple(f"z{i + 1}" for i in range(n)))


class GroupRingElement:
    """Sparse Laurent polynomial; immutable after construction.

    ``terms`` maps exponent tuples to nonzero integers.  Do not mutate.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: LaurentRing, terms: dict[tuple[int, ...], int]):
        self.ring = ring
        self.terms = terms

    # -- ring structure -------------------------------------------------

    def _check_ring(self, other: GroupRingElement) -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.names} vs {other.ring.names}")

    def __add__(self, other: GroupRingElement) -> GroupRingElement:
        self._check_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return GroupRingElement(self.ring, terms)

    def __neg__(self) -> GroupRingElement:
        return GroupRingElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: GroupRingElement) -> GroupRingElement:
        return self + (-other)

    def __mul__(self, other: GroupRingElement | int) -> GroupRingElement:
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return GroupRingElement(self.ring, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_ring(other)
        terms: dict[tuple[int, ...], int] = {}
        add = operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = terms.get(e, 0) + c1 * c2
                if v:
                    terms[e] = v
                else:
                    terms.pop(e, None)
        return GroupRingElement(self.ring, terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"GroupRingElement({self.canonical_str()!r})"

    # -- homomorphisms ---------------------------------------------------

    def augmentation(self) -> int:
        """Sum of coefficients: the ring map sending every group element to 1."""
        return sum(self.terms.values())

    def specialize(self, spec: UnitSpecialization) -> int:
        """Evaluate at units mod spec.prime; negative exponents via modular inverse."""
        p = spec.prime
        if len(spec.values) != self.ring.nvars:
            raise ValueError("specialization has wrong number of values")
        total = 0
        for exps, c in self.terms.items():
            v = c % p
            for val, e in zip(spec.values, exps):
                if e:
                    v = v * pow(val, e, p) % p
            total = (total + v) % p
        return total

    # -- printing ----------------------------------------------------------

    def canonical_str(self) -> str:
        """Canonical form: terms sorted lexicographically by exponent vector.

        Each term prints as ``c*x1^a1*...`` with zero exponents omitted and
        ``^1`` shortened away, e.g. ``1 - 1*x1``.
        """
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = []
            for name, e in zip(self.ring.names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            if factors:
                body = f"{abs(c)}*" + "*".join(factors)
            else:
                body = str(abs(c))
            parts.append((c < 0, body))
        first_neg, first_body = parts[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out


# The least strong pseudoprime to every base 2..37 (Sorenson-Webster 2017).
_MR_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37, valid for all
    n < 318,665,857,834,031,151,167,461; raises ``ValueError`` at or above it."""
    if n >= _MR_BOUND:
        raise ValueError(f"prime must be below {_MR_BOUND:,}, where the primality test is a proof")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class UnitSpecialization:
    """Evaluation of the group generators at units mod an odd prime."""

    prime: int
    values: tuple[int, ...]

    def __post_init__(self):
        _check_prime(self.prime)
        for v in self.values:
            if v % self.prime == 0:
                raise ValueError("specialization values must be units (nonzero mod p)")


def _check_prime(prime: int) -> None:
    if prime < 3 or not _is_prime(prime):
        raise ValueError("prime must be an odd prime >= 3")


def random_specialization(ring: LaurentRing, prime: int, rng: random.Random) -> UnitSpecialization:
    _check_prime(prime)  # before drawing: randrange(1, prime) fails for prime < 2
    values = tuple(rng.randrange(1, prime) for _ in range(ring.nvars))
    return UnitSpecialization(prime, values)


# Operation-style aliases over the method surface.

def gr_add(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    return a + b


def gr_mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    return a * b


def augmentation(a: GroupRingElement) -> int:
    return a.augmentation()


def specialize(a: GroupRingElement, spec: UnitSpecialization) -> int:
    return a.specialize(spec)


def _translation(exps: tuple[int, ...], N: int) -> list[int]:
    """Lex index of ``b + exps`` mod N for every b in (Z/N)^m, listed in lex order of b."""
    index = [0]
    for e in exps:
        index = [t * N + (b + e) % N for t in index for b in range(N)]
    return index


def finite_quotient(a: GroupRingElement, N: int) -> list[list[int]]:
    """Matrix of multiplication by ``a`` on the regular representation of (Z/N)^m.

    Basis: exponent vectors reduced mod N, ordered lexicographically.  This is
    the base change realizing the chain complex of the corresponding finite
    cover; ``finite_quotient(a, 1)`` is the 1x1 matrix [augmentation(a)].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    size = N ** a.ring.nvars
    M = [[0] * size for _ in range(size)]
    for exps, c in a.terms.items():
        for col, row in enumerate(_translation(exps, N)):
            M[row][col] += c
    return M
