"""Exact arithmetic in integral group rings of free abelian groups.

The deck group of the covers we care about is Z^m, so its integral group
ring is the ring of Laurent polynomials in m commuting variables with
integer coefficients.  Elements are kept in canonical sparse form: a map
from exponent vectors to nonzero arbitrary-precision integer coefficients.

Each exponent vector is stored packed into one int (Kronecker
substitution): exponent i fills the signed 64-bit field at bit 64*i, so
multiplying two monomials is one integer addition of their keys, made only
in ``add_product``, the product loop of ``GroupRingElement.__mul__`` and of
the DGA product and boundary.  A vector is accepted only from
``LaurentRing.monomial`` and ``from_terms``, which raise ``ValueError`` for a
vector of the wrong length, a non-int exponent, or an exponent with
|e| >= 2^31.  Fields then overflow only after 2^32 chained products.
``GroupRingElement.terms`` decodes the keys back into
``{exponent tuple: coefficient}``.

Two rings appear in practice: the "surface" ring with variables
x1..xg, y1..yg, and the "wedge" ring with variables z1..zn.
"""

from __future__ import annotations

import random
import struct
from functools import cache, cached_property
from types import MappingProxyType

from .records import Record

EXPONENT_BOUND = 1 << 31  # |e| < 2^31 for every exponent given to a ring
_FIELD = 64  # bits per packed exponent


class LaurentRing(Record):
    """A Laurent polynomial ring over Z with named commuting variables."""

    _fields = ("names",)
    names: tuple[str, ...]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> GroupRingElement:
        return GroupRingElement(self, {})

    def one(self) -> GroupRingElement:
        return GroupRingElement(self, {0: 1})  # the zero vector packs to 0

    def gen(self, i: int) -> GroupRingElement:
        """The i-th group generator as a ring element; ``ValueError`` unless
        ``0 <= i < nvars``."""
        if not (type(i) is int and 0 <= i < self.nvars):
            raise ValueError(f"generator index {i!r} out of range 0..{self.nvars - 1}")
        return GroupRingElement(self, {1 << (_FIELD * i): 1})

    def monomial(self, exps: tuple[int, ...], coeff: int = 1) -> GroupRingElement:
        key = self.pack(exps)
        if coeff == 0:
            return self.zero()
        return GroupRingElement(self, {key: coeff})

    def from_terms(self, terms: dict[tuple[int, ...], int]) -> GroupRingElement:
        packed = {self.pack(e): c for e, c in terms.items()}  # every vector is checked
        return GroupRingElement(self, {e: c for e, c in packed.items() if c})

    def pack(self, exps: tuple[int, ...]) -> int:
        """The packed key of an exponent vector; ``ValueError`` outside the bound."""
        if len(exps) != self.nvars:
            raise ValueError(f"exponent vector has length {len(exps)}, ring has {self.nvars} variables")
        key = 0
        for e in reversed(exps):
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an int")
            if not -EXPONENT_BOUND < e < EXPONENT_BOUND:
                raise ValueError(f"exponent {e} is outside the bound |e| < 2^31")
            key = (key << _FIELD) + e
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a packed key."""
        fields, sign_bits, nbytes = self._codec
        return fields.unpack(((key + sign_bits) ^ sign_bits).to_bytes(nbytes, "little"))

    @cached_property
    def _codec(self) -> tuple[struct.Struct, int, int]:
        # Adding the sign bit of every field makes each field e + 2^63, its
        # unsigned form; flipping those bits back leaves e's two's complement.
        sign_bits = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(self.nvars))
        return struct.Struct(f"<{self.nvars}q"), sign_bits, self.nvars * _FIELD // 8


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

    ``packed`` maps packed exponent keys (``LaurentRing.pack``) to nonzero
    integers and is owned by the element.  Do not mutate.
    """

    __slots__ = ("ring", "packed")

    def __init__(self, ring: LaurentRing, packed: dict[int, int]):
        self.ring = ring
        self.packed = packed

    @property
    def terms(self) -> MappingProxyType:
        """Read-only ``{exponent tuple: coefficient}``, decoded on each read."""
        unpack = self.ring.unpack
        return MappingProxyType({unpack(k): c for k, c in self.packed.items()})

    # -- ring structure -------------------------------------------------

    def _check_ring(self, other: GroupRingElement) -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.names} vs {other.ring.names}")

    def __add__(self, other: GroupRingElement) -> GroupRingElement:
        self._check_ring(other)
        terms = dict(self.packed)
        for e, c in other.packed.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return GroupRingElement(self.ring, terms)

    def __neg__(self) -> GroupRingElement:
        return GroupRingElement(self.ring, {e: -c for e, c in self.packed.items()})

    def __sub__(self, other: GroupRingElement) -> GroupRingElement:
        return self + (-other)

    def __mul__(self, other: GroupRingElement | int) -> GroupRingElement:
        """An int scales every coefficient; two elements multiply through ``add_product``."""
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return GroupRingElement(self.ring, {e: c * other for e, c in self.packed.items()})
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_ring(other)
        terms: dict[int, int] = {}
        add_product(terms, self.packed.items(), other.packed.items())
        return GroupRingElement(self.ring, terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.ring == other.ring and self.packed == other.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __hash__(self):
        return hash((self.ring, frozenset(self.packed.items())))

    def __repr__(self) -> str:
        return f"GroupRingElement({self.canonical_str()!r})"

    # -- homomorphisms ---------------------------------------------------

    def augmentation(self) -> int:
        """Sum of coefficients: the ring map sending every group element to 1."""
        return sum(self.packed.values())

    def specialize(self, spec: UnitSpecialization) -> int:
        """Evaluate at units mod spec.prime; negative exponents via modular inverse."""
        p = spec.prime
        if len(spec.values) != self.ring.nvars:
            raise ValueError("specialization has wrong number of values")
        unpack = self.ring.unpack
        total = 0
        for key, c in self.packed.items():
            exps = unpack(key)
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
        if not self.packed:
            return "0"
        terms = self.terms
        parts = []
        for exps in sorted(terms):
            c = terms[exps]
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


def add_product(acc: dict[int, int], items1, items2, scale: int = 1) -> None:
    """Add ``scale`` times the product of the packed ``(key, coefficient)`` lists
    ``items1`` and ``items2`` into ``acc``: a monomial product is one addition of
    keys, and a zero sum is popped.  Rings are not compared: callers check them."""
    get = acc.get
    for e1, c1 in items1:
        c1 *= scale
        for e2, c2 in items2:
            e = e1 + e2
            v = get(e, 0) + c1 * c2
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)


# The least strong pseudoprime to every base 2..37 (Sorenson-Webster 2017).
_MR_BOUND = 318_665_857_834_031_151_167_461


@cache
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37, valid for all
    n < 318,665,857,834,031,151,167,461; raises ``ValueError`` at or above it.
    Answers are kept per ``n`` (every specialization checks its prime); a
    refusal raises each time."""
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


class UnitSpecialization(Record):
    """Evaluation of the group generators at units mod an odd prime."""

    _fields = ("prime", "values")
    prime: int
    values: tuple[int, ...]

    def __init__(self, prime: int, values: tuple[int, ...]):
        _check_prime(prime)
        for v in values:
            if v % prime == 0:
                raise ValueError("specialization values must be units (nonzero mod p)")
        super().__init__(prime, values)


def _check_prime(prime: int) -> None:
    if prime < 3 or not _is_prime(prime):
        raise ValueError("prime must be an odd prime >= 3")


def random_specialization(ring: LaurentRing, prime: int, rng: random.Random) -> UnitSpecialization:
    _check_prime(prime)  # before drawing: randrange(1, prime) fails for prime < 2
    values = tuple(rng.randrange(1, prime) for _ in range(ring.nvars))
    return UnitSpecialization(prime, values)


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
    cover; ``finite_quotient(a, 1)`` is the 1x1 matrix [a.augmentation()].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    size = N ** a.ring.nvars
    M = [[0] * size for _ in range(size)]
    for exps, c in a.terms.items():
        for col, row in enumerate(_translation(exps, N)):
            M[row][col] += c
    return M
