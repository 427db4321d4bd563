"""The graded-commutative differential graded algebra of cover chains.

Two cases share the machinery:

* surface case (genus g): exterior generators e1 < .. < eg < f1 < .. < fg
  over the ring Z[x1^,..,yg^], plus a divided-power generator.  We write
  ``g^(s)`` for the divided power of the 2-cell class, so ``g^(s)`` has
  internal degree 2s and filtration weight s, and products obey
  g^(a) * g^(b) = binomial(a+b, a) * g^(a+b).
* wedge case (arity n): exterior generators e1 < .. < en over Z[z1^,..,zn^]
  and no divided powers.

A monomial is a pair ``(mask, s)``: ``mask`` is the bitmask of exterior
generators present (bit i = i-th generator in the order above) and ``s``
is the divided-power index.  The boundary is the derivation determined by

    d(e_i) = 1 - x_i,   d(f_i) = 1 - y_i,   d(g^(s)) = lam * g^(s-1)

(wedge case: d(e_i) = 1 - z_i), where ``lam`` is the degree-1 element
sum_i ((1 - y_i) e_i - (1 - x_i) f_i).

Each generator's boundary and lam coefficient sit in one table per context,
``DgaContext.table``, built from ``_ext_boundary_coeff`` and ``_lambda_coeff``
when it is first read and kept: a context made after a source is patched
sees the patch, and one whose table was read before keeps it.  Beside the
table, ``DgaContext.boundary_pairs`` keeps each monomial's boundary pairs,
filled from the table on first use in the same way, and
``DgaContext.last_view`` the table's last mapping by a matrix over it.
A genus or arity enters only at a builder or a suite: it makes one fresh
context (``surface_context``, ``wedge_context``) and hands it to every
element, matrix and witness below it, so each build and each suite reads
one table, built from the sources as they are when it starts.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import ItemsView, Iterable, Mapping
from functools import cached_property

from .groupring import GroupRingElement, LaurentRing, add_product, surface_ring, wedge_ring
from .records import Record

Monomial = tuple[int, int]

# Each generator's boundary and lam coefficient, each paired with its negative.
CoefficientTable = tuple[tuple[tuple[GroupRingElement, GroupRingElement], ...], ...]


class DgaContext(Record):
    """Which algebra we are in: surface (with divided powers) or wedge."""

    _fields = ("case", "size", "ring")
    case: str  # "surface" | "wedge"
    size: int  # genus g, or wedge arity n
    ring: LaurentRing

    @property
    def ngens(self) -> int:
        """Number of exterior generators: 2g for a surface, n for a wedge."""
        return 2 * self.size if self.case == "surface" else self.size

    @cached_property
    def table(self) -> CoefficientTable:
        """``table[0][i]`` is ``(d(gen_i), -d(gen_i))`` and ``table[1][i]`` the same
        for the lam coefficient (empty in the wedge case)."""
        ext = tuple((c, -c) for c in (_ext_boundary_coeff(self, i) for i in range(self.ngens)))
        lam = ()
        if self.case == "surface":
            lam = tuple((c, -c) for c in (_lambda_coeff(self, i) for i in range(self.ngens)))
        return ext, lam

    @cached_property
    def boundary_pairs(self) -> dict[Monomial, list[tuple[Monomial, ItemsView[int, int]]]]:
        """``boundary_pairs[m]`` is the ``(target monomial, coefficient)`` pairs
        that ``monomial_boundary`` writes for ``m`` over ``self.table``, each
        coefficient as the ``packed.items()`` view of its table entry, so that no
        pair copies its terms; ``boundary`` fills it on first use of each
        monomial and keeps it beside the table."""
        return {}

    @cached_property
    def last_view(self) -> list:
        """``[key, mapped]``: the last key (a point, a cover order, a view) under
        which a matrix over this context mapped ``self.table``, and the result."""
        return [None, None]

    def gen_name(self, i: int) -> str:
        if self.case == "wedge":
            return f"e{i + 1}"
        g = self.size
        return f"e{i + 1}" if i < g else f"f{i - g + 1}"


def surface_context(g: int) -> DgaContext:
    return DgaContext("surface", g, surface_ring(g))


def wedge_context(n: int) -> DgaContext:
    return DgaContext("wedge", n, wedge_ring(n))


def monomial_degree(m: Monomial) -> int:
    mask, s = m
    return mask.bit_count() + 2 * s


def monomial_weight(m: Monomial) -> int:
    mask, s = m
    return mask.bit_count() + s


def monomial_sort_key(m: Monomial) -> tuple:
    """Exterior masks by (size, lexicographic index tuple), then gamma index."""
    mask, s = m
    bits = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    return (len(bits), bits, s)


def monomial_str(ctx: DgaContext, m: Monomial) -> str:
    mask, s = m
    factors = [ctx.gen_name(i) for i in range(ctx.ngens) if mask >> i & 1]
    if s:
        factors.append(f"g^({s})")
    return "*".join(factors) if factors else "1"


class DgaElement:
    """Finite Z[pi]-linear combination of monomials, in canonical sparse form."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: DgaContext, terms: dict[Monomial, GroupRingElement]):
        self.ctx = ctx
        self.terms = terms

    def _check_ctx(self, other: DgaElement) -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError(f"case mismatch: {self.ctx.case}({self.ctx.size}) vs {other.ctx.case}({other.ctx.size})")

    def __add__(self, other: DgaElement) -> DgaElement:
        self._check_ctx(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m)
            v = c if v is None else v + c
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return DgaElement(self.ctx, terms)

    def __neg__(self) -> DgaElement:
        return DgaElement(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: DgaElement) -> DgaElement:
        return self + (-other)

    def __mul__(self, other: DgaElement | GroupRingElement | int) -> DgaElement:
        if isinstance(other, DgaElement):
            return dga_mul(self, other)
        terms = {}
        for m, c in self.terms.items():
            v = c * other
            if v:
                terms[m] = v
        return DgaElement(self.ctx, terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DgaElement):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"DgaElement({self.canonical_str()!r})"

    def degrees(self) -> set[int]:
        return {monomial_degree(m) for m in self.terms}

    def weights(self) -> set[int]:
        return {monomial_weight(m) for m in self.terms}

    def degree(self) -> int:
        """Degree of a homogeneous element (0 for the zero element)."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop() if degs else 0

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda m: (monomial_weight(m), monomial_degree(m), monomial_sort_key(m)))
        return " + ".join(f"({self.terms[m].canonical_str()}) * {monomial_str(self.ctx, m)}" for m in keys)


def monomial_elem(ctx: DgaContext, mask: int = 0, gamma: int = 0,
                  coeff: GroupRingElement | int = 1) -> DgaElement:
    if gamma and ctx.case != "surface":
        raise ValueError("divided powers exist only in the surface case")
    if gamma < 0:
        raise ValueError("divided-power index must be >= 0")
    if mask >> ctx.ngens:
        raise ValueError("mask uses generators beyond the context")
    if isinstance(coeff, int):
        coeff = ctx.ring.monomial((0,) * ctx.ring.nvars, coeff)
    if not coeff:
        return DgaElement(ctx, {})
    return DgaElement(ctx, {(mask, gamma): coeff})


def ext_gen(ctx: DgaContext, i: int) -> DgaElement:
    """The i-th exterior generator (0-based, in the fixed generator order)."""
    if not 0 <= i < ctx.ngens:
        raise ValueError("generator index out of range")
    return monomial_elem(ctx, 1 << i)


def gamma_power(ctx: DgaContext, s: int) -> DgaElement:
    return monomial_elem(ctx, 0, s)


# Single sources of the boundary convention and the divided-power rule;
# the convention-flip tests patch these.

def _ext_boundary_coeff(ctx: DgaContext, i: int) -> GroupRingElement:
    return ctx.ring.one() - ctx.ring.gen(i)


def _gamma_product_coeff(a: int, b: int) -> int:
    return math.comb(a + b, a)


def _lambda_coeff(ctx: DgaContext, i: int) -> GroupRingElement:
    """Coefficient of the i-th exterior generator in lam."""
    g = ctx.size
    if i < g:
        return ctx.ring.one() - ctx.ring.gen(g + i)  # (1 - y_{i+1}) e_{i+1}
    return ctx.ring.gen(i - g) - ctx.ring.one()  # -(1 - x_{i+1}) f_{i+1}


def _merge_sign(m1: int, m2: int) -> int:
    """Koszul sign of sorting the concatenation of two disjoint masks."""
    inv = 0
    m = m2
    while m:
        i = (m & -m).bit_length() - 1
        inv += (m1 >> (i + 1)).bit_count()
        m &= m - 1
    return -1 if inv & 1 else 1


def dga_mul(a: DgaElement, b: DgaElement) -> DgaElement:
    """Graded-commutative product; zero on repeated exterior generators.

    ``groupring.add_product`` adds every ``sign * binomial * c1 * c2`` into
    the packed terms of its target monomial; each nonzero sum is wrapped once.
    """
    a._check_ctx(b)
    acc: dict[Monomial, dict[int, int]] = {}
    for (m1, s1), c1 in a.terms.items():
        items1 = c1.packed.items()
        for (m2, s2), c2 in b.terms.items():
            if m1 & m2:
                continue
            scale = _gamma_product_coeff(s1, s2) if s1 or s2 else 1
            if _merge_sign(m1, m2) < 0:
                scale = -scale
            add_product(acc.setdefault((m1 | m2, s1 + s2), {}), items1, c2.packed.items(), scale)
    return _wrap(a.ctx, acc)


def _wrap(ctx: DgaContext, acc: dict[Monomial, dict[int, int]]) -> DgaElement:
    ring = ctx.ring
    return DgaElement(ctx, {m: GroupRingElement(ring, t) for m, t in acc.items() if t})


class KeyMonomials:
    """The index that sends each key ``mask | s << ngens`` back to its monomial
    ``(mask, s)``: the target index of ``boundary``'s walk, and the name of a
    key missing from a matrix's target index."""

    __slots__ = ("ngens",)

    def __init__(self, ngens: int):
        self.ngens = ngens

    def __getitem__(self, key: int) -> Monomial:
        return key & ((1 << self.ngens) - 1), key >> self.ngens


def lambda_image(sources: Iterable[Monomial], table: CoefficientTable,
                 index: Mapping[int, object], cols: Iterable[dict]) -> None:
    """Write lam * (mask, s) into the column of each source, without divided-power
    factors: ``col[index[key]] = coefficient``, ``col`` the dict that ``cols``
    yields beside the source, for the key ``key = mask | s << ngens`` of each
    target, ``ngens = len(table[0])``.  The matrix builders call it once per
    walk, over all its sources.

    Generator i moves past the bits of ``mask`` below it, so its sign is
    their parity; for s = 0 this is ``dga_mul(lam, m)``.
    """
    ngens = len(table[0])
    gens = [(1 << i, pair) for i, pair in enumerate(table[1])]
    for (mask, s), col in zip(sources, cols):
        key = mask | s << ngens
        neg = 0
        for bit, pair in gens:
            if mask & bit:
                neg ^= 1
            else:
                col[index[key | bit]] = pair[neg]


def monomial_boundary(sources: Iterable[Monomial], table: CoefficientTable,
                      index: Mapping[int, object], cols: Iterable[dict]) -> None:
    """Write d of each unit-coefficient source monomial into its column:
    ``col[index[key]] = coefficient`` for each target's key, as in
    ``lambda_image``, the Koszul terms first and then the lam terms.

    A column's targets are distinct and its coefficients are the table's own
    objects.  The Koszul signs of d and the rule d(g^(s)) = lam * g^(s-1)
    live here only; ``boundary`` and the matrix builders both call this,
    once per walk.  The lam terms are ``lambda_image``'s loop on the key of
    ``(mask, s - 1)``, inlined so that each column is written in one pass and
    ``sources`` is walked once.
    """
    ext, lam = table
    ngens = len(ext)
    gens = [(1 << i, pair) for i, pair in enumerate(lam)]
    for (mask, s), col in zip(sources, cols):
        key = mask | s << ngens
        neg = 0
        rest = mask
        while rest:
            low = rest & -rest
            col[index[key ^ low]] = ext[low.bit_length() - 1][neg]
            neg ^= 1
            rest ^= low
        if s:
            # d(g^(s)) = lam * g^(s-1), carried past the exterior part
            key -= 1 << ngens
            neg = 0
            for bit, pair in gens:
                if mask & bit:
                    neg ^= 1
                else:
                    col[index[key | bit]] = pair[neg]


def boundary(a: DgaElement) -> DgaElement:
    """The boundary derivation; lowers degree by 1 and preserves weight.

    Each monomial's pairs come from ``ctx.boundary_pairs``, filled when the
    monomial is first met by one walk of ``monomial_boundary`` over it, and
    ``groupring.add_product`` adds every ``c * unit`` into the packed terms
    of its target monomial, as in ``dga_mul``.
    """
    ctx = a.ctx
    pairs = ctx.boundary_pairs
    acc: dict[Monomial, dict[int, int]] = {}
    for m, c in a.terms.items():
        image = pairs.get(m)
        if image is None:
            col: dict[Monomial, GroupRingElement] = {}
            monomial_boundary((m,), ctx.table, KeyMonomials(ctx.ngens), [col])
            image = pairs[m] = [(key, unit.packed.items()) for key, unit in col.items()]
        items = c.packed.items()
        for key, unit in image:
            add_product(acc.setdefault(key, {}), items, unit)
    return _wrap(ctx, acc)


def lambda_element(ctx: DgaContext) -> DgaElement:
    """lam = sum_i ((1 - y_i) e_i - (1 - x_i) f_i) in the surface context ``ctx``,
    with the coefficients of ``ctx.table``; the boundary of the lifted 2-cell."""
    if ctx.case != "surface":
        raise ValueError("lam lives in the surface algebra")
    return DgaElement(ctx, {(1 << i, 0): c for i, (c, _) in enumerate(ctx.table[1])})


def sigma_element(ctx: DgaContext, m: int) -> DgaElement:
    """m-th elementary symmetric polynomial in the products e_i f_i, in the
    surface context ``ctx``.

    sigma_0 is the unit; valid range is 0 <= m <= g.
    """
    if ctx.case != "surface":
        raise ValueError("sigma lives in the surface algebra")
    g = ctx.size
    if not 0 <= m <= g:
        raise ValueError(f"sigma index {m} out of range 0..{g}")
    if m == 0:
        return monomial_elem(ctx, 0, 0)
    out = DgaElement(ctx, {})
    for combo in itertools.combinations(range(g), m):
        term = monomial_elem(ctx, 0, 0)
        for i in combo:
            term = dga_mul(term, dga_mul(ext_gen(ctx, i), ext_gen(ctx, g + i)))
        out = out + term
    return out
