"""Builders for the chain complexes as based free modules with sparse matrices.

Every complex is stored chain-style: ``boundaries[i]`` is the matrix of the
map from degree i to degree i-1, columns indexed by the degree-i basis in
canonical order (column-major storage by source basis).

Cases:

* ``wedge``: the truncated complex of the symmetric powers of a wedge of
  n circles; degree-i basis is the i-subsets of e1..en.
* ``surface-cover``: the universal-cover complex of the k-th symmetric
  power of a genus-g surface; degree-i basis is all monomials of internal
  degree i and weight <= k.
* ``quotient-Q``: the multiplication-by-lam complex
  C_0 -> C_1 -> .. -> C_min(k,2g) on the exterior modules over the surface
  ring, stored reversed so boundaries lower the stored index; stored index
  j corresponds to cochain position (top - j).

The builders are table-driven: the context's ``DgaContext.table`` holds
each generator's boundary and lam coefficient with its negative, and each
source monomial's image comes from ``dga.monomial_boundary`` or
``dga.lambda_image``, so no group-ring arithmetic runs per entry.  Each
boundary keeps its bases, its rule and its context's table.  Only the
builders make a (fresh) context; ``lambda_matrix`` and
``exterior_boundary_matrix`` take their caller's.  ``operator_matrix``
builds the same matrices element by element and stays as their oracle.

Every ``SparseRingMatrix`` is stored one way, as a rule over a coefficient
table: a builder's over its context's table, one of explicit entries
(``compose``, ``operator_matrix``, the tests) over a table of its distinct
entry objects.  Every view is one walk, ``SparseRingMatrix._columns``, with a
coefficient function, and gives columns: the value at a point
(``specialize_columns``), the summed-mod-N block over ``Z[(Z/N)^m]``
(``base_change``) and over ``F_2[pi]/I^2`` (``first_order_columns``), both
laid out by ``_expand_blocks`` from cells given as (column, row), the entry
itself (``entries``) and its text (export).  Rows are a transpose of columns:
the dense ``specialize`` and, by ``_transpose``, the bottom half of
``homology._cleared_ranks``.  A walk maps only the table, each distinct
object once, and calls the rule once, over every source it is not told to skip:
the rule writes each source's column straight into its dict, looking each
target up by the integer key ``mask | s << ngens`` (``_target_index``), so no
view but ``entries`` builds a builder's entries; only ``compose``, ``entry``
and the tests read them.  ``base_change_nonzeros`` counts the terms of the
same walk on the table itself.  The last mapped table is kept on the builder's
context (``DgaContext.last_view``), or on the explicit matrix itself; the
target index is built afresh for each walk.
``base_change`` refuses, from the entries' term counts before it builds a
column, more than ``MAX_BASE_CHANGE_NONZEROS`` nonzeros, and so does
``check_base_change`` over every boundary of a complex; each builder refuses,
from a closed form before it enumerates, any complex of more than
``MAX_CELLS`` cells (``check_cells``).

The cover builder enumerates its bases in one pass over exterior sizes: each
size j <= min(k, 2g) is enumerated once, and its masks go, with each divided
power s <= k - j, to degree j + 2s.  Sizes ascend, so every degree comes out
in ``monomial_sort_key`` order, and a build costs time linear in its cells.

Chain-level Poincare duality.  A builder marks a complex of top degree
``top`` self-dual (``ChainComplex.duality``) when a pairing ``phi`` maps each
basis ``C_i`` bijectively onto ``C_(top-i)`` and a sign ``tau`` of the
monomials gives, for every entry ``a = d_i[m', m]`` (``m`` in ``C_i``),

    d_(top+1-i)[phi(m), phi(m')] = tau(m) tau(m') a,

and ``d_(top+1-i)`` has no entry besides these: it is ``d_i`` transposed,
with its rows and columns permuted and signed, over the same group-ring
elements.  This is the cellular form of Poincare duality for the closed
2k-manifold ``Sym^k`` of a surface (Hatcher, *Algebraic Topology*, 3.3).
Write ``eps_L(t)`` for ``(-1)^(bits of L below t)``.  Every entry of the
cover complex is a Koszul term ``(L, s) -> (L - t, s)`` with coefficient
``eps_L(t) d(t)``, or a lam-term ``(L - t, s + 1) -> (L, s)`` with
``eps_L(t) lam_t`` (the bits of ``L - t`` below ``t`` are those of ``L``).

* The cover complex, ``phi(mask, s) = (swap(mask), k - |mask| - s)``, where
  ``swap`` exchanges ``e_j`` and ``f_j``, and ``tau = (-1)^(a b + a + s)`` for a
  mask of ``a`` e's and ``b`` f's.  ``phi`` keeps the weight ``<= k`` and sends
  degree ``i`` to ``2k - i``.  It sends a Koszul term of ``t`` in ``L`` to the
  lam-term of ``t' = swap(t)`` in ``L' = swap(L)``, and a lam-term to a Koszul
  term.  The coefficients agree up to sign: ``lam_(f_j) = -d(e_j)`` and
  ``lam_(e_j) = d(f_j)``.  The positions give ``eps_L(t) eps_L'(t') = (-1)^b``
  for ``t = e_j`` (``f_j`` sits after the ``b`` e's of ``L'`` and the e's of
  ``L`` below ``j``) and ``(-1)^a`` for ``t = f_j``.  So the ratio of the
  two sides is ``-(-1)^b`` for the Koszul term of ``e_j`` at counts
  ``(a, b, s)``, ``(-1)^a`` for that of ``f_j``, ``(-1)^b`` for the lam-term
  of ``e_j`` into ``(a, b, s)`` and ``-(-1)^a`` for that of ``f_j``, and
  ``tau(m) tau(m')`` is each of these: ``(a, b, s)`` against ``(a - 1, b, s)``,
  ``(a, b - 1, s)``, ``(a - 1, b, s + 1)`` and ``(a, b - 1, s + 1)``.
* The full lam-complex ``Q(g, k >= 2g)`` and the full wedge complex
  ``wedge(n, n)``, ``phi(mask, 0) = (~mask, 0)`` within the generators, and
  ``tau = (-1)^(sum of the bit indices of mask)``.  The term of ``t`` between
  ``L - t`` and ``L`` goes to the one of ``t`` between ``~L`` and ``~L + t``,
  with the same coefficient ``d(t)`` or ``lam_t``, and ``eps_L(t) eps_(~L + t)(t)
  = (-1)^t`` counts every bit below ``t`` once: ``tau(L) tau(L - t)``.
  A truncated one has modules of unequal ranks at its ends, and no mark.

Hence at every point, over every field and under base change,
``rank d_(top+1-i) = rank d_i``, and ``homology`` ranks the half above the
middle degree only.  A finite cover is a view of its complex, so its routes
read the same mark: the block of a transposed entry ``a`` is ``B(a)^T =
B(a(g^-1)) = J B(a) J``, with ``J`` the inversion permutation ``b -> -b`` of
``(Z/N)^m``, so the base-changed ``d_(top+1-i)`` is ``d_i``'s transpose up
to signed permutations of its rows and columns, with the same rank and
Smith normal form.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable, Container, Iterable, Mapping
from operator import mul

from .dga import (
    CoefficientTable,
    DgaContext,
    DgaElement,
    KeyMonomials,
    Monomial,
    lambda_image,
    monomial_boundary,
    monomial_str,
    surface_context,
    wedge_context,
)
from .groupring import GroupRingElement, LaurentRing, UnitSpecialization, _translation
from .records import Record

# A monomial rule, run once per walk: ``rule(sources, table, index, cols)``
# writes ``col[index[key]] = coefficient`` for each target monomial ``(mask,
# s)`` of each source, into the dict ``col`` that ``cols`` yields beside it,
# with ``key = mask | s << ngens``, ``ngens = len(table[0])`` and the
# coefficient drawn from ``table``.  ``sources`` and ``cols`` may be any
# iterables, taken in step once; a target missing from ``index`` raises
# KeyError before any value is tested.
Rule = Callable[[Iterable, CoefficientTable, Mapping[int, object], Iterable[dict]], None]

# Most nonzeros one base change may build, over every boundary of a complex
# (``check_base_change``, which both integer routes call first) or over one
# matrix (``SparseRingMatrix.base_change``), as bounded by
# ``SparseRingMatrix.base_change_nonzeros`` (which equalled the built count on
# every cover measured).  On a 2-vCPU x86_64 host with CPython
# 3.11, net of the 16 MB interpreter, peak RSS per nonzero was 126-231 bytes
# for the Q ranks of theorem-main at (g, k, N) = (4,3,2), (3,3,3), (3,2,4) and
# (4,4,2), and 307-339 bytes for the Smith normal form of cover(4, 3) at N=2
# and cover(3, 3) at N=3: at this cap the SNF stays near 1 GB.
MAX_BASE_CHANGE_NONZEROS = 3_000_000

# Most cells (basis monomials over all degrees) one build may enumerate.  On a
# 2-vCPU x86_64 host with CPython 3.11, building cover(10, 10), 1,540,446 cells,
# took 1.0 s CPU and 154 MB peak RSS.  Generic homology (the CLI job, build
# included) took 61 MB and 0.35 s CPU on the 218,790 cells of cover(9, 8) and
# 204 MB and 1.8 s on the 923,780 of cover(10, 9), about 205 bytes a cell net
# of the 16 MB interpreter.
# At low genus each of the 2k+1 degrees costs a module and a boundary of its
# own: cover(2, 124,000), 1,983,984 cells, took 2.7 s and 315 MB, and
# cover(1, 499,999), 1,999,996 cells, 6.6 s and 735 MB.  So at this cap a
# build stays under 1 GB, and at high genus its generic homology near 0.4 GB.
MAX_CELLS = 2_000_000


class BasedFreeModule(Record):
    _fields = ("degree", "basis")
    degree: int
    basis: tuple[Monomial, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


class SparseRingMatrix:
    """Sparse matrix with group-ring entries; rows = target, cols = source.

    Every matrix is stored as a rule over a coefficient table (``_rule``:
    sources, targets, rule, table, view slot), and every view walks it.
    ``SparseRingMatrix(ring, rows, cols, entries)`` checks that each explicit
    entry is in range and nonzero, keeps ``entries``, and makes the rule
    ``_explicit_image`` over a one-part table holding ``(v, v)`` for each
    distinct entry object.  The table-driven builders use ``from_rule``
    instead: they keep the source and target bases, the monomial rule and
    their context's coefficient table, and build ``entries`` from them only
    when it is read.
    """

    __slots__ = ("ring", "rows", "cols", "_entries", "_rule", "_terms")

    def __init__(self, ring: LaurentRing, rows: int, cols: int,
                 entries: dict[tuple[int, int], GroupRingElement]):
        index: dict[int, int] = {}  # table index of each distinct entry object, by id
        columns: list[list[tuple[int, int]]] = [[] for _ in range(cols)]
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError("entry index out of range")
            if not v:
                raise ValueError("stored entries must be nonzero")
            columns[c].append((r, index.setdefault(id(v), len(index))))
        table = tuple({id(v): (v, v) for v in entries.values()}.values())
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._entries = entries
        self._terms = None
        self._rule = (tuple(map(tuple, columns)), range(rows), _explicit_image, (table,), [None, None])

    @classmethod
    def from_rule(cls, ctx: DgaContext, src: tuple[Monomial, ...], tgt: tuple[Monomial, ...],
                  image: Rule) -> SparseRingMatrix:
        """Matrix over ``ctx.ring`` sending ``src[c]`` to the column that the
        rule ``image`` writes for it over ``ctx.table``, in the basis ``tgt``.

        Nothing is evaluated here; its entries are in range and nonzero by
        construction, so they skip the constructor's checks.
        """
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols = ctx.ring, len(tgt), len(src)
        m._entries = m._terms = None
        m._rule = (src, tgt, image, ctx.table, ctx.last_view)
        return m

    @property
    def entries(self) -> dict[tuple[int, int], GroupRingElement]:
        """``{(r, c): entry}`` in column-major order; a rule-backed matrix builds it once."""
        if self._entries is None:
            self._entries = _column_major(self._columns("entries", lambda v: v, None))
        return self._entries

    def entry(self, r: int, c: int) -> GroupRingElement:
        return self.entries.get((r, c), self.ring.zero())

    def compose(self, other: SparseRingMatrix) -> SparseRingMatrix:
        """self @ other, for checking d o d = 0 and for lemma-cohomology's kernel
        check (the next lam-map times lam*sigma_m); its entries are column-major."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        acc: dict[tuple[int, int], GroupRingElement] = {}
        # group self's entries by column index for the middle sum
        self_by_col: dict[int, list[tuple[int, GroupRingElement]]] = {}
        for (r, c), v in self.entries.items():
            self_by_col.setdefault(c, []).append((r, v))
        for (m, c), v in other.entries.items():
            for r, w in self_by_col.get(m, ()):
                key = (r, c)
                cur = acc.get(key)
                cur = w * v if cur is None else cur + w * v
                if cur:
                    acc[key] = cur
                else:
                    acc.pop(key, None)
        entries = dict(sorted(acc.items(), key=lambda cell: cell[0][::-1]))
        return SparseRingMatrix(self.ring, self.rows, other.cols, entries)

    def _columns(self, key: object, value: Callable[[GroupRingElement], object],
                 negate: Callable[[object], object] | None, skip: Container[int] = ()) -> list[dict[int, object]]:
        """Columns ``{row: value(entry)}``, those in ``skip`` left out; a falsy
        value is not stored.

        The matrix maps only its table (``_mapped_rule``) and runs its rule
        once, over the sources not in ``skip``, on the mapped table, as it
        would on the table itself: the rule only moves the table's values
        about, so no entry is built.
        """
        src, image, mapped, index = self._mapped_rule(key, value, negate)
        n = len(src)
        if skip:
            # a generator of the kept sources: a list of them, freed after the
            # walk, leaves a hole under the columns (0.9 MB peak RSS at cover(10, 9))
            n -= sum(map(skip.__contains__, range(n)))
            src = (m for c, m in enumerate(src) if c not in skip)
        cols = _walk(image, src, mapped, index, [{} for _ in range(n)])
        if not all(x for part in mapped for pair in part for x in pair):
            cols = [{r: x for r, x in col.items() if x} for col in cols]
        return cols

    def _mapped_rule(self, key: object, value: Callable[[GroupRingElement], object],
                     negate: Callable[[object], object] | None) -> tuple:
        """The sources, the rule, the table with each ``c`` mapped to ``value(c)``
        (each pair ``(c, -c)`` to ``(x, negate(x))`` when ``negate`` is given)
        and the target index ``{key: row}``.  An object paired with itself, as
        every entry of an explicit table is, is mapped once.  The boundaries of
        a complex are mapped with one key in turn, so the context's
        ``last_view`` keeps the last mapping; an explicit matrix keeps its own."""
        src, tgt, image, table, view = self._rule
        if view[0] != key:
            def pair(c: GroupRingElement, n: GroupRingElement) -> tuple[object, object]:
                x = value(c)
                return x, (x if n is c else value(n) if negate is None else negate(x))

            view[:] = key, tuple(tuple(pair(c, n) for c, n in part) for part in table)
        return src, image, view[1], _target_index(tgt, len(table[0]))

    def specialize_columns(self, spec: UnitSpecialization,
                           skip: Container[int] = ()) -> list[dict[int, int]]:
        """Columns ``{row: value}`` of the entrywise evaluations mod spec.prime,
        those in ``skip`` left out; the rule does not run on a source that is
        left out.  A value of 0 (``1 - x_i`` at ``x_i = 1``) is not stored,
        since the rank kernel takes every stored value for a pivot candidate.
        """
        p = spec.prime
        return self._columns(spec, lambda v: v.specialize(spec), lambda x: -x % p, skip)

    def specialize(self, spec: UnitSpecialization) -> list[list[int]]:
        """Dense rows of ``specialize_columns(spec)``, for the dense mod-p helpers."""
        M = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.specialize_columns(spec)):
            for r, x in col.items():
                M[r][c] = x
        return M

    def base_change_nonzeros(self, N: int) -> int:
        """Bound on the nonzeros of ``base_change(N)``, from the entries' term
        counts and before any column is built: each term puts one value in each of
        the ``N^m`` columns of its block, and terms that meet mod N only merge.
        The rule runs on the table itself, so the mapped table kept for the
        views stays as it is, and only on the first call: the term count does
        not depend on ``N``."""
        if self._terms is None:
            src, tgt, image, table, _ = self._rule
            cols = _walk(image, src, table, _target_index(tgt, len(table[0])), [{} for _ in src])
            self._terms = sum(len(v.packed) for col in cols for v in col.values())
        return self._terms * N ** self.ring.nvars

    def base_change(self, N: int) -> list[dict[int, int]]:
        """Columns ``{row: value}`` of the entrywise ``finite_quotient`` blocks; ranks multiply by N^m.

        Term ``c_e x^e`` of an entry puts ``c_e`` at column ``b`` and row
        ``index(b + e mod N)`` of its block, for every b, its cells given as
        (column, row).  Terms are first summed by ``e mod N``, so terms that
        meet add, a zero sum is dropped, and every cell is written at most once.
        """
        _check_base_change_nonzeros(self.base_change_nonzeros(N), f"a {self.rows} x {self.cols} matrix", N)

        def block(v: GroupRingElement) -> list[tuple[int, int, int]]:
            terms: dict[tuple[int, ...], int] = {}
            for exps, coeff in v.terms.items():
                e = tuple(x % N for x in exps)
                terms[e] = terms.get(e, 0) + coeff
            return [(b, t, coeff) for e, coeff in terms.items() if coeff
                    for b, t in enumerate(_translation(e, N))]

        return _expand_blocks(self._columns(("base_change", N), block, None), N ** self.ring.nvars)

    def first_order_columns(self) -> list[dict[int, int]]:
        """Columns ``{row: 1}`` over F_2 of the matrix over ``F_2[pi]/I^2`` (``I`` the
        augmentation ideal), on the basis ``1, x_1 - 1, .., x_n - 1``.  Mod ``I^2``,
        ``x^e = 1 + sum e_i (x_i - 1)``, negative ``e_i`` included, so entry ``sum c x^e``
        at (r, c) becomes the block ``[[a, 0], [l, a I]]`` of its multiplication map,
        ``a = sum c`` and ``l_i = sum c e_i`` mod 2, at rows ``r*(1+n)..`` and columns
        ``c*(1+n)..``, its cells given as (column, row): a ring homomorphism.
        """
        bs = 1 + self.ring.nvars

        def block(v: GroupRingElement) -> list[tuple[int, int, int]]:
            terms = v.terms
            coeffs = terms.values()
            ell = (sum(map(mul, exps, coeffs)) for exps in zip(*terms))
            cells = [(i, i, 1) for i in range(bs)] if sum(coeffs) & 1 else []
            return cells + [(0, i, 1) for i, x in enumerate(ell, 1) if x & 1]

        return _expand_blocks(self._columns("first_order_columns", block, None), bs)


class Duality(Record):
    """A chain-level Poincare duality (module docstring): ``pair`` maps each
    monomial of ``C_i`` to one of ``C_(top-i)``, and ``sign`` gives its +-1."""

    _fields = ("pair", "sign")
    pair: Callable[[Monomial], Monomial]
    sign: Callable[[Monomial], int]


class ChainComplex:
    def __init__(self, case: str, params: dict[str, int], ctx: DgaContext,
                 modules: list[BasedFreeModule], boundaries: list[SparseRingMatrix | None],
                 duality: Duality | None = None):
        self.case = case  # wedge | surface-cover | quotient-Q
        self.params = params
        self.ctx = ctx
        self.modules = modules
        self.boundaries = boundaries  # boundaries[i]: degree i -> i-1; [0] is None
        self.duality = duality  # set by the builders on the self-dual complexes only

    @property
    def top_degree(self) -> int:
        return len(self.modules) - 1

    @property
    def ranks(self) -> list[int]:
        return [m.rank for m in self.modules]

    def boundary_matrix(self, i: int) -> SparseRingMatrix:
        if not 1 <= i <= self.top_degree:
            raise ValueError(f"degree {i} out of range 1..{self.top_degree}")
        return self.boundaries[i]


def _explicit_image(sources: Iterable[tuple[tuple[int, int], ...]], table: CoefficientTable,
                    index: Mapping[int, object], cols: Iterable[dict]) -> None:
    """The rule of an explicit matrix: each source is one column's ``(row, table
    index)`` pairs, and each row gets the value its index holds in ``table``."""
    part = table[0]
    for cells, col in zip(sources, cols):
        for r, i in cells:
            col[index[r]] = part[i][0]


def _target_index(tgt: tuple[Monomial, ...] | range, ngens: int) -> dict[int, int]:
    """``{mask | s << ngens: row}`` of the target basis, the index every rule
    looks its targets up in.  A target with ``s = 0`` is keyed by its own mask
    object, so only the others cost a new int (5 MB peak RSS at cover(10, 9)).
    An explicit matrix's targets are ``range(rows)``, each row its own key,
    so that it holds no monomial per row."""
    if type(tgt) is range:
        return dict(zip(tgt, tgt))
    return {mask | s << ngens if s else mask: r for r, (mask, s) in enumerate(tgt)}


def _walk(image: Rule, sources: Iterable, table: CoefficientTable, index: Mapping[int, object],
          cols: Iterable[dict]) -> Iterable[dict]:
    """``cols``, after one run of ``image`` on ``table`` has written each
    source's column ``{index[key]: value}`` into them; a target missing from
    ``index`` raises ``ValueError`` naming its monomial."""
    try:
        image(sources, table, index, cols)
    except KeyError as e:
        monomial = KeyMonomials(len(table[0]))[e.args[0]]
        raise ValueError(f"operator image leaves the target basis: {monomial}") from None
    return cols


def _transpose(vectors: list[dict[int, object]], n: int, skip: Container[int] = ()) -> list[dict[int, object]]:
    """The ``n`` vectors of the transpose of ``vectors``, those in ``skip`` left
    out: the rows ``{col: value}`` of the columns ``{row: value}``, or the other
    way round.  It takes ``vectors`` over and frees each once it is scattered."""
    out: list[dict[int, object]] = [{} for _ in range(n)]
    for i, v in enumerate(vectors):
        vectors[i] = None
        for j, x in v.items():
            out[j][i] = x
    return [w for j, w in enumerate(out) if j not in skip] if skip else out


def _column_major(cols: list[dict[int, object]]) -> dict[tuple[int, int], object]:
    """``{(r, c): value}`` of the columns in column-major order, rows ascending in a column."""
    return {(r, c): col[r] for c, col in enumerate(cols) for r in sorted(col)}


def _expand_blocks(cols: list[dict[int, list[tuple[int, int, int]]]],
                   bs: int) -> list[dict[int, int]]:
    """Columns ``{row: value}`` of the matrix whose entry at (r, c) is the ``bs x bs``
    block of cells ``(j, i, value)``, given as (column, row), at ``(r*bs + i, c*bs + j)``."""
    out: list[dict[int, int]] = []
    for col in cols:
        block: list[dict[int, int]] = [{} for _ in range(bs)]
        for r, cells in col.items():
            r0 = r * bs
            for j, i, x in cells:
                block[j][r0 + i] = x
        out += block
    return out


def operator_matrix(src: tuple[Monomial, ...], tgt: tuple[Monomial, ...],
                    ring: LaurentRing, fn: Callable[[Monomial], DgaElement]) -> SparseRingMatrix:
    """Matrix of a monomial-wise operator in the given bases (column-major)."""
    index = {m: i for i, m in enumerate(tgt)}
    entries: dict[tuple[int, int], GroupRingElement] = {}
    for c, mono in enumerate(src):
        img = fn(mono)
        for m, coeff in sorted(img.terms.items(), key=lambda kv: index.get(kv[0], -1)):
            if m not in index:
                raise ValueError(f"operator image leaves the target basis: {m}")
            entries[(index[m], c)] = coeff
    return SparseRingMatrix(ring, len(tgt), len(src), entries)


def _boundary_matrices(ctx: DgaContext, modules: list[BasedFreeModule],
                       image: Rule = monomial_boundary) -> list[SparseRingMatrix | None]:
    """``[None, d_1, .., d_top]`` over ``ctx.table``: ``d_i`` sends each monomial
    of ``modules[i]`` to the column that ``image`` writes for it in ``modules[i - 1]``."""
    return [None] + [SparseRingMatrix.from_rule(ctx, modules[i].basis, modules[i - 1].basis, image)
                     for i in range(1, len(modules))]


def _check_base_change_nonzeros(nonzeros: int, name: str, N: int) -> None:
    """Refuse a base change bounded by more than MAX_BASE_CHANGE_NONZEROS nonzeros."""
    if nonzeros > MAX_BASE_CHANGE_NONZEROS:
        raise ValueError(f"base change of {name} at N={N} would build up to {nonzeros:,} nonzeros, "
                         f"over the limit of {MAX_BASE_CHANGE_NONZEROS:,} nonzeros")


def check_cells(ctx: DgaContext, k: int, divided_powers: bool, name: str) -> None:
    """Refuse, before enumerating anything, more than MAX_CELLS monomials of weight
    <= k over ``ctx``: ``C(ngens, j)`` of each exterior size ``j``, each with the
    ``k - j + 1`` divided powers ``g^(0..k-j)`` when ``divided_powers``."""
    cells = sum(math.comb(ctx.ngens, j) * (k - j + 1 if divided_powers else 1)
                for j in range(min(k, ctx.ngens) + 1))
    if cells > MAX_CELLS:
        raise ValueError(f"{name} would have {cells:,} cells, over the limit of {MAX_CELLS:,} cells")


def check_base_change(c: ChainComplex, N: int) -> None:
    """Refuse the ``(Z/N)^m``-cover of ``c`` before any column is built: ``N < 1``,
    or more than MAX_BASE_CHANGE_NONZEROS nonzeros as bounded over all its
    boundaries by ``SparseRingMatrix.base_change_nonzeros``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_base_change_nonzeros(sum(M.base_change_nonzeros(N) for M in c.boundaries[1:]),
                                f"the {c.case} complex", N)


def _exterior_basis(ctx: DgaContext, size: int) -> tuple[Monomial, ...]:
    """The ``size``-subsets of the generators in ``monomial_sort_key`` order:
    ``combinations`` yields the bit values' tuples in lexicographic order."""
    bits = [1 << i for i in range(ctx.ngens)]
    return tuple(zip(map(sum, itertools.combinations(bits, size)), itertools.repeat(0)))


def build_wedge_complex(n: int, k: int) -> ChainComplex:
    """Truncated complex of Sym-powers of a wedge of n circles, degrees 0..k."""
    ctx = wedge_context(n)
    if not 0 <= k <= n:
        raise ValueError(f"truncation k={k} out of range 0..{n} (no cells beyond degree n)")
    check_cells(ctx, k, False, f"the wedge complex at n={n}, k={k}")
    modules = [BasedFreeModule(i, _exterior_basis(ctx, i)) for i in range(k + 1)]
    return ChainComplex("wedge", {"n": n, "k": k}, ctx, modules, _boundary_matrices(ctx, modules),
                        _complement_duality(ctx) if k == n else None)


def build_cover_complex(g: int, k: int) -> ChainComplex:
    """Universal-cover complex of the k-th symmetric power of a genus-g surface.

    Degree-i basis: monomials of internal degree i and weight <= k, for i in
    0..2k (each nonempty, as g >= 1), built in one pass over exterior sizes.
    """
    ctx = surface_context(g)
    if k < 0:
        raise ValueError("k must be >= 0")
    check_cells(ctx, k, True, f"the cover complex at g={g}, k={k}")
    bases: list[list[Monomial]] = [[] for _ in range(2 * k + 1)]
    for j in range(min(k, ctx.ngens) + 1):
        masks = [mask for mask, _ in _exterior_basis(ctx, j)]
        for s in range(k - j + 1):
            bases[j + 2 * s].extend((mask, s) for mask in masks)
    modules = [BasedFreeModule(i, tuple(b)) for i, b in enumerate(bases)]
    return ChainComplex("surface-cover", {"g": g, "k": k}, ctx, modules, _boundary_matrices(ctx, modules),
                        _cover_duality(g, k))


def _cover_duality(g: int, k: int) -> Duality:
    """``(mask, s) -> (swap(mask), k - |mask| - s)``, with sign ``(-1)^(a b + a + s)``
    for ``a`` e's and ``b`` f's in ``mask`` (module docstring)."""
    low = (1 << g) - 1

    def pair(m: Monomial) -> Monomial:
        mask, s = m
        return (mask >> g) | (mask & low) << g, k - mask.bit_count() - s

    def sign(m: Monomial) -> int:
        mask, s = m
        a, b = (mask & low).bit_count(), (mask >> g).bit_count()
        return -1 if (a * b + a + s) & 1 else 1

    return Duality(pair, sign)


def _complement_duality(ctx: DgaContext) -> Duality:
    """``(mask, 0) -> (~mask, 0)`` within the generators of ``ctx``, with sign
    ``(-1)^(sum of the bit indices of mask)`` (module docstring)."""
    full = (1 << ctx.ngens) - 1

    def pair(m: Monomial) -> Monomial:
        return full ^ m[0], 0

    def sign(m: Monomial) -> int:
        mask = m[0]
        return -1 if sum(i for i in range(mask.bit_length()) if mask >> i & 1) & 1 else 1

    return Duality(pair, sign)


def lambda_matrix(ctx: DgaContext, size: int) -> SparseRingMatrix:
    """Matrix of left multiplication by lam from exterior degree ``size`` to ``size + 1``."""
    if ctx.case != "surface":
        raise ValueError("lam lives in the surface algebra")
    src = _exterior_basis(ctx, size)
    tgt = _exterior_basis(ctx, size + 1)
    return SparseRingMatrix.from_rule(ctx, src, tgt, lambda_image)


def exterior_boundary_matrix(ctx: DgaContext, size: int) -> SparseRingMatrix:
    """Boundary from exterior degree ``size`` to ``size - 1`` over the context ``ctx``.

    Over a surface context this is the wedge complex on the 2g one-cells in
    the surface labeling (the gamma-free part of the cover complex).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    src = _exterior_basis(ctx, size)
    tgt = _exterior_basis(ctx, size - 1)
    return SparseRingMatrix.from_rule(ctx, src, tgt, monomial_boundary)


def build_Q_complex(g: int, k: int) -> ChainComplex:
    """The lam-multiplication complex C_0 -> C_1 -> .. -> C_top, top = min(k, 2g).

    Stored reversed (chain-style) so the homology engines consume it
    uniformly: stored index j holds exterior degree (top - j), and
    ``boundaries[j]`` is multiplication by lam from exterior degree
    (top - j) to (top - j + 1).
    """
    ctx = surface_context(g)
    if k < 1:
        raise ValueError("k must be >= 1")
    check_cells(ctx, k, False, f"the lam-complex at g={g}, k={k}")
    top = min(k, 2 * g)
    modules = [BasedFreeModule(j, _exterior_basis(ctx, top - j)) for j in range(top + 1)]
    return ChainComplex("quotient-Q", {"g": g, "k": k, "top": top}, ctx, modules,
                        _boundary_matrices(ctx, modules, lambda_image),
                        _complement_duality(ctx) if top == 2 * g else None)


# ---------------------------------------------------------------------------
# Export format: SYMPOW-COMPLEX v1 (text) and a JSON mirror.

def _header_params(c: ChainComplex) -> tuple[str, int, int]:
    tag = {"wedge": "wedge", "surface-cover": "cover", "quotient-Q": "q"}[c.case]
    gval = c.params.get("g", c.params.get("n"))
    return tag, gval, c.params["k"]


def _export_cells(mat: SparseRingMatrix) -> dict[tuple[int, int], str]:
    """``{(row, col): canonical_str}`` of the entries in column-major order; each
    object of the matrix's table is printed once."""
    return _column_major(mat._columns("canonical_str", GroupRingElement.canonical_str, None))


def export_text(c: ChainComplex) -> str:
    tag, gval, k = _header_params(c)
    lines = [f"SYMPOW-COMPLEX v1 case={tag} g={gval} k={k} degrees={c.top_degree + 1}"]
    for mod in c.modules:
        lines.append(f"MODULE {mod.degree} rank={mod.rank}")
        for mono in mod.basis:
            lines.append(monomial_str(c.ctx, mono))
    for i in range(1, len(c.modules)):
        cells = _export_cells(c.boundaries[i])
        lines.append(f"BOUNDARY {i} entries={len(cells)}")
        lines.extend(f"{r} {col} {text}" for (r, col), text in cells.items())
    return "\n".join(lines) + "\n"


def export_json_dict(c: ChainComplex) -> dict:
    tag, gval, k = _header_params(c)
    return {
        "format": "SYMPOW-COMPLEX",
        "version": 1,
        "case": tag,
        "g": gval,
        "k": k,
        "degrees": c.top_degree + 1,
        "modules": [
            {
                "degree": mod.degree,
                "rank": mod.rank,
                "basis": [monomial_str(c.ctx, mono) for mono in mod.basis],
            }
            for mod in c.modules
        ],
        "boundaries": [
            {
                "degree": i,
                "entries": [[r, col, text]
                            for (r, col), text in _export_cells(c.boundaries[i]).items()],
            }
            for i in range(1, len(c.modules))
        ],
    }


def export_json(c: ChainComplex) -> str:
    return json.dumps(export_json_dict(c), indent=2) + "\n"
