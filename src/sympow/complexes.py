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
boundary is rule-backed: it keeps its bases, its rule and its context's
table.  Only the builders make a (fresh) context; ``lambda_matrix`` and
``exterior_boundary_matrix`` take their caller's.  ``operator_matrix``
builds the same matrices element by element and stays as their oracle.

Every view of a matrix is one walk, ``SparseRingMatrix._rows``, with a
coefficient function: the value at a point (``specialize_rows``), the
summed-mod-N block over ``Z[(Z/N)^m]`` (``base_change``), the block over
``F_2[pi]/I^2`` (``first_order_rows``), the entry itself (``entries``) and
its text (export).  ``_columns`` walks the same mapped table by source, for
the values at a point by column (``specialize_columns``), and runs the rule
on no source it is told to skip.  A rule-backed matrix maps only its table
and runs the rule over the bases, so no view but ``entries`` builds the
entries; only ``compose``, ``entry`` and the tests read them.  The last
mapped table is kept on the matrix's context (``DgaContext.last_view``).
``base_change`` refuses, from the entries' term counts before it builds a
row, more than ``MAX_BASE_CHANGE_NONZEROS`` nonzeros, and each builder, from
a closed form before it enumerates, any complex of more than ``MAX_CELLS``
cells (``check_cells``).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable, Container, Iterator
from operator import mul

from .dga import (
    CoefficientTable,
    DgaContext,
    DgaElement,
    Monomial,
    lambda_image,
    monomial_boundary,
    monomial_str,
    surface_context,
    wedge_context,
)
from .groupring import GroupRingElement, LaurentRing, UnitSpecialization, _translation
from .records import Record

# A monomial rule: the (monomial, coefficient) pairs of one source monomial's
# image, with coefficients drawn from a coefficient table.
Rule = Callable[[Monomial, CoefficientTable], list[tuple[Monomial, object]]]

# Most nonzeros one base change may build, over all the matrices it returns,
# as bounded by ``SparseRingMatrix.base_change_nonzeros`` (which equalled the
# built count on every cover measured).  On a 2-vCPU x86_64 host with CPython
# 3.11, net of the 16 MB interpreter, peak RSS per nonzero was 126-231 bytes
# for the Q ranks of theorem-main at (g, k, N) = (4,3,2), (3,3,3), (3,2,4) and
# (4,4,2), and 307-339 bytes for the Smith normal form of cover(4, 3) at N=2
# and cover(3, 3) at N=3: at this cap the SNF stays near 1 GB.
MAX_BASE_CHANGE_NONZEROS = 3_000_000

# Most cells (basis monomials over all degrees) one build may enumerate.  On a
# 2-vCPU x86_64 host with CPython 3.11, building cover(10, 10), 1,540,446 cells,
# took 1.8 s CPU and 170 MB peak RSS, and generic homology took 108 MB on the
# 218,790 cells of cover(9, 8), about 450 bytes a cell: at this cap a build
# stays near 0.2 GB and its generic homology near 1 GB.
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

    ``SparseRingMatrix(ring, rows, cols, entries)`` holds explicit entries and
    checks that each is in range and nonzero.  The table-driven builders
    return rule-backed matrices instead (``from_rule``): they keep the source
    and target bases, the monomial rule and their context's coefficient
    table, and build ``entries`` from them only when it is read.
    """

    __slots__ = ("ring", "rows", "cols", "_entries", "_rule")

    def __init__(self, ring: LaurentRing, rows: int, cols: int,
                 entries: dict[tuple[int, int], GroupRingElement]):
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError("entry index out of range")
            if not v:
                raise ValueError("stored entries must be nonzero")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._entries = entries
        self._rule = None

    @classmethod
    def from_rule(cls, ctx: DgaContext, src: tuple[Monomial, ...], tgt: tuple[Monomial, ...],
                  image: Rule) -> SparseRingMatrix:
        """Matrix over ``ctx.ring`` sending ``src[c]`` to the pairs
        ``image(src[c], ctx.table)`` over ``tgt``.

        Nothing is evaluated here; its entries are in range and nonzero by
        construction, so they skip the constructor's checks.
        """
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols = ctx.ring, len(tgt), len(src)
        m._entries = None
        m._rule = (src, tgt, image, ctx.table, ctx.last_view)
        return m

    @property
    def entries(self) -> dict[tuple[int, int], GroupRingElement]:
        """``{(r, c): entry}`` in column-major order; a rule-backed matrix builds it once."""
        if self._entries is None:
            self._entries = _column_major(self._rows("entries", lambda v: v))
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

    def _rows(self, key: object, value: Callable[[GroupRingElement], object],
              negate: Callable[[object], object] | None = None) -> list[dict[int, object]]:
        """Rows ``{col: value(entry)}``; a falsy value is not stored.

        A rule-backed matrix maps only its table (``_mapped_rule``, once per
        ``key`` for its context) and runs its rule over the bases on the mapped
        table, as it would on the table itself: the rule only moves the
        table's values about, so no entry is built.  ``negate``, when given,
        derives the value of each pair's ``-c`` from that of ``c``.  Explicit
        entries are mapped once per distinct object, keyed by ``id``.
        """
        rows: list[dict[int, object]] = [{} for _ in range(self.rows)]
        if self._rule is None:
            for r, c, x in self._entry_cells(value):
                rows[r][c] = x
            return rows
        src, image, mapped, get = self._mapped_rule(key, value, negate)
        for c, mono in enumerate(src):
            for m, x in image(mono, mapped):
                r = get(m)
                if r is None:
                    raise ValueError(f"operator image leaves the target basis: {m}")
                if x:
                    rows[r][c] = x
        return rows

    def _columns(self, key: object, value: Callable[[GroupRingElement], object],
                 negate: Callable[[object], object] | None, skip: Container[int]) -> list[dict[int, object]]:
        """Columns ``{row: value(entry)}`` of ``_rows``, those in ``skip`` left
        out; the rule does not run on a source that is left out."""
        if self._rule is None:
            cols: list[dict[int, object]] = [{} for _ in range(self.cols)]
            for r, c, x in self._entry_cells(value):
                cols[c][r] = x
            return [col for c, col in enumerate(cols) if c not in skip]
        cols = []
        src, image, mapped, get = self._mapped_rule(key, value, negate)
        for c, mono in enumerate(src):
            if c in skip:
                continue
            col = {}
            for m, x in image(mono, mapped):
                r = get(m)
                if r is None:
                    raise ValueError(f"operator image leaves the target basis: {m}")
                if x:
                    col[r] = x
            cols.append(col)
        return cols

    def _mapped_rule(self, key: object, value: Callable[[GroupRingElement], object],
                     negate: Callable[[object], object] | None) -> tuple:
        """The sources, the rule, the table with each ``c`` mapped to ``value(c)``
        (each pair ``(c, -c)`` to ``(x, negate(x))`` when ``negate`` is given)
        and the target lookup.  The boundaries of a complex are mapped with one
        key in turn, so the context's ``last_view`` keeps the last mapping."""
        src, tgt, image, table, view = self._rule
        if view[0] != key:
            if negate is None:
                mapped = tuple(tuple((value(c), value(n)) for c, n in part) for part in table)
            else:
                mapped = tuple(tuple((x, negate(x)) for x in (value(c) for c, _ in part))
                               for part in table)
            view[:] = key, mapped
        return src, image, view[1], {m: i for i, m in enumerate(tgt)}.get

    def _entry_cells(self, value: Callable[[GroupRingElement], object]) -> Iterator[tuple[int, int, object]]:
        """``(r, c, value(entry))`` of the explicit entries whose value is truthy;
        each distinct entry object is mapped once, keyed by ``id``."""
        values: dict[int, object] = {}
        for (r, c), v in self.entries.items():
            x = values.get(id(v))
            if x is None:
                x = values[id(v)] = value(v)
            if x:
                yield r, c, x

    def specialize_rows(self, spec: UnitSpecialization) -> list[dict[int, int]]:
        """Rows ``{col: value}`` of the entrywise evaluations mod spec.prime.

        A value of 0 (``1 - x_i`` at ``x_i = 1``) is not stored, since the
        rank kernel takes every stored value for a pivot candidate.
        """
        p = spec.prime
        return self._rows(spec, lambda v: v.specialize(spec), lambda x: -x % p)

    def specialize_columns(self, spec: UnitSpecialization,
                           skip: Container[int] = ()) -> list[dict[int, int]]:
        """Columns ``{row: value}`` of ``specialize_rows(spec)``, those in ``skip``
        left out; the rule does not run on a source that is left out."""
        p = spec.prime
        return self._columns(spec, lambda v: v.specialize(spec), lambda x: -x % p, skip)

    def specialize(self, spec: UnitSpecialization) -> list[list[int]]:
        """Dense view of ``specialize_rows(spec)``, for the dense mod-p helpers."""
        M = [[0] * self.cols for _ in range(self.rows)]
        for out, row in zip(M, self.specialize_rows(spec)):
            for c, x in row.items():
                out[c] = x
        return M

    def base_change_nonzeros(self, N: int) -> int:
        """Bound on the nonzeros of ``base_change(N)``, from the entries' term
        counts and before any row is built: each term puts one value in each of
        the ``N^m`` columns of its block, and terms that meet mod N only merge.
        A rule-backed matrix runs its rule on the table itself, so the mapped
        table it keeps for its views stays as it is."""
        if self._rule is None:
            terms = sum(len(v.terms) for v in self.entries.values())
        else:
            src, _, image, table, _ = self._rule
            terms = sum(len(v.terms) for mono in src for _, v in image(mono, table))
        return terms * N ** self.ring.nvars

    def base_change(self, N: int) -> list[dict[int, int]]:
        """Rows ``{col: value}`` of the entrywise ``finite_quotient`` blocks; ranks multiply by N^m.

        Term ``c_e x^e`` of an entry puts ``c_e`` at column ``b`` and row
        ``index(b + e mod N)`` of its block, for every b.  Terms are first
        summed by ``e mod N``, so terms that meet add, a zero sum is dropped,
        and every cell is written at most once.
        """
        _check_base_change_nonzeros(self.base_change_nonzeros(N), f"a {self.rows} x {self.cols} matrix", N)

        def block(v: GroupRingElement) -> list[tuple[int, int, int]]:
            terms: dict[tuple[int, ...], int] = {}
            for exps, coeff in v.terms.items():
                e = tuple(x % N for x in exps)
                terms[e] = terms.get(e, 0) + coeff
            return [(t, b, coeff) for e, coeff in terms.items() if coeff
                    for b, t in enumerate(_translation(e, N))]

        return _expand_blocks(self._rows(("base_change", N), block), N ** self.ring.nvars)

    def first_order_rows(self) -> list[dict[int, int]]:
        """Rows ``{col: 1}`` over F_2 of the matrix over ``F_2[pi]/I^2`` (``I`` the
        augmentation ideal), on the basis ``1, x_1 - 1, .., x_n - 1``.  Mod ``I^2``,
        ``x^e = 1 + sum e_i (x_i - 1)``, negative ``e_i`` included, so entry
        ``sum c x^e`` at (r, c) becomes the block ``[[a, 0], [l, a I]]`` of its
        multiplication map, ``a = sum c`` and ``l_i = sum c e_i`` mod 2, at rows
        ``r*(1+n)..`` and columns ``c*(1+n)..``: a ring homomorphism.
        """
        bs = 1 + self.ring.nvars

        def block(v: GroupRingElement) -> list[tuple[int, int, int]]:
            terms = v.terms
            coeffs = terms.values()
            ell = (sum(map(mul, exps, coeffs)) for exps in zip(*terms))
            cells = [(i, i, 1) for i in range(bs)] if sum(coeffs) & 1 else []
            return cells + [(i, 0, 1) for i, x in enumerate(ell, 1) if x & 1]

        return _expand_blocks(self._rows("first_order_rows", block), bs)


class ChainComplex:
    def __init__(self, case: str, params: dict[str, int], ctx: DgaContext,
                 modules: list[BasedFreeModule], boundaries: list[SparseRingMatrix | None]):
        self.case = case  # wedge | surface-cover | quotient-Q
        self.params = params
        self.ctx = ctx
        self.modules = modules
        self.boundaries = boundaries  # boundaries[i]: degree i -> i-1; [0] is None

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


class IntegerChainComplex:
    """Base-changed complex: free Z-modules with integer boundary matrices.

    ``boundaries[i]`` holds the ``{col: value}`` rows of the map from degree i
    to degree i-1; it has ``ranks[i - 1]`` rows and ``ranks[i]`` columns.
    """

    def __init__(self, case: str, params: dict[str, int], ranks: list[int],
                 boundaries: list[list[dict[int, int]] | None]):
        self.case = case
        self.params = params
        self.ranks = ranks
        self.boundaries = boundaries


def _column_major(rows: list[dict[int, object]]) -> dict[tuple[int, int], object]:
    """``{(r, c): value}`` of the rows in column-major order, rows ascending in a column."""
    cells = sorted((c, r) for r, row in enumerate(rows) for c in row)
    return {(r, c): rows[r][c] for c, r in cells}


def _expand_blocks(rows: list[dict[int, list[tuple[int, int, int]]]],
                   bs: int) -> list[dict[int, int]]:
    """Rows ``{col: value}`` of the matrix whose entry at (r, c) is the ``bs x bs``
    block given by its cells ``(i, j, value)``, placed at ``(r*bs + i, c*bs + j)``."""
    out: list[dict[int, int]] = []
    for row in rows:
        block: list[dict[int, int]] = [{} for _ in range(bs)]
        for c, cells in row.items():
            c0 = c * bs
            for i, j, x in cells:
                block[i][c0 + j] = x
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
    ``m`` of ``modules[i]`` to ``image(m, ctx.table)`` in ``modules[i - 1]``."""
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


def _exterior_basis(ctx: DgaContext, size: int) -> tuple[Monomial, ...]:
    """The ``size``-subsets of the generators in ``monomial_sort_key`` order:
    ``combinations`` yields the index tuples in lexicographic order."""
    masks = []
    for combo in itertools.combinations(range(ctx.ngens), size):
        mask = 0
        for i in combo:
            mask |= 1 << i
        masks.append((mask, 0))
    return tuple(masks)


def build_wedge_complex(n: int, k: int) -> ChainComplex:
    """Truncated complex of Sym-powers of a wedge of n circles, degrees 0..k."""
    ctx = wedge_context(n)
    if not 0 <= k <= n:
        raise ValueError(f"truncation k={k} out of range 0..{n} (no cells beyond degree n)")
    check_cells(ctx, k, False, f"the wedge complex at n={n}, k={k}")
    modules = [BasedFreeModule(i, _exterior_basis(ctx, i)) for i in range(k + 1)]
    return ChainComplex("wedge", {"n": n, "k": k}, ctx, modules, _boundary_matrices(ctx, modules))


def cover_basis(ctx: DgaContext, k: int, degree: int) -> tuple[Monomial, ...]:
    """All monomials of internal degree ``degree`` and weight <= k over the
    surface context ``ctx``, in ``monomial_sort_key`` order: exterior size
    ``degree - 2s`` grows as the gamma index ``s`` falls, and each size is
    enumerated in order."""
    out = []
    for s in range(degree // 2, -1, -1):
        ext = degree - 2 * s
        if ext > ctx.ngens or ext + s > k:
            continue
        out.extend((mask, s) for mask, _ in _exterior_basis(ctx, ext))
    return tuple(out)


def build_cover_complex(g: int, k: int) -> ChainComplex:
    """Universal-cover complex of the k-th symmetric power of a genus-g surface.

    Degree-i basis: monomials of internal degree i and weight <= k; the top
    degree is derived from the enumeration (the last nonempty basis).
    """
    ctx = surface_context(g)
    if k < 0:
        raise ValueError("k must be >= 0")
    check_cells(ctx, k, True, f"the cover complex at g={g}, k={k}")
    bases = []
    degree = 0
    while True:
        basis = cover_basis(ctx, k, degree)
        if not basis:
            break
        bases.append(basis)
        degree += 1
    modules = [BasedFreeModule(i, b) for i, b in enumerate(bases)]
    return ChainComplex("surface-cover", {"g": g, "k": k}, ctx, modules, _boundary_matrices(ctx, modules))


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
                        _boundary_matrices(ctx, modules, lambda_image))


def base_change(c: ChainComplex, N: int) -> IntegerChainComplex:
    """Integer chain complex of the (Z/N)^m-cover; ranks multiply by N^m."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_base_change_nonzeros(sum(M.base_change_nonzeros(N) for M in c.boundaries[1:]),
                                f"the {c.case} complex", N)
    bs = N ** c.ctx.ring.nvars
    ranks = [m.rank * bs for m in c.modules]
    boundaries: list[list[dict[int, int]] | None] = [None]
    for i in range(1, len(c.modules)):
        boundaries.append(c.boundaries[i].base_change(N))
    params = dict(c.params)
    params["N"] = N
    return IntegerChainComplex(c.case, params, ranks, boundaries)


# ---------------------------------------------------------------------------
# Export format: SYMPOW-COMPLEX v1 (text) and a JSON mirror.

def _header_params(c: ChainComplex) -> tuple[str, int, int]:
    tag = {"wedge": "wedge", "surface-cover": "cover", "quotient-Q": "q"}[c.case]
    gval = c.params.get("g", c.params.get("n"))
    return tag, gval, c.params["k"]


def _export_cells(mat: SparseRingMatrix) -> dict[tuple[int, int], str]:
    """``{(row, col): canonical_str}`` of the entries in column-major order; each
    entry object, or table object of a rule-backed matrix, is printed once."""
    return _column_major(mat._rows("canonical_str", GroupRingElement.canonical_str))


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
