"""Independent oracles used by the tests.

Everything here recomputes expected values through a different route than
the library: truncated power-series arithmetic for Betti numbers, direct
enumeration for regular representations, the group-ring product on plain
dicts of exponent tuples, the dense base change that the
library's sparse columns replaced, the per-term DGA boundary and product
that the library's fused accumulation into packed exponent keys replaced,
the ``randint``/``choice`` draws of the ``dga`` suite's random elements that
its ``getrandbits`` replica replaced, the scan over every exterior mask that
the suite's monomials from the builders' enumeration replaced, sympy for Smith normal forms, the dense
elimination loops that the library's sparse rank kernel and sparse Smith
normal form replaced, the sparse rank loop as it was before its pre-pass
(``heap_sparse_rank``), the every-trial generic homology loop that its
certified early stop replaced, the mod-2 bitset witness on the N=2 cover
that the ``lemma-cohomology`` span test over F_2[pi]/I^2 replaced, and that
span test by enumeration over truncated power series, the per-degree cover
basis (``cover_basis``) that the one-pass cover builder replaced, and the
per-degree Mattuck pattern (``mattuck_pattern``) that ``verify_mattuck``'s
loop over exterior sizes replaced.  ``sparse_rows`` and
``dense_matrix`` convert between the dense matrices of the oracles and
``{col: value}`` rows (the library's columns are the rows of a transpose);
``random_laurent_matrix`` draws test input.
``cell_view`` maps each cell of a matrix's entries on its own, the reference
for the views that share one walk of a ``SparseRingMatrix``'s rule, and
``block_rows`` lays its blocks out as rows.  ``pair_walk_rows`` and
``pair_walk_columns`` are the walk that the rules writing each column
straight into an integer-keyed target index replaced: rules returning
``(monomial, coefficient)`` pairs (``PAIR_RULES``), each pair looked up by
its monomial.  ``pair_walk_rows`` scatters the pairs into rows itself, so it
checks the library's rows, the transpose of its columns, on its own.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random

from sympow import complexes, dga
from sympow.complexes import ChainComplex, SparseRingMatrix, _exterior_basis
from sympow.dga import DgaElement, monomial_elem
from sympow.groupring import _translation, random_specialization
from sympow.homology import SnfResult, mod2_in_span


def _series_mul(A, B, k):
    """Product of two power series in x truncated at x^k.

    A series is a list over x-degree of dicts {t-degree: integer coeff}.
    """
    out = [dict() for _ in range(k + 1)]
    for i, ai in enumerate(A[: k + 1]):
        if not ai:
            continue
        for j, bj in enumerate(B[: k + 1 - i]):
            if not bj:
                continue
            acc = out[i + j]
            for di, ci in ai.items():
                for dj, cj in bj.items():
                    acc[di + dj] = acc.get(di + dj, 0) + ci * cj
    return out


def gf_betti(g: int, k: int) -> list[int]:
    """Coefficient of x^k in (1+tx)^(2g) / ((1-x)(1-t^2 x)), graded by t.

    The numerator is expanded by repeated multiplication (no binomials), the
    geometric factors as explicit truncated series.
    """
    one = [{0: 1}] + [dict() for _ in range(k)]
    factor = [{0: 1}, {1: 1}] + [dict() for _ in range(max(0, k - 1))]
    P = one
    for _ in range(2 * g):
        P = _series_mul(P, factor, k)
    geo1 = [{0: 1} for _ in range(k + 1)]
    geo2 = [{2 * b: 1} for b in range(k + 1)]
    S = _series_mul(_series_mul(P, geo1, k), geo2, k)
    coeff = S[k]
    top = max(coeff) if coeff else 0
    return [coeff.get(d, 0) for d in range(top + 1)]


def regular_representation(exps: tuple[int, ...], N: int, nvars: int) -> list[list[int]]:
    """Permutation matrix of translation by ``exps`` on (Z/N)^nvars, lex basis."""
    basis = list(itertools.product(range(N), repeat=nvars))
    index = {b: i for i, b in enumerate(basis)}
    M = [[0] * len(basis) for _ in range(len(basis))]
    for col, b in enumerate(basis):
        target = tuple((bi + ei) % N for bi, ei in zip(b, exps))
        M[index[target]][col] = 1
    return M


def laurent_product(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Product of two Laurent polynomials given as ``{exponents: coefficient}`` dicts.

    Accumulates every pair of terms, exponents added index by index, and
    drops the zero coefficients only at the end.
    """
    acc: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple([ea[i] + eb[i] for i in range(len(ea))])
            acc[e] = acc.get(e, 0) + ca * cb
    return {e: c for e, c in acc.items() if c != 0}


def _add_term(terms: dict, key, coeff) -> None:
    v = terms.get(key)
    v = coeff if v is None else v + coeff
    if v:
        terms[key] = v
    else:
        terms.pop(key, None)


def per_term_boundary(a: DgaElement) -> DgaElement:
    """``dga.boundary`` one group-ring product at a time: each ``c * unit`` is
    built as an element and merged into its target with ``+``."""
    terms: dict = {}
    index = dga.KeyMonomials(a.ctx.ngens)
    for m, c in a.terms.items():
        col: dict = {}
        dga.monomial_boundary([m], a.ctx.table, index, [col])
        for key, unit in col.items():
            _add_term(terms, key, c * unit)
    return DgaElement(a.ctx, terms)


def per_term_dga_mul(a: DgaElement, b: DgaElement) -> DgaElement:
    """``dga.dga_mul`` one group-ring product at a time, merged with ``+``."""
    a._check_ctx(b)
    terms: dict = {}
    for (m1, s1), c1 in a.terms.items():
        for (m2, s2), c2 in b.terms.items():
            if m1 & m2:
                continue
            coeff = c1 * c2
            if s1 or s2:
                coeff = coeff * dga._gamma_product_coeff(s1, s2)
            if dga._merge_sign(m1, m2) < 0:
                coeff = -coeff
            _add_term(terms, (m1 | m2, s1 + s2), coeff)
    return DgaElement(a.ctx, terms)


def choice_random_groupring(ring, rng: random.Random):
    """One or two terms, exponents ``randint(-2, 2)``, values ``choice`` of +-1..3,
    merged through ``from_terms``."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, 2)):
        exps = tuple(rng.randint(-2, 2) for _ in range(ring.nvars))
        terms[exps] = terms.get(exps, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return ring.from_terms(terms)


def choice_random_element(ctx, monos, rng: random.Random) -> DgaElement:
    """``verify._random_element`` by ``randint`` and ``choice``: one to three
    terms on ``monos``, each added with ``+``."""
    out = DgaElement(ctx, {})
    for _ in range(rng.randint(1, 3)):
        mask, s = rng.choice(monos)
        out = out + monomial_elem(ctx, mask, s, choice_random_groupring(ctx.ring, rng))
    return out


def scan_random_monomials(ctx, max_weight: int):
    """``verify._random_monomials`` by a scan of all ``2^ngens`` masks in
    increasing order, each with its divided powers ``0..max_weight - |mask|``
    (surface) or none (wedge); and the monomials grouped by degree."""
    monos = []
    for mask in range(1 << ctx.ngens):
        ext = mask.bit_count()
        if ext > max_weight:
            continue
        top_s = max_weight - ext if ctx.case == "surface" else 0
        for s in range(top_s + 1):
            monos.append((mask, s))
    by_degree: dict[int, list] = {}
    for m in monos:
        by_degree.setdefault(dga.monomial_degree(m), []).append(m)
    return monos, [by_degree[d] for d in sorted(by_degree)]


def cover_basis(ctx, k: int, degree: int) -> tuple:
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


def mattuck_pattern(g: int, k: int) -> list[int]:
    """The Betti numbers of T^(2g) x CP^(k-g), degree by degree: each degree d
    sums ``C(2g, d - 2s)`` over the divided powers ``s <= min(d/2, k - g)``."""
    pattern = []
    for d in range(2 * k + 1):
        total = 0
        for s in range(min(d // 2, k - g) + 1):
            j = d - 2 * s
            if j <= 2 * g:
                total += math.comb(2 * g, j)
        pattern.append(total)
    return pattern


def cell_view(M: SparseRingMatrix, value) -> dict[tuple[int, int], object]:
    """``{(r, c): value(entry)}`` over M's entries, each cell mapped on its own
    (so a shared entry object is mapped once per cell), a falsy value left out."""
    return {rc: x for rc, v in M.entries.items() if (x := value(v))}


def pair_lambda_image(m, table) -> list:
    """lam * (mask, s) as (monomial, coefficient) pairs: generator i's sign is
    the parity of the bits of ``mask`` below it."""
    mask, s = m
    out = []
    for i, pair in enumerate(table[1]):
        bit = 1 << i
        if not mask & bit:
            out.append(((mask | bit, s), pair[(mask & (bit - 1)).bit_count() & 1]))
    return out


def pair_monomial_boundary(m, table) -> list:
    """d of the unit-coefficient monomial m as (monomial, coefficient) pairs,
    the Koszul terms and then lam * g^(s-1)."""
    mask, s = m
    ext = table[0]
    out = []
    neg = 0
    rest = mask
    while rest:
        low = rest & -rest
        out.append(((mask ^ low, s), ext[low.bit_length() - 1][neg]))
        neg ^= 1
        rest ^= low
    if s >= 1:
        out += pair_lambda_image((mask, s - 1), table)
    return out


def pair_explicit_image(cells, table) -> list:
    """An explicit matrix's column as ``(row, entry)`` pairs."""
    part = table[0]
    return [(r, part[i][0]) for r, i in cells]


# The pair rule of each library rule.
PAIR_RULES = {dga.monomial_boundary: pair_monomial_boundary, dga.lambda_image: pair_lambda_image,
              complexes._explicit_image: pair_explicit_image}


def _pair_walk(M: SparseRingMatrix, value, negate):
    """M's sources, pair rule, table mapped by ``value`` (``negate`` deriving
    each ``-c``) and target lookup by monomial; nothing is kept on M."""
    src, tgt, image, table, _ = M._rule

    def pair(c, n):
        x = value(c)
        return x, (x if n is c else value(n) if negate is None else negate(x))

    mapped = tuple(tuple(pair(c, n) for c, n in part) for part in table)
    return src, PAIR_RULES[image], mapped, {m: i for i, m in enumerate(tgt)}.get


def pair_walk_rows(M: SparseRingMatrix, key, value, negate=None) -> list[dict]:
    """The rows ``{col: value}`` of a view by pairs (``specialize_rows`` and
    the rows ``homology._cleared_ranks`` transposes from the columns): each
    pair of each source's image looked up in the target basis and, if its
    value is truthy, stored in its row."""
    rows: list[dict] = [{} for _ in range(M.rows)]
    src, image, mapped, get = _pair_walk(M, value, negate)
    for c, mono in enumerate(src):
        for m, x in image(mono, mapped):
            r = get(m)
            if r is None:
                raise ValueError(f"operator image leaves the target basis: {m}")
            if x:
                rows[r][c] = x
    return rows


def pair_walk_columns(M: SparseRingMatrix, key, value, negate, skip=()) -> list[dict]:
    """``SparseRingMatrix._columns`` by pairs, the sources in ``skip`` left out."""
    cols = []
    src, image, mapped, get = _pair_walk(M, value, negate)
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


def pair_walk_terms(M: SparseRingMatrix) -> int:
    """The packed terms of M's entries, by pairs: ``base_change_nonzeros(1)``."""
    return sum(len(v.packed) for col in pair_walk_columns(M, None, lambda v: v, None) for v in col.values())


def block_rows(cells: dict[tuple[int, int], list[list[int]]], rows: int, bs: int) -> list[dict[int, int]]:
    """``{col: value}`` rows of the matrix whose ``(r, c)`` block is the dense
    ``bs x bs`` matrix ``cells[(r, c)]``, zeros left out."""
    out: list[dict[int, int]] = [{} for _ in range(rows * bs)]
    for (r, c), block in cells.items():
        for a, brow in enumerate(block):
            for b, x in enumerate(brow):
                if x:
                    out[r * bs + a][c * bs + b] = x
    return out


def regular_block(v, N: int) -> list[list[int]]:
    """The ``N^m x N^m`` block of a group-ring element over ``Z[(Z/N)^m]``: the
    sum of its terms' regular representations times their coefficients."""
    nvars = v.ring.nvars
    bs = N ** nvars
    block = [[0] * bs for _ in range(bs)]
    for exps, coeff in v.terms.items():
        for a, prow in enumerate(regular_representation(exps, N, nvars)):
            for b, x in enumerate(prow):
                block[a][b] += coeff * x
    return block


def first_order_block(v) -> list[list[int]]:
    """The ``(1+n) x (1+n)`` block over F_2 of multiplication by ``v`` in
    ``F_2[pi]/I^2``, on the basis ``1, x_1 - 1, .., x_n - 1``."""
    a, *ell = first_order_value(v)
    n = len(ell)
    return [[a] + [0] * n] + [[l] + [a if j == i else 0 for j in range(n)] for i, l in enumerate(ell)]


def dense_base_change(M, N: int) -> list[list[int]]:
    """Dense base change of a ``SparseRingMatrix``: each entry replaced by its
    block, the sum of its terms' regular representations times their coefficients."""
    nvars = M.ring.nvars
    bs = N ** nvars
    out = [[0] * (M.cols * bs) for _ in range(M.rows * bs)]
    blocks: dict[int, list[list[int]]] = {}  # keyed by id: built entries share objects
    for (r, c), v in M.entries.items():
        block = blocks.get(id(v))
        if block is None:
            block = blocks[id(v)] = regular_block(v, N)
        r0, c0 = r * bs, c * bs
        for a in range(bs):
            row = out[r0 + a]
            brow = block[a]
            for b in range(bs):
                if brow[b]:
                    row[c0 + b] = brow[b]
    return out


def sparse_rows(M: list[list[int]]) -> list[dict[int, int]]:
    """The ``{col: value}`` rows of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in M]


def dense_matrix(rows: list[dict[int, int]], ncols: int) -> list[list[int]]:
    """The dense matrix with ``{col: value}`` rows ``rows`` and ``ncols`` columns."""
    out = [[0] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row.items():
            dense[j] = x
    return out


def sympy_snf_diagonal(M: list[list[int]]) -> list[int]:
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    if not M or not M[0]:
        return []
    S = smith_normal_form(Matrix(M), domain=ZZ)
    diag = [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))]
    nonzero = sorted(d for d in diag if d)
    return nonzero + [0] * (len(diag) - len(nonzero))


def dense_smith_normal_form(M: list[list[int]]) -> SnfResult:
    """Classical SNF by unimodular row/column operations.

    Pivot selection: smallest absolute value, ties broken by sparsest
    row+column, which keeps coefficient growth tame on the sparse
    boundary matrices we feed it.
    """
    A = [list(map(int, row)) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    size = min(rows, cols)
    if size == 0:
        return SnfResult(())

    def pick_pivot(t: int) -> tuple[int, int] | None:
        # one pass over the trailing matrix lists each row's nonzero columns
        # and counts the columns; keys are then compared in row-major order
        nonzero = []
        col_nnz = [0] * cols
        for i in range(t, rows):
            js = list(itertools.compress(range(t, cols), A[i][t:]))
            for j in js:
                col_nnz[j] += 1
            nonzero.append((i, js))
        best = None
        where = None
        for i, js in nonzero:
            row, row_nnz = A[i], len(js)
            for j in js:
                key = (abs(row[j]), row_nnz + col_nnz[j])
                if best is None or key < best:
                    best = key
                    where = (i, j)
        return where

    t = 0
    while t < size:
        where = pick_pivot(t)
        if where is None:
            break
        pi, pj = where
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t
            for i in range(t + 1, rows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
            if any(A[i][t] for i in range(t + 1, rows)):
                continue
            # clear row t
            for j in range(t + 1, cols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
            if any(A[t][j] for j in range(t + 1, cols)):
                continue
            break
        # pivot must divide the remaining submatrix
        v = A[t][t]
        bad = None
        if abs(v) != 1:  # a unit divides everything
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if A[i][j] % v:
                        bad = i
                        break
                if bad is not None:
                    break
        if bad is not None:
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            continue
        t += 1
    diag = [abs(A[i][i]) for i in range(size)]
    diag = sorted((d for d in diag if d)) + [0] * sum(1 for d in diag if not d)
    return SnfResult(tuple(diag))



def brute_force_modp_rank(M: list[list[int]], p: int) -> int:
    """Rank over F_p by enumerating row-echelon pivots (independent pivoting order)."""
    rows = [tuple(x % p for x in row) for row in M]
    basis: list[list[int]] = []
    for row in rows:
        vec = list(row)
        for b in basis:
            lead = next((i for i, x in enumerate(b) if x), None)
            if lead is not None and vec[lead]:
                f = vec[lead] * pow(b[lead], -1, p) % p
                vec = [(a - f * c) % p for a, c in zip(vec, b)]
        if any(vec):
            basis.append(vec)
    return len(basis)


def dense_modp_rank(M: list[list[int]], p: int) -> int:
    """Rank over F_p by dense Gauss-Jordan elimination, leftmost pivot per column."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [[x % p for x in row] for row in M]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[r])]
        r += 1
        if r == rows:
            break
    return r


def bareiss_rank(M: list[list[int]]) -> int:
    """Rank over Q by dense fraction-free (Bareiss) elimination."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [row[:] for row in M]
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                A[i][j] = (A[i][j] * A[r][c] - A[i][c] * A[r][j]) // prev
            A[i][c] = 0
        prev = A[r][c]
        r += 1
        if r == rows:
            break
    return r


def heap_sparse_rank(M, p: int | None, pivots: list[int] | None = None,
                     updates: list[int] | None = None) -> int:
    """Rank over F_p (``p`` prime) or Q (``p`` None) of ``{col: value}`` rows by
    the sparse Markowitz loop as it was before its pre-pass: the column index
    and the heap are built for every row up front.  Appends each step's pivot
    column to ``pivots`` and the number of rows it eliminates to ``updates``."""
    modular = p is not None
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(M):
        if row:
            rows[i] = dict(row)
            for j in row:
                col_rows.setdefault(j, set()).add(i)
    queue = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(queue)
    found: list[int] = []
    while queue:
        n, r = heapq.heappop(queue)
        prow = rows.get(r)
        if prow is None or len(prow) != n:
            continue
        del rows[r]
        for j in prow:
            col_rows[j].discard(r)
        c = min(prow, key=lambda j: len(col_rows[j]))
        found.append(c)
        targets = col_rows.pop(c)
        if updates is not None:
            updates.append(len(targets))
        a = prow.pop(c)
        if not targets:
            continue
        if modular:
            inv = pow(a, -1, p)
            prow = {j: v * inv % p for j, v in prow.items()}
        elif a < 0:
            a = -a
            prow = {j: -v for j, v in prow.items()}
        for i in targets:
            row = rows[i]
            b = row.pop(c)
            if not modular:
                g = math.gcd(a, b)
                s, b = a // g, b // g
                if s != 1:
                    for j in row:
                        row[j] *= s
            for j, v in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -b * v % p if modular else -b * v
                    col_rows[j].add(i)
                    continue
                x -= b * v
                if modular:
                    x %= p
                if x:
                    row[j] = x
                else:
                    del row[j]
                    col_rows[j].discard(i)
            if not row:
                del rows[i]
                continue
            if not modular:
                g = math.gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
            heapq.heappush(queue, (len(row), i))
    if pivots is not None:
        pivots.extend(found)
    return len(found)


def unmarked(c):
    """The complex ``c`` without its duality mark, so that every route ranks
    both halves of it: the oracle of the mirrored routes."""
    return ChainComplex(c.case, c.params, c.ctx, c.modules, c.boundaries)


def all_trials_generic_homology(c, trials: int, seed: int, prime: int) -> list[int]:
    """Generic homology dimensions by running every trial, minimum per degree.

    Each trial specializes every boundary entry by entry into a dense matrix
    and takes its rank by ``dense_modp_rank``; the trial seeding is the
    library's, so the result is what the library must report.
    """
    n = len(c.modules)
    dims = None
    for t in range(trials):
        spec = random_specialization(c.ctx.ring, prime, random.Random(seed * 1000003 + t))
        ranks = [0] * (n + 1)
        for i in range(1, n):
            M = c.boundaries[i]
            dense = [[M.entry(r, col).specialize(spec) for col in range(M.cols)]
                     for r in range(M.rows)]
            ranks[i] = dense_modp_rank(dense, prime)
        trial = [c.modules[i].rank - ranks[i] - ranks[i + 1] for i in range(n)]
        dims = trial if dims is None else [min(a, b) for a, b in zip(dims, trial)]
    return dims


def mod2_columns(M: SparseRingMatrix, N: int) -> tuple[list[int], int]:
    """The columns of ``M.base_change(N)`` mod 2, built from the entries alone.

    Column ``c*N^m + b`` of the base change holds, for each term ``c_e x^e``
    of entry (r, c), the coefficient ``c_e`` in row ``r*N^m + index(b + e
    mod N)``; mod 2 every odd term flips that one bit.  Returns the column
    bitsets and the row count ``rows * N^m``.
    """
    bs = N ** M.ring.nvars
    out = [0] * (M.cols * bs)
    patterns: dict[int, list[int]] = {}  # keyed by id: built entries share objects
    for (r, c), v in M.entries.items():
        pattern = patterns.get(id(v))
        if pattern is None:
            pattern = patterns[id(v)] = [0] * bs
            for exps, coeff in v.terms.items():
                if coeff & 1:
                    for b, t in enumerate(_translation(exps, N)):
                        pattern[b] ^= 1 << t
        shift, c0 = r * bs, c * bs
        for b in range(bs):
            out[c0 + b] ^= pattern[b] << shift
    return out, M.rows * bs


def lambda_ker_contains_mod2(d: SparseRingMatrix, lam: SparseRingMatrix,
                             target: SparseRingMatrix) -> bool:
    """Whether column 0 of ``target`` lies in ``lam * ker d`` over F_2 on the N=2
    cover: whether ``(0; t)`` is in the span of the column bitsets of ``[d; lam]``."""
    entries = dict(d.entries)
    entries.update(((r + d.rows, c), v) for (r, c), v in lam.entries.items())
    stacked, _ = mod2_columns(SparseRingMatrix(d.ring, d.rows + lam.rows, d.cols, entries), 2)
    return mod2_in_span(stacked, mod2_columns(target, 2)[0][0] << d.rows * 2 ** d.ring.nvars)


def random_laurent_matrix(ring, rows: int, cols: int, rng: random.Random,
                          density: float = 0.6) -> SparseRingMatrix:
    """A sparse matrix of random Laurent polynomials, exponents in -2..2."""
    entries = {}
    for r, c in itertools.product(range(rows), range(cols)):
        if rng.random() < density:
            terms: dict[tuple[int, ...], int] = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(-2, 2) for _ in range(ring.nvars))
                terms[e] = terms.get(e, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
            v = ring.from_terms(terms)
            if v:
                entries[(r, c)] = v
    return SparseRingMatrix(ring, rows, cols, entries)


def _first_order_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product in Z[y_1..y_n]/(y)^2 of ``(a_0, a_1..a_n) = a_0 + sum a_i y_i``."""
    return (a[0] * b[0],) + tuple(a[0] * y + b[0] * x for x, y in zip(a[1:], b[1:]))


def first_order_value(elem) -> tuple[int, ...]:
    """A group-ring element in F_2[pi]/I^2, as ``(a, l_1..l_n)`` mod 2 on the basis
    ``1, x_1 - 1, .., x_n - 1``: every ``x_i`` is the series ``1 + y_i``, its inverse
    ``1 - y_i``, and monomials are products of them truncated at degree one."""
    n = elem.ring.nvars
    total = [0] * (n + 1)
    for exps, coeff in elem.terms.items():
        value = (coeff,) + (0,) * n
        for i, e in enumerate(exps):
            factor = tuple([1] + [(1 if e > 0 else -1) if j == i else 0 for j in range(n)])
            for _ in range(abs(e)):
                value = _first_order_mul(value, factor)
        total = [t + v for t, v in zip(total, value)]
    return tuple(t % 2 for t in total)


def brute_force_lambda_ker_contains(d: SparseRingMatrix, lam: SparseRingMatrix,
                                    target: SparseRingMatrix) -> bool:
    """Whether some ``v`` in ``(F_2[pi]/I^2)^cols`` has ``d v = 0`` and ``lam v`` equal
    to column 0 of ``target``, by trying every ``v``."""
    n = d.ring.nvars
    zero = (0,) * (n + 1)

    def apply(M, v):
        out = []
        for r in range(M.rows):
            acc = zero
            for c in range(M.cols):
                p = _first_order_mul(first_order_value(M.entry(r, c)), v[c])
                acc = tuple((x + y) % 2 for x, y in zip(acc, p))
            out.append(acc)
        return out

    want = [first_order_value(target.entry(r, 0)) for r in range(target.rows)]
    elements = list(itertools.product((0, 1), repeat=n + 1))
    return any(apply(d, v) == [zero] * d.rows and apply(lam, v) == want
               for v in itertools.product(elements, repeat=d.cols))
