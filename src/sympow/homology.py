"""Homology engines: integer Smith normal form, generic rank over random
unit specializations, and combinatorial Betti counting.

Conventions.  Generic (fraction-field) quantities are approximated through
random unit specializations mod a large prime: matrix rank can only drop
under specialization, so ``generic_rank`` takes the maximum over trials;
homology dimension can only jump up, so ``generic_homology`` takes the
minimum.  Both are correct semicontinuous bounds and equal the exact
fraction-field values with probability >= 1 - deg/p per trial.  Both rank the
``{col: value}`` rows of ``SparseRingMatrix.specialize_rows`` with
``_sparse_rank``, and ``generic_homology`` its ``specialize_columns`` too;
on the builders' rule-backed matrices those rows and columns come straight
from the bases and the evaluated coefficient table, so the generic route
builds neither a dense matrix nor the group-ring entries.  The dense
``modp_rank`` stays the entry point for dense matrices; no engine calls it.

Certified early stop.  Both engines stop once a trial proves its own answer
exact, and report what running every trial would: ``generic_rank`` when a
trial reaches full rank min(rows, cols); ``generic_homology`` when a trial's
dimensions are zero in every degree but at most one (the proof is in its
docstring).  The report's ``trials`` is the requested count, since the result
is the minimum over all of them whether or not they ran.

Clearing.  The ranks of a whole complex (``generic_homology`` per trial over
F_p, ``integer_free_ranks`` over Q) are taken from both ends, meeting at the
degree m of the largest module: below m bottom-up by rows, each ``d_i``
without the rows at the pivot columns of ``d_(i-1)``; above m top-down by
columns, each ``d_i`` without the columns at the pivot rows of ``d_(i+1)``.
This keeps every rank (``_cleared_ranks`` has the proofs), and only the
homology outside degree m is eliminated down to zero.  The Smith normal form
still eliminates every boundary in full, since torsion needs the whole lattice.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Callable, Container, Iterable
from itertools import compress, count

from .complexes import ChainComplex, IntegerChainComplex, SparseRingMatrix
from .groupring import UnitSpecialization, random_specialization
from .records import Record

DEFAULT_TRIALS = 5
FAST_PRIME = 1000003
VERIFY_PRIME = 2147483647


# ---------------------------------------------------------------------------
# Exact integer linear algebra


class SnfResult(Record):
    """Diagonal of the Smith normal form: d1 | d2 | .. with zeros trailing."""

    _fields = ("diagonal",)
    diagonal: tuple[int, ...]

    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d not in (0, 1))

    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(M: list[dict[int, int]], ncols: int) -> SnfResult:
    """Smith normal form of the matrix with ``{col: value}`` rows ``M`` and ``ncols`` columns.

    Sparse Euclidean elimination on copies of the rows: a heap pops the row
    holding the smallest |entry| (ties: the shorter row, then the column with
    fewer rows); that entry ``a`` is the pivot.  Floor division row operations
    clear its column, leaving remainders below |a|; once the column is clear,
    the pivot row is reduced modulo ``a`` (column operations that no other row
    sees).  A row with a nonzero remainder is queued again, and |a| is
    recorded once it is alone in its row and column.  One pass of
    ``(a, b) -> (gcd, lcm)`` over the non-unit pivots, valid since
    ``diag(a, b)`` is equivalent to ``diag(gcd, lcm)``, gives the chain.
    """
    size = min(len(M), ncols)
    rows = {i: dict(row) for i, row in enumerate(M) if row}
    col_rows = _column_index(rows)

    def key(row: dict[int, int]) -> tuple[int, int]:
        return min(map(abs, row.values())), len(row)

    # (key, row id) pushed whenever a row changes; stale entries are skipped
    queue = [(key(row), i) for i, row in rows.items()]
    heapq.heapify(queue)
    pivots: list[int] = []
    while queue:
        k, r = heapq.heappop(queue)
        prow = rows.get(r)
        if prow is None or key(prow) != k:
            continue
        c = min((j for j, v in prow.items() if abs(v) == k[0]), key=lambda j: len(col_rows[j]))
        a = prow[c]
        for i in [i for i in col_rows[c] if i != r]:
            row = rows[i]
            q = row[c] // a
            for j, v in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -q * v
                    col_rows[j].add(i)
                    continue
                x -= q * v
                if x:
                    row[j] = x
                else:
                    del row[j]
                    col_rows[j].discard(i)
            if row:
                heapq.heappush(queue, (key(row), i))
            else:
                del rows[i]
        if len(col_rows[c]) == 1:
            for j in [j for j in prow if j != c]:
                x = prow[j] % a
                if x:
                    prow[j] = x
                else:
                    del prow[j]
                    col_rows[j].discard(r)
            if len(prow) == 1:
                del rows[r], col_rows[c]
                pivots.append(abs(a))
                continue
        heapq.heappush(queue, (key(prow), r))
    torsion = [d for d in pivots if d != 1]
    for s in range(len(torsion)):
        for t in range(s + 1, len(torsion)):
            torsion[s], torsion[t] = math.gcd(torsion[s], torsion[t]), math.lcm(torsion[s], torsion[t])
    diag = (1,) * (len(pivots) - len(torsion)) + tuple(torsion)  # 1s from the gcd pass come first
    return SnfResult(diag + (0,) * (size - len(diag)))


def integer_rank(M: list[dict[int, int]], pivots: list[int] | None = None) -> int:
    """Rank over Q of the matrix with ``{col: value}`` rows, exactly in integer
    arithmetic; the pivot column of each elimination step is appended to
    ``pivots`` if given."""
    return _sparse_rank(map(dict, M), None, pivots)


def _transpose(M: list[dict[int, int]], ncols: int, skip: Container[int] = ()) -> list[dict[int, int]]:
    """Columns ``{row: value}`` of the ``{col: value}`` rows ``M``, those in ``skip`` left out."""
    cols: list[dict[int, int]] = [{} for _ in range(ncols)]
    for r, row in enumerate(M):
        for c, x in row.items():
            cols[c][r] = x
    return [col for c, col in enumerate(cols) if c not in skip]


def integer_matmul(A: list[dict[int, int]], B: list[dict[int, int]]) -> list[dict[int, int]]:
    """A @ B on ``{col: value}`` rows; zero sums are not stored."""
    out = []
    for Ai in A:
        Oi: dict[int, int] = {}
        for k, a in Ai.items():
            for j, b in B[k].items():
                Oi[j] = Oi.get(j, 0) + a * b
        out.append({j: x for j, x in Oi.items() if x})
    return out


# ---------------------------------------------------------------------------
# Rank: one sparse elimination kernel for F_p and Q


def _column_index(rows: dict[int, dict[int, int]]) -> dict[int, set[int]]:
    """The index from each column to the rows of ``rows`` (by row index) that use it."""
    col_rows: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    return col_rows


def _sparse_rank(M: Iterable[dict[int, int]], p: int | None, pivots: list[int] | None = None) -> int:
    """Rank over F_p for a prime ``p``, or over Q for ``None``, of the matrix
    with ``{col: value}`` rows ``M``, entries already reduced mod ``p``; the
    pivot column of each step is appended to ``pivots`` if given.

    Sparse Gaussian elimination (LaMacchia-Odlyzko) on the rows of ``M``,
    which it takes over; ``col_rows`` maps each column to the active rows that
    use it.  Markowitz-style pivoting takes the sparsest active row (ties: the
    lower row index) and, in it, the first column with the fewest active rows;
    F_p and Q share this one rule.
    Only the rows still active are eliminated: the rank needs no
    back-substitution into earlier pivot rows.  Over Q the update is
    fraction-free, e <- a*e - b*d with a, b the pivot-column entries over
    their gcd, and the updated row is divided by its content, so no fractions
    appear and the coefficients stay small.  The rank does not depend on the
    pivot order.  The pivot columns are linearly independent: in elimination
    order, each pivot row is zero in the pivot columns before its own.

    Pre-pass.  The steps that eliminate nothing, up to the first that does,
    are taken before ``col_rows`` is built.  While no row has changed, the
    heap of (length, row id) pops the rows in ``queue`` order, sorted by
    (length, index): a row's heap entry goes stale only when the row changes.
    When row ``r`` is popped the active rows are those after it in that
    order, so column ``j`` of ``r`` has no other active row exactly when
    ``last[j]``, the last row in that order that uses ``j``, is ``r``.  If
    ``r`` has such a column, the fewest active rows is 0, the first such
    column in ``r`` is the one Markowitz's rule picks, and it has nothing to
    eliminate, so no row changes.  At the first row without one, the loop
    takes over with the state it would have reached: the rows not yet popped,
    ``col_rows`` over them, and the rest of ``queue``, which is sorted and
    hence a heap.  Clearing makes this the common case: where the homology
    sits at the meeting degree no vector is eliminated down to zero
    (``_cleared_ranks``), and on ``generic_homology`` of cover(g, g) for
    g = 3, 4, 5, cover(5, 4), Q(5, 5) and wedge(10, 5) every step is taken here.
    """
    modular = p is not None
    rows = list(M)
    queue = sorted((len(row), i) for i, row in enumerate(rows) if row)
    last = {j: i for _, i in queue for j in rows[i]}
    found: list[int] = []  # pivot column of each step
    for _, r in queue:
        for c in rows[r]:
            if last[c] == r:
                found.append(c)
                break
        else:
            break
    # (length, row id) pushed whenever a row's length changes; stale entries
    # are skipped when popped, so the heap top is always the sparsest row
    queue = queue[len(found):]
    rows = {i: rows[i] for _, i in queue}
    col_rows = _column_index(rows)
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
        a = prow.pop(c)
        if not targets:
            continue
        # normalize the pivot to 1 over F_p, to a positive value over Q
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


def modp_rank(M: list[list[int]], p: int, pivots: list[int] | None = None) -> int:
    """Rank over F_p of a dense integer matrix (entries reduced mod ``p``); the
    pivot column of each elimination step is appended to ``pivots`` if given."""
    return _sparse_rank(({j: v for j, x in zip(compress(count(), row), filter(None, row)) if (v := x % p)}
                         for row in M), p, pivots)


def _cleared_ranks(sizes: list[int], rows: Callable[[int], list[dict[int, int]]],
                   columns: Callable[[int, set[int]], list[dict[int, int]]],
                   rank: Callable[[list[dict[int, int]], list[int]], int],
                   _meet: int | None = None) -> list[int]:
    """``[0, rank d_1, .., rank d_top, 0]`` for a complex with modules of ranks
    ``sizes``, ranked with clearing from both ends, meeting at the degree
    ``m`` of the largest module (the first of equal ones; ``_meet`` forces it).

    ``rows(i)`` gives the ``{col: value}`` rows of ``d_i``, ``columns(i, skip)``
    its ``{row: value}`` columns outside ``skip``, and ``rank(vectors,
    pivots)`` ranks a list of vectors, appending the coordinate of each
    elimination step's pivot to ``pivots``.  The pivot coordinates ``Q`` of a
    rank are independent: the vectors restricted to ``Q`` have rank ``|Q|``.

    Bottom half, ``d_1 .. d_m`` by rows (Chen-Kerber, "Persistent homology
    computation with a twist", 2011): ``d_i`` is ranked without the rows at
    the pivot columns ``Q`` of ``d_(i-1)``.  The columns ``Q`` of ``d_(i-1)``
    are independent, so no nonzero vector supported on ``Q`` lies in
    ``ker d_(i-1)``, which contains ``im d_i``; deleting the ``Q``
    coordinates is injective on ``im d_i`` and keeps its rank.

    Top half, ``d_top .. d_(m+1)`` by columns (de Silva-Morozov-Vejdemo-
    Johansson, "Dualities in persistent (co)homology", 2011): ``d_i`` is
    ranked without the columns at the pivot rows ``Q`` of ``d_(i+1)``.  The
    columns of ``d_(i+1)`` restricted to the rows ``Q`` have rank ``|Q|``, so
    for each ``q`` in ``Q`` the image of ``d_(i+1)``, inside ``ker d_i``, holds
    a vector that is ``e_q`` on ``Q``.  Column ``q`` of ``d_i`` is then a
    combination of the columns outside ``Q``, which keep the rank.

    Both proofs hold over any field, and still hold when the neighbour was
    itself cleared: vectors independent on a subset of the rows or columns
    are independent on all of them.  ``d_i`` below ``m`` meets ``rows(d_i) -
    rank d_(i-1) = rank d_i + dim H_(i-1)`` vectors and ``d_i`` above ``m``
    meets ``cols(d_i) - rank d_(i+1) = rank d_i + dim H_i``, so only the
    homology outside degree ``m`` is eliminated down to zero.
    """
    top = len(sizes) - 1
    meet = sizes.index(max(sizes)) if _meet is None else _meet
    ranks = [0] * (top + 2)
    cleared: set[int] = set()
    for i in range(1, meet + 1):
        pivots: list[int] = []
        ranks[i] = rank([row for r, row in enumerate(rows(i)) if r not in cleared], pivots)
        cleared = set(pivots)
    cleared = set()
    for i in range(top, meet, -1):
        pivots = []
        ranks[i] = rank(columns(i, cleared), pivots)
        cleared = set(pivots)
    return ranks


# ---------------------------------------------------------------------------
# Mod-p linear algebra (dense, small matrices)


def modp_nullspace(M: list[list[int]], p: int, cols: int | None = None) -> list[list[int]]:
    """Basis of the kernel of M over F_p (column vectors as lists)."""
    rows = len(M)
    if cols is None:
        cols = len(M[0]) if rows else 0
    A = [[x % p for x in row] for row in M]
    pivots: list[int] = []
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
        pivots.append(c)
        r += 1
        if r == rows:
            break
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [0] * cols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-A[ri][fc]) % p
        basis.append(v)
    return basis


def modp_matvec(M: list[list[int]], v: list[int], p: int) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) % p for row in M]


def modp_rank_of_columns(columns: list[list[int]], p: int) -> int:
    if not columns:
        return 0
    rows = len(columns[0])
    M = [[columns[j][i] for j in range(len(columns))] for i in range(rows)]
    return modp_rank(M, p)


# ---------------------------------------------------------------------------
# Mod-2 linear algebra on column bitsets (fast enough for finite covers)


def mod2_columns(M: list[list[int]]) -> tuple[list[int], int]:
    """Columns of an integer matrix reduced mod 2, each column one bitset int."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    out = [0] * cols
    for i in range(rows):
        row = M[i]
        bit = 1 << i
        for j in range(cols):
            if row[j] & 1:
                out[j] |= bit
    return out, rows


def mod2_nullspace(columns: list[int], ncols: int) -> list[int]:
    """Kernel vectors over F_2, each as a bitset of source-column indices."""
    pivot_of_row: dict[int, tuple[int, int]] = {}
    kernel = []
    for j in range(ncols):
        c, combo = columns[j], 1 << j
        while c:
            r = c.bit_length() - 1
            if r in pivot_of_row:
                pc, pcombo = pivot_of_row[r]
                c ^= pc
                combo ^= pcombo
            else:
                pivot_of_row[r] = (c, combo)
                break
        else:
            kernel.append(combo)
    return kernel


def mod2_apply(columns: list[int], vector_bits: int) -> int:
    out = 0
    v = vector_bits
    while v:
        j = v.bit_length() - 1
        v ^= 1 << j
        out ^= columns[j]
    return out


def mod2_in_span(vectors: list[int], target: int) -> bool:
    pivots: dict[int, int] = {}
    for v in vectors:
        c = v
        while c:
            r = c.bit_length() - 1
            if r in pivots:
                c ^= pivots[r]
            else:
                pivots[r] = c
                break
    c = target
    while c:
        r = c.bit_length() - 1
        if r not in pivots:
            return False
        c ^= pivots[r]
    return True


# ---------------------------------------------------------------------------
# Reports


class DegreeEntry:
    def __init__(self, degree: int, rank: int, torsion: tuple[int, ...] = ()):
        self.degree = degree
        self.rank = rank
        self.torsion = torsion


class HomologyReport:
    def __init__(self, case: str, params: dict, method: str, entries: list[DegreeEntry],
                 prime: int | None = None, trials: int | None = None, seed: int | None = None):
        self.case = case
        self.params = params
        self.method = method  # integer-snf | generic-rank | betti-count
        self.entries = entries
        self.prime = prime
        self.trials = trials
        self.seed = seed

    @property
    def euler(self) -> int:
        return sum((-1) ** e.degree * e.rank for e in self.entries)

    def ranks(self) -> list[int]:
        return [e.rank for e in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "g": self.params.get("g", self.params.get("n")),
            "k": self.params.get("k"),
            "N": self.params.get("N"),
            "method": self.method,
            "prime": self.prime,
            "trials": self.trials,
            "seed": self.seed,
            "homology": [
                {"degree": e.degree, "rank": e.rank, "torsion": list(e.torsion)}
                for e in self.entries
            ],
            "euler": self.euler,
        }


class KernelBasis:
    """Mod-p vectors spanning ker d_k under one specialization."""

    def __init__(self, degree: int, prime: int, columns: list[list[int]]):
        self.degree = degree
        self.prime = prime
        self.columns = columns

    @property
    def dim(self) -> int:
        return len(self.columns)


# ---------------------------------------------------------------------------
# Engines


def integer_free_ranks(ic: IntegerChainComplex) -> list[int]:
    """Free ranks of the homology of an integer complex, by exact Q-ranks only.

    Skips the Smith normal form (no torsion information): enough for Euler
    characteristics and rank-growth checks, and much faster on the larger
    finite covers.  The boundaries are ranked with clearing from both ends
    (``_cleared_ranks``): by rows up to the largest module, and above it by
    the columns of the transposed rows, all through ``integer_rank``.
    """
    n = len(ic.ranks)
    ranks = _cleared_ranks(ic.ranks, ic.boundaries.__getitem__,
                           lambda i, skip: _transpose(ic.boundaries[i], ic.ranks[i], skip), integer_rank)
    return [ic.ranks[i] - ranks[i] - ranks[i + 1] for i in range(n)]


def integer_homology(ic: IntegerChainComplex) -> HomologyReport:
    """Cellular homology of an integer complex: free ranks and torsion via SNF."""
    n = len(ic.ranks)
    for i in range(1, n - 1):
        if any(integer_matmul(ic.boundaries[i], ic.boundaries[i + 1])):
            raise ValueError(f"boundary composite at degree {i + 1} is nonzero: builder bug")
    snfs: list[SnfResult | None] = [None] * (n + 1)
    for i in range(1, n):
        snfs[i] = smith_normal_form(ic.boundaries[i], ic.ranks[i])
    entries = []
    for i in range(n):
        r_out = snfs[i].rank() if 1 <= i < n else 0
        r_in = snfs[i + 1].rank() if i + 1 < n else 0
        free = ic.ranks[i] - r_out - r_in
        torsion = snfs[i + 1].nontrivial() if i + 1 < n else ()
        entries.append(DegreeEntry(i, free, torsion))
    return HomologyReport(ic.case, dict(ic.params), "integer-snf", entries)


def _trial_specialization(ring, prime: int, seed: int, trial: int) -> UnitSpecialization:
    rng = random.Random(seed * 1000003 + trial)
    return random_specialization(ring, prime, rng)


def generic_rank(M: SparseRingMatrix, trials: int = DEFAULT_TRIALS, seed: int = 0,
                 prime: int = FAST_PRIME) -> int:
    """Max mod-p rank over seeded random unit specializations.

    A lower bound for, and with overwhelming probability equal to, the rank
    over the fraction field of the group ring.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    full = min(M.rows, M.cols)
    best = 0
    for t in range(trials):
        spec = _trial_specialization(M.ring, prime, seed, t)
        best = max(best, _sparse_rank(M.specialize_rows(spec), prime))
        if best == full:
            break  # no trial can exceed full rank
    return best


def generic_homology(c: ChainComplex, trials: int = DEFAULT_TRIALS, seed: int = 0,
                     prime: int = FAST_PRIME) -> HomologyReport:
    """Fraction-field homology dimensions via rank-nullity on specializations.

    Each trial uses one consistent specialization for every boundary and
    ranks the boundaries with clearing from both ends (``_cleared_ranks``),
    which changes no rank: ``specialize_rows`` up to the largest module and
    ``specialize_columns`` above it, where the rule never runs on a cleared
    source.  Where the homology sits at the largest module (the cover
    complexes up to g = 5 at least, the lambda complex for k <= g, the wedge
    complex for k <= n/2), no vector is eliminated down to zero.  The per-degree results are
    aggregated by minimum over trials.

    Trials stop after the first one whose dimensions are zero in every degree
    but at most one: that trial equals the fraction-field dimensions ``gen``,
    hence the minimum over all ``trials``.  Proof, for every trial t:

    * ``dims_t[i] >= gen[i] >= 0``, because rank only drops under
      specialization and ``d o d = 0`` over the fraction field;
    * ``sum (-1)^i dims_t[i] = sum (-1)^i rank C_i = sum (-1)^i gen[i]``,
      because the ranks of the boundaries telescope.

    If ``dims_t`` vanishes outside degree j, so does ``gen`` by the first
    point, and the second gives ``gen[j] = dims_t[j]``.  This holds for any
    prime.  When no trial certifies, every trial runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = len(c.modules)
    dims: list[int] | None = None
    for t in range(trials):
        spec = _trial_specialization(c.ctx.ring, prime, seed, t)
        ranks = _cleared_ranks(c.ranks, lambda i: c.boundaries[i].specialize_rows(spec),
                               lambda i, skip: c.boundaries[i].specialize_columns(spec, skip),
                               lambda vectors, pivots: _sparse_rank(vectors, prime, pivots))
        trial = [c.modules[i].rank - ranks[i] - ranks[i + 1] for i in range(n)]
        dims = trial if dims is None else list(map(min, dims, trial))
        if sum(1 for d in trial if d) <= 1:
            break
    entries = [DegreeEntry(i, d) for i, d in enumerate(dims)]
    return HomologyReport(c.case, dict(c.params), "generic-rank", entries,
                          prime=prime, trials=trials, seed=seed)


def kernel_basis(M: SparseRingMatrix, degree: int, spec: UnitSpecialization) -> KernelBasis:
    """Basis of ker(d_degree) under the given specialization."""
    cols = modp_nullspace(M.specialize(spec), spec.prime, cols=M.cols)
    return KernelBasis(degree, spec.prime, cols)


def betti_symmetric_power(g: int, k: int) -> list[int]:
    """Betti numbers of the k-th symmetric power of a genus-g surface.

    Counts cells of each internal degree with weight <= k (the differential
    of the base complex is trivial, so cells count homology).
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    top = 2 * k
    out = []
    for d in range(top + 1):
        total = 0
        for s in range(d // 2 + 1):
            j = d - 2 * s
            if j <= 2 * g and j + s <= k:
                total += math.comb(2 * g, j)
        out.append(total)
    return out


def euler_characteristic(g: int, k: int) -> int:
    """Alternating sum of the Betti numbers; equals (-1)^k * binom(2g-2, k)."""
    betti = betti_symmetric_power(g, k)
    return sum((-1) ** d * b for d, b in enumerate(betti))
