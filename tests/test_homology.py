import math
import random
import time

import pytest

import sympow.homology as homology
from sympow.complexes import (
    BasedFreeModule,
    ChainComplex,
    SparseRingMatrix,
    build_cover_complex,
    build_Q_complex,
    build_wedge_complex,
    lambda_matrix,
)
from sympow.complexes import _transpose
from sympow.dga import wedge_context
from sympow.groupring import UnitSpecialization, random_specialization
from sympow.homology import (
    betti_symmetric_power,
    euler_characteristic,
    generic_homology,
    generic_rank,
    integer_free_ranks,
    integer_homology,
    integer_matmul,
    integer_rank,
    kernel_basis,
    modp_matvec,
    modp_rank,
    smith_normal_form,
)
from oracles import (
    all_trials_generic_homology,
    bareiss_rank,
    brute_force_modp_rank,
    cover_view,
    dense_matrix,
    dense_modp_rank,
    dense_smith_normal_form,
    gf_betti,
    heap_sparse_rank,
    sparse_rows,
    sympy_snf_diagonal,
    unmarked,
)

RANK_PRIMES = (3, 7, 1000003, 2147483647)


def _snf(M: list[list[int]]):
    """``smith_normal_form`` of a dense matrix, through its rows."""
    return smith_normal_form(sparse_rows(M), len(M[0]) if M else 0)


def _rank(M: list[list[int]]) -> int:
    """``integer_rank`` of a dense matrix, through its rows."""
    return integer_rank(sparse_rows(M))


def _explicit_complex(case: str, ranks: list[int], boundaries: list[dict]) -> ChainComplex:
    """A ``ChainComplex`` over the ring of ``wedge_context(1)`` with modules of
    ranks ``ranks`` and explicit boundaries: ``boundaries[i - 1]`` maps each
    cell ``(row, col)`` of ``d_i`` to an integer, or to a function of the ring."""
    ctx = wedge_context(1)
    one = ctx.ring.one()
    modules = [BasedFreeModule(i, tuple((j, 0) for j in range(r))) for i, r in enumerate(ranks)]
    mats = [SparseRingMatrix(ctx.ring, ranks[i - 1], ranks[i],
                             {rc: v * one if isinstance(v, int) else v(ctx.ring) for rc, v in cells.items()})
            for i, cells in enumerate(boundaries, start=1)]
    return ChainComplex(case, {}, ctx, modules, [None] + mats)


def _random_rank_matrices(seed: int, count: int) -> list[list[list[int]]]:
    """Seeded integer matrices up to 30x40: dense, sparse, and low-rank products."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        rows, cols = rng.randint(1, 30), rng.randint(1, 40)
        if n % 3 == 0:
            M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        elif n % 3 == 1:
            M = [[0] * cols for _ in range(rows)]
            for row in M:
                for _ in range(rng.randint(0, 4)):
                    row[rng.randrange(cols)] = rng.choice([-3, -2, -1, 1, 1, 2, 5])
        else:
            inner = rng.randint(0, min(rows, cols))
            A = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)]
            B = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)]
            M = [[sum(A[i][t] * B[t][j] for t in range(inner)) for j in range(cols)]
                 for i in range(rows)]
        out.append(M)
    return out


def test_snf_examples():
    assert _snf([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert _snf([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert _snf([[0]]).diagonal == (0,)
    assert _snf([]).diagonal == ()
    assert _snf([[]]).diagonal == ()


@pytest.mark.parametrize("M, diagonal", [
    ([[4, 0], [0, 6]], (2, 12)),
    ([[6, 0], [0, 4]], (2, 12)),
    ([[12, 0, 0], [0, 6, 0], [0, 0, 4]], (2, 12, 12)),
    ([[2, 0, 0], [0, 3, 0], [0, 0, 4]], (1, 2, 12)),
    ([[4, 0, 0, 0], [0, 6, 0, 0], [0, 0, 0, 0]], (2, 12, 0)),
    ([[-3, 0], [0, 1], [0, 0]], (1, 3)),
    ([[2, 4], [6, 8]], (2, 4)),
])
def test_snf_gcd_lcm_cases(M, diagonal):
    assert _snf(M).diagonal == diagonal
    assert dense_smith_normal_form(M).diagonal == diagonal
    assert tuple(sympy_snf_diagonal(M)) == diagonal


def _scrambled_torsion_matrices(seed: int, count: int) -> list[list[list[int]]]:
    """Diagonals over 0, 1, 2, 3, 4, 6, 12 scrambled by unimodular row and column operations."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        M = [[0] * cols for _ in range(rows)]
        for i in range(min(rows, cols)):
            M[i][i] = rng.choice([0, 1, 2, 2, 3, 4, 6, 12])
        for _ in range(rng.randint(0, 12)):
            q = rng.choice([-2, -1, 1, 2])
            if rng.random() < 0.5 and rows > 1:
                i, j = rng.sample(range(rows), 2)
                M[i] = [a + q * b for a, b in zip(M[i], M[j])]
            elif cols > 1:
                i, j = rng.sample(range(cols), 2)
                for row in M:
                    row[i] += q * row[j]
        rng.shuffle(M)
        out.append(M)
    return out


def test_snf_on_scrambled_torsion_against_oracles():
    matrices = _scrambled_torsion_matrices(29, 240)
    assert sum(1 for M in matrices if dense_smith_normal_form(M).nontrivial()) >= 200
    for M in matrices:
        diag = _snf(M).diagonal
        assert diag == dense_smith_normal_form(M).diagonal, M
        assert list(diag) == sympy_snf_diagonal(M), M


# sympy's SNF on the 324 x 567 boundaries of cover(2,2) at N=3 ran for minutes
# and past 2 GB; above this size only the dense oracle is compared.
SYMPY_SNF_MAX_CELLS = 30_000


@pytest.mark.parametrize("build, g, k, N", [
    (build_cover_complex, 2, 2, 2), (build_cover_complex, 2, 2, 3), (build_cover_complex, 2, 3, 2),
    (build_cover_complex, 3, 1, 2), (build_Q_complex, 2, 2, 2), (build_Q_complex, 2, 4, 2),
])
def test_snf_on_base_changed_boundaries_against_oracles(build, g, k, N):
    # the columns are the rows of the transpose, which has the same Smith form
    ranks, bounds = cover_view(build(g, k), N)
    for i, cols in enumerate(bounds[1:], start=1):
        diag = smith_normal_form(cols, ranks[i - 1]).diagonal
        M = dense_matrix(cols, ranks[i - 1])
        assert diag == dense_smith_normal_form(M).diagonal, i
        if len(M) * len(M[0]) <= SYMPY_SNF_MAX_CELLS:
            assert list(diag) == sympy_snf_diagonal(M), i


def test_integer_matmul_against_dense_product():
    rng = random.Random(31)
    for _ in range(30):
        rows, mid, cols = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        A = [[rng.choice([0, 0, -2, 1, 3]) for _ in range(mid)] for _ in range(rows)]
        B = [[rng.choice([0, 0, -1, 1, 5]) for _ in range(cols)] for _ in range(mid)]
        expected = [[sum(A[i][t] * B[t][j] for t in range(mid)) for j in range(cols)]
                    for i in range(rows)]
        assert dense_matrix(integer_matmul(sparse_rows(A), sparse_rows(B)), cols) == expected
        assert integer_matmul(sparse_rows(A), sparse_rows(B)) == sparse_rows(expected)


def test_snf_divisibility_and_idempotence():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = _snf(M).diagonal
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0
        # idempotence on the diagonalized matrix
        D = [[diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
        assert _snf(D).diagonal == diag


def test_snf_against_sympy_oracle():
    rng = random.Random(17)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        assert list(_snf(M).diagonal) == sympy_snf_diagonal(M)


def test_integer_rank_against_snf():
    rng = random.Random(23)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert _rank(M) == _snf(M).rank()


def test_rank_kernel_edge_cases():
    for p in (None, *RANK_PRIMES):
        rank = _rank if p is None else (lambda M, p=p: modp_rank(M, p))
        assert rank([]) == 0
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[1, 2, 3]]) == 1
        assert rank([[1], [2], [3]]) == 1
    # the pivot entry is a multiple of p, the rest of its column is not
    assert modp_rank([[3, 1], [1, 1]], 3) == 2
    assert modp_rank([[3, 6], [6, 9]], 3) == 0
    assert _rank([[3, 6], [6, 9]]) == 2
    # a row that the fraction-free update empties, and growing coefficients
    assert _rank([[2, 4], [3, 6], [5, 7]]) == 2
    assert _rank([[10 ** 12, 1], [1, 1]]) == 2


def test_rank_kernel_against_dense_oracles():
    for M in _random_rank_matrices(31, 60):
        for p in RANK_PRIMES:
            assert modp_rank(M, p) == dense_modp_rank(M, p), (M, p)
        assert _rank(M) == bareiss_rank(M), M


def _with_planted_zeros(M: list[list[int]], rng: random.Random) -> list[dict[int, int]]:
    """The ``{col: value}`` rows of M, with a stored 0 at about a third of its zero cells."""
    rows = sparse_rows(M)
    for row in rows:
        for j in range(len(M[0])):
            if j not in row and rng.random() < 0.3:
                row[j] = 0
    return rows


def test_exact_routines_drop_stored_zeros():
    assert integer_rank([{0: 0}]) == 0
    assert integer_rank([{0: 0, 1: 1}, {0: 0, 1: 0}]) == 1
    assert smith_normal_form([{0: 0}, {0: 2}], 1).diagonal == (2,)
    # 1 - x augments to 0: its base change at N=1 stores no zero for the kernel to count
    assert integer_free_ranks(_explicit_complex("x", [1, 1], [{(0, 0): lambda R: R.one() - R.gen(0)}]), 1) == [1, 1]
    rng = random.Random(41)
    small = [[[0, 0], [0, 0]], [[0, 3], [0, 0]]]
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        small.append([[rng.choice([0, 0, 0, -4, -2, -1, 1, 2, 3, 6]) for _ in range(cols)]
                      for _ in range(rows)])
    # the dense Smith form's entries grow too fast on the larger matrices, so
    # there the zero-free rows are the reference
    cases = [(M, dense_smith_normal_form(M)) for M in small]
    cases += [(M, _snf(M)) for M in _random_rank_matrices(43, 45)]
    for M, snf in cases:
        rows = _with_planted_zeros(M, rng)
        copies = [dict(row) for row in rows]
        pivots: list[int] = []
        assert integer_rank(rows, pivots) == bareiss_rank(M), M
        assert all(any(row.get(j) for row in rows) for j in pivots), M
        assert smith_normal_form(rows, len(M[0])) == snf, M
        assert rows == copies, M  # both work on copies


def _prepass_matrices(rng: random.Random, p: int | None, count: int):
    """Seeded ``(kind, rows)``: ``none`` needs no row update (every row ends
    with a column of its own), ``mid`` first needs one mid-way (short rows
    with a column of their own, then at least two longer rows on one shared
    set of four columns), ``any`` is unshaped.  Row indices are shuffled
    against length."""
    def value():
        return rng.randrange(1, p) if p else rng.choice([-5, -3, -2, -1, 1, 2, 3, 4])

    for n in range(count):
        cols = rng.randint(4, 30)
        kind = ("none", "mid", "any")[n % 3]
        rows = []
        if kind in ("none", "mid"):
            for own in range(cols, cols + rng.randint(1, 20)):
                cs = rng.sample(range(cols), rng.randint(0, 1 if kind == "mid" else min(cols, 6)))
                rows.append({**{c: value() for c in cs}, own: value()})
        if kind == "mid":
            shared = rng.sample(range(cols), 4)
            rows += [{c: value() for c in shared} for _ in range(rng.randint(2, 8))]
            rows += [{} for _ in range(rng.randint(0, 2))]
        if kind == "any":
            rows = [{c: value() for c in rng.sample(range(cols), rng.randint(0, min(cols, 6)))}
                    for _ in range(rng.randint(1, 30))]
        rng.shuffle(rows)
        yield kind, rows


@pytest.mark.parametrize("p", [2, 3, 1000003, None])
def test_sparse_rank_pre_pass_matches_the_heap_loop(p):
    # the pre-pass takes the steps that eliminate nothing without the heap;
    # rank and pivot order must equal the loop that builds everything first
    for kind, M in _prepass_matrices(random.Random(p or 1), p, 150):
        want, updates = [5], []
        rank = heap_sparse_rank(M, p, want, updates)
        got = [5]
        assert homology._sparse_rank([dict(row) for row in M], p, got) == rank, (kind, M)
        assert got == want, (kind, M)
        if kind == "none":
            assert not any(updates), M
        if kind == "mid":
            assert not updates[0] and any(updates), M


def test_integer_rank_against_sympy():
    # sympy's domain-matrix rank: Matrix.rank itself takes seconds per 30x40 matrix
    from sympy import Matrix

    for M in _random_rank_matrices(37, 30):
        assert _rank(M) == Matrix(M).to_DM().rank(), M


def test_rank_kernel_on_boundaries():
    complexes = [build_cover_complex(3, 3), build_Q_complex(3, 3), build_wedge_complex(6, 3)]
    for c in complexes:
        for p in RANK_PRIMES:
            spec = random_specialization(c.ctx.ring, p, random.Random(p))
            for b in c.boundaries[1:]:
                M = b.specialize(spec)
                assert modp_rank(M, p) == dense_modp_rank(M, p), (c.case, p)
                assert _rank(M) == bareiss_rank(M), (c.case, p)
        ranks, bounds = cover_view(c, 1)
        for i, cols in enumerate(bounds[1:], start=1):
            assert integer_rank(cols) == bareiss_rank(dense_matrix(cols, ranks[i - 1])), c.case
    ranks, bounds = cover_view(build_cover_complex(2, 2), 2)
    for i, cols in enumerate(bounds[1:], start=1):
        M = dense_matrix(cols, ranks[i - 1])  # the transpose, of the same rank
        assert integer_rank(cols) == bareiss_rank(M)
        for p in RANK_PRIMES:
            assert modp_rank(M, p) == dense_modp_rank(M, p), p


def test_integer_homology_circle():
    rep = integer_homology(_explicit_complex("circle", [1, 1], [{}]), 1)
    assert rep.ranks() == [1, 1]
    assert all(e.torsion == () for e in rep.entries)


def test_integer_homology_torsion():
    # Z --2--> Z: H_0 = Z/2, H_1 = 0
    rep = integer_homology(_explicit_complex("mod2", [1, 1], [{(0, 0): 2}]), 1)
    assert rep.ranks() == [0, 0]
    assert rep.entries[0].torsion == (2,)


def test_integer_homology_rejects_bad_boundary():
    bad = _explicit_complex("bad", [1, 1, 1], [{(0, 0): 1}, {(0, 0): 1}])
    with pytest.raises(ValueError, match="boundary composite at degree 2 is nonzero: builder bug"):
        integer_homology(bad, 1)


@pytest.mark.parametrize("route", [integer_free_ranks, integer_homology])
def test_integer_routes_refuse_before_any_base_change(monkeypatch, route):
    # the whole-complex guard runs before the first boundary is base-changed:
    # the cover of theorem-main at (g, k) = (5, 5) and N = 2, and N = 0
    def refuse(M, N):
        raise AssertionError("a boundary was base-changed before the guard")

    monkeypatch.setattr(SparseRingMatrix, "base_change", refuse)
    with pytest.raises(ValueError) as e:
        route(build_cover_complex(5, 5), 2)
    assert str(e.value) == ("base change of the surface-cover complex at N=2 would build up to "
                            "18,145,280 nonzeros, over the limit of 3,000,000 nonzeros")
    with pytest.raises(ValueError) as e:
        route(build_cover_complex(2, 2), 0)
    assert str(e.value) == "N must be >= 1"


def test_integer_homology_checks_d_d_over_the_group_ring():
    # 1 - x augments to 0, so the composite vanishes at N = 1 but not over Z[pi]
    bad = _explicit_complex("bad", [1, 1, 1], [{(0, 0): 1}, {(0, 0): lambda R: R.one() - R.gen(0)}])
    with pytest.raises(ValueError, match="boundary composite at degree 2 is nonzero: builder bug"):
        integer_homology(bad, 1)


def test_integer_routes_keep_the_boundaries_they_read():
    # the rows of the bottom half are a transpose that takes its list over,
    # and the kernel takes its vectors over: neither may change what a
    # boundary keeps (its mapped table), so a second call on one complex
    # agrees with the first, and the base changes read afterwards are unchanged
    cases = [(build_cover_complex(2, 2), 2), (unmarked(build_cover_complex(2, 2)), 2),
             (build_Q_complex(2, 3), 2), (build_wedge_complex(4, 2), 3)]
    for c, N in cases:
        view = cover_view(c, N)
        free, rep = integer_free_ranks(c, N), integer_homology(c, N)
        assert integer_free_ranks(c, N) == free == rep.ranks(), (c.case, c.params, N)
        again = integer_homology(c, N)
        assert [(e.rank, e.torsion) for e in again.entries] == [(e.rank, e.torsion) for e in rep.entries]
        assert cover_view(c, N) == view, (c.case, c.params, N)


def test_integer_homology_n1_matches_betti():
    for g in (1, 2, 3):
        for k in range(0, 5):
            rep = integer_homology(build_cover_complex(g, k), 1)
            assert rep.ranks() == betti_symmetric_power(g, k), (g, k)
            assert all(e.torsion == () for e in rep.entries)


def test_torus_is_first_symmetric_power():
    rep = integer_homology(build_cover_complex(1, 1), 1)
    assert rep.ranks() == [1, 2, 1]


def test_generic_rank_examples():
    c = build_wedge_complex(1, 1)
    assert generic_rank(c.boundaries[1], trials=2, seed=0) == 1
    c = build_wedge_complex(4, 2)
    assert generic_rank(c.boundaries[2], trials=3, seed=0) == 3
    c = build_cover_complex(2, 2)
    assert generic_rank(c.boundaries[4], trials=3, seed=0) == 1
    from sympow.complexes import SparseRingMatrix

    zero = SparseRingMatrix(c.ctx.ring, 3, 2, {})
    assert generic_rank(zero, trials=2, seed=0) == 0
    with pytest.raises(ValueError):
        generic_rank(c.boundaries[1], trials=0)


def test_generic_rank_monotone_and_bounded():
    c = build_cover_complex(2, 2)
    M = c.boundaries[2]
    prev = 0
    for trials in (1, 2, 4):
        r = generic_rank(M, trials=trials, seed=5)
        assert prev <= r <= min(M.rows, M.cols)
        prev = r


def test_generic_rank_against_bruteforce_pivoting():
    c = build_cover_complex(2, 2)
    spec = UnitSpecialization(1000003, (3, 7, 11, 13))
    for i in (1, 2, 3):
        M = c.boundaries[i].specialize(spec)
        assert brute_force_modp_rank(M, 1000003) == generic_rank(c.boundaries[i], trials=1, seed=0)


def test_generic_homology_examples():
    assert generic_homology(build_wedge_complex(4, 2), 3, 1).ranks() == [0, 0, 3]
    assert generic_homology(build_cover_complex(2, 2), 3, 1).ranks() == [0, 0, 1, 0, 0]
    dims = generic_homology(build_Q_complex(2, 2), 3, 1).ranks()
    assert dims[0] == 3 and all(d == 0 for d in dims[1:])


def _count_trials(monkeypatch, ones_at=None):
    """Record the trial index of every specialization drawn; trial ``ones_at``,
    if given, sets every variable to 1."""
    seen = []
    draw = homology._trial_specialization

    def counting(ring, prime, seed, trial):
        seen.append(trial)
        if trial == ones_at:
            return UnitSpecialization(prime, (1,) * ring.nvars)
        return draw(ring, prime, seed, trial)

    monkeypatch.setattr(homology, "_trial_specialization", counting)
    return seen


def test_generic_homology_matches_every_trial_oracle():
    complexes = [build_cover_complex(2, 2), build_cover_complex(2, 3), build_cover_complex(3, 3),
                 build_Q_complex(2, 2), build_Q_complex(3, 3),
                 build_wedge_complex(4, 2), build_wedge_complex(6, 3)]
    for c in complexes:
        for prime in RANK_PRIMES:
            for seed in range(5):
                rep = generic_homology(c, 5, seed, prime)
                assert rep.ranks() == all_trials_generic_homology(c, 5, seed, prime), \
                    (c.case, c.params, prime, seed)


def test_generic_homology_stops_after_certifying_trial(monkeypatch):
    seen = _count_trials(monkeypatch)
    rep = generic_homology(build_cover_complex(3, 3), 5, 0)
    assert seen == [0]
    assert rep.trials == 5 and rep.to_json_dict()["trials"] == 5
    assert rep.ranks() == [0, 0, 0, 4, 0, 0, 0]


def test_generic_homology_runs_on_after_a_miss(monkeypatch):
    # every variable at 1 is the augmentation: the homology of Sym^k itself,
    # spread over every degree, so trial 0 certifies nothing
    c = build_cover_complex(3, 3)
    seen = _count_trials(monkeypatch, ones_at=0)
    rep = generic_homology(c, 5, 2)
    assert seen[0] == 0 and len(seen) > 1
    assert rep.ranks() == all_trials_generic_homology(c, 5, 2, homology.FAST_PRIME)


def test_generic_homology_two_degrees_runs_every_trial(monkeypatch):
    # d = diag(z1 - 1, 0) on Z[z1]^2 -> Z[z1]^2: generic homology [1, 1], in
    # two degrees, so no trial certifies; z1 = 1 in the last trial gives
    # [2, 2], which only the minimum over trials discards (the bases are
    # labels: generic_homology reads their lengths)
    ctx = build_wedge_complex(1, 1).ctx
    ring = ctx.ring
    modules = [BasedFreeModule(0, ((0, 0), (0, 1))), BasedFreeModule(1, ((1, 0), (1, 1)))]
    d = SparseRingMatrix(ring, 2, 2, {(0, 0): ring.gen(0) - ring.one()})
    c = ChainComplex("wedge", {"n": 1, "k": 1}, ctx, modules, [None, d])
    seen = _count_trials(monkeypatch, ones_at=4)
    rep = generic_homology(c, 5, 0)
    assert seen == [0, 1, 2, 3, 4]
    assert rep.ranks() == [1, 1] and rep.trials == 5


def _clearing_complexes():
    """Cover g <= 3 with k <= 2g+1, Q g <= 3 with k <= 2g, wedge n <= 6 with k <= n."""
    for g in (1, 2, 3):
        for k in range(1, 2 * g + 2):
            yield build_cover_complex(g, k)
        for k in range(1, 2 * g + 1):
            yield build_Q_complex(g, k)
    for n in range(1, 7):
        for k in range(1, n + 1):
            yield build_wedge_complex(n, k)


def _generic_views(c, spec):
    """The column view and F_p rank callbacks ``generic_homology`` gives
    ``_cleared_ranks`` at one point."""
    b = c.boundaries
    return (lambda i, skip: b[i].specialize_columns(spec, skip),
            lambda vectors, pivots: homology._sparse_rank(vectors, spec.prime, pivots))


def test_cleared_ranks_match_full_boundary_ranks():
    # oracle: the uncleared route, modp_rank on each full specialized boundary;
    # every meeting degree gives the same ranks as the default one
    for c in _clearing_complexes():
        for prime in RANK_PRIMES:
            for seed in range(3):
                spec = homology._trial_specialization(c.ctx.ring, prime, seed, 0)
                full = [0] + [modp_rank(b.specialize(spec), prime) for b in c.boundaries[1:]] + [0]
                for meet in (None, *range(c.top_degree + 1)):
                    cleared = homology._cleared_ranks(c.ranks, *_generic_views(c, spec), _meet=meet)
                    assert cleared == full, (c.case, c.params, prime, seed, meet)


def test_cleared_ranks_at_the_augmentation():
    # every variable at 1: homology of Sym^k itself, nonzero in many degrees,
    # so the boundaries are far from full rank
    for g, k in ((2, 2), (2, 4), (3, 3)):
        c = build_cover_complex(g, k)
        for prime in RANK_PRIMES:
            spec = UnitSpecialization(prime, (1,) * c.ctx.ring.nvars)
            full = [0] + [modp_rank(b.specialize(spec), prime) for b in c.boundaries[1:]] + [0]
            for meet in (None, *range(c.top_degree + 1)):
                assert homology._cleared_ranks(c.ranks, *_generic_views(c, spec), _meet=meet) == full
            ranks = [len(m.basis) for m in c.modules]
            dims = [ranks[i] - full[i] - full[i + 1] for i in range(len(ranks))]
            assert dims == betti_symmetric_power(g, k), (g, k, prime)


def test_pivot_lists_are_independent_columns():
    # the pivots a rank call reports: one per step, distinct, and a set of
    # linearly independent columns (the submatrix on them has the same rank)
    for M in _random_rank_matrices(7, 30):
        for p in (None,) + RANK_PRIMES:
            pivots = [3]  # appended to, never cleared
            if p is None:
                r = integer_rank(sparse_rows(M), pivots)
                sub_rank = bareiss_rank([[row[j] for j in pivots[1:]] for row in M])
            else:
                r = modp_rank(M, p, pivots)
                sub_rank = dense_modp_rank([[row[j] for j in pivots[1:]] for row in M], p)
            assert pivots[0] == 3 and len(pivots) == r + 1 and len(set(pivots[1:])) == r
            assert sub_rank == r, (M, p)


def test_integer_free_ranks_match_per_boundary_integer_rank():
    cases = [(build_cover_complex(2, 2), 2), (build_cover_complex(2, 2), 3),
             (build_cover_complex(2, 3), 2), (build_Q_complex(2, 4), 2)]
    for c, N in cases:
        ranks, bounds = cover_view(c, N)
        full = [0] + [integer_rank(b) for b in bounds[1:]] + [0]
        assert integer_free_ranks(c, N) == [ranks[i] - full[i] - full[i + 1]
                                            for i in range(len(ranks))], (c.case, c.params, N)
    assert integer_free_ranks(build_cover_complex(2, 2), 2) == [1, 4, 22, 4, 1]


def _recording(monkeypatch, name):
    """Wrap ``homology.<name>``; record the row count of each call's matrix."""
    seen = []
    original = getattr(homology, name)

    def counting(M, *args):
        seen.append(len(M))
        return original(M, *args)

    monkeypatch.setattr(homology, name, counting)
    return seen


def _cleared_input_counts(sizes, full, meet):
    """Vectors each call of the rank kernel meets, in call order: ``d_1 .. d_m``
    with ``rows(d_i) - rank d_(i-1)`` rows, then ``d_top .. d_(m+1)`` with
    ``cols(d_i) - rank d_(i+1)`` columns; ``full`` is ``[0, rank d_1, .., 0]``."""
    top = len(sizes) - 1
    return ([sizes[i - 1] - full[i - 1] for i in range(1, meet + 1)]
            + [sizes[i] - full[i + 1] for i in range(top, meet, -1)])


def _uncleared_input_counts(sizes, meet):
    top = len(sizes) - 1
    return [sizes[i - 1] for i in range(1, meet + 1)] + [sizes[i] for i in range(top, meet, -1)]


def _mirrored_input_counts(sizes, full):
    """Vectors each call of the rank kernel meets on a self-dual complex, in
    call order: ``d_top .. d_(m+1)``, ``m = top // 2``, with ``cols(d_i) - rank
    d_(i+1)`` columns; the ranks of ``d_1 .. d_m`` are copied, not ranked."""
    top = len(sizes) - 1
    return [sizes[i] - full[i + 1] for i in range(top, top // 2, -1)]


def test_clearing_drops_the_pivot_rows_of_the_previous_boundary(monkeypatch):
    # unmarked, below the largest module (degree m) each d_i reaches the rank
    # kernel without the rows at the pivots of d_(i-1); above it, without the
    # columns at the pivots of d_(i+1); every forced m keeps the same counts.
    # Marked self-dual, only d_top .. d_(top//2 + 1) reach it, by columns.
    for c in (build_cover_complex(3, 3), build_Q_complex(3, 3), build_wedge_complex(6, 3),
              build_Q_complex(3, 6), build_wedge_complex(6, 6)):
        prime, seed = homology.FAST_PRIME, 1
        spec = homology._trial_specialization(c.ctx.ring, prime, seed, 0)
        full = [0] + [modp_rank(b.specialize(spec), prime) for b in c.boundaries[1:]] + [0]
        top, meet = c.top_degree, c.ranks.index(max(c.ranks))
        for complex_, marked in ((c, c.duality is not None), (unmarked(c), False)):
            seen = _recording(monkeypatch, "_sparse_rank")
            generic_homology(complex_, 1, seed, prime)
            monkeypatch.undo()
            if marked:
                assert seen == _mirrored_input_counts(c.ranks, full), (c.case, c.params)
                assert sum(seen) < sum(c.ranks[i] for i in range(top, top // 2, -1))  # some vector was cleared
            else:
                assert seen == _cleared_input_counts(c.ranks, full, meet), (c.case, c.params)
                assert sum(seen) < sum(_uncleared_input_counts(c.ranks, meet))  # some vector was cleared
        assert (c.duality is not None) == (c.case == "surface-cover" or c.top_degree == 6), (c.case, c.params)
        if c.duality is not None:
            seen = _recording(monkeypatch, "_sparse_rank")
            assert homology._cleared_ranks(c.ranks, *_generic_views(c, spec), True) == full
            monkeypatch.undo()
            assert seen == _mirrored_input_counts(c.ranks, full), (c.case, c.params)
        for meet in range(c.top_degree + 1):
            seen = _recording(monkeypatch, "_sparse_rank")
            assert homology._cleared_ranks(c.ranks, *_generic_views(c, spec), _meet=meet) == full
            monkeypatch.undo()
            assert seen == _cleared_input_counts(c.ranks, full, meet), (c.case, c.params, meet)
    cover = build_cover_complex(2, 2)
    ranks, bounds = cover_view(cover, 2)
    full = [0] + [integer_rank(b) for b in bounds[1:]] + [0]
    seen = _recording(monkeypatch, "integer_rank")
    integer_free_ranks(cover, 2)
    assert seen == _mirrored_input_counts(ranks, full)  # module ranks 16, 64, 112, 64, 16
    assert sum(seen) < sum(ranks[4:2:-1])
    seen.clear()
    integer_free_ranks(unmarked(cover), 2)
    assert seen == _cleared_input_counts(ranks, full, 2)
    assert sum(seen) < sum(_uncleared_input_counts(ranks, 2))
    for meet in range(len(ranks)):
        seen.clear()
        cleared = homology._cleared_ranks(
            ranks, lambda i, skip: [v for c, v in enumerate(bounds[i]) if c not in skip],
            homology.integer_rank, _meet=meet)
        assert cleared == full and seen == _cleared_input_counts(ranks, full, meet), meet


def test_no_vector_is_eliminated_in_vain_when_the_homology_sits_at_the_meet(monkeypatch):
    # the homology of these complexes sits where their ranking halves meet
    # (the largest module; the middle degree k of the self-dual covers, whose
    # lower half is copied), so every vector the rank kernel meets is a pivot:
    # each call's rank is the number of nonempty vectors it meets, the regime
    # the kernel's pre-pass serves.  cover(3, 3) and the last five are the
    # benchmark's generic workload.
    for c in (build_cover_complex(3, 3), build_Q_complex(4, 4), build_wedge_complex(8, 4),
              build_cover_complex(5, 5), build_cover_complex(5, 4), build_Q_complex(5, 5),
              build_wedge_complex(10, 5), build_cover_complex(4, 4)):
        calls = []
        original = homology._sparse_rank

        def counting(M, *args):
            M = list(M)
            calls.append((sum(1 for v in M if v), original(M, *args)))
            return calls[-1][1]

        monkeypatch.setattr(homology, "_sparse_rank", counting)
        dims = generic_homology(c, seed=0).ranks()
        monkeypatch.undo()
        top, marked = c.top_degree, c.duality is not None
        assert marked == (c.case == "surface-cover"), (c.case, c.params)
        meet = top // 2 if marked else c.ranks.index(max(c.ranks))
        assert [i for i, d in enumerate(dims) if d] == [meet], (c.case, c.params, dims)
        inputs, ranks = zip(*calls)
        assert len(calls) == (top - top // 2 if marked else top), (c.case, c.params, calls)
        assert inputs == ranks, (c.case, c.params, calls)


def test_generic_rank_stops_at_full_rank(monkeypatch):
    c = build_cover_complex(2, 2)
    seen = _count_trials(monkeypatch)
    assert generic_rank(c.boundaries[1], trials=5, seed=0) == 1
    assert seen == [0]
    seen.clear()
    zero = SparseRingMatrix(c.ctx.ring, 3, 2, {})
    assert generic_rank(zero, trials=4, seed=0) == 0
    assert seen == [0, 1, 2, 3]


def test_specialize_deduplicated_matches_entrywise():
    for c in (build_cover_complex(3, 3), build_Q_complex(3, 3), build_wedge_complex(6, 3)):
        for prime in RANK_PRIMES:
            spec = random_specialization(c.ctx.ring, prime, random.Random(prime))
            for M in c.boundaries[1:]:
                entrywise = [[M.entry(r, col).specialize(spec) for col in range(M.cols)]
                             for r in range(M.rows)]
                assert M.specialize(spec) == entrywise


def test_specialize_rows_store_the_nonzero_evaluations():
    # at the all-ones point every 1 - x_i vanishes, and a vanished entry is absent
    for c in (build_cover_complex(3, 3), build_Q_complex(3, 3), build_wedge_complex(6, 3)):
        prime = homology.FAST_PRIME
        ones = UnitSpecialization(prime, (1,) * c.ctx.ring.nvars)
        for spec in (random_specialization(c.ctx.ring, prime, random.Random(5)), ones):
            for M in c.boundaries[1:]:
                entrywise = [{col: x for col in range(M.cols) if (x := M.entry(r, col).specialize(spec))}
                             for r in range(M.rows)]
                assert _transpose(M.specialize_columns(spec), M.rows) == entrywise
        # every entry of these complexes vanishes under the augmentation
        assert any(b.entries for b in c.boundaries[1:])
        assert not any(any(b.specialize_columns(ones)) for b in c.boundaries[1:])


def test_euler_conservation_per_method():
    c = build_cover_complex(2, 2)
    chi_modules = sum((-1) ** i * r for i, r in enumerate(c.ranks))
    assert generic_homology(c, 3, 1).euler == chi_modules
    assert integer_homology(c, 1).euler == chi_modules
    assert integer_homology(c, 2).euler == 16 * chi_modules


def test_betti_examples_and_gf_oracle():
    assert betti_symmetric_power(1, 1) == [1, 2, 1]
    assert betti_symmetric_power(2, 1) == [1, 4, 1]
    assert betti_symmetric_power(2, 2) == [1, 4, 7, 4, 1]
    for g in range(1, 8):
        for k in (*range(0, 7), *range(7, 40, 4)):
            assert betti_symmetric_power(g, k) == gf_betti(g, k), (g, k)


def test_betti_numbers_take_linear_time_in_k():
    # g * k additions, not k^2: the cells of weight <= k counted once each
    k = 100_000
    start = time.process_time()
    betti = betti_symmetric_power(2, k)
    assert time.process_time() - start < 1.0
    assert len(betti) == 2 * k + 1 and betti == betti[::-1]
    assert betti[:6] == [1, 4, 7, 8, 8, 8] and betti[k] == 8
    assert sum(betti) == sum(math.comb(4, j) * (k - j + 1) for j in range(5))


def test_euler_characteristic():
    assert euler_characteristic(2, 2) == 1 == math.comb(2, 2)
    assert euler_characteristic(1, 1) == 0
    assert euler_characteristic(3, 2) == math.comb(4, 2)
    for g in range(1, 5):
        for k in range(0, 2 * g - 1):
            assert euler_characteristic(g, k) == (-1) ** k * math.comb(2 * g - 2, k), (g, k)


def test_betti_bundle_pattern_from_first_special_degree():
    # from k = 2g-1 on, the Betti numbers match a projective-bundle Kunneth pattern
    for g in (1, 2, 3):
        for k in (2 * g - 1, 2 * g, 2 * g + 1):
            pattern = []
            for d in range(2 * k + 1):
                total = 0
                for s in range(min(d // 2, k - g) + 1):
                    j = d - 2 * s
                    if j <= 2 * g:
                        total += math.comb(2 * g, j)
                pattern.append(total)
            assert betti_symmetric_power(g, k) == pattern, (g, k)


def test_kernel_basis_columns_annihilated():
    c = build_wedge_complex(4, 2)
    rng = random.Random(2)
    spec = random_specialization(c.ctx.ring, 1000003, rng)
    kb = kernel_basis(c.boundaries[2], 2, spec)
    assert kb.dim == 3
    M = c.boundaries[2].specialize(spec)
    for v in kb.columns:
        assert not any(modp_matvec(M, v, spec.prime))


def test_lambda_squared_kills_kernel_vectors():
    g = 2
    rng = random.Random(4)
    ctx = build_cover_complex(g, 1).ctx
    spec = random_specialization(ctx.ring, 1000003, rng)
    from sympow.complexes import exterior_boundary_matrix

    kb = kernel_basis(exterior_boundary_matrix(ctx, 2), 2, spec)
    lam2 = lambda_matrix(ctx, 2).specialize(spec)
    lam3 = lambda_matrix(ctx, 3).specialize(spec)
    assert kb.dim == 3
    for v in kb.columns:
        assert not any(modp_matvec(lam3, modp_matvec(lam2, v, spec.prime), spec.prime))


def test_n2_cover_homology_against_sympy():
    # end-to-end dual route: the N=2 cover of the (g,k)=(2,2) complex, with
    # ranks and torsion recomputed by sympy's independent linear algebra
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    c = build_cover_complex(2, 2)
    ranks, cols = cover_view(c, 2)
    # each boundary's transpose, of the same rank and Smith form
    dense = [dense_matrix(b, ranks[i - 1]) for i, b in enumerate(cols[1:], start=1)]
    sympy_ranks = [Matrix(b).rank() for b in dense]
    bounds = [0] + sympy_ranks + [0]
    sympy_free = [ranks[i] - bounds[i] - bounds[i + 1] for i in range(len(ranks))]
    rep = integer_homology(c, 2)
    assert rep.ranks() == sympy_free == [1, 4, 22, 4, 1]
    for i, b in enumerate(dense, start=1):
        S = smith_normal_form(Matrix(b), domain=ZZ)
        diag = [abs(int(S[j, j])) for j in range(min(S.rows, S.cols))]
        assert [d for d in diag if d not in (0, 1)] == list(rep.entries[i - 1].torsion)


def test_report_json_shape():
    rep = generic_homology(build_cover_complex(2, 2), 2, 1, prime=1000003)
    d = rep.to_json_dict()
    assert set(d) == {"case", "g", "k", "N", "method", "prime", "trials", "seed", "homology", "euler"}
    assert d["method"] == "generic-rank"
    assert d["homology"][2] == {"degree": 2, "rank": 1, "torsion": []}
