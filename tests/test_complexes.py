import json
import random
import time
import tracemalloc

import pytest

import sympow.complexes as complexes
import sympow.dga as dga
from sympow.complexes import (
    MAX_BASE_CHANGE_NONZEROS,
    SparseRingMatrix,
    _export_cells,
    _exterior_basis,
    base_change,
    build_cover_complex,
    build_Q_complex,
    build_wedge_complex,
    export_json,
    export_text,
    exterior_boundary_matrix,
    lambda_matrix,
    operator_matrix,
)
from sympow.dga import (boundary, dga_mul, ext_gen, lambda_element, monomial_elem, monomial_str,
                        surface_context)
from sympow.groupring import (UnitSpecialization, random_specialization, surface_ring,
                              wedge_ring)
from sympow import homology
from sympow.homology import integer_homology
from oracles import (
    block_rows,
    cell_view,
    cover_basis,
    dense_base_change,
    dense_matrix,
    first_order_block,
    first_order_value,
    gf_betti,
    mod2_columns,
    pair_walk_columns,
    pair_walk_rows,
    pair_walk_terms,
    random_laurent_matrix,
    regular_block,
    sparse_rows,
    unmarked,
)


def test_wedge_examples():
    c = build_wedge_complex(2, 2)
    assert c.ranks == [1, 2, 1]
    z1, z2 = wedge_ring(2).gen(0), wedge_ring(2).gen(1)
    one = wedge_ring(2).one()
    d1 = c.boundaries[1]
    assert d1.entry(0, 0) == one - z1 and d1.entry(0, 1) == one - z2
    d2 = c.boundaries[2]
    assert d2.entry(0, 0) == -(one - z2) and d2.entry(1, 0) == one - z1
    assert build_wedge_complex(4, 2).ranks == [1, 4, 6]
    assert build_wedge_complex(1, 1).ranks == [1, 1]
    with pytest.raises(ValueError):
        build_wedge_complex(2, 3)


def test_cover_examples():
    c = build_cover_complex(1, 2)
    assert c.ranks == [1, 2, 2, 2, 1]
    deg2 = {monomial_str(c.ctx, m) for m in c.modules[2].basis}
    assert deg2 == {"e1*f1", "g^(1)"}
    deg3 = [monomial_str(c.ctx, m) for m in c.modules[3].basis]
    assert deg3 == ["e1*g^(1)", "f1*g^(1)"]
    assert build_cover_complex(2, 2).ranks == [1, 4, 7, 4, 1]
    c = build_cover_complex(2, 1)
    assert c.ranks == [1, 4, 1]
    assert [monomial_str(c.ctx, m) for m in c.modules[2].basis] == ["g^(1)"]
    assert build_cover_complex(1, 0).ranks == [1]


def test_cover_boundary_matrix_entries():
    c = build_cover_complex(1, 1)
    ring = c.ctx.ring
    d1 = c.boundary_matrix(1)
    assert d1.entry(0, 0) == ring.one() - ring.gen(0)
    assert d1.entry(0, 1) == ring.one() - ring.gen(1)
    c = build_cover_complex(1, 2)
    d2 = c.boundary_matrix(2)
    col = next(j for j, m in enumerate(c.modules[2].basis) if m == (0, 1))
    row_e1 = next(i for i, m in enumerate(c.modules[1].basis) if m == (0b01, 0))
    row_f1 = next(i for i, m in enumerate(c.modules[1].basis) if m == (0b10, 0))
    assert d2.entry(row_e1, col) == ring.one() - ring.gen(1)
    assert d2.entry(row_f1, col) == ring.gen(0) - ring.one()
    with pytest.raises(ValueError):
        c.boundary_matrix(0)
    with pytest.raises(ValueError):
        c.boundary_matrix(99)


def test_boundary_squared_zero_all_builders():
    complexes = [build_wedge_complex(n, k) for n in range(1, 7) for k in range(0, min(n, 6) + 1)]
    complexes += [build_cover_complex(g, k) for g in range(1, 4) for k in range(0, 7)]
    complexes += [build_Q_complex(g, k) for g in range(1, 4) for k in range(1, 7)]
    for c in complexes:
        for i in range(2, c.top_degree + 1):
            assert not c.boundaries[i - 1].compose(c.boundaries[i]).entries, (c.case, c.params, i)


def test_compose_entries_are_column_major():
    ring = surface_ring(1)
    one, x = ring.one(), ring.gen(0)
    A = SparseRingMatrix(ring, 3, 2, {(1, 0): x, (2, 0): one, (0, 1): one, (1, 1): -x})
    B = SparseRingMatrix(ring, 2, 2, {(0, 0): one, (1, 0): one, (0, 1): one})
    # rows reach column 0 out of order, and its row 1 cancels
    assert list(A.compose(B).entries) == [(0, 0), (2, 0), (1, 1), (2, 1)]


def test_cover_ranks_match_generating_function():
    for g in range(1, 4):
        for k in range(0, 4):
            c = build_cover_complex(g, k)
            expected = gf_betti(g, k)
            assert c.ranks == expected, (g, k)


def test_cover_restricts_to_wedge():
    # gamma-free part of the cover complex = wedge complex on 2g circles,
    # under the variable relabeling x_i -> z_i, y_i -> z_{g+i}
    g, k = 2, 3
    cover = build_cover_complex(g, k)
    wedge = build_wedge_complex(2 * g, min(k, 2 * g))
    for i in range(1, min(k, 2 * g) + 1):
        cov_basis = cover.modules[i].basis
        cov_index = {m: j for j, m in enumerate(cov_basis)}
        wed_basis = wedge.modules[i].basis
        # same masks, same order
        ext_only = [m for m in cov_basis if m[1] == 0]
        assert [m[0] for m in ext_only] == [m[0] for m in wed_basis]
        prev_ext = [m for m in cover.modules[i - 1].basis if m[1] == 0]
        prev_index = {m: j for j, m in enumerate(cover.modules[i - 1].basis)}
        for cw, mono in enumerate(wed_basis):
            for rw, target in enumerate(wedge.modules[i - 1].basis):
                wentry = wedge.boundaries[i].entry(rw, cw)
                centry = cover.boundaries[i].entry(prev_index[target], cov_index[(mono[0], 0)])
                # identical exponent vectors: x1..xg,y1..yg align with z1..z2g
                assert wentry.terms == centry.terms


def test_q_complex_examples():
    q = build_Q_complex(1, 2)
    assert q.ranks == [1, 2, 1]
    q = build_Q_complex(2, 1)
    assert q.ranks == [4, 1]  # stored reversed: positions (1, 0)
    # composite of consecutive maps is zero (lam^2 = 0)
    for g, k in ((1, 2), (2, 4), (2, 3)):
        q = build_Q_complex(g, k)
        for i in range(2, q.top_degree + 1):
            assert not q.boundaries[i - 1].compose(q.boundaries[i]).entries
    # k beyond 2g caps at the full exterior algebra
    assert build_Q_complex(1, 5).params["top"] == 2
    with pytest.raises(ValueError):
        build_Q_complex(1, 0)


def test_base_change_n1_and_scaling():
    c = build_cover_complex(2, 2)
    ic = base_change(c, 1)
    assert ic.ranks == [1, 4, 7, 4, 1]
    assert all(row == {} for b in ic.boundaries[1:] for row in b)
    ic2 = base_change(build_cover_complex(1, 1), 2)
    assert ic2.ranks == [4, 8, 4]
    chi = lambda ranks: sum((-1) ** i * r for i, r in enumerate(ranks))
    assert chi(ic2.ranks) == 4 * chi([1, 2, 1])
    with pytest.raises(ValueError):
        base_change(c, 0)


def test_specialize_and_base_change_commute_with_extraction():
    c = build_cover_complex(1, 2)
    spec = UnitSpecialization(101, (3, 5))
    all_ones = UnitSpecialization(101, (1, 1))
    for i in range(1, c.top_degree + 1):
        M = c.boundary_matrix(i)
        assert M.specialize(spec) == [[M.entry(r, col).specialize(spec) for col in range(M.cols)]
                                      for r in range(M.rows)]
        assert base_change(c, 2).boundaries[i] == M.base_change(2)
        assert all(x == 0 for row in M.specialize(all_ones) for x in row)


def _assert_columns_match_oracle(M: SparseRingMatrix, N: int, label) -> None:
    # the columns are the rows of the transposed dense oracle
    cols = M.base_change(N)
    bs = N ** M.ring.nvars
    assert len(cols) == M.cols * bs, label
    assert all(0 not in col.values() for col in cols), label
    assert cols == _transposed(sparse_rows(dense_base_change(M, N)), M.cols * bs), label


def test_base_change_columns_match_dense_blockwise_oracle():
    ring = surface_ring(1)
    x, y = ring.gen(0), ring.gen(1)
    x_inv = ring.monomial((-1, 0))
    shared = ring.one() - x
    # x + x^-1 and 3 + x^2 meet in one cell at N = 1, 2; x - x^-1 cancels there at N = 2
    hand = SparseRingMatrix(ring, 2, 3, {(0, 0): shared, (1, 1): shared, (0, 2): ring.one() - x,
                                         (1, 2): 2 * y - x * x + 3 * ring.one()})
    colliding = SparseRingMatrix(ring, 2, 2, {(1, 0): x + x_inv, (0, 1): ring.one() * 3 + x * x,
                                              (0, 0): x - x_inv})
    for N in (1, 2, 3, 4):
        for M in (hand, colliding):
            _assert_columns_match_oracle(M, N, (M.entries, N))
    for M, N in ((build_cover_complex(2, 2).boundaries[2], 2), (build_cover_complex(1, 2).boundaries[3], 3)):
        _assert_columns_match_oracle(M, N, N)
    # every builder at N = 1, 2, 3: the lam and exterior matrices, the covers,
    # lam-complexes and wedges below
    for g, sizes in ((1, range(0, 3)), (2, (1,))):
        ctx = surface_context(g)
        for N in (1, 2, 3):
            for size in sizes:
                _assert_columns_match_oracle(lambda_matrix(ctx, size), N, ("lam", g, size, N))
                _assert_columns_match_oracle(exterior_boundary_matrix(ctx, size + 1), N, ("d", g, size + 1, N))
    cases = [(build_cover_complex(1, k), (1, 2, 3, 4)) for k in (1, 2, 3)]
    cases += [(build_cover_complex(2, k), (1, 2, 3)) for k in (1, 2, 3)]
    cases += [(build_cover_complex(3, k), (1, 2)) for k in (1, 2)]
    cases += [(build_Q_complex(2, k), (1, 2, 3)) for k in (2, 4)] + [(build_Q_complex(3, 3), (1, 2))]
    cases += [(build_wedge_complex(3, 3), (1, 2, 3, 4)), (build_wedge_complex(4, 2), (1, 2, 3))]
    for c, n_values in cases:
        for N in n_values:
            for i in range(1, c.top_degree + 1):
                _assert_columns_match_oracle(c.boundaries[i], N, (c.case, c.params, N, i))


def test_base_change_of_cover_at_N4_stays_small():
    c = build_cover_complex(2, 2)
    tracemalloc.start()
    try:
        rep = integer_homology(base_change(c, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ranks() == [1, 4, 262, 4, 1]
    assert peak < 10_000_000  # a dense 1024 x 1792 d_2 alone would take 14 MB of row lists


def test_cover_bases_nest_with_k():
    # stabilization: the weight-(k) basis sits inside the weight-(k+1) basis
    for g in (1, 2):
        ctx = surface_context(g)
        for k in range(0, 4):
            modules = build_cover_complex(g, k).modules
            larger = build_cover_complex(g, k + 1).modules
            assert len(modules) == 2 * k + 1
            for d, module in enumerate(modules):
                assert module.degree == d and module.basis == cover_basis(ctx, k, d)
                assert set(module.basis) <= set(larger[d].basis)


def test_bases_are_enumerated_in_sort_key_order():
    # oracle: the per-degree enumeration the cover builder used before, and
    # the sorted enumeration before that
    for g in range(1, 6):
        ctx = surface_context(g)
        for size in range(2 * g + 1):
            basis = _exterior_basis(ctx, size)
            assert basis == tuple(sorted(basis, key=dga.monomial_sort_key))
            if g <= 4:  # every mask of the size, scanned
                assert basis == tuple(sorted(((m, 0) for m in range(1 << 2 * g) if m.bit_count() == size),
                                             key=dga.monomial_sort_key))
        for k in range(8):
            modules = build_cover_complex(g, k).modules
            assert len(modules) == 2 * k + 1
            for d, module in enumerate(modules):
                assert module.basis == cover_basis(ctx, k, d)
                expected = [(mask, s) for s in range(d // 2 + 1) if d - 2 * s <= 2 * g and d - s <= k
                            for mask, _ in _exterior_basis(ctx, d - 2 * s)]
                assert module.basis == tuple(sorted(expected, key=dga.monomial_sort_key))


def test_cover_build_takes_linear_time_in_cells():
    # each exterior size enumerated once, not once per degree and divided power
    start = time.process_time()
    c = build_cover_complex(1, 6000)
    assert time.process_time() - start < 1.0
    assert len(c.modules) == 12_001
    assert sum(m.rank for m in c.modules) == 24_000
    assert [m.rank for m in c.modules[:4]] == [1, 2, 2, 2] and c.modules[-1].basis == ((0, 6000),)


def test_sparse_ring_matrix_validates_every_entry():
    ring = surface_ring(1)
    one = ring.one()
    SparseRingMatrix(ring, 2, 3, {(0, 0): one, (1, 2): one})
    for key in ((-1, 0), (0, -1), (2, 0), (0, 3)):
        with pytest.raises(ValueError, match="out of range"):
            SparseRingMatrix(ring, 2, 3, {(0, 0): one, key: one})
    with pytest.raises(ValueError, match="nonzero"):
        SparseRingMatrix(ring, 2, 3, {(0, 0): one, (1, 1): ring.zero()})


def test_specialized_wedge_ranks():
    from sympow.homology import modp_rank

    c = build_wedge_complex(2, 2)
    spec = UnitSpecialization(1000003, (3, 5))
    assert modp_rank(c.boundary_matrix(1).specialize(spec), 1000003) == 1
    assert modp_rank(c.boundary_matrix(2).specialize(spec), 1000003) == 1


def test_lambda_and_exterior_matrices():
    lm = lambda_matrix(surface_context(1), 0)
    ring = surface_ring(1)
    assert (lm.rows, lm.cols) == (2, 1)
    assert lm.entry(0, 0) == ring.one() - ring.gen(1)
    assert lm.entry(1, 0) == ring.gen(0) - ring.one()
    em = exterior_boundary_matrix(surface_context(2), 1)
    assert (em.rows, em.cols) == (1, 4)


def test_export_text_golden():
    text = export_text(build_wedge_complex(1, 1))
    assert text == (
        "SYMPOW-COMPLEX v1 case=wedge g=1 k=1 degrees=2\n"
        "MODULE 0 rank=1\n"
        "1\n"
        "MODULE 1 rank=1\n"
        "e1\n"
        "BOUNDARY 1 entries=1\n"
        "0 0 1 - 1*z1\n"
    )
    text = export_text(build_cover_complex(1, 1))
    assert "case=cover g=1 k=1 degrees=3" in text.splitlines()[0]
    assert "0 0 1 - 1*x1" in text


def test_export_cover_golden():
    # pins basis ordering, header fields, and every boundary entry
    assert export_text(build_cover_complex(1, 2)) == (
        "SYMPOW-COMPLEX v1 case=cover g=1 k=2 degrees=5\n"
        "MODULE 0 rank=1\n"
        "1\n"
        "MODULE 1 rank=2\n"
        "e1\n"
        "f1\n"
        "MODULE 2 rank=2\n"
        "g^(1)\n"
        "e1*f1\n"
        "MODULE 3 rank=2\n"
        "e1*g^(1)\n"
        "f1*g^(1)\n"
        "MODULE 4 rank=1\n"
        "g^(2)\n"
        "BOUNDARY 1 entries=2\n"
        "0 0 1 - 1*x1\n"
        "0 1 1 - 1*y1\n"
        "BOUNDARY 2 entries=4\n"
        "0 0 1 - 1*y1\n"
        "1 0 -1 + 1*x1\n"
        "0 1 -1 + 1*y1\n"
        "1 1 1 - 1*x1\n"
        "BOUNDARY 3 entries=4\n"
        "0 0 1 - 1*x1\n"
        "1 0 1 - 1*x1\n"
        "0 1 1 - 1*y1\n"
        "1 1 1 - 1*y1\n"
        "BOUNDARY 4 entries=2\n"
        "0 0 1 - 1*y1\n"
        "1 0 -1 + 1*x1\n"
    )


def test_export_prints_each_entry_object_once(monkeypatch):
    from sympow.groupring import GroupRingElement

    expected = export_text(build_cover_complex(2, 3)), export_json(build_cover_complex(2, 3))
    calls = []
    orig = GroupRingElement.canonical_str

    def counting(self):
        calls.append(id(self))
        return orig(self)

    monkeypatch.setattr(GroupRingElement, "canonical_str", counting)
    c = build_cover_complex(2, 3)  # a fresh table, not printed before the patch
    assert (export_text(c), export_json(c)) == expected
    # once per object of the complex's one table, over every boundary and both formats
    assert sorted(calls) == sorted(id(x) for part in c.ctx.table for pair in part for x in pair)
    assert len(calls) < sum(len(b.entries) for b in c.boundaries[1:])
    # a hand-built matrix prints each distinct entry object once
    M = c.boundaries[2]
    cells, hand = _export_cells(M), _hand(M)
    calls.clear()
    assert list(_export_cells(hand).items()) == list(cells.items())
    assert sorted(calls) == sorted({id(v) for v in M.entries.values()})


def test_export_json_mirror():
    c = build_cover_complex(1, 1)
    payload = json.loads(export_json(c))
    assert payload["format"] == "SYMPOW-COMPLEX" and payload["version"] == 1
    assert payload["case"] == "cover" and payload["g"] == 1 and payload["k"] == 1
    assert [m["rank"] for m in payload["modules"]] == [1, 2, 1]
    text = export_text(c)
    # same entry count in both mirrors
    for b in payload["boundaries"]:
        assert f"BOUNDARY {b['degree']} entries={len(b['entries'])}" in text


# ---------------------------------------------------------------------------
# Table-driven builders against the element-level path they replace


def _boundary_oracle(ctx, src, tgt):
    return operator_matrix(src, tgt, ctx.ring, lambda m: boundary(monomial_elem(ctx, m[0], m[1])))


def _lambda_oracle(g, size):
    ctx = surface_context(g)
    lam = lambda_element(ctx)
    return operator_matrix(_exterior_basis(ctx, size), _exterior_basis(ctx, size + 1), ctx.ring,
                           lambda m: dga_mul(lam, monomial_elem(ctx, m[0], 0)))


def _assert_same_entries(built, oracle, label):
    # same values in the same per-column insertion order
    assert list(built.entries.items()) == list(oracle.entries.items()), label
    assert ([v.canonical_str() for v in built.entries.values()]
            == [v.canonical_str() for v in oracle.entries.values()]), label
    assert (built.rows, built.cols) == (oracle.rows, oracle.cols), label


def test_builders_match_element_oracle():
    complexes = [build_cover_complex(g, k) for g in range(1, 4) for k in range(0, 7)]
    complexes += [build_wedge_complex(n, k) for n in range(1, 7) for k in range(0, n + 1)]
    for c in complexes:
        for i in range(1, c.top_degree + 1):
            oracle = _boundary_oracle(c.ctx, c.modules[i].basis, c.modules[i - 1].basis)
            _assert_same_entries(c.boundaries[i], oracle, (c.case, c.params, i))
    for g in range(1, 4):
        for k in range(1, 8):
            q = build_Q_complex(g, k)
            top, entries = q.params["top"], []
            for j in range(1, q.top_degree + 1):
                _assert_same_entries(q.boundaries[j], _lambda_oracle(g, top - j), (g, k, j))
                _assert_same_entries(q.boundaries[j], lambda_matrix(q.ctx, top - j), (g, k, j))
                entries += q.boundaries[j].entries.values()
            # one coefficient table: equal entries are one object in every degree
            assert len({id(v) for v in entries}) == len({v.canonical_str() for v in entries}), (g, k)


def test_lambda_and_exterior_matrices_match_element_oracle():
    for g in range(1, 4):
        ctx = surface_context(g)
        for size in range(0, 2 * g + 1):
            _assert_same_entries(lambda_matrix(ctx, size), _lambda_oracle(g, size), ("lam", g, size))
        for size in range(1, 2 * g + 1):
            oracle = _boundary_oracle(ctx, _exterior_basis(ctx, size), _exterior_basis(ctx, size - 1))
            _assert_same_entries(exterior_boundary_matrix(ctx, size), oracle, ("d", g, size))


def test_builders_read_the_patched_boundary_convention(monkeypatch):
    orig = dga._ext_boundary_coeff

    def flipped(ctx, i):
        if ctx.case == "surface" and i == ctx.size:  # the first f-generator
            return ctx.ring.gen(i) - ctx.ring.one()
        return orig(ctx, i)

    build_cover_complex(2, 2)  # a table built before the patch must not survive it
    monkeypatch.setattr(dga, "_ext_boundary_coeff", flipped)
    c = build_cover_complex(2, 2)
    assert any(c.boundaries[i - 1].compose(c.boundaries[i]).entries
               for i in range(2, c.top_degree + 1))


# ---------------------------------------------------------------------------
# Rule-backed matrices: rows from the evaluated table against the entries


_RULE_PRIMES = (3, 7, 1000003, 2147483647)


def _entry_rows(M, spec):
    """The by-``id`` rows of M's materialized entries, through a hand-built copy."""
    return SparseRingMatrix(M.ring, M.rows, M.cols, M.entries).specialize_rows(spec)


def _rule_specs(ring, rng):
    yield UnitSpecialization(1000003, (1,) * ring.nvars)  # the augmentation point
    for p in _RULE_PRIMES:
        yield random_specialization(ring, p, rng)


def test_rule_rows_match_entry_rows():
    rng = random.Random(13)
    complexes = [build_cover_complex(g, k) for g in range(1, 4) for k in range(0, 2 * g + 2)]
    complexes += [build_Q_complex(g, k) for g in range(1, 4) for k in range(1, 2 * g + 1)]
    complexes += [build_wedge_complex(n, k) for n in range(1, 7) for k in range(0, n + 1)]
    for c in complexes:
        for i in range(1, c.top_degree + 1):
            M = c.boundaries[i]
            for spec in _rule_specs(c.ctx.ring, rng):
                assert M._rule is not None
                assert M.specialize_rows(spec) == _entry_rows(M, spec), (c.case, c.params, i, spec)


def test_rule_rows_of_lambda_and_exterior_matrices_match_entry_rows():
    rng = random.Random(14)
    for g in range(1, 4):
        ctx = surface_context(g)
        mats = [lambda_matrix(ctx, size) for size in range(0, 2 * g + 1)]
        mats += [exterior_boundary_matrix(ctx, size) for size in range(1, 2 * g + 1)]
        for M in mats:
            for spec in _rule_specs(ctx.ring, rng):
                assert M.specialize_rows(spec) == _entry_rows(M, spec), (g, M.rows, M.cols, spec)


def _column_views(M):
    """``specialize_columns`` at a fixed point, with no skip and with every third column skipped."""
    spec = UnitSpecialization(1000003, tuple(range(2, 2 + M.ring.nvars)))
    return [M.specialize_columns(spec), M.specialize_columns(spec, set(range(0, M.cols, 3)))]


# The views besides specialize_rows, each a function of one matrix.
_TABLE_VIEWS = (lambda M: M.base_change(2), lambda M: M.first_order_columns(), _export_cells, _column_views)


def _transposed(rows, ncols, skip=()):
    return [{r: row[c] for r, row in enumerate(rows) if c in row} for c in range(ncols) if c not in skip]


def _pair_rows(M, spec):
    """The rows of ``M`` at ``spec``, scattered pair by pair by the oracle."""
    p = spec.prime
    return pair_walk_rows(M, spec, lambda v: v.specialize(spec), lambda x: -x % p)


def test_rows_and_columns_match_the_pair_walk_rows():
    # specialize_rows, the transpose of the column walk, against rows that the
    # oracle scatters itself; the columns against those rows, transposed here
    rng = random.Random(17)
    complexes = [build_cover_complex(g, k) for g in range(1, 4) for k in range(0, 2 * g + 2)]
    complexes += [build_Q_complex(g, k) for g in range(1, 4) for k in range(1, 2 * g + 1)]
    complexes += [build_wedge_complex(n, k) for n in range(1, 7) for k in range(0, n + 1)]
    for c in complexes:
        for i in range(1, c.top_degree + 1):
            M = c.boundaries[i]
            for spec in _rule_specs(c.ctx.ring, rng):
                rows = _pair_rows(M, spec)
                assert M.specialize_rows(spec) == rows == _hand(M).specialize_rows(spec), (c.case, c.params, i)
                for skip in ((), set(range(0, M.cols, 2)), {M.cols - 1}, set(range(M.cols))):
                    expected = _transposed(rows, M.cols, skip)
                    assert M.specialize_columns(spec, skip) == expected, (c.case, c.params, i, skip)
                    assert _hand(M).specialize_columns(spec, skip) == expected, (c.case, c.params, i)
    # explicit entries in any order, a zero value at the augmentation left out
    ring = surface_ring(1)
    x, one = ring.gen(0), ring.one()
    M = SparseRingMatrix(ring, 3, 2, {(2, 1): x - one, (0, 1): x, (1, 0): one + one})
    spec = UnitSpecialization(7, (1, 1))
    assert M.specialize_rows(spec) == [{1: 1}, {0: 2}, {}] == _pair_rows(M, spec)
    assert M.specialize_columns(spec) == [{1: 2}, {0: 1}]
    assert M.specialize_columns(spec, {0}) == [{0: 1}]


def test_bottom_half_rows_match_the_pair_walk_rows(monkeypatch):
    # every row list that _cleared_ranks hands the rank kernel below the meet
    # is its boundary's rows without those at the previous boundary's pivots:
    # at points, met at the top degree so that every boundary is ranked by
    # rows, against the pair walk; and on base changes, through
    # integer_free_ranks of an unmarked complex, against the dense oracle
    def recording(rank, calls):
        def record(vectors, pivots, *args):
            calls.append(([dict(v) for v in vectors], pivots))
            return rank(vectors, pivots, *args)
        return record

    rng = random.Random(19)
    for c in (build_cover_complex(2, 3), build_Q_complex(3, 4), build_wedge_complex(6, 3),
              build_wedge_complex(5, 5)):
        for spec in _rule_specs(c.ctx.ring, rng):
            calls = []
            rank = recording(lambda vectors, pivots: homology._sparse_rank(vectors, spec.prime, pivots), calls)
            homology._cleared_ranks(c.ranks, lambda i, skip: c.boundaries[i].specialize_columns(spec, skip), rank,
                                    _meet=c.top_degree)
            assert len(calls) == c.top_degree, (c.case, c.params)
            cleared = set()
            for i, (rows, pivots) in enumerate(calls, start=1):
                expected = [row for r, row in enumerate(_pair_rows(c.boundaries[i], spec)) if r not in cleared]
                assert rows == expected, (c.case, c.params, i, spec)
                cleared = set(pivots)
    for c, N in ((build_cover_complex(2, 2), 2), (build_Q_complex(2, 3), 2), (build_wedge_complex(4, 2), 3)):
        calls = []
        monkeypatch.setattr(homology, "integer_rank", recording(homology.integer_rank, calls))
        homology.integer_free_ranks(base_change(unmarked(c), N))
        monkeypatch.undo()
        meet = c.ranks.index(max(c.ranks))
        assert meet and len(calls) == c.top_degree, (c.case, c.params)
        cleared = set()
        for i, (rows, pivots) in enumerate(calls[:meet], start=1):
            expected = [row for r, row in enumerate(sparse_rows(dense_base_change(c.boundaries[i], N)))
                        if r not in cleared]
            assert rows == expected, (c.case, c.params, N, i)
            cleared = set(pivots)


def _hand(M):
    """A hand-built copy of M's entries: its views map each entry object in turn."""
    return SparseRingMatrix(M.ring, M.rows, M.cols, M.entries)


# Base changes up to this many nonzeros are compared with their hand-built
# copy; the larger ones of these complexes would only add time.
VIEW_BASE_CHANGE_NONZEROS = 25_000


def _assert_views_match_entry_views(M, label):
    hand = _hand(M)
    for N in (1, 2, 3):
        assert M.base_change_nonzeros(N) == hand.base_change_nonzeros(N), (label, N)
        if M.base_change_nonzeros(N) <= VIEW_BASE_CHANGE_NONZEROS:
            assert M.base_change(N) == hand.base_change(N), (label, N)
    assert M.first_order_columns() == hand.first_order_columns(), label
    cells = [(rc, v.canonical_str()) for rc, v in M.entries.items()]
    assert list(_export_cells(M).items()) == list(_export_cells(hand).items()) == cells, label


def test_rule_views_match_entry_views():
    complexes = [build_cover_complex(g, k) for g in range(1, 4) for k in range(0, 2 * g + 2)]
    complexes += [build_Q_complex(g, k) for g in range(1, 4) for k in range(1, 2 * g + 1)]
    complexes += [build_wedge_complex(n, k) for n in range(1, 7) for k in range(0, n + 1)]
    for c in complexes:
        for i in range(1, c.top_degree + 1):
            _assert_views_match_entry_views(c.boundaries[i], (c.case, c.params, i))
    for g in range(1, 4):
        ctx = surface_context(g)
        for size in range(0, 2 * g + 1):
            _assert_views_match_entry_views(lambda_matrix(ctx, size), ("lam", g, size))
        for size in range(1, 2 * g + 1):
            _assert_views_match_entry_views(exterior_boundary_matrix(ctx, size), ("d", g, size))


def _explicit_matrices():
    """Explicit matrices: entries out of column-major order with one object in
    three cells, random ones in reversed order with a shared object planted,
    and two products of rule-backed matrices."""
    ring = surface_ring(1)
    x, y, one = ring.gen(0), ring.gen(1), ring.one()
    shared = one - x
    yield SparseRingMatrix(ring, 3, 4, {(2, 1): shared, (0, 1): x * y, (1, 0): shared, (0, 0): one + one,
                                        (2, 3): y - one, (1, 3): shared, (0, 2): ring.monomial((-1, 2))})
    rng = random.Random(29)
    for ring in (surface_ring(1), surface_ring(2), wedge_ring(3)):
        M = random_laurent_matrix(ring, 5, 4, rng)
        entries = dict(reversed(M.entries.items()))
        planted = next(iter(entries.values()))
        for rc in list(entries)[::3]:
            entries[rc] = planted
        yield SparseRingMatrix(ring, M.rows, M.cols, entries)
    ctx = surface_context(2)
    lam, d = lambda_matrix(ctx, 1), exterior_boundary_matrix(ctx, 2)
    yield lam.compose(d)
    yield d.compose(lam)


def test_explicit_views_match_the_per_cell_oracle(monkeypatch):
    from sympow.groupring import GroupRingElement

    calls = []  # (what was read, id of the element)
    for method in ("specialize", "canonical_str"):
        orig = getattr(GroupRingElement, method)
        monkeypatch.setattr(GroupRingElement, method, lambda self, *args, orig=orig, method=method:
                            calls.append((method, id(self))) or orig(self, *args))
    terms = GroupRingElement.terms.fget
    monkeypatch.setattr(GroupRingElement, "terms",
                        property(lambda self: calls.append(("terms", id(self))) or terms(self)))
    rng = random.Random(31)
    for M in _explicit_matrices():
        label = (M.rows, M.cols, M.ring.nvars)
        distinct = sorted({id(v) for v in M.entries.values()})
        specs = [UnitSpecialization(7, (1,) * M.ring.nvars), random_specialization(M.ring, 1000003, rng)]
        oracles = [block_rows(cell_view(M, lambda v: [[v.specialize(spec)]]), M.rows, 1) for spec in specs]
        bs = 2 ** M.ring.nvars
        regular = block_rows(cell_view(M, lambda v: regular_block(v, 2)), M.rows, bs)
        oracles.append(_transposed(regular, M.cols * bs))
        oracles.append(_first_order_oracle(M))
        text = cell_view(M, GroupRingElement.canonical_str)
        oracles.append(dict(sorted(text.items(), key=lambda cell: cell[0][::-1])))
        views = [(lambda M, spec=spec: M.specialize_rows(spec), "specialize") for spec in specs]
        views += [(lambda M: M.base_change(2), "terms"), (lambda M: M.first_order_columns(), "terms"),
                  (_export_cells, "canonical_str")]
        for (view, read), expected in zip(views, oracles):
            M = SparseRingMatrix(M.ring, M.rows, M.cols, M.entries)  # no mapping kept from before
            calls.clear()
            got = view(M)
            # each distinct object mapped once
            assert sorted(i for what, i in calls if what == read) == distinct, (label, read)
            assert got == expected, (label, view)
            if isinstance(got, dict):
                assert list(got) == list(expected), label  # column-major
        for spec, rows in zip(specs, oracles):
            for skip in ((), {0}, set(range(0, M.cols, 2)), set(range(M.cols))):
                M = SparseRingMatrix(M.ring, M.rows, M.cols, M.entries)
                calls.clear()
                columns = M.specialize_columns(spec, skip)
                assert sorted(i for what, i in calls if what == "specialize") == distinct, (label, skip)
                assert columns == [{r: row[c] for r, row in enumerate(rows) if c in row}
                                   for c in range(M.cols) if c not in skip], (label, skip)


def _fresh(M, tgt=None):
    """A copy of M's rule with nothing read yet, over the targets ``tgt`` if given."""
    src, old_tgt, image, table, _ = M._rule
    F = SparseRingMatrix.__new__(SparseRingMatrix)
    F.ring, F.cols, F._entries, F._terms = M.ring, M.cols, None, None
    F._rule = src, old_tgt if tgt is None else tgt, image, table, [None, None]
    F.rows = len(F._rule[1])
    return F


def _walk_views(M, specs):
    """Every view of M that walks its rule, in one list."""
    skips = ((), {0}, set(range(0, M.cols, 3)), {M.cols - 1}, set(range(M.cols)))
    views = [list(M.entries.items()), M.first_order_columns(), list(_export_cells(M).items())]
    for spec in specs:
        views.append(M.specialize_rows(spec))
        views += [M.specialize_columns(spec, skip) for skip in skips]
    for N in (1, 2, 3):
        if M.base_change_nonzeros(N) <= VIEW_BASE_CHANGE_NONZEROS:
            views.append(M.base_change(N))
    return views


def _walk_matrices():
    """(label, matrix) of the families the rule walk must match its pair oracle on:
    covers, lam-complexes and wedges, a wedge with more than 64 generators, a
    cover above 32 generators with divided powers, long divided powers, the
    lam and exterior matrices, and an explicit product."""
    complexes_ = [build_cover_complex(g, k) for g in range(1, 4) for k in range(0, 2 * g + 2)]
    complexes_ += [build_Q_complex(g, k) for g in range(1, 4) for k in range(1, 2 * g + 2)]
    complexes_ += [build_wedge_complex(n, k) for n in range(1, 7) for k in range(0, n + 1)]
    complexes_ += [build_wedge_complex(70, 2), build_cover_complex(17, 2), build_cover_complex(1, 200)]
    for c in complexes_:
        for i in range(1, c.top_degree + 1):
            yield (c.case, c.params, i), c.boundaries[i]
    ctx = surface_context(2)
    yield "lam", lambda_matrix(ctx, 1)
    yield "d", exterior_boundary_matrix(ctx, 2)
    yield "compose", lambda_matrix(ctx, 1).compose(exterior_boundary_matrix(ctx, 2))


def test_every_view_matches_the_pair_walk_oracle(monkeypatch):
    rng = random.Random(41)
    for label, M in _walk_matrices():
        nvars = M.ring.nvars
        specs = [UnitSpecialization(1000003, (1,) * nvars), random_specialization(M.ring, 1000003, rng)]
        got = _walk_views(_fresh(M), specs)
        with monkeypatch.context() as patch:
            patch.setattr(SparseRingMatrix, "_columns", pair_walk_columns)
            assert got == _walk_views(_fresh(M), specs), label
        for N in (1, 2, 3):
            assert _fresh(M).base_change_nonzeros(N) == pair_walk_terms(M) * N ** nvars, (label, N)


def test_every_view_names_the_monomial_that_leaves_the_target_basis(monkeypatch):
    # the first target of the first nonempty column dropped from a builder's
    # matrix: every view raises naming its monomial, as the pair walk does, at
    # the all-ones point too, where every Koszul value is 0
    for label, M in _walk_matrices():
        src, tgt, image, _, _ = M._rule
        first = next((col for col in pair_walk_columns(M, None, lambda v: v, None) if col), None)
        if image is complexes._explicit_image or first is None:
            continue
        r = min(first)
        short = tgt[:r] + tgt[r + 1:]
        message = f"operator image leaves the target basis: {tgt[r]}"
        spec = UnitSpecialization(1000003, (1,) * M.ring.nvars)
        views = [lambda M: M.entries, lambda M: M.specialize_rows(spec), lambda M: M.specialize_columns(spec),
                 lambda M: M.first_order_columns(), _export_cells]
        for view in views:
            with pytest.raises(ValueError) as e:
                view(_fresh(M, short))
            assert str(e.value) == message, label
            with monkeypatch.context() as patch:
                patch.setattr(SparseRingMatrix, "_columns", pair_walk_columns)
                with pytest.raises(ValueError) as e:
                    view(_fresh(M, short))
                assert str(e.value) == message, label
        for N in (1, 2):
            with pytest.raises(ValueError) as e:
                _fresh(M, short).base_change_nonzeros(N)
            assert str(e.value) == message, (label, N)


def test_generic_homology_builds_no_entries():
    views = {
        "generic": lambda c: homology.generic_homology(c, 5, 0, 1000003),
        "finite cover": lambda c: base_change(c, 2),
        "first order": lambda c: [b.first_order_columns() for b in c.boundaries[1:]],
        "export": export_text,
    }
    for name, view in views.items():
        for c in (build_cover_complex(2, 3), build_Q_complex(2, 3), build_wedge_complex(4, 3)):
            view(c)
            assert all(b._entries is None for b in c.boundaries[1:]), (name, c.case)
    # the first access builds the entries, and later ones return them
    M = build_cover_complex(3, 3).boundaries[2]
    entries = M.entries
    assert M._entries is entries and M.entries is entries


def test_boundaries_of_a_complex_evaluate_its_table_once_per_point(monkeypatch):
    from sympow.groupring import GroupRingElement

    calls = []
    orig = GroupRingElement.specialize

    def counting(self, spec):
        calls.append(spec)
        return orig(self, spec)

    monkeypatch.setattr(GroupRingElement, "specialize", counting)
    c, rng = build_cover_complex(2, 3), random.Random(16)
    twin = build_cover_complex(2, 3)  # an equal table that is another object
    specs = [random_specialization(c.ctx.ring, 1000003, rng) for _ in range(2)]
    for spec in specs + specs[:1]:
        for M in c.boundaries[1:] + twin.boundaries[1:]:
            M.specialize_rows(spec)
    # one value per (c, -c) pair of the table: 4 boundary and 4 lam coefficients
    assert len(calls) == 3 * 2 * 8


def test_interleaved_complexes_keep_their_own_table_view(monkeypatch):
    from sympow.groupring import GroupRingElement

    calls = []
    orig = GroupRingElement.specialize

    def counting(self, spec):
        calls.append(spec)
        return orig(self, spec)

    monkeypatch.setattr(GroupRingElement, "specialize", counting)
    c, twin = build_cover_complex(2, 2), build_cover_complex(2, 2)  # equal tables, two objects
    spec = random_specialization(c.ctx.ring, 1000003, random.Random(23))
    for M, N in zip(c.boundaries[1:], twin.boundaries[1:]):
        assert M.specialize_rows(spec) == N.specialize_rows(spec)
    # each context maps its 8 coefficients once, however its boundaries interleave
    assert c.top_degree == 4 and len(calls) == 2 * 8


def test_patched_convention_reaches_rule_rows(monkeypatch):
    orig = dga._ext_boundary_coeff

    def flipped(ctx, i):
        if ctx.case == "surface" and i == ctx.size:  # the first f-generator
            return ctx.ring.gen(i) - ctx.ring.one()
        return orig(ctx, i)

    rng = random.Random(15)
    before = build_cover_complex(2, 2)  # its table was made before the patch
    monkeypatch.setattr(dga, "_ext_boundary_coeff", flipped)
    after = build_cover_complex(2, 2)
    ctx = after.ctx
    moved = 0
    for i in range(1, after.top_degree + 1):
        oracle = _boundary_oracle(ctx, after.modules[i].basis, after.modules[i - 1].basis)
        for spec in _rule_specs(ctx.ring, rng):
            rows = after.boundaries[i].specialize_rows(spec)
            assert rows == _entry_rows(oracle, spec), (i, spec)
            moved += rows != before.boundaries[i].specialize_rows(spec)
        for view in _TABLE_VIEWS:
            rows = view(after.boundaries[i])
            assert rows == view(oracle), (i, view)
            moved += rows != view(before.boundaries[i])
    assert moved  # the patch changed some rows, and the earlier build kept its own table
    monkeypatch.undo()
    ctx = before.ctx
    for i in range(1, before.top_degree + 1):
        oracle = _boundary_oracle(ctx, before.modules[i].basis, before.modules[i - 1].basis)
        spec = random_specialization(ctx.ring, 1000003, rng)
        assert before.boundaries[i].specialize_rows(spec) == _entry_rows(oracle, spec), i
        for view in _TABLE_VIEWS:
            assert view(before.boundaries[i]) == view(oracle), (i, view)


def test_context_table_patch_policy(monkeypatch):
    # a context made after a coefficient source is patched sees the patch on
    # every path; one whose table was read before keeps it; a table is read
    # from the sources once however many boundaries and views use it
    orig = dga._ext_boundary_coeff
    reads = []

    def flipped(ctx, i):
        reads.append(ctx)
        if ctx.case == "surface" and i == ctx.size:  # the first f-generator
            return ctx.ring.gen(i) - ctx.ring.one()
        return orig(ctx, i)

    before = build_cover_complex(2, 2)
    monkeypatch.setattr(dga, "_ext_boundary_coeff", flipped)
    after = build_cover_complex(2, 2)
    spec = UnitSpecialization(1000003, (2, 3, 5, 7))  # y1 = 5
    col = after.modules[1].basis.index((1 << 2, 0))  # f1
    for _ in range(3):
        for c, sign, text in ((after, 1, "-1 + 1*y1"), (before, -1, "1 - 1*y1")):
            ctx = c.ctx
            d_f1 = (ctx.ring.gen(2) - ctx.ring.one()) * sign
            assert boundary(ext_gen(ctx, 2)) == monomial_elem(ctx, 0, 0, d_f1)
            assert c.boundaries[1].specialize_rows(spec)[0][col] == 4 * sign % spec.prime
            assert f"0 {col} {text}" in export_text(c).splitlines()
            c.boundaries[1].base_change(2)
            c.boundaries[2].first_order_columns()
    assert len(reads) == after.ctx.ngens and all(ctx is after.ctx for ctx in reads)


def test_image_outside_the_target_basis_raises_on_both_paths():
    from sympow.dga import monomial_boundary

    ctx = surface_context(2)
    src, tgt = _exterior_basis(ctx, 2), _exterior_basis(ctx, 1)[:-1]  # drops the last generator
    views = [lambda M: M.specialize_rows(UnitSpecialization(7, (1,) * 4)),
             lambda M: M.specialize_rows(UnitSpecialization(1000003, (2, 3, 5, 7))),
             lambda M: M.entries, lambda M: M.base_change(1), lambda M: M.base_change(2),
             lambda M: M.first_order_columns(), _export_cells,
             lambda M: M.specialize_columns(UnitSpecialization(1000003, (2, 3, 5, 7)))]
    for view in views:
        M = SparseRingMatrix.from_rule(ctx, src, tgt, monomial_boundary)
        with pytest.raises(ValueError, match="leaves the target basis"):
            view(M)
    with pytest.raises(ValueError, match="leaves the target basis"):
        operator_matrix(src, tgt, ctx.ring, lambda m: boundary(monomial_elem(ctx, m[0], m[1])))


# ---------------------------------------------------------------------------
# Sparse mod-2 columns of a base change (the oracle of the lemma-cohomology witness)


def _assert_mod2_matches_dense(M, N, label):
    cols, rows = mod2_columns(M, N)
    bs = N ** M.ring.nvars
    assert rows == M.rows * bs, label
    if M.rows:
        dense = dense_matrix(_transposed(M.base_change(N), M.rows * bs), M.cols * bs)
        assert (cols, rows) == homology.mod2_columns(dense), label
    else:  # the dense route sees no rows, hence no columns either
        assert cols == [0] * (M.cols * bs), label


def test_mod2_columns_match_dense_base_change():
    for g, n_values in ((2, (1, 2, 3)), (3, (2,))):
        ctx = surface_context(g)
        for N in n_values:
            for size in range(0, 2 * g + 1):
                _assert_mod2_matches_dense(lambda_matrix(ctx, size), N, ("lam", g, size, N))
            for size in range(1, 2 * g + 1):
                _assert_mod2_matches_dense(exterior_boundary_matrix(ctx, size), N, ("d", g, size, N))


def test_mod2_columns_terms_colliding_mod_N():
    ring = surface_ring(1)
    x1 = ring.gen(0)
    x1_inv = ring.monomial((-1, 0))
    for v in (x1 + x1_inv, ring.one() * 3 + x1 * x1):
        # at N=2 both terms of v land in the same cell, and their odd parities cancel
        M = SparseRingMatrix(ring, 2, 2, {(1, 0): v, (0, 1): ring.one() * 2 - x1})
        _assert_mod2_matches_dense(M, 2, v)
        cols, _ = mod2_columns(M, 2)
        assert cols[:4] == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Columns over F_2[pi]/I^2


def _f2_product(A, B, ncols):
    """Product over F_2 of two matrices given as ``{col: 1}`` rows; the columns of
    ``A B`` are ``_f2_product(B_columns, A_columns, A's row count)``."""
    out = []
    for row in A:
        acc = [0] * ncols
        for m in row:
            for c in B[m]:
                acc[c] ^= 1
        out.append({c: 1 for c, x in enumerate(acc) if x})
    return out


def _first_order_oracle(M):
    """The columns of M over F_2[pi]/I^2 from the dense per-entry blocks."""
    bs = 1 + M.ring.nvars
    return _transposed(block_rows(cell_view(M, first_order_block), M.rows, bs), M.cols * bs)


def test_first_order_columns_of_a_monomial():
    ring = surface_ring(2)
    e = (3, -1, -2, 0)
    M = SparseRingMatrix(ring, 1, 1, {(0, 0): ring.monomial(e)})
    # the column of 1 holds the monomial's first-order value (1, e mod 2)
    assert M.first_order_columns() == [{0: 1, 1: 1, 2: 1}, {1: 1}, {2: 1}, {3: 1}, {4: 1}] == _first_order_oracle(M)
    # 1 - x_1 lies in I: only its first-order coordinate survives
    M = SparseRingMatrix(ring, 1, 1, {(0, 0): ring.one() - ring.gen(0)})
    assert M.first_order_columns() == [{1: 1}, {}, {}, {}, {}] == _first_order_oracle(M)


def test_first_order_columns_is_a_ring_homomorphism():
    rng = random.Random(3)
    for g, (a, b, c) in ((1, (2, 3, 2)), (2, (3, 2, 3))):
        ring = surface_ring(g)
        bs = 1 + ring.nvars
        for _ in range(10):
            A = random_laurent_matrix(ring, a, b, rng)
            B = random_laurent_matrix(ring, b, c, rng)
            cols_a = A.first_order_columns()
            assert cols_a == _first_order_oracle(A)
            assert A.compose(B).first_order_columns() == _f2_product(B.first_order_columns(), cols_a, a * bs)
            # column col*(1+n) holds entry (r, col) in the basis 1, x_1 - 1, .., x_n - 1
            for (r, col), v in A.entries.items():
                assert tuple(cols_a[col * bs].get(r * bs + i, 0) for i in range(bs)) == first_order_value(v)


# ---------------------------------------------------------------------------
# Memory guard on base change


def test_base_change_refuses_oversized_input_from_its_term_counts():
    c = build_cover_complex(3, 3)  # d_3 and d_4: 3,000,000 nonzeros each at N=5
    assert MAX_BASE_CHANGE_NONZEROS == c.boundaries[3].base_change_nonzeros(5) == 3_000_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="base change of the surface-cover complex at N=5 would build "
                                             "up to 8,625,000 nonzeros, over the limit of 3,000,000 nonzeros"):
            base_change(c, 5)
        with pytest.raises(ValueError, match="a 16 x 26 matrix at N=6 would build up to 8,957,952 nonzeros"):
            c.boundaries[3].base_change(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # d_3 alone would take hundreds of MB of rows


def test_base_change_walks_each_rule_once_for_its_bound():
    # the term count is kept on the matrix after its first walk of the rule on
    # the table itself, since it does not depend on N: each source is walked once
    for c in (build_cover_complex(2, 3), build_Q_complex(2, 3), build_wedge_complex(4, 3)):
        table, walks = c.ctx.table, []
        for M in c.boundaries[1:]:
            src, tgt, image, _, view = M._rule

            def counting(sources, t, index, cols, image=image, M=M):
                sources = list(sources)  # walked once here and once by the rule
                if t is table:
                    walks.extend(id(M) for _ in sources)
                image(sources, t, index, cols)

            M._rule = src, tgt, counting, table, view
        expected = [M.base_change_nonzeros(2) for M in c.boundaries[1:]]
        for N in (2, 3, 1, 2):
            base_change(c, N)
        assert [M.base_change_nonzeros(2) for M in c.boundaries[1:]] == expected, c.case
        assert [walks.count(id(M)) for M in c.boundaries[1:]] == [M.cols for M in c.boundaries[1:]], c.case


@pytest.mark.parametrize("build,args,N", [
    (build_cover_complex, (2, 2), 3), (build_cover_complex, (3, 2), 2), (build_cover_complex, (2, 3), 2),
    (build_Q_complex, (2, 3), 3), (build_Q_complex, (3, 3), 2), (build_wedge_complex, (4, 2), 3),
])
def test_base_change_cap_reads_the_built_nonzeros(monkeypatch, build, args, N):
    # the term-count bound is the nonzero count these base changes build:
    # the cap admits exactly that count and refuses it one nonzero lower
    c = build(*args)
    rows = base_change(c, N).boundaries
    built = sum(len(row) for matrix in rows[1:] for row in matrix)
    monkeypatch.setattr(complexes, "MAX_BASE_CHANGE_NONZEROS", built)
    assert base_change(c, N).boundaries == rows
    monkeypatch.setattr(complexes, "MAX_BASE_CHANGE_NONZEROS", built - 1)
    with pytest.raises(ValueError, match=f"up to {built:,} nonzeros, over the limit of {built - 1:,} nonzeros"):
        base_change(c, N)


@pytest.mark.parametrize("build,size,ks", [
    *[(build_cover_complex, g, range(0, 2 * g + 3)) for g in (1, 2, 3, 4)],
    *[(build_wedge_complex, n, range(0, n + 1)) for n in (1, 3, 6)],
    *[(build_Q_complex, g, range(1, 2 * g + 2)) for g in (1, 2, 3)],
])
def test_cell_cap_reads_the_closed_form_cell_count(monkeypatch, build, size, ks):
    # the cap admits a build of exactly its cell count and refuses it one cell lower
    for k, cells in [(k, sum(build(size, k).ranks)) for k in ks]:
        monkeypatch.setattr(complexes, "MAX_CELLS", cells)
        assert sum(build(size, k).ranks) == cells
        monkeypatch.setattr(complexes, "MAX_CELLS", cells - 1)
        with pytest.raises(ValueError, match=f"would have {cells:,} cells, over the limit of {cells - 1:,} cells"):
            build(size, k)
