"""Chain-level Poincare duality of the self-dual complexes (``complexes``,
"Chain-level Poincare duality") and the mirrored rank drivers that use it.

The structural check is exhaustive on the complexes it runs on: it walks
every boundary's rule once on the coefficient table, with no evaluation, and
compares every entry with its dual.  The oracle tests run each route on the
same complex with its mark removed, which ranks both halves.
"""

import math

import pytest

import sympow.dga as dga
from sympow.complexes import (
    Duality,
    SparseRingMatrix,
    build_cover_complex,
    build_Q_complex,
    build_wedge_complex,
)
from sympow.homology import generic_homology, integer_free_ranks, integer_homology
from oracles import unmarked


def _rule_entries(M):
    """``{(target, source): coefficient}`` of a builder's matrix, from one walk
    of its rule on its context's table."""
    src, _, image, table, _ = M._rule
    cols = [{} for _ in src]
    image(src, table, dga.KeyMonomials(len(table[0])), cols)
    return {(t, m): a for m, col in zip(src, cols) for t, a in col.items()}


def duality_defects(c, duality) -> list[str]:
    """Every way in which ``duality`` fails to be a chain-level duality of ``c``:
    a degree that its pairing does not map bijectively onto the dual degree, or
    a boundary ``d_(top+1-i)`` other than ``d_i`` transposed through the
    pairing with the closed-form signs ``sign(m) sign(m')``."""
    pair, sign = duality.pair, duality.sign
    top = c.top_degree
    defects = [f"C_{i} is not paired onto C_{top - i}" for i, mod in enumerate(c.modules)
               if sorted(map(pair, mod.basis)) != sorted(c.modules[top - i].basis)]
    if defects:
        return defects
    entries = [None] + [_rule_entries(M) for M in c.boundaries[1:]]
    for i in range(1, top + 1):
        dual = {(pair(m), pair(t)): a if sign(m) == sign(t) else -a for (t, m), a in entries[i].items()}
        if dual != entries[top + 1 - i]:
            defects.append(f"d_{top + 1 - i} is not the signed transpose of d_{i}")
    return defects


SELF_DUAL = ([(build_cover_complex, g, k) for g in (1, 2, 3, 4) for k in range(2 * g + 2)]
             + [(build_Q_complex, g, 2 * g) for g in (1, 2, 3, 4)]
             + [(build_wedge_complex, n, n) for n in (1, 2, 3, 4, 5)])


@pytest.mark.parametrize("build,size,k", SELF_DUAL)
def test_duality_holds_exhaustively_on_every_marked_complex(build, size, k):
    c = build(size, k)
    assert c.duality is not None
    assert duality_defects(c, c.duality) == []


def test_truncated_complexes_are_not_marked():
    assert all(build_Q_complex(g, k).duality is None for g in (1, 2, 3) for k in range(1, 2 * g))
    assert all(build_wedge_complex(n, k).duality is None for n in (1, 3, 6) for k in range(n))
    assert build_Q_complex(2, 5).duality is not None  # k > 2g builds the full complex


@pytest.mark.parametrize("i", range(4))
def test_one_flipped_lambda_sign_breaks_the_cover_duality(monkeypatch, i):
    original = dga._lambda_coeff
    monkeypatch.setattr(dga, "_lambda_coeff", lambda ctx, j: -original(ctx, j) if j == i else original(ctx, j))
    for k in (1, 2, 3, 5):
        c = build_cover_complex(2, k)
        assert duality_defects(c, c.duality), k


def test_a_truncated_complex_declared_self_dual_fails():
    for truncated, full in ((build_Q_complex(3, 3), build_Q_complex(3, 6)),
                            (build_wedge_complex(6, 3), build_wedge_complex(6, 6))):
        assert duality_defects(truncated, full.duality), truncated.case


def test_a_wrong_sign_fails_the_entry_check():
    # e1*e2 is a source of d_2 and a target of d_3, so their signed transposes fail
    c = build_cover_complex(2, 3)
    flipped = Duality(c.duality.pair, lambda m: -c.duality.sign(m) if m == (0b11, 0) else c.duality.sign(m))
    assert duality_defects(c, flipped) == [f"d_{7 - i} is not the signed transpose of d_{i}" for i in (2, 3)]


@pytest.mark.parametrize("seed", (0, 1, 7))
def test_mirrored_generic_homology_matches_both_halves(seed):
    # the dims also sit at the middle degree k or nowhere: C(2g-2, k) there
    for g in range(1, 6):
        for k in range(2 * g + 2):
            c = build_cover_complex(g, k)
            dims = generic_homology(c, seed=seed).ranks()
            assert dims == generic_homology(unmarked(c), seed=seed).ranks(), (g, k)
            assert dims == [math.comb(2 * g - 2, k) if i == k else 0 for i in range(2 * k + 1)], (g, k)


@pytest.mark.parametrize("g,k,N", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_mirrored_integer_routes_match_both_halves(monkeypatch, g, k, N):
    c = build_cover_complex(g, k)
    built = []
    original = SparseRingMatrix.base_change

    def counting(M, n):
        built.append(c.boundaries.index(M))
        return original(M, n)

    monkeypatch.setattr(SparseRingMatrix, "base_change", counting)
    free = integer_free_ranks(c, N)
    assert sorted(built) == list(range(k + 1, 2 * k + 1))  # the top half only
    monkeypatch.undo()
    assert free == integer_free_ranks(unmarked(c), N)
    rep, oracle = integer_homology(c, N), integer_homology(unmarked(c), N)
    assert [(e.degree, e.rank, e.torsion) for e in rep.entries] == [(e.degree, e.rank, e.torsion)
                                                                    for e in oracle.entries]
    assert rep.ranks() == free


@pytest.mark.parametrize("build,size,k,N,marked", [
    (build_cover_complex, 2, 2, 2, True), (build_cover_complex, 2, 3, 2, True), (build_Q_complex, 2, 4, 2, True),
    (build_wedge_complex, 4, 4, 2, True), (build_Q_complex, 2, 3, 2, False), (build_wedge_complex, 4, 2, 3, False),
])
def test_integer_routes_base_change_each_ranked_boundary_once(monkeypatch, build, size, k, N, marked):
    # both routes base-change the top - top // 2 boundaries above the middle
    # degree of a marked complex, and every boundary of an unmarked one, once
    c = build(size, k)
    assert (c.duality is not None) == marked
    top = c.top_degree
    built = []
    original = SparseRingMatrix.base_change
    monkeypatch.setattr(SparseRingMatrix, "base_change",
                        lambda M, n: built.append(c.boundaries.index(M)) or original(M, n))
    for complex_ in (c, unmarked(c)):
        expected = list(range(top // 2 + 1 if complex_.duality else 1, top + 1))
        for route in (integer_free_ranks, integer_homology):
            built.clear()
            route(complex_, N)
            assert sorted(built) == expected, (c.case, c.params, route.__name__, complex_.duality)
