"""Exact linear algebra: normal forms, membership, indices."""
import random

import pytest
from conftest import det, snf, unimodular_matrices
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glattice.errors import NotASublattice
from glattice.intmat import (
    IntMatrix,
    _hnf_insert,
    coordinates_in,
    full_lattice,
    hnf,
    hnf_from_rows,
    index,
    is_primitive,
    member,
    zero_lattice,
)


def test_hnf_already_canonical():
    l = hnf(IntMatrix.from_rows([(2, 0), (0, 3)]))
    assert l.rows() == [(2, 0), (0, 3)]
    assert l.rank == 2


def test_hnf_permutation_spans_z2():
    l = hnf(IntMatrix.from_rows([(0, 1), (1, 0)]))
    assert l == full_lattice(2)


def test_hnf_index_two_sublattice():
    # the three rows span an index-2 sublattice of Z^3 (their det is +-2);
    # oracle: count residues of Z^3 modulo the lattice by brute force
    l = hnf_from_rows([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    assert l.rank == 3
    residues = {
        (x % 2, y % 2, z % 2)
        for x in range(2)
        for y in range(2)
        for z in range(2)
        if member((x, y, z), l)
    }
    coset_count = 8 // len(residues)  # lattice contains 2Z^3 here
    assert member((2, 0, 0), l) and member((0, 2, 0), l)
    assert coset_count == 2
    assert index(l, full_lattice(3)) == 2


def test_hnf_zero_matrix():
    assert hnf(IntMatrix.zero(3, 4)).rank == 0


def test_hnf_idempotent_and_span_preserving_random():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(0, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        m = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, n)
        l = hnf(m)
        assert hnf(l.basis) == l
        for r in rows:
            assert member(r, l)


def test_snf_identity():
    dec = snf(IntMatrix.identity(3))
    assert dec.diagonal() == (1, 1, 1)


@pytest.mark.parametrize(
    "rows,diag",
    [
        ([(2, -1), (-1, 2)], (1, 3)),  # Cartan A_2: det 3, entry gcd 1
        ([(2, -2), (-1, 2)], (1, 2)),  # Cartan B_2: det 2
    ],
)
def test_snf_cartan_small(rows, diag):
    m = IntMatrix.from_rows(rows)
    dec = snf(m)
    assert dec.diagonal() == diag
    assert dec.P.mul(m).mul(dec.Q) == dec.D


def test_snf_small_exhaustive_unimodular_oracle():
    # oracle: over all unimodular P, Q with entries in {-1,0,1}, the minimal
    # achievable |top-left| entry of P @ C @ Q is the first invariant factor
    from itertools import product

    c = IntMatrix.from_rows([(2, -1), (-1, 2)])
    candidates = []
    for ents in product(range(-1, 2), repeat=4):
        m = IntMatrix(2, 2, ents)
        if det(m) in (1, -1):
            candidates.append(m)
    best = min(
        abs(p.mul(c).mul(q)[0, 0])
        for p in candidates
        for q in candidates
        if p.mul(c).mul(q)[0, 0] != 0
    )
    assert best == snf(c).diagonal()[0] == 1


def test_snf_roundtrip_random():
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        dec = snf(m)
        assert dec.P.mul(m).mul(dec.Q) == dec.D
        assert abs(det(dec.P)) == 1 and abs(det(dec.Q)) == 1
        d = dec.diagonal()
        for i in range(n - 1):
            if d[i] == 0:
                assert d[i + 1] == 0
            else:
                assert d[i + 1] % d[i] == 0
        assert abs(det(dec.D)) == abs(det(m))


def test_member_examples():
    l = hnf_from_rows([(2, 0), (0, 3)], 2)
    assert member((2, 0), l)
    assert not member((1, 0), l)


def test_member_root_lattice_a2():
    # alpha_1 = 2 lambda_1 - lambda_2 lies in the A_2 root lattice
    root = hnf_from_rows([(2, -1), (-1, 2)], 2)
    assert member((2, -1), root)
    assert not member((1, 0), root)


def test_index_examples():
    assert index(full_lattice(4), full_lattice(4)) == 1
    assert index(hnf_from_rows([(2, 0), (0, 2)], 2), full_lattice(2)) == 4
    root_a2 = hnf_from_rows([(2, -1), (-1, 2)], 2)
    assert index(root_a2, full_lattice(2)) == 3


def test_index_infinite_and_not_sublattice():
    line = hnf_from_rows([(1, 0)], 2)
    with pytest.raises(ValueError):
        index(line, full_lattice(2))
    with pytest.raises(NotASublattice):
        index(full_lattice(2), hnf_from_rows([(2, 0), (0, 2)], 2))


@st.composite
def _nested_lattices(draw):
    """(sup, M, rows): sup of dimension <= 5 and any rank, rows = M times sup's basis, M nonsingular."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    entry = st.integers(-3, 3)
    sup = hnf_from_rows([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)], n)
    r = sup.rank
    assume(r > 0)
    m = IntMatrix.from_rows([draw(st.lists(entry, min_size=r, max_size=r)) for _ in range(r)])
    assume(det(m) != 0)
    sub_rows = [tuple(sum(c * b[j] for c, b in zip(m.row(i), sup.rows())) for j in range(n)) for i in range(r)]
    return sup, m, sub_rows


@settings(max_examples=300, deadline=None)
@given(_nested_lattices())
def test_index_equals_determinant_of_coordinate_matrix(case):
    sup, m, sub_rows = case
    n = sup.ambient_dim
    sub = hnf_from_rows(sub_rows, n)
    coords = IntMatrix.from_rows([coordinates_in(r, sup) for r in sub.rows()])
    assert index(sub, sup) == abs(det(coords)) == abs(det(m))
    assert index(sup, sup) == 1
    if sub.rank > 1:
        with pytest.raises(ValueError):
            index(hnf_from_rows(sub_rows[1:], n), sup)
    if abs(det(m)) > 1:
        with pytest.raises(NotASublattice):
            index(sup, sub)
    if sup.rank < n:
        with pytest.raises(NotASublattice):
            index(full_lattice(n), sup)


def _square_matrices(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n).map(
        IntMatrix.from_rows
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.one_of(_square_matrices(n), unimodular_matrices(n))))
def test_is_unimodular_equals_determinant_oracle(m):
    assert m.is_unimodular() == (det(m) in (1, -1))


def test_non_square_is_not_unimodular():
    assert not IntMatrix.from_rows([(1, 0, 0), (0, 1, 0)]).is_unimodular()
    assert not IntMatrix.from_rows([(1,), (0,)]).is_unimodular()


def test_index_multiplicative_on_random_chains():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 4)
        lo = full_lattice(n)

        def random_fullrank_sub(sup):
            while True:
                rows = [
                    [rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 1)
                ]
                cand = hnf_from_rows(
                    [
                        tuple(sum(c * b for c, b in zip(row, col)) for col in zip(*sup.rows()))
                        for row in rows
                    ],
                    n,
                )
                if cand.rank == n:
                    return cand

        mid = random_fullrank_sub(lo)
        hi = random_fullrank_sub(mid)
        assert index(hi, lo) == index(hi, mid) * index(mid, lo)


def test_is_primitive():
    assert not is_primitive(hnf_from_rows([(2, 0), (0, 2)], 2))
    assert is_primitive(full_lattice(5))
    even_sum = hnf_from_rows([(1, 1, 0), (0, 1, 1)], 3)
    assert is_primitive(even_sum)
    assert not is_primitive(zero_lattice(3))


def test_unimodular_inverse():
    m = IntMatrix.from_rows([(1, 2), (1, 3)])
    inv = m.inverse_unimodular()
    assert m.mul(inv) == IntMatrix.identity(2)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(unimodular_matrices))
def test_inverse_unimodular_of_elementary_products(a):
    inv = a.inverse_unimodular()
    assert a.mul(inv) == IntMatrix.identity(a.rows)
    assert inv.mul(a) == IntMatrix.identity(a.rows)


@pytest.mark.parametrize(
    "rows",
    [[(2, 0), (0, 1)], [(3, 1), (1, 1)], [(1, 1), (1, 1)], [(0,)], [(1, 0, 0), (0, 1, 0)]],
    ids=["det 2", "det 2 not diagonal", "singular", "zero 1x1", "not square"],
)
def test_inverse_unimodular_rejects_other_matrices(rows):
    with pytest.raises(ValueError):
        IntMatrix.from_rows(rows).inverse_unimodular()


def _hnf_oracle(rows, ncols):
    """Row-style HNF by Euclidean elimination over all rows at once (oracle)."""
    work = [list(r) for r in rows if any(r)]
    pivots: list[tuple[int, int]] = []  # (column, row index in result)
    done: list[list[int]] = []
    col = 0
    while work and col < ncols:
        # Euclidean reduction: shrink entries of this column until one remains.
        while True:
            live = [r for r in work if r[col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: (abs(r[col]), r))
            piv = live[0]
            for r in live[1:]:
                q = r[col] // piv[col]
                for j in range(col, ncols):
                    r[j] -= q * piv[j]
        live = [r for r in work if r[col] != 0]
        if live:
            piv = live[0]
            if piv[col] < 0:
                for j in range(ncols):
                    piv[j] = -piv[j]
            done.append(piv)
            pivots.append((col, len(done) - 1))
            work = [r for r in work if r is not piv and any(r)]
        col += 1
    # Reduce entries above each pivot into [0, pivot).
    for col, k in pivots:
        p = done[k][col]
        for i in range(k):
            q = done[i][col] // p
            if q:
                for j in range(ncols):
                    done[i][j] -= q * done[k][j]
    return [tuple(r) for r in done]


@st.composite
def _row_lists(draw):
    """0-8 integer rows of dimension <= 6, with zero rows and combinations of earlier rows mixed in."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "zero":
            rows.append((0,) * n)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append(tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)))
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=n, max_size=n))))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(_row_lists())
def test_incremental_hnf_equals_from_scratch_hnf(case):
    n, rows = case
    basis = ()
    for r in rows:
        basis = _hnf_insert(basis, r)
    assert list(basis) == _hnf_oracle(rows, n)
    assert hnf_from_rows(rows, n).rows() == _hnf_oracle(rows, n)
    for r in rows:  # a row already in the span changes nothing
        assert _hnf_insert(basis, r) is basis
    z = tuple(full_lattice(n).rows())
    for r in rows:
        assert _hnf_insert(z, r) is z
