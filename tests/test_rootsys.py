"""Root systems: reflections, orbit sizes, lattices, membership matrices."""
import random

import pytest
from conftest import orbit_span

from glattice.errors import InvalidRank, KindUnavailable
from glattice.intmat import IntMatrix, full_lattice, index, member, unit_vector
from glattice.matgroup import closure, orbit
from glattice.rootsys import (
    RootSystemSpec,
    build,
    cartan_matrix,
    column_span,
    dominant_representative,
    expected_symrank,
    lattice,
    membership_matrix_from_snf,
    published_pinv_d,
    rdim_lower_bound,
    root_membership_by_snf,
    short_root_count,
    stabilizer_order_dominant,
    weyl_symrank_table,
    weyl_orbit_size,
)

ALL_SMALL = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]


def test_rank_validation():
    with pytest.raises(InvalidRank):
        RootSystemSpec("B", 1)
    with pytest.raises(InvalidRank):
        RootSystemSpec("E", 9)
    with pytest.raises(InvalidRank):
        RootSystemSpec("X", 2)


def test_cartan_determinants():
    dets = {("A", 4): 5, ("B", 5): 2, ("C", 5): 2, ("D", 6): 4, ("E", 6): 3, ("E", 7): 2, ("E", 8): 1, ("F", 4): 1, ("G", 2): 1}
    for (fam, n), want in dets.items():
        assert cartan_matrix(RootSystemSpec(fam, n)).det() == want


def test_build_a1():
    m = build(RootSystemSpec("A", 1))
    assert m.simple_reflections[0] == IntMatrix.from_rows([(-1,)])
    assert m.weyl_order == 2


@pytest.mark.parametrize("fam,n", ALL_SMALL + [("A", 5), ("B", 5), ("C", 5), ("D", 5)])
def test_weyl_order_matches_closure(fam, n):
    m = build(RootSystemSpec(fam, n))
    assert closure(m.matgroup())[1] == m.weyl_order


def test_e8_weyl_order():
    assert build(RootSystemSpec("E", 8)).weyl_order == 696729600


def test_reflections_are_involutions_e7():
    m = build(RootSystemSpec("E", 7))
    for s in m.simple_reflections:
        assert s.mul(s) == IntMatrix.identity(7)


def test_orbit_size_examples():
    assert weyl_orbit_size(build(RootSystemSpec("E", 6)), unit_vector(6, 0)) == 27
    for n in (2, 3, 5, 9):
        if n >= 2:
            m = build(RootSystemSpec("B", n))
            assert weyl_orbit_size(m, unit_vector(n, n - 1)) == 2**n
    from math import comb

    m = build(RootSystemSpec("A", 5))
    for d in range(1, 6):
        assert weyl_orbit_size(m, unit_vector(5, d - 1)) == comb(6, d)


def test_orbit_size_agrees_with_enumeration_rank_le_6():
    rng = random.Random(7)
    specs = [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("G", 2), ("F", 4), ("D", 5), ("A", 6), ("E", 6)]
    for fam, n in specs:
        m = build(RootSystemSpec(fam, n))
        g = m.matgroup()
        for _ in range(3):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            assert weyl_orbit_size(m, v) == orbit(g, v).size


def test_stabilizer_formula_on_random_dominant_vectors():
    rng = random.Random(8)
    for fam, n in [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)]:
        m = build(RootSystemSpec(fam, n))
        g = m.matgroup()
        _, order = closure(g)
        for _ in range(4):
            v = tuple(rng.randint(0, 2) for _ in range(n))
            dom = dominant_representative(m, v)
            assert dom.entries == v  # already dominant
            assert order // stabilizer_order_dominant(m, dom) == orbit(g, v).size


def test_dominance_reduction():
    m = build(RootSystemSpec("G", 2))
    dom = dominant_representative(m, (-1, 0))
    assert all(e >= 0 for e in dom.entries)
    assert weyl_orbit_size(m, (-1, 0)) == weyl_orbit_size(m, dom)


def test_short_root_counts():
    assert short_root_count(build(RootSystemSpec("G", 2))) == 6
    assert short_root_count(build(RootSystemSpec("F", 4))) == 24
    assert short_root_count(build(RootSystemSpec("E", 8))) == 240
    assert short_root_count(build(RootSystemSpec("B", 5))) == 10
    assert short_root_count(build(RootSystemSpec("C", 5))) == 40


def test_lattice_examples():
    a2 = build(RootSystemSpec("A", 2))
    root = lattice(a2, "root")
    assert root.index_in_weight == 3
    b3 = build(RootSystemSpec("B", 3))
    assert lattice(b3, "weight").basis == full_lattice(3)
    d4 = build(RootSystemSpec("D", 4))
    spin_plus = lattice(d4, "intermediate_D", 4)
    assert spin_plus.index_in_weight == 2
    assert member(unit_vector(4, 3), spin_plus.basis)
    assert not member(unit_vector(4, 2), spin_plus.basis)


def test_lattice_kind_validation():
    a2 = build(RootSystemSpec("A", 2))
    with pytest.raises(KindUnavailable):
        lattice(a2, "intermediate", 2)  # 2 does not divide 3
    with pytest.raises(KindUnavailable):
        lattice(a2, "intermediate_D", 1)
    d5 = build(RootSystemSpec("D", 5))
    with pytest.raises(KindUnavailable):
        lattice(d5, "intermediate_D", 5)  # spin kinds need even rank


def test_a_intermediate_indices_multiply():
    a5 = build(RootSystemSpec("A", 5))  # n+1 = 6: divisors 2, 3
    l2 = lattice(a5, "intermediate", 2)
    l3 = lattice(a5, "intermediate", 3)
    assert l2.index_in_weight == 2
    assert l3.index_in_weight == 3
    root = lattice(a5, "root")
    assert root.index_in_weight == 6
    assert index(root.basis, l2.basis) == 3
    assert index(root.basis, l3.basis) == 2


def test_d_even_intermediates_intersect_in_root_lattice():
    d4 = build(RootSystemSpec("D", 4))
    lm = lattice(d4, "intermediate_D", 3)
    lp = lattice(d4, "intermediate_D", 4)
    root = lattice(d4, "root")
    assert lm.index_in_weight == lp.index_in_weight == 2
    # intersection contains the root lattice and has index 4, so it is it
    for r in root.basis.rows():
        assert member(r, lm.basis) and member(r, lp.basis)
    common = [
        (x, y, z, w)
        for x in range(-2, 3)
        for y in range(-2, 3)
        for z in range(-2, 3)
        for w in range(-2, 3)
        if member((x, y, z, w), lm.basis) and member((x, y, z, w), lp.basis)
    ]
    for v in common:
        assert member(v, root.basis)


def test_symrank_table_values_match_closed_forms():
    for row in weyl_symrank_table(8):
        assert row.symrank == expected_symrank(row), (row.family, row.rank, row.lattice_label)


def test_symrank_table_spans_rank_le_6():
    for row in weyl_symrank_table(6):
        g = build(RootSystemSpec(row.family, row.rank)).matgroup()
        assert orbit_span(g, row.witness) == row.target.basis


def test_symrank_table_sizes_b_d_up_to_rank_20():
    for n in range(2, 21):
        m = build(RootSystemSpec("B", n))
        assert weyl_orbit_size(m, unit_vector(n, n - 1)) == 2**n
        assert weyl_orbit_size(m, m.simple_root(n - 1)) == 2 * n
    for n in range(4, 21):
        m = build(RootSystemSpec("D", n))
        assert weyl_orbit_size(m, m.simple_root(0)) == 2 * n * (n - 1)
        if n % 2 == 1:
            assert weyl_orbit_size(m, unit_vector(n, n - 1)) == 2 ** (n - 1)


def test_d_even_weight_row_erratum():
    """No single orbit spans the full weight lattice for even D_n."""
    d4 = build(RootSystemSpec("D", 4))
    row = next(r for r in weyl_symrank_table(4) if r.family == "D" and r.lattice_label == "L")
    assert not row.spans_labelled_lattice
    span = orbit_span(d4.matgroup(), row.generator)
    assert span == lattice(d4, "intermediate_D", 1).basis
    assert index(span, full_lattice(4)) == 2


def test_f4_long_root_erratum():
    """The conventional F_4 generator is long; its orbit spans index 4."""
    f4 = build(RootSystemSpec("F", 4))
    long_span = orbit_span(f4.matgroup(), f4.simple_root(0))
    assert index(long_span, full_lattice(4)) == 4
    row = next(r for r in weyl_symrank_table(4) if r.family == "F")
    assert orbit_span(f4.matgroup(), row.witness) == row.target.basis


def test_rdim_lower_bounds():
    values = [rdim_lower_bound(n).value for n in range(1, 11)]
    assert values == [2, 6, 12, 24, 40, 72, 128, 256, 512, 1024]
    b = rdim_lower_bound(5)
    assert (b.witness_family, b.witness_rank, b.witness_kind) == ("D", 5, "root")
    b = rdim_lower_bound(6)
    assert (b.witness_family, b.witness_rank, b.witness_kind) == ("E", 6, "root")
    b = rdim_lower_bound(9)
    assert (b.witness_family, b.witness_rank, b.witness_kind) == ("B", 9, "weight")


@pytest.mark.parametrize(
    "fam,n",
    [("A", 1), ("A", 2), ("A", 6), ("A", 8), ("B", 2), ("B", 6), ("B", 8), ("C", 3), ("C", 5), ("C", 6), ("C", 8), ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8), ("D", 9), ("E", 6), ("E", 7)],
)
def test_published_membership_matrices(fam, n):
    """Published P^-1 D matrices equal ours modulo unimodular equivalence."""
    spec = RootSystemSpec(fam, n)
    model = build(spec)
    root = lattice(model, "root").basis
    pub = published_pinv_d(spec)
    assert column_span(pub) == root
    own = membership_matrix_from_snf(model)
    assert column_span(own) == root
    top = pub.to_rows()[: n - (2 if (fam == "C" and n % 2 == 0) or (fam == "D" and n % 2 == 0) else 1)]
    for i, r in enumerate(top):
        assert r == tuple(int(i == j) for j in range(n))


def test_snf_membership_agrees_with_hnf_membership():
    rng = random.Random(9)
    for fam, n in [("A", 3), ("B", 3), ("C", 4), ("D", 5), ("E", 6)]:
        model = build(RootSystemSpec(fam, n))
        root = lattice(model, "root").basis
        for _ in range(100):
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            assert root_membership_by_snf(model, v) == member(v, root)


def test_root_index_equals_cartan_determinant():
    for fam, n in [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7)]:
        model = build(RootSystemSpec(fam, n))
        assert lattice(model, "root").index_in_weight == abs(model.cartan.det())


def test_weyl_order_closure_minimal_rank_per_family():
    """Closed-form order validated by closure at each family's minimal rank."""
    for fam, n in [("A", 1), ("B", 2), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]:
        m = build(RootSystemSpec(fam, n))
        assert closure(m.matgroup(), cap=10**6)[1] == m.weyl_order
