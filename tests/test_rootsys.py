"""Root systems: reflections, orbit sizes, lattices, membership matrices."""
import random
from math import comb

import pytest
from conftest import apply, det, inverse_unimodular, orbit_span, snf

from glattice.errors import InvalidRank, KindUnavailable
from glattice.intmat import IntMatrix, LatticeBasis, full_lattice, hnf, hnf_from_rows, index, member, unit_vector
from glattice.matgroup import closure, orbit, stable_span
from glattice.rootsys import (
    RootSystemSpec,
    WeylModel,
    _specs_up_to,
    build,
    cartan_matrix,
    dominant_representative,
    expected_symrank,
    lattice,
    rdim_lower_bound,
    stabilizer_order_dominant,
    weyl_symrank_table,
    weyl_orbit_size,
)
from glattice import rootsys
from glattice.search import symrank_search

# ---------------------------------------------------------------------------
# Regression fixtures for the membership matrices P^-1 D.
#
# The published bottom-row matrices are one valid choice among many (the
# transforms in a Smith decomposition are not canonical), so they are
# compared modulo unimodular equivalence: the lattice generated by the
# matrix columns must equal the root lattice.
# ---------------------------------------------------------------------------


def published_pinv_d(spec: RootSystemSpec) -> IntMatrix | None:
    """Published membership matrix (identity rows + special bottom rows)."""
    n = spec.rank
    fam = spec.family

    def with_bottom(bottom_rows: list[list[int]]) -> IntMatrix:
        k = len(bottom_rows)
        rows = [[int(i == j) for j in range(n)] for i in range(n - k)] + bottom_rows
        return IntMatrix.from_rows(rows)

    if fam == "A":
        return with_bottom([[*range(1, n), n + 1]]) if n >= 1 else None
    if fam == "B":
        return with_bottom([[0] * (n - 1) + [2]])
    if fam == "C":
        if n % 2 == 1:
            return with_bottom([[1, 0] * ((n - 1) // 2) + [2]])
        return with_bottom(
            [[1, 0] * ((n - 2) // 2) + [0, -2], [0] * (n - 2) + [1, 2]]
        )
    if fam == "D":
        if n % 2 == 0:
            return with_bottom(
                [[1, 0] * ((n - 2) // 2) + [2, 0], [1, 0] * ((n - 2) // 2) + [0, 2]]
            )
        return with_bottom([[2, 0] * ((n - 3) // 2) + [2, 1, 4]])
    if fam == "E" and n == 6:
        return with_bottom([[1, 0, 2, 0, 1, 3]])
    if fam == "E" and n == 7:
        return with_bottom([[0, 1, 0, 0, 1, 0, 2]])
    return None  # E_8, F_4, G_2: root lattice equals weight lattice


def column_span(m: IntMatrix) -> LatticeBasis:
    return hnf(m.transpose())


def membership_matrix_from_snf(model: WeylModel) -> IntMatrix:
    """P^-1 D computed from the Smith decomposition oracle.

    Solvability of (P^-1 D) u = v over Z characterizes membership in the
    root lattice written in weight coordinates; equivalently the column
    span of P^-1 D is the root lattice.
    """
    dec = snf(model.cartan.transpose())
    return inverse_unimodular(dec.P).mul(dec.D)


def root_membership_by_snf(model: WeylModel, v) -> bool:
    """Membership test for the root lattice via the Smith decomposition."""
    dec = snf(model.cartan.transpose())
    pv = apply(dec.P, v)
    return all(
        (pv[i] % dec.D[i, i] == 0) if dec.D[i, i] != 0 else (pv[i] == 0)
        for i in range(model.rank)
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
        assert det(cartan_matrix(RootSystemSpec(fam, n))) == want


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


def _order(g: IntMatrix) -> int | None:
    """The order of g if it is at most 6, else None."""
    ident = IntMatrix.identity(g.rows)
    acc = g
    for k in range(1, 7):
        if acc == ident:
            return k
        acc = acc.mul(g)
    return None


@pytest.mark.parametrize("spec", _specs_up_to(12), ids=str)
def test_simple_reflections_satisfy_the_coxeter_relations(spec):
    """s_i has order 2 and s_i s_j has order m_ij, as the module docstring argues."""
    m = build(spec)
    s, c = m.simple_reflections, m.cartan
    for i in range(m.rank):
        assert _order(s[i]) == 2
        for j in range(i + 1, m.rank):
            assert _order(s[i].mul(s[j])) == {0: 2, 1: 3, 2: 4, 3: 6}[c[i, j] * c[j, i]], (i, j)


def test_the_symrank_table_multiplies_no_matrices(monkeypatch):
    """The table reads its orbit sizes from closed forms, so no model build re-proves its reflections."""
    calls = 0
    mul = IntMatrix.mul

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(IntMatrix, "mul", counted)
    weyl_symrank_table(8)
    assert calls == 0


def test_the_symrank_table_makes_no_reflection(monkeypatch):
    """A model makes its simple reflections on first read, once; the table reads none."""
    calls = 0
    reflection = rootsys._reflection

    def counted(cartan, i):
        nonlocal calls
        calls += 1
        return reflection(cartan, i)

    monkeypatch.setattr(rootsys, "_reflection", counted)
    weyl_symrank_table(8)
    assert calls == 0
    m = build(RootSystemSpec("E", 8))
    assert m.simple_reflections is m.simple_reflections and calls == 8


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
            assert dom == v  # already dominant
            assert order // stabilizer_order_dominant(m, dom) == orbit(g, v).size


def _orbit_size_steps(bonds, nodes, start):
    """BFS of start under the simple reflections in nodes: yield None per vector
    dequeued, then the orbit size.  bonds[i] lists (j, C[i, j]) for C[i, j] != 0."""
    seen = {start}
    queue = [start]
    for cur in queue:
        for i in nodes:
            c = cur[i]
            if c:
                w = list(cur)
                for j, a in bonds[i]:
                    w[j] -= c * a  # sigma_i: v_j -= C[i, j] v_i
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        yield None
    yield len(seen)


def parabolic_order_oracle(model, nodes, cap):
    """|W_J| for the node set J, or None when neither BFS ends within cap steps.

    Two BFS run in lockstep and the first to end answers: the W-orbit of
    v_J = sum_{i not in J} lambda_i gives |W| / |W v_J|, and the orbit of
    rho = sum_i lambda_i under <sigma_j : j in J> lists that group, since
    only the identity of W fixes rho (Humphreys, 1.12).
    """
    n = model.rank
    bonds = [[(j, model.cartan[i, j]) for j in range(n) if model.cartan[i, j]] for i in range(n)]
    orbit_side = _orbit_size_steps(bonds, range(n), tuple(int(i not in nodes) for i in range(n)))
    parabolic_side = _orbit_size_steps(bonds, nodes, (1,) * n)
    for _ in range(cap + 1):
        size, order = next(orbit_side), next(parabolic_side)
        if size is not None:
            return model.weyl_order // size
        if order is not None:
            return order
    return None


def test_parabolic_orders_match_the_orbit_oracle():
    """Every node subset J of every spec of rank <= 8 that the oracle settles
    within 500 steps: the stabilizer of v_J has order |W_J|."""
    settled = set()
    for spec in _specs_up_to(8):
        model = build(spec)
        n = spec.rank
        for bits in range(2**n):
            nodes = tuple(i for i in range(n) if bits >> i & 1)
            want = parabolic_order_oracle(model, nodes, 500)
            if want is not None:
                v_j = tuple(int(i not in nodes) for i in range(n))
                assert stabilizer_order_dominant(model, v_j) == want, (str(spec), nodes)
                settled.add((str(spec), nodes))
    # 0-indexed nodes: F4 is 0-1=2-3; E is the chain 0-2-3-4-5-6-7 with 1 on 3
    named = {
        ("F4", (0, 1, 2, 3)),  # F4
        ("F4", (0, 1, 2)), ("F4", (1, 2, 3)), ("F4", (1, 2)),  # B3, C3, B2
        ("E6", (1, 2, 3, 4, 5)),  # D5
        ("E7", (1, 2, 3, 4, 5, 6)),  # D6
        ("E7", (0, 1, 2, 3, 4, 5)),  # E6
        ("E8", (0, 1, 2, 3, 4, 5, 6)),  # E7
        ("E8", tuple(range(8))),  # E8
    }
    assert named <= settled
    assert len(settled) > 2300


def test_dominance_reduction():
    m = build(RootSystemSpec("G", 2))
    dom = dominant_representative(m, (-1, 0))
    assert all(e >= 0 for e in dom)
    assert weyl_orbit_size(m, (-1, 0)) == weyl_orbit_size(m, dom)


def test_short_root_counts():
    """Orbit sizes of the first short simple root (0-indexed)."""
    for fam, n, short, want in [("G", 2, 0, 6), ("F", 4, 2, 24), ("E", 8, 0, 240), ("B", 5, 4, 10), ("C", 5, 0, 40)]:
        model = build(RootSystemSpec(fam, n))
        assert weyl_orbit_size(model, model.simple_root(short)) == want


def test_lattice_examples():
    a2 = build(RootSystemSpec("A", 2))
    root = lattice(a2, "root")
    assert index(root.basis, full_lattice(2)) == 3
    b3 = build(RootSystemSpec("B", 3))
    assert lattice(b3, "weight").basis == full_lattice(3)
    d4 = build(RootSystemSpec("D", 4))
    spin_plus = lattice(d4, "intermediate_D", 4)
    assert index(spin_plus.basis, full_lattice(4)) == 2
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
    assert index(l2.basis, full_lattice(5)) == 2
    assert index(l3.basis, full_lattice(5)) == 3
    root = lattice(a5, "root")
    assert index(root.basis, full_lattice(5)) == 6
    assert index(root.basis, l2.basis) == 3
    assert index(root.basis, l3.basis) == 2


def test_d_even_intermediates_intersect_in_root_lattice():
    d4 = build(RootSystemSpec("D", 4))
    lm = lattice(d4, "intermediate_D", 3)
    lp = lattice(d4, "intermediate_D", 4)
    root = lattice(d4, "root")
    assert index(lm.basis, full_lattice(4)) == index(lp.basis, full_lattice(4)) == 2
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


def test_a_fundamental_weight_orbits_have_the_binomial_size():
    """C(n+1, d), the closed form of the A_n L+d rows, is the size of the lambda_d orbit."""
    for n in range(1, 9):
        model = build(RootSystemSpec("A", n))
        for d in range(1, n + 1):
            assert weyl_orbit_size(model, unit_vector(n, d - 1)) == comb(n + 1, d)


def _a_row(n, label):
    return next(r for r in weyl_symrank_table(n) if (r.family, r.rank, r.lattice_label) == ("A", n, label))


@pytest.mark.parametrize("key", [(7, "L+4"), (8, "L+3")], ids=lambda k: f"A{k[0]} {k[1]}")
def test_a_rows_with_a_smaller_spanning_orbit(key):
    """The first two A rows whose witness is not lambda_d: the search at radius 1 agrees."""
    row = _a_row(*key)
    g = build(RootSystemSpec("A", key[0])).matgroup()
    assert symrank_search(g, row.target.basis, radius=1).upper_bound == row.symrank == expected_symrank(row)


def test_a7_l4_search_at_radius_2():
    row = _a_row(7, "L+4")
    res = symrank_search(build(RootSystemSpec("A", 7)).matgroup(), row.target.basis, radius=2)
    assert (res.upper_bound, [w.entries for w in res.witness]) == (56, [(0, 0, 0, 0, 0, 1, 2)])


def _supports_below(model, size):
    """The supports S (1-indexed) of the dominant weights whose orbit has fewer than size vectors.

    A dominant weight's orbit size depends only on its support."""
    n = model.rank
    return {
        tuple(i + 1 for i in range(n) if bits >> i & 1)
        for bits in range(1, 2**n)
        if weyl_orbit_size(model, tuple(bits >> i & 1 for i in range(n))) < size
    }


def _multiples_in(n, i, target):
    """The a in 1..n+1 with a lambda_i in target; membership depends on a mod n+1."""
    return [a for a in range(1, n + 2) if member(tuple(a * int(j == i - 1) for j in range(n)), target)]


@pytest.mark.parametrize(
    "key, q, small",
    [((7, "L+4"), 2, {1: 8, 7: 8, 2: 28, 6: 28}), ((8, "L+3"), 3, {1: 9, 8: 9, 2: 36, 7: 36})],
    ids=["A7 L+4", "A8 L+3"],
)
def test_a_rows_with_a_smaller_spanning_orbit_are_minimal(key, q, small):
    """The lemma's facts on its first two rows, down to the orbits: small maps each support {i}
    with an orbit below the row's to that orbit's size, and every a lambda_i in the target has q | a."""
    n = key[0]
    row = _a_row(*key)
    model = build(RootSystemSpec("A", n))
    g = model.matgroup()
    target = row.target.basis
    assert _supports_below(model, row.symrank) == {(i,) for i in small}
    for i, s in small.items():
        assert weyl_orbit_size(model, unit_vector(n, i - 1)) == s
        multiples = _multiples_in(n, i, target)
        assert multiples and all(a % q == 0 for a in multiples)
        # the orbit of such a v lies in v + qL
        v = tuple(multiples[0] * int(j == i - 1) for j in range(n))
        coset = hnf_from_rows([v] + [tuple(q * x for x in r) for r in target.rows()], n)
        assert all(member(w, coset) for w in orbit(g, v).elements)
    # L/qL has dimension n, so a union of these orbits needs n of them
    assert n * min(small.values()) == row.symrank == expected_symrank(row)


def test_the_a_row_lemma_ingredients():
    """The finite facts the A_n L+d lemma of ``expected_symrank`` rests on."""
    for n in range(7, 15):
        model = build(RootSystemSpec("A", n))
        assert _supports_below(model, n * (n + 1)) == {(1,), (2,), (n - 1,), (n,)}
        alpha_1 = model.simple_root(0)
        for d in range(3, n + 1):
            if (n + 1) % d:
                continue
            # the largest prime factor, odd unless d is a power of 2
            q = max(p for p in range(2, d + 1) if d % p == 0 and all(p % k for k in range(2, p)))
            target = lattice(model, "intermediate", d).basis
            for i in (1, 2, n - 1, n):
                assert all(a % q == 0 for a in _multiples_in(n, i, target)), (n, d, i)
            assert member(alpha_1, target) and any(x % q for x in alpha_1)
    for n in range(3, 14, 2):
        model = build(RootSystemSpec("A", n))
        assert _supports_below(model, comb(n + 1, 2)) == {(1,), (n,)}
        target = lattice(model, "intermediate", 2).basis
        for i in (1, n):
            assert all(a % 2 == 0 for a in _multiples_in(n, i, target)), (n, i)


def test_symrank_table_witnesses_span_their_targets():
    """Every row of rank <= 8, and every A row of rank <= 20: the witness orbit spans the
    target and has the closed-form size."""
    rows = weyl_symrank_table(8)
    assert len(rows) == 73
    for row in rows + [r for r in weyl_symrank_table(20) if r.family == "A" and r.rank > 8]:
        g = build(RootSystemSpec(row.family, row.rank)).matgroup()
        assert stable_span(g, row.witness) == row.target.basis, (row.family, row.rank, row.lattice_label)
        assert orbit(g, row.witness).size == row.symrank == expected_symrank(row)


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
    span = orbit_span(d4.matgroup(), row.witness)
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
        assert index(lattice(model, "root").basis, full_lattice(n)) == abs(det(model.cartan))


def test_weyl_order_closure_minimal_rank_per_family():
    """Closed-form order validated by closure at each family's minimal rank."""
    for fam, n in [("A", 1), ("B", 2), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]:
        m = build(RootSystemSpec(fam, n))
        assert closure(m.matgroup(), cap=10**6)[1] == m.weyl_order
