"""Finite matrix groups: closure, orbits, stabilizers, conjugation."""
import itertools
import random

import pytest
from conftest import orbit_span, unimodular_matrices
from hypothesis import given, settings
from hypothesis import strategies as st

from glattice.errors import CapExceeded, NonUnimodularConjugator, NonUnimodularGenerator, NotGStable
from glattice.intmat import IntMatrix, as_vector, full_lattice, hnf, hnf_from_rows, index
from glattice.matgroup import (
    MatGroup,
    action_in_row_basis,
    closure,
    commutant_dimension,
    conjugate,
    element_matrices,
    orbit,
    restrict_lattice,
    stabilizer_order,
)
from glattice.rootsys import RootSystemSpec, build

NEG = IntMatrix.from_rows([(-1,)])


def wgroup(fam, n):
    return build(RootSystemSpec(fam, n)).matgroup()


def _closure_oracle(g):
    """Element set and order by BFS over matrix products (oracle for closure)."""
    ident = IntMatrix.identity(g.dim)
    seen = {ident.entries}
    queue = [ident]
    for cur in queue:
        for gen in g.generators:
            nxt = cur.mul(gen)
            if nxt.entries not in seen:
                seen.add(nxt.entries)
                queue.append(nxt)
    return frozenset(seen), len(seen)


def stabilizer_order_direct(g, v):
    """Count stabilizing elements directly (oracle for stabilizer_order)."""
    vv = as_vector(v)
    return sum(1 for m in element_matrices(g) if m.apply(vv) == vv)


def test_closure_order_two():
    _, order = closure(MatGroup(1, [NEG]))
    assert order == 2


def test_closure_weyl_orders():
    assert closure(wgroup("G", 2))[1] == 12
    assert closure(wgroup("A", 3))[1] == 24


def test_closure_caches_order_before_elements():
    """A concurrent order() that finds the element set cached also finds the order."""
    order_when_elements_stored = []

    class Watched(MatGroup):
        def __setattr__(self, name, value):
            if name == "_elements" and value is not None:
                order_when_elements_stored.append(self._order)
            super().__setattr__(name, value)

    assert Watched(2, wgroup("A", 2).generators).order() == 6
    assert order_when_elements_stored == [6]


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure(MatGroup(2, [IntMatrix.from_rows([(0, -1), (1, 0)])]), cap=3)


def test_non_unimodular_generator_rejected():
    with pytest.raises(NonUnimodularGenerator):
        MatGroup(1, [IntMatrix.from_rows([(2,)])])


def test_closure_is_closed():
    g = wgroup("A", 2)
    mats = element_matrices(g)
    entries = {m.entries for m in mats}
    for a, b in itertools.product(mats, mats):
        assert a.mul(b).entries in entries


def test_orbit_sizes():
    a2 = wgroup("A", 2)
    assert orbit(a2, (1, 0)).size == 3
    g2model = build(RootSystemSpec("G", 2))
    assert orbit(g2model.matgroup(), g2model.simple_root(0)).size == 6
    assert orbit(a2, (0, 0)).size == 1


def test_orbit_representative_is_lex_min():
    orb = orbit(wgroup("A", 2), (1, 0))
    assert orb.representative.entries == min(orb.elements)


def test_orbit_span_examples():
    a2 = build(RootSystemSpec("A", 2))
    g = a2.matgroup()
    assert orbit_span(g, (1, 0)) == full_lattice(2)
    root_span = orbit_span(g, a2.simple_root(0))
    assert index(root_span, full_lattice(2)) == 3
    assert orbit_span(g, (0, 0)).rank == 0


def test_stabilizer_orders_with_direct_oracle():
    a2 = wgroup("A", 2)
    assert stabilizer_order(a2, (1, 0)) == 2 == stabilizer_order_direct(a2, (1, 0))
    assert stabilizer_order(a2, (0, 0)) == 6
    g2model = build(RootSystemSpec("G", 2))
    g2 = g2model.matgroup()
    v = g2model.simple_root(0)
    assert stabilizer_order(g2, v) == 2 == stabilizer_order_direct(g2, v)


def test_orbit_stabilizer_product():
    g = wgroup("B", 2)
    _, order = closure(g)
    for v in [(1, 0), (0, 1), (1, 1), (2, 1), (0, 0)]:
        assert orbit(g, v).size * stabilizer_order(g, v) == order


def test_conjugate_identity_and_permutation():
    a2 = wgroup("A", 2)
    assert conjugate(a2, IntMatrix.identity(2)).generators == a2.generators
    perm = IntMatrix.from_rows([(0, 1), (1, 0)])
    conj = conjugate(a2, perm)
    assert closure(conj)[1] == 6


def test_conjugate_rejects_non_unimodular():
    with pytest.raises(NonUnimodularConjugator):
        conjugate(wgroup("A", 2), IntMatrix.from_rows([(2, 0), (0, 1)]))


def test_paired_conjugation_preserves_orbit_sizes():
    rng = random.Random(5)
    g = wgroup("A", 3)
    for _ in range(20):
        # random unimodular conjugator from elementary operations
        a = IntMatrix.identity(3)
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            e = [[int(r == c) for c in range(3)] for r in range(3)]
            e[i][j] = rng.choice((-2, -1, 1, 2))
            a = a.mul(IntMatrix.from_rows(e))
        conj = conjugate(g, a)
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        assert orbit(g, v).size == orbit(conj, a.apply(v)).size


def test_restrict_lattice_pairs_with_conjugation():
    g = wgroup("A", 2)
    a = IntMatrix.from_rows([(1, 1), (0, 1)])
    l = hnf_from_rows([(2, -1), (-1, 2)], 2)
    moved = restrict_lattice(l, a)
    assert moved.rank == l.rank
    assert index(moved, full_lattice(2)) == index(l, full_lattice(2))


def test_subgroup_orbits_contained_in_group_orbits():
    g = build(RootSystemSpec("B", 3))
    full = g.matgroup()
    sub = MatGroup(3, full.generators[:2])
    for v in [(1, 0, 0), (1, 1, 0), (0, 0, 1)]:
        assert orbit(sub, v).elements <= orbit(full, v).elements


def test_commutant_dimension():
    assert commutant_dimension(MatGroup.trivial(2)) == 4
    assert commutant_dimension(wgroup("A", 2)) == 1
    minus = IntMatrix.from_rows([(-1, 0), (0, -1)])
    assert commutant_dimension(MatGroup(2, [minus])) == 4


def test_irreducibility_certificate_language():
    from glattice.matgroup import CERTIFIED_IRREDUCIBLE, NOT_CERTIFIED, irreducibility_certificate

    assert irreducibility_certificate(wgroup("A", 2)) == CERTIFIED_IRREDUCIBLE
    # scalars commute with everything: nothing is certified (and nothing
    # is claimed reducible either)
    minus = IntMatrix.from_rows([(-1, 0), (0, -1)])
    assert irreducibility_certificate(MatGroup(2, [minus])) == NOT_CERTIFIED


def test_stable_span_agrees_with_orbit_span():
    """Dual route: fixpoint span must equal the enumerated orbit span."""
    import random

    from glattice.matgroup import stable_span

    rng = random.Random(17)
    groups = [wgroup("A", 2), wgroup("B", 3), wgroup("D", 4), wgroup("G", 2)]
    for g in groups:
        for _ in range(8):
            v = tuple(rng.randint(-3, 3) for _ in range(g.dim))
            assert stable_span(g, v) == orbit_span(g, v)


def test_restricted_action_preserves_orbit_sizes():
    """Orbit sizes agree between ambient and lattice coordinates."""
    from glattice.intmat import coordinates_in
    from glattice.matgroup import in_lattice_coordinates
    from glattice.rootsys import lattice as named_lattice

    for fam, n in [("A", 2), ("B", 3), ("C", 3), ("D", 4)]:
        model = build(RootSystemSpec(fam, n))
        g = model.matgroup()
        root = named_lattice(model, "root").basis
        gl = in_lattice_coordinates(g, root)
        assert gl.order() == g.order()
        for i in range(n):
            amb = model.simple_root(i)
            coords = coordinates_in(amb, root)
            assert coords is not None
            assert orbit(g, amb).size == orbit(gl, coords).size


def _check_row_basis_action(g, basis, rewritten):
    """sum_k M[k, i] b_k == h(b_i) for every generator h, in plain integers."""
    b = basis.to_rows()
    for h, m in zip(g.generators, rewritten.generators):
        for i in range(len(b)):
            combo = tuple(sum(m[k, i] * b[k][j] for k in range(len(b))) for j in range(basis.cols))
            assert combo == h.apply(b[i]).entries


WEYL_SPECS = [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WEYL_SPECS).flatmap(lambda s: st.tuples(st.just(s), unimodular_matrices(s[1]))))
def test_action_in_row_basis_on_changed_root_bases(case):
    spec, u = case
    model = build(RootSystemSpec(*spec))
    g = model.matgroup()
    basis = u.mul(model.cartan)  # another basis of the root lattice
    rewritten = action_in_row_basis(g, basis)
    assert rewritten.dim == model.rank and rewritten.order() == g.order()
    _check_row_basis_action(g, basis, rewritten)


def test_action_in_row_basis_of_a_lower_rank_lattice():
    swap = IntMatrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    flip = IntMatrix.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, -1)])
    g = MatGroup(3, [swap, flip])
    basis = IntMatrix.from_rows([(1, 1, 1), (2, 2, 1)])  # spans (1, 1, 0) and (0, 0, 1)
    rewritten = action_in_row_basis(g, basis)
    assert rewritten.dim == 2
    _check_row_basis_action(g, basis, rewritten)


@pytest.mark.parametrize(
    "rows",
    [[(1, 0), (2, 0)], [(1, 0), (0, 1), (1, 1)], [(0, 0), (0, 1)]],
    ids=["parallel", "three rows in Z^2", "zero row"],
)
def test_action_in_row_basis_rejects_dependent_rows(rows):
    with pytest.raises(NotGStable):
        action_in_row_basis(wgroup("A", 2), IntMatrix.from_rows(rows))


@pytest.mark.parametrize("rows", [[(1, 0), (0, 2)], [(1, 0)]], ids=["full rank", "rank 1"])
def test_action_in_row_basis_rejects_unstable_lattices(rows):
    from glattice.matgroup import is_lattice_stable

    g = wgroup("A", 2)
    basis = IntMatrix.from_rows(rows)
    assert not is_lattice_stable(g, hnf(basis))
    with pytest.raises(NotGStable):
        action_in_row_basis(g, basis)


WEYL_UP_TO_RANK_8 = [
    (fam, n)
    for fam, lo, hi in [("A", 1, 8), ("B", 2, 8), ("C", 3, 8), ("D", 4, 8), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)]
    for n in range(lo, hi + 1)
]


@pytest.mark.parametrize("spec", WEYL_UP_TO_RANK_8, ids=lambda s: f"{s[0]}{s[1]}")
def test_weyl_groups_are_certified_irreducible(spec):
    assert commutant_dimension(wgroup(*spec)) == 1


def _signed_permutations(n):
    """Strategy: n x n signed permutation matrices."""
    signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    return st.tuples(st.permutations(range(n)), signs).map(
        lambda ps: IntMatrix.from_rows([[s * int(j == p) for j in range(n)] for p, s in zip(*ps)])
    )


SIGNED_PERMUTATION_GENERATORS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_signed_permutations(n), min_size=1, max_size=3))
)
CONJUGATED_WEYL_GENERATORS = st.sampled_from([s for s in WEYL_UP_TO_RANK_8 if s[1] <= 4]).flatmap(
    lambda s: unimodular_matrices(s[1]).map(lambda u: (s[1], conjugate(wgroup(*s), u).generators))
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(SIGNED_PERMUTATION_GENERATORS, CONJUGATED_WEYL_GENERATORS))
def test_closure_equals_matrix_product_oracle(case):
    dim, gens = case
    elements, order = _closure_oracle(MatGroup(dim, gens))
    assert closure(MatGroup(dim, gens), cap=order) == (elements, order)
    if order > 1:  # the trivial group meets no new element, so no cap is hit
        with pytest.raises(CapExceeded) as err:
            closure(MatGroup(dim, gens), cap=order - 1)
        assert (err.value.what, err.value.cap) == ("group closure", order - 1)
