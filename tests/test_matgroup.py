"""Finite matrix groups: closure, orbits, stabilizers, conjugation."""
import dataclasses
import itertools
import random
import re

import pytest
from conftest import apply, closure_oracle, conjugate, orbit_span, stabilizer_order, unimodular_matrices
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glattice.errors import CapExceeded, NonUnimodularGenerator, NotGStable
from glattice.intmat import IntMatrix, full_lattice, hnf, index
from glattice.matgroup import (
    MatGroup,
    closure,
    commutant_dimension,
    in_lattice_coordinates,
    orbit,
    stable_span,
)
from glattice.rootsys import RootSystemSpec, build

NEG = IntMatrix.from_rows([(-1,)])


def wgroup(fam, n):
    return build(RootSystemSpec(fam, n)).matgroup()


def element_matrices(g):
    """All elements of closure(g) as matrices, sorted by entry tuple."""
    return [IntMatrix(g.dim, g.dim, t) for t in sorted(closure(g)[0])]


def stabilizer_order_direct(g, v):
    """Count stabilizing elements directly (oracle for stabilizer_order)."""
    return sum(1 for m in element_matrices(g) if apply(m, v) == v)


def test_closure_order_two():
    _, order = closure(MatGroup(1, [NEG]))
    assert order == 2


def test_closure_weyl_orders():
    assert closure(wgroup("G", 2))[1] == 12
    assert closure(wgroup("A", 3))[1] == 24


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
        assert orbit(g, v).size == orbit(conj, apply(a, v)).size


def test_subgroup_orbits_contained_in_group_orbits():
    g = build(RootSystemSpec("B", 3))
    full = g.matgroup()
    sub = MatGroup(3, full.generators[:2])
    for v in [(1, 0, 0), (1, 1, 0), (0, 0, 1)]:
        assert orbit(sub, v).elements <= orbit(full, v).elements


def test_commutant_dimension():
    assert commutant_dimension(MatGroup(2, ())) == 4
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
    rng = random.Random(17)
    groups = [wgroup("A", 2), wgroup("B", 3), wgroup("D", 4), wgroup("G", 2)]
    for g in groups:
        for _ in range(8):
            v = tuple(rng.randint(-3, 3) for _ in range(g.dim))
            assert stable_span(g, v) == orbit_span(g, v)


def test_restricted_action_preserves_orbit_sizes():
    """Orbit sizes agree between ambient and lattice coordinates."""
    from glattice.intmat import coordinates_in
    from glattice.rootsys import lattice as named_lattice

    for fam, n in [("A", 2), ("B", 3), ("C", 3), ("D", 4)]:
        model = build(RootSystemSpec(fam, n))
        g = model.matgroup()
        root = named_lattice(model, "root").basis
        gl = in_lattice_coordinates(g, root)
        assert closure(gl)[1] == closure(g)[1]
        for i in range(n):
            amb = model.simple_root(i)
            coords = coordinates_in(amb, root)
            assert coords is not None
            assert orbit(g, amb).size == orbit(gl, coords).size


def _check_row_basis_action(g, lat, rewritten):
    """sum_k M[k, i] b_k == h(b_i) over the HNF rows b of lat, for every generator h, in plain integers."""
    b = lat.rows()
    for h, m in zip(g.generators, rewritten.generators):
        for i in range(len(b)):
            combo = tuple(sum(m[k, i] * b[k][j] for k in range(len(b))) for j in range(lat.ambient_dim))
            assert combo == apply(h, b[i])


WEYL_SPECS = [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WEYL_SPECS).flatmap(lambda s: st.tuples(st.just(s), unimodular_matrices(s[1]))))
def test_action_in_row_basis_on_changed_root_bases(case):
    spec, u = case
    model = build(RootSystemSpec(*spec))
    g = model.matgroup()
    lat = hnf(u.mul(model.cartan))  # the root lattice, from another basis of it
    rewritten = in_lattice_coordinates(g, lat)
    assert rewritten.dim == model.rank and closure(rewritten)[1] == closure(g)[1]
    _check_row_basis_action(g, lat, rewritten)


def test_action_in_row_basis_of_a_lower_rank_lattice():
    swap = IntMatrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    flip = IntMatrix.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, -1)])
    g = MatGroup(3, [swap, flip])
    lat = hnf(IntMatrix.from_rows([(1, 1, 1), (2, 2, 1)]))  # spans (1, 1, 0) and (0, 0, 1)
    rewritten = in_lattice_coordinates(g, lat)
    assert rewritten.dim == 2
    _check_row_basis_action(g, lat, rewritten)


@pytest.mark.parametrize("fam, n", [("A", 3), ("B", 3), ("D", 4)])
def test_lattice_coordinates_of_the_full_lattice_are_the_group(fam, n):
    """In the identity basis coordinates are ambient coordinates, so g itself comes back."""
    g = wgroup(fam, n)
    assert in_lattice_coordinates(g, full_lattice(n)) is g
    assert in_lattice_coordinates(g, hnf(IntMatrix.identity(n))) is g
    with pytest.raises(ValueError):
        in_lattice_coordinates(g, full_lattice(n + 1))


def test_lattice_coordinates_of_a_proper_sublattice_are_rewritten():
    """The A2 root lattice has full rank and index 3 in the weight lattice: its action is a new group."""
    g = wgroup("A", 2)
    root = hnf(IntMatrix.from_rows([(2, -1), (-1, 2)]))
    gl = in_lattice_coordinates(g, root)
    assert gl is not g and gl.generators != g.generators
    assert [h.to_rows() for h in gl.generators] == [[(-1, 0), (1, 1)], [(2, 3), (-1, -2)]]
    assert closure(gl)[1] == closure(g)[1] == 6


@pytest.mark.parametrize("rows", [[(1, 0), (0, 2)], [(1, 0)]], ids=["full rank", "rank 1"])
def test_lattice_coordinates_reject_unstable_lattices(rows):
    with pytest.raises(NotGStable):
        in_lattice_coordinates(wgroup("A", 2), hnf(IntMatrix.from_rows(rows)))


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
    elements, order = closure_oracle(MatGroup(dim, gens))
    assert closure(MatGroup(dim, gens), cap=order) == (elements, order)
    if order > 1:  # the trivial group meets no new element, so no cap is hit
        with pytest.raises(CapExceeded) as err:
            closure(MatGroup(dim, gens), cap=order - 1)
        assert (err.value.what, err.value.cap) == ("group closure", order - 1)


@settings(max_examples=80, deadline=None)
@example((2, [IntMatrix.from_rows([(1, 0), (0, -1)])]))  # e_2 lies outside the orbit of e_1
@given(st.one_of(SIGNED_PERMUTATION_GENERATORS, CONJUGATED_WEYL_GENERATORS))
def test_closure_view_iterates_and_answers_membership_like_the_oracle(case):
    """closure(g)[0] against the oracle's frozenset: iteration, len, hash and `in`."""
    dim, gens = case
    elements, order = closure_oracle(MatGroup(dim, gens))
    view = closure(MatGroup(dim, gens))[0]
    assert len(view) == order and sorted(view) == sorted(elements)
    assert all(e in view for e in elements)
    assert view == elements and elements == view and hash(view) == hash(elements)
    doubled = tuple(2 * x for x in IntMatrix.identity(dim).entries)
    first_column_everywhere = tuple(int(i == 0) for i in range(dim) for _ in range(dim))
    assert doubled not in view and IntMatrix.identity(dim).entries + (0,) not in view
    for stranger in (first_column_everywhere, None):
        assert (stranger in view) == (stranger in elements)


def _redundant_generator_cases():
    """(group, the same group on a reduced generator list) for the coset listing's skip rule."""
    a3 = wgroup("A", 3).generators
    s1, s2 = a3[:2]
    i3 = IntMatrix.identity(3)
    cases = {
        "duplicate generator": ((s1, s1, *a3[1:]), a3),
        "identity first": ((i3, *a3), a3),
        "identity between": ((s1, i3, *a3[1:]), a3),
        "s1 s2 after s1 and s2": ((s1, s2, s1.mul(s2)), (s1, s2)),
        "s1 s2 before s1 and s2": ((s1.mul(s2), s1, s2), (s1, s2)),
    }
    return [pytest.param(MatGroup(3, g), MatGroup(3, r), id=label) for label, (g, r) in cases.items()]


@pytest.mark.parametrize("g, reduced", _redundant_generator_cases())
def test_closure_with_redundant_generators(g, reduced):
    elements, order = closure_oracle(reduced)
    assert closure(g) == closure(reduced) == (elements, order)
    assert closure(g, cap=order) == (elements, order)
    with pytest.raises(CapExceeded):
        closure(g, cap=order - 1)


SHEAR2 = IntMatrix.from_rows([(1, 1), (0, 1)])
ROT4 = IntMatrix.from_rows([(0, -1), (1, 0)])


@pytest.mark.parametrize("gens", [(SHEAR2,), (ROT4, SHEAR2)], ids=["shear first", "finite then shear"])
@pytest.mark.parametrize("cap", [1, 4, 5, 101])
def test_infinite_group_raises_at_the_cap(gens, cap):
    with pytest.raises(CapExceeded) as err:
        closure(MatGroup(2, gens), cap=cap)
    assert (err.value.what, err.value.cap) == ("group closure", cap)


# e_1 is fixed; the orbit of e_2 has 4 points under the quarter turn and no end under the shear.
@pytest.mark.parametrize(
    "gens, cap",
    [
        ((IntMatrix.from_rows([(1, 0, 0), (0, 0, -1), (0, 1, 0)]),), 3),
        ((IntMatrix.from_rows([(1, 0, 0), (0, 1, 0), (0, 1, 1)]),), 1000),
    ],
    ids=["quarter turn", "shear"],
)
def test_closure_raises_when_a_basis_vector_orbit_exceeds_the_cap(gens, cap):
    with pytest.raises(CapExceeded) as err:
        closure(MatGroup(3, gens), cap=cap)
    assert (err.value.what, err.value.cap) == ("group closure", cap)


# Here the span reaches full rank before it is the orbit span, so generator
# images must be queued after growth that keeps the rank.
FULL_RANK_TOO_EARLY = (
    4,
    [
        IntMatrix.from_rows([(0, 0, -1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (-1, 0, 0, 0)]),
        IntMatrix.from_rows([(0, 0, -1, 0), (1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1)]),
    ],
)


@settings(max_examples=200, deadline=None)
@example((FULL_RANK_TOO_EARLY, [1, 0, 1, -1]))
@given(
    st.one_of(SIGNED_PERMUTATION_GENERATORS, CONJUGATED_WEYL_GENERATORS).flatmap(
        lambda case: st.tuples(st.just(case), st.lists(st.integers(-3, 3), min_size=case[0], max_size=case[0]))
    )
)
def test_stable_span_equals_orbit_span_oracle(case):
    (dim, gens), v = case
    g = MatGroup(dim, gens)
    assert stable_span(g, v) == orbit_span(g, v)
    zero = (0,) * dim
    assert stable_span(g, zero) == orbit_span(g, zero)



@st.composite
def _groups_with_vectors(draw):
    """(dim, gens, vectors): 0-3 vectors drawn from two random ones and zero, so repeats and zero occur."""
    dim, gens = draw(st.one_of(SIGNED_PERMUTATION_GENERATORS, CONJUGATED_WEYL_GENERATORS))
    vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    pool = [draw(vector), draw(vector), (0,) * dim]
    return dim, gens, draw(st.lists(st.sampled_from(pool), max_size=3))


@settings(max_examples=200, deadline=None)
@example((2, [IntMatrix.from_rows([(-1, 0), (0, 1)])], [(0, 0), (1, 0), (1, 0)]))
@given(_groups_with_vectors())
def test_stable_span_of_several_vectors_equals_the_span_of_their_orbits(case):
    dim, gens, vectors = case
    g = MatGroup(dim, gens)
    assert stable_span(g, *vectors) == orbit_span(g, *vectors)


BIG = st.one_of(st.integers(-(2**70), -(2**64) - 1), st.integers(2**64 + 1, 2**70))


def _shear(n, c):
    """I + c e_{0, n-1} (the identity when n = 1); conjugating by it puts multiples of c into the entries."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        rows[0][n - 1] = c
    return IntMatrix.from_rows(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(SIGNED_PERMUTATION_GENERATORS, CONJUGATED_WEYL_GENERATORS).flatmap(
        lambda case: st.tuples(
            st.just(case), BIG, st.lists(st.one_of(st.integers(-3, 3), BIG), min_size=case[0], max_size=case[0])
        )
    )
)
def test_images_equal_matrix_vector_products(case):
    """The compiled kernel against the matrix-vector product, also with entries beyond 2^64."""
    (dim, gens), c, v = case
    for g in (MatGroup(dim, gens), conjugate(MatGroup(dim, gens), _shear(dim, c))):
        assert g.images(tuple(v)) == tuple(apply(h, v) for h in g.generators)


def test_kernel_of_a_group_without_generators():
    g = MatGroup(3, ())
    assert g.images((1, -2, 3)) == ()
    assert orbit(g, (1, -2, 3)).elements == {(1, -2, 3)}
    assert stable_span(g, (0, 2, 0)) == hnf(IntMatrix.from_rows([(0, 2, 0)]))
    assert in_lattice_coordinates(g, hnf(IntMatrix.from_rows([(1, 1, 0)]))) == MatGroup(1, ())
    assert closure(g) == ({IntMatrix.identity(3).entries}, 1)


def test_kernel_in_dimension_zero():
    for g in (MatGroup(0, ()), MatGroup(0, [IntMatrix.identity(0)] * 2)):
        assert g.images(()) == ((),) * len(g.generators)
        assert orbit(g, ()).elements == {()}
        assert stable_span(g, ()).rank == 0
        assert closure(g) == ({()}, 1)


def test_kernel_in_dimension_one():
    g = MatGroup(1, [NEG])
    assert g.images((5,)) == ((-5,),)
    assert g.images((-(2**70),)) == ((2**70,),)
    assert orbit(g, (5,)).elements == {(5,), (-5,)}
    assert closure(g) == ({(1,), (-1,)}, 2)
    one = MatGroup(1, [IntMatrix.identity(1), NEG])
    assert one.images((3,)) == ((3,), (-3,))
    assert closure(one)[1] == 2


def test_each_kernel_has_its_own_file_name():
    """Profiles key on file names, so two kernels must not share one; a traceback names matgroup."""
    a, b = MatGroup(1, [NEG]), MatGroup(1, [NEG])
    names = {a.images.__code__.co_filename, b.images.__code__.co_filename}
    assert len(names) == 2
    assert all(re.fullmatch(r"<matgroup images #\d+>", name) for name in names)
    with pytest.raises(TypeError) as info:
        a.images((None,))
    assert info.traceback[-1].path in names


def test_matgroup_is_an_immutable_value():
    g = wgroup("A", 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.images = None
    same = MatGroup(2, list(g.generators))
    assert same == g and hash(same) == hash(g)
