"""Symmetric-rank search: exactness within the box, witnesses, monotonicity."""
import itertools

import pytest
from conftest import apply, bfs_orbit, orbit_records_oracle, unimodular_matrices
from hypothesis import given, settings
from hypothesis import strategies as st

from glattice.errors import CapExceeded, NotGStable, NotInLattice
from glattice.intmat import IntMatrix, full_lattice, hnf_from_rows, unit_vector
from glattice.matgroup import DEFAULT_CAP, MatGroup, conjugate, in_lattice_coordinates, orbit
from glattice.rootsys import RootSystemSpec, build, expected_symrank, lattice, weyl_symrank_table
from glattice.search import (
    RESIDUE_MODULUS,
    _box,
    _orbit_records,
    _rep_key,
    _residue_orbit_sizes,
    symrank_search,
    table_dimension_maximum,
    verify_orbit_generates,
)


def test_a1_root_lattice():
    a1 = build(RootSystemSpec("A", 1))
    res = symrank_search(a1.matgroup(), lattice(a1, "root").basis, radius=3)
    assert res.upper_bound == 2
    assert res.exactness == "exact_within_bound"


def test_g2_root_lattice():
    g2 = build(RootSystemSpec("G", 2))
    res = symrank_search(g2.matgroup(), lattice(g2, "root").basis, radius=3)
    assert res.upper_bound == 6
    assert len(res.witness) == 1


def test_trivial_group_standard_basis():
    res = symrank_search(MatGroup.trivial(3), full_lattice(3), radius=3)
    assert res.upper_bound == 3
    assert sorted(w.entries for w in res.witness) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert res.unconditional  # upper bound meets the rank lower bound


def test_not_g_stable():
    shear_fixed = MatGroup(2, [IntMatrix.from_rows([(1, 2), (0, 1)])])
    line = hnf_from_rows([(1, 0)], 2)
    sub = hnf_from_rows([(0, 1)], 2)
    with pytest.raises(NotGStable):
        symrank_search(shear_fixed, sub, radius=1)


def test_witness_union_is_g_stable_and_spans():
    a3 = build(RootSystemSpec("A", 3))
    g = a3.matgroup()
    target = lattice(a3, "intermediate", 2).basis
    res = symrank_search(g, target, radius=2)
    assert res.upper_bound == 6
    from glattice.intmat import hnf_from_rows as make

    union = []
    for w in res.witness:
        union.extend(sorted(orbit(g, w).elements))
    assert make(union, 3) == target
    # G-stability: applying any generator permutes the union
    union_set = set(union)
    for h in g.generators:
        assert {apply(h, v).entries for v in union_set} == union_set


def test_radius_monotonicity():
    a2 = build(RootSystemSpec("A", 2))
    values = [
        symrank_search(a2.matgroup(), lattice(a2, "root").basis, radius=b).upper_bound
        for b in (1, 2, 3)
    ]
    assert values[0] >= values[1] >= values[2]


def test_subgroup_monotonicity():
    a2 = build(RootSystemSpec("A", 2))
    g = a2.matgroup()
    k = MatGroup(2, g.generators[:1])
    for target in (full_lattice(2), lattice(a2, "root").basis):
        rk = symrank_search(k, target, radius=2).upper_bound
        rg = symrank_search(g, target, radius=2).upper_bound
        assert rk <= rg


@pytest.mark.parametrize(
    "row",
    [r for r in weyl_symrank_table(3)],
    ids=lambda r: f"{r.family}{r.rank}-{r.lattice_label}",
)
def test_bounded_exhaustive_matches_table_rank_le_3(row):
    model = build(RootSystemSpec(row.family, row.rank))
    res = symrank_search(model.matgroup(), row.target.basis, radius=3)
    assert res.upper_bound == expected_symrank(row)


def test_verify_orbit_generates():
    b3 = build(RootSystemSpec("B", 3))
    ok, size = verify_orbit_generates(b3.matgroup(), lattice(b3, "weight").basis, unit_vector(3, 2))
    assert ok and size == 8
    a2 = build(RootSystemSpec("A", 2))
    ok, size = verify_orbit_generates(a2.matgroup(), full_lattice(2), unit_vector(2, 0))
    assert ok and size == 3


def test_verify_orbit_rejects_vector_outside_lattice():
    a2 = build(RootSystemSpec("A", 2))
    with pytest.raises(NotInLattice):
        verify_orbit_generates(a2.matgroup(), lattice(a2, "root").basis, unit_vector(2, 0))


def test_table_dimension_maximum_n1():
    rep = table_dimension_maximum(1, [("pm1", MatGroup(1, [IntMatrix.from_rows([(-1,)])]), full_lattice(1))])
    assert rep.maximum == 2
    assert rep.tag.startswith("conditional")


def test_table_dimension_maximum_n2():
    candidates = []
    for fam in ("A", "B", "G"):
        model = build(RootSystemSpec(fam, 2))
        g = model.matgroup()
        for kind in ("weight", "root"):
            lat = lattice(model, kind)
            candidates.append((f"W({fam}2) {kind}", g, lat.basis))
    rep = table_dimension_maximum(2, candidates, radius=3)
    assert rep.maximum == 6


def test_table_dimension_maximum_n6_e6_root():
    model = build(RootSystemSpec("E", 6))
    rep = table_dimension_maximum(
        6, [("W(E6) root", model.matgroup(), lattice(model, "root").basis)], radius=1
    )
    assert rep.maximum == 72


def _brute_force_symrank(gens, n, radius):
    """Smallest total size of box orbits whose union spans Z^n (oracle).

    Tries every subset of orbits, in increasing total size; sizes below n
    are skipped, since fewer than n vectors span a lattice of rank < n.
    """
    box = [c for c in itertools.product(range(-radius, radius + 1), repeat=n) if any(c)]
    orbits = sorted({bfs_orbit(gens, c) for c in box}, key=lambda o: (len(o), sorted(o)))
    target = full_lattice(n)

    def subsets(i, budget, chosen):
        if budget == 0:
            yield chosen
            return
        for j in range(i, len(orbits)):
            if len(orbits[j]) > budget:
                break
            yield from subsets(j + 1, budget - len(orbits[j]), chosen + [orbits[j]])

    for total in range(n, sum(map(len, orbits)) + 1):
        for chosen in subsets(0, total, []):
            if hnf_from_rows(sorted(v for o in chosen for v in o), n) == target:
                return total
    raise AssertionError("box orbits do not span")


@st.composite
def _signed_permutation_groups(draw):
    n = draw(st.integers(1, 3))

    def signed_permutation():
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        return IntMatrix.from_rows(
            [tuple(signs[i] * int(j == perm[i]) for j in range(n)) for i in range(n)]
        )

    gens = draw(st.lists(st.builds(signed_permutation), max_size=2))
    return n, gens


@settings(max_examples=40, deadline=None)
@given(_signed_permutation_groups(), st.integers(1, 2))
def test_search_equals_brute_force_minimum_over_orbit_subsets(group, radius):
    n, gens = group
    res = symrank_search(MatGroup(n, gens), full_lattice(n), radius=radius)
    assert res.upper_bound == _brute_force_symrank(gens, n, radius)
    assert sum(len(bfs_orbit(gens, w.entries)) for w in res.witness) == res.upper_bound


# (upper bound, witness, orbits materialized) at radius 2, pinned exactly:
# pruning and orbit bookkeeping may make the search faster, never change
# which minimum it returns.
RANK5_RADIUS2 = {
    ("A", 5, "intermediate", 2): (15, [(0, 0, 0, 1, 0)], 9),
    ("A", 5, "root", None): (30, [(0, 0, 0, 1, 4)], 29),
    ("B", 5, "weight", None): (32, [(0, 0, 0, 0, 1)], 7),
    ("B", 5, "root", None): (10, [(0, 0, 0, 1, -2)], 2),
    ("C", 5, "root", None): (40, [(0, 0, 1, 0, -1)], 6),
    ("D", 5, "intermediate_D", 1): (10, [(0, 0, 0, 1, -1)], 2),
}


@pytest.mark.parametrize("row", sorted(RANK5_RADIUS2, key=str), ids=str)
def test_rank5_radius2_witnesses_are_pinned(row):
    family, rank, kind, d = row
    model = build(RootSystemSpec(family, rank))
    res = symrank_search(model.matgroup(), lattice(model, kind, d).basis, radius=2)
    assert (res.upper_bound, [w.entries for w in res.witness], res.orbit_count) == RANK5_RADIUS2[row]


# The other eight weyl-search rows of the benchmark, rank 5 and 6 at radius
# 2, pinned the same way; with RANK5_RADIUS2 they are all fourteen.
WEYL_SEARCH_RADIUS2 = {
    ("A", 5, "weight", None): (6, [(0, 0, 0, 0, 1)], 4),
    ("A", 5, "intermediate", 3): (20, [(0, 0, 1, 0, 0)], 8),
    ("C", 5, "weight", None): (10, [(0, 0, 0, 1, -1)], 2),
    ("D", 5, "weight", None): (16, [(0, 0, 0, 0, 1)], 8),
    ("D", 5, "root", None): (40, [(0, 0, 1, 0, -2)], 8),
    ("A", 6, "weight", None): (7, [(0, 0, 0, 0, 0, 1)], 4),
    ("D", 6, "intermediate_D", 1): (12, [(0, 0, 0, 0, 1, -1)], 2),
    ("E", 6, "weight", None): (27, [(0, 0, 0, 0, 0, 1)], 4),
}


@pytest.mark.parametrize("row", sorted(WEYL_SEARCH_RADIUS2, key=str), ids=str)
def test_weyl_search_rows_are_pinned(row):
    family, rank, kind, d = row
    model = build(RootSystemSpec(family, rank))
    res = symrank_search(model.matgroup(), lattice(model, kind, d).basis, radius=2)
    assert (res.upper_bound, [w.entries for w in res.witness], res.orbit_count) == WEYL_SEARCH_RADIUS2[row]


# {+-I}: every orbit has size 2 and rank 1, so the size-per-rank prune cuts
# the whole tree at its root once the first witness is found.
@pytest.mark.parametrize(
    "n, radius, expected",
    [
        (3, 3, (6, [(0, 0, 1), (0, 1, 0), (1, 0, 0)], 171)),
        (4, 1, (8, [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)], 40)),
    ],
)
def test_minus_identity_searches_are_pinned(n, radius, expected):
    res = symrank_search(MatGroup(n, [IntMatrix.diagonal([-1] * n)]), full_lattice(n), radius=radius)
    assert (res.upper_bound, [w.entries for w in res.witness], res.orbit_count) == expected


@pytest.mark.parametrize("r, radius", [(r, radius) for r in range(1, 5) for radius in range(1, 4)])
def test_box_is_generated_in_rep_key_order(r, radius):
    box = [c for c in itertools.product(range(-radius, radius + 1), repeat=r) if any(c)]
    assert list(_box(r, radius)) == sorted(box, key=_rep_key)


# (upper bound, orbits materialized) at radius 2 for weight lattices that
# no single orbit spans: the first incumbent is the total size of the
# basis vectors' orbits, and without it every box orbit is built.
@pytest.mark.parametrize("rank, expected", [(4, (16, 32)), (6, (44, 52))])
def test_basis_union_incumbent_caps_the_box_orbits(rank, expected):
    model = build(RootSystemSpec("D", rank))
    res = symrank_search(model.matgroup(), lattice(model, "weight").basis, radius=2)
    assert (res.upper_bound, res.orbit_count) == expected


def test_orbit_matches_plain_bfs_and_raises_at_the_cap():
    b3 = build(RootSystemSpec("B", 3))
    a2 = build(RootSystemSpec("A", 2))
    swap = IntMatrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    cases = [
        (b3.matgroup(), (1, 0, 0)),
        (b3.matgroup(), (1, 2, -1)),
        (a2.matgroup(), (2, -1)),
        (MatGroup(3, [swap, IntMatrix.identity(3)]), (1, 2, 3)),
        (MatGroup.trivial(3), (0, 5, 0)),
    ]
    for g, v in cases:
        want = bfs_orbit(g.generators, v)
        orb = orbit(g, v, cap=len(want))
        assert orb.elements == want and orb.size == len(want)
        if len(want) > 1:
            with pytest.raises(CapExceeded) as exc:
                orbit(g, v, cap=len(want) - 1)
            assert exc.value.cap == len(want) - 1


def _records(gl, radius):
    return [(rec.size, rec.rep, rec.span_rows) for rec in _orbit_records(gl, radius, DEFAULT_CAP)]


# Groups without -I (A2, A3, A4), where -O and O are distinct orbits, and
# with -I (B3, G2 and the rank-4 B, C, D, F4), where every orbit is its own
# negation.  At rank 4 the residue bound lists 28 to 324 of the 624 box
# vectors, except for D4 weight, where no class is over the cap.
ORACLE_LATTICES = [
    ("A", 2, "weight", None), ("A", 2, "root", None),
    ("A", 3, "weight", None), ("A", 3, "intermediate", 2), ("A", 3, "root", None),
    ("B", 3, "weight", None), ("B", 3, "root", None),
    ("G", 2, "root", None),
    ("A", 4, "weight", None), ("A", 4, "root", None),
    ("B", 4, "weight", None), ("B", 4, "root", None),
    ("C", 4, "weight", None), ("C", 4, "root", None),
    ("D", 4, "weight", None), ("D", 4, "intermediate_D", 1), ("D", 4, "root", None),
    ("F", 4, "root", None),
]


@pytest.mark.parametrize("row", ORACLE_LATTICES, ids=lambda r: f"{r[0]}{r[1]} {r[2]}{r[3] or ''}")
def test_orbit_records_equal_the_full_bfs_oracle_on_weyl_lattices(row):
    """Marking negations and skipping classes mod 3 drop exactly the orbits the cap drops."""
    family, rank, kind, d = row
    model = build(RootSystemSpec(family, rank))
    gl = in_lattice_coordinates(model.matgroup(), lattice(model, kind, d).basis)
    assert _records(gl, 2) == orbit_records_oracle(gl, 2)


def _perm(n, *images):
    """Permutation matrix with row i equal to e_{images[i]}, identity past the given images."""
    p = (*images, *range(len(images), n))
    return IntMatrix.from_rows([[int(j == p[i]) for j in range(n)] for i in range(n)])


SMALL_GROUPS = {
    "trivial": lambda n: [],
    "-I": lambda n: [IntMatrix.diagonal([-1] * n)],
    "swap": lambda n: [_perm(n, 1, 0)],
    "n-cycle": lambda n: [_perm(n, *range(1, n), 0)],
    "S3": lambda n: [_perm(n, 1, 0), _perm(n, 1, 2, 0)],
    "swap and -I": lambda n: [_perm(n, 1, 0), IntMatrix.diagonal([-1] * n)],
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(SMALL_GROUPS)),
    st.integers(3, 4).flatmap(lambda n: st.tuples(st.just(n), unimodular_matrices(n))),
    st.integers(1, 2),
)
def test_orbit_records_equal_the_full_bfs_oracle_on_conjugated_small_groups(name, conj, radius):
    n, u = conj
    g = conjugate(MatGroup(n, SMALL_GROUPS[name](n)), u)
    assert _records(g, radius) == orbit_records_oracle(g, radius)


WEYL_RANK_LE_4 = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                  ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]


# W(C3) conjugated by a unimodular matrix, where the incumbent falls inside
# the box: an orbit kept before that is over the final incumbent, and so is
# its class mod 3, so listing the box against the final incumbent instead of
# the running cap would drop it.
C3_CONJUGATED = MatGroup(3, [
    IntMatrix.from_rows([(-1, 0, 0), (-1, 1, 0), (-6, 0, 1)]),
    IntMatrix.from_rows([(0, 1, 0), (1, 0, 0), (-5, 5, 1)]),
    IntMatrix.from_rows([(1, 0, 0), (8, -3, -2), (-8, 4, 3)]),
])


def test_orbit_records_equal_the_full_bfs_oracle_when_the_incumbent_falls_in_the_box():
    assert _records(C3_CONJUGATED, 2) == orbit_records_oracle(C3_CONJUGATED, 2)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([s for s in WEYL_RANK_LE_4 if s[1] <= 3]).flatmap(lambda s: st.tuples(st.just(s), unimodular_matrices(s[1]))),
    st.integers(1, 2),
)
def test_orbit_records_equal_the_full_bfs_oracle_on_conjugated_weyl_groups(conj, radius):
    spec, u = conj
    g = conjugate(build(RootSystemSpec(*spec)).matgroup(), u)
    assert _records(g, radius) == orbit_records_oracle(g, radius)


def _residue_bfs(gens, c, m):
    """Orbit of the class c in (Z/m)^r by plain BFS with matrix-vector products (oracle)."""
    seen = {c}
    queue = [c]
    for cur in queue:
        for h in gens:
            nxt = tuple(x % m for x in apply(h, cur).entries)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@st.composite
def _conjugated_groups(draw):
    """A small group over Z^3 or Z^4, or a Weyl group of rank <= 4, conjugated by a unimodular matrix."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 4))
        g = MatGroup(n, SMALL_GROUPS[draw(st.sampled_from(sorted(SMALL_GROUPS)))](n))
    else:
        g = build(RootSystemSpec(*draw(st.sampled_from(WEYL_RANK_LE_4)))).matgroup()
    return conjugate(g, draw(unimodular_matrices(g.dim)))


@settings(max_examples=60, deadline=None)
@given(_conjugated_groups(), st.data())
def test_residue_orbit_sizes_equal_a_plain_bfs_mod_3_and_bound_the_orbit(g, data):
    m = RESIDUE_MODULUS
    sizes = _residue_orbit_sizes(g)
    assert sizes.keys() == set(itertools.product(range(m), repeat=g.dim))
    for c, size in sizes.items():
        assert size == len(_residue_bfs(g.generators, c, m))
    vectors = st.tuples(*[st.integers(-4, 4)] * g.dim)
    for v in data.draw(st.lists(vectors, min_size=1, max_size=4)):
        assert sizes[tuple(x % m for x in v)] <= len(bfs_orbit(g.generators, v))
