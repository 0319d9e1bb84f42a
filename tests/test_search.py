"""Symmetric-rank search: exactness within the box, witnesses, monotonicity."""
import itertools
from dataclasses import replace

import pytest
from conftest import apply, bfs_orbit, conjugate, min_spanning_selection_oracle, orbit_records_oracle, unimodular_matrices
from hypothesis import given, settings
from hypothesis import strategies as st

from glattice.errors import CapExceeded, NotGStable, NotInLattice
from glattice.intmat import IntMatrix, full_lattice, hnf_from_rows, unit_vector
from glattice.matgroup import (
    DEFAULT_CAP,
    MatGroup,
    _compile_images,
    _orbit_bfs,
    _rows_terms,
    closure,
    in_lattice_coordinates,
    orbit,
)
from glattice import matgroup, search
from glattice.rootsys import RootSystemSpec, build, expected_symrank, lattice, weyl_symrank_table
from glattice.search import (
    RESIDUE_MODULUS,
    _box,
    _listed_box,
    _min_spanning_selection,
    _orbit_records,
    _rep_key,
    _residue_orbit_sizes,
    symrank_search,
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
    res = symrank_search(MatGroup(3, ()), full_lattice(3), radius=3)
    assert res.upper_bound == 3
    assert sorted(w.entries for w in res.witness) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert res.upper_bound == res.lower_bound  # upper bound meets the rank lower bound


def test_not_g_stable():
    shear_fixed = MatGroup(2, [IntMatrix.from_rows([(1, 2), (0, 1)])])
    line = hnf_from_rows([(1, 0)], 2)
    sub = hnf_from_rows([(0, 1)], 2)
    with pytest.raises(NotGStable):
        symrank_search(shear_fixed, sub, radius=1)


def test_rank_zero_lattice_is_checked_against_the_group():
    """The rank-0 shortcut comes after the lattice check, so a wrong ambient dimension still fails."""
    g = MatGroup(2, ())
    assert symrank_search(g, hnf_from_rows([], 2), radius=1).upper_bound == 0
    with pytest.raises(ValueError, match="dimension"):
        symrank_search(g, hnf_from_rows([], 3), radius=1)


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


@pytest.mark.parametrize("delta", [1, -1])
def test_a_wrong_witness_record_size_is_caught(monkeypatch, delta):
    """The bound is re-checked against the witness orbits in the group's own action."""
    b3 = build(RootSystemSpec("B", 3))

    def off_by_delta(gl, listing, orbit_cap):
        return [replace(rec, size=rec.size + delta) for rec in _orbit_records(gl, listing, orbit_cap)]

    monkeypatch.setattr(search, "_orbit_records", off_by_delta)
    with pytest.raises(AssertionError, match="witness orbits hold 8 vectors"):
        symrank_search(b3.matgroup(), full_lattice(3), radius=1)


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


def test_verify_orbit_rejects_a_lattice_the_group_does_not_keep():
    """diag(-1, 1) sends (1, 1) to (-1, 1), outside the line it spans; the orbit of (1, 1) used to be checked anyway."""
    g = MatGroup(2, [IntMatrix.diagonal([-1, 1])])
    with pytest.raises(NotGStable):
        verify_orbit_generates(g, hnf_from_rows([(1, 1)], 2), (1, 1))


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
def _signed_permutation_groups(draw, max_n=3):
    n = draw(st.integers(1, max_n))

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


def _box_listing(gl, radius):
    """The listing that ``symrank_search`` passes: the box, less the classes mod 3 over the cap."""
    return lambda cap: _listed_box(gl.dim, radius, _residue_orbit_sizes(gl), cap)


@st.composite
def _signed_permutation_records(draw):
    """(rank, orbit records) of a random signed-permutation group on Z^n: n <= 3 at radius <= 2, n = 4 at radius 1."""
    n, gens = draw(_signed_permutation_groups(max_n=4))
    radius = draw(st.integers(1, 1 if n == 4 else 2))
    gl = MatGroup(n, gens)
    return n, _orbit_records(gl, _box_listing(gl, radius), DEFAULT_CAP)


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


def test_weyl_search_rows_stay_within_their_bfs_and_span_insertion_counts(monkeypatch):
    """All fourteen rows: at most 1,163 orbit BFS runs, residue tables
    included, and 1,970 span-row insertions in ``matgroup``.

    Wall time on a small machine misses a regression in the box path by a
    few percent; these deterministic counts do not.
    """
    counts = {"bfs": 0, "insert": 0}
    bfs, insert = search._orbit_bfs, matgroup._hnf_insert

    def counted_bfs(*args):
        counts["bfs"] += 1
        return bfs(*args)

    def counted_insert(*args):
        counts["insert"] += 1
        return insert(*args)

    monkeypatch.setattr(search, "_orbit_bfs", counted_bfs)
    monkeypatch.setattr(matgroup, "_hnf_insert", counted_insert)
    for family, rank, kind, d in [*RANK5_RADIUS2, *WEYL_SEARCH_RADIUS2]:
        model = build(RootSystemSpec(family, rank))
        symrank_search(model.matgroup(), lattice(model, kind, d).basis, radius=2)
    assert counts["bfs"] <= 1_163 and counts["insert"] <= 1_970


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


# Inputs where some branches of the search hold orbits whose spans, with
# those of every later record, fall short of the lattice: the search walks
# such branches to their leaves and must still return these minima.
# Generators are rows acting on columns.
PARTIAL_SPAN_SEARCHES = {
    "Z2 sign": (2, 3, [[(1, 0), (0, 1)], [(1, 0), (0, -1)]], (3, [(0, 1), (1, 0)], 27)),
    "Z3 sign and swap": (
        3, 1, [[(-1, 0, 0), (0, -1, 0), (0, 0, 1)], [(0, 0, 1), (0, 1, 0), (1, 0, 0)]],
        (6, [(0, 0, 1), (0, 1, 0)], 5),
    ),
    "Z4 signed permutations": (
        4, 2,
        [
            [(1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 1, 0, 0)],
            [(1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)],
            [(1, 0, 0, 0), (0, 0, 0, -1), (0, -1, 0, 0), (0, 0, -1, 0)],
        ],
        (7, [(0, 0, 0, 1), (1, 0, 0, 0)], 14),
    ),
}


@pytest.mark.parametrize("name", sorted(PARTIAL_SPAN_SEARCHES))
def test_partial_span_searches_are_pinned(name):
    n, radius, gens, expected = PARTIAL_SPAN_SEARCHES[name]
    res = symrank_search(MatGroup(n, [IntMatrix.from_rows(h) for h in gens]), full_lattice(n), radius=radius)
    assert (res.upper_bound, [w.entries for w in res.witness], res.orbit_count) == expected


# Searches whose orbits have size 1 or 2, so the size-per-rank prune barely
# cuts and many records repeat the span of an earlier one, each with a
# ceiling on the search's HNF row insertions: searching each distinct span
# once takes 117,483 and 42,116, and searching every record 908,335 and
# 182,399.  (value, witness, orbits materialized) is pinned as above.
REPEATED_SPAN_SEARCHES = {
    "Z5 involution": (
        5, 1,
        [[(-1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, 0, 0, -1), (0, 0, 0, 1, 0), (0, 0, -1, 0, 0)]],
        (7, [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)], 125),
        150_000,
    ),
    "Z4 swap and signs": (
        4, 2,
        [[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)], [(-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]],
        (7, [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)], 194),
        60_000,
    ),
}


@pytest.mark.parametrize("name", sorted(REPEATED_SPAN_SEARCHES))
def test_repeated_span_searches_are_pinned_and_insert_each_span_once(name, monkeypatch):
    n, radius, gens, expected, ceiling = REPEATED_SPAN_SEARCHES[name]
    calls = 0
    insert = search._hnf_insert

    def counted(span, row):
        nonlocal calls
        calls += 1
        return insert(span, row)

    monkeypatch.setattr(search, "_hnf_insert", counted)
    res = symrank_search(MatGroup(n, [IntMatrix.from_rows(h) for h in gens]), full_lattice(n), radius=radius)
    assert (res.upper_bound, [w.entries for w in res.witness], res.orbit_count) == expected
    assert calls <= ceiling


def test_records_are_built_without_stable_span(monkeypatch):
    """Record spans come from the span worklist on raw tuples: ``stable_span`` only re-verifies the witness.

    The trivial group on Z^3 at radius 3 has 342 records, one per box
    vector, each of rank bound 1, so none is read to test the incumbent.
    The 12 span-row insertions in ``matgroup`` are the spans the search
    reads and the 3 of the witness re-verification; reading every
    record's span takes 345.
    """
    calls = {"stable_span": 0, "insert": 0}
    span, insert = search.stable_span, matgroup._hnf_insert

    def counted_span(*args):
        calls["stable_span"] += 1
        return span(*args)

    def counted_insert(*args):
        calls["insert"] += 1
        return insert(*args)

    monkeypatch.setattr(search, "stable_span", counted_span)
    monkeypatch.setattr(matgroup, "_hnf_insert", counted_insert)
    res = symrank_search(MatGroup(3, ()), full_lattice(3), radius=3)
    assert (res.upper_bound, res.orbit_count, calls["stable_span"], calls["insert"]) == (3, 342, 1, 12)


def test_a_box_over_the_cap_raises_before_any_orbit_is_built():
    """The trivial group on Z^3 at radius 3 has 7^3 - 1 = 342 box vectors, each its own orbit."""
    with pytest.raises(CapExceeded) as exc:
        symrank_search(MatGroup(3, ()), full_lattice(3), radius=3, orbit_cap=341)
    assert (exc.value.what, exc.value.cap) == ("box", 341)
    assert symrank_search(MatGroup(3, ()), full_lattice(3), radius=3, orbit_cap=342).upper_bound == 3


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
        (MatGroup(3, ()), (0, 5, 0)),
    ]
    for g, v in cases:
        want = bfs_orbit(g.generators, v)
        orb = orbit(g, v, cap=len(want))
        assert orb.elements == want and orb.size == len(want)
        if len(want) > 1:
            with pytest.raises(CapExceeded) as exc:
                orbit(g, v, cap=len(want) - 1)
            assert exc.value.cap == len(want) - 1


def _records(gl, listing):
    return [(rec.size, rec.rep, rec.span_rows) for rec in _orbit_records(gl, listing, DEFAULT_CAP)]


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
    assert _records(gl, _box_listing(gl, 2)) == orbit_records_oracle(gl, _box(gl.dim, 2))


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
    assert _records(g, _box_listing(g, radius)) == orbit_records_oracle(g, _box(g.dim, radius))


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
    assert _records(C3_CONJUGATED, _box_listing(C3_CONJUGATED, 2)) == orbit_records_oracle(C3_CONJUGATED, _box(3, 2))


def _invariant_norm_order(g, radius):
    """The box sorted by (v^T X v, ``_rep_key``), where X = sum over h in G of h^T h.

    (h v)^T X (h v) = v^T X v for h in G, so the norm is the same on an
    orbit, and an orbit's least vector in ``_rep_key`` order is in the box
    when any member is and comes before the orbit's other box vectors: a
    second listing that meets the conditions of ``_orbit_records``.
    """
    n = g.dim
    x = [[0] * n for _ in range(n)]
    for h in closure(g)[0]:
        for k in range(n):
            row = h[k * n : (k + 1) * n]
            for i in range(n):
                for j in range(n):
                    x[i][j] += row[i] * row[j]

    def norm(v):
        return sum(v[i] * x[i][j] * v[j] for i in range(n) for j in range(n))

    return sorted(_box(n, radius), key=lambda v: (norm(v), _rep_key(v)))


def test_orbit_records_equal_the_full_bfs_oracle_over_invariant_norm_order():
    """In norm order the incumbent falls before the size-24 orbit of (0, 1, 1) is reached, so that box record is abandoned."""
    order = _invariant_norm_order(C3_CONJUGATED, 2)
    records = _records(C3_CONJUGATED, lambda cap: order)
    assert records == orbit_records_oracle(C3_CONJUGATED, order)
    assert records != _records(C3_CONJUGATED, _box_listing(C3_CONJUGATED, 2))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([s for s in WEYL_RANK_LE_4 if s[1] <= 3]).flatmap(lambda s: st.tuples(st.just(s), unimodular_matrices(s[1]))),
    st.integers(1, 2),
)
def test_orbit_records_equal_the_full_bfs_oracle_on_conjugated_weyl_groups(conj, radius):
    """Over the box listing, and over the box in invariant-norm order."""
    spec, u = conj
    g = conjugate(build(RootSystemSpec(*spec)).matgroup(), u)
    assert _records(g, _box_listing(g, radius)) == orbit_records_oracle(g, _box(g.dim, radius))
    order = _invariant_norm_order(g, radius)
    assert _records(g, lambda cap: order) == orbit_records_oracle(g, order)


@st.composite
def _conjugated_small_group_records(draw):
    """(rank, orbit records) of a group of ``SMALL_GROUPS`` on Z^3 or Z^4, conjugated, at radius <= 2."""
    n = draw(st.integers(3, 4))
    g = conjugate(MatGroup(n, SMALL_GROUPS[draw(st.sampled_from(sorted(SMALL_GROUPS)))](n)), draw(unimodular_matrices(n)))
    return n, _orbit_records(g, _box_listing(g, draw(st.integers(1, 2))), DEFAULT_CAP)


@st.composite
def _conjugated_weyl_records(draw):
    """(rank, orbit records) of a Weyl group of rank <= 3, conjugated, at radius <= 2."""
    spec = draw(st.sampled_from([s for s in WEYL_RANK_LE_4 if s[1] <= 3]))
    g = conjugate(build(RootSystemSpec(*spec)).matgroup(), draw(unimodular_matrices(spec[1])))
    return g.dim, _orbit_records(g, _box_listing(g, draw(st.integers(1, 2))), DEFAULT_CAP)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_signed_permutation_records(), _conjugated_small_group_records()))
def test_selection_equals_the_unfiltered_search_over_every_record(case):
    """Searching only the first record of each span, read when the search reaches it, returns the
    size and reps of the search over every record with every span read and every exact rank."""
    n, records = case
    assert _min_spanning_selection(records, n) == min_spanning_selection_oracle(records, n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_signed_permutation_records(), _conjugated_weyl_records()))
def test_rank_bound_is_at_least_the_rank_of_the_span(case):
    """The swap orbit of (1, 2, 0) has size 2 and rank 2: halving the size is sound only when -v is in the orbit."""
    n, records = case
    for rec in records:
        assert len(rec.span_rows) <= rec.rank_bound <= n


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


@settings(max_examples=80, deadline=None)
@given(_conjugated_groups(), st.data())
def test_orbit_bfs_stops_at_the_cap_or_the_stop_set(g, data):
    """The orbit is complete exactly when it fits the cap and meets the stop set at most in its start."""
    v = data.draw(st.tuples(*[st.integers(-2, 2)] * g.dim))
    want = bfs_orbit(g.generators, v)
    cap = data.draw(st.integers(1, len(want) + 1))
    members = sorted(want)
    stop = set(data.draw(st.lists(st.sampled_from(members), max_size=2)))
    stop |= set(data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * g.dim), max_size=2)))
    seen, complete = _orbit_bfs(g.images, v, cap, frozenset(stop))
    assert complete == (len(want) <= cap and stop & want <= {v})
    if complete:
        assert seen == want
    else:
        assert seen < want and len(seen) <= cap
        if not stop:
            assert len(seen) == cap


def _assert_mod_kernel_reduces(g, m, vectors):
    """The mod-m kernel of g equals its integer kernel reduced mod m, and holds no unreduced coefficient."""
    kernel = _compile_images(g.dim, tuple(map(_rows_terms, g.generators)), m)
    # literals: reduced coefficients 2 .. m - 1, the modulus, 0 for a vanishing entry
    assert {k for k in kernel.__code__.co_consts if type(k) is int} <= {0, *range(2, m + 1)}
    for v in vectors:
        assert kernel(v) == tuple(tuple(x % m for x in w) for w in g.images(v))


@settings(max_examples=60, deadline=None)
@given(_conjugated_groups(), st.sampled_from([2, 3, 5]), st.data())
def test_mod_m_kernel_equals_the_integer_kernel_reduced_mod_m(g, m, data):
    vectors = st.tuples(*[st.integers(-(2**70), 2**70)] * g.dim)
    _assert_mod_kernel_reduces(g, m, data.draw(st.lists(vectors, min_size=1, max_size=4)))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_mod_m_kernel_without_generators_and_in_dimension_one(m):
    neg = IntMatrix.from_rows([(-1,)])
    for g in (MatGroup(3, ()), MatGroup(1, ()), MatGroup(1, [neg]), MatGroup(1, [IntMatrix.identity(1), neg])):
        _assert_mod_kernel_reduces(g, m, [(x,) * g.dim for x in (-7, -1, 0, 1, 4, 2**70)])
    # every coefficient vanishes mod m: the entry is the literal 0
    assert _compile_images(2, ((((0, m), (1, -2 * m)), ((1, 1),)),), m)((5, 7)) == ((0, 7 % m),)
