"""Symmetric-rank search: exactness within the box, witnesses, monotonicity."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glattice.errors import CapExceeded, NotGStable, NotInLattice
from glattice.intmat import IntMatrix, full_lattice, hnf_from_rows, unit_vector
from glattice.matgroup import MatGroup, orbit
from glattice.rootsys import RootSystemSpec, build, expected_symrank, lattice, weyl_symrank_table
from glattice.search import symrank_search, table_dimension_maximum, verify_orbit_generates


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
        assert {h.apply(v).entries for v in union_set} == union_set


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


def _bfs_orbit(gens, v):
    """Orbit of v by plain BFS with full matrix-vector products (oracle)."""
    seen = {v}
    queue = [v]
    for cur in queue:
        for h in gens:
            nxt = h.apply(cur).entries
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def _brute_force_symrank(gens, n, radius):
    """Smallest total size of box orbits whose union spans Z^n (oracle).

    Tries every subset of orbits, in increasing total size; sizes below n
    are skipped, since fewer than n vectors span a lattice of rank < n.
    """
    box = [c for c in itertools.product(range(-radius, radius + 1), repeat=n) if any(c)]
    orbits = sorted({_bfs_orbit(gens, c) for c in box}, key=lambda o: (len(o), sorted(o)))
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
    assert sum(len(_bfs_orbit(gens, w.entries)) for w in res.witness) == res.upper_bound


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
    res = symrank_search(MatGroup(n, [IntMatrix.identity(n).neg()]), full_lattice(n), radius=radius)
    assert (res.upper_bound, [w.entries for w in res.witness], res.orbit_count) == expected


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
        want = _bfs_orbit(g.generators, v)
        orb = orbit(g, v, cap=len(want))
        assert orb.elements == want and orb.size == len(want)
        assert orb.representative.entries == min(want)
        if len(want) > 1:
            with pytest.raises(CapExceeded) as exc:
                orbit(g, v, cap=len(want) - 1)
            assert exc.value.cap == len(want) - 1
