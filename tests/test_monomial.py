"""Monomial groups: structural action, projections, support reduction."""
import random

import pytest
from conftest import apply, closure_elements, compose, inverse

from glattice.errors import CapExceeded, HypothesisNotMet
from glattice.gf2cyclo import _rref_masks, binary_sublattice, binary_sublattices, cp_stable_subspaces, diag_generators
from glattice.intmat import full_lattice, member
from glattice.monomial import (
    MonomialElement,
    MonomialGroup,
    cycle_element,
    diagonal_element,
    full_monomial_group,
    full_monomial_orbit_size_binary,
    o2_diagonal_part,
    project_pi,
    three_sublattice_report,
    sign_flip_element,
    support_reduce,
    vector_orbit,
)


def random_element(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return MonomialElement(tuple(rng.choice((1, -1)) for _ in range(n)), tuple(perm))


def test_composition_matches_matrix_product():
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(1, 9)
        a, b = random_element(rng, n), random_element(rng, n)
        assert compose(a, b).matrix() == a.matrix().mul(b.matrix())


def test_inverse_and_apply():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = random_element(rng, n)
        assert compose(a, inverse(a)) == MonomialElement.identity(n)
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        assert a.apply(v) == apply(a.matrix(), v)


def test_project_pi_full_monomial():
    pi = project_pi(full_monomial_group(3))
    assert pi.order == 6 and pi.has_n_cycle


def test_project_pi_signs_only():
    g = MonomialGroup(3, (sign_flip_element(3, 0), sign_flip_element(3, 2)))
    assert project_pi(g).order == 1


def test_project_pi_cyclic():
    g = MonomialGroup(5, (cycle_element(5), MonomialElement((-1,) * 5, tuple(range(5)))))
    pi = project_pi(g)
    assert pi.order == 5 and pi.has_n_cycle


def _permutation_closure(perms, n):
    """Oracle for project_pi: products of generator permutations to a fixpoint."""
    group = {tuple(range(n))}
    while True:
        bigger = group | {tuple(a[b[i]] for i in range(n)) for a in group for b in perms}
        if bigger == group:
            return group
        group = bigger


def _moves_0_through_all(p):
    """Whether the cycle of p through 0 has length n (p is an n-cycle)."""
    cycle, i = {0}, p[0]
    while i not in cycle:
        cycle.add(i)
        i = p[i]
    return len(cycle) == len(p)


def test_project_pi_equals_permutation_closure_oracle():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = MonomialGroup(n, tuple(random_element(rng, n) for _ in range(rng.randint(0, 3))))
        group = _permutation_closure([e.perm for e in g.generators], n)
        order = len(group)
        pi = project_pi(g, cap=order)
        assert (pi.order, pi.has_n_cycle) == (order, any(_moves_0_through_all(p) for p in group))
        if order > 1:  # the trivial group meets no new element, so no cap is hit
            with pytest.raises(CapExceeded) as err:
                project_pi(g, cap=order - 1)
            assert (err.value.what, err.value.cap) == ("permutation closure", order - 1)


def test_o2_diagonal_part_equals_closure_oracle():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.choice((3, 5, 7))
        shift = MonomialElement(tuple(rng.choice((1, -1)) for _ in range(n)), cycle_element(n).perm)
        extra = []
        for _ in range(rng.randint(0, 2)):
            e = random_element(rng, n)
            if n == 7:  # keep the group small: permutation part a power of the cycle
                k = rng.randrange(n)
                e = MonomialElement(e.signs, tuple((i + k) % n for i in range(n)))
            extra.append(e)
        g = MonomialGroup(n, (shift, *extra))
        diagonal = [e.signs for e in closure_elements(g) if e.perm == tuple(range(n))]
        masks = [sum(1 << i for i, s in enumerate(signs) if s == -1) for signs in diagonal]
        assert o2_diagonal_part(g) == tuple(_rref_masks(masks))


def test_o2_full_diagonal():
    g = MonomialGroup(7, (cycle_element(7),) + tuple(sign_flip_element(7, i) for i in range(7)))
    assert len(o2_diagonal_part(g)) == 7


def test_o2_minus_identity_only():
    g = MonomialGroup(7, (cycle_element(7), MonomialElement((-1,) * 7, tuple(range(7)))))
    basis = o2_diagonal_part(g)
    assert len(basis) == 1 and basis[0] == (1 << 7) - 1


def test_o2_matches_component_subspace():
    d1 = diagonal_element(diag_generators(7)[1])
    g = MonomialGroup(7, (cycle_element(7), d1))
    assert o2_diagonal_part(g) == cp_stable_subspaces(7).subspace({1})


def test_o2_hypothesis_violations():
    with pytest.raises(HypothesisNotMet):
        o2_diagonal_part(MonomialGroup(4, (cycle_element(4),)))  # even n
    with pytest.raises(HypothesisNotMet):
        o2_diagonal_part(MonomialGroup(5, (sign_flip_element(5, 0),)))  # no 5-cycle


def test_support_reduce_examples():
    le7 = binary_sublattice(7, {1, 2})
    v = support_reduce(le7, 7)
    assert v.is_binary() and len(v.support()) <= 4
    assert member(v, le7)
    vz = support_reduce(full_lattice(7), 7)
    assert len(vz.support()) <= 4
    v1 = support_reduce(binary_sublattice(7, {1}), 7)
    assert v1.is_binary() and len(v1.support()) <= 4
    assert member(v1, binary_sublattice(7, {1}))


def test_support_reduce_rejects_l1_and_zero():
    with pytest.raises(HypothesisNotMet):
        support_reduce(binary_sublattice(7, {0}), 7)
    with pytest.raises(HypothesisNotMet):
        support_reduce(binary_sublattice(7, ()), 7)


def test_support_reduce_all_sublattices_p_le_13():
    for p in (3, 5, 7, 11, 13):
        for subset, lat in binary_sublattices(p).items():
            if not subset or lat.rank == 0:
                continue
            if subset == frozenset({0}):
                continue  # the all-ones lattice is excluded by hypothesis
            v = support_reduce(lat, p)
            assert v.is_binary()
            assert len(v.support()) <= (2 * p) // 3
            assert member(v, lat)


def test_orbit_bound_vs_exact():
    # the closed-form full-monomial orbit size equals the BFS orbit
    for p in (3, 5, 7):
        mon = full_monomial_group(p)
        for support in range(1, p + 1):
            v = tuple(1 if i < support else 0 for i in range(p))
            exact = len(vector_orbit(mon, v))
            assert exact == full_monomial_orbit_size_binary(p, support)


def test_three_sublattice_exact_values():
    rep = three_sublattice_report(7)
    assert [r.orbit_size for r in rep.rows] == [14, 84, 128]
    assert all(r.spans for r in rep.rows)
    assert rep.inequality_holds
    rep11 = three_sublattice_report(11)
    assert [r.orbit_size for r in rep11.rows] == [22, 220, 2048]
    assert three_sublattice_report(13).rows[2].orbit_size == 2**13


def test_three_sublattice_flags_small_prime():
    rep = three_sublattice_report(5)
    assert rep.middle_orbit == 40 and rep.two_to_p == 32
    assert not rep.inequality_holds


def test_three_sublattice_spans_verified_by_bfs_p7():
    from glattice.intmat import hnf_from_rows

    mon = full_monomial_group(7)
    rep = three_sublattice_report(7)
    for row in rep.rows:
        orb = vector_orbit(mon, row.witness)
        assert len(orb) == row.orbit_size
        span = hnf_from_rows(sorted(orb), 7)
        ref = {
            "Z^p": full_lattice(7),
            "L_E": binary_sublattice(7, {1, 2}),
            "L_1": binary_sublattice(7, {0}),
        }[row.lattice_label]
        assert span == ref


def test_vector_orbit_is_the_image_under_every_element():
    rng = random.Random(29)
    for n in (3, 4, 5):
        for _ in range(6):
            g = MonomialGroup(n, tuple(random_element(rng, n) for _ in range(rng.randint(1, 2))))
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            assert vector_orbit(g, v) == {e.apply(v).entries for e in closure_elements(g)}


def test_vector_orbit_cap():
    mon = full_monomial_group(5)
    assert len(vector_orbit(mon, (1,) * 5, cap=32)) == 32
    with pytest.raises(CapExceeded) as exc:
        vector_orbit(mon, (1,) * 5, cap=31)
    assert (exc.value.what, exc.value.cap) == ("monomial orbit", 31)
