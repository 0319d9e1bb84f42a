"""Monomial groups: signed-permutation matrices, projections, support reduction."""
import random

import pytest
from conftest import apply, binary_sublattice, closure_oracle

from glattice.errors import CapExceeded, HypothesisNotMet
from glattice.gf2cyclo import _rref_masks, binary_sublattices, cp_stable_subspaces, diag_generators
from glattice.intmat import IntMatrix, full_lattice, hnf_from_rows, member
from glattice.matgroup import MatGroup, orbit
from glattice.monomial import (
    _lattice_e,
    _lattice_ones,
    cycle_matrix,
    full_monomial_group,
    full_monomial_orbit_size_binary,
    o2_diagonal_part,
    project_pi,
    signed_permutation,
    support_reduce,
    three_sublattice_report,
)


def random_signs_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(rng.choice((1, -1)) for _ in range(n)), tuple(perm)


def random_element(rng, n):
    return signed_permutation(*random_signs_perm(rng, n))


def sign_flip(n, i):
    return IntMatrix.diagonal(tuple(-1 if k == i else 1 for k in range(n)))


def permutation_of(entries, n):
    """perm of a signed-permutation matrix given by its row-major entries."""
    return tuple(next(i for i in range(n) if entries[i * n + j]) for j in range(n))


SHEAR = IntMatrix.from_rows([(1, 1, 0), (0, 1, 0), (0, 0, 1)])


def test_signed_permutation_convention():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(1, 7)
        signs, perm = random_signs_perm(rng, n)
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        w = apply(signed_permutation(signs, perm), v)
        assert all(w[perm[i]] == signs[perm[i]] * v[i] for i in range(n))


def test_signed_permutation_rejects_bad_input():
    with pytest.raises(ValueError, match="signs"):
        signed_permutation((1, 2, 1), (0, 1, 2))
    with pytest.raises(ValueError, match="perm"):
        signed_permutation((1, 1, 1), (0, 1, 1))


def test_project_pi_full_monomial():
    pi = project_pi(full_monomial_group(3))
    assert pi.order == 6 and pi.has_n_cycle


def test_project_pi_signs_only():
    g = MatGroup(3, (sign_flip(3, 0), sign_flip(3, 2)))
    assert project_pi(g).order == 1


def test_project_pi_cyclic():
    g = MatGroup(5, (cycle_matrix(5), IntMatrix.diagonal((-1,) * 5)))
    pi = project_pi(g)
    assert pi.order == 5 and pi.has_n_cycle


def test_project_pi_and_o2_reject_a_shear():
    g = MatGroup(3, (cycle_matrix(3), SHEAR))
    with pytest.raises(HypothesisNotMet, match="signed permutation"):
        project_pi(g)
    with pytest.raises(HypothesisNotMet, match="signed permutation"):
        o2_diagonal_part(g)


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
        g = MatGroup(n, tuple(random_element(rng, n) for _ in range(rng.randint(0, 3))))
        # the permutation image is generated by the generators with their signs dropped
        unsigned = MatGroup(n, tuple(IntMatrix(n, n, tuple(map(abs, h.entries))) for h in g.generators))
        group = {permutation_of(e, n) for e in closure_oracle(unsigned)[0]}
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
        shift = signed_permutation(tuple(rng.choice((1, -1)) for _ in range(n)), tuple((i + 1) % n for i in range(n)))
        extra = []
        for _ in range(rng.randint(0, 2)):
            signs, perm = random_signs_perm(rng, n)
            if n == 7:  # keep the group small: permutation part a power of the cycle
                k = rng.randrange(n)
                perm = tuple((i + k) % n for i in range(n))
            extra.append(signed_permutation(signs, perm))
        g = MatGroup(n, (shift, *extra))
        elements = closure_oracle(g)[0]
        diagonal = [e[:: n + 1] for e in elements if permutation_of(e, n) == tuple(range(n))]
        masks = [sum(1 << i for i, s in enumerate(signs) if s == -1) for signs in diagonal]
        assert o2_diagonal_part(g) == tuple(_rref_masks(masks))
        perms = {permutation_of(e, n) for e in elements}
        assert project_pi(g).order == len(perms)


def test_o2_full_diagonal():
    g = MatGroup(7, (cycle_matrix(7),) + tuple(sign_flip(7, i) for i in range(7)))
    assert len(o2_diagonal_part(g)) == 7


def test_o2_minus_identity_only():
    g = MatGroup(7, (cycle_matrix(7), IntMatrix.diagonal((-1,) * 7)))
    basis = o2_diagonal_part(g)
    assert len(basis) == 1 and basis[0] == (1 << 7) - 1


def test_o2_matches_component_subspace():
    g = MatGroup(7, (cycle_matrix(7), diag_generators(7)[1]))
    assert o2_diagonal_part(g) == cp_stable_subspaces(7)[frozenset({1})]


def test_o2_hypothesis_violations():
    with pytest.raises(HypothesisNotMet):
        o2_diagonal_part(MatGroup(4, (cycle_matrix(4),)))  # even n
    with pytest.raises(HypothesisNotMet):
        o2_diagonal_part(MatGroup(5, (sign_flip(5, 0),)))  # no 5-cycle


def test_support_reduce_examples():
    le7 = binary_sublattice(7, {1, 2})
    v = support_reduce(le7, 7)
    assert set(v) <= {0, 1} and sum(map(bool, v)) <= 4
    assert member(v, le7)
    vz = support_reduce(full_lattice(7), 7)
    assert sum(map(bool, vz)) <= 4
    v1 = support_reduce(binary_sublattice(7, {1}), 7)
    assert set(v1) <= {0, 1} and sum(map(bool, v1)) <= 4
    assert member(v1, binary_sublattice(7, {1}))


def test_support_reduce_rejects_l1_and_zero():
    with pytest.raises(HypothesisNotMet):
        support_reduce(binary_sublattice(7, {0}), 7)
    with pytest.raises(HypothesisNotMet):
        support_reduce(binary_sublattice(7, ()), 7)


def test_support_reduce_rejects_a_lattice_that_is_not_shift_stable():
    rows = [(1, 1, 0, 0, 0, 0, 0)] + [tuple(2 * (k == j) for k in range(7)) for j in range(7)]
    with pytest.raises(HypothesisNotMet, match="shift-stable"):
        support_reduce(hnf_from_rows(rows, 7), 7)


def test_support_reduce_all_sublattices_p_le_13():
    for p in (3, 5, 7, 11, 13):
        for subset, lat in binary_sublattices(p).items():
            if not subset or lat.rank == 0:
                continue
            if subset == frozenset({0}):
                continue  # the all-ones lattice is excluded by hypothesis
            v = support_reduce(lat, p)
            assert set(v) <= {0, 1}
            assert sum(map(bool, v)) <= (2 * p) // 3
            assert member(v, lat)


def test_orbit_bound_vs_exact():
    # the closed-form full-monomial orbit size equals the BFS orbit
    for p in (3, 5, 7):
        mon = full_monomial_group(p)
        for support in range(1, p + 1):
            v = tuple(1 if i < support else 0 for i in range(p))
            assert orbit(mon, v).size == full_monomial_orbit_size_binary(p, support)


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
    assert [r.orbit_size for r in rep.rows] == [10, 40, 32]
    assert not rep.inequality_holds


def test_three_sublattice_spans_verified_by_bfs_p7():
    mon = full_monomial_group(7)
    rep = three_sublattice_report(7)
    for row in rep.rows:
        orb = orbit(mon, row.witness)
        assert orb.size == row.orbit_size
        span = hnf_from_rows(sorted(orb.elements), 7)
        ref = {
            "Z^p": full_lattice(7),
            "L_E": binary_sublattice(7, {1, 2}),
            "L_1": binary_sublattice(7, {0}),
        }[row.lattice_label]
        assert span == ref


def test_orbit_is_the_image_under_every_element():
    rng = random.Random(29)
    for n in (3, 4, 5):
        for _ in range(6):
            g = MatGroup(n, tuple(random_element(rng, n) for _ in range(rng.randint(1, 2))))
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            images = {apply(IntMatrix(n, n, e), v) for e in closure_oracle(g)[0]}
            assert orbit(g, v).elements == images


def test_orbit_cap():
    mon = full_monomial_group(5)
    assert orbit(mon, (1,) * 5, cap=32).size == 32
    with pytest.raises(CapExceeded) as exc:
        orbit(mon, (1,) * 5, cap=31)
    assert (exc.value.what, exc.value.cap) == ("orbit", 31)


def test_even_and_all_ones_lattices_match_their_integer_spans():
    """The two preimages against ``hnf_from_rows`` of the rows that span them."""
    for n in range(2, 14):
        doubles = [tuple(2 * (k == j) for k in range(n)) for j in range(n)]
        pairs = [tuple(int(k in (j, j + 1)) for k in range(n)) for j in range(n - 1)]
        assert _lattice_e(n) == hnf_from_rows(pairs + doubles[:1], n)
        assert _lattice_ones(n) == hnf_from_rows([(1,) * n] + doubles, n)
