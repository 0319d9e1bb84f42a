"""GF(2) polynomials, cyclotomic factorizations, and binary sublattices."""
import pytest
from conftest import (
    binary_coefficient_vector,
    binary_sublattice,
    binary_sublattices_oracle,
    closure_oracle,
    coset_labels_oracle,
    cyclic_shifts,
    inverse_unimodular,
    is_primitive,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from glattice._primes import primes_upto
from glattice.errors import NotOddPrime
from glattice.gf2cyclo import (
    GF2Poly,
    _rref_masks,
    binary_sublattices,
    cp_stable_subspaces,
    diag_generators,
    factor_xp_minus_1,
    ord2,
    preimage,
)
from glattice.intmat import IntMatrix, full_lattice, hnf_from_rows, index, member
from glattice.matgroup import MatGroup
from glattice.monomial import cycle_matrix

ODD_PRIMES_200 = [p for p in primes_upto(200) if p > 2]


def test_poly_arithmetic():
    a = GF2Poly(0b11)  # x + 1
    b = GF2Poly(0b111)  # x^2 + x + 1
    assert (a * b).coeffs() == (1, 0, 0, 1)  # x^3 + 1
    assert (a * b) % a == GF2Poly(0)
    assert (a * b) // b == a
    assert a.gcd(b).degree == 0


def test_ord2_examples():
    assert ord2(7) == 3
    assert ord2(3) == 2
    assert ord2(5) == 4
    with pytest.raises(NotOddPrime):
        ord2(9)
    with pytest.raises(NotOddPrime):
        ord2(2)


def test_factorization_p3():
    f = factor_xp_minus_1(3)
    assert [g.coeff_string() for g in f.factors] == ["11", "111"]


def test_factorization_p7():
    f = factor_xp_minus_1(7)
    assert [g.coeff_string() for g in f.factors] == ["11", "1101", "1011"]
    assert [sorted(c) for c in f.cosets] == [[0], [1, 2, 4], [3, 5, 6]]


def test_factor_count_p23():
    f = factor_xp_minus_1(23)
    assert len(f.factors) == (23 - 1) // 11 + 1 == 3


@pytest.mark.parametrize("p", ODD_PRIMES_200)
def test_factorization_sweep(p):
    f = factor_xp_minus_1(p)
    d = ord2(p)
    assert len(f.factors) == (p - 1) // d + 1
    assert all(g.degree == d for g in f.factors[1:])
    prod = GF2Poly(1)
    for g in f.factors:
        prod = prod * g
    assert prod == GF2Poly((1 << p) | 1)


@pytest.mark.parametrize("p", ODD_PRIMES_200 + [257, 521])
def test_coset_labels_match_the_root_oracle(p):
    """Trace-signature labels against roots found by composition; each theta_C is idempotent mod x^p + 1."""
    f = factor_xp_minus_1(p)
    assert f.factors[0] == GF2Poly(0b11) and f.cosets[0] == frozenset({0})
    assert coset_labels_oracle(p, f.factors[1:]) == list(zip(f.cosets[1:], f.factors[1:]))
    total = GF2Poly((1 << p) | 1)
    for coset in f.cosets:
        theta = GF2Poly(sum(1 << c for c in coset))
        assert (theta * theta) % total == theta


def test_primitive_root_primes_have_four_subsets():
    for p in (3, 5, 11, 13, 19, 29):
        f = factor_xp_minus_1(p)
        assert len(f.factors) == 2  # so exactly 4 subsets of components
        subs = cp_stable_subspaces(p)
        dims = sorted(len(subs[frozenset(s)]) for s in [(), (0,), (1,), (0, 1)])
        assert dims == [0, 1, p - 1, p]


def test_canonical_subspaces_p7():
    subs = cp_stable_subspaces(7)
    assert list(subs) == [frozenset(s) for s in [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]]
    assert subs[frozenset()] == ()
    assert subs[frozenset({0})] == ((1 << 7) - 1,)
    ve = subs[frozenset({1, 2})]
    assert len(ve) == 6
    assert all(bin(b).count("1") % 2 == 0 for b in ve)
    assert len(subs[frozenset({0, 1, 2})]) == 7


def test_diag_generators_p3():
    d = diag_generators(3)
    assert [d[0][i, i] for i in range(3)] == [-1, -1, -1]
    assert [d[1][i, i] for i in range(3)] == [-1, -1, 1]


def test_diag_generator_closure_matches_subspace():
    # closing D_1 under conjugation by the 3-cycle gives the even-sign group
    d1 = diag_generators(3)[1]
    shift = cycle_matrix(3)
    conj = [d1]
    cur = d1
    for _ in range(2):
        cur = shift.mul(cur).mul(inverse_unimodular(shift))
        conj.append(cur)
    elems, order = closure_oracle(MatGroup(3, conj))
    assert order == 4  # even-sign diagonal group
    assert all(IntMatrix.diagonal(e[::4]).entries == e and e[::4].count(-1) % 2 == 0 for e in elems)


def test_binary_sublattices_p3():
    lats = binary_sublattices(3)
    assert lats[frozenset()].rank == 0
    le = lats[frozenset({1})]
    assert member((1, 1, 0), le) and not member((1, 0, 0), le)
    assert index(le, full_lattice(3)) == 2
    assert lats[frozenset({0, 1})] == full_lattice(3)
    l1 = lats[frozenset({0})]
    assert member((1, 1, 1), l1) and member((2, 0, 0), l1) and not member((1, 0, 0), l1)


def test_binary_sublattice_count_p7():
    assert len(binary_sublattices(7)) == 8


def test_sublattices_primitive_and_mod2_image():
    for p in (3, 5, 7, 11, 13):
        subs = cp_stable_subspaces(p)
        for subset, lat in binary_sublattices(p).items():
            if subset:
                assert is_primitive(lat)
            masks = _rref_masks(
                [sum((e & 1) << i for i, e in enumerate(r)) for r in lat.rows()]
            )
            assert tuple(masks) == subs[subset]


def test_sublattice_index_matches_subspace_codimension():
    for p in (3, 5, 7):
        subs = cp_stable_subspaces(p)
        for subset, lat in binary_sublattices(p).items():
            if lat.rank == p:
                assert index(lat, full_lattice(p)) == 2 ** (p - len(subs[subset]))


def test_binary_vector_weights_even_for_nontrivial_components():
    for p in (7, 23, 31):
        f = factor_xp_minus_1(p)
        for i in range(1, len(f.factors)):
            v = binary_coefficient_vector(p, i)
            assert sum(v) % 2 == 0


def test_l1_with_and_without_doubles():
    with_doubles = binary_sublattice(7, {0})
    bare = hnf_from_rows(cyclic_shifts(binary_coefficient_vector(7, 0)), 7)
    assert bare.rank == 1 and with_doubles.rank == 7
    assert member((1,) * 7, bare)


def _lift(mask: int, n: int) -> tuple[int, ...]:
    return tuple(mask >> k & 1 for k in range(n))


@st.composite
def _subspaces(draw):
    """(masks, n): up to n + 2 random masks of F_2^n for n <= 12, with repeats and sums mixed in."""
    n = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    if len(masks) >= 2:
        masks.append(masks[0] ^ masks[-1])
    return masks, n


@settings(max_examples=300, deadline=None)
@given(_subspaces())
def test_preimage_matches_hnf_from_rows(case):
    """The HNF read off the lowest-pivot echelon basis is the one elimination computes."""
    masks, n = case
    doubles = [tuple(2 * (k == j) for k in range(n)) for j in range(n)]
    lat = preimage(masks, n)
    assert lat == hnf_from_rows([_lift(m, n) for m in masks] + doubles, n)
    assert index(lat, full_lattice(n)) == 2 ** (n - len(_rref_masks(masks)))


def test_preimage_rejects_a_mask_wider_than_n():
    with pytest.raises(ValueError):
        preimage([1 << 3], 3)


@pytest.mark.parametrize("p", [p for p in primes_upto(31) if p > 2])
def test_binary_sublattices_match_the_integer_shift_oracle(p):
    lats = binary_sublattices(p)
    assert list(lats.items()) == list(binary_sublattices_oracle(p).items())
    for subset, basis in cp_stable_subspaces(p).items():
        if subset:
            assert index(lats[subset], full_lattice(p)) == 2 ** (p - len(basis))
