"""Theta series: enumeration completeness, counts, diagonal bounds."""
import itertools
import random
from collections import Counter
from math import isqrt, prod

import pytest
from conftest import apply, det, form_norm
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glattice.errors import CapExceeded
from glattice.intmat import IntMatrix
from glattice.matgroup import MatGroup
from glattice.rootsys import RootSystemSpec, build, cartan_matrix
from glattice.theta import (
    GramForm,
    diagonal_bound,
    identity_form,
    _fincke_pohst,
    _scaled_ldl,
    short_vectors,
    theta_prefix,
)

GRAM_A2 = GramForm(IntMatrix.from_rows([(2, -1), (-1, 2)]))


def brute_force(form, bound, radii=None):
    """Every (v, norm) with norm <= bound in the box |v_i| <= radii[i] (default bound + 1)."""
    n = form.dim
    radii = radii or [bound + 1] * n
    out = []
    for v in itertools.product(*(range(-r, r + 1) for r in radii)):
        nm = form_norm(form, v)
        if nm <= bound:
            out.append((v, nm))
    return sorted(out)


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        GramForm(IntMatrix.from_rows([(1, 2), (2, 1)]))
    with pytest.raises(ValueError):
        GramForm(IntMatrix.from_rows([(0, 1), (1, 0)]))
    with pytest.raises(ValueError):
        GramForm(IntMatrix.from_rows([(1, 2), (3, 4)]))  # not symmetric


@pytest.mark.parametrize(
    "rows",
    [[(1, 1), (1, 1)], [(1, 1, 0), (1, 1, 0), (0, 0, 1)], [(2, 1, 1), (1, 2, 1), (1, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 0)]],
    ids=["singular 2x2", "zero middle pivot", "third minor negative", "third minor zero"],
)
def test_rejects_a_zero_or_negative_pivot_before_dividing(rows):
    """ValueError, not ZeroDivisionError, at the first pivot <= 0."""
    with pytest.raises(ValueError):
        GramForm(IntMatrix.from_rows(rows))


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(1, 4))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(n) for j in range(i, n)}
    return IntMatrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(_symmetric_matrices())
def test_positive_definite_iff_leading_minors_positive(m):
    """Sylvester's criterion, with the minors from the Bareiss oracle."""
    minors = [det(IntMatrix.from_rows([m.row(i)[: k + 1] for i in range(k + 1)])) for k in range(m.rows)]
    try:
        GramForm(m)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == all(d > 0 for d in minors)


@st.composite
def _forms_with_vectors(draw):
    """(A^T A + I, v) for a random integer n x n matrix A, n <= 5, and a random integer v."""
    n = draw(st.integers(1, 5))
    a = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    m = [[sum(row[i] * row[j] for row in a) + int(i == j) for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(m), draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(_forms_with_vectors())
def test_scaled_decomposition_gives_the_scaled_norm(case):
    """M v^T X v = sum_i e_i (L_i v_i + sum_{(j, c) in rows[i]} c v_j)^2, every term an integer."""
    m, v = case
    form = GramForm(m)
    scale, e, lead, rows = _scaled_ldl(form)
    terms = [ei * (li * v[i] + sum(c * v[j] for j, c in row)) ** 2 for i, (ei, li, row) in enumerate(zip(e, lead, rows))]
    assert scale * form_norm(form, v) == sum(terms)

def test_short_vectors_identity_bound_one():
    got = short_vectors(identity_form(2), 1)
    assert got == [((-1, 0), 1), ((0, -1), 1), ((0, 0), 0), ((0, 1), 1), ((1, 0), 1)]


def test_short_vectors_a2_roots():
    roots = [v for v, nm in short_vectors(GRAM_A2, 2) if nm == 2]
    assert len(roots) == 6


def test_short_vectors_bound_zero():
    assert short_vectors(GRAM_A2, 0) == [((0, 0), 0)]


def test_short_vectors_cap():
    with pytest.raises(CapExceeded):
        short_vectors(identity_form(3), 4, cap=5)


def test_the_zero_form_has_only_the_zero_vector():
    """Z^0 holds one vector, of norm 0, for every bound; cap 0 stops it in both consumers."""
    form = identity_form(0)
    assert short_vectors(form, 3) == [((), 0)]
    assert theta_prefix(form, 3).coefficients == (1, 0, 0, 0)
    with pytest.raises(CapExceeded):
        short_vectors(form, 3, cap=0)
    with pytest.raises(CapExceeded):
        theta_prefix(form, 3, cap=0)


def test_enumeration_visits_one_vector_of_each_pair():
    """E8 at bound 6: 1 + 240 + 2160 + 6720 = 9121 vectors in 4561 leaves, each nonzero one ending in a positive coordinate."""
    form = GramForm(cartan_matrix(RootSystemSpec("E", 8)))
    leaves = []
    _fincke_pohst(form, 6, 10**6, lambda coords, norm: leaves.append((tuple(coords), norm)))
    assert len(leaves) == 4561
    assert leaves[0] == ((0,) * 8, 0)
    assert all(next(x for x in reversed(v) if x) > 0 for v, _ in leaves[1:])
    both = leaves + [(tuple(-x for x in v), nm) for v, nm in leaves[1:]]
    assert sorted(both) == short_vectors(form, 6)


def test_completeness_random_small_forms():
    rng = random.Random(11)
    trials = 0
    while trials < 30:
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                x = rng.randint(1, 4) if i == j else rng.randint(-2, 2)
                m[i][j] = m[j][i] = x
        try:
            form = GramForm(IntMatrix.from_rows(m))
        except ValueError:
            continue
        trials += 1
        bound = rng.randint(0, 6)
        got = short_vectors(form, bound)
        assert got == brute_force(form, bound)


def _box_radii(m: IntMatrix, bound: int) -> list[int]:
    """|v_i| <= sqrt(bound (X^-1)_ii) on the ellipsoid v^T X v <= bound; (X^-1)_ii = minor_ii / det X."""
    n = m.rows
    rows = m.to_rows()
    whole = det(m)
    if n == 1:
        return [isqrt(bound // whole)]
    minors = [det(IntMatrix.from_rows([[x for c, x in enumerate(r) if c != i] for k, r in enumerate(rows) if k != i]))
              for i in range(n)]
    return [isqrt(bound * minor // whole) for minor in minors]


def _shifted_to_positive_definite(m: IntMatrix) -> GramForm:
    """m + sI for the least s >= 0 that makes it positive definite."""
    rows = m.to_rows()
    for s in itertools.count():
        try:
            return GramForm(IntMatrix.from_rows([[x + s * (i == j) for j, x in enumerate(r)] for i, r in enumerate(rows)]))
        except ValueError:
            continue


@settings(max_examples=300, deadline=None)
@given(_symmetric_matrices().map(_shifted_to_positive_definite), st.integers(0, 6))
def test_short_vectors_match_brute_force(form, bound):
    """Complete against the box that contains the whole ellipsoid; every carried norm is v^T X v."""
    m = form.matrix
    radii = _box_radii(m, bound)
    assume(prod(2 * r + 1 for r in radii) <= 20000)
    got = short_vectors(form, bound)
    assert got == brute_force(form, bound, radii)
    assert all(nm == form_norm(form, v) for v, nm in got)


@settings(max_examples=200, deadline=None)
@given(_symmetric_matrices().map(_shifted_to_positive_definite), st.integers(0, 8))
def test_theta_prefix_is_the_norm_histogram_of_short_vectors(form, horizon):
    """Counting the norms during the enumeration gives the histogram of the listed vectors, and the same cap.

    Both consumers count v and -v, and the zero vector once: cap len(vectors) passes, one less raises.
    """
    vectors = short_vectors(form, horizon)
    counts = Counter(nm for _, nm in vectors)
    assert theta_prefix(form, horizon).coefficients == tuple(counts[i] for i in range(horizon + 1))
    assert theta_prefix(form, horizon, cap=len(vectors)).coefficients[0] == 1
    assert short_vectors(form, horizon, cap=len(vectors)) == vectors
    with pytest.raises(CapExceeded):
        theta_prefix(form, horizon, cap=len(vectors) - 1)
    with pytest.raises(CapExceeded):
        short_vectors(form, horizon, cap=len(vectors) - 1)


def test_theta_prefix_examples():
    assert theta_prefix(identity_form(3), 2).coefficients == (1, 6, 12)
    assert theta_prefix(identity_form(1), 4).coefficients == (1, 2, 0, 0, 2)
    assert theta_prefix(GRAM_A2, 2).coefficients == (1, 0, 6)


def test_theta_plus_minus_symmetry():
    rng = random.Random(12)
    pre = theta_prefix(identity_form(4), 6)
    assert pre.coefficients[0] == 1
    assert all(c % 2 == 0 for c in pre.coefficients[1:])


def test_diagonal_bound_identity():
    for n in range(1, 8):
        db = diagonal_bound(identity_form(n))
        assert db.diagonal_norms == frozenset({1})
        assert db.bound == 2 * n


def test_diagonal_bound_examples():
    assert diagonal_bound(GRAM_A2).bound == 6
    db = diagonal_bound(GramForm(IntMatrix.from_rows([(1, 0), (0, 3)])))
    assert db.diagonal_norms == frozenset({1, 3})
    assert db.bound == 4  # N_1 + N_3 = 2 + 2


def test_diagonal_bound_witnesses_contain_basis_and_are_stable():
    form = GRAM_A2
    db = diagonal_bound(form)
    ents = set(db.witnesses)
    assert (1, 0) in ents and (0, 1) in ents
    # stability under an automorphism of the form (Weyl action in root basis)
    a2 = build(RootSystemSpec("A", 2))
    g = MatGroup(2, [s.transpose() for s in a2.simple_reflections])
    for h in g.generators:
        for w in db.witnesses:
            assert apply(h, w).entries in ents
