"""Positive definite integral forms, short-vector enumeration, theta coefficients.

Positive definiteness is certified exactly by the leading principal
minors D_1, ..., D_n (Sylvester's criterion: X is positive definite
exactly when they are all positive), which fraction-free Gaussian
elimination (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968) produces
in integers.  The enumeration is Fincke-Pohst (Fincke and Pohst 1985;
Cohen, *A Course in Computational Algebraic Number Theory*, 2.7.3) in
integers only.  After step i of the elimination, row i holds integers
a_ij (j >= i) with a_ii = D_{i+1}, and with D_0 = 1

    v^T X v = sum_i (sum_{j>=i} a_ij v_j)^2 / (D_i D_{i+1}).

Let M = lcm_i(D_i D_{i+1}), e_i = M / (D_i D_{i+1}), L_i = a_ii and
C_i = sum_{j>i} a_ij v_j.  Then

    M v^T X v = sum_i e_i (L_i v_i + C_i)^2,

so the remaining budget B = M bound - (terms above i) is an integer too.
The coordinate v_i runs over exactly the integers with
|L_i v_i + C_i| <= isqrt(B // e_i) (for integer t, e t^2 <= B iff
t^2 <= B // e), and the norm of a leaf is (M bound - B) / M.  Every
quantity is an integer, so the vector lists and coefficient counts are
complete by construction -- no pruning heuristic, no fractions, no floats.

The enumeration visits one vector of each pair +-v.  The map -I keeps the
norm ball {v : v^T X v <= bound}, and of a nonzero pair exactly one member
has a positive highest-index nonzero coordinate; that member is visited.
While every coordinate above level i is 0, the centre C_i is 0 and v_i runs
over v_i >= 0 only; at level 0 on that zero prefix, v_0 = 0 is the zero
vector, visited once.  The consumers restore -v: ``short_vectors`` lists
both members, and ``theta_prefix`` and the cap count both.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

from .errors import CapExceeded
from .intmat import IntMatrix
from .matgroup import DEFAULT_CAP


@dataclass(frozen=True)
class GramForm:
    """Symmetric positive definite integral matrix."""

    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError(f"Gram matrix must be square, not {self.matrix.rows}x{self.matrix.cols}")
        if not self.matrix.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        _scaled_ldl(self)  # raises ValueError unless every leading minor is positive

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def diagonal_norms(self) -> frozenset:
        return frozenset(self.matrix[i, i] for i in range(self.dim))


def identity_form(n: int) -> GramForm:
    return GramForm(IntMatrix.identity(n))


def _scaled_ldl(form: GramForm) -> tuple[int, list[int], list[int], list[list[tuple[int, int]]]]:
    """(M, e, L, rows) with M v^T X v = sum_i e_i (L_i v_i + sum_{(j, c) in rows[i]} c v_j)^2.

    Bareiss elimination: step i divides exactly by the previous pivot
    D_i, and leaves a_ii = D_{i+1}.  Raises ValueError at the first
    minor D_{i+1} <= 0, before dividing by it, so the form is positive
    definite exactly when this returns.
    """
    n = form.dim
    a = [list(form.matrix.row(i)) for i in range(n)]
    minors = [1]  # D_0, ..., D_n
    for i in range(n):
        pivot, prev = a[i][i], minors[-1]
        if pivot <= 0:
            raise ValueError("Gram matrix must be positive definite")
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (pivot * a[r][c] - a[r][i] * a[i][c]) // prev
        minors.append(pivot)
    m = lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    e = [m // (minors[i] * minors[i + 1]) for i in range(n)]
    rows = [[(j, a[i][j]) for j in range(i + 1, n) if a[i][j]] for i in range(n)]
    return m, e, minors[1:], rows


def _fincke_pohst(form: GramForm, bound: int, cap: int, leaf) -> None:
    """Call ``leaf(coords, norm)`` once for 0 and once for each pair +-v of nonzero vectors with v^T X v <= bound.

    The visited member of a pair is the one whose highest-index nonzero
    coordinate is positive.  ``coords`` is the live coordinate list, valid
    only during the call.  Raises CapExceeded as soon as more than ``cap``
    vectors are found, counting v and -v both.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    n = form.dim
    m, e, scale, rows = _scaled_ldl(form)
    total = m * bound
    coords = [0] * n
    found = 0
    if n == 0:
        leaf(coords, 0)  # the zero vector is the only vector of Z^0
        if cap < 1:
            raise CapExceeded("short vector enumeration", cap)
        return

    def descend(i: int, budget: int, signed: bool):
        # signed: a coordinate above i is nonzero, so x_i takes both signs;
        # otherwise the centre is 0 and x_i >= 0 picks one vector of each pair
        nonlocal found
        center = sum(c * coords[j] for j, c in rows[i])
        ei, li = e[i], scale[i]
        r = isqrt(budget // ei)
        # |li x + center| <= r: x from ceil((-r - center) / li) to floor((r - center) / li)
        lo = -((r + center) // li) if signed else 0
        hi = (r - center) // li
        if i:
            for x in range(lo, hi + 1):
                t = li * x + center
                coords[i] = x
                descend(i - 1, budget - ei * t * t, signed or x != 0)
            coords[i] = 0
            return
        for x in range(lo, hi + 1):
            t = li * x + center
            coords[0] = x
            norm, rest = divmod(total - budget + ei * t * t, m)
            if rest:
                raise AssertionError("scaled norm is not a multiple of the scale")
            leaf(coords, norm)
            found += 2 if signed or x else 1  # -v, or only 0 itself
            if found > cap:
                raise CapExceeded("short vector enumeration", cap)
        coords[0] = 0

    descend(n - 1, total, False)


def short_vectors(form: GramForm, bound: int, cap: int = DEFAULT_CAP) -> list[tuple[tuple[int, ...], int]]:
    """Complete list of (v, v^T X v) with norm <= bound, lexicographic order.

    Each v is a plain coordinate tuple.  Both v and -v appear (and the
    zero vector, whenever bound >= 0).
    """
    out: list[tuple[tuple[int, ...], int]] = []

    def collect(coords, norm):
        out.append((tuple(coords), norm))
        if norm:  # only the zero vector has norm 0
            out.append((tuple(-x for x in coords), norm))

    _fincke_pohst(form, bound, cap, collect)
    out.sort()
    return out


@dataclass(frozen=True)
class ThetaPrefix:
    """Coefficients N_0..N_T of the theta series of a form."""

    coefficients: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.coefficients) - 1


def theta_prefix(form: GramForm, horizon: int, cap: int = DEFAULT_CAP) -> ThetaPrefix:
    """N_i = #{v : v^T X v = i} for 0 <= i <= horizon."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    counts = [0] * (horizon + 1)

    def count(_coords, norm):
        counts[norm] += 2 if norm else 1  # +-v, or the zero vector alone

    _fincke_pohst(form, horizon, cap, count)
    return ThetaPrefix(tuple(counts))


@dataclass(frozen=True)
class DiagonalBound:
    """Stable-generating-set bound from the diagonal norm classes.

    The witness set {v : v^T X v in D} is stable under every automorphism
    of the form and contains all standard basis vectors, so its size bounds
    the symmetric rank of Z^n under Aut(X) from above.
    """

    diagonal_norms: frozenset
    bound: int
    witnesses: tuple[tuple[int, ...], ...]


def diagonal_bound(form: GramForm, cap: int = DEFAULT_CAP) -> DiagonalBound:
    norms = form.diagonal_norms()
    top = max(norms, default=0)
    witnesses = [v for v, nm in short_vectors(form, top, cap) if nm in norms]
    return DiagonalBound(norms, len(witnesses), tuple(witnesses))
