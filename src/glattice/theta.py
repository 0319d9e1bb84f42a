"""Positive definite integral forms, short-vector enumeration, theta coefficients.

Positive definiteness is certified exactly by the pivots of an LDL^T
decomposition over Fractions (Sylvester's criterion: they are all positive
exactly when every leading principal minor is).  The enumeration is
Fincke-Pohst (Fincke and Pohst 1985; Cohen, *A Course in Computational
Algebraic Number Theory*, 2.7.3) in integers only.  With X = U^T diag(d) U,

    v^T X v = sum_i d_i (v_i + sum_{j>i} u_ij v_j)^2.

Let L_i be the lcm of the denominators in row i of U and M the common
denominator of the d_i / L_i^2.  Then C_i = sum_{j>i} L_i u_ij v_j and
e_i = M d_i / L_i^2 are integers, and

    M v^T X v = sum_i e_i (L_i v_i + C_i)^2,

so the remaining budget B = M bound - (terms above i) is an integer too.
The coordinate v_i runs over exactly the integers with
|L_i v_i + C_i| <= isqrt(B // e_i) (for integer t, e t^2 <= B iff
t^2 <= B // e), and the norm of a leaf is (M bound - B) / M.  Scaling the
decomposition is the only rational arithmetic, done once per call, so the
vector lists and coefficient counts are complete by construction -- no
pruning heuristic, no floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import CapExceeded, FormNotPreserved
from .intmat import IntMatrix, LatticeBasis, as_vector, hnf_from_rows
from .matgroup import DEFAULT_CAP, MatGroup, Orbit, orbit


@dataclass(frozen=True)
class GramForm:
    """Symmetric positive definite integral matrix."""

    matrix: IntMatrix

    def __post_init__(self):
        if not self.matrix.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        _ldl(self)  # raises ValueError unless every pivot is positive

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def norm(self, v) -> int:
        """v^T X v, exact."""
        vv = as_vector(v)
        m = self.matrix
        n = self.dim
        return sum(vv[i] * m[i, j] * vv[j] for i in range(n) for j in range(n))

    def diagonal_norms(self) -> frozenset:
        return frozenset(self.matrix[i, i] for i in range(self.dim))


def identity_form(n: int) -> GramForm:
    return GramForm(IntMatrix.identity(n))


def _ldl(form: GramForm) -> tuple[list[Fraction], list[list[Fraction]]]:
    """X = U^T diag(d) U with U unit upper triangular; both exact rationals.

    Raises ValueError at the first pivot d[i] <= 0, before dividing by it:
    the pivots are ratios of consecutive leading principal minors, so they
    are all positive exactly when X is positive definite.
    """
    n = form.dim
    a = [[Fraction(form.matrix[i, j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("Gram matrix must be positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= a[r][i] * a[i][c] / d[i]
    return d, u


def _scaled_ldl(form: GramForm) -> tuple[int, list[int], list[int], list[list[tuple[int, int]]]]:
    """(M, e, L, rows) with M v^T X v = sum_i e_i (L_i v_i + sum_{(j, c) in rows[i]} c v_j)^2."""
    d, u = _ldl(form)
    n = form.dim
    scale = [lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    weights = [d[i] / (scale[i] * scale[i]) for i in range(n)]
    m = lcm(*(w.denominator for w in weights))
    e = [int(w * m) for w in weights]
    rows = [[(j, int(u[i][j] * scale[i])) for j in range(i + 1, n) if u[i][j]] for i in range(n)]
    return m, e, scale, rows


def short_vectors(form: GramForm, bound: int, cap: int = DEFAULT_CAP) -> list[tuple[tuple[int, ...], int]]:
    """Complete list of (v, v^T X v) with norm <= bound, lexicographic order.

    Each v is a plain coordinate tuple.  Both v and -v appear (and the
    zero vector, whenever bound >= 0).
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    n = form.dim
    m, e, scale, rows = _scaled_ldl(form)
    total = m * bound
    out: list[tuple[tuple[int, ...], int]] = []
    coords = [0] * n

    def descend(i: int, budget: int):
        if i < 0:
            norm, rest = divmod(total - budget, m)
            if rest:
                raise AssertionError("scaled norm is not a multiple of the scale")
            out.append((tuple(coords), norm))
            if len(out) > cap:
                raise CapExceeded("short vector enumeration", cap)
            return
        center = sum(c * coords[j] for j, c in rows[i])
        ei, li = e[i], scale[i]
        r = isqrt(budget // ei)
        # |li x + center| <= r: x from ceil((-r - center) / li) to floor((r - center) / li)
        for x in range(-((r + center) // li), (r - center) // li + 1):
            t = li * x + center
            coords[i] = x
            descend(i - 1, budget - ei * t * t)
        coords[i] = 0

    descend(n - 1, total)
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
    for _, norm in short_vectors(form, horizon, cap):
        counts[norm] += 1
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
    top = max(norms)
    witnesses = [v for v, nm in short_vectors(form, top, cap) if nm in norms]
    return DiagonalBound(norms, len(witnesses), tuple(witnesses))


@dataclass(frozen=True)
class NormClassOrbit:
    orbit: Orbit
    norm: int
    class_size: int
    span: LatticeBasis
    spans_ambient: bool


def orbit_within_norm_class(
    g: MatGroup, form: GramForm, v, cap: int = DEFAULT_CAP
) -> NormClassOrbit:
    """Orbit of v under a form-preserving group, checked against its norm class.

    Verifies that every generator preserves the form, that the whole orbit
    sits inside one norm class, and reports whether the orbit spans Z^n.
    """
    if g.dim != form.dim:
        raise ValueError("group and form dimensions differ")
    for h in g.generators:
        if h.transpose().mul(form.matrix).mul(h) != form.matrix:
            raise FormNotPreserved("a generator does not preserve the form")
    vv = as_vector(v)
    nm = form.norm(vv)
    orb = orbit(g, vv, cap)
    for e in orb.elements:
        if form.norm(e) != nm:
            raise AssertionError("orbit left its norm class despite preserved form")
    if nm > 0:
        class_size = theta_prefix(form, nm, cap).coefficients[nm]
    else:
        class_size = 1
    span = hnf_from_rows(sorted(orb.elements), form.dim)
    return NormClassOrbit(orb, nm, class_size, span, span.is_full())
