"""Exact integer vectors, matrices, and lattice normal forms.

All arithmetic is arbitrary precision (plain Python ints); no floating
point appears anywhere in this module. Every public object is immutable
after construction and every operation is a pure function, so values can
be shared freely between threads.

Conventions fixed here and relied on everywhere else:

* vectors are column vectors; a matrix acts on the left (``m.apply(v)``);
* a lattice is stored as the rows of a basis matrix in row-style Hermite
  normal form: pivots positive, zeros below each pivot, entries above a
  pivot reduced into ``[0, pivot)``.  The HNF basis is a unique canonical
  form, so two lattices are equal iff their ``LatticeBasis`` are equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NotASublattice


@dataclass(frozen=True)
class IntVector:
    """Column vector with arbitrary-precision integer entries."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __add__(self, other: "IntVector") -> "IntVector":
        return IntVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntVector") -> "IntVector":
        return IntVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntVector":
        return IntVector(tuple(-a for a in self.entries))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e)

    def is_binary(self) -> bool:
        return all(e in (0, 1) for e in self.entries)


def as_vector(v) -> IntVector:
    """Coerce a sequence of ints (or an IntVector) to IntVector."""
    if isinstance(v, IntVector):
        return v
    return IntVector(tuple(v))


def unit_vector(dim: int, i: int) -> IntVector:
    return IntVector(tuple(1 if j == i else 0 for j in range(dim)))


def ones_vector(dim: int) -> IntVector:
    return IntVector((1,) * dim)


@dataclass(frozen=True)
class IntMatrix:
    """Row-major arbitrary-precision integer matrix."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        ent = tuple(int(e) for e in self.entries)
        if len(ent) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        diag = tuple(diag)
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            base = i * m
            for t in range(k):
                c = arow[t]
                if c:
                    brow = b[t * m : (t + 1) * m]
                    for j in range(m):
                        out[base + j] += c * brow[j]
        return IntMatrix(n, m, tuple(out))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    def apply(self, v) -> IntVector:
        """Matrix-vector product m @ v for a column vector v."""
        vv = as_vector(v)
        if vv.dim != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        ent = self.entries
        m = self.cols
        return IntVector(
            tuple(sum(ent[i * m + j] * vv.entries[j] for j in range(m)) for i in range(self.rows))
        )

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i)
        )

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss_det([list(r) for r in self.to_rows()])

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a matrix with determinant +-1.

        The HNF of [A | I] is [I | A^-1] exactly when A is unimodular.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug = [list(self.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
        rows = _hnf_rows(aug)
        if [r[:n] for r in rows] != IntMatrix.identity(n).to_rows():
            raise ValueError("matrix is not unimodular")
        return IntMatrix(n, n, tuple(e for r in rows for e in r[n:]))


def _bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free determinant (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pk - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def leading_principal_minors(m: IntMatrix) -> list[int]:
    """Exact determinants of the leading principal submatrices."""
    return [
        _bareiss_det([list(m.row(i)[: k + 1]) for i in range(k + 1)]) for k in range(m.rows)
    ]


@dataclass(frozen=True)
class LatticeBasis:
    """Sublattice of Z^n given by basis rows in canonical HNF.

    Use :func:`hnf` to construct one; the constructor trusts its input.
    """

    ambient_dim: int
    basis: IntMatrix

    @property
    def rank(self) -> int:
        return self.basis.rows

    def rows(self) -> list[tuple[int, ...]]:
        return self.basis.to_rows()

    def is_full(self) -> bool:
        """Whether this lattice is all of Z^n."""
        return self.rank == self.ambient_dim and self.basis == IntMatrix.identity(self.ambient_dim)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _hnf_insert(rows: tuple[tuple[int, ...], ...], v) -> tuple[tuple[int, ...], ...]:
    """HNF rows of the span of the canonical HNF ``rows`` plus the row v.

    Walks v's columns in order (Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4).  At a pivot column v's entry is removed by a
    multiple of the pivot row when the pivot divides it, otherwise by an
    extended-gcd step that replaces the pivot row; at a non-pivot column a
    nonzero entry makes v a new pivot row.  Entries above the pivots of
    changed rows are then reduced into ``[0, pivot)``.  When v reduces to
    zero without changing a row it already lies in the span, and ``rows``
    itself is returned.
    """
    v = list(v)
    n = len(v)
    basis = rows  # copied on the first change; `first` is that row's position
    k = 0  # the row whose pivot is the first one at or right of column c
    for c in range(n):
        x = v[c]
        if k < len(basis) and basis[k][c]:
            if x:
                h = basis[k]
                p = h[c]
                if x % p == 0:
                    q = x // p
                    for j in range(c, n):
                        v[j] -= q * h[j]
                else:
                    g, s, t = _xgcd(p, x)
                    a, b = p // g, x // g
                    if basis is rows:
                        basis, first = list(rows), k
                    basis[k] = tuple(s * hj + t * vj for hj, vj in zip(h, v))
                    v = [a * vj - b * hj for hj, vj in zip(h, v)]
            k += 1
        elif x:
            if basis is rows:
                basis, first = list(rows), k
            basis.insert(k, tuple(v) if x > 0 else tuple(-e for e in v))
            break
    if basis is rows:
        return rows
    # Rows left of `first` are unchanged and already reduced against each
    # other; reducing by the changed pivots left to right alters no entry at
    # an earlier pivot column.
    for k in range(first, len(basis)):
        h = basis[k]
        c = next(j for j, e in enumerate(h) if e)
        p = h[c]
        for i in range(k):
            q = basis[i][c] // p
            if q:
                basis[i] = tuple(e - q * f for e, f in zip(basis[i], h))
    return tuple(basis)


def _hnf_rows(rows) -> list[tuple[int, ...]]:
    """Row-style HNF of the span of ``rows``, one row insertion at a time.

    Positive pivots, zeros below each pivot, entries above a pivot in
    ``[0, pivot)``.
    """
    basis: tuple[tuple[int, ...], ...] = ()
    for r in rows:
        basis = _hnf_insert(basis, r)
    return list(basis)


def _lattice(rows, ambient_dim: int) -> LatticeBasis:
    """The lattice whose canonical HNF rows are ``rows`` (possibly none)."""
    return LatticeBasis(ambient_dim, IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, ambient_dim))


def hnf(m: IntMatrix) -> LatticeBasis:
    """Canonical HNF basis of the row span of m (zero matrix -> rank 0)."""
    return _lattice(_hnf_rows(m.to_rows()), m.cols)


def hnf_from_rows(rows, ambient_dim: int) -> LatticeBasis:
    """HNF basis of the span of arbitrary integer rows."""
    rows = [as_vector(r).entries for r in rows]
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("row dimension mismatch")
    return _lattice(_hnf_rows(rows), ambient_dim)


def zero_lattice(ambient_dim: int) -> LatticeBasis:
    return LatticeBasis(ambient_dim, IntMatrix.zero(0, ambient_dim))


def full_lattice(ambient_dim: int) -> LatticeBasis:
    return LatticeBasis(ambient_dim, IntMatrix.identity(ambient_dim))


def _pivot_columns(basis: IntMatrix) -> list[int]:
    cols = []
    for i in range(basis.rows):
        r = basis.row(i)
        cols.append(next(j for j, e in enumerate(r) if e))
    return cols


def coordinates_in(v, lattice: LatticeBasis) -> tuple[int, ...] | None:
    """Integer coordinates of v in the HNF basis, or None if v is outside."""
    vv = list(as_vector(v).entries)
    if len(vv) != lattice.ambient_dim:
        raise ValueError("vector dimension does not match ambient dimension")
    basis = lattice.basis
    coeffs = []
    for i, col in enumerate(_pivot_columns(basis)):
        p = basis[i, col]
        if vv[col] % p != 0:
            return None
        c = vv[col] // p
        coeffs.append(c)
        if c:
            row = basis.row(i)
            for j in range(col, lattice.ambient_dim):
                vv[j] -= c * row[j]
    if any(vv):
        return None
    return tuple(coeffs)


def member(v, lattice: LatticeBasis) -> bool:
    """Whether v is an integer combination of the basis rows."""
    return coordinates_in(v, lattice) is not None


class _Infinite:
    """Marker for an infinite lattice index."""

    __slots__ = ()

    def __repr__(self):
        return "infinite"

    def __eq__(self, other):
        return isinstance(other, _Infinite)

    def __hash__(self):
        return hash("glattice-infinite")


INFINITE = _Infinite()


def index(sub: LatticeBasis, sup: LatticeBasis):
    """|sup/sub| as an exact integer, or INFINITE when ranks differ.

    Raises NotASublattice when sub is not contained in sup.
    """
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coeff_rows = []
    for r in sub.rows():
        c = coordinates_in(r, sup)
        if c is None:
            raise NotASublattice(f"row {r} is not in the claimed superlattice")
        coeff_rows.append(c)
    if sub.rank < sup.rank:
        return INFINITE
    d = _bareiss_det([list(r) for r in coeff_rows])
    return abs(d)


def is_primitive(lattice: LatticeBasis) -> bool:
    """True iff the lattice is not m*M for any m >= 2 (rank 0 is not primitive)."""
    if lattice.rank == 0:
        return False
    g = 0
    for e in lattice.basis.entries:
        g = gcd(g, e)
        if g == 1:
            return True
    return g == 1


@dataclass(frozen=True)
class SmithDecomposition:
    """P @ C @ Q = D with P, Q unimodular and D diagonal, d_i | d_{i+1}."""

    P: IntMatrix
    D: IntMatrix
    Q: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(self.D.rows))


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form of a square matrix, with transforms accumulated."""
    if m.rows != m.cols:
        raise ValueError("snf wants a square matrix")
    n = m.rows
    a = [list(r) for r in m.to_rows()]
    p = [list(r) for r in IntMatrix.identity(n).to_rows()]
    q = [list(r) for r in IntMatrix.identity(n).to_rows()]

    def row_op(i, j, x, y, z, w):
        # rows (i, j) <- (x*row_i + y*row_j, z*row_i + w*row_j); same on p
        for arr in (a, p):
            ri, rj = arr[i], arr[j]
            for t in range(len(ri)):
                ri[t], rj[t] = x * ri[t] + y * rj[t], z * ri[t] + w * rj[t]

    def col_op(i, j, x, y, z, w):
        # cols (i, j) <- (x*col_i + y*col_j, z*col_i + w*col_j); same on q
        for arr in (a, q):
            for row in arr:
                row[i], row[j] = x * row[i] + y * row[j], z * row[i] + w * row[j]

    def clear_cross(t: int):
        """Zero out column t below and row t right of the pivot at (t, t)."""
        while True:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    x, y = a[t][t], a[i][t]
                    if y % x == 0:
                        row_op(t, i, 1, 0, -(y // x), 1)
                    else:
                        g, s, u = _xgcd(x, y)
                        row_op(t, i, s, u, -(y // g), x // g)
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    x, y = a[t][t], a[t][j]
                    if y % x == 0:
                        col_op(t, j, 1, 0, -(y // x), 1)
                    else:
                        g, s, u = _xgcd(x, y)
                        col_op(t, j, s, u, -(y // g), x // g)
            if all(a[i][t] == 0 for i in range(t + 1, n)) and all(
                a[t][j] == 0 for j in range(t + 1, n)
            ):
                return

    for t in range(n):
        best = None
        for i in range(t, n):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_op(t, bi, 0, 1, 1, 0)
        if bj != t:
            col_op(t, bj, 0, 1, 1, 0)
        while True:
            clear_cross(t)
            offender = None
            for i in range(t + 1, n):
                if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            # fold the offending row into row t so the next pass shrinks the pivot
            row_op(t, offender, 1, 1, 0, 1)
        if a[t][t] < 0:
            for arr in (a, p):
                arr[t] = [-x for x in arr[t]]

    P = IntMatrix.from_rows(p)
    Q = IntMatrix.from_rows(q)
    D = IntMatrix.from_rows(a)
    return SmithDecomposition(P, D, Q)
