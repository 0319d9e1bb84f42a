"""Exact integer vectors, matrices, and lattice normal forms.

All arithmetic is arbitrary precision (plain Python ints); no floating
point appears anywhere in this module. Every public object is immutable
after construction and every operation is a pure function, so values can
be shared freely between threads.  Hermite normal form by row insertion
is the only elimination: rank, membership, index, inverse and the
unimodularity test all go through it.

Conventions fixed here and relied on everywhere else:

* vectors are column vectors and a matrix acts on the left; group
  generators act through the kernel compiled from their entries
  (``MatGroup.images`` in :mod:`matgroup`), not through a matrix-vector
  product here;
* a lattice is stored as the rows of a basis matrix in row-style Hermite
  normal form: pivots positive, zeros below each pivot, entries above a
  pivot reduced into ``[0, pivot)``.  The HNF basis is a unique canonical
  form, so two lattices are equal iff their ``LatticeBasis`` are equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

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

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e)


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

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i)
        )

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and hnf(self).is_full()

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


def index(sub: LatticeBasis, sup: LatticeBasis) -> int:
    """|sup/sub| as an exact integer, for sub inside sup and of the same rank.

    Raises NotASublattice when sub is not contained in sup, and ValueError
    when the ranks differ (the index is then infinite).  Nested lattices of
    equal rank span the same rational space, so their HNF bases share
    pivot columns and the coordinate matrix of sub in sup is triangular:
    the index is the product over i of sub's pivot i over sup's pivot i.
    """
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    for r in sub.rows():
        if coordinates_in(r, sup) is None:
            raise NotASublattice(f"row {r} is not in the claimed superlattice")
    if sub.rank != sup.rank:
        raise ValueError("a lattice of lower rank has infinite index")
    return prod(
        sub.basis[i, c] // sup.basis[i, c] for i, c in enumerate(_pivot_columns(sup.basis))
    )
