"""Monomial (signed permutation) groups and the prime-dimension sublattice analysis.

Elements are stored structurally as (signs, permutation) pairs.  Vector
orbits, which for binary vectors in dimension p can reach size 2^p, and the
two closures -- the permutation image and the group whose diagonal part is
read off -- run on the orbit kernel of :mod:`matgroup`, which touches only
the one nonzero entry in each moved row of a signed permutation.  Dense
matrices are available on demand.

The convention is that ``(signs, perm)`` denotes D(signs) P(perm) with
P e_i = e_{perm[i]}, acting on column vectors; the test suite checks
:meth:`MonomialElement.matrix` and composition against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CapExceeded, HypothesisNotMet
from .gf2cyclo import _rref_masks
from .intmat import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    as_vector,
    full_lattice,
    hnf_from_rows,
    member,
    ones_vector,
    unit_vector,
)
from .matgroup import DEFAULT_CAP, MatGroup, _orbit_bfs, closure


@dataclass(frozen=True)
class MonomialElement:
    """Signed permutation: the matrix D(signs) P(perm)."""

    signs: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.signs)
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.signs)

    @classmethod
    def identity(cls, n: int) -> "MonomialElement":
        return cls((1,) * n, tuple(range(n)))

    def inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, j in enumerate(self.perm):
            inv[j] = i
        return tuple(inv)

    def apply(self, v) -> IntVector:
        """(D P) v: coordinate j receives signs[j] * v[perm^-1(j)]."""
        vv = as_vector(v)
        inv = self.inverse_perm()
        return IntVector(tuple(self.signs[j] * vv[inv[j]] for j in range(self.n)))

    def matrix(self) -> IntMatrix:
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[self.perm[i]][i] = self.signs[self.perm[i]]
        return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class MonomialGroup:
    """Subgroup of the monomial group given by structural generators."""

    n: int
    generators: tuple[MonomialElement, ...]
    label: str | None = None

    def __post_init__(self):
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator size mismatch")

    def matgroup(self) -> MatGroup:
        return MatGroup(self.n, tuple(g.matrix() for g in self.generators), label=self.label)


def cycle_element(n: int) -> MonomialElement:
    """The n-cycle i -> i+1 (mod n) with all signs positive."""
    return MonomialElement((1,) * n, tuple((i + 1) % n for i in range(n)))


def transposition_element(n: int, i: int = 0, j: int = 1) -> MonomialElement:
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    return MonomialElement((1,) * n, tuple(perm))


def sign_flip_element(n: int, i: int = 0) -> MonomialElement:
    return MonomialElement(tuple(-1 if k == i else 1 for k in range(n)), tuple(range(n)))


def diagonal_element(diag: IntMatrix) -> MonomialElement:
    n = diag.rows
    return MonomialElement(tuple(diag[i, i] for i in range(n)), tuple(range(n)))


def full_monomial_group(n: int) -> MonomialGroup:
    """Generators of the full monomial group (order 2^n n!)."""
    gens = [cycle_element(n), sign_flip_element(n)]
    if n >= 2:
        gens.insert(1, transposition_element(n))
    return MonomialGroup(n, tuple(gens), label=f"Mon_{n}")


def vector_orbit(g: MonomialGroup, v, cap: int = DEFAULT_CAP) -> frozenset:
    """Orbit of a vector (deterministic BFS through the matrix orbit kernel)."""
    seen, complete = _orbit_bfs(g.matgroup().moves, as_vector(v).entries, cap)
    if not complete:
        raise CapExceeded("monomial orbit", cap)
    return frozenset(seen)


@dataclass(frozen=True)
class PiSummary:
    """Image of a monomial group in the permutation group."""

    order: int
    has_n_cycle: bool
    generator_perms: tuple[tuple[int, ...], ...]


def project_pi(g: MonomialGroup, cap: int = DEFAULT_CAP) -> PiSummary:
    """Closure of the permutation parts, with n-cycle detection.

    Runs on the orbit kernel: the identity permutation is moved by the
    matrices with row i equal to e_{perm[i]}, which send cur to the
    composite with entries cur[perm[i]].
    """
    n = g.n
    gens = [e.perm for e in g.generators]
    mats = [IntMatrix.from_rows([[int(j == p[i]) for j in range(n)] for i in range(n)]) for p in gens]
    seen, complete = _orbit_bfs(MatGroup(n, mats).moves, tuple(range(n)), cap)
    if not complete:
        raise CapExceeded("permutation closure", cap)
    has_cycle = any(_is_n_cycle(p) for p in seen)
    return PiSummary(len(seen), has_cycle, tuple(gens))


def _is_n_cycle(perm: tuple[int, ...]) -> bool:
    n = len(perm)
    c = perm[0]
    count = 1
    while c != 0:
        c = perm[c]
        count += 1
        if count > n:
            return False
    return count == n


def o2_diagonal_part(g: MonomialGroup, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Sign subspace of the diagonal part G /\\ D_n, as a bitmask basis.

    Requires n odd and an n-cycle in the permutation image; under those
    hypotheses the maximal normal 2-subgroup consists exactly of the
    diagonal elements, so its sign patterns form the returned subspace.
    Those are the elements of the matrix closure with no zero on the
    diagonal.
    """
    if g.n % 2 == 0:
        raise HypothesisNotMet("dimension must be odd")
    if not project_pi(g, cap).has_n_cycle:
        raise HypothesisNotMet("permutation image contains no n-cycle")
    n = g.n
    diagonals = (e[:: n + 1] for e in closure(g.matgroup(), cap)[0])
    masks = [sum(1 << i for i, s in enumerate(d) if s == -1) for d in diagonals if all(d)]
    return tuple(_rref_masks(masks))


def support_reduce(l: LatticeBasis, n: int) -> IntVector:
    """A binary vector of l with support at most floor(2n/3).

    Preconditions (checked): l is primitive of positive rank, contains
    2 Z^n, is stable under the cyclic coordinate shift, and is neither 0
    nor the lattice generated by the all-ones vector.  The reduction step
    XORs a vector with a cyclic shift of itself (their sum minus twice the
    overlap), which strictly shrinks support while it exceeds 2n/3.
    """
    target = (2 * n) // 3
    if l.ambient_dim != n or l.rank == 0:
        raise HypothesisNotMet("lattice must have positive rank in Z^n")
    for j in range(n):
        if not member(tuple(2 if k == j else 0 for k in range(n)), l):
            raise HypothesisNotMet("lattice does not contain 2 Z^n")
    shift = cycle_element(n)
    for r in l.rows():
        if not member(shift.apply(r), l):
            raise HypothesisNotMet("lattice is not shift-stable")
    # binary vectors of l = 0/1 lifts of its mod-2 row space
    masks = _rref_masks(
        [sum((e & 1) << i for i, e in enumerate(r)) for r in l.rows()]
    )
    full_ones = (1 << n) - 1
    nonconstant = [m for m in masks if m not in (0, full_ones)]
    if not nonconstant:
        raise HypothesisNotMet("lattice is 0 or generated by the all-ones vector")

    def mask_to_vec(m: int) -> IntVector:
        return IntVector(tuple((m >> i) & 1 for i in range(n)))

    def weight(m: int) -> int:
        return bin(m).count("1")

    cur = min(nonconstant, key=lambda m: (weight(m), m))
    for _ in range(n + 1):
        if weight(cur) <= target:
            v = mask_to_vec(cur)
            if not member(v, l):
                raise AssertionError("binary lift left the lattice")
            return v
        shifted = ((cur << 1) | (cur >> (n - 1))) & full_ones
        if shifted == cur:  # constant masks cannot reach here (weight n filtered)
            raise AssertionError("shift-invariant vector in reduction loop")
        cur = cur ^ shifted
    raise AssertionError("support reduction made no progress")


def full_monomial_orbit_size_binary(n: int, support: int) -> int:
    """Exact orbit size of a binary vector with given support under Mon_n."""
    if support == 0:
        return 1
    return 2**support * comb(n, support)


@dataclass(frozen=True)
class ThreeSublatticeRow:
    lattice_label: str
    witness: IntVector
    orbit_size: int
    spans: bool


@dataclass(frozen=True)
class ThreeSublatticeReport:
    p: int
    rows: tuple[ThreeSublatticeRow, ...]
    middle_orbit: int  # 2p(p-1)
    two_to_p: int
    inequality_holds: bool  # 2p(p-1) < 2^p, true for p >= 7


def _lattice_e(n: int) -> LatticeBasis:
    rows = [tuple(1 if k in (j, j + 1) else 0 for k in range(n)) for j in range(n - 1)]
    rows.append(tuple(2 if k == 0 else 0 for k in range(n)))
    return hnf_from_rows(rows, n)


def _lattice_ones(n: int) -> LatticeBasis:
    rows = [(1,) * n] + [tuple(2 if k == j else 0 for k in range(n)) for j in range(n)]
    return hnf_from_rows(rows, n)


def three_sublattice_report(p: int) -> ThreeSublatticeReport:
    """The three-sublattice generating-orbit table in prime dimension p.

    Orbit sizes are computed by the exact combinatorial formula for the
    full monomial group (validated against BFS at p = 7 in the tests);
    spans are certified by explicit small generating subsets of each
    orbit, so no 2^p enumeration is needed.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    e1 = unit_vector(p, 0)
    e12 = IntVector(tuple(1 if k < 2 else 0 for k in range(p)))
    ones = ones_vector(p)
    # span certificates from canonical orbit members
    span_full = hnf_from_rows([unit_vector(p, i).entries for i in range(p)], p)
    le = _lattice_e(p)
    span_e = hnf_from_rows(
        [tuple(1 if k in (j, j + 1) else 0 for k in range(p)) for j in range(p - 1)]
        + [(1, -1) + (0,) * (p - 2)],
        p,
    )
    lo = _lattice_ones(p)
    span_ones = hnf_from_rows(
        [ones.entries] + [tuple(1 if k != j else -1 for k in range(p)) for j in range(p)], p
    )
    rows = (
        ThreeSublatticeRow("Z^p", e1, full_monomial_orbit_size_binary(p, 1), span_full == full_lattice(p)),
        ThreeSublatticeRow("L_E", e12, full_monomial_orbit_size_binary(p, 2), span_e == le),
        ThreeSublatticeRow("L_1", ones, full_monomial_orbit_size_binary(p, p), span_ones == lo),
    )
    middle = 2 * p * (p - 1)
    return ThreeSublatticeReport(p, rows, middle, 2**p, middle < 2**p)
