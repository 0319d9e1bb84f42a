"""Monomial (signed permutation) groups and the prime-dimension sublattice analysis.

A monomial group is a :class:`~glattice.matgroup.MatGroup` whose
generators are signed-permutation matrices D(signs) P(perm), with
P e_i = e_{perm[i]}, acting on column vectors.  Vector orbits, which for
binary vectors in dimension p can reach size 2^p, run on the compiled
orbit kernel of :mod:`matgroup`, in which each coordinate of a
signed-permutation image is one copied or negated entry.  The two closures
-- the permutation image and the group whose diagonal part is read off --
are listed coset by coset by :func:`matgroup._group_closure`: a coset of
the group built so far is new exactly when its rep is, and the cosets
partition the group, so no element is tested for membership on its own.
Both multiply on the left through lookup kernels on n-int tuples: the
permutation image on permutations of range(n), the matrix closure on
column indices into the signed unit vectors +-e_j that the group reaches
(at most 2n points).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CapExceeded, HypothesisNotMet
from .gf2cyclo import _rref_masks, preimage
from .intmat import (
    IntMatrix,
    LatticeBasis,
    full_lattice,
    hnf_from_rows,
    member,
    unit_vector,
)
from .matgroup import DEFAULT_CAP, MatGroup, _group_closure, _lookup_kernel, closure


def signed_permutation(signs, perm) -> IntMatrix:
    """The matrix D(signs) P(perm): column i is signs[perm[i]] e_{perm[i]}."""
    n = len(signs)
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1")
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[j][i] = signs[j]
    return IntMatrix.from_rows(rows)


def cycle_matrix(n: int) -> IntMatrix:
    """The n-cycle e_i -> e_{i+1 mod n} with all signs positive."""
    return signed_permutation((1,) * n, tuple((i + 1) % n for i in range(n)))


def full_monomial_group(n: int) -> MatGroup:
    """Generators of the full monomial group (order 2^n n!): cycle, transposition, sign flip."""
    ident = tuple(range(n))
    gens = [cycle_matrix(n), signed_permutation(tuple(-1 if k == 0 else 1 for k in ident), ident)]
    if n >= 2:
        gens.insert(1, signed_permutation((1,) * n, (1, 0) + ident[2:]))
    return MatGroup(n, tuple(gens))


@dataclass(frozen=True)
class PiSummary:
    """Image of a monomial group in the permutation group."""

    order: int
    has_n_cycle: bool


def _permutation(h: IntMatrix) -> tuple[int, ...]:
    """perm with h = D(signs) P(perm); HypothesisNotMet unless h is a signed permutation.

    A unimodular matrix whose every column has one nonzero entry, +-1, is a
    signed permutation, and every generator of a MatGroup is unimodular.
    """
    perm = []
    for j in range(h.cols):
        col = [i for i in range(h.rows) if h[i, j]]
        if len(col) != 1 or h[col[0], j] not in (1, -1):
            raise HypothesisNotMet("generator is not a signed permutation")
        perm.append(col[0])
    return tuple(perm)


def project_pi(g: MatGroup, cap: int = DEFAULT_CAP) -> PiSummary:
    """Closure of the permutation parts, with n-cycle detection.

    Listed coset by coset by :func:`matgroup._group_closure`, with one
    lookup kernel per generator perm that sends cur to the composite
    perm o cur, with entries perm[cur[i]], a left multiplication.
    """
    n = g.dim
    bind = _lookup_kernel(n)
    kernels = [bind(_permutation(h)) for h in g.generators]
    seen, complete = _group_closure(kernels, tuple(range(n)), cap)
    if not complete:
        raise CapExceeded("permutation closure", cap)
    has_cycle = any(_is_n_cycle(p) for p in seen)
    return PiSummary(len(seen), has_cycle)


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


def o2_diagonal_part(g: MatGroup, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Sign subspace of the diagonal part G /\\ D_n, as a bitmask basis.

    Requires n odd and an n-cycle in the permutation image; under those
    hypotheses the maximal normal 2-subgroup consists exactly of the
    diagonal elements, so its sign patterns form the returned subspace.
    Those are the elements of the matrix closure with no zero on the
    diagonal.
    """
    if g.dim % 2 == 0:
        raise HypothesisNotMet("dimension must be odd")
    if not project_pi(g, cap).has_n_cycle:
        raise HypothesisNotMet("permutation image contains no n-cycle")
    n = g.dim
    diagonals = (e[:: n + 1] for e in closure(g, cap)[0])
    masks = [sum(1 << i for i, s in enumerate(d) if s == -1) for d in diagonals if all(d)]
    return tuple(_rref_masks(masks))


def support_reduce(l: LatticeBasis, n: int) -> tuple[int, ...]:
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
    for r in l.rows():
        if not member(r[-1:] + r[:-1], l):
            raise HypothesisNotMet("lattice is not shift-stable")
    # binary vectors of l = 0/1 lifts of its mod-2 row space
    masks = _rref_masks(
        [sum((e & 1) << i for i, e in enumerate(r)) for r in l.rows()]
    )
    full_ones = (1 << n) - 1
    nonconstant = [m for m in masks if m not in (0, full_ones)]
    if not nonconstant:
        raise HypothesisNotMet("lattice is 0 or generated by the all-ones vector")

    def mask_to_vec(m: int) -> tuple[int, ...]:
        return tuple((m >> i) & 1 for i in range(n))

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
    witness: tuple[int, ...]
    orbit_size: int
    spans: bool


@dataclass(frozen=True)
class ThreeSublatticeReport:
    p: int
    rows: tuple[ThreeSublatticeRow, ...]
    inequality_holds: bool  # the L_E orbit, 2p(p-1), is smaller than the L_1 orbit, 2^p: true for p >= 7


def _lattice_e(n: int) -> LatticeBasis:
    """The even-weight lattice: the preimage of the span of the masks e_j + e_{j+1}."""
    return preimage([3 << j for j in range(n - 1)], n)


def _lattice_ones(n: int) -> LatticeBasis:
    """2 Z^n plus the all-ones vector: the preimage of the all-ones line."""
    return preimage([(1 << n) - 1], n)


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
    e12 = (1, 1) + (0,) * (p - 2)
    ones = (1,) * p
    # span certificates from canonical orbit members
    span_full = hnf_from_rows([unit_vector(p, i) for i in range(p)], p)
    le = _lattice_e(p)
    span_e = hnf_from_rows(
        [tuple(1 if k in (j, j + 1) else 0 for k in range(p)) for j in range(p - 1)]
        + [(1, -1) + (0,) * (p - 2)],
        p,
    )
    lo = _lattice_ones(p)
    span_ones = hnf_from_rows(
        [ones] + [tuple(1 if k != j else -1 for k in range(p)) for j in range(p)], p
    )
    rows = (
        ThreeSublatticeRow("Z^p", e1, full_monomial_orbit_size_binary(p, 1), span_full == full_lattice(p)),
        ThreeSublatticeRow("L_E", e12, full_monomial_orbit_size_binary(p, 2), span_e == le),
        ThreeSublatticeRow("L_1", ones, full_monomial_orbit_size_binary(p, p), span_ones == lo),
    )
    return ThreeSublatticeReport(p, rows, rows[1].orbit_size < rows[2].orbit_size)
