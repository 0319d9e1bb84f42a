"""Polynomials over the two-element field and the factor structure of x^p - 1.

Polynomials are bit-packed integers (bit k is the x^k coefficient), as is
usual for GF(2) work.  x^p - 1 is factored from its cyclotomic cosets C
(the orbits of doubling on F_p^*) with no linear algebra: the idempotents
theta_C = sum_{c in C} x^c span the Berlekamp space {v : v^2 = v mod
x^p + 1}, so gcd splits by them yield the irreducible factors (MacWilliams
& Sloane, *The Theory of Error-Correcting Codes*, ch. 8).  The factor list
is ordered canonically: x + 1 first, then the remaining irreducible factors
ordered by the smallest exponent in their coset.  A factor is labelled by
its trace signature (theta_D mod f)_D, each entry 0 or 1; no two factors
share one, and the factor with root zeta^c, for zeta a root of the factor
of smallest bits, has that factor's signature read at the cosets c D.

The constructions downstream of the factorization -- the sign matrices
D_i, the mod-2 stable subspaces, and the binary sublattices of Z^p --
follow the i-th complementary product g_i = prod_{j != i} f_j.

A lattice L with 2 Z^n <= L <= Z^n is fixed by its mod-2 subspace
U = L / 2 Z^n: L is the preimage {v : v mod 2 in U}, of index 2^(n - dim U)
in Z^n.  The lattices here are held as U and written out by
:func:`preimage` with no integer elimination.  The preimage is spanned by
2 Z^n and the 0/1 lifts of a basis of U.  Take the reduced echelon basis
whose pivots are lowest bits.  The lift b_j pivoted at column j makes
2 e_j redundant (2 e_j is 2 b_j minus the 2 e_k at the later bits k of b_j),
so one row per column spans it: that lift, or 2 e_j where no basis vector
pivots.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._primes import is_prime, multiplicative_order
from .errors import CapExceeded, NotOddPrime
from .intmat import IntMatrix, LatticeBasis, _lattice, zero_lattice

SUBSET_CAP = 4096  # most component subsets enumerated by one call


@dataclass(frozen=True)
class GF2Poly:
    """Polynomial over GF(2), packed into an int (bit k <-> x^k)."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("negative bit pattern")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def coeff(self, k: int) -> int:
        return (self.bits >> k) & 1

    def coeffs(self, length: int | None = None) -> tuple[int, ...]:
        n = self.bits.bit_length() if length is None else length
        return tuple((self.bits >> k) & 1 for k in range(max(n, 1)))

    def __add__(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "GF2Poly") -> "GF2Poly":
        a, b = self.bits, other.bits
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        return GF2Poly(out)

    def __mod__(self, other: "GF2Poly") -> "GF2Poly":
        if other.bits == 0:
            raise ZeroDivisionError("mod by zero polynomial")
        a, b = self.bits, other.bits
        db = b.bit_length()
        shift = a.bit_length() - db
        while shift >= 0:
            a ^= b << shift
            shift = a.bit_length() - db
        return GF2Poly(a)

    def __floordiv__(self, other: "GF2Poly") -> "GF2Poly":
        if other.bits == 0:
            raise ZeroDivisionError("division by zero polynomial")
        a, b = self.bits, other.bits
        db = b.bit_length()
        q = 0
        shift = a.bit_length() - db
        while shift >= 0:
            q |= 1 << shift
            a ^= b << shift
            shift = a.bit_length() - db
        return GF2Poly(q)

    def gcd(self, other: "GF2Poly") -> "GF2Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a

    def coeff_string(self) -> str:
        """LSB-first coefficient string, e.g. x^3+x -> '0101'."""
        return "".join(str(c) for c in self.coeffs())


ONE = GF2Poly(1)
X_PLUS_1 = GF2Poly(3)


def ord2(p: int) -> int:
    """Multiplicative order of 2 modulo an odd prime p."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    return multiplicative_order(2, p)


def _cyclotomic_cosets(p: int) -> list[frozenset]:
    """Orbits of multiplication by 2 on F_p^*, ordered by smallest element."""
    seen = set()
    cosets = []
    for t in range(1, p):
        if t in seen:
            continue
        orbit = set()
        c = t
        while c not in orbit:
            orbit.add(c)
            c = 2 * c % p
        seen |= orbit
        cosets.append(frozenset(orbit))
    return sorted(cosets, key=min)


@dataclass(frozen=True)
class CyclotomicFactorization:
    """x^p - 1 = prod factors over GF(2), with coset labels.

    factors[0] is x + 1 (labelled by the exponent coset {0}); the factor
    labelled by coset C has roots {zeta^c : c in C} for the anchored
    primitive p-th root zeta.
    """

    p: int
    d: int
    factors: tuple[GF2Poly, ...]
    cosets: tuple[frozenset, ...]

    def complementary_product(self, i: int) -> GF2Poly:
        """g_i = product of all factors except the i-th."""
        out = ONE
        for j, f in enumerate(self.factors):
            if j != i:
                out = out * f
        return out


def factor_xp_minus_1(p: int) -> CyclotomicFactorization:
    """Deterministic factorization of x^p - 1 over GF(2), coset-labelled.

    Phi_p = (x^p + 1)/(x + 1) is split by gcd(f, theta_C mod f) over the
    coset idempotents theta_C = sum_{c in C} x^c.  They span the Berlekamp
    space {v : v^2 = v mod x^p + 1}, so theta_C is 0 or 1 modulo each
    irreducible factor and together they tell every two factors apart.  Each
    irreducible factor of Phi_p has degree d = ord2(p), so a factor of degree
    d is left unsplit.

    A factor f is known by its trace signature (theta_D mod f)_D.  With the
    anchor the factor of smallest bits and zeta = x mod the anchor,
    theta_D(zeta^a) = Tr(zeta^(a e)) for any e in D, so the factor with root
    zeta^c has the anchor's signature read at the coset of c e.
    """
    d = ord2(p)  # validates p
    total = GF2Poly((1 << p) | 1)  # x^p + 1
    cosets = _cyclotomic_cosets(p)
    thetas = [GF2Poly(sum(1 << c for c in coset)) for coset in cosets]
    raw = [total // X_PLUS_1]
    for theta in thetas:
        parts = []
        for f in raw:
            a = f.gcd(theta % f) if f.degree > d else ONE
            parts += [f] if a.degree in (0, f.degree) else [a, f // a]
        raw = parts
    if any(f.degree != d for f in raw):
        raise AssertionError("nontrivial factor of unexpected degree")
    if len(cosets) != len(raw):
        raise AssertionError("coset count does not match factor count")
    signature = {f: tuple((theta % f).bits for theta in thetas) for f in raw}
    by_signature = {s: f for f, s in signature.items()}
    if len(by_signature) != len(raw):
        raise AssertionError("two factors share a trace signature")
    trace = signature[min(raw, key=lambda f: f.bits)]  # the anchor's
    coset_of = {c: i for i, coset in enumerate(cosets) for c in coset}
    labelled = []
    for coset in cosets:
        c = min(coset)
        f = by_signature.get(tuple(trace[coset_of[c * min(other) % p]] for other in cosets))
        if f is None:
            raise AssertionError("no factor has a coset's trace signature")
        labelled.append(f)
    factors = (X_PLUS_1, *labelled)
    prod = ONE
    for f in factors:
        prod = prod * f
    if prod != total:
        raise AssertionError("factor product does not reconstitute x^p + 1")
    return CyclotomicFactorization(p, d, factors, (frozenset({0}), *cosets))


# --- mod-2 subspaces -------------------------------------------------------


def _rref_masks(masks: list[int]) -> list[int]:
    """Reduced echelon basis of a span of bitmask vectors, canonical order."""
    basis: list[int] = []  # fully reduced, pivots descending
    for m in masks:
        cur = m
        for b in basis:
            if cur >> (b.bit_length() - 1) & 1:
                cur ^= b
        if cur == 0:
            continue
        piv = cur.bit_length() - 1
        basis = [b ^ cur if b >> piv & 1 else b for b in basis]
        basis.append(cur)
        basis.sort(key=lambda x: -x.bit_length())
    return basis


def preimage(masks, n: int) -> LatticeBasis:
    """The lattice {v in Z^n : v mod 2 in span(masks)}, in canonical HNF.

    Row j is the 0/1 lift of the reduced echelon basis vector whose lowest
    set bit is j, or 2 e_j when no basis vector pivots at j.  This is
    already the canonical HNF: the rows are upper triangular with pivots 1
    and 2, and every entry above a pivot lies in [0, pivot) -- it is 0 above
    a pivot 1, as the echelon basis is reduced, and 0 or 1 above a pivot 2.
    """
    if any(m < 0 or m >> n for m in masks):
        raise ValueError(f"mask wider than {n} bits")

    def flip(m: int) -> int:  # bit k <-> bit n - 1 - k, so _rref_masks pivots on the lowest bit
        return int(format(m, f"0{n}b")[::-1], 2)

    by_pivot = {(m & -m).bit_length() - 1: m for m in map(flip, _rref_masks([flip(m) for m in masks]))}
    rows = [
        tuple(by_pivot[j] >> k & 1 for k in range(n)) if j in by_pivot else tuple(2 * (k == j) for k in range(n))
        for j in range(n)
    ]
    return _lattice(rows, n)


def cp_stable_subspaces(p: int) -> dict[frozenset, tuple[int, ...]]:
    """The stable subspaces of F_2^p under the cyclic coordinate shift.

    Maps each subset S of the components {0, .., (p-1)/d}, in the bit order
    of its mask, to the reduced echelon mask basis of the sum of its
    components.  Component i is spanned by the shifts of g_i; component 0 is
    the all-ones line, and all nonzero components sum to the even-weight
    subspace.  Raises CapExceeded when there are more than SUBSET_CAP subsets.
    """
    fact = factor_xp_minus_1(p)
    m = len(fact.factors)
    if 2**m > SUBSET_CAP:
        raise CapExceeded("subset enumeration", SUBSET_CAP)
    full = (1 << p) - 1
    components = []
    for i, f in enumerate(fact.factors):
        g = fact.complementary_product(i).bits
        basis = _rref_masks([((g << k) | (g >> (p - k))) & full for k in range(f.degree)])
        if len(basis) != f.degree:
            raise AssertionError("component dimension mismatch")
        components.append(basis)
    subsets = [[i for i in range(m) if bits >> i & 1] for bits in range(2**m)]
    return {frozenset(s): tuple(_rref_masks([b for i in s for b in components[i]])) for s in subsets}


def diag_generators(p: int) -> tuple[IntMatrix, ...]:
    """Sign matrices D_i: -1 exactly where g_i has coefficient 1."""
    fact = factor_xp_minus_1(p)
    out = []
    for i in range(len(fact.factors)):
        g = fact.complementary_product(i)
        diag = tuple(-1 if g.coeff(k) else 1 for k in range(p))
        out.append(IntMatrix.diagonal(diag))
    return tuple(out)


def binary_sublattices(p: int) -> dict[frozenset, LatticeBasis]:
    """The sublattice for each subset S of the components, indexed by S.

    It is spanned by 2 Z^p and the cyclic shifts of v_i, the 0/1 coefficient
    vector of g_i, for i in S, so it is the :func:`preimage` of the subspace
    of S (the zero lattice for the empty S).  These are the primitive
    sublattices of a monomial group containing all sign matrices and a p-cycle.
    """
    return {s: preimage(basis, p) if s else zero_lattice(p) for s, basis in cp_stable_subspaces(p).items()}
