"""Exact big-integer inequality engine for the prime-dimension case analysis.

Every check is integer arithmetic.  The two inequality cases that involve
log2 terms (the projective-linear socle cases) are evaluated in the
exponent domain with fixed-point dyadic upper bounds on the logarithms:
``log2 x <= ceil(2^f log2 x) / 2^f``.  The bound is computed by Knuth's
binary-logarithm squaring (TAOCP Vol. 1, 1.2.2): write x = 2^e m with
1 <= m < 2; each squaring of the mantissa yields the next bit of log2 m
(m^2 >= 2 gives a one, and m is halved).  The mantissa is carried as a
fixed-point interval [lo, hi] / 2^96, rounded down and up, so a bit is
taken only when the whole interval lies on one side of 2; if it straddles
2 the routine falls back to the exact ``ceil_log2(x ** 2^f)``.  When x is
not a power of two, 2^f log2 x is not an integer (x^b = 2^a forces x to be
a power of two), so the ceiling is the floor the bits give, plus one.  The
result is therefore always exact, and rounding is outward: whenever a
verdict says "holds" the underlying real inequality holds; the reported
thresholds can exceed the true crossover by at most the rounding
granularity (2^-12 here keeps them within a few primes).

The metacyclic cases II.i and II.ii read 2^p >= 2^k M, with
k = ell (p-1)/a + 1 and M = p^2 (p-1) for II.i and k = floor(2p/3) and
M = a p (p-1) for II.ii.  Since 2^k > 0, this holds exactly when
2^(p-k) >= M, that is when p - k >= ceil_log2(M) (``pow2_at_least``), so
the decision forms no integer wider than M, about 3 log2 p bits.  Only
``prime_case_check`` and ``mon_metacyclic_bound`` form 2^p and 2^k M, to
report them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd

from ._primes import ceil_log2, is_prime, pow2_at_least, prime_power, prime_powers_upto, primes_upto
from .errors import HorizonTooSmall, InvalidCase, NotOddPrime, NotPrimePower

LOG_FRAC_BITS = 12
_WORK_BITS = 96  # fixed-point bits of the mantissa interval in log2_fixed_upper
CASES = ("II.i", "II.ii", "III.i", "III.ii")


def _log2_interval(x: int, bits: int) -> int | None:
    """ceil(2^LOG_FRAC_BITS log2 x) for x >= 1, from a ``bits``-bit interval on the
    mantissa; None when the interval straddles 2 at some squaring."""
    e = x.bit_length() - 1
    if x & (x - 1) == 0:
        return e << LOG_FRAC_BITS
    two = 2 << bits
    if e <= bits:
        lo = hi = x << (bits - e)
    else:
        lo = x >> (e - bits)
        hi = lo + (lo << (e - bits) != x)
    k = e
    for _ in range(LOG_FRAC_BITS):
        lo = (lo * lo) >> bits
        hi = -((-hi * hi) >> bits)
        k <<= 1
        if lo >= two:
            k |= 1
            lo >>= 1
            hi = (hi + 1) >> 1
        elif hi >= two:
            return None
    return k + 1


def log2_fixed_upper(x: int) -> int:
    """Smallest k with k / 2^LOG_FRAC_BITS >= log2(x), for x >= 1."""
    if x < 1:
        raise ValueError("log2 of a nonpositive integer")
    k = _log2_interval(x, _WORK_BITS)
    return ceil_log2(x ** (1 << LOG_FRAC_BITS)) if k is None else k


@dataclass(frozen=True)
class BoundVerdict:
    """One row of an inequality case analysis.

    ``holds`` is True iff lhs >= rhs.  For the exponent-domain cases III.i
    and III.ii the sides are integer exponents scaled by
    2^(2 * ``LOG_FRAC_BITS``); for the pure-integer cases they are the
    actual quantities.
    """

    label: str
    lhs: int
    rhs: int
    holds: bool


def psl_order(m: int, q: int) -> int:
    """Order of the projective special linear group PSL_m(q), exact."""
    if m < 2:
        raise ValueError("m must be at least 2")
    if prime_power(q) is None:
        raise NotPrimePower(f"{q} is not a prime power")
    prod = 1
    for i in range(2, m + 1):
        prod *= q**i - 1
    return q ** (m * (m - 1) // 2) * prod // gcd(m, q - 1)


def _require_odd_prime(p: int):
    if p < 3 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")


def prime_case_check(p: int, a: int, ell: int, case: str) -> BoundVerdict:
    """One inequality of the prime-dimension case analysis.

    Case II covers metacyclic permutation images, case III projective
    socles; subcase .i takes ell <= a-1 (with ell = a-1 the worst case),
    subcase .ii takes ell = a.  Cases II.i and III.i require a | p - 1.
    """
    _require_odd_prime(p)
    _require_case(a, case)
    if case.endswith(".i"):
        if not 0 <= ell <= a - 1:
            raise InvalidCase(f"case {case} needs 0 <= ell <= a-1")
        if (p - 1) % a != 0:
            raise InvalidCase(f"case {case} needs a | p-1")
    elif ell != a:
        raise InvalidCase(f"case {case} is the ell = a subcase")
    lhs, rhs = _metacyclic_sides(p, a, ell, case) if case.startswith("II.") else _projective_sides(p, a, case)
    return BoundVerdict(case, lhs, rhs, _case_holds(p, a, ell, case))


def _require_case(a: int, case: str):
    if case not in CASES:
        raise InvalidCase(f"unknown case {case!r}")
    if a < 1:
        raise ValueError("a must be positive")


def _metacyclic_exponents(p: int, a: int, ell: int, case: str) -> tuple[int, int]:
    """(k, M) with the case-II inequality 2^p >= 2^k M.

    II.i (a | p - 1): k = ell (p-1)/a + 1 and M = p^2 (p-1);
    II.ii: k = floor(2p/3) and M = a p (p-1).
    """
    if case == "II.i":
        return ell * (p - 1) // a + 1, p * p * (p - 1)
    return 2 * p // 3, a * p * (p - 1)


def _metacyclic_sides(p: int, a: int, ell: int, case: str) -> tuple[int, int]:
    """2^p and 2^k M, the two sides of a case-II inequality, as integers (for reporting only)."""
    k, m = _metacyclic_exponents(p, a, ell, case)
    return 1 << p, m << k


@cache
def _prime_logs(p: int) -> tuple[int, int, int]:
    """(ku, kw, kv): outward-rounded logs of p, scaled by 2^f, shared by cases III.i and III.ii."""
    f = LOG_FRAC_BITS
    ku = log2_fixed_upper(p * p + 1)  # >= 2^f log2(p^2+1)
    kw = log2_fixed_upper(p)  # >= 2^f log2 p
    # log2(log2 p) <= log2(kw / 2^f) = log2(kw) - f, rounded up
    kv = log2_fixed_upper(kw) - (f << f)
    return ku, kw, kv


def _projective_sides(p: int, a: int, case: str) -> tuple[int, int]:
    """The sides of case III.i or III.ii: exponents with outward-rounded logs, scaled by 2^(2f)."""
    f = LOG_FRAC_BITS
    ku, kw, kv = _prime_logs(p)
    if case == "III.i":
        return ((p - 1) // a) << (2 * f), ku * ku + (kv << f) + (kw << f)
    ka = log2_fixed_upper(a) if a > 1 else 0
    return p << (2 * f), 3 * ((ka << f) + ku * ku + (kv << f))


def _case_holds(p: int, a: int, ell: int, case: str) -> bool:
    """Whether the case inequality holds, for an odd prime p and a valid a, ell and case; case II forms neither side."""
    if case.startswith("II."):
        k, m = _metacyclic_exponents(p, a, ell, case)
        return pow2_at_least(p - k, m)
    lhs, rhs = _projective_sides(p, a, case)
    return lhs >= rhs


def _default_ell(a: int, case: str) -> int:
    return a - 1 if case.endswith(".i") else a


@dataclass(frozen=True)
class ThresholdReport:
    case: str
    a: int
    threshold: int  # smallest prime from which the inequality holds up to horizon
    horizon: int
    anomalies: tuple[int, ...]  # primes below threshold where it nevertheless holds


def min_threshold(a: int, case: str, horizon: int = 10007) -> ThresholdReport:
    """Smallest prime P such that the case inequality holds for every prime
    in [P, horizon]; primes below P that hold anyway are reported, not hidden.
    """
    _require_case(a, case)
    ell = _default_ell(a, case)
    verdicts = []
    for p in primes_upto(horizon):
        if p == 2:
            continue
        if case.endswith(".i") and (p - 1) % a != 0:
            continue
        verdicts.append((p, _case_holds(p, a, ell, case)))
    if not verdicts or not verdicts[-1][1]:
        raise HorizonTooSmall(f"inequality does not hold at the horizon {horizon}")
    threshold = None
    for p, ok in reversed(verdicts):
        if not ok:
            break
        threshold = p
    anomalies = tuple(p for p, ok in verdicts if ok and p < threshold)
    return ThresholdReport(case, a, threshold, horizon, anomalies)


def mon_metacyclic_bound(p: int, ell: int, a: int) -> BoundVerdict:
    """Metacyclic-image bound: 2^{ell(p-1)/a + 1} p^2 (p-1) against 2^p."""
    _require_odd_prime(p)
    if a < 1:
        raise ValueError("a must be positive")
    if (p - 1) % a != 0:
        raise ValueError("a must divide p - 1")
    if not 0 <= ell <= a:
        raise ValueError("ell out of range")
    lhs, rhs = _metacyclic_sides(p, a, ell, "II.i")
    return BoundVerdict("metacyclic", lhs, rhs, _case_holds(p, a, ell, "II.i"))


@dataclass(frozen=True)
class PrimeOfForm:
    p: int
    q: int
    m: int


def prime_of_form(q_max: int, m_max: int) -> list[PrimeOfForm]:
    """All primes p = (q^m - 1)/(q - 1) with q <= q_max a prime power, m >= 2."""
    if q_max < 2 or m_max < 2:
        raise ValueError("bounds must be at least 2")
    out = []
    for q in prime_powers_upto(q_max):
        for m in range(2, m_max + 1):
            p = (q**m - 1) // (q - 1)
            if is_prime(p):
                out.append(PrimeOfForm(p, q, m))
    out.sort(key=lambda t: (t.p, t.q, t.m))
    return out
