"""Primality, prime powers, and small number-theoretic helpers.

The Miller-Rabin test below is deterministic for all n < 3.3 * 10^24
(first twelve prime bases), which comfortably covers every integer this
package ever tests for primality.
"""
from __future__ import annotations

from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are modest)."""
    if n < 1:
        raise ValueError("factorize wants a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """(u, t) with q = u^t and u prime, or None if q is not a prime power."""
    if q < 2:
        return None
    f = factorize(q)
    if len(f) != 1:
        return None
    [(u, t)] = f.items()
    return u, t


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers q with 2 <= q <= limit, ascending."""
    out = []
    for p in primes_upto(limit):
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


def multiplicative_order(a: int, n: int) -> int:
    """Least d >= 1 with a^d = 1 mod n (requires gcd(a, n) = 1)."""
    if gcd(a, n) != 1:
        raise ValueError("order undefined: arguments not coprime")
    d = 1
    x = a % n
    while x != 1:
        x = x * a % n
        d += 1
    return d


def ceil_log2(x: int) -> int:
    """Smallest k with 2^k >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 wants a positive integer")
    return (x - 1).bit_length()


def pow2_at_least(exponent: int, value: int) -> bool:
    """Whether 2^exponent >= value, without forming 2^exponent."""
    if value < 1:
        return True
    return exponent >= ceil_log2(value)
