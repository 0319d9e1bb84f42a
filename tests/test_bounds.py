"""Inequality engine: orders, thresholds, conservative log rounding."""
import random

from glattice._primes import primes_upto

import pytest
from conftest import check_numerical_lemma, log2_upper
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glattice import bounds
from glattice.bounds import (
    CASES,
    BoundVerdict,
    log2_fixed_upper,
    min_threshold,
    mon_metacyclic_bound,
    prime_of_form,
    psl_order,
    prime_case_check,
)
from glattice.errors import HorizonTooSmall, InvalidCase, NotOddPrime, NotPrimePower


def floor_log2(x: int) -> int:
    """Largest k with 2^k <= x, for x >= 1 (oracle for the rounded logs)."""
    return x.bit_length() - 1


def test_psl_orders():
    assert psl_order(2, 7) == 168
    assert psl_order(5, 2) == 9999360
    assert psl_order(2, 4) == 60


def test_psl_order_small_q_oracle():
    # |PSL_2(q)| = q(q^2-1)/gcd(2, q-1), checked directly for q <= 32
    from math import gcd

    from glattice._primes import prime_powers_upto

    for q in prime_powers_upto(32):
        assert psl_order(2, q) == q * (q * q - 1) // gcd(2, q - 1)


def test_psl_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        psl_order(3, 6)


def test_numerical_lemma_examples():
    r = check_numerical_lemma(5, 6, 10)
    assert r.hypothesis and r.conclusion
    assert not check_numerical_lemma(3, 3, 3).hypothesis
    r = check_numerical_lemma(1, 1, 1)
    assert r.hypothesis and r.conclusion


def test_numerical_lemma_sweep_implication():
    for a in range(1, 21):
        for c in range(1, 51):
            for b in (a, a + 1, 2 * a, 200):
                if b < a:
                    continue
                assert check_numerical_lemma(a, c, b).implication_ok


def test_case_II_i_a2_sharp():
    assert prime_case_check(31, 2, 1, "II.i").holds
    assert not prime_case_check(29, 2, 1, "II.i").holds


def test_case_II_ii_a2():
    assert prime_case_check(31, 2, 2, "II.ii").holds
    assert not prime_case_check(29, 2, 2, "II.ii").holds


def test_case_checks_validate_input():
    with pytest.raises(InvalidCase):
        prime_case_check(31, 2, 1, "IV")
    with pytest.raises(InvalidCase):
        prime_case_check(31, 2, 2, "II.i")  # ell must be < a
    with pytest.raises(NotOddPrime):
        prime_case_check(10, 2, 1, "II.i")
    with pytest.raises(InvalidCase):
        min_threshold(2, "IV")
    for case in CASES:  # checked before any a | p-1 test
        with pytest.raises(ValueError, match="a must be positive"):
            min_threshold(0, case)


def test_thresholds_a2():
    assert min_threshold(2, "II.i").threshold == 31
    assert min_threshold(2, "II.ii").threshold == 31
    assert min_threshold(2, "II.i").anomalies == ()


def test_threshold_a1_small():
    assert min_threshold(1, "II.i", horizon=100).threshold <= 23


def test_case_III_thresholds_within_windows():
    t1 = min_threshold(2, "III.i", horizon=2003).threshold
    t2 = min_threshold(2, "III.ii", horizon=2003).threshold
    assert 760 <= t1 <= 768
    assert 1297 <= t2 <= 1305


def test_horizon_too_small():
    with pytest.raises(HorizonTooSmall):
        min_threshold(2, "III.i", horizon=100)


def test_mon_metacyclic_bound():
    assert mon_metacyclic_bound(31, 1, 2).holds
    assert not mon_metacyclic_bound(29, 1, 2).holds
    v = mon_metacyclic_bound(7, 1, 1)
    assert isinstance(v, BoundVerdict)
    assert v.lhs == 2**7 and v.rhs == 2**7 * 49 * 6  # evaluated, fails
    assert not v.holds
    with pytest.raises(ValueError):
        mon_metacyclic_bound(7, 0, 0)


def test_prime_of_form_examples():
    pf = {(t.p, t.q, t.m) for t in prime_of_form(100, 12)}
    assert (2801, 7, 5) in pf
    assert (31, 5, 3) in pf and (31, 2, 5) in pf
    assert (7, 2, 3) in pf


def test_prime_of_form_all_entries_prime():
    from glattice._primes import is_prime

    for t in prime_of_form(30, 6):
        assert is_prime(t.p)
        assert (t.q**t.m - 1) // (t.q - 1) == t.p


def test_log_bounds_are_outward_and_tight():
    rng = random.Random(21)
    for _ in range(100):
        x = rng.randint(2, 10**9)
        up = log2_fixed_upper(x)
        # up is the least k with 2^k >= x^4096
        assert (1 << (up - 1)) < x**4096 <= (1 << up)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, (1 << 64) - 1))
@example(3)
@example((1 << 64) - 1)
def test_log2_fixed_upper_matches_the_exact_power(x):
    assert log2_fixed_upper(x) == log2_upper(x)


def test_log2_fixed_upper_around_powers_of_two():
    for k in range(1, 64):
        assert log2_fixed_upper(1 << k) == k << bounds.LOG_FRAC_BITS
        for x in ((1 << k) - 1, (1 << k) + 1):
            if x >= 2:
                assert log2_fixed_upper(x) == log2_upper(x)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, (1 << 64) - 1), st.integers(1, 24))
def test_log2_interval_is_exact_or_undecided(x, bits):
    """At any working precision the interval either decides every bit or gives up."""
    assert bounds._log2_interval(x, bits) in (None, log2_upper(x))


def test_log2_fixed_upper_falls_back_when_the_interval_straddles(monkeypatch):
    assert bounds._log2_interval(3, 8) is None
    monkeypatch.setattr(bounds, "_WORK_BITS", 8)
    for x in (3, 5, 1000, 1 << 40, (1 << 40) + 1):
        assert log2_fixed_upper(x) == log2_upper(x)


def test_case_III_verdicts_are_sound():
    """Whenever the conservative check says holds, the real inequality holds.

    Oracle: a rational sandwich at higher precision; holds(upper-rounded)
    must imply lhs >= lower-rounded rhs on a spread of parameter points.
    """
    from fractions import Fraction

    rng = random.Random(31)
    sample = [761, 769, 809, 1297, 1301, 2003] + [
        p for p in primes_upto(5000) if p > 500 and rng.random() < 0.25
    ]
    assert len(sample) >= 100
    for p in sample:
        for case, ell in (("III.i", 1), ("III.ii", 2)):
            v = prime_case_check(p, 2, ell, case)
            if not v.holds:
                continue
            f = 14
            ku = floor_log2((p * p + 1) ** (1 << f))
            kw = floor_log2(p ** (1 << f))
            kv = floor_log2(max(kw, 1) ** (1 << f)) - (f << f)
            if case == "III.ii":
                # 2^{p/3} >= a (p^2+1)^{log2(p^2+1)} log2(p)  [a = 2]
                rhs_lower = 1 + Fraction(ku * ku, 2 ** (2 * f)) + Fraction(kv, 2**f)
                lhs = Fraction(p, 3)
            else:
                # 2^{(p-1)/2} >= (p^2+1)^{log2(p^2+1)} log2(p) p
                rhs_lower = Fraction(ku * ku, 2 ** (2 * f)) + Fraction(kv + kw, 2**f)
                lhs = Fraction(p - 1, 2)
            assert lhs >= rhs_lower
