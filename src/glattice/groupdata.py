"""Bundled simple-group data and the almost-simple inequality scan.

The scan decides, family by family and parameter by parameter, whether a
candidate almost simple socle is ruled out by one of two checks:

* the doubling check at the dimension bound b:  2^b >= 2 A b, where A is
  the automorphism-order bound and b a lower bound on the (projective)
  representation dimension of the socle;
* the fixed check at dimension 29:             2^29 >= 58 A.

Parameters failing both checks are the "remaining cases", which the
bundled table pins per family.  The automorphism bound A used by the scan
is |Aut(S)| multiplied by the Schur-center order of the classical cover
(field ``center_formula``): over-approximating A only ever *adds*
remaining cases, so every certification the scan emits is sound, and this
particular over-approximation reproduces the published remaining-case
table exactly.  Exact |Aut(S)| values (center factor omitted) are exposed
separately and pinned against published automorphism orders in the tests.

Data is loaded from the bundled JSON file unless overridden by an explicit
path or by the SYMRANK_DATA_DIR environment variable.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from math import gcd

from ._primes import pow2_at_least, prime_power, prime_powers_upto
from .bounds import psl_order
from .errors import UnknownFormula

DATA_FILENAME = "simple_groups.json"
DATA_ENV_VAR = "SYMRANK_DATA_DIR"

TWO_TO_29 = 2**29


def _field(record, key: str, what: str):
    """record[key], or a ValueError naming the missing key."""
    try:
        return record[key]
    except (KeyError, TypeError):
        raise ValueError(f"{what} has no {key!r} field") from None


def _prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def _psu_order(n: int, q: int) -> int:
    """|PSU_{n+1}(q)| where n is the table's parameter (subscript n+1)."""
    big = n + 1
    prod = _prod(q**i - (-1) ** i for i in range(2, big + 1))
    return q ** (big * (big - 1) // 2) * prod // gcd(big, q + 1)


def _psp_order(n: int, q: int) -> int:
    """|PSp_{2n}(q)| (equals the odd orthogonal group order O_{2n+1}(q))."""
    return q ** (n * n) * _prod(q ** (2 * i) - 1 for i in range(1, n + 1)) // gcd(2, q - 1)


def _omega_plus_order(n: int, q: int) -> int:
    return (
        q ** (n * (n - 1))
        * (q**n - 1)
        * _prod(q ** (2 * i) - 1 for i in range(1, n))
        // gcd(4, q**n - 1)
    )


ORDER_FORMULAS = {
    "psl2": lambda n, q, u, t: psl_order(2, q),
    "psl": lambda n, q, u, t: psl_order(n, q),
    "psu": lambda n, q, u, t: _psu_order(n, q),
    "psp": lambda n, q, u, t: _psp_order(n, q),
    "omega_odd": lambda n, q, u, t: _psp_order(n, q),
    "omega_plus": lambda n, q, u, t: _omega_plus_order(n, q),
    "e6": lambda n, q, u, t: q**36
    * _prod(q**k - 1 for k in (12, 9, 8, 6, 5, 2))
    // gcd(3, q - 1),
    "e7": lambda n, q, u, t: q**63
    * _prod(q**k - 1 for k in (18, 14, 12, 10, 8, 6, 2))
    // gcd(2, q - 1),
    "e8": lambda n, q, u, t: q**120 * _prod(q**k - 1 for k in (30, 24, 20, 18, 14, 12, 8, 2)),
    "f4": lambda n, q, u, t: q**24 * _prod(q**k - 1 for k in (12, 8, 6, 2)),
    "g2": lambda n, q, u, t: q**6 * (q**6 - 1) * (q**2 - 1),
    "tw2e6": lambda n, q, u, t: q**36
    * (q**12 - 1)
    * (q**9 + 1)
    * (q**8 - 1)
    * (q**6 - 1)
    * (q**5 + 1)
    * (q**2 - 1)
    // gcd(3, q + 1),
    "tw3d4": lambda n, q, u, t: q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1),
    "sz": lambda n, q, u, t: q**2 * (q**2 + 1) * (q - 1),
    "tw2f4": lambda n, q, u, t: q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1),
    "tw2g2": lambda n, q, u, t: q**3 * (q**3 + 1) * (q - 1),
}

OUT_FORMULAS = {
    "out_l2": lambda n, q, u, t: gcd(2, q - 1) * t,
    "out_ln": lambda n, q, u, t: gcd(n, q - 1) * 2 * t,
    "out_un": lambda n, q, u, t: gcd(n + 1, q + 1) * 2 * t,
    "out_sp": lambda n, q, u, t: gcd(2, q - 1) * t,
    "out_2t": lambda n, q, u, t: 2 * t,
    "out_2t_graph": lambda n, q, u, t: 2 * t,
    "out_o8p": lambda n, q, u, t: (6 if q % 2 == 0 else 24) * t,
    "out_oplus": lambda n, q, u, t: gcd(4, q**n - 1) * 2 * t,
    "out_e6": lambda n, q, u, t: gcd(3, q - 1) * 2 * t,
    "out_e7": lambda n, q, u, t: gcd(2, q - 1) * t,
    "out_t": lambda n, q, u, t: t,
    "out_tw2e6": lambda n, q, u, t: gcd(3, q + 1) * t,
    "out_3t": lambda n, q, u, t: 3 * t,
}

CENTER_FORMULAS = {
    "c1": lambda n, q, u, t: 1,
    "c_l2": lambda n, q, u, t: gcd(2, q - 1),
    "c_ln": lambda n, q, u, t: gcd(n, q - 1),
    "c_un": lambda n, q, u, t: gcd(n + 1, q + 1),
    "c_2": lambda n, q, u, t: gcd(2, q - 1),
    "c_o4": lambda n, q, u, t: gcd(4, q**n - 1),
    "c_e6": lambda n, q, u, t: gcd(3, q - 1),
    "c_tw2e6": lambda n, q, u, t: gcd(3, q + 1),
}


def _exact_div(a: int, b: int) -> int:
    if a % b != 0:
        raise AssertionError("bound formula expected exact division")
    return a // b


BOUND_FORMULAS = {
    "l2_1mod4": lambda n, q, u, t: (q + 1) // 2,
    "l2_3mod4": lambda n, q, u, t: (q - 1) // 2,
    "l2_even": lambda n, q, u, t: q - 1,
    "ln": lambda n, q, u, t: _exact_div(q**n - 1, q - 1) - n,
    "o_odd_3": lambda n, q, u, t: (3 ** (2 * n) - 1) // 8 - (3**n - 1) // 2,
    "o_odd": lambda n, q, u, t: _exact_div(q ** (2 * n) - 1, q**2 - 1) - n,
    "s4_even": lambda n, q, u, t: q * (q - 1) ** 2 // 2,
    "s4_odd": lambda n, q, u, t: (q**2 - 1) // 2,
    "sp_even": lambda n, q, u, t: _exact_div(q * (q**n - 1) * (q ** (n - 1) - 1), 2 * (q + 1)),
    "sp_odd": lambda n, q, u, t: (q**n - 1) // 2,
    "o8p_generic": lambda n, q, u, t: (q**3 - 1) * (q**2 + 1),
    "o8p_small": lambda n, q, u, t: q**2 * (q**3 - 1),
    "oplus_generic": lambda n, q, u, t: (q ** (n - 1) - 1) * (q ** (n - 2) + 1),
    "oplus_small_even": lambda n, q, u, t: q ** (n - 2) * (q ** (n - 1) - 1),
    "oplus_small_odd": lambda n, q, u, t: q ** (n - 2) * (q ** (n - 1) + 1),
    "e6q": lambda n, q, u, t: q**9 * (q**2 - 1),
    "e7q": lambda n, q, u, t: q**15 * (q**2 - 1),
    "e8q": lambda n, q, u, t: q**27 * (q**2 - 1),
    "f4_odd": lambda n, q, u, t: q**6 * (q**2 - 1),
    "f4_even": lambda n, q, u, t: q**7 * (q**3 - 1) * (q - 1) // 2,
    "g2q": lambda n, q, u, t: q * (q**2 - 1),
    "tw3d4": lambda n, q, u, t: q**3 * (q**2 - 1),
    "sz": lambda n, q, u, t: q**2,
    "tw2f4": lambda n, q, u, t: 2 ** ((t - 1) // 2) * q**4 * (q - 1),
    "u_even": lambda n, q, u, t: _exact_div(q * (q**n - 1), q + 1),
    "u_odd": lambda n, q, u, t: _exact_div(q ** (n + 1) - 1, q + 1),
    "tw2g2": lambda n, q, u, t: q**2 - q + 1,
}


def load_data(path: str | None = None) -> dict:
    """Bundled data, or an override from path / SYMRANK_DATA_DIR."""
    if path is None:
        env_dir = os.environ.get(DATA_ENV_VAR)
        if env_dir:
            path = os.path.join(env_dir, DATA_FILENAME)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    with resources.files(__package__).joinpath("data").joinpath(DATA_FILENAME).open("r") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class FamilyRecord:
    name: str
    scan: dict
    order_formula: str
    out_formula: str
    center_formula: str
    dim_bound_formula: str
    bound_kind: str
    expected_remaining: tuple[tuple[int | None, int], ...]
    note: str | None = None

    def _resolve(self, registry: dict, key: str):
        if key not in registry:
            raise UnknownFormula(f"{self.name}: no evaluator for {key!r}")
        return registry[key]

    def points(self, q_cap: int, n_cap: int):
        """All (n, q, u, t) scan points within caps and constraints."""
        sc = self.scan
        fixed_n = sc.get("fixed_n")
        for q in prime_powers_upto(min(q_cap, sc.get("q_max", q_cap))):
            if q < sc.get("q_min", 2):
                continue
            u, t = prime_power(q)
            if sc.get("q_parity") == "odd" and q % 2 == 0:
                continue
            if sc.get("q_parity") == "even" and q % 2 == 1:
                continue
            if "q_mod4" in sc and q % 4 not in sc["q_mod4"]:
                continue
            if "q_in" in sc and q not in sc["q_in"]:
                continue
            if "q_not_in" in sc and q in sc["q_not_in"]:
                continue
            if "q_coprime_to" in sc and q % sc["q_coprime_to"] == 0:
                continue
            if "q_divisible_by" in sc and q % sc["q_divisible_by"] != 0:
                continue
            if "q_odd_power_of" in sc and (u != sc["q_odd_power_of"] or t % 2 == 0):
                continue
            if _field(sc, "kind", f"{self.name} scan") == "q":
                yield (fixed_n, q, u, t)
            else:
                for n in range(_field(sc, "n_min", f"{self.name} scan"), n_cap + 1):
                    if sc.get("n_parity") == "odd" and n % 2 == 0:
                        continue
                    if sc.get("n_parity") == "even" and n % 2 == 1:
                        continue
                    if [n, q] in sc.get("exclude", []):
                        continue
                    yield (n, q, u, t)

    def simple_order(self, n, q, u, t) -> int:
        return self._resolve(ORDER_FORMULAS, self.order_formula)(n, q, u, t)

    def aut_order(self, n, q, u, t) -> int:
        """Exact |Aut(S)| = |S| * |Out(S)|."""
        return self.simple_order(n, q, u, t) * self._resolve(OUT_FORMULAS, self.out_formula)(n, q, u, t)

    def scan_aut_bound(self, n, q, u, t) -> int:
        """The scan's conservative automorphism bound (|Aut| * center order)."""
        return self.aut_order(n, q, u, t) * self._resolve(CENTER_FORMULAS, self.center_formula)(n, q, u, t)

    def dim_bound(self, n, q, u, t) -> int:
        return self._resolve(BOUND_FORMULAS, self.dim_bound_formula)(n, q, u, t)


_FAMILY_KEYS = ("name", "scan", "order_formula", "out_formula", "center_formula", "dim_bound_formula", "bound_kind")


def family_records(data: dict) -> list[FamilyRecord]:
    out = []
    for i, raw in enumerate(_field(data, "families", "data file")):
        out.append(
            FamilyRecord(
                **{key: _field(raw, key, f"family record {i}") for key in _FAMILY_KEYS},
                expected_remaining=tuple(
                    (pair[0], pair[1]) for pair in raw.get("expected_remaining", [])
                ),
                note=raw.get("note"),
            )
        )
    return out


@dataclass(frozen=True)
class SporadicRecord:
    name: str
    aut_order: int
    rdim: int
    expected_fail: bool


def sporadic_records(data: dict) -> list[SporadicRecord]:
    out = []
    for i, s in enumerate(_field(data, "sporadics", "data file")):
        keys = ("name", "aut_order", "rdim", "expected_fail")
        name, aut, rdim, fail = (_field(s, key, f"sporadic record {i}") for key in keys)
        out.append(SporadicRecord(name, int(aut), int(rdim), bool(fail)))
    return out


@dataclass(frozen=True)
class PointVerdict:
    n: int | None
    q: int
    dim_bound: int
    aut_bound: int
    holds_doubling: bool
    holds_29: bool

    @property
    def remaining(self) -> bool:
        return not (self.holds_doubling or self.holds_29)


@dataclass(frozen=True)
class FamilyScan:
    name: str
    bound_kind: str
    points_checked: int
    remaining: tuple[tuple[int | None, int], ...]
    expected_remaining: tuple[tuple[int | None, int], ...]
    note: str | None

    @property
    def matches_expected(self) -> bool:
        return set(self.remaining) == set(self.expected_remaining)


@dataclass(frozen=True)
class SporadicScan:
    failing: tuple[str, ...]
    expected_failing: tuple[str, ...]

    @property
    def matches_expected(self) -> bool:
        return set(self.failing) == set(self.expected_failing)


@dataclass(frozen=True)
class ScanReport:
    families: tuple[FamilyScan, ...]
    sporadics: SporadicScan
    unscanned: tuple[str, ...] = ()

    @property
    def all_match(self) -> bool:
        return self.sporadics.matches_expected and all(f.matches_expected for f in self.families)


def check_point(rec: FamilyRecord, n, q, u, t) -> PointVerdict:
    b = rec.dim_bound(n, q, u, t)
    aut = rec.scan_aut_bound(n, q, u, t)
    holds_doubling = b >= 1 and pow2_at_least(b, 2 * aut * b)
    holds_29 = TWO_TO_29 >= 58 * aut
    return PointVerdict(n, q, b, aut, holds_doubling, holds_29)


def almost_simple_scan(
    data: dict | None = None, q_cap: int = 100, n_cap: int = 12
) -> ScanReport:
    """Scan every bundled family and sporadic group within the caps."""
    data = data if data is not None else load_data()
    fams = []
    unscanned = []
    for rec in family_records(data):
        if rec.order_formula is None or rec.order_formula == "":
            unscanned.append(rec.name)
            continue
        remaining = []
        count = 0
        for n, q, u, t in rec.points(q_cap, n_cap):
            count += 1
            v = check_point(rec, n, q, u, t)
            if v.remaining:
                remaining.append((n, q))
        expected = tuple(
            (n, q) for n, q in rec.expected_remaining if q <= q_cap and (n is None or n <= n_cap)
        )
        fams.append(
            FamilyScan(rec.name, rec.bound_kind, count, tuple(remaining), expected, rec.note)
        )
    failing = []
    for s in sporadic_records(data):
        holds_doubling = pow2_at_least(s.rdim, 2 * s.aut_order * s.rdim)
        holds_29 = TWO_TO_29 >= 58 * s.aut_order
        if not (holds_doubling or holds_29):
            failing.append(s.name)
    expected_failing = tuple(s.name for s in sporadic_records(data) if s.expected_fail)
    return ScanReport(tuple(fams), SporadicScan(tuple(failing), expected_failing), tuple(unscanned))


def aut_spot_checks(data: dict | None = None) -> list[tuple[str, int, int]]:
    """(family name, computed exact |Aut|, expected |Aut|) for pinned cells."""
    data = data if data is not None else load_data()
    recs = {r.name: r for r in family_records(data)}
    out = []
    for i, chk in enumerate(data.get("aut_spot_checks", [])):
        what = f"aut spot check {i}"
        family = _field(chk, "family", what)
        if family not in recs:
            raise ValueError(f"{what} names unknown family {family!r}")
        rec = recs[family]
        q = _field(chk, "q", what)
        u, t = prime_power(q)
        computed = rec.aut_order(chk.get("n"), q, u, t)
        out.append((f"{rec.name} @ n={chk.get('n')}, q={q}", computed, int(_field(chk, "expected_aut", what))))
    return out
