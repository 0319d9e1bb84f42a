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
from math import gcd, prod

from ._primes import pow2_at_least, prime_power, prime_powers_upto
from .bounds import psl_order
from .errors import UnknownFormula
from .serialize import _load, int_from_json

DATA_FILENAME = "simple_groups.json"
DATA_ENV_VAR = "SYMRANK_DATA_DIR"

TWO_TO_29 = 2**29


def _field(record, key: str, what: str):
    """record[key], or a ValueError naming the missing key."""
    try:
        return record[key]
    except (KeyError, TypeError):
        raise ValueError(f"{what} has no {key!r} field") from None


def _positive_int(value) -> int:
    """:func:`serialize.int_from_json` of value, or a ValueError unless it is at least 1."""
    out = int_from_json(value)
    if out < 1:
        raise ValueError(f"{value!r} is not positive")
    return out


def _positive_int_field(record, key: str, what: str) -> int:
    """:func:`_positive_int` of record[key], or a ValueError naming the field."""
    value = _field(record, key, what)
    try:
        return _positive_int(value)
    except ValueError as e:
        raise ValueError(f"{what} field {key!r}: {e}") from None


def _typed_field(record, key: str, what: str, kind: type):
    """record[key], or a ValueError naming the field unless it is a JSON value of type kind."""
    value = _field(record, key, what)
    if type(value) is not kind:
        raise ValueError(f"{what} field {key!r} is not a JSON {'string' if kind is str else 'boolean'}: {value!r}")
    return value


def _n_q(n, q, what: str, null_n: bool) -> tuple[int | None, int]:
    """(n, q) as ints, or a ValueError unless both are positive integers (n may be null if null_n)."""
    try:
        return (None if null_n and n is None else _positive_int(n)), _positive_int(q)
    except ValueError:
        raise ValueError(
            f"{what} has n = {n!r}, q = {q!r}; each must be a positive integer" + (" (n may be null)" if null_n else "")
        ) from None


def _psu_order(n: int, q: int) -> int:
    """|PSU_{n+1}(q)| where n is the table's parameter (subscript n+1)."""
    big = n + 1
    return q ** (big * (big - 1) // 2) * prod(q**i - (-1) ** i for i in range(2, big + 1)) // gcd(big, q + 1)


def _psp_order(n: int, q: int) -> int:
    """|PSp_{2n}(q)| (equals the odd orthogonal group order O_{2n+1}(q))."""
    return q ** (n * n) * prod(q ** (2 * i) - 1 for i in range(1, n + 1)) // gcd(2, q - 1)


def _omega_plus_order(n: int, q: int) -> int:
    return (
        q ** (n * (n - 1))
        * (q**n - 1)
        * prod(q ** (2 * i) - 1 for i in range(1, n))
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
    * prod(q**k - 1 for k in (12, 9, 8, 6, 5, 2))
    // gcd(3, q - 1),
    "e7": lambda n, q, u, t: q**63
    * prod(q**k - 1 for k in (18, 14, 12, 10, 8, 6, 2))
    // gcd(2, q - 1),
    "e8": lambda n, q, u, t: q**120 * prod(q**k - 1 for k in (30, 24, 20, 18, 14, 12, 8, 2)),
    "f4": lambda n, q, u, t: q**24 * prod(q**k - 1 for k in (12, 8, 6, 2)),
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
        return _load(path, dict, "data")
    with resources.files(__package__).joinpath("data").joinpath(DATA_FILENAME).open("r") as fh:
        return json.load(fh)


_SCAN_INTS = ("q_max", "q_min", "q_coprime_to", "q_divisible_by", "q_odd_power_of", "n_min", "fixed_n")
_SCAN_LISTS = ("q_mod4", "q_in", "q_not_in", "exclude")
_SCAN_WORDS = {"kind": ("q", "nq"), "q_parity": ("odd", "even"), "n_parity": ("odd", "even")}


def _scan_list_entry(key: str, entry):
    """An entry of a scan list field as an int, or as an [n, q] pair of ints for ``exclude``."""
    if key != "exclude":
        return int_from_json(entry)
    if type(entry) is not list or len(entry) != 2:
        raise ValueError
    return list(map(int_from_json, entry))


def _check_scan(name: str, scan) -> dict:
    """scan with its numeric fields and list entries as ints, or a ValueError naming
    a field that :meth:`FamilyRecord.points` does not read, a numeric field that is
    not a positive integer, a list field that is not a list of integers (of [n, q]
    pairs for ``exclude``), or a ``kind`` or parity that is not one of its words."""
    if not isinstance(scan, dict):
        raise ValueError(f"{name} scan is not an object")
    checked = dict(scan)
    for key, value in scan.items():
        if key not in _SCAN_INTS and key not in _SCAN_LISTS and key not in _SCAN_WORDS:
            raise ValueError(f"{name} scan has an unknown field {key!r}")
        try:
            if key in _SCAN_INTS:
                checked[key] = _positive_int(value)
            elif key in _SCAN_LISTS:
                if type(value) is not list:
                    raise ValueError
                checked[key] = [_scan_list_entry(key, entry) for entry in value]
            elif value not in _SCAN_WORDS[key]:
                raise ValueError
        except ValueError:
            raise ValueError(f"{name} scan field {key!r} is malformed: {value!r}") from None
    return checked


@dataclass(frozen=True)
class FamilyRecord:
    name: str
    scan: dict
    order_formula: str
    out_formula: str
    center_formula: str
    dim_bound_formula: str
    expected_remaining: tuple[tuple[int | None, int], ...]

    def _resolve(self, registry: dict, field: str):
        """The evaluator that the formula id in field names; UnknownFormula unless it is a string with one."""
        key = getattr(self, field)
        if type(key) is not str or key not in registry:
            raise UnknownFormula(f"{self.name}: no evaluator for {field} {key!r}")
        return registry[key]

    def points(self, q_cap: int, n_cap: int):
        """All (n, q, u, t) scan points within caps and constraints (none for a fixed n above n_cap)."""
        sc = _check_scan(self.name, self.scan)
        fixed_n = sc.get("fixed_n")
        if fixed_n is not None and fixed_n > n_cap:
            return
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
        return self._resolve(ORDER_FORMULAS, "order_formula")(n, q, u, t)

    def aut_order(self, n, q, u, t) -> int:
        """Exact |Aut(S)| = |S| * |Out(S)|."""
        return self.simple_order(n, q, u, t) * self._resolve(OUT_FORMULAS, "out_formula")(n, q, u, t)

    def scan_aut_bound(self, n, q, u, t) -> int:
        """The scan's conservative automorphism bound (|Aut| * center order)."""
        return self.aut_order(n, q, u, t) * self._resolve(CENTER_FORMULAS, "center_formula")(n, q, u, t)

    def dim_bound(self, n, q, u, t) -> int:
        return self._resolve(BOUND_FORMULAS, "dim_bound_formula")(n, q, u, t)


_FAMILY_KEYS = ("scan", "order_formula", "out_formula", "center_formula", "dim_bound_formula")


def family_records(data: dict) -> list[FamilyRecord]:
    out = []
    for i, raw in enumerate(_field(data, "families", "data file")):
        what = f"family record {i}"
        out.append(
            FamilyRecord(
                _typed_field(raw, "name", what, str),
                **{key: _field(raw, key, what) for key in _FAMILY_KEYS},
                expected_remaining=_expected_remaining(raw.get("expected_remaining", []), what),
            )
        )
    return out


def _expected_remaining(pairs, what: str) -> tuple[tuple[int | None, int], ...]:
    """The [n, q] pairs of a family's expected_remaining field, or a ValueError naming a malformed one."""
    if type(pairs) is not list:
        raise ValueError(f"{what} expected_remaining is not a list")
    out = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            raise ValueError(f"{what} expected_remaining entry {pair!r} is not an [n, q] pair")
        out.append(_n_q(*pair, f"{what} expected_remaining entry", null_n=True))
    return tuple(out)


@dataclass(frozen=True)
class SporadicRecord:
    name: str
    aut_order: int
    rdim: int
    expected_fail: bool


def sporadic_records(data: dict) -> list[SporadicRecord]:
    out = []
    for i, s in enumerate(_field(data, "sporadics", "data file")):
        what = f"sporadic record {i}"
        name = _typed_field(s, "name", what, str)
        ints = (_positive_int_field(s, key, what) for key in ("aut_order", "rdim"))
        out.append(SporadicRecord(name, *ints, _typed_field(s, "expected_fail", what, bool)))
    return out


@dataclass(frozen=True)
class FamilyScan:
    name: str
    points_checked: int
    remaining: tuple[tuple[int | None, int], ...]
    expected_remaining: tuple[tuple[int | None, int], ...]

    @property
    def matches_expected(self) -> bool:
        return set(self.remaining) == set(self.expected_remaining)


@dataclass(frozen=True)
class SporadicScan:
    checked: int
    failing: tuple[str, ...]
    expected_failing: tuple[str, ...]

    @property
    def matches_expected(self) -> bool:
        return set(self.failing) == set(self.expected_failing)


@dataclass(frozen=True)
class ScanReport:
    families: tuple[FamilyScan, ...]
    sporadics: SporadicScan

    @property
    def all_match(self) -> bool:
        return self.sporadics.matches_expected and all(f.matches_expected for f in self.families)


def _verdict(b: int, aut: int) -> tuple[bool, bool]:
    """(the doubling check, the fixed check at dimension 29) for dimension bound b and automorphism bound aut."""
    return b >= 1 and pow2_at_least(b, 2 * aut * b), TWO_TO_29 >= 58 * aut


def almost_simple_scan(
    data: dict | None = None, q_cap: int = 100, n_cap: int = 12
) -> ScanReport:
    """Scan every bundled family and sporadic group within the caps.

    A family whose formula id is not a string or has no evaluator, an
    empty one included, raises ``UnknownFormula`` at its first scan point.
    """
    if q_cap < 2:
        raise ValueError("q_cap must be at least 2, the least prime power")
    data = data if data is not None else load_data()
    fams = []
    for rec in family_records(data):
        remaining = []
        count = 0
        for n, q, u, t in rec.points(q_cap, n_cap):
            count += 1
            if not any(_verdict(rec.dim_bound(n, q, u, t), rec.scan_aut_bound(n, q, u, t))):
                remaining.append((n, q))
        expected = tuple(
            (n, q) for n, q in rec.expected_remaining if q <= q_cap and (n is None or n <= n_cap)
        )
        fams.append(FamilyScan(rec.name, count, tuple(remaining), expected))
    sporadics = sporadic_records(data)
    failing = tuple(s.name for s in sporadics if not any(_verdict(s.rdim, s.aut_order)))
    expected_failing = tuple(s.name for s in sporadics if s.expected_fail)
    return ScanReport(tuple(fams), SporadicScan(len(sporadics), failing, expected_failing))


def aut_spot_checks(data: dict | None = None) -> list[tuple[str, int, int]]:
    """(family name, computed exact |Aut|, expected |Aut|) for pinned cells."""
    data = data if data is not None else load_data()
    recs = {r.name: r for r in family_records(data)}
    out = []
    for i, chk in enumerate(data.get("aut_spot_checks", [])):
        what = f"aut spot check {i}"
        family = _typed_field(chk, "family", what, str)
        if family not in recs:
            raise ValueError(f"{what} names unknown family {family!r}")
        rec = recs[family]
        n, q = _n_q(_field(chk, "n", what), _field(chk, "q", what), what, null_n=False)
        u_t = prime_power(q)
        if u_t is None:
            raise ValueError(f"{what} has q = {q}, not a prime power")
        computed = rec.aut_order(n, q, *u_t)
        out.append((f"{rec.name} @ n={n}, q={q}", computed, _positive_int_field(chk, "expected_aut", what)))
    return out
