"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Tolerances are exact (integer equality / set equality) except for
the two log-rounded thresholds, whose windows are pinned below.
"""
import json
import os
import time

import pytest
from conftest import orbit_span

from glattice._primes import primes_upto
from glattice.bounds import min_threshold, prime_of_form, psl_order, prime_case_check
from glattice.gf2cyclo import (
    GF2Poly,
    binary_sublattices,
    factor_xp_minus_1,
    ord2,
)
from glattice.groupdata import almost_simple_scan, aut_spot_checks, load_data
from glattice.intmat import IntMatrix, full_lattice, member, unit_vector
from glattice.matgroup import MatGroup, orbit
from glattice.monomial import (
    full_monomial_group,
    three_sublattice_report,
    support_reduce,
)
from glattice.rootsys import (
    RootSystemSpec,
    build,
    expected_symrank,
    rdim_lower_bound,
    weyl_symrank_table,
    weyl_orbit_size,
)
from glattice.search import symrank_search
from glattice.serialize import group_from_json
from glattice.theta import GramForm, diagonal_bound, identity_form, theta_prefix


def verdict(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_weyl_table_rank8_and_bd_rank20():
    t0 = time.time()
    ok = True
    must_hit = {("E", 6, "L"): 27, ("E", 7, "L"): 56, ("E", 8, "L=Lr"): 240,
                ("F", 4, "L=Lr"): 24, ("G", 2, "L=Lr"): 6}
    hit = {}
    for row in weyl_symrank_table(8):
        ok &= row.symrank == expected_symrank(row)
        model = build(RootSystemSpec(row.family, row.rank))
        g = model.matgroup()
        orb = orbit(g, row.witness)
        ok &= orb.size == row.symrank
        ok &= orbit_span(g, row.witness) == row.target.basis
        key = (row.family, row.rank, row.lattice_label)
        if key in must_hit:
            hit[key] = row.symrank
    ok &= hit == must_hit
    for n in range(2, 21):
        m = build(RootSystemSpec("B", n))
        ok &= weyl_orbit_size(m, unit_vector(n, n - 1)) == 2**n
        ok &= weyl_orbit_size(m, m.simple_root(n - 1)) == 2 * n
    for n in range(4, 21):
        m = build(RootSystemSpec("D", n))
        ok &= weyl_orbit_size(m, m.simple_root(0)) == 2 * n * (n - 1)
    elapsed = time.time() - t0
    ok &= elapsed < 300
    verdict(1, ok, f"Weyl table rank<=8 exact (orbit size and span), B/D to rank 20 ({elapsed:.1f}s)")


def test_criterion_02_rdim_lower_bounds():
    want = [2, 6, 12, 24, 40, 72, 128, 256, 512, 1024]
    witnesses = {1: ("A", 1, "root"), 2: ("G", 2, "root"), 3: ("A", 3, "root"),
                 4: ("C", 4, "root"), 5: ("D", 5, "root"), 6: ("E", 6, "root")}
    ok = True
    for n in range(1, 11):
        b = rdim_lower_bound(n)
        ok &= b.value == want[n - 1]
        expect_w = witnesses.get(n, ("B", n, "weight"))
        ok &= (b.witness_family, b.witness_rank, b.witness_kind) == expect_w
    verdict(2, ok, "lower-bound table n=1..10 with printed witnesses, exact")


def test_criterion_03_bounded_exhaustive_rank_le_4():
    ok = True
    for row in weyl_symrank_table(4):
        model = build(RootSystemSpec(row.family, row.rank))
        res = symrank_search(model.matgroup(), row.target.basis, radius=3)
        ok &= res.exactness == "exact_within_bound"
        ok &= res.upper_bound == expected_symrank(row)
    verdict(3, ok, "exhaustive search at radius 3 equals table values for every rank<=4 row")


def test_criterion_04_theta_series():
    ok = True
    for n in range(1, 11):
        ok &= theta_prefix(identity_form(n), 1).coefficients[1] == 2 * n
        ok &= diagonal_bound(identity_form(n)).bound == 2 * n
    a2 = GramForm(IntMatrix.from_rows([(2, -1), (-1, 2)]))
    ok &= theta_prefix(a2, 2).coefficients[2] == 6
    verdict(4, ok, "theta counts N_1(I_n)=2n (n<=10), N_2(gram A2)=6, diagonal bound 2n")


def test_criterion_05_gf2_factorizations():
    ok = True
    for p in primes_upto(200):
        if p == 2:
            continue
        f = factor_xp_minus_1(p)
        d = ord2(p)
        ok &= len(f.factors) == (p - 1) // d + 1
        ok &= all(g.degree == d for g in f.factors[1:])
        prod = GF2Poly(1)
        for g in f.factors:
            prod = prod * g
        ok &= prod == GF2Poly((1 << p) | 1)
    verdict(5, ok, "x^p-1 over GF(2): counts, equal degrees, reconstitution for all odd p<=200")


def test_criterion_06_monomial_orbit_sizes():
    ok = True
    for p in (7, 11, 13):
        rep = three_sublattice_report(p)
        ok &= [r.orbit_size for r in rep.rows] == [2 * p, 2 * p * (p - 1), 2**p]
        ok &= all(r.spans for r in rep.rows)
    mon7 = full_monomial_group(7)
    ok &= orbit(mon7, (1,) + (0,) * 6).size == 14
    ok &= orbit(mon7, (1, 1) + (0,) * 5).size == 84
    ok &= orbit(mon7, (1,) * 7).size == 128
    verdict(6, ok, "monomial orbit sizes (2p, 2p(p-1), 2^p) for p=7,11,13; p=7 BFS-verified")


def test_criterion_07_support_reduction():
    ok = True
    for p in (3, 5, 7, 11, 13):
        for subset, lat in binary_sublattices(p).items():
            if not subset or subset == frozenset({0}):
                continue
            v = support_reduce(lat, p)
            ok &= set(v.entries) <= {0, 1}
            ok &= len(v.support()) <= (2 * p) // 3
            ok &= member(v, lat)
    verdict(7, ok, "binary generator with support <= floor(2p/3) for every eligible sublattice, p<=13")


def test_criterion_08_prime_dimension_thresholds():
    ok = True
    for p in primes_upto(10007):
        if p < 31:
            continue
        ok &= prime_case_check(p, 2, 1, "II.i").holds
        ok &= prime_case_check(p, 2, 2, "II.ii").holds
    ok &= not prime_case_check(29, 2, 1, "II.i").holds
    t1 = min_threshold(2, "III.i", horizon=2003).threshold
    t2 = min_threshold(2, "III.ii", horizon=2003).threshold
    ok &= 760 <= t1 <= 768
    ok &= 1297 <= t2 <= 1305
    verdict(8, ok, f"case II holds for all primes in [31, 10007], fails at 29; case III thresholds {t1}, {t2}")


def test_criterion_09_prime_of_form():
    hits = {(t.p, t.q, t.m) for t in prime_of_form(100, 12)}
    ok = (2801, 7, 5) in hits
    verdict(9, ok, "prime (q^m-1)/(q-1) search with q<=100, m<=12 finds (2801, 7, 5)")


def test_criterion_10_almost_simple_scan():
    rep = almost_simple_scan(q_cap=100, n_cap=12)
    ok = set(rep.sporadics.failing) == {"M23", "M24", "Co3", "Co2", "HS", "McL"}
    required = {
        "L_n(q), n >= 3": {(5, 2)},
        "S_4(q), q >= 3 odd": {(2, 5), (2, 7), (2, 9)},
        "S_{2n}(q), n >= 3, q even": {(4, 2)},
        "S_{2n}(q), n >= 3, q >= 3 odd": {(3, 3), (4, 3)},
        "O_8^+(q), q in {2,3,5}": {(4, 2)},
        "U_{n+1}(q), n >= 2 even": {(4, 2), (6, 2)},
        "U_{n+1}(q), n >= 3 odd": {(3, 3), (5, 2)},
        "3D_4(q)": {(4, 2)},
    }
    by_name = {f.name: f for f in rep.families}
    for name, want in required.items():
        ok &= set(by_name[name].remaining) == want
        ok &= by_name[name].matches_expected
    ok &= all(f.matches_expected for f in rep.families)
    verdict(10, ok, "sporadic six exact; family remaining-case table reproduced exactly")


def test_criterion_11_aut_l5_2():
    ok = psl_order(5, 2) * 2 == 19998720
    for name, got, want in aut_spot_checks(load_data()):
        ok &= got == want
    verdict(11, ok, "|Aut(L_5(2))| = 19998720 from the PSL order formula; all pinned |Aut| cells match")


def test_criterion_12_optional_dim23_certification():
    """Data-driven check of the 93150-vector certification in dimension 23.

    The 23-dimensional Gram form and the two generators are external data
    (ingested through the documented group JSON schema with a gram field);
    without them this test skips and the ingestion contract is covered by
    the synthetic-file CLI test plus the per-module property suites.
    """
    data_dir = os.environ.get("SYMRANK_DATA_DIR")
    path = os.path.join(data_dir, "dim23_form.json") if data_dir else None
    if not path or not os.path.exists(path):
        print("ACCEPTANCE 12 SKIP: dimension-23 certification awaits external form data "
              "(ingestion contract exercised with a synthetic generator file)")
        pytest.skip("external 23-dimensional form data not present")
    with open(path, "r", encoding="utf-8") as fh:
        dim, gens, gram, _ = group_from_json(json.load(fh))
    assert dim == 23 and gram is not None and len(gens) == 2
    form = GramForm(gram)
    pre = theta_prefix(form, 4, cap=10**6)
    ok = pre.coefficients[1] == pre.coefficients[2] == pre.coefficients[3] == 0
    ok &= pre.coefficients[4] == 93150
    m1, m2 = gens
    e2 = unit_vector(23, 1)
    union = set()
    for sub in (MatGroup(23, [m1]), MatGroup(23, [m2]), MatGroup(23, [m1.mul(m2)])):
        union |= orbit(sub, e2, cap=10**6).elements
    from glattice.intmat import hnf_from_rows

    ok &= hnf_from_rows(sorted(union), 23) == full_lattice(23)
    verdict(12, ok, "dimension-23 norm-4 class has 93150 vectors and the e_2 orbit spans")
