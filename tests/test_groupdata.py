"""Simple-group data: scan reproduction, automorphism-order spot checks."""
import json

import pytest

from glattice.errors import UnknownFormula
from glattice.groupdata import (
    FamilyRecord,
    almost_simple_scan,
    aut_spot_checks,
    check_point,
    family_records,
    load_data,
    sporadic_records,
)

DATA = load_data()


def test_scan_reproduces_remaining_cases():
    rep = almost_simple_scan(DATA, q_cap=100, n_cap=12)
    for fam in rep.families:
        assert fam.matches_expected, (fam.name, fam.remaining, fam.expected_remaining)


def test_sporadic_six():
    rep = almost_simple_scan(DATA, q_cap=4, n_cap=3)
    assert set(rep.sporadics.failing) == {"M23", "M24", "Co3", "Co2", "HS", "McL"}
    assert rep.sporadics.matches_expected


def test_aut_spot_checks_match_published_values():
    for name, got, want in aut_spot_checks(DATA):
        assert got == want, name


def test_aut_l5_2_from_psl_order():
    from glattice.bounds import psl_order

    assert psl_order(5, 2) * 2 == 19998720


def test_specific_remaining_cells():
    rep = almost_simple_scan(DATA, q_cap=32, n_cap=8)
    by_name = {f.name: f for f in rep.families}
    assert set(by_name["L_n(q), n >= 3"].remaining) == {(5, 2)}
    assert set(by_name["S_4(q), q >= 3 odd"].remaining) == {(2, 5), (2, 7), (2, 9)}
    assert set(by_name["S_{2n}(q), n >= 3, q even"].remaining) == {(4, 2)}
    assert set(by_name["S_{2n}(q), n >= 3, q >= 3 odd"].remaining) == {(3, 3), (4, 3)}
    assert set(by_name["O_8^+(q), q in {2,3,5}"].remaining) == {(4, 2)}
    assert set(by_name["U_{n+1}(q), n >= 2 even"].remaining) == {(4, 2), (6, 2)}
    assert set(by_name["U_{n+1}(q), n >= 3 odd"].remaining) == {(3, 3), (5, 2)}
    assert set(by_name["3D_4(q)"].remaining) == {(4, 2)}


def test_scan_aut_bound_never_below_exact_aut():
    for rec in family_records(DATA):
        for point in list(rec.points(q_cap=17, n_cap=6))[:10]:
            n, q, u, t = point
            assert rec.scan_aut_bound(n, q, u, t) >= rec.aut_order(n, q, u, t)


def test_sporadic_data_sanity():
    recs = sporadic_records(DATA)
    assert len(recs) == 26
    by_name = {r.name: r for r in recs}
    assert by_name["M11"].aut_order == 7920
    assert by_name["M24"].aut_order == 244823040
    assert by_name["B"].aut_order == 4154781481226426191177580544000000
    assert by_name["Co1"].rdim == 276


def test_unknown_formula_raises():
    rec = FamilyRecord(
        name="bogus",
        scan={"kind": "q", "q_min": 2},
        order_formula="nope",
        out_formula="out_t",
        center_formula="c1",
        dim_bound_formula="g2q",
        bound_kind="p",
        expected_remaining=(),
    )
    with pytest.raises(UnknownFormula):
        rec.simple_order(None, 2, 2, 1)


def test_env_override_roundtrip(tmp_path, monkeypatch):
    import glattice.groupdata as gd

    path = tmp_path / gd.DATA_FILENAME
    with open(path, "w") as fh:
        json.dump(DATA, fh)
    monkeypatch.setenv(gd.DATA_ENV_VAR, str(tmp_path))
    assert load_data()["version"] == DATA["version"]


def test_point_verdict_fields():
    rec = next(r for r in family_records(DATA) if r.name == "S_4(q), q >= 3 odd")
    v = check_point(rec, 2, 9, 3, 2)
    assert v.remaining  # the published table keeps q = 9 as a remaining case
    assert v.dim_bound == 40


def test_families_without_formulas_are_reported_unscanned():
    data = json.loads(json.dumps(DATA))
    data["families"].append(
        {
            "name": "mystery family",
            "scan": {"kind": "q", "q_min": 2},
            "order_formula": None,
            "out_formula": None,
            "center_formula": None,
            "dim_bound_formula": None,
            "bound_kind": "p",
            "expected_remaining": [],
        }
    )
    rep = almost_simple_scan(data, q_cap=4, n_cap=3)
    assert "mystery family" in rep.unscanned
    assert all(f.name != "mystery family" for f in rep.families)


def _drop(path):
    def edit(data):
        *parents, key = path
        for p in parents:
            data = data[p]
        del data[key]

    return edit


def _rename_spot_check_family(data):
    data["aut_spot_checks"][0]["family"] = "no such family"


@pytest.mark.parametrize(
    "edit, named",
    [
        (_drop(["families"]), "'families'"),
        (_drop(["families", 0, "bound_kind"]), "'bound_kind'"),
        (_drop(["families", 0, "scan", "kind"]), "'kind'"),
        (_drop(["sporadics", 3, "rdim"]), "'rdim'"),
        (_drop(["aut_spot_checks", 0, "q"]), "'q'"),
        (_rename_spot_check_family, "'no such family'"),
    ],
    ids=["families", "family field", "scan kind", "sporadic field", "spot check field", "spot check family"],
)
def test_malformed_data_raises_value_error_naming_the_key(edit, named):
    data = json.loads(json.dumps(DATA))
    edit(data)
    with pytest.raises(ValueError, match=named):
        almost_simple_scan(data, q_cap=8, n_cap=4)
        aut_spot_checks(data)
