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


@pytest.mark.parametrize("q_cap", [4, 9, 27, 50])
@pytest.mark.parametrize("n_cap", [0, 3, 5, 8])
def test_scanned_families_match_expected_at_small_caps(q_cap, n_cap):
    """A fixed-n family above n_cap has no scan point, as its expected list has no entry."""
    rep = almost_simple_scan(DATA, q_cap=q_cap, n_cap=n_cap)
    for fam in rep.families:
        if fam.points_checked:
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


def test_families_without_formulas_raise_unknown_formula():
    """A null formula id fails like any unknown one; the family is never dropped silently."""
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
    with pytest.raises(UnknownFormula, match="mystery family"):
        almost_simple_scan(data, q_cap=4, n_cap=3)


def _drop(path):
    def edit(data):
        *parents, key = path
        for p in parents:
            data = data[p]
        del data[key]

    return edit


def _set(path, value):
    def edit(data):
        *parents, key = path
        for p in parents:
            data = data[p]
        data[key] = value

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
        (_set(["sporadics", 3, "aut_order"], 1.5e9), "aut_order"),
        (_set(["sporadics", 3, "rdim"], True), "rdim"),
        (_set(["aut_spot_checks", 0, "expected_aut"], 2.5), "expected_aut"),
        (_set(["families", 10, "scan", "q_not_in"], ["x"]), "q_not_in"),
        (_set(["families", 0, "scan", "q_mod4"], [1.0]), "q_mod4"),
        (_set(["families", 23, "scan", "exclude"], [[2]]), "exclude"),
        (_set(["families", 23, "scan", "exclude"], [2, 2]), "exclude"),
        (_set(["families", 0, "scan", "kind"], "qn"), "'kind'"),
        (_set(["families", 5, "scan", "q_parity"], "Odd"), "'q_parity'"),
        (_set(["families", 12, "scan", "n_parity"], "evn"), "'n_parity'"),
        (_set(["families", 4, "scan", "q_mx"], 3), "'q_mx'"),
        (_set(["families", 0, "order_formula"], ["psl2"]), "order_formula"),
        (_set(["families", 0, "dim_bound_formula"], {"id": "l2_1mod4"}), "dim_bound_formula"),
        (_set(["families", 0, "name"], ["L_2(q)"]), "'name'"),
        (_set(["sporadics", 3, "name"], ["M23"]), "'name'"),
        (_set(["aut_spot_checks", 0, "family"], ["L_n(q), n >= 3"]), "'family'"),
        (_set(["sporadics", 3, "expected_fail"], "false"), "'expected_fail'"),
        (_set(["sporadics", 3, "rdim"], 0), "'rdim'"),
        (_set(["sporadics", 3, "aut_order"], "-1"), "'aut_order'"),
    ],
    ids=["families", "family field", "scan kind", "sporadic field", "spot check field", "spot check family",
         "float aut order", "boolean rdim", "float expected aut", "string in q_not_in", "float in q_mod4",
         "short exclude pair", "exclude entry not a pair", "unknown kind", "capitalized q parity",
         "misspelled n parity", "unknown scan key", "list formula id", "object formula id", "list family name",
         "list sporadic name", "list spot check family", "string expected fail", "zero rdim", "negative aut order"],
)
def test_malformed_data_raises_value_error_naming_the_key(edit, named):
    data = json.loads(json.dumps(DATA))
    edit(data)
    with pytest.raises(ValueError, match=named):
        almost_simple_scan(data, q_cap=8, n_cap=4)
        aut_spot_checks(data)


@pytest.mark.parametrize(
    "edit",
    [
        _set(["aut_spot_checks", 0, "q"], "2"),
        _set(["aut_spot_checks", 0, "n"], "5"),
        _set(["families", 3, "scan", "n_min"], "3"),
        _set(["families", 4, "scan", "q_max"], "3"),
        _set(["families", 3, "expected_remaining", 0], ["5", "2"]),
        _set(["families", 0, "scan", "q_mod4"], ["1"]),
        _set(["families", 10, "scan", "q_not_in"], ["5"]),
        _set(["families", 11, "scan", "q_in"], ["2", 3, "5"]),
        _set(["families", 23, "scan", "exclude"], [["2", "2"]]),
    ],
    ids=["spot check q", "spot check n", "scan n_min", "scan q_max", "expected remaining pair",
         "scan q_mod4", "scan q_not_in", "scan q_in", "scan exclude"],
)
def test_decimal_strings_read_as_the_integers_they_spell(edit):
    """Every integer of a data file follows serialize.int_from_json: a decimal string is read as its int."""
    data = json.loads(json.dumps(DATA))
    edit(data)
    assert almost_simple_scan(data, q_cap=32, n_cap=8) == almost_simple_scan(DATA, q_cap=32, n_cap=8)
    assert aut_spot_checks(data) == aut_spot_checks(DATA)
