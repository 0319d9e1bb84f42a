"""CLI: exit-code contract, fixture comparison, file ingestion, determinism."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glattice import bounds, cli, groupdata
from glattice.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_CLOSED_STDOUT,
    EXIT_INPUT_ERROR,
    EXIT_MISSING_DATA,
    EXIT_OK,
    main,
)
from glattice.intmat import IntMatrix
from glattice.rootsys import RootSystemSpec, build, cartan_matrix, lattice, weyl_symrank_table
from glattice.serialize import group_to_json, matrix_to_json


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def _e8_gram(directory) -> str:
    path = directory / "e8.json"
    path.write_text(json.dumps(matrix_to_json(cartan_matrix(RootSystemSpec("E", 8)))))
    return str(path)


# JSON stdout recorded before the logarithms and the short-vector enumeration
# moved to integer-only arithmetic; both must reproduce it byte for byte.
GOLDEN_JSON = {
    "thmA": (
        '[{"a": 1, "case": "II.i", "threshold": 13, "anomalies": 0, "status": "pass"}, '
        '{"a": 1, "case": "II.ii", "threshold": 29, "anomalies": 0, "status": "pass"}, '
        '{"a": 2, "case": "II.i", "threshold": 31, "anomalies": 0, "status": "pass"}, '
        '{"a": 2, "case": "II.ii", "threshold": 31, "anomalies": 0, "status": "pass"}, '
        '{"a": 3, "case": "II.i", "threshold": 61, "anomalies": 0, "status": "pass"}, '
        '{"a": 3, "case": "II.ii", "threshold": 37, "anomalies": 0, "status": "pass"}]\n'
    ),
    "thmA2": (
        '[{"a": 2, "case": "II.i", "threshold": 31, "expected": "31", "status": "pass"}, '
        '{"a": 2, "case": "II.ii", "threshold": 31, "expected": "31", "status": "pass"}, '
        '{"a": 2, "case": "III.i", "threshold": 761, "expected": "[760, 768]", "status": "pass"}, '
        '{"a": 2, "case": "III.ii", "threshold": 1297, "expected": "[1297, 1305]", "status": "pass"}, '
        '{"a": 2, "case": "II.i @ p=29", "threshold": "fails", "expected": "fails", "status": "pass"}]\n'
    ),
    "theta E8": (
        '[{"norm": 0, "count": 1}, {"norm": 1, "count": 0}, {"norm": 2, "count": 240}, '
        '{"norm": 3, "count": 0}, {"norm": 4, "count": 2160}, {"norm": 5, "count": 0}, '
        '{"norm": 6, "count": 6720}]\n'
    ),
}


def test_rootsys_table_ok_and_filtered():
    rc, out = run(["rootsys-table", "--max-rank", "2"])
    assert rc == EXIT_OK
    names = [line.split()[0] for line in out.strip().splitlines()[1:]]
    assert set(names) == {"A1", "A2", "B2", "G2"}


def test_rootsys_table_rank8_matches_fixture():
    rc, out = run(["rootsys-table", "--max-rank", "8"])
    assert rc == EXIT_OK


def test_rootsys_table_rank8_a_rows_with_a_smaller_orbit():
    pins = {
        "8": {("A7", "L+4"): ["56", "lambda_6+2lambda_7"], ("A8", "L+3"): ["72", "lambda_7+lambda_8"]},
        "12": {
            ("A9", "L+5"): ["90", "2lambda_8+lambda_9"],
            ("A11", "L+3"): ["132", "lambda_10+lambda_11"],
            ("A11", "L+4"): ["132", "lambda_10+2lambda_11"],
            ("A11", "L+6"): ["132", "lambda_10+4lambda_11"],
        },
    }
    for max_rank, want in pins.items():
        rc, out = run(["rootsys-table", "--max-rank", max_rank])
        assert rc == EXIT_OK
        rows = {tuple(line.split()[:2]): line.split()[2:] for line in out.strip().splitlines()[1:]}
        assert {key: rows[key] for key in want} == want
    a19 = next(r for r in weyl_symrank_table(20) if (r.family, r.rank, r.lattice_label) == ("A", 19, "L+10"))
    assert (a19.symrank, a19.generator_label) == (380, "3lambda_18+4lambda_19")


def test_rootsys_table_csv_stable_columns():
    rc, out = run(["--format", "csv", "rootsys-table", "--max-rank", "2"])
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "root_system,lattice,symrank,generator"


def test_rdim_table_values():
    rc, out = run(["--format", "json", "rdim-table", "--max-n", "10"])
    assert rc == EXIT_OK
    rows = json.loads(out)
    assert [r["rdim_lower_bound"] for r in rows] == [2, 6, 12, 24, 40, 72, 128, 256, 512, 1024]
    assert rows[0]["rdim_lower_bound"] == 2


def test_rdim_table_tail_powers_of_two():
    rc, out = run(["--format", "json", "rdim-table", "--max-n", "10"])
    rows = json.loads(out)
    assert [r["rdim_lower_bound"] for r in rows[-3:]] == [256, 512, 1024]


def test_verify_three_sublattice_table():
    rc, out = run(["verify", "--name", "prop515"])
    assert rc == EXIT_OK
    assert "14" in out and "84" in out and "128" in out


def test_verify_pinned_thresholds():
    rc, out = run(["--format", "json", "verify", "--name", "thmA2"])
    assert rc == EXIT_OK
    assert out == GOLDEN_JSON["thmA2"]


def test_verify_threshold_existence_golden():
    rc, out = run(["--format", "json", "verify", "--name", "thmA"])
    assert rc == EXIT_OK
    assert out == GOLDEN_JSON["thmA"]


def test_theta_e8_golden(tmp_path):
    rc, out = run(["--format", "json", "theta", "--gram", _e8_gram(tmp_path), "--horizon", "6"])
    assert rc == EXIT_OK
    assert out == GOLDEN_JSON["theta E8"]
    assert tuple(r["count"] for r in json.loads(out)) == (1, 0, 240, 0, 2160, 0, 6720)


def test_verify_almost_simple():
    rc, out = run(["verify", "--name", "almost-simple", "--qcap", "32", "--ncap", "8"])
    assert rc == EXIT_OK
    assert "M23,M24,Co2,Co3,HS,McL" in out.replace(" ", "")


def test_verify_low_dims_reports_missing_data(tmp_path):
    rc, out = run(["verify", "--name", "low-dims"])
    assert rc == EXIT_MISSING_DATA
    assert "partial" in out
    # nothing ingests generator data, so --data cannot complete the coverage
    rc, out = run(["--data", str(tmp_path / "missing.json"), "verify", "--name", "low-dims"])
    assert rc == EXIT_MISSING_DATA
    assert "partial" in out


def test_verify_low_dims_honours_cap(capsys):
    rc, out = run(["--cap", "10", "verify", "--name", "low-dims"])
    assert rc == EXIT_CAP_EXCEEDED
    assert out == ""
    assert capsys.readouterr().err.splitlines() == ["cap exceeded: orbit exceeded cap 10"]


def test_json_verify_low_dims_prints_only_json(capsys):
    """The partial-coverage note goes to stderr alone, so stdout stays JSON lines.

    stdout was recorded while each witness still came from a per-lattice
    hint rather than from its table row; it must not change by a byte.
    """
    rc, out = run(["--format", "json", "verify", "--name", "low-dims"])
    assert rc == EXIT_MISSING_DATA
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1 and [r["status"] for r in rows[0]] == ["pass"] * 10
    assert out.encode() == (GOLDEN / "cli_verify_low_dims_json.txt").read_bytes()
    assert "partial" in capsys.readouterr().err


def test_gf2_commands():
    rc, out = run(["gf2", "factor-xp1", "--p", "7"])
    assert rc == EXIT_OK
    assert "1101" in out and "1011" in out
    rc, out = run(["gf2", "subspaces", "--p", "7"])
    assert rc == EXIT_OK
    assert "{0,1,2}" in out


def test_monomial_classify():
    rc, out = run(["monomial", "classify", "--p", "7"])
    assert rc == EXIT_OK
    assert "128" in out


def test_bounds_prime_and_prime_of_form():
    rc, out = run(["bounds", "prime", "--a", "2", "--case", "II.i", "--horizon", "500"])
    assert rc == EXIT_OK and "31" in out
    rc, out = run(["--format", "json", "bounds", "prime-of-form", "--qmax", "100", "--mmax", "12"])
    assert rc == EXIT_OK
    rows = json.loads(out)
    assert {"p": 2801, "q": 7, "m": 5} in rows


def test_symrank_command_with_ingested_group(tmp_path):
    g2 = build(RootSystemSpec("G", 2))
    gpath = tmp_path / "g2.json"
    gpath.write_text(json.dumps(group_to_json(2, list(g2.matgroup().generators), label="w(g2)")))
    rc, out = run(["symrank", "--group", str(gpath), "--radius", "3"])
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["upper_bound"] == 6
    assert payload["exactness"] == "exact_within_bound"
    rc, out = run(["symrank", "--group", str(gpath), "--mode", "orbit:2,-1"])
    assert json.loads(out) == {"generates": True, "orbit_size": 6, "vector": [2, -1]}


def test_theta_command(tmp_path):
    mpath = tmp_path / "a2.json"
    mpath.write_text(json.dumps(matrix_to_json(IntMatrix.from_rows([(2, -1), (-1, 2)]))))
    rc, out = run(["--format", "json", "theta", "--gram", str(mpath), "--horizon", "2"])
    assert rc == EXIT_OK
    rows = json.loads(out)
    assert [r["count"] for r in rows] == [1, 0, 6]
    rc, out = run(["theta", "--gram", str(mpath), "--diagonal-bound"])
    assert rc == EXIT_OK and "6" in out


def test_theta_diagonal_bound_of_the_zero_form(tmp_path):
    """A 0x0 Gram matrix has no diagonal norms; its only vector is 0, so the bound is 0."""
    mpath = _write(tmp_path / "zero.json", {"rows": 0, "cols": 0, "entries": []})
    rc, out = run(["--format", "json", "theta", "--gram", mpath, "--diagonal-bound"])
    assert (rc, out) == (EXIT_OK, '[{"diagonal_norms": [], "bound": 0}]\n')


def test_theta_names_a_non_square_gram_matrix(tmp_path, capsys):
    """A 2x3 Gram matrix used to exit 5 with "Gram matrix must be symmetric"."""
    mpath = _write(tmp_path / "m.json", matrix_to_json(IntMatrix.from_rows([(2, 1, 0), (1, 2, 0)])))
    assert run(["theta", "--gram", mpath, "--horizon", "2"]) == (EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err.splitlines() == ["input error: Gram matrix must be square, not 2x3"]


@pytest.mark.parametrize("cap, code", [(240, EXIT_CAP_EXCEEDED), (241, EXIT_OK)])
def test_theta_cap_counts_every_vector(cap, code, tmp_path, capsys):
    """E8 has 1 + 240 vectors of norm <= 2: --cap 240 stops at the 241st, --cap 241 counts them all."""
    rc, out = run(["--cap", str(cap), "theta", "--gram", _e8_gram(tmp_path), "--horizon", "2"])
    assert rc == code
    if code == EXIT_OK:
        assert out.split() == ["norm", "count", "0", "1", "1", "0", "2", "240"]
    else:
        assert out == ""
        assert capsys.readouterr().err.splitlines() == ["cap exceeded: short vector enumeration exceeded cap 240"]


def test_cap_exceeded_exit_code(tmp_path):
    gpath = tmp_path / "order2.json"
    gpath.write_text(json.dumps(group_to_json(2, [IntMatrix.from_rows([(0, 1), (1, 0)])])))
    rc, _ = run(["--cap", "1", "symrank", "--group", str(gpath), "--radius", "2"])
    assert rc == EXIT_CAP_EXCEEDED


@pytest.mark.parametrize(
    "gens, argv, cap, message",
    [
        # {+-I} on Z^3 at radius 3: 7^3 - 1 = 342 box vectors, each orbit of size 2
        ([IntMatrix.diagonal([-1, -1, -1])], ["--radius", "3"], 100, "box exceeded cap 100"),
        # a shear: 8 box vectors, and the orbit of (0, 1) is infinite
        ([IntMatrix.from_rows([(1, 1), (0, 1)])], ["--radius", "1"], 30, "orbit exceeded cap 30"),
        # the same orbit by --mode orbit: its span takes a few steps, so exit 4 shows the orbit is listed first
        ([IntMatrix.from_rows([(1, 1), (0, 1)])], ["--mode", "orbit:0,1"], 30, "orbit exceeded cap 30"),
    ],
    ids=["box", "orbit", "orbit mode"],
)
def test_symrank_cap_is_one_line_and_exit_4(gens, argv, cap, message, tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(group_to_json(gens[0].rows, gens)))
    rc, out = run(["--cap", str(cap), "symrank", "--group", str(gpath), *argv])
    assert rc == EXIT_CAP_EXCEEDED == 4
    assert out == ""
    assert capsys.readouterr().err.splitlines() == [f"cap exceeded: {message}"]


@pytest.mark.parametrize("argv", [["gf2", "subspaces", "--p", "127"], ["monomial", "classify", "--p", "127"]],
                         ids=["gf2 subspaces", "monomial classify"])
def test_subset_cap_is_one_line_and_exit_4(argv, capsys):
    """x^127 - 1 has 19 factors over GF(2): 2^19 subsets exceed the cap."""
    rc, out = run(argv)
    assert rc == EXIT_CAP_EXCEEDED == 4
    assert out == ""
    assert capsys.readouterr().err.splitlines() == ["cap exceeded: subset enumeration exceeded cap 4096"]


GOLDEN = Path(__file__).resolve().parent / "golden"

# stdout recorded before the prime-dimension lattices were read off their
# mod-2 subspaces, and (factor-xp1) before Berlekamp's Q rows were built by
# shifts; p = 73 and p = 257 were recorded from Berlekamp's factorization
# before x^p - 1 was split by its coset idempotents and the factors labelled
# by trace signatures; the rootsys and rdim tables while each table row still
# carried a generator beside its witness and each named lattice a hint; the
# almost-simple scan while its sporadic groups had their own copy of the two
# inequalities.  It must not change by a byte.
GOLDEN_TEXT = {
    "cli_gf2_factor_xp1_p73": ["--format", "json", "gf2", "factor-xp1", "--p", "73"],
    "cli_gf2_factor_xp1_p127": ["--format", "json", "gf2", "factor-xp1", "--p", "127"],
    "cli_gf2_factor_xp1_p257": ["--format", "json", "gf2", "factor-xp1", "--p", "257"],
    "cli_gf2_factor_xp1_p521": ["--format", "json", "gf2", "factor-xp1", "--p", "521"],
    "cli_monomial_classify_p7": ["monomial", "classify", "--p", "7"],
    "cli_monomial_classify_p31": ["monomial", "classify", "--p", "31"],
    "cli_gf2_subspaces_p7": ["gf2", "subspaces", "--p", "7"],
    "cli_gf2_subspaces_p31": ["gf2", "subspaces", "--p", "31"],
    "cli_verify_prop515": ["verify", "--name", "prop515"],
    "cli_verify_almost_simple": ["verify", "--name", "almost-simple"],
    "cli_verify_almost_simple_json": ["--format", "json", "verify", "--name", "almost-simple"],
    "cli_rootsys_table_rank8": ["rootsys-table", "--max-rank", "8"],
    "cli_rootsys_table_rank8_json": ["--format", "json", "rootsys-table", "--max-rank", "8"],
    "cli_rdim_table_n10": ["rdim-table", "--max-n", "10"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXT))
def test_text_golden(name):
    rc, out = run(GOLDEN_TEXT[name])
    assert rc == EXIT_OK
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


def test_byte_stable_output():
    outs = {run(["rootsys-table", "--max-rank", "8"])[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {run(["verify", "--name", "prop515"])[1] for _ in range(2)}
    assert len(outs) == 1


def test_synthetic_generator_file_ingestion(tmp_path):
    """External generator sets enter through the documented group schema."""
    # a synthetic stand-in for an exported maximal-group generator file
    obj = {
        "dim": 2,
        "generators": [
            {"rows": 2, "cols": 2, "entries": ["0", "-1", "1", "0"]},
            {"rows": 2, "cols": 2, "entries": ["0", "1", "1", "0"]},
        ],
        "gram": {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]},
        "label": "synthetic (2,q,z) export",
    }
    gpath = tmp_path / "synthetic.json"
    gpath.write_text(json.dumps(obj))
    rc, out = run(["symrank", "--group", str(gpath), "--radius", "2"])
    assert rc == EXIT_OK
    assert json.loads(out)["upper_bound"] == 4  # orbit of e_1 under D_4-symmetry
    mpath = tmp_path / "gram.json"
    mpath.write_text(json.dumps(obj["gram"]))
    rc, out = run(["--format", "json", "theta", "--gram", str(mpath), "--diagonal-bound"])
    assert rc == EXIT_OK
    assert json.loads(out) == [{"diagonal_norms": [1], "bound": 4}]  # the file's group keeps I_2, so this bounds its symmetric rank


def _write(path, obj):
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


ONE_GENERATOR = group_to_json(1, [IntMatrix.from_rows([(-1,)])])


def _swap_with_entries(entries):
    """A one-generator group file in dimension 2 whose generator has the given JSON entries."""
    return {"dim": 2, "generators": [{"rows": 2, "cols": 2, "entries": entries}]}


def _family_without_scan():
    data = groupdata.load_data()
    del data["families"][0]["scan"]
    return data


def _first_family_with(**fields):
    """The bundled data with fields of the first family record replaced."""
    data = groupdata.load_data()
    data["families"][0].update(fields)
    return data


def _sporadic_m23_with(**fields):
    """The bundled data with M23 expected to pass and fields of its record replaced."""
    data = groupdata.load_data()
    m23 = next(s for s in data["sporadics"] if s["name"] == "M23")
    m23.update({"expected_fail": False, **fields})
    return data


def _first_spot_check_with(**fields):
    """The bundled data with fields of the first exact-|Aut| spot check replaced."""
    data = groupdata.load_data()
    data["aut_spot_checks"][0].update(fields)
    return data


def _g2_with_identity_gram():
    g2 = build(RootSystemSpec("G", 2))
    return group_to_json(2, list(g2.matgroup().generators), gram=IntMatrix.identity(2), label="W(G2)")


BAD_INPUTS = {
    "missing group file": lambda d: ["symrank", "--group", str(d / "missing.json")],
    "malformed json": lambda d: ["symrank", "--group", _write(d / "bad.json", '{"dim": 2, "generators": [')],
    "group file as gram": lambda d: ["theta", "--gram", _write(d / "g.json", ONE_GENERATOR)],
    "radius 0": lambda d: ["symrank", "--group", _write(d / "g.json", ONE_GENERATOR), "--radius", "0"],
    "lattice of another dimension": lambda d: [
        "symrank", "--group", _write(d / "g.json", ONE_GENERATOR),
        "--lattice", _write(d / "l.json", matrix_to_json(IntMatrix.identity(2))),
    ],
    "max rank 0": lambda d: ["rootsys-table", "--max-rank", "0"],
    "threshold a 0": lambda d: ["bounds", "prime", "--a", "0", "--case", "II.i"],
    "non-unimodular generator": lambda d: [
        "symrank", "--group", _write(d / "g2.json", group_to_json(1, [IntMatrix.from_rows([(2,)])]))
    ],
    "data without families": lambda d: ["--data", _write(d / "e.json", {}), "verify", "--name", "almost-simple"],
    "family without scan": lambda d: [
        "--data", _write(d / "f.json", _family_without_scan()), "verify", "--name", "almost-simple"
    ],
    "family with a null order formula": lambda d: [
        "--data", _write(d / "f.json", _first_family_with(order_formula=None)), "verify", "--name", "almost-simple"
    ],
    "scan q_parity Odd": lambda d: [
        "--data", _write(d / "f.json", _first_family_with(scan={"kind": "q", "q_min": 5, "q_parity": "Odd"})),
        "verify", "--name", "almost-simple",
    ],
    "verify qcap 0": lambda d: ["verify", "--name", "almost-simple", "--qcap", "0"],
    "verify qcap 1": lambda d: ["verify", "--name", "almost-simple", "--qcap", "1"],
    # caps that leave a family unscanned: n_min 3 for L_n(q), q >= 27 for 2G_2
    "verify ncap 0": lambda d: ["verify", "--name", "almost-simple", "--ncap", "0"],
    "verify qcap 20": lambda d: ["verify", "--name", "almost-simple", "--qcap", "20"],
    "rdim max n 0": lambda d: ["rdim-table", "--max-n", "0"],
    # file values read as integers: a float or a boolean is not truncated
    "float generator entry": lambda d: ["symrank", "--group", _write(d / "g.json", _swap_with_entries([0, 1.9, 1, 0]))],
    "boolean generator entry": lambda d: [
        "symrank", "--group", _write(d / "g.json", _swap_with_entries([0, 1, True, 0]))
    ],
    "float dim": lambda d: ["symrank", "--group", _write(d / "g.json", dict(ONE_GENERATOR, dim=1.5))],
    "float gram entry": lambda d: [
        "theta", "--gram", _write(d / "m.json", {"rows": 2, "cols": 2, "entries": ["2", "-1", "-1", 2.5]})
    ],
    # the diagonal-theta route is gone: theta --diagonal-bound bounds under Aut(X), which W(G2) does not keep
    "symrank mode diagonal-theta": lambda d: [
        "symrank", "--group", _write(d / "g2.json", _g2_with_identity_gram()), "--mode", "diagonal-theta"
    ],
    "list formula id": lambda d: [
        "--data", _write(d / "f.json", _first_family_with(order_formula=["psl2"])), "verify", "--name", "almost-simple"
    ],
    "list family name": lambda d: [
        "--data", _write(d / "f.json", _first_family_with(name=["L_2(q)"])), "verify", "--name", "almost-simple"
    ],
    "string expected_fail": lambda d: [
        "--data", _write(d / "f.json", _sporadic_m23_with(expected_fail="false")), "verify", "--name", "almost-simple"
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_line_and_exit_5(case, tmp_path, capsys):
    rc, out = run(BAD_INPUTS[case](tmp_path))
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT_ERROR == 5
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["symrank", "theta"])
def test_a_cap_below_1_is_an_input_error(command, cap, tmp_path, capsys):
    """Such a cap used to reach the enumeration and exit 4 with "box exceeded cap -1"."""
    argv = {
        "symrank": ["symrank", "--group", _write(tmp_path / "g.json", ONE_GENERATOR)],
        "theta": ["theta", "--gram", _e8_gram(tmp_path)],
    }[command]
    rc, out = run(["--cap", cap, *argv])
    assert (rc, out) == (EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err.splitlines() == [f"input error: --cap must be at least 1, not {cap}"]


def test_a_negative_group_dim_is_an_input_error_naming_the_file(tmp_path, capsys):
    """Such a file used to exit 5 with "negative matrix dimensions", which names neither the file nor the field."""
    path = _write(tmp_path / "g.json", {"dim": -1, "generators": []})
    assert run(["symrank", "--group", path]) == (EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err.splitlines() == [
        f"input error: {path}: not a group file (ValueError: group dim is negative)"
    ]


@pytest.mark.parametrize(
    "field, value", [("rdim", 0), ("rdim", -5), ("aut_order", 0), ("aut_order", "-1")],
    ids=["rdim 0", "rdim -5", "aut_order 0", "aut_order -1"],
)
def test_sporadic_bound_fields_must_be_positive(field, value, tmp_path, capsys):
    """Such a record held both inequalities vacuously (2^0 >= 0, 2^29 >= 58 A) and the scan passed M23."""
    data = _write(tmp_path / "f.json", _sporadic_m23_with(**{field: value}))
    rc, out = run(["--data", data, "verify", "--name", "almost-simple"])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT_ERROR and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ") and repr(field) in err


def test_spot_check_q_as_a_decimal_string_is_accepted(tmp_path):
    data = _write(tmp_path / "f.json", _first_spot_check_with(q="2"))
    assert run(["--data", data, "verify", "--name", "almost-simple"]) == run(["verify", "--name", "almost-simple"])


def test_a_family_that_still_carries_bound_kind_prints_as_before(tmp_path):
    """Family keys that nothing reads are ignored."""
    data = _write(tmp_path / "f.json", _first_family_with(bound_kind="p"))
    assert run(["--data", data, "verify", "--name", "almost-simple"]) == run(["verify", "--name", "almost-simple"])


def test_verify_almost_simple_parses_the_sporadic_records_once(monkeypatch):
    calls = 0
    parse = groupdata.sporadic_records

    def counted(data):
        nonlocal calls
        calls += 1
        return parse(data)

    monkeypatch.setattr(groupdata, "sporadic_records", counted)
    assert run(["verify", "--name", "almost-simple"])[0] == EXIT_OK
    assert calls == 1


def test_verify_thma2_takes_each_prime_log_once(monkeypatch):
    """Cases III.i and III.ii scan the same 303 odd primes up to 2003 and share
    the three logs of each (p^2 + 1, p and the scaled log2 p); III.ii adds log2 a.
    Taking them per case made 7 calls per prime, 2,121 in all."""
    calls = 0
    interval = bounds._log2_interval

    def counted(x, bits):
        nonlocal calls
        calls += 1
        return interval(x, bits)

    bounds._prime_logs.cache_clear()
    monkeypatch.setattr(bounds, "_log2_interval", counted)
    rc, out = run(["--format", "json", "verify", "--name", "thmA2"])
    assert rc == EXIT_OK and out == GOLDEN_JSON["thmA2"]
    assert calls == 4 * 303


def test_assertion_error_is_not_an_input_error(monkeypatch):
    def broken(*args):
        raise AssertionError("internal invariant")

    monkeypatch.setattr(cli, "cmd_rootsys_table", broken)
    with pytest.raises(AssertionError):
        run(["rootsys-table", "--max-rank", "2"])


# One process shares one parser across main calls.


def test_a_value_given_in_one_call_does_not_reach_the_next(tmp_path):
    gpath = _write(tmp_path / "swap.json", SWAP)
    rc, out = run(["symrank", "--group", gpath, "--radius", "1"])
    assert rc == EXIT_OK and json.loads(out)["radius"] == 1
    rc, out = run(["symrank", "--group", gpath])
    assert rc == EXIT_OK and json.loads(out)["radius"] == 3

    text = run(["rootsys-table", "--max-rank", "2"])
    assert text[1].startswith("root_system  lattice")
    rc, out = run(["--format", "json", "rootsys-table", "--max-rank", "2"])
    assert rc == EXIT_OK and json.loads(out)
    assert run(["rootsys-table", "--max-rank", "2"]) == text


def test_a_usage_error_between_two_calls_is_still_exit_5(capsys):
    argv = ["gf2", "factor-xp1", "--p", "7"]
    first = run(argv)
    assert first[0] == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["rootsys-table", "--max-rank", "abc"])
    assert exc.value.code == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("input error: ")
    assert run(argv) == first


def test_main_builds_the_parser_once(monkeypatch):
    """Every (sub)parser is a cli._Parser; after the first call none is made."""
    made = 0
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        nonlocal made
        made += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert run(["gf2", "factor-xp1", "--p", "7"])[0] == EXIT_OK
    assert made > 1
    first = made
    assert run(["bounds", "prime-of-form", "--qmax", "10", "--mmax", "3"])[0] == EXIT_OK
    assert made == first


def test_a_handler_replaced_after_the_first_call_runs(monkeypatch):
    assert run(["rootsys-table", "--max-rank", "2"])[0] == EXIT_OK
    seen = []

    def replaced(args, out):
        seen.append(args.max_rank)
        print("replaced", file=out)
        return []

    monkeypatch.setattr(cli, "cmd_rootsys_table", replaced)
    assert run(["rootsys-table", "--max-rank", "3"]) == (EXIT_OK, "replaced\n")
    assert seen == [3]


def _cli(flags, argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *flags, "-m", "glattice", *argv], env=env, capture_output=True)


def _cli_stdout(flags, argv) -> bytes:
    proc = _cli(flags, argv)
    proc.check_returncode()
    return proc.stdout


def _a5_intermediate_3(directory) -> list[str]:
    """symrank arguments for W(A5) on the lattice A5 L+3 (root lattice plus lambda_3)."""
    model = build(RootSystemSpec("A", 5))
    basis = IntMatrix.from_rows(lattice(model, "intermediate", 3).basis.rows())
    return [
        "symrank",
        "--group", _write(directory / "a5.json", group_to_json(5, model.simple_reflections, label="A5")),
        "--lattice", _write(directory / "a5-l3.json", matrix_to_json(basis)),
        "--radius", "2",
    ]


def test_optimized_run_prints_the_same(tmp_path):
    """Under ``python -O`` the integer checks and the generated orbit kernel still run and stdout is unchanged."""
    for argv in (
        ["theta", "--gram", _e8_gram(tmp_path), "--horizon", "6"],
        ["verify", "--name", "thmA2"],
        ["--format", "json", "gf2", "factor-xp1", "--p", "257"],
        _a5_intermediate_3(tmp_path),
    ):
        assert _cli_stdout(["-O"], argv) == _cli_stdout([], argv)


SWAP = group_to_json(2, [IntMatrix.from_rows([(0, 1), (1, 0)])])

# Errors raised below the CLI that used to end in a traceback with exit 1.
RAISED_INPUT_ERRORS = {
    "lattice not kept by the group": lambda d: [
        "symrank", "--group", _write(d / "swap.json", SWAP),
        "--lattice", _write(d / "l.json", matrix_to_json(IntMatrix.from_rows([(1, 0), (0, 2)]))),
    ],
    "orbit vector outside the lattice": lambda d: [
        "symrank", "--group", _write(d / "swap.json", SWAP),
        "--lattice", _write(d / "l.json", matrix_to_json(IntMatrix.diagonal([2, 2]))), "--mode", "orbit:1,0",
    ],
    "factor-xp1 p 4": lambda d: ["gf2", "factor-xp1", "--p", "4"],
    "subspaces p 9": lambda d: ["gf2", "subspaces", "--p", "9"],
    "classify p 4": lambda d: ["monomial", "classify", "--p", "4"],
    "horizon too small": lambda d: ["bounds", "prime", "--a", "1", "--horizon", "5"],
    "formula with no evaluator": lambda d: [
        "--data", _write(d / "f.json", _first_family_with(order_formula="no-such-formula")),
        "verify", "--name", "almost-simple",
    ],
    "dimension bound with no evaluator": lambda d: [
        "--data", _write(d / "f.json", _first_family_with(dim_bound_formula="no-such-formula")),
        "verify", "--name", "almost-simple",
    ],
    "q_max not an integer": lambda d: [
        "--data", _write(d / "f.json", _first_family_with(scan={"kind": "q", "q_max": "x"})),
        "verify", "--name", "almost-simple",
    ],
    "spot check q not an integer": lambda d: [
        "--data", _write(d / "f.json", _first_spot_check_with(q="x")), "verify", "--name", "almost-simple",
    ],
    "spot check n not an integer": lambda d: [
        "--data", _write(d / "f.json", _first_spot_check_with(n="x")), "verify", "--name", "almost-simple",
    ],
    "spot check q a float": lambda d: [
        "--data", _write(d / "f.json", _first_spot_check_with(q=2.0)), "verify", "--name", "almost-simple",
    ],
    "spot check q a boolean": lambda d: [
        "--data", _write(d / "f.json", _first_spot_check_with(q=True)), "verify", "--name", "almost-simple",
    ],
    "spot check q the string 0": lambda d: [
        "--data", _write(d / "f.json", _first_spot_check_with(q="0")), "verify", "--name", "almost-simple",
    ],
    "expected remaining case not a pair": lambda d: [
        "--data", _write(d / "f.json", _first_family_with(expected_remaining=[[5]])),
        "verify", "--name", "almost-simple",
    ],
}


@pytest.mark.parametrize("case", sorted(RAISED_INPUT_ERRORS))
def test_raised_input_errors_are_one_line_and_exit_5(case, tmp_path):
    proc = _cli([], RAISED_INPUT_ERRORS[case](tmp_path))
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_INPUT_ERROR == 5
    assert proc.stdout == b""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")
    assert "Traceback" not in err


# symrank --mode orbit: on the line spanned by (1, 1), which diag(-1, 1) does
# not keep.  The lattice used to be checked in exact mode only, so orbit:1,1
# printed "generates": false and exited 0; a malformed vector used to print
# int()'s message, which names no option.
ORBIT_MODE_ERRORS = {
    "orbit:1,1": "input error: lattice is not stable under a generator",
    "orbit:1,x": "input error: --mode takes orbit:v1,v2,... with integer entries, not 'orbit:1,x'",
    "orbit:": "input error: --mode takes orbit:v1,v2,... with integer entries, not 'orbit:'",
}


@pytest.mark.parametrize("mode", sorted(ORBIT_MODE_ERRORS))
def test_orbit_mode_input_errors_exit_5(mode, tmp_path, capsys):
    argv = [
        "symrank", "--group", _write(tmp_path / "g.json", group_to_json(2, [IntMatrix.diagonal([-1, 1])])),
        "--lattice", _write(tmp_path / "l.json", matrix_to_json(IntMatrix.from_rows([(1, 1)]))),
    ]
    assert run([*argv, "--mode", "exact"]) == (EXIT_INPUT_ERROR, "")
    capsys.readouterr()
    assert run([*argv, "--mode", mode]) == (EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err.splitlines() == [ORBIT_MODE_ERRORS[mode]]


# Command lines that argparse rejects; it used to exit 2, the fixture-mismatch code.
USAGE_ERRORS = {
    "max-rank not an integer": ["rootsys-table", "--max-rank", "abc"],
    "unknown command": ["no-such-command"],
    "factor-xp1 without --p": ["gf2", "factor-xp1"],
    "bounds almost-simple": ["bounds", "almost-simple"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_are_one_line_and_exit_5(case):
    proc = _cli([], USAGE_ERRORS[case])
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_INPUT_ERROR == 5
    assert proc.stdout == b""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")


def test_closed_stdout_ends_quietly():
    """A reader that closes the pipe after one line (``| head -1``) is not an input error.

    The 131 kB of ``gf2 subspaces --p 31`` exceed a pipe's buffer, so the
    writer is still writing when the pipe closes.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "glattice", "gf2", "subspaces", "--p", "31"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"subset")
    proc.stdout.close()
    rc = proc.wait(timeout=60)
    with proc.stderr:
        assert proc.stderr.read() == b""
    assert rc == EXIT_CLOSED_STDOUT == 141


@pytest.mark.parametrize("argv", [["--help"], ["gf2", "factor-xp1", "--help"]], ids=["top level", "subcommand"])
def test_help_still_exits_0(argv):
    proc = _cli([], argv)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith(b"usage: glattice") and proc.stderr == b""

