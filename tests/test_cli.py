import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from logfol.cli import MAX_BEZOUT, MAX_DIMENSION, MAX_STRATA, main, parse_spec
from logfol.errors import InputError
from logfol.indices import RationalPoint
from logfol.polynomials import MAX_COEFFICIENT_BITS, MAX_DEGREE, MAX_TERMS

TRIANGLE = {
    "n": 2,
    "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
    "hyperplanes": ["z0", "z1", "z2"],
    "points": [["1", "1", "1"], ["1", "0", "0"]],
}


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# ----------------------------------------------------------------- verify


def test_verify_text_report(triangle_file, capsys):
    assert main(["verify", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "lhs chern integral: 1" in out
    assert "rhs stratified total: 1" in out
    assert "verified: yes" in out
    assert "point [1:1:1]: off divisor, singular, mu=1, log=1" in out
    assert "point [1:0:0]: on hyperplanes 1,2" in out


def test_verify_json_report(triangle_file, capsys):
    assert main(["--report", "json", "verify", triangle_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lhs_chern"] == payload["rhs_total"] == 1
    assert payload["verified"] is True
    assert len(payload["strata"]) == 7
    assert payload["points"][0]["milnor"] == 1
    assert payload["points"][1]["hom_index"] == 1


def test_reports_are_byte_stable(triangle_file, capsys):
    main(["--report", "json", "verify", triangle_file])
    first = capsys.readouterr().out
    main(["--report", "json", "verify", triangle_file])
    second = capsys.readouterr().out
    assert first == second
    main(["verify", triangle_file])
    third = capsys.readouterr().out
    main(["verify", triangle_file])
    fourth = capsys.readouterr().out
    assert third == fourth


def test_verify_check_sigma(triangle_file, capsys):
    assert main(["--report", "json", "verify", triangle_file,
                 "--check-sigma"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma_closed_form"] == 1
    assert payload["sigma_matches"] is True
    assert any("12" in w for w in payload["warnings"])


# ----------------------------------------------------- other subcommands


def test_chern_subcommand(triangle_file, capsys):
    assert main(["--report", "json", "chern", triangle_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lhs_chern"] == 1
    assert "rhs_total" not in payload


def test_count_complement_subcommand(triangle_file, capsys):
    assert main(["count-complement", triangle_file]) == 0
    assert "complement milnor sum: 1" in capsys.readouterr().out


def test_indices_merges_cli_points(triangle_file, capsys):
    assert main(["--report", "json", "indices", triangle_file,
                 "--point", "0,1,1", "--point", "1,1,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    shown = [rec["point"] for rec in payload["points"]]
    assert shown == ["[1:1:1]", "[1:0:0]", "[0:1:1]", "[1:1:0]"]


def test_indices_rejects_bad_point(triangle_file, capsys):
    assert main(["indices", triangle_file, "--point", "1,2"]) == 2
    assert "SYNTAX_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_python_m_logfol_runs_verify(triangle_file, flags):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "logfol", "--report", "json", "verify",
         triangle_file], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["verified"] is True


# ------------------------------------------------------------- validation


ERROR_DOCS = [
    ("{not json", "SYNTAX_ERROR"),
    ({"n": 2, "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
      "hyperplanes": ["z0", "z1", "z0 + z1"]}, "NC_VIOLATION"),
    ({"n": 2, "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
      "hyperplanes": ["z0 + z1"]}, "NOT_LOGARITHMIC"),
    ({"n": 2, "foliation": ["0", "z1", "z2*(z2 - z0)"],
      "hyperplanes": []}, "DEGREE_MISMATCH"),
    ({"n": 2, "foliation": ["0", "z1^2", "z1*z2"],
      "hyperplanes": []}, "POSITIVE_DIM_SING"),
    ({"n": 2, "foliation": ["0", "z1*(z1 - z0)", "z5^2"],
      "hyperplanes": []}, "SYNTAX_ERROR"),
    ({"n": 2, "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
      "hyperplanes": [], "points": [["0", "0", "0"]]}, "SYNTAX_ERROR"),
    ({"n": 0, "foliation": ["0"], "hyperplanes": []}, "SYNTAX_ERROR"),
    # the list length is checked before anything of size n is built
    ({"n": 10**8, "foliation": ["0", "z1", "z2"], "hyperplanes": []}, "SYNTAX_ERROR"),
    ({"n": 2, "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
      "hyperplanes": [], "extra": 1}, "SYNTAX_ERROR"),
]


@pytest.mark.parametrize("doc,code", ERROR_DOCS)
def test_validation_errors_exit_two(tmp_path, capsys, doc, code):
    path = write_doc(tmp_path, doc)
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error {code}:")


LIMITS = {"dimension": MAX_DIMENSION, "strata": MAX_STRATA, "bezout": MAX_BEZOUT}


@pytest.mark.parametrize("limit,n,degree,k,value", [
    ("dimension", MAX_DIMENSION, 1, 0, MAX_DIMENSION),
    ("dimension", MAX_DIMENSION + 1, 1, 0, MAX_DIMENSION + 1),
    ("strata", 1, 1, MAX_STRATA - 1, MAX_STRATA),
    ("strata", 1, 1, MAX_STRATA, MAX_STRATA + 1),
    ("bezout", 7, 2, 0, MAX_BEZOUT),
    # no document has the Bezout bound 256: the least above 255 is P^3 at degree 6
    ("bezout", 3, 6, 0, 259),
])
def test_shape_limits_are_inclusive(tmp_path, capsys, limit, n, degree, k, value):
    assert value == {"dimension": n, "strata": sum(comb(k, s) for s in range(n + 1)),
                     "bezout": sum(degree ** i for i in range(n + 1))}[limit]
    # a radial field: once past the shape checks, Foliation refuses it at once
    doc = {"n": n, "foliation": [f"z{i}*z0^{degree - 1}" for i in range(n + 1)],
           "hyperplanes": [f"z0 + {i}*z1" for i in range(k)]}
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    if value > LIMITS[limit]:
        assert err.startswith("error INPUT_TOO_LARGE:")
        assert f" {LIMITS[limit]}" in err
    else:
        assert err.startswith("error POSITIVE_DIM_SING: radial representative")


def test_deep_nesting_exits_two(tmp_path, capsys):
    deep = "(" * 3000 + "z1" + ")" * 3000
    doc = dict(TRIANGLE, foliation=["0", f"{deep}*(z1 - z0)", "z2*(z2 - z0)"])
    assert main(["chern", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error SYNTAX_ERROR: foliation[1]:")


@pytest.mark.parametrize("component", [
    "(z0 + z1)^400", f"z1^{MAX_DEGREE}*z2", f"(z1^2)^{MAX_DEGREE // 2 + 1}",
    f"z1^10*(z1 + z2)^{MAX_DEGREE - 9}",
])
def test_degree_over_budget_exits_two(tmp_path, capsys, component):
    doc = dict(TRIANGLE, foliation=["0", component, "z2*(z2 - z0)"])
    assert main(["chern", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error SYNTAX_ERROR: foliation[1]:")
    assert f"above {MAX_DEGREE}" in err


@pytest.mark.parametrize("component,limit", [
    ("(z0 + z1 + z2)^25*(z0 + z1 + z2)^25", MAX_TERMS),
    ("((9^100)^100)^10*z1^2", MAX_COEFFICIENT_BITS),
])
def test_terms_and_coefficients_over_budget_exit_two(tmp_path, capsys, component, limit):
    doc = dict(TRIANGLE, foliation=["0", component, "z2*(z2 - z0)"])
    assert main(["chern", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error SYNTAX_ERROR: foliation[1]:")
    assert f"above {limit}" in err


BIG = 3 ** 4000  # 6340 bits: within MAX_COEFFICIENT_BITS alone, above it once scaled


@pytest.mark.parametrize("coords", [
    ["1e10000", "1", "1"], ["1", "2E3", "1"], ["1", f"1/{3 ** 7000}", "1"],
    [f"1/{BIG}", str(BIG), "1"],
], ids=["exponent", "capital-exponent", "long-denominator", "long-once-scaled"])
def test_point_coordinates_over_budget_exit_two(tmp_path, capsys, coords):
    doc = dict(TRIANGLE, points=[coords])
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error SYNTAX_ERROR: points[0]:")
    doc = dict(TRIANGLE, points=[])
    argv = ["indices", write_doc(tmp_path, doc), "--point", ",".join(coords)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error SYNTAX_ERROR: --point")


@pytest.mark.parametrize("coord", [True, False, None, [1], {"x": 1}],
                         ids=["true", "false", "null", "list", "object"])
def test_point_coordinates_must_be_numbers_or_strings(tmp_path, capsys, coord):
    doc = dict(TRIANGLE, points=[["1", "1", "1"], ["1", coord, "0"]])
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        "error SYNTAX_ERROR: points[1]: coordinates must be numbers or strings\n"


def test_json_number_coordinates_are_accepted():
    doc = dict(TRIANGLE, points=[[1, 1, 1.0], ["1", 0, 0.0]])
    assert parse_spec(json.dumps(doc)).points == parse_spec(json.dumps(TRIANGLE)).points


def with_point(literal):
    """The triangle document with one point written as raw JSON."""
    return json.dumps(dict(TRIANGLE, points="@")).replace('"@"', f"[[{literal}]]")


def test_json_float_coordinates_are_read_as_written():
    # str(1e16) switches to exponent form; the literal has no exponent
    spec = parse_spec(with_point("1, 10000000000000000.0, 0.25"))
    assert spec.points[0].coords == (1, 10 ** 16, Fraction(1, 4))
    # 0.1 as written, not the binary float next to it
    assert parse_spec(with_point("1, 0.1, 1")).points[0].coords[1] == Fraction(1, 10)


@pytest.mark.parametrize("literal,reason", [
    ("1, 1, 1e-05", "coordinates take no exponent"),
    ("1, 1, 1E+16", "coordinates take no exponent"),
    ("1, NaN, 1", "coordinates must be finite"),
    ("1, 1, Infinity", "coordinates must be finite"),
    ("-Infinity, 1, 1", "coordinates must be finite"),
    ('1, "nan", 1', "coordinates must be finite"),
], ids=["exponent", "capital-exponent", "nan", "infinity", "minus-infinity", "nan-string"])
def test_json_number_literals_refused(tmp_path, capsys, literal, reason):
    assert main(["verify", write_doc(tmp_path, with_point(literal))]) == 2
    assert capsys.readouterr().err == f"error SYNTAX_ERROR: points[0]: {reason}\n"


@pytest.mark.parametrize("point", ["1,nan,1", "1,1,-inf", "Infinity,1,1"])
def test_cli_point_must_be_finite(tmp_path, capsys, point):
    argv = ["indices", write_doc(tmp_path, dict(TRIANGLE, points=[])), "--point", point]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error SYNTAX_ERROR: --point {point!r}: coordinates must be finite\n"


def test_errors_quote_at_most_200_characters(tmp_path, capsys):
    doc = dict(TRIANGLE, points=[])
    point = f"1,1/{3 ** 7000},1"
    assert main(["indices", write_doc(tmp_path, doc), "--point", point]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error SYNTAX_ERROR: --point {point[:200]!r}...: coordinate of ")
    assert len(err) < 300 and err.count("\n") == 1

    bad = "z1*(z1 - z0)" + " + z1*z2" * 60 + " + %"
    doc = dict(TRIANGLE, foliation=["0", bad, "z2*(z2 - z0)"])
    assert main(["chern", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err == ("error SYNTAX_ERROR: foliation[1]: unexpected character at position "
                   f"{len(bad) - 1} in {bad[:200]!r}...\n")


def test_point_coordinate_budget_is_inclusive():
    limit = str(2 ** MAX_COEFFICIENT_BITS - 1)
    assert RationalPoint.parse(["1", limit, f"1/{limit}"]).coords[1] == int(limit)
    with pytest.raises(ValueError):
        RationalPoint.parse(["1", str(2 ** MAX_COEFFICIENT_BITS), "1"])


def test_missing_file_exits_two(capsys):
    assert main(["verify", "/nonexistent/x.json"]) == 2
    assert "SYNTAX_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"[" * 100000 + b"]" * 100000,
    b"\xff\xfe",
    b'{"n": 1' + b"0" * 5000 + b"}",
], ids=["nested-too-deep", "not-utf-8", "integer-too-long"])
def test_unreadable_documents_exit_two(tmp_path, capsys, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error SYNTAX_ERROR:")


# ------------------------------------------------------------------ parsing


def test_parse_spec_rejects_non_object():
    with pytest.raises(InputError):
        parse_spec(json.dumps([1, 2, 3]))


def test_parse_spec_point_count_checked():
    doc = dict(TRIANGLE, points=[["1", "1"]])
    with pytest.raises(InputError) as err:
        parse_spec(json.dumps(doc))
    assert "points[0]" in err.value.message
