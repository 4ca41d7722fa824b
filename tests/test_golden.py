"""Byte-for-byte reports of every command on three fixed problems.

The files under tests/golden/ hold the exact standard output of
``logfol --report {json,text} <command> <problem>.json``: every command
on the README triangle, ``verify`` and ``count-complement`` on a P^3
instance whose hyperplanes are not coordinate hyperplanes, so that its
strata are parametrized by a non-trivial choice of free coordinates and
the complement is counted in the chart of the form z1 + z2, and
``verify`` and ``count-complement`` on a Lotka-Volterra field on P^4
with its five coordinate hyperplanes, whose 31 strata exercise the
global totals on a larger instance.  Any change to a report, however
small, fails here.
"""

import json
from pathlib import Path

import pytest

from logfol.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
README_TRIANGLE = {
    "n": 2,
    "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
    "hyperplanes": ["z0", "z1", "z2"],
    "points": [["1", "1", "1"], ["1", "0", "0"]],
}
# a grid field z_i*(z_i - z_0) on P^3 after a unimodular change of
# coordinates; the points lie on a line stratum, on a point stratum and
# off the divisor
P3_SHEARED = {
    "n": 3,
    "foliation": ["z0^2 - z0*z1 - z0*z2 - 2*z2^2", "-2*z0*z2 + z1*z2 - 2*z2^2",
                  "2*z0*z2 - z1*z2 + 2*z2^2", "-z1*z3 - z2*z3 + z3^2"],
    "hyperplanes": ["z1 + z2", "-z1 - z2 + z3", "z0 + 2*z2", "z0 - z1"],
    "points": [["0", "1", "0", "1"], ["1", "1", "-1/2", "1/2"], ["1", "0", "-1", "0"]],
}
# a random Lotka-Volterra field z_i*Q_i of degree 2 on P^4
P4_LOTKA_VOLTERRA = {
    "n": 4,
    "foliation": ["2*z0^2 + 3*z0*z1 + 2*z0*z2 + 2*z0*z3 + 3*z0*z4",
                  "4*z0*z1 - 2*z1^2 - 3*z1*z2 + 3*z1*z3 + 2*z1*z4",
                  "5*z0*z2 + 4*z1*z2 - 3*z2^2 - 4*z2*z3 + 2*z2*z4",
                  "-z0*z3 - 3*z1*z3 - 4*z2*z3 + 3*z3^2 + 5*z3*z4",
                  "-5*z0*z4 + 4*z1*z4 + z2*z4 + 2*z3*z4 + 5*z4^2"],
    "hyperplanes": ["z0", "z1", "z2", "z3", "z4"],
}
COMMANDS = {
    "verify-check-sigma": (README_TRIANGLE, ["verify", "{path}", "--check-sigma"]),
    "chern-check-sigma": (README_TRIANGLE, ["chern", "{path}", "--check-sigma"]),
    "indices": (README_TRIANGLE, ["indices", "{path}", "--point", "0,1,1"]),
    "count-complement": (README_TRIANGLE, ["count-complement", "{path}"]),
    "count-complement-p3-sheared": (P3_SHEARED, ["count-complement", "{path}"]),
    "count-complement-p4-lv": (P4_LOTKA_VOLTERRA, ["count-complement", "{path}"]),
    "verify-p3-sheared": (P3_SHEARED, ["verify", "{path}", "--check-sigma"]),
    "verify-p4-lv": (P4_LOTKA_VOLTERRA, ["verify", "{path}", "--check-sigma"]),
}


@pytest.mark.parametrize("report,suffix", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(tmp_path, capsys, name, report, suffix):
    problem, command = COMMANDS[name]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    argv = [arg.format(path=path) for arg in command]
    assert main(["--report", report, *argv]) == 0
    expected = (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
