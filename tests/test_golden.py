"""Byte-for-byte reports of every command on the README triangle.

The files under tests/golden/ hold the exact standard output of
``logfol --report {json,text} <command> triangle.json`` for the README
problem; any change to a report, however small, fails here.
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
COMMANDS = {
    "verify-check-sigma": ["verify", "{path}", "--check-sigma"],
    "chern-check-sigma": ["chern", "{path}", "--check-sigma"],
    "indices": ["indices", "{path}", "--point", "0,1,1"],
    "count-complement": ["count-complement", "{path}"],
}


@pytest.mark.parametrize("report,suffix", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(tmp_path, capsys, name, report, suffix):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(README_TRIANGLE))
    argv = [arg.format(path=path) for arg in COMMANDS[name]]
    assert main(["--report", report, *argv]) == 0
    expected = (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
