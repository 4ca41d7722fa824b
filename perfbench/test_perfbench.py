"""Checks of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from layertrace import Tracer
from run import Runner, load_cli

HERE = Path(__file__).resolve().parent
PREFIX = 8  # problems per workload in the traced checks


@pytest.fixture(scope="module")
def cli():
    return load_cli()


def traced_counts(cli, workload, seed, workdir):
    runner = Runner(cli, workload, seed, str(workdir))
    batch = [runner.prepare(i) for i in range(PREFIX)]
    with Tracer() as tracer:
        results = [runner.solve(prob, argv) for prob, argv in batch]
    assert all(ok for *_, ok in results)
    return tracer.count_metrics()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(cli, workload, tmp_path):
    first = traced_counts(cli, workload, 7, tmp_path)
    second = traced_counts(cli, workload, 7, tmp_path)
    assert first == second
    assert first["groebner.buchberger.calls"] > 0


def test_validate_chern_bypasses_saturation(cli, tmp_path):
    counts = {w: traced_counts(cli, w, 3, tmp_path) for w in workloads.WORKLOADS}
    assert counts["validate_chern"]["groebner.saturate.calls"] == 0
    assert counts["verify_ladder"]["groebner.saturate.calls"] > 0
    assert counts["point_queries"]["groebner.saturate.calls"] > 0


def test_tracer_restores_every_binding(cli):
    from logfol import foliations, groebner, indices, polynomials

    before = (groebner.saturate, indices.saturate, foliations.buchberger,
              polynomials.MultiPoly.__init__, foliations.Foliation.__init__)
    with Tracer():
        assert indices.saturate is not before[1]
        assert foliations.buchberger is groebner.buchberger
    after = (groebner.saturate, indices.saturate, foliations.buchberger,
             polynomials.MultiPoly.__init__, foliations.Foliation.__init__)
    assert after == before


def test_problems_follow_the_seed():
    for workload in workloads.WORKLOADS:
        same = [workloads.problem(workload, 5, i).text() for i in range(6)]
        assert same == [workloads.problem(workload, 5, i).text() for i in range(6)]
        assert same != [workloads.problem(workload, 6, i).text() for i in range(6)]
        assert len(set(same)) == len(same)


def test_checks_reject_wrong_answers():
    prob = workloads.make_verify(("P2_d2", 2, 2, "verify"), random.Random(1),
                                 random.Random(2))
    lhs = prob.expect["lhs"]
    good = {"lhs_chern": lhs, "rhs_total": lhs, "verified": True}
    assert workloads.check(prob, 0, json.dumps(good), "")
    assert not workloads.check(prob, 1, json.dumps(good), "")
    assert not workloads.check(prob, 0, json.dumps(dict(good, rhs_total=lhs + 1)), "")

    bad = workloads.make_chern(("P2_d3", 2, 3, "NC_VIOLATION"),
                               random.Random(1),
                                 random.Random(2))
    assert workloads.check(bad, 2, "", "error NC_VIOLATION: dependent\n")
    assert not workloads.check(bad, 2, "", "error NOT_LOGARITHMIC: no\n")
    assert not workloads.check(bad, 0, "{}", "")

    pts = workloads.make_points(("P2_d2", 2, 2, (0, 1)), random.Random(1),
                                 random.Random(2))
    payload = {"points": [dict(p) for p in pts.expect["points"]]}
    assert workloads.check(pts, 0, json.dumps(payload), "")
    payload["points"][1]["log_index"] = 1
    assert not workloads.check(pts, 0, json.dumps(payload), "")


def test_chern_number_matches_known_values():
    # README triangle: n=2, three lines, d=2 gives 1; no divisor gives 1+d+d^2
    assert workloads.chern_number(2, 3, 2) == 1
    assert workloads.chern_number(2, 0, 3) == 13
    # full coordinate arrangement: T(-log D) is trivial, so (d-1)^n
    assert workloads.chern_number(3, 4, 3) == 8


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
