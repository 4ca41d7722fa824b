"""End-to-end acceptance checks.

Each test prints a single pass/fail line; run with

    pytest tests/test_acceptance.py -v -s

to see them.  The checks are exact (tolerance zero): every identity
tested here is an integer identity, so any mismatch is a real failure.
"""

import json
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

from oracles import brute_quotient_dimension, milnor_oracle, recursion_check

from logfol.chern import (
    ChernInput,
    closed_form_sigma,
    closed_form_sigma_positive_args,
    lhs_integral,
    sigma_convention_note,
)
from logfol.cli import cmd_count_complement, cmd_verify, parse_spec
from logfol.foliations import Foliation
from logfol.groebner import buchberger, quotient_dimension
from logfol.indices import (
    germ_hom_index,
    germ_log_index,
    germ_milnor,
    milnor_at_point,
    total_milnor,
)
from logfol.polynomials import parse_polynomial

X = ["x"]
XY = ["x", "y"]
XYZ = ["x", "y", "z"]

TRIANGLE_DOC = {
    "n": 2,
    "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
    "hyperplanes": ["z0", "z1", "z2"],
    "points": [
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
        ["1", "1", "0"], ["1", "0", "1"], ["0", "1", "1"],
        ["1", "1", "1"],
    ],
}


def check(num, label, ok, elapsed=None):
    stamp = "PASS" if ok else "FAIL"
    timing = "" if elapsed is None else f" [{elapsed:.2f}s]"
    print(f"criterion {num} ({label}): {stamp}{timing}")
    assert ok, f"criterion {num} ({label}) failed"


def polys(texts, names):
    return [parse_polynomial(t, names) for t in texts]


# 1. On P^n with no divisor, a degree-d foliation has sum(d^i) singular
#    points counted with multiplicity; both computation routes agree.

def test_classical_counts():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            want = sum(d ** i for i in range(n + 1))
            ok = ok and lhs_integral(ChernInput(n, (), d)) == want
    concrete = [
        (["z1^2", "z0^2"], ["z0", "z1"], 3),
        (["0", "z1*(z1 - z0)", "z2*(z2 - z0)"], ["z0", "z1", "z2"], 7),
        (["0", "z1*(z1 - z0)*(z1 - 2*z0)",
          "z2*(z2 - z0)*(z2 - 2*z0)"], ["z0", "z1", "z2"], 13),
    ]
    for texts, names, want in concrete:
        ok = ok and total_milnor(Foliation(polys(texts, names))) == want
    elapsed = time.perf_counter() - start
    check(1, "classical counts", ok and elapsed < 10.0, elapsed)


# 2. The coordinate-triangle instance: both sides equal 1, six
#    nondegenerate singular points on the divisor contribute nothing,
#    the seventh point sits in the complement with multiplicity 1.

def test_triangle_instance():
    start = time.perf_counter()
    payload = cmd_verify(parse_spec(json.dumps(TRIANGLE_DOC)))
    ok = payload["lhs_chern"] == 1
    ok = ok and payload["rhs_total"] == 1
    ok = ok and payload["verified"] is True
    on, off = [], []
    for rec in payload["points"]:
        (on if rec["on_hyperplanes"] else off).append(rec)
    ok = ok and len(on) == 6 and len(off) == 1
    for rec in on:
        ok = ok and rec["singular"] and rec["milnor"] == 1
        ok = ok and rec["log_index"] == 0
    ok = ok and off[0]["point"] == "[1:1:1]" and off[0]["milnor"] == 1
    elapsed = time.perf_counter() - start
    check(2, "triangle instance", ok and elapsed < 5.0, elapsed)


# 3. Degenerate germ v = (x^2, y): the local indices depend on which
#    axes are kept, and log + hom = mu holds either way.

def test_degenerate_germ_suite():
    v = polys(["x^2", "y"], XY)
    x_axis = polys(["x"], XY)
    both = polys(["x", "y"], XY)
    origin = (0, 0)
    mu = germ_milnor(v, origin)
    ok = mu == 2
    log_one = germ_log_index(v, x_axis, origin)
    hom_one = germ_hom_index(v, x_axis, origin)
    ok = ok and (log_one, hom_one) == (1, 1)
    log_two = germ_log_index(v, both, origin)
    hom_two = germ_hom_index(v, both, origin)
    ok = ok and (log_two, hom_two) == (0, 2)
    ok = ok and log_one + hom_one == mu and log_two + hom_two == mu
    check(3, "degenerate germ suite", ok)


# 4. The binomial closed form reproduces the Chern integral on an
#    exhaustive grid, provided the divisor degrees enter negated.

def test_closed_form_equivalence():
    start = time.perf_counter()
    ok = True
    cases = 0
    for n in range(1, 5):
        for d in range(0, 6):
            for k in range(0, 5):
                for degs in combinations_with_replacement((1, 2, 3), k):
                    data = ChernInput(n, degs, d)
                    ok = ok and closed_form_sigma(data) == lhs_integral(data)
                    cases += 1
    ok = ok and cases >= 500
    bad = ChernInput(2, (1,), 2)
    series = lhs_integral(bad)
    positive = closed_form_sigma_positive_args(bad)
    ok = ok and series == 4 and positive == 12
    note = sigma_convention_note()
    ok = ok and "4" in note and "12" in note
    elapsed = time.perf_counter() - start
    print(f"  note: {note}")
    check(4, "closed form equivalence", ok and elapsed < 5.0, elapsed)


# 5. Dropping a degree-1 divisor component relates the integral on P^n
#    to the one on the component, a P^(n-1).

def test_recursion_property():
    ok = True
    checked = 0
    for n in (2, 3):
        for d in range(0, 6):
            for k in range(1, 5):
                for degs in product((1, 2, 3), repeat=k):
                    if 1 not in degs:
                        continue
                    data = ChernInput(n, degs, d)
                    for drop, deg in enumerate(degs):
                        if deg == 1:
                            ok = ok and recursion_check(data, drop)
                            checked += 1
    check(5, f"recursion property ({checked} cases)", ok and checked > 1000)


# 6. Two independent multiplicity routes agree: saturation against
#    jet-space linear algebra for local multiplicities, staircase
#    count against brute-force rank computation for quotient sizes.

MILNOR_CASES = [
    (("x",), X, (0,), 1),
    (("x^2",), X, (0,), 2),
    (("x^3",), X, (0,), 3),
    (("x*(x - 1)^2",), X, (1,), 2),
    (("x*(x - 1)^2",), X, (0,), 1),
    (("x", "y"), XY, (0, 0), 1),
    (("x", "y"), XY, (1, 1), 0),
    (("x^2", "y"), XY, (0, 0), 2),
    (("y - x^2", "x*y"), XY, (0, 0), 3),
    (("x^2", "y^2"), XY, (0, 0), 4),
    (("x^2 + y^2", "x*y"), XY, (0, 0), 4),
    (("x^2 - y^2", "x*y"), XY, (0, 0), 4),
    (("x^3", "y^2"), XY, (0, 0), 6),
    (("x^3 - y^4", "y^2"), XY, (0, 0), 6),
    (("x^2 - y^3", "y^2"), XY, (0, 0), 4),
    (("x^5", "y"), XY, (0, 0), 5),
    (("x^2 - y^3", "y"), XY, (0, 0), 2),
    (("x - y^2", "y^3"), XY, (0, 0), 3),
    (("(x - 1)^2", "y + x - 1"), XY, (1, 0), 2),
    (("(2*x - 1)^3", "y"), XY, (Fraction(1, 2), 0), 3),
    (("x*(x - 1)", "y*(y + 1)"), XY, (0, 0), 1),
    (("x*(x - 1)", "y*(y + 1)"), XY, (1, -1), 1),
    (("x", "y", "z"), XYZ, (0, 0, 0), 1),
    (("x^2", "y", "z"), XYZ, (0, 0, 0), 2),
    (("x^2", "y^2", "z"), XYZ, (0, 0, 0), 4),
    (("x^3", "y^2", "z"), XYZ, (0, 0, 0), 6),
    (("x + y^2", "y - z^2", "z^3"), XYZ, (0, 0, 0), 3),
    (("x*y - z^2", "y - z", "x + z"), XYZ, (0, 0, 0), 2),
]

DIMENSION_CASES = [
    (("x^4",), X, 4),
    (("x", "y"), XY, 1),
    (("x^2", "y^2"), XY, 4),
    (("x^3", "y^4"), XY, 12),
    (("x^2 - y", "y^2 - x"), XY, 4),
    (("x*y - 1", "x^2 + y^2 - 4"), XY, 4),
    (("x^3 - y^2", "y^3"), XY, 9),
    (("(x - 1)*(x - 2)*x", "y - x"), XY, 3),
    (("x^2", "y^2", "z^3"), XYZ, 12),
    (("x - y^2", "y - z^2", "z^2"), XYZ, 2),
    (("x*y - z", "y*z - x", "x*z - y"), XYZ, 5),
]


def test_oracle_equivalence():
    start = time.perf_counter()
    ok = len(MILNOR_CASES) >= 25
    seen = set()
    for texts, names, point, want in MILNOR_CASES:
        ideal = buchberger(polys(texts, names), len(names))
        a = milnor_at_point(ideal, point)
        b = milnor_oracle(ideal, point)
        ok = ok and a == b == want
        seen.add(want)
    ok = ok and {1, 2, 3, 4, 5, 6} <= seen
    for texts, names, want in DIMENSION_CASES:
        gens = polys(texts, names)
        a = quotient_dimension(buchberger(gens, len(names)))
        b = brute_quotient_dimension(gens, len(names))
        ok = ok and a == b == want
    elapsed = time.perf_counter() - start
    check(6, "oracle equivalence", ok and elapsed < 60.0, elapsed)


# 7. Adding z_i*Q to each component changes the representative but not
#    the foliation, so every reported quantity must be unchanged.

def test_representative_independence():
    base = cmd_verify(parse_spec(json.dumps(TRIANGLE_DOC)))
    q = "(z0 + 2*z1 - z2)"
    moved = dict(TRIANGLE_DOC)
    moved["foliation"] = [
        f"z0*{q}",
        f"z1*(z1 - z0) + z1*{q}",
        f"z2*(z2 - z0) + z2*{q}",
    ]
    other = cmd_verify(parse_spec(json.dumps(moved)))
    check(7, "representative independence", base == other)


# 8. An instance whose singular points all lie on the divisor: the
#    verification passes and the complement contributes nothing.

def test_all_singularities_on_divisor():
    doc = {
        "n": 2,
        "foliation": ["0", "z1*(z1 - z0)", "z2*(z1 - z2 - z0)"],
        "hyperplanes": ["z1", "z2"],
        "points": [
            ["1", "0", "0"], ["1", "0", "-1"], ["1", "1", "0"],
            ["0", "1", "0"], ["0", "0", "1"],
        ],
    }
    spec = parse_spec(json.dumps(doc))
    payload = cmd_verify(spec)
    ok = payload["verified"] is True
    ok = ok and payload["lhs_chern"] == payload["rhs_total"] == 2
    ok = ok and all(rec["on_hyperplanes"] for rec in payload["points"])
    ok = ok and cmd_count_complement(spec)["complement_milnor_sum"] == 0
    check(8, "all singularities on divisor", ok)
