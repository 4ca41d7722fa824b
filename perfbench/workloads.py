"""Seeded problem generators and independent answer checks.

Every workload is a fixed cycle of problem *shapes*; problem ``i`` of a
run has shape ``cycle[i % len(cycle)]`` and its random choices drawn from
``random.Random(f"{workload}:{seed}:{i}:{attempt}")``, so one seed always
yields the same problem sequence.  The caller bumps ``attempt`` to redraw
a problem it has already seen, so problems are distinct within a run.
The coordinate change of a point problem comes from the index alone
(``layout``): it sets most of the cost of a point query, and this way
runs of the same length hold the same mix of changes.

Nothing here imports logfol.  Polynomials are built as ``{exponents:
int}`` dicts and written out in expanded form; the expected answers come
from closed forms and from the construction of the problem:

* ``verify`` / ``chern``: the Chern number is the binomial closed form
  ``sum_i C(n+1, i) h_{n-i}(-1, ..., -1, d-1)`` in integer arithmetic.
* ``count-complement`` on a Lotka-Volterra field ``P_i = z_i Q_i`` over
  the coordinate arrangement: the off-divisor singularities are the
  ``(d-1)^n`` solutions of ``Q_0 = ... = Q_n``, none of which lies on a
  coordinate hyperplane (the generator checks this exactly).
* grid points: the field is locally ``x_i' = f_i(x_i)`` with simple
  roots, so mu = 1, log = 0 on the divisor and 1 off it, hom = 1.
* invalid documents carry exactly one defect with a known error code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

COEFF = 5  # Lotka-Volterra coefficients are drawn from [-COEFF, COEFF]


# ------------------------------------------------------- integer polynomials

def _unit(nv: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(nv))


def pvar(nv: int, i: int) -> dict:
    return {_unit(nv, i): 1}


def padd(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def plinear(coeffs) -> dict:
    nv = len(coeffs)
    return {_unit(nv, i): c for i, c in enumerate(coeffs) if c}


def pcompose_linear(p: dict, matrix) -> dict:
    """p(M w): variable i becomes sum_j M[i][j] w_j."""
    images = [plinear(row) for row in matrix]
    nv = len(matrix)
    out: dict = {}
    for e, c in p.items():
        term = {(0,) * nv: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = pmul(term, images[i])
        out = padd(out, term)
    return out


def peval(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            if k:
                v *= Fraction(x) ** k
        total += v
    return total


def pformat(p: dict) -> str:
    """Expanded text in z0..zn, highest degree first, then by exponents."""
    if not p:
        return "0"
    pieces = []
    for e in sorted(p, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = p[e]
        factors = [f"z{i}^{k}" if k > 1 else f"z{i}" for i, k in enumerate(e) if k]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


def monomials(nv: int, deg: int) -> list:
    out = []
    for combo in combinations_with_replacement(range(nv), deg):
        e = [0] * nv
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


# ------------------------------------------------------------ exact algebra

def rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return out


def binary_resultant(f: list, g: list) -> Fraction:
    """Sylvester resultant of binary forms given by coefficient lists."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[0] * i + f + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + g + [0] * (size - n - 1 - i) for i in range(m)]
    return det(rows)


def unimodular(n1: int, rng: random.Random, steps: int):
    """A permutation times ``steps`` shears ``col_j += col_i``, with its inverse.

    Shears by -1 instead of +1 make the point problems up to three times
    slower with a long tail, so only +1 is drawn, to keep runs steady.
    """
    a = [[int(i == j) for j in range(n1)] for i in range(n1)]
    ainv = [row[:] for row in a]
    perm = list(range(n1))
    rng.shuffle(perm)
    for _ in range(steps):
        i, j = rng.sample(range(n1), 2)
        # a <- a . (I + E_ij); ainv <- (I - E_ij) . ainv
        for row in a:
            row[j] += row[i]
        ainv[i] = [x - y for x, y in zip(ainv[i], ainv[j])]
    return [[row[p] for p in perm] for row in a], [ainv[p] for p in perm]


def transform_field(comps: list, a, ainv) -> list:
    """Components of the same foliation in coordinates w with z = A w."""
    moved = [pcompose_linear(p, a) for p in comps]
    out = []
    for row in ainv:
        q: dict = {}
        for coeff, p in zip(row, moved):
            if coeff:
                q = padd(q, p, coeff)
        out.append(q)
    return out


def transform_form(coeffs, a) -> list:
    """Coefficients of the linear form c.z written in w, where z = A w."""
    n1 = len(coeffs)
    return [sum(coeffs[i] * a[i][j] for i in range(n1)) for j in range(n1)]


def canonical_point(coords) -> list:
    coords = [Fraction(c) for c in coords]
    pivot = next(c for c in coords if c != 0)
    return [c / pivot for c in coords]


# ----------------------------------------------------------- closed answers

def complete_h(m: int, args) -> int:
    table = [1] + [0] * m
    for a in args:
        for j in range(1, m + 1):
            table[j] += a * table[j - 1]
    return table[m]


def chern_number(n: int, k: int, d: int) -> int:
    """Degree of c_n(T(-log D) (x) O(d-1)) for k hyperplanes on P^n."""
    args = [-1] * k + [d - 1]
    return sum(comb(n + 1, i) * complete_h(n - i, args) for i in range(n + 1))


# ------------------------------------------------------ Lotka-Volterra fields

def _restrict(p: dict, support) -> dict:
    return {e: c for e, c in p.items() if all(e[i] == 0 for i in range(len(e))
                                                if i not in support)}


def _proportional(p: dict, q: dict) -> bool:
    if p.keys() != q.keys():
        return False
    e0 = next(iter(p))
    return all(p[e] * q[e0] == q[e] * p[e0] for e in p)


def _lv_is_clean(qs: list, n: int, d: int, need_complement: bool) -> bool:
    """Exact screening of the degenerate Lotka-Volterra draws.

    A point with support S is singular exactly when Q_i takes one value
    for all i in S, so isolated singularities need each system
    {Q_i - Q_s = 0 : i in S} on the coordinate P^(|S|-1) to be finite.
    That is decided exactly for lines (a nonzero binary form) and for
    d = 2 (a rank condition); for larger d and |S| >= 3 the differences
    must at least be nonzero and pairwise non-proportional.  With
    ``need_complement`` the full system must also have no zero on a
    coordinate hyperplane, so the complement count is (d-1)^n.
    """
    for size in range(2, n + 2):
        for support in combinations(range(n + 1), size):
            s0 = support[0]
            diffs = [_restrict(padd(qs[i], qs[s0], -1), support) for i in support[1:]]
            if any(not q for q in diffs):
                return False
            if d == 2:
                rows = [[q.get(_unit(n + 1, j), 0) for j in support] for q in diffs]
                if rank(rows) < size - 1:
                    return False
            elif d > 2 and any(_proportional(p, q) for p, q in combinations(diffs, 2)):
                return False
    if not need_complement:
        return True
    diffs = [padd(qs[i], qs[0], -1) for i in range(1, n + 1)]
    if d == 2:
        rows = [[q.get(_unit(n + 1, j), 0) for j in range(n + 1)] for q in diffs]
        for j in range(n + 1):
            minor = [r[:j] + r[j + 1:] for r in rows]
            if det(minor) == 0:  # the unique zero has z_j = 0
                return False
        return True
    if n != 2:
        raise ValueError("complement screening needs d = 2 or n = 2")
    for j in range(3):
        a, b = [i for i in range(3) if i != j]
        f, g = ([q.get(tuple(d - 1 - t if i == a else t if i == b else 0
                                 for i in range(3)), 0) for t in range(d)]
                for q in diffs)
        if binary_resultant(f, g) == 0:
            return False
    return True


def lotka_volterra(n: int, d: int, rng: random.Random,
                   need_complement: bool = False) -> list:
    """Components z_i Q_i with Q_i of degree d-1, screened to be clean."""
    mons = monomials(n + 1, d - 1)
    while True:
        qs = [{e: c for e in mons if (c := rng.randint(-COEFF, COEFF))}
              for _ in range(n + 1)]
        if _lv_is_clean(qs, n, d, need_complement):
            return [pmul(pvar(n + 1, i), q) for i, q in enumerate(qs)]


def grid_field(n: int, d: int) -> list:
    """P_0 = 0 and P_i = prod_{a<d} (z_i - a z_0): singular on the grid."""
    comps = [{}]
    for i in range(1, n + 1):
        p = {(0,) * (n + 1): 1}
        for a in range(d):
            p = pmul(p, plinear([-a if j == 0 else int(j == i) for j in range(n + 1)]))
        comps.append(p)
    return comps


# ----------------------------------------------------------------- problems

@dataclass
class Problem:
    """One CLI call: document, extra arguments and what must come out."""

    shape: str
    command: str
    doc: dict
    args: list
    expect: dict

    def text(self) -> str:
        return json.dumps(self.doc)

    def argv(self, path: str) -> list:
        return ["--report", "json", self.command, path] + self.args


def _doc(n: int, comps: list, forms: list) -> dict:
    return {"n": n, "foliation": [pformat(p) for p in comps],
            "hyperplanes": [pformat(plinear(f)) for f in forms]}


def interleave(counts: list) -> list:
    """A cycle holding each shape `count` times, evenly interleaved."""
    slots = [((j + 0.5) / count, pos, shape)
             for pos, (shape, count) in enumerate(counts) for j in range(count)]
    return [shape for _, _, shape in sorted(slots)]


# verify_ladder: (label, n, d, command).  One solve in four is
# count-complement; P2_d4 and the P3_d2 verify are the slowest 5 %, so p90
# falls inside the P2_d3 / P3_d2 count-complement band and p50 inside P2_d2.
VERIFY_CYCLE = interleave([
    (("P2_d2", 2, 2, "verify"), 22), (("P2_d2", 2, 2, "count-complement"), 5),
    (("P2_d3", 2, 3, "verify"), 6), (("P2_d3", 2, 3, "count-complement"), 3),
    (("P2_d4", 2, 4, "verify"), 1),
    (("P3_d2", 3, 2, "verify"), 1), (("P3_d2", 3, 2, "count-complement"), 2),
])


def make_verify(shape, rng: random.Random, layout: random.Random) -> Problem:
    label, n, d, command = shape
    comps = lotka_volterra(n, d, rng, need_complement=(command == "count-complement"))
    forms = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    expect = {"lhs": chern_number(n, n + 1, d), "complement": (d - 1) ** n}
    return Problem(f"{label}:{command}", command, _doc(n, comps, forms), [], expect)


# point_queries: (label, n, d, hyperplanes through each queried point).
# Two-point P2_d2 calls hold 32-72 % so that p50 falls inside them, and
# three-point P2_d2 calls hold 77-95 % so that p90 does; P3_d2 is the
# slowest 5 %.
POINT_CYCLE = interleave([
    (("P2_d2", 2, 2, (0,)), 7), (("P2_d2", 2, 2, (1,)), 6),
    (("P2_d2", 2, 2, (0, 1)), 10), (("P2_d2", 2, 2, (1, 2)), 6),
    (("P2_d3", 2, 3, (0,)), 1), (("P2_d3", 2, 3, (1,)), 1),
    (("P2_d2", 2, 2, (0, 1, 2)), 7),
    (("P3_d2", 3, 2, (0,)), 1), (("P3_d2", 3, 2, (2, 0)), 1),
])


def make_points(shape, rng: random.Random, layout: random.Random) -> Problem:
    """A grid foliation after a shear and a permutation of the coordinates.

    The arrangement is the hyperplane at infinity z_0 plus z_i = c_i z_0
    for one grid value c_i of every coordinate i; each queried grid point
    lies on the stated number of the latter.
    """
    label, n, d, through = shape
    a, ainv = unimodular(n + 1, layout, steps=1)
    comps = transform_field(grid_field(n, d), a, ainv)
    levels = [rng.randrange(d) for _ in range(n)]
    forms = [[1] + [0] * n] + [[-levels[i - 1] if j == 0 else int(j == i)
                                for j in range(n + 1)] for i in range(1, n + 1)]
    args, expect, seen = [], [], set()
    for count in through:
        while True:
            on = sorted(rng.sample(range(n), count))
            p = (1,) + tuple(levels[i] if i in on else
                             rng.choice([v for v in range(d) if v != levels[i]])
                             for i in range(n))
            if p not in seen:
                seen.add(p)
                break
        w = canonical_point([sum(ainv[r][c] * p[c] for c in range(n + 1))
                             for r in range(n + 1)])
        hits = [i + 1 for i in on]
        args += ["--point", ",".join(str(x) for x in w)]
        expect.append({"coordinates": [str(x) for x in w], "on_hyperplanes": hits,
                       "singular": True, "milnor": 1, "log_index": 0 if hits else 1,
                       "hom_index": 1 if hits else None})
    doc = _doc(n, comps, [transform_form(f, a) for f in forms])
    tag = "".join(str(c) for c in through)
    return Problem(f"{label}:on{tag}", "indices", doc, args, {"points": expect})


# validate_chern: (label, n, d, defect).  One document in five is invalid.
# P3_d3 and P4_d2 take about a third of the time at one solve in 40 each,
# so p90 falls inside the P2_d4 band.
CHERN_CYCLE = interleave([
    (("P2_d2", 2, 2, None), 20), (("P2_d3", 2, 3, None), 20),
    (("P3_d2", 3, 2, None), 14), (("P2_d4", 2, 4, None), 8),
    (("P3_d3", 3, 3, None), 1), (("P4_d2", 4, 2, None), 1),
    (("P2_d2", 2, 2, "SYNTAX_ERROR"), 2), (("P2_d3", 2, 3, "DEGREE_MISMATCH"), 2),
    (("P2_d3", 2, 3, "NC_VIOLATION"), 2), (("P3_d2", 3, 2, "NC_VIOLATION"), 2),
    (("P2_d3", 2, 3, "NOT_LOGARITHMIC"), 2), (("P3_d2", 3, 2, "NOT_LOGARITHMIC"), 2),
    (("P2_d2", 2, 2, "POSITIVE_DIM_SING"), 2), (("P3_d2", 3, 2, "POSITIVE_DIM_SING"), 2),
])


def make_chern(shape, rng: random.Random, layout: random.Random) -> Problem:
    """A Lotka-Volterra field on some coordinate hyperplanes, maybe broken."""
    label, n, d, defect = shape
    if defect == "POSITIVE_DIM_SING":
        # a valid degree d-1 field times z_0: the hyperplane z_0 = 0 is singular
        comps = [pmul(pvar(n + 1, 0), p) for p in lotka_volterra(n, d - 1, rng)]
    else:
        comps = lotka_volterra(n, d, rng)
    k = rng.randint(1, n)
    forms = [[int(i == j) for j in range(n + 1)]
             for i in sorted(rng.sample(range(n + 1), k))]
    if defect == "DEGREE_MISMATCH":
        i = next(i for i, p in enumerate(comps) if p)
        comps[i] = pmul(comps[i], pvar(n + 1, 0))
    elif defect == "NC_VIOLATION":
        # a third hyperplane through the intersection of two others
        forms = forms[:1] + [[int(i == j) for j in range(n + 1)]
                             for i in range(n + 1) if forms[0][i] == 0][:1]
        forms.append([x + 2 * y for x, y in zip(forms[0], forms[1])])
    elif defect == "NOT_LOGARITHMIC":
        forms.append(_non_invariant_form(comps, forms, n, rng))
    doc = _doc(n, comps, forms)
    if defect == "SYNTAX_ERROR":
        text = doc["foliation"][1]
        cut = rng.choice(("*", "+ ", "^"))
        doc["foliation"][1] = text.replace(cut, cut + "*", 1) if cut in text \
            else text + " *"
    expect = {"code": defect} if defect else {"lhs": chern_number(n, len(forms), d)}
    return Problem(f"{label}:{defect or 'valid'}", "chern", doc, ["--check-sigma"],
                   expect)


def _non_invariant_form(comps, forms, n, rng) -> list:
    """A form independent of ``forms`` whose hyperplane is not invariant.

    Invariance means c.P vanishes on {c.z = 0}; a rational point of that
    hyperplane where it does not vanish proves the form non-invariant.
    """
    while True:
        c = [rng.randint(-2, 2) for _ in range(n + 1)]
        if rank(forms + [c]) != len(forms) + 1 or sum(1 for x in c if x) < 2:
            continue
        along: dict = {}
        for ci, p in zip(c, comps):
            if ci:
                along = padd(along, p, ci)
        piv = next(i for i, x in enumerate(c) if x)
        for _ in range(4):
            pt = [Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
            pt[piv] = Fraction(0)
            pt[piv] = -sum(ci * x for ci, x in zip(c, pt)) / c[piv]
            if peval(along, pt) != 0:
                return c


WORKLOADS = {
    "verify_ladder": (VERIFY_CYCLE, make_verify),
    "point_queries": (POINT_CYCLE, make_points),
    "validate_chern": (CHERN_CYCLE, make_chern),
}


def problem(workload: str, seed: int, index: int, attempt: int = 0) -> Problem:
    cycle, make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}:{index}:{attempt}")
    layout = random.Random(f"{workload}:{index}")
    return make(cycle[index % len(cycle)], rng, layout)


# ------------------------------------------------------------------- checks

def check(prob: Problem, code: int, out: str, err: str) -> bool:
    """True when the CLI answer matches the independently known one."""
    if "code" in prob.expect:
        return code == 2 and not out and err.startswith(f"error {prob.expect['code']}:")
    if code != 0 or err:
        return False
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    if prob.command == "verify":
        lhs = prob.expect["lhs"]
        return (payload.get("lhs_chern") == lhs and payload.get("rhs_total") == lhs
                and payload.get("verified") is True)
    if prob.command == "count-complement":
        return payload.get("complement_milnor_sum") == prob.expect["complement"]
    if prob.command == "chern":
        lhs = prob.expect["lhs"]
        return (payload.get("lhs_chern") == lhs
                and payload.get("sigma_closed_form") == lhs
                and payload.get("sigma_matches") is True)
    got = payload.get("points")
    want = prob.expect["points"]
    if not isinstance(got, list) or len(got) != len(want):
        return False
    return all(all(g.get(key) == val for key, val in w.items())
               for g, w in zip(got, want))
