from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logfol.errors import NOT_LOGARITHMIC, InputError
from logfol.foliations import Arrangement, Foliation, Instance
from logfol.groebner import INFINITE, Ideal, buchberger, projective_degree
from logfol.indices import (
    RationalPoint,
    complement_milnor_sum,
    germ_hom_index,
    germ_log_index,
    germ_milnor,
    log_index_at_point,
    milnor_at_maximal_ideal,
    milnor_at_point,
    point_milnor,
    point_record,
    stratum_breakdown,
    total_milnor,
    verify_instance,
)
from logfol.linalg import mat_mul
from logfol.polynomials import MultiPoly, parse_polynomial

from oracles import (
    chart_complement_milnor_sum,
    chart_total_milnor,
    linear_substitute,
    lotka_volterra_fields,
    milnor_oracle,
)

P2 = ["z0", "z1", "z2"]
XY = ["x", "y"]


def fol(texts, names=P2):
    return Foliation([parse_polynomial(t, names) for t in texts])


def arr(texts, names=P2):
    return Arrangement(len(names) - 1, [parse_polynomial(t, names) for t in texts])


def affine_ideal(texts, names=XY):
    return buchberger([parse_polynomial(t, names) for t in texts], len(names))


def pt(*coords):
    return RationalPoint.parse([str(c) for c in coords])


def triangle():
    return fol(["0", "z1*(z1 - z0)", "z2*(z2 - z0)"]), arr(["z0", "z1", "z2"])


def on_divisor_instance():
    # every singular point lies on one of the two invariant lines
    return fol(["0", "z1*(z1 - z0)", "z2*(z1 - z2 - z0)"]), arr(["z1", "z2"])


# ------------------------------------------------------------- local milnor


def test_milnor_at_point_examples():
    assert milnor_at_point(affine_ideal(["x", "y"]), (0, 0)) == 1
    assert milnor_at_point(affine_ideal(["x^2", "y"]), (0, 0)) == 2
    four = affine_ideal(["x*(x - 1)", "y*(y - 1)"])
    assert milnor_at_point(four, (1, 1)) == 1
    assert sum(milnor_at_point(four, p) for p in
               [(0, 0), (0, 1), (1, 0), (1, 1)]) == 4
    assert milnor_at_point(four, (2, 2)) == 0


def test_milnor_at_point_requires_zero_dimensional():
    with pytest.raises(ValueError):
        milnor_at_point(affine_ideal(["x"]), (0, 0))


def test_milnor_at_irrational_locus():
    # conjugate point pair x^2 = 2 on the line y = 0: raw length two
    ideal = affine_ideal(["x^2 - 2", "y"])
    locus = buchberger([parse_polynomial("x^2 - 2", XY),
                        parse_polynomial("y", XY)], 2)
    assert milnor_at_maximal_ideal(ideal, locus) == 2


def test_milnor_oracle_examples():
    assert milnor_oracle(affine_ideal(["x", "y"]), (0, 0)) == 1
    assert milnor_oracle(affine_ideal(["x^2", "y"]), (0, 0)) == 2
    assert milnor_oracle(affine_ideal(["x^3 - y^2", "y"]), (0, 0)) == 3


ORACLE_CASES = [
    (["x", "y"], (0, 0)),
    (["x^2", "y"], (0, 0)),
    (["x^3 - y^2", "y"], (0, 0)),
    (["x^2 - y^3", "y^2"], (0, 0)),
    (["x^2", "y^2"], (0, 0)),
    (["x^3", "y^2"], (0, 0)),
    (["x*(x - 1)", "y*(y - 1)"], (1, 0)),
    (["x*(x - 1)^2", "y"], (1, 0)),
    (["x^2 - y", "y^2"], (0, 0)),
    (["x^2 + y^2", "x*y"], (0, 0)),
]


@pytest.mark.parametrize("texts,point", ORACLE_CASES)
def test_two_milnor_routes_agree(texts, point):
    ideal = affine_ideal(texts)
    assert milnor_at_point(ideal, point) == milnor_oracle(ideal, point)


# ----------------------------------------------------------- rational point


def test_rational_point_canonicalization():
    p = RationalPoint.parse(["2", "4", "6"])
    assert p.coords == (1, 2, 3)
    assert p.display() == "[1:2:3]"
    assert p.chart_index == 0
    q = RationalPoint.parse(["0", "1/2", "1"])
    assert q.coords == (0, 1, 2)
    assert q.chart_index == 1
    with pytest.raises(ValueError):
        RationalPoint.parse(["0", "0", "0"])


# ------------------------------------------------------------------- germs


def test_germ_log_index_one_axis():
    components = [parse_polynomial("x^2", XY), parse_polynomial("y", XY)]
    axis = [parse_polynomial("x", XY)]
    assert germ_milnor(components, (0, 0)) == 2
    assert germ_log_index(components, axis, (0, 0)) == 1
    assert germ_hom_index(components, axis, (0, 0)) == 1


def test_germ_log_index_both_axes():
    components = [parse_polynomial("x^2", XY), parse_polynomial("y", XY)]
    axes = [parse_polynomial("x", XY), parse_polynomial("y", XY)]
    assert germ_log_index(components, axes, (0, 0)) == 0
    assert germ_hom_index(components, axes, (0, 0)) == 2


def test_germ_log_vanishes_at_nondegenerate_crossing():
    components = [parse_polynomial("x*(x - 1)", XY),
                  parse_polynomial("y*(y - 1)", XY)]
    axes = [parse_polynomial("x", XY), parse_polynomial("y", XY)]
    assert germ_log_index(components, axes, (0, 0)) == 0


def test_germ_requires_tangency():
    components = [parse_polynomial("x^2", XY), parse_polynomial("y", XY)]
    with pytest.raises(InputError) as err:
        germ_log_index(components, [parse_polynomial("x + y", XY)], (0, 0))
    assert err.value.code == NOT_LOGARITHMIC


def test_germ_hom_index_needs_point_on_divisor():
    components = [parse_polynomial("x^2", XY), parse_polynomial("y", XY)]
    with pytest.raises(ValueError):
        germ_hom_index(components, [parse_polynomial("x - 1", XY)], (0, 0))


# ------------------------------------------------------- triangle instance


TRIANGLE_TABLE = [
    # point, mu, log, hom (None off the divisor)
    ((1, 1, 1), 1, 1, None),
    ((1, 0, 0), 1, 0, 1),
    ((0, 1, 0), 1, 0, 1),
    ((0, 0, 1), 1, 0, 1),
    ((1, 1, 0), 1, 0, 1),
    ((1, 0, 1), 1, 0, 1),
    ((0, 1, 1), 1, 0, 1),
]


@pytest.mark.parametrize("coords,mu,log,hom", TRIANGLE_TABLE)
def test_triangle_point_table(coords, mu, log, hom):
    f, a = triangle()
    inst = Instance(f, a)
    p = pt(*coords)
    assert point_milnor(f, p) == mu
    assert log_index_at_point(inst, p) == log
    assert point_record(inst, p).hom_index == hom
    if hom is not None:
        assert log + hom == mu


def test_point_record_shapes():
    inst = Instance(*triangle())
    rec = point_record(inst, pt(1, 0, 0))
    assert rec.on_divisor == (1, 2)
    assert rec.singular
    assert (rec.milnor, rec.log_index, rec.hom_index) == (1, 0, 1)
    off = point_record(inst, pt(1, 1, 1))
    assert off.on_divisor == ()
    assert off.hom_index is None
    boring = point_record(inst, pt(1, 2, 3))
    assert not boring.singular
    assert (boring.milnor, boring.log_index) == (0, 0)


def test_triangle_totals():
    f, a = triangle()
    assert total_milnor(f) == 7
    assert verify_instance(Instance(f, a)).rhs_total == 1
    assert complement_milnor_sum(Instance(f, a)) == 1


def test_triangle_stratum_breakdown():
    rows = stratum_breakdown(Instance(*triangle()))
    table = {r.indices: (r.dim, r.sign, r.total) for r in rows}
    assert table[()] == (2, 1, 7)
    for single in [(0,), (1,), (2,)]:
        assert table[single] == (1, -1, 3)
    for double in [(0, 1), (0, 2), (1, 2)]:
        assert table[double] == (0, 1, 1)
    assert len(rows) == 7


def test_rhs_matches_per_point_logs():
    inst = Instance(*triangle())
    singular = [pt(*c) for c, _, _, _ in TRIANGLE_TABLE]
    assert sum(log_index_at_point(inst, p) for p in singular) == \
        verify_instance(inst).rhs_total


def test_empty_arrangement_reduces_to_total_milnor():
    f, _ = triangle()
    empty = Instance(f, Arrangement(2, []))
    assert verify_instance(empty).rhs_total == total_milnor(f) == 7
    assert complement_milnor_sum(empty) == 7


@given(lotka_volterra_fields([(2, 2), (2, 3), (3, 2)]))
@settings(max_examples=40, deadline=None)
def test_total_milnor_matches_the_chart_sum(case):
    # the homogeneous route against the chart route, on the ambient field
    # and on every restriction of dimension >= 1
    n, comps = case
    forms = [MultiPoly.variable(n + 1, i) for i in range(n + 1)]
    try:
        inst = Instance(Foliation(comps), Arrangement(n, forms))
    except InputError:
        assume(False)
    for size in range(n):
        for subset in combinations(range(n + 1), size):
            restricted = inst.restriction(subset)[0]
            assert total_milnor(restricted) == chart_total_milnor(restricted)


@st.composite
def complement_cases(draw):
    """(n, components, forms): an LV field and an ordered subset of its
    coordinate hyperplanes, the empty one included, often sheared.

    The shear w_i = z_i + c z_j moves the field and the form z_i; i is the
    first hyperplane's coordinate, so that hyperplane is often not one.
    """
    n, comps = draw(lotka_volterra_fields([(2, 2), (2, 3), (3, 2)]))
    order = draw(st.permutations(range(n + 1)))
    forms = [MultiPoly.variable(n + 1, i) for i in order[:draw(st.integers(0, n + 1))]]
    i = order[0]
    j = draw(st.sampled_from([k for k in range(n + 1) if k != i]))
    c = draw(st.sampled_from((0, 1, -2, 3)))
    inverse = [[int(r == k) - (c if (r, k) == (i, j) else 0) for k in range(n + 1)]
               for r in range(n + 1)]
    pulled = [linear_substitute(p, inverse) for p in comps]
    pulled[i] = pulled[i] + pulled[j] * c
    return n, pulled, [linear_substitute(f, inverse) for f in forms]


@given(complement_cases())
@settings(max_examples=40, deadline=None)
def test_complement_sum_matches_the_chart_sum(case):
    # the chart of the first hyperplane against the sum over all charts
    n, comps, forms = case
    try:
        inst = Instance(Foliation(comps), Arrangement(n, forms))
    except InputError:
        assume(False)
    assert complement_milnor_sum(inst) == chart_complement_milnor_sum(inst)


@given(lotka_volterra_fields([(2, 1), (2, 2), (3, 1)]))
@settings(max_examples=30, deadline=None)
def test_fields_singular_along_a_hyperplane_have_no_degree(case):
    # z0 times a field, as invalid documents are made: singular on {z0 = 0}
    n, comps = case
    z = [MultiPoly.variable(n + 1, i) for i in range(n + 1)]
    comps = [z[0] * p for p in comps]
    minors = [z[a] * comps[b] - z[b] * comps[a] for a, b in combinations(range(n + 1), 2)]
    assert projective_degree(buchberger(minors, n + 1)) == INFINITE
    # total_milnor reads only n and the components
    with pytest.raises(ValueError):
        total_milnor(SimpleNamespace(n=n, components=tuple(comps)))


def test_dropping_a_far_hyperplane_keeps_log():
    f, a = triangle()
    p = pt(1, 1, 0)
    smaller = arr(["z2"])
    other = arr(["z0", "z2"])
    full = log_index_at_point(Instance(f, a), p)
    assert log_index_at_point(Instance(f, smaller), p) == full
    assert log_index_at_point(Instance(f, other), p) == full


def test_verify_instance_report():
    report = verify_instance(Instance(*triangle()), [pt(1, 1, 1)])
    assert report.lhs_chern == report.rhs_total == 1
    assert report.verified
    assert report.points[0].milnor == 1


# --------------------------------------------- everything-on-divisor case


ON_DIVISOR_TABLE = [
    ((1, 0, 0), 1, 0),
    ((1, 0, -1), 1, 0),
    ((1, 1, 0), 2, 1),
    ((0, 1, 0), 2, 1),
    ((0, 0, 1), 1, 0),
]


def test_on_divisor_instance_points():
    f, a = on_divisor_instance()
    inst = Instance(f, a)
    for coords, mu, log in ON_DIVISOR_TABLE:
        p = pt(*coords)
        assert point_milnor(f, p) == mu
        assert log_index_at_point(inst, p) == log
        assert point_record(inst, p).hom_index == mu - log


def test_on_divisor_instance_totals():
    f, a = on_divisor_instance()
    inst = Instance(f, a)
    assert total_milnor(f) == 7
    assert verify_instance(inst).rhs_total == 2
    assert complement_milnor_sum(inst) == 0
    assert sum(log for _, _, log in ON_DIVISOR_TABLE) == verify_instance(inst).rhs_total


# ------------------------------------------------------- coordinate change


def _transform(f: Foliation, a: Arrangement, matrix, inverse):
    """Apply w = matrix . z to the whole instance."""
    identity = [[int(i == j) for j in range(len(matrix))] for i in range(len(matrix))]
    assert mat_mul(matrix, inverse) == identity
    pulled = [linear_substitute(p, inverse) for p in f.components]
    new_components = []
    for row in matrix:
        q = MultiPoly.zero(f.n + 1)
        for coeff, p in zip(row, pulled):
            if coeff:
                q = q + p * Fraction(coeff)
        new_components.append(q)
    new_forms = [linear_substitute(form, inverse) for form in a.forms]
    return Foliation(new_components), Arrangement(a.n, new_forms)


def test_invariance_under_projective_change():
    f, a = triangle()
    matrix = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    inverse = [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    g, b = _transform(f, a, matrix, inverse)
    moved = Instance(g, b)
    assert total_milnor(g) == 7
    assert verify_instance(moved).rhs_total == 1
    assert complement_milnor_sum(moved) == 1
    # the off-divisor point [1:1:1] moves to [2:1:1]
    assert log_index_at_point(moved, pt(2, 1, 1)) == 1
    assert point_milnor(g, pt(2, 1, 1)) == 1


# ------------------------------------------------ germs agree with strata


P3 = ["z0", "z1", "z2", "z3"]
# name: (foliation, hyperplanes, ring, singular points of chart 0 on the grid)
AGREEMENT_INSTANCES = {
    "triangle": (["0", "z1*(z1 - z0)", "z2*(z2 - z0)"], ["z0", "z1", "z2"], P2, 4),
    "on_divisor": (["0", "z1*(z1 - z0)", "z2*(z1 - z2 - z0)"], ["z1", "z2"], P2, 3),
    "sheared": (["0", "z1*(2*z1 - 3*z0 + z2)", "z2*(z2 - z0 - 2*z1)"],
                ["z1", "z2"], P2, 2),
    "P3_coordinate": (["0", "z1*(z1 - z0)", "z2*(z2 - z0)", "z3*(z3 - 2*z0)"],
                      ["z0", "z1", "z2", "z3"], P3, 8),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_INSTANCES))
def test_germ_indices_agree_with_stratum_indices(name):
    # at every singular point of chart 0 on a small grid, the affine germ
    # of the chart-0 field along the finite hyperplanes has the projective
    # Milnor number and logarithmic index
    texts, hyperplanes, names, expected = AGREEMENT_INSTANCES[name]
    inst = Instance(fol(texts, names), arr(hyperplanes, names))
    field = inst.fol.chart_field(0)
    finite = [f.dehomogenize(0) for f in inst.arr.forms]
    finite = [f for f in finite if f.total_degree() == 1]
    checked = 0
    for affine in product(range(-2, 4), repeat=inst.fol.n):
        if any(c.evaluate(affine) for c in field):
            continue
        p = pt(1, *affine)
        assert germ_milnor(field, affine) == point_milnor(inst.fol, p)
        assert germ_log_index(field, finite, affine) == log_index_at_point(inst, p)
        checked += 1
    assert checked == expected
