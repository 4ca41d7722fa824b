from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logfol import groebner
from logfol.errors import (
    DEGREE_MISMATCH,
    NC_VIOLATION,
    NOT_LOGARITHMIC,
    POSITIVE_DIM_SING,
    InputError,
)
from logfol.foliations import (
    Arrangement,
    Foliation,
    Instance,
    build_stratum,
    is_invariant,
)
from logfol.groebner import quotient_dimension
from logfol.indices import RationalPoint, milnor_at_point, point_milnor, total_milnor
from logfol.linalg import rank
from logfol.polynomials import MultiPoly, linear_images, parse_polynomial
from oracles import all_charts_check, linear_substitute, lotka_volterra_fields

P2 = ["z0", "z1", "z2"]
P3 = ["z0", "z1", "z2", "z3"]
UW = ["u", "w"]


def polys(texts, names=P2):
    return [parse_polynomial(t, names) for t in texts]


def fol(texts, names=P2):
    return Foliation(polys(texts, names))


def arr(texts, names=P2):
    return Arrangement(len(names) - 1, [parse_polynomial(t, names) for t in texts])


def triangle_foliation():
    return fol(["0", "z1*(z1 - z0)", "z2*(z2 - z0)"])


def triangle_arrangement():
    return arr(["z0", "z1", "z2"])


# -------------------------------------------------------------- validation


def test_foliation_basic_attributes():
    f = triangle_foliation()
    assert f.n == 2
    assert f.degree == 2
    assert len(f.components) == 3


def test_component_count_must_match():
    with pytest.raises(InputError) as err:
        fol(["0", "z1*(z1 - z0)"])
    assert err.value.code == DEGREE_MISMATCH


def test_degrees_must_agree():
    with pytest.raises(InputError) as err:
        fol(["0", "z1", "z2*(z2 - z0)"])
    assert err.value.code == DEGREE_MISMATCH
    with pytest.raises(InputError):
        fol(["0", "z1 + z1^2", "z2^2"])


def test_positive_dimensional_singularities_rejected():
    with pytest.raises(InputError) as err:
        fol(["0", "z1^2", "z1*z2"])
    assert err.value.code == POSITIVE_DIM_SING


def test_radial_multiples_rejected():
    # P_i = z_i * Q defines no direction anywhere
    with pytest.raises(InputError) as err:
        fol(["z0*(z0 + z1)", "z1*(z0 + z1)", "z2*(z0 + z1)"])
    assert err.value.code == POSITIVE_DIM_SING


def test_singular_curve_in_z0_plane_is_named_by_chart_1():
    # on {z0 = 0} the field is z1 * (0, z1, z2): every point there is singular
    texts = ["z0*z2 + z0*z1", "z0^2 + z1^2", "z0*z1 + z1*z2"]
    with pytest.raises(InputError) as err:
        fol(texts)
    assert err.value.code == POSITIVE_DIM_SING
    assert err.value.message == "singular scheme has positive dimension in chart 1"
    assert all_charts_check(polys(texts)) == err.value.message


def test_singular_line_z0_z1_is_named_by_chart_2():
    # on {z0 = z1 = 0} the field is z3 * (0, 0, z2, z3)
    texts = ["z0*z2 + z0*z3", "z1*z0 + z1*z3", "z0^2 + z1^2 + z2*z3", "z0*z1 + z3^2"]
    with pytest.raises(InputError) as err:
        fol(texts, P3)
    assert err.value.code == POSITIVE_DIM_SING
    assert err.value.message == "singular scheme has positive dimension in chart 2"
    assert all_charts_check(polys(texts, P3)) == err.value.message


def test_validation_computes_one_full_chart_basis(monkeypatch):
    # chart 0 gets the one basis in all n variables; the pieces at infinity
    # get bases in fewer variables, which no chart ideal keeps
    nvars_seen = []

    def reduced_groebner(gens, nvars, order):
        nvars_seen.append(nvars)
        return original(gens, nvars, order)

    original = groebner._reduced_groebner
    monkeypatch.setattr(groebner, "_reduced_groebner", reduced_groebner)
    f = fol(["z0^2 + z0*z2", "z1^2 + z3^2", "z1*z3 + z2^2", "z0*z1 + z2*z3"], P3)
    assert nvars_seen == [3, 2, 1]
    assert f.singular_ideal(1).nvars == 3
    assert nvars_seen[3:] == [3]


@st.composite
def homogeneous(draw, nvars, degree):
    """A sparse homogeneous form with small integer coefficients (maybe 0)."""
    monos = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    coefficient = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    return MultiPoly(nvars, {e: draw(coefficient) for e in monos})


@st.composite
def candidate_fields(draw):
    """Components of a degree-d field on P^2 or P^3, often degenerate.

    "random" draws each component; "product" multiplies a field by a
    linear form, singular along its hyperplane; "linear" adds
    z_0 * A + ... + z_{m-1} * B to a radial field z * Q, singular along
    {z_0 = ... = z_{m-1} = 0}, a curve inside {z0 = 0} on P^2 and the
    plane {z0 = 0} or the line {z0 = z1 = 0} on P^3.
    """
    n = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(1, 3 if n == 2 else 2))
    nvars = n + 1
    z = [MultiPoly.variable(nvars, i) for i in range(nvars)]
    kind = draw(st.sampled_from(("random", "product", "linear")))
    if kind == "random":
        comps = [draw(homogeneous(nvars, d)) for _ in z]
    elif kind == "product":
        form = draw(homogeneous(nvars, 1))
        comps = [form * draw(homogeneous(nvars, d - 1)) for _ in z]
    else:
        m = draw(st.integers(1, n - 1))
        q = draw(homogeneous(nvars, d - 1))
        comps = [z[i] * q for i in range(nvars)]
        for k in range(m):
            comps = [c + z[k] * draw(homogeneous(nvars, d - 1)) for c in comps]
    assume(not all(c.is_zero() for c in comps))
    return comps


@given(candidate_fields())
@settings(max_examples=120, deadline=None)
def test_stratified_cover_matches_the_all_charts_check(comps):
    try:
        Foliation(comps)
        outcome = None
    except InputError as err:
        assert err.code == POSITIVE_DIM_SING
        outcome = err.message
    assert outcome == all_charts_check(comps)


# ------------------------------------------------------------- chart fields


def test_chart_field_at_zero():
    f = triangle_foliation()
    assert list(f.chart_field(0)) == [
        parse_polynomial("u*(u - 1)", UW),
        parse_polynomial("w*(w - 1)", UW),
    ]


def test_chart_field_at_one():
    assert list(triangle_foliation().chart_field(1)) == [
        parse_polynomial("-u*(1 - u)", UW),
        parse_polynomial("w*(w - 1)", UW),
    ]


def test_chart_field_degree_can_exceed_foliation_degree():
    # on P^1 with no invariant chart hyperplane the local degree is d+1
    f = Foliation([parse_polynomial("z1^2", ["z0", "z1"]),
                   parse_polynomial("z0^2", ["z0", "z1"])])
    assert f.degree == 2
    (component,) = f.chart_field(0)
    assert component.total_degree() == 3
    assert total_milnor(f) == 3


def test_singular_ideal_dimensions():
    f = triangle_foliation()
    assert quotient_dimension(f.singular_ideal(0)) == 4
    assert quotient_dimension(f.singular_ideal(1)) == 4


def test_chart_multiplicities_agree_on_overlap():
    f = triangle_foliation()
    p = RationalPoint.parse(["1", "1", "0"])
    mu0 = milnor_at_point(f.singular_ideal(0), p.affine_coords(0))
    mu1 = milnor_at_point(f.singular_ideal(1), p.affine_coords(1))
    assert mu0 == mu1 == point_milnor(f, p)


# ------------------------------------------------------------- arrangement


def test_arrangement_requires_linear_forms():
    with pytest.raises(InputError) as err:
        arr(["z0^2", "z1"])
    assert err.value.code == NC_VIOLATION
    with pytest.raises(InputError):
        arr(["0", "z1"])


def test_arrangement_rejects_proportional_pairs():
    with pytest.raises(InputError) as err:
        arr(["z0", "2*z0"])
    assert err.value.code == NC_VIOLATION


def test_validate_arrangement():
    assert triangle_arrangement().forms
    assert arr(["z0", "z1", "z0 + z1 + z2"]).forms
    with pytest.raises(InputError) as err:
        arr(["z0", "z1", "z0 + z1"])
    assert err.value.code == NC_VIOLATION
    assert err.value.message == ("hyperplanes {0, 1, 2} are linearly dependent "
                                 "but meet in projective space")
    # the pairs are checked before any larger subset
    with pytest.raises(InputError) as err:
        arr(["z0", "z1", "z0 + z1", "2*z1"])
    assert err.value.message == "hyperplanes 1 and 3 are proportional"


def test_validate_arrangement_four_lines():
    assert arr(["z0", "z1", "z2", "z0 + z1 + z2"]).forms
    with pytest.raises(InputError) as err:
        arr(["z0", "z1", "z2", "z1 + z2"])
    assert err.value.code == NC_VIOLATION
    assert "{1, 2, 3}" in err.value.message
    # in P^3 four dependent planes still meet in a point
    with pytest.raises(InputError) as err:
        arr(["z0", "z1", "z2", "z0 + z1 + z2"], P3)
    assert err.value.message == ("hyperplanes {0, 1, 2, 3} are linearly dependent "
                                 "but meet in projective space")


# ------------------------------------------------------------- logarithmic


def test_is_logarithmic_examples():
    f = triangle_foliation()
    for text in ["z0", "z1", "z2", "z1 - z2"]:
        assert is_invariant(f.components, parse_polynomial(text, P2))
    assert not is_invariant(f.components, parse_polynomial("z0 + z1", P2))


def test_is_logarithmic_scaling_invariance():
    f = triangle_foliation()
    form = parse_polynomial("z1 - z2", P2)
    assert is_invariant(f.components, form * Fraction(7, 3))
    assert is_invariant([c * 5 for c in f.components], form)


def test_require_logarithmic_names_the_hyperplane():
    f = triangle_foliation()
    with pytest.raises(InputError) as err:
        Instance(f, arr(["z0", "z0 + z1", "z1 + z2"]))
    assert err.value.code == NOT_LOGARITHMIC
    assert err.value.message == "hyperplane 1 (z0 + z1) is not invariant"


# ----------------------------------------------------------------- strata


def test_build_stratum_parametrizes_the_intersection():
    a = triangle_arrangement()
    stratum = build_stratum(a.forms, [1, 2], 3)
    assert stratum.dim == 0
    for seed in (["1"], ["3"]):
        ambient = stratum.stratum_to_ambient([Fraction(s) for s in seed])
        assert a.forms[1].evaluate(ambient) == 0
        assert a.forms[2].evaluate(ambient) == 0


def test_stratum_point_maps_round_trip():
    stratum = build_stratum(triangle_arrangement().forms, [2], 3)
    inside = stratum.stratum_to_ambient([Fraction(1), Fraction(5)])
    assert stratum.ambient_to_stratum(inside) == (Fraction(1), Fraction(5))
    with pytest.raises(ValueError):
        stratum.ambient_to_stratum([1, 1, 1])
    # the forms solve for z1 and z2; the point stratum is z0 = 3w, z1 = -2w, z2 = w
    forms = [parse_polynomial(t, P2) for t in ["z0 + z1 - z2", "z1 + 2*z2"]]
    sheared = build_stratum(forms, [0, 1], 3)
    assert sheared.free == (0,)
    assert sheared.stratum_to_ambient([Fraction(3)]) == (3, -2, 1)
    assert sheared.ambient_to_stratum([6, -4, 2]) == (6,)
    with pytest.raises(ValueError):
        sheared.ambient_to_stratum([3, -2, 2])


@st.composite
def independent_rows(draw):
    """(nvars, rows): 1 to nvars-1 independent integer form vectors, mostly sparse."""
    nvars = draw(st.integers(2, 5))
    k = draw(st.integers(1, nvars - 1))
    entry = st.sampled_from((0, 0, 1, -1, 2))
    rows = draw(st.lists(st.lists(entry, min_size=nvars, max_size=nvars),
                         min_size=k, max_size=k))
    assume(rank(rows) == k)
    return nvars, rows


@given(independent_rows())
@settings(max_examples=200, deadline=None)
def test_build_stratum_solves_the_forms(case):
    nvars, rows = case
    forms = linear_images(rows)
    stratum = build_stratum(forms, range(len(forms)), nvars)
    # the images parametrize the common zeros of the forms ...
    assert all(f.compose(stratum.images).is_zero() for f in forms)
    # ... by the free coordinates themselves
    m = len(stratum.free)
    assert all(stratum.images[j] == MultiPoly.variable(m, t)
               for t, j in enumerate(stratum.free))
    # free is the lexicographically first complement whose columns leave the
    # forms solvable; the restricted fields, and so the Groebner work and the
    # golden reports, depend on this choice
    first = next(free for free in combinations(range(nvars), nvars - len(rows))
                 if rank([[row[i] for i in range(nvars) if i not in free]
                          for row in rows]) == len(rows))
    assert stratum.free == first
    # one more form that depends on the others
    extra = linear_images([[a + 2 * b for a, b in zip(rows[0], rows[-1])]])
    with pytest.raises(InputError) as err:
        build_stratum(forms + extra, range(len(forms) + 1), nvars)
    assert err.value.code == NC_VIOLATION


def test_build_stratum_rejects_dependent_forms():
    with pytest.raises(InputError) as err:
        build_stratum([parse_polynomial(t, P2) for t in ["z0", "z1", "z0 + z1"]],
                      [0, 1, 2], 3)
    assert err.value.code == NC_VIOLATION
    assert err.value.message == "hyperplanes (0, 1, 2) do not meet transversally"


def test_restrict_empty_subset_is_identity():
    f = triangle_foliation()
    restricted, stratum = Instance(f, triangle_arrangement()).restriction([])
    assert restricted is f
    assert stratum.dim == 2


def test_restrict_to_line():
    f = triangle_foliation()
    restricted, stratum = Instance(f, triangle_arrangement()).restriction([2])
    assert restricted is not None
    assert restricted.n == 1
    assert restricted.degree == 2
    assert total_milnor(restricted) == 3


def test_restrict_rejects_point_strata_and_duplicates():
    inst = Instance(triangle_foliation(), triangle_arrangement())
    with pytest.raises(ValueError):
        inst.restriction([1, 2])
    with pytest.raises(ValueError):
        inst.restriction([1, 1])


def test_restriction_keeps_shared_component_factors():
    # on the line z0 = 0 the components share the factor z2; it stays,
    # so the stratum total still counts a fat point and adds up to 1 + d
    f = fol(["0", "z1*(z2 - z0)", "z2*(z2 - z0 - z1)"])
    a = arr(["z0"])
    restricted, _ = Instance(f, a).restriction([0])
    assert restricted is not None
    assert restricted.degree == 2
    assert total_milnor(restricted) == 3


def test_restriction_commutes_with_further_restriction():
    f = fol(["0", "z1*(z1 - z0)", "z2*(z2 - z0)", "z3*(z3 - z0)"], P3)
    a = arr(["z2", "z3"], P3)

    direct, direct_stratum = Instance(f, a).restriction([0, 1])

    first, stratum1 = Instance(f, a).restriction([0])
    # the second form, written in the coordinates of the first stratum
    pushed = a.forms[1].compose(stratum1.images)
    second, stratum2 = Instance(first, Arrangement(first.n, [pushed])).restriction([0])

    assert direct.n == second.n == 1
    assert total_milnor(direct) == total_milnor(second)

    # the same ambient singular point has the same multiplicity both ways
    ambient = ["1", "1", "0", "0"]
    via_direct = RationalPoint(direct_stratum.ambient_to_stratum(
        [Fraction(c) for c in ambient]))
    via_steps = RationalPoint(stratum2.ambient_to_stratum(
        stratum1.ambient_to_stratum([Fraction(c) for c in ambient])))
    assert point_milnor(direct, via_direct) == point_milnor(second, via_steps)


@st.composite
def instance_parts(draw):
    """Lotka-Volterra components and some coordinate hyperplanes, maybe sheared.

    The shear w_i = z_i + c z_j moves both, so the strata stop being
    coordinate subspaces while every hyperplane stays invariant.
    """
    n, comps = draw(lotka_volterra_fields([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    chosen = draw(st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True))
    forms = [MultiPoly.variable(n + 1, i) for i in sorted(chosen)]
    i, j = draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
    c = draw(st.sampled_from((0, 1, -2)))
    inverse = [[int(r == k) - (c if (r, k) == (i, j) else 0) for k in range(n + 1)]
               for r in range(n + 1)]
    pulled = [linear_substitute(p, inverse) for p in comps]
    pulled[i] = pulled[i] + pulled[j] * c
    return n, pulled, [linear_substitute(f, inverse) for f in forms]


@given(instance_parts())
@settings(max_examples=60, deadline=None)
def test_no_restriction_of_a_valid_instance_is_invalid(parts):
    # Tangency puts Sing(F|S) = Sing(F) ∩ S, which is finite, and a
    # vanishing or radial restriction would make S singular for F; so
    # once the Instance is valid, no restriction raises.
    n, comps, forms = parts
    try:
        inst = Instance(Foliation(comps), Arrangement(n, forms))
    except InputError:
        assume(False)
    for size in range(1, min(len(forms), n - 1) + 1):
        for subset in combinations(range(len(forms)), size):
            restricted, stratum = inst.restriction(subset)
            assert restricted.n == stratum.dim == n - size
