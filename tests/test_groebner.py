import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfol.groebner import (
    INFINITE,
    Ideal,
    _reduced_groebner,
    buchberger,
    colon_by_ideal,
    divide,
    ideal_quotient,
    intersect,
    normal_form,
    quotient_dimension,
    saturate,
    staircase,
    supported_length,
)
from logfol.errors import InputError
from logfol.foliations import Foliation
from logfol.polynomials import GREVLEX, BlockOrder, MultiPoly, format_poly, parse_polynomial

from oracles import (
    LEX,
    brute_contains,
    brute_quotient_dimension,
    linear_substitute,
    reference_divide,
)

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def poly(text, names=XY):
    return parse_polynomial(text, names)


def ideal(texts, names=XY):
    return buchberger([poly(t, names) for t in texts], len(names))


def basis_strings(I, names=XY):
    return [format_poly(g, names) for g in I.groebner_basis()]


def lex_basis_strings(texts, names):
    """The reduced lex basis, which no Ideal caches, formatted in lex order."""
    basis = _reduced_groebner([poly(t, names) for t in texts], len(names), LEX)
    return [format_poly(g, names, LEX) for g in basis]


# --------------------------------------------------------------- buchberger


def test_univariate_gcd():
    assert lex_basis_strings(["x^2 - 1", "x - 1"], ["x"]) == ["x - 1"]


def test_empty_generators_give_zero_ideal():
    I = buchberger([], nvars=2)
    assert I.groebner_basis() == ()
    assert normal_form(poly("x + y"), I) == poly("x + y")


def test_twisted_cubic_bases():
    gens = ["y - x^2", "z - x^3"]
    grev = ideal(gens, XYZ)
    assert sorted(basis_strings(grev, XYZ)) == \
        sorted(["x^2 - y", "x*y - z", "y^2 - x*z"])
    # lex with x least significant: the parametrization itself is the basis
    zyx = ["z", "y", "x"]
    assert sorted(lex_basis_strings(gens, zyx)) == \
        sorted(["y - x^2", "z - x^3"])
    # lex with x most significant eliminates x instead
    assert "y^3 - z^2" in lex_basis_strings(gens, XYZ)


def test_basis_independent_of_generator_order():
    gens = [poly(t, XYZ) for t in
            ["x*y - z^2", "x^2 - y*z", "y^2 - x*z", "x + y + z"]]
    expected = buchberger(gens, 3).groebner_basis()
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm), 3).groebner_basis() == expected


def test_basis_is_reduced():
    I = ideal(["x^2 + y^2 - 1", "x*y - 1/4"])
    basis = I.groebner_basis()
    for g in basis:
        lead, coeff = g.lead_term(GREVLEX)
        assert coeff == 1
        for other in basis:
            if other is g:
                continue
            olead, _ = other.lead_term(GREVLEX)
            for exps in g.terms:
                assert not all(a >= b for a, b in zip(exps, olead))


# -------------------------------------------------------------- normal form


def test_normal_form_membership():
    assert normal_form(poly("x^2"), ideal(["x"])).is_zero()
    assert normal_form(poly("x + 1"), ideal(["x^2"])) == poly("x + 1")


def test_normal_form_cubic_example():
    # x^3 = x*(x^2 - y) + x*y and x*y is irreducible mod (x^2 - y, y^2)
    I = ideal(["x^2 - y", "y^2"])
    remainder = normal_form(poly("x^3"), I)
    assert remainder == poly("x*y")
    gens = [poly("x^2 - y"), poly("y^2")]
    assert brute_contains(gens, poly("x^3") - remainder)
    assert not brute_contains(gens, poly("x*y"))


def test_normal_form_requires_cached_basis():
    bare = Ideal(2, [poly("x")])
    with pytest.raises(ValueError):
        normal_form(poly("x"), bare)


def test_division_reconstructs():
    divisors = [poly("x^2 - y"), poly("x*y - 1")]
    f = poly("x^4 + x^2*y - y^2 + 3")
    quotients, remainder = divide(f, divisors, GREVLEX)
    rebuilt = remainder
    for q, g in zip(quotients, divisors):
        rebuilt = rebuilt + q * g
    assert rebuilt == f


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3),
       st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_normal_form_is_additive(a, b, e1, e2):
    I = ideal(["x^2 - y", "y^3 - x"])
    f = MultiPoly.monomial(2, (e1, e2), a)
    g = MultiPoly.monomial(2, (e2, e1), b)
    assert normal_form(f + g, I) == normal_form(f, I) + normal_form(g, I)


# ------------------------------------------------------- quotient / colon


def test_ideal_quotient_examples():
    assert ideal_quotient(ideal(["x*y"]), poly("x")) == ideal(["y"])
    assert ideal_quotient(ideal(["x^2"]), poly("x")) == ideal(["x"])
    assert ideal_quotient(ideal(["x*(x - 1)", "y"]), poly("x - 1")) == \
        ideal(["x", "y"])


def test_ideal_quotient_rejects_zero():
    with pytest.raises(ValueError):
        ideal_quotient(ideal(["x"]), MultiPoly.zero(2))


def test_intersection():
    assert intersect(ideal(["x"]), ideal(["y"])) == ideal(["x*y"])
    assert intersect(ideal(["x^2", "y"]), ideal(["x"])) == \
        ideal(["x^2", "x*y"])


def test_colon_by_ideal_splits_generators():
    I = ideal(["x^2*y", "x*y^2"])
    assert colon_by_ideal(I, ideal(["x", "y"])) == ideal(["x*y"])


# ----------------------------------------------------------------- saturate


def test_saturate_principal():
    assert saturate(ideal(["x^2*y"]), ideal(["y"])) == ideal(["x^2"])


def test_saturate_removes_only_the_origin():
    I = ideal(["x*(x - 1)", "y*(y - 1)"])
    S = saturate(I, ideal(["x", "y"]))
    assert quotient_dimension(I) == 4
    assert quotient_dimension(S) == 3
    # the remaining points still satisfy the original equations
    for g in I.generators:
        assert normal_form(g, S).is_zero()


def test_saturate_can_remove_everything():
    S = saturate(ideal(["x^2", "y"]), ideal(["x", "y"]))
    assert quotient_dimension(S) == 0
    assert normal_form(MultiPoly.constant(2, 1), S).is_zero()


def test_saturate_keeps_multiplicity_elsewhere():
    I = ideal(["x^2*(x - 1)^3", "y"])
    S = saturate(I, ideal(["x", "y"]))
    assert quotient_dimension(S) == 3


def test_saturate_is_idempotent():
    I = ideal(["x^2*y", "x*y^3"])
    J = ideal(["x"])
    once = saturate(I, J)
    assert saturate(once, J) == once


# ------------------------------------------------------ quotient dimension


def test_quotient_dimension_examples():
    assert quotient_dimension(ideal(["x^2", "y^3"])) == 6
    assert quotient_dimension(ideal(["x", "y"])) == 1
    assert quotient_dimension(ideal(["x"])) == INFINITE
    assert quotient_dimension(buchberger([], nvars=2)) == INFINITE


def test_staircase_listing():
    monos = staircase(ideal(["x^2", "y^3"]))
    assert len(monos) == 6
    assert set(monos) == {(a, b) for a in range(2) for b in range(3)}


BRUTE_CASES = [
    (["x^2", "y^3"], XY),
    (["x", "y"], XY),
    (["x*(x - 1)", "y*(y - 1)"], XY),
    (["x^2 - y", "y^2"], XY),
    (["x^3 - y^2", "y^3"], XY),
    (["x^2 + y^2 - 1", "x*y - 1/4"], XY),
    (["x^2", "x*y", "y^4"], XY),
    (["x^2", "y^2", "z^2"], XYZ),
    (["x^2 - y", "y^2 - z", "z^2"], XYZ),
    (["x*y - z", "y*z - x", "x*z - y"], XYZ),
]


@pytest.mark.parametrize("texts,names", BRUTE_CASES)
def test_quotient_dimension_matches_brute_force(texts, names):
    gens = [poly(t, names) for t in texts]
    expected = brute_quotient_dimension(gens, len(names))
    assert quotient_dimension(buchberger(gens, len(names))) == expected


# ------------------------------------------------------- supported length


def saturation_length(I, locus):
    """The saturation route: dim Q[x]/I minus dim Q[x]/(I : (locus)^inf)."""
    if not locus:
        return quotient_dimension(I)
    return quotient_dimension(I) - quotient_dimension(saturate(I, Ideal(I.nvars, locus)))


def chart_loci(fol, forms):
    """(chart ideal, locus) pairs as the global totals use them."""
    n = fol.n
    for j in range(n + 1):
        overlap = [MultiPoly.variable(n, i) for i in range(j)]
        product = MultiPoly.constant(n, 1)
        for f in forms:
            product = product * f.dehomogenize(j)
        yield fol.singular_ideal(j), overlap
        yield fol.singular_ideal(j), overlap + [product]


def lotka_volterra(n, d, seed):
    """P_i = z_i * Q_i with seeded integer Q_i of degree d-1, isolated zeros."""
    rng = random.Random(seed)
    monos = [e for e in itertools.product(range(d), repeat=n + 1) if sum(e) == d - 1]
    while True:
        comps = [MultiPoly.variable(n + 1, i) *
                 MultiPoly(n + 1, {e: rng.randint(-3, 3) for e in monos})
                 for i in range(n + 1)]
        try:
            return Foliation(comps)
        except InputError:
            continue


def sheared(fol, forms):
    """The instance after w = S z, where S adds z_1 to z_0."""
    size = fol.n + 1
    inverse = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    inverse[0][1] = -1
    pulled = [linear_substitute(p, inverse) for p in fol.components]
    return (Foliation([pulled[0] + pulled[1]] + pulled[1:]),
            [linear_substitute(f, inverse) for f in forms])


def coordinate_forms(n):
    return [MultiPoly.variable(n + 1, i) for i in range(n + 1)]


def test_supported_length_matches_saturation_on_triangle_charts():
    names = ["z0", "z1", "z2"]
    triangle = Foliation([poly(t, names) for t in ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"]])
    forms = [poly(t, names) for t in names]
    for I, locus in chart_loci(triangle, forms):
        assert supported_length(I, locus) == saturation_length(I, locus)


@pytest.mark.parametrize("n,d,seed,shear", [
    (2, 3, 1, False), (2, 3, 1, True), (3, 2, 2, False),
])
def test_supported_length_matches_saturation_on_lotka_volterra(n, d, seed, shear):
    fol, forms = lotka_volterra(n, d, seed), coordinate_forms(n)
    if shear:
        fol, forms = sheared(fol, forms)
    for I, locus in chart_loci(fol, forms):
        assert supported_length(I, locus) == saturation_length(I, locus)


def sympy_reduced_basis(sympy, gens, nvars):
    """sympy's monic reduced grevlex basis, as a set of MultiPoly."""
    xs = sympy.symbols(f"x0:{nvars}")
    exprs = [sum(sympy.Rational(c.numerator, c.denominator) *
                 sympy.Mul(*[x ** k for x, k in zip(xs, e)]) for e, c in g.terms.items())
             for g in gens]
    basis = sympy.groebner(exprs, *xs, order="grevlex", domain="QQ")
    return {MultiPoly(nvars, {e: Fraction(int(c.p), int(c.q))
                              for e, c in sympy.Poly(g, *xs).terms()})
            for g in basis.exprs}


@pytest.mark.parametrize("n,d,seed", [
    (2, 2, None), (2, 3, 1), (2, 3, 2), (2, 3, 3), (3, 2, 1), (3, 2, 2), (3, 2, 3),
])
def test_reduced_basis_matches_sympy(n, d, seed):
    sympy = pytest.importorskip("sympy")
    if seed is None:  # the README triangle
        names = ["z0", "z1", "z2"]
        fol = Foliation([poly(t, names) for t in ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"]])
    else:
        fol = lotka_volterra(n, d, seed)
    for I, locus in chart_loci(fol, coordinate_forms(n)):
        gens = list(I.generators) + locus
        ours = _reduced_groebner(gens, n, GREVLEX)
        assert len(ours) == len(set(ours))
        assert set(ours) == sympy_reduced_basis(sympy, gens, n)


@pytest.mark.parametrize("texts,locus,expected", [
    (["x^2 - 2", "y^2 - 3"], ["x^2 - 2"], 4),
    (["x^2 - 2", "y^2 - 3"], ["x - y"], 0),
    (["x^2 - 2", "y^2 - 3"], [], 4),
    (["x^2*(x - 1)", "y^2"], ["x"], 4),
    (["x^2*(x - 1)", "y^2"], ["x - 1", "y"], 2),
    (["x^2*(x - 1)", "y^2"], ["y"], 6),
])
def test_supported_length_counts_multiplicity(texts, locus, expected):
    I = ideal(texts)
    locus = [poly(t) for t in locus]
    assert supported_length(I, locus) == expected
    assert saturation_length(I, locus) == expected


def test_supported_length_needs_a_finite_staircase():
    with pytest.raises(ValueError):
        supported_length(ideal(["x"]), [poly("y")])


# -------------------------------------------------------------- hypothesis


@st.composite
def small_ideals(draw):
    texts = draw(st.lists(st.sampled_from([
        "x^2 - y", "y^2 - 1", "x*y", "x^2 + y^2 - 2", "x - y^2",
        "x^3", "y^3 - x", "x*y - 1",
    ]), min_size=1, max_size=3, unique=True))
    return [poly(t) for t in texts]


@given(small_ideals())
@settings(max_examples=30, deadline=None)
def test_membership_of_generator_products(gens):
    I = buchberger(gens, 2)
    for f in gens:
        assert normal_form(f, I).is_zero()
        assert normal_form(f * poly("x + 2*y"), I).is_zero()


@given(small_ideals())
@settings(max_examples=20, deadline=None)
def test_saturation_contains_ideal(gens):
    I = buchberger(gens, 2)
    S = saturate(I, ideal(["x", "y"]))
    for f in gens:
        assert normal_form(f, S).is_zero()


def polys3(max_size):
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                            st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                            max_size=max_size)
    return terms.map(lambda d: MultiPoly(3, d))


@given(polys3(8), st.lists(polys3(4).filter(lambda g: not g.is_zero()),
                           min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_divide_matches_reference_division(f, divisors):
    for order in (GREVLEX, LEX, BlockOrder(1)):
        # products make remainders and quotients in several divisors likely
        dividend = f + divisors[0] * divisors[-1]
        assert divide(dividend, divisors, order) == \
            reference_divide(dividend, divisors, order)
