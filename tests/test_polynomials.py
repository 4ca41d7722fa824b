from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfol.groebner import divide
from logfol.polynomials import (
    GREVLEX,
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_TERMS,
    BlockOrder,
    MultiPoly,
    format_poly,
    parse_polynomial,
)

from oracles import LEX, linear_substitute

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def poly(text, names=XY):
    return parse_polynomial(text, names)


# ----------------------------------------------------------------- parsing


def test_parse_basic_arithmetic():
    assert poly("x + y") == MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)
    assert poly("x*y - 3") == poly("-3 + y*x")
    assert poly("(x + y)^2") == poly("x^2 + 2*x*y + y^2")
    assert poly("0") == MultiPoly.zero(2)


def test_parse_rational_coefficients():
    p = poly("1/2*x - 3/4")
    assert p.coefficient((1, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 0)) == Fraction(-3, 4)


def test_parse_unary_minus_and_nesting():
    assert poly("-(x - y)") == poly("y - x")
    assert poly("-x^2") == -poly("x^2")
    assert poly("2*(x - (y - x))") == poly("4*x - 2*y")


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match="position"):
        poly("x + + y")
    with pytest.raises(ValueError, match="unknown variable"):
        poly("x + w")
    with pytest.raises(ValueError):
        poly("x * ")
    with pytest.raises(ValueError):
        poly("(x")
    with pytest.raises(ValueError):
        poly("x^-2")


def test_parse_nesting_is_bounded():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert poly(deepest) == poly("x")
    # the leading sign of an expression does not nest
    assert poly("-" * (MAX_NESTING + 1) + "x") == poly("-x")
    for text in ["(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
                 "(" * 3000 + "x" + ")" * 3000,
                 "-" * 3000 + "x",
                 "-(" * 3000 + "x" + ")" * 3000]:
        with pytest.raises(ValueError, match="nested"):
            poly(text)


def test_parse_degree_is_bounded():
    assert poly(f"x^{MAX_DEGREE}") == MultiPoly.monomial(2, (MAX_DEGREE, 0))
    assert poly(f"x^{MAX_DEGREE - 1}*y").total_degree() == MAX_DEGREE
    # constants and zero add no degree
    assert poly(f"2^{MAX_DEGREE + 1}*x") == poly(f"{2 ** (MAX_DEGREE + 1)}*x")
    assert poly(f"0^{MAX_DEGREE + 1}*x^{MAX_DEGREE}").is_zero()
    for text in [f"x^{MAX_DEGREE + 1}", f"(x + y)^{4 * MAX_DEGREE}",
                 f"x^{MAX_DEGREE}*y", f"(x*y)^{MAX_DEGREE // 2 + 1}",
                 f"(x^{MAX_DEGREE})^2", "x^99999999999999999999"]:
        with pytest.raises(ValueError, match=f"above {MAX_DEGREE}"):
            poly(text)


def test_parse_terms_are_bounded():
    abcd = ["a", "b", "c", "d"]
    assert len(parse_polynomial("(a + b + c + d)^20", abcd).terms) == comb(23, 3)
    # refused from the bound C(t+k-1, k) or len(p)*len(q), before expanding
    for text in ["(a + b + c + d)^30", "(a + b + c + d)^21",
                 "(a + b + c)^25*(a + b + c)^25"]:
        with pytest.raises(ValueError, match=f"terms [0-9]+ above {MAX_TERMS}"):
            parse_polynomial(text, abcd)


def test_parse_coefficients_are_bounded():
    assert poly("(x + y)^50").coefficient((25, 25)) == comb(50, 25)
    assert poly("9^1000*9^1000") == MultiPoly.constant(2, 9 ** 2000)
    # degree 0 passes the other budgets; the bits are refused before expanding
    for text in ["((9^100)^100)^10", f"2^{MAX_COEFFICIENT_BITS}", "(1/3)^6000",
                 "9^1000*9^1000*9^1000"]:
        with pytest.raises(ValueError, match=f"above {MAX_COEFFICIENT_BITS}"):
            poly(text)


def test_format_round_trips():
    for text in ["0", "x^2 - y", "x*y + 1/3", "-x + y^4 - 2",
                 "x^2*y^3 - 7*x*y - 5/2"]:
        p = poly(text)
        assert poly(format_poly(p, XY)) == p


# -------------------------------------------------------------- arithmetic


def test_ring_identities():
    x, y = poly("x"), poly("y")
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + y) ** 3 == poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
    assert x * 0 == MultiPoly.zero(2)
    assert (x - x).is_zero()


def test_degree_and_homogeneity():
    assert poly("x^2*y + y^3").total_degree() == 3
    assert poly("x^2*y + y^3").is_homogeneous()
    assert not poly("x^2 + y").is_homogeneous()
    assert MultiPoly.zero(2).total_degree() == -1


def test_evaluate():
    p = poly("x^3 - 2*x*y + 5")
    assert p.evaluate([Fraction(2), Fraction(3)]) == 8 - 12 + 5


def test_compose():
    p = poly("x^2 + y")
    assert p.compose([poly("x + y"), poly("x*y")]) == poly(
        "x^2 + 2*x*y + y^2 + x*y")


def test_dehomogenize_merges_colliding_terms():
    # z*x + x both land on x once z is set to 1
    p = parse_polynomial("z*x + x", ["x", "y", "z"])
    assert p.dehomogenize(2) == poly("2*x")


# ------------------------------------------------------------ substitution


def test_linear_substitute_examples():
    x = poly("x")
    ident = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    shear = [[1, 1], [0, 1]]
    assert linear_substitute(x, ident) == x
    assert linear_substitute(poly("x + y"), swap) == poly("x + y")
    assert linear_substitute(poly("x^2"), shear) == poly("x^2 + 2*x*y + y^2")


def test_linear_substitute_rejects_singular():
    with pytest.raises(ValueError):
        linear_substitute(poly("x"), [[1, 1], [2, 2]])


# ----------------------------------------------------------------- orders


def test_lead_terms_under_orders():
    p = parse_polynomial("x^2 + y^3 + x*y*z", XYZ)
    grev_lead, _ = p.lead_term(GREVLEX)
    lex_lead, _ = p.lead_term(LEX)
    # grevlex tiebreak among degree-3 monomials: smaller last exponent wins
    assert grev_lead == (0, 3, 0)
    assert lex_lead == (2, 0, 0)


def test_block_order_eliminates_first_block():
    # any monomial containing the first variable beats any that does not
    order = BlockOrder(1)
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    assert order.key((0, 2, 1)) > order.key((0, 1, 1))


def test_order_respects_one():
    for order in (GREVLEX, LEX, BlockOrder(1)):
        assert order.key((0, 0, 0)) < order.key((1, 0, 0))
        assert order.key((0, 0, 0)) < order.key((0, 0, 1))


# -------------------------------------------------------------- hypothesis


def exponents(nvars=2, max_deg=3):
    return st.tuples(*[st.integers(0, max_deg)] * nvars)


def fractions():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def polys(nvars=2):
    return st.dictionaries(exponents(nvars), fractions(), max_size=5).map(
        lambda d: MultiPoly(nvars, d))


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(polys())
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip(p):
    assert parse_polynomial(format_poly(p, XY), XY) == p


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_linear_substitute_is_a_ring_map(a, b):
    matrix = [[1, 2], [1, 3]]
    assert linear_substitute(a * b, matrix) == \
        linear_substitute(a, matrix) * linear_substitute(b, matrix)
    assert linear_substitute(a + b, matrix) == \
        linear_substitute(a, matrix) + linear_substitute(b, matrix)


@given(exponents(3), exponents(3), exponents(3))
@settings(max_examples=60, deadline=None)
def test_orders_are_multiplicative(a, b, m):
    for order in (GREVLEX, LEX, BlockOrder(1)):
        assert (order.rev_key(a) < order.rev_key(b)) == (order.key(b) < order.key(a))
        if order.key(a) < order.key(b):
            shifted_a = tuple(i + j for i, j in zip(a, m))
            shifted_b = tuple(i + j for i, j in zip(b, m))
            assert order.key(shifted_a) < order.key(shifted_b)


def assert_normalized(p):
    # arithmetic builds results without the validating constructor
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    again = MultiPoly(p.nvars, p.terms)
    assert p.terms == again.terms
    assert p == again and hash(p) == hash(again)


def cancelling_polys(nvars=2):
    # few monomials and small coefficients, so sums and products cancel often
    return st.dictionaries(exponents(nvars, 2), st.integers(-2, 2), max_size=5).map(
        lambda d: MultiPoly(nvars, d))


@given(cancelling_polys(), cancelling_polys(), cancelling_polys(),
       st.one_of(st.integers(-2, 2), fractions()), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_arithmetic_results_are_normalized(a, b, c, scalar, k):
    results = [a + b, a - b, b - a, a - a, -a, a * b, (a + b) * (a - b), a ** k,
               a * scalar, scalar * a, a + scalar, -a + scalar]
    for order in (GREVLEX, LEX, BlockOrder(1)):
        divisors = [g for g in (b, c) if not g.is_zero()]
        quotients, remainder = divide(a * b + c, divisors, order)
        results += quotients + [remainder]
    for p in results:
        assert_normalized(p)
