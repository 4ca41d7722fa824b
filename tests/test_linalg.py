"""Fraction-free elimination against the Fraction routes, on random matrices."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from logfol.linalg import echelon, mat_mul, rref, stable_row_space

from oracles import gauss_rank

FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def rational_rows(draw, ncols=None, nrows=None):
    """Rows over Q with zero, repeated and dependent rows mixed in."""
    ncols = ncols or draw(st.integers(1, 6))
    nrows = nrows or draw(st.integers(0, 7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            row = [Fraction(0)] * ncols
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(FRACTIONS), draw(FRACTIONS)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(FRACTIONS, min_size=ncols, max_size=ncols))
        rows.append(row)
    return rows


@st.composite
def square_matrices(draw):
    """Square rational matrices; some strictly upper triangular (nilpotent)."""
    size = draw(st.integers(1, 5))
    matrix = draw(rational_rows(ncols=size, nrows=size))
    if draw(st.booleans()):
        matrix = [[x if j > i else Fraction(0) for j, x in enumerate(row)]
                  for i, row in enumerate(matrix)]
    return matrix


def integer_rows(rows):
    """Each row times the lcm of its denominators: the same row space."""
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def pivot(row):
    return next(i for i, x in enumerate(row) if x)


@settings(max_examples=200, deadline=None)
@given(rational_rows())
def test_integer_rank_matches_the_fraction_routes(rows):
    ech = echelon(integer_rows(rows))
    assert len(ech) == gauss_rank(rows) == len(rref(rows)[1])
    # the echelon rows span the input rows
    assert gauss_rank(rows + ech) == len(ech)


@settings(max_examples=200, deadline=None)
@given(rational_rows())
def test_echelon_rows_are_primitive_with_increasing_pivots(rows):
    ech = echelon(integer_rows(rows))
    assert all(isinstance(x, int) for row in ech for x in row)
    assert all(gcd(*row) == 1 for row in ech)
    pivots = [pivot(row) for row in ech]
    assert pivots == sorted(set(pivots))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_stable_row_space_spans_the_top_power(matrix):
    # scale the whole matrix by one common denominator, as supported_lengths
    # does: the powers of c*M have the row spaces of the powers of M
    scale = lcm(*(x.denominator for row in matrix for x in row))
    stable = stable_row_space([[int(x * scale) for x in row] for row in matrix])
    power = matrix
    for _ in range(len(matrix) - 1):
        power = mat_mul(power, matrix)
    rank = gauss_rank(power)
    assert len(stable) == rank
    assert gauss_rank(power + stable) == rank
    assert all(gcd(*row) == 1 for row in stable)
