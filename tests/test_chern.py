import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfol.chern import (
    SIGMA_CONVENTION_NOTE,
    ChernInput,
    closed_form_sigma,
    complete_homogeneous,
    lhs_integral,
)

from oracles import closed_form_sigma_positive_args, recursion_check


# ------------------------------------------------------------- chern class


def test_lhs_integral_examples():
    assert lhs_integral(ChernInput(2, (1, 1, 1), 2)) == 1
    assert lhs_integral(ChernInput(2, (), 2)) == 7
    assert lhs_integral(ChernInput(2, (1,), 2)) == 4
    assert lhs_integral(ChernInput(2, (), 3)) == 13
    assert lhs_integral(ChernInput(3, (), 2)) == 15


def test_classical_count_no_divisor():
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            assert lhs_integral(ChernInput(n, (), d)) == \
                sum(d**i for i in range(n + 1))


def test_degree_two_all_hyperplanes_identity():
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert lhs_integral(ChernInput(n, (1,) * k, 2)) == 2 ** (n + 1 - k)


def test_input_validation():
    with pytest.raises(ValueError):
        ChernInput(0, (), 2)
    with pytest.raises(ValueError):
        ChernInput(2, (0,), 2)
    with pytest.raises(ValueError):
        ChernInput(2, (), -1)


# ------------------------------------------------------------- closed form


def test_complete_homogeneous_small_values():
    assert complete_homogeneous(0, [Fraction(5)]) == 1
    assert complete_homogeneous(1, [Fraction(-1), Fraction(1)]) == 0
    assert complete_homogeneous(2, [Fraction(-1), Fraction(1)]) == 1
    assert complete_homogeneous(3, [Fraction(2)]) == 8


def _h_by_enumeration(m, args):
    # sum of all degree-m monomials, straight from the definition
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(len(args)), m):
        product = Fraction(1)
        for i in combo:
            product *= args[i]
        total += product
    return total


@given(st.integers(0, 4),
       st.lists(st.integers(-3, 3), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_complete_homogeneous_matches_enumeration(m, raw):
    args = [Fraction(a) for a in raw]
    assert complete_homogeneous(m, args) == _h_by_enumeration(m, args)


def test_closed_form_examples():
    assert closed_form_sigma(ChernInput(2, (), 3)) == 13
    assert closed_form_sigma(ChernInput(2, (1,), 2)) == 4
    assert closed_form_sigma(ChernInput(1, (1,), 3)) == 3


def test_closed_form_equals_integral_on_a_grid():
    for n in (1, 2, 3):
        for k in range(0, 3):
            for degrees in itertools.combinations_with_replacement((1, 2), k):
                for d in (0, 1, 2, 3):
                    data = ChernInput(n, degrees, d)
                    assert closed_form_sigma(data) == lhs_integral(data)


def test_positive_argument_variant_disagrees():
    data = ChernInput(2, (1,), 2)
    assert lhs_integral(data) == 4
    assert closed_form_sigma(data) == 4
    assert closed_form_sigma_positive_args(data) == 12


def test_convention_note_quotes_the_divergence():
    # the note is a literal; its numbers must stay the ones it claims
    data = ChernInput(2, (1,), 2)
    assert (f"the case n=2, k=1, d_1=1, d=2 gives {closed_form_sigma_positive_args(data)} "
            f"while the Chern series gives {lhs_integral(data)}") in SIGMA_CONVENTION_NOTE


def test_binomial_weights_match_hand_expansion():
    # n=2, one hyperplane, d=2: 1*h2(-1,1) + 3*h1(-1,1) + 3*h0 = 1 + 0 + 3
    args = [Fraction(-1), Fraction(1)]
    total = sum(comb(3, i) * complete_homogeneous(2 - i, args)
                for i in range(3))
    assert total == 4


# -------------------------------------------------------------- recursion


def test_recursion_check_examples():
    assert recursion_check(ChernInput(2, (1, 1), 2), 1)
    assert recursion_check(ChernInput(2, (1,), 3), 0)
    assert recursion_check(ChernInput(3, (1, 1, 1), 2), 2)


def test_recursion_check_requires_degree_one_drop():
    with pytest.raises(ValueError):
        recursion_check(ChernInput(2, (2,), 2), 0)
    with pytest.raises(ValueError):
        recursion_check(ChernInput(1, (1,), 2), 0)


def test_recursion_values_on_two_lines():
    # dropping one of two lines: 2 on the left, 4 - 2 on the right
    assert lhs_integral(ChernInput(2, (1, 1), 2)) == 2
    assert lhs_integral(ChernInput(2, (1,), 2)) == 4
    assert lhs_integral(ChernInput(1, (1,), 2)) == 2
