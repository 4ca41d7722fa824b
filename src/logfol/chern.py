"""The Chern-number side of the verification, in exact integers.

The integral is the degree-n coefficient of

    (1+h)^(n+1) / (prod_i (1 + d_i h) * (1 + (1-d) h))

over P^n, where the d_i are the divisor component degrees and d is the
foliation degree.  `lhs_integral` reads it off by one integer
recurrence: the binomial coefficients of the numerator, divided by one
linear factor at a time.  A closed form via complete homogeneous
symmetric polynomials is computed by an independent recurrence and must
agree; note that its arguments are the *negated* divisor degrees
together with d-1.  The all-positive variant one might expect does not
match the integral (already at n=2, one line of degree 1, d=2 it gives
12 against the integral 4), so it is exposed only for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence


# ------------------------------------------------------------------ inputs

@dataclass(frozen=True)
class ChernInput:
    """Dimension, divisor component degrees and foliation degree."""

    n: int
    divisor_degrees: tuple
    foliation_degree: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if any(int(d) != d or d < 1 for d in self.divisor_degrees):
            raise ValueError("divisor degrees must be positive integers")
        if self.foliation_degree < 0:
            raise ValueError("foliation degree must be >= 0")
        object.__setattr__(self, "divisor_degrees",
                           tuple(int(d) for d in self.divisor_degrees))


def lhs_integral(data: ChernInput) -> int:
    """Top Chern number of the log tangent bundle twisted against O(1-d).

    Starts from the coefficients C(n+1, k) of (1+h)^(n+1) and divides by
    one factor 1 + a*h at a time, for a each divisor degree and then
    1 - d; in place, c[k] -= a * c[k-1] for k = 1..n divides by it.
    """
    n = data.n
    c = [comb(n + 1, k) for k in range(n + 1)]
    for a in data.divisor_degrees + (1 - data.foliation_degree,):
        for k in range(1, n + 1):
            c[k] -= a * c[k - 1]
    return c[n]


# ------------------------------------------------------------- closed form

def complete_homogeneous(m: int, args: Sequence) -> Fraction:
    """h_m(args) by the one-variable-at-a-time recurrence."""
    if m < 0:
        raise ValueError("negative degree")
    args = [Fraction(a) for a in args]
    # table[j] = h_j of the arguments seen so far
    table = [Fraction(1)] + [Fraction(0)] * m
    for a in args:
        for j in range(1, m + 1):
            table[j] += a * table[j - 1]
    return table[m]


def _binomial_sigma(data: ChernInput, sign: int) -> int:
    # sum_{i=0}^{n} C(n+1, i) * h_{n-i}(sign*d_1, ..., sign*d_k, d-1)
    args = [sign * d for d in data.divisor_degrees] + [data.foliation_degree - 1]
    total = sum((comb(data.n + 1, i) * complete_homogeneous(data.n - i, args)
                 for i in range(data.n + 1)), Fraction(0))
    if total.denominator != 1:
        raise ValueError(f"closed form is not an integer: {total}")
    return int(total)


def closed_form_sigma(data: ChernInput) -> int:
    """Binomial-weighted complete homogeneous closed form of the integral.

    sum_{i=0}^{n} C(n+1, i) * h_{n-i}(-d_1, ..., -d_k, d-1); the divisor
    degrees enter negated.
    """
    return _binomial_sigma(data, -1)


def closed_form_sigma_positive_args(data: ChernInput) -> int:
    """Same shape with all-positive arguments; disagrees with the integral."""
    return _binomial_sigma(data, 1)


SIGMA_DIVERGENCE_CASE = ChernInput(n=2, divisor_degrees=(1,), foliation_degree=2)


def sigma_convention_note() -> str:
    """One-line reminder of why the closed form negates divisor degrees."""
    integral = lhs_integral(SIGMA_DIVERGENCE_CASE)
    positive = closed_form_sigma_positive_args(SIGMA_DIVERGENCE_CASE)
    # the wording is part of the byte-stable reports
    return (
        "closed form uses arguments (-d_1,...,-d_k, d-1); with all-positive "
        f"arguments the case n=2, k=1, d_1=1, d=2 gives {positive} while the "
        f"Chern series gives {integral}"
    )
