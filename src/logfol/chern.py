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
match the integral: already at n=2, one line of degree 1, d=2 it gives
12 against the integral 4.  `SIGMA_CONVENTION_NOTE` quotes that case in
every --check-sigma report, and the test oracles recompute both numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
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

def complete_homogeneous(m: int, args: Sequence) -> int:
    """h_m(args) by the one-variable-at-a-time recurrence."""
    if m < 0:
        raise ValueError("negative degree")
    # table[j] = h_j of the arguments seen so far
    table = [1] + [0] * m
    for a in args:
        for j in range(1, m + 1):
            table[j] += a * table[j - 1]
    return table[m]


def closed_form_sigma(data: ChernInput) -> int:
    """Binomial-weighted complete homogeneous closed form of the integral.

    sum_{i=0}^{n} C(n+1, i) * h_{n-i}(-d_1, ..., -d_k, d-1); the divisor
    degrees enter negated.
    """
    args = [-d for d in data.divisor_degrees] + [data.foliation_degree - 1]
    return sum(comb(data.n + 1, i) * complete_homogeneous(data.n - i, args)
               for i in range(data.n + 1))


# The --check-sigma reminder of why the closed form negates the divisor
# degrees; the wording is part of the byte-stable reports.
SIGMA_CONVENTION_NOTE = (
    "closed form uses arguments (-d_1,...,-d_k, d-1); with all-positive "
    "arguments the case n=2, k=1, d_1=1, d=2 gives 12 while the "
    "Chern series gives 4"
)
