"""Truncated Chern-class arithmetic in Q[h]/(h^(n+1)).

The integral side of the verification: the top coefficient of

    (1+h)^(n+1) / (prod_i (1 + d_i h) * (1 + (1-d) h))

over P^n, where the d_i are the divisor component degrees and d is the
foliation degree.  A closed form via complete homogeneous symmetric
polynomials is computed by an independent recurrence and must agree
coefficient for coefficient; note that its arguments are the *negated*
divisor degrees together with d-1.  The all-positive variant one might
expect does not match the series (already at n=2, one line of degree 1,
d=2 it gives 12 against the series value 4), so it is exposed only for
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence


class TruncatedSeries:
    """Polynomial in one variable h truncated above degree n."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence):
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = [Fraction(c) for c in coeffs[: order + 1]]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, order: int, c) -> "TruncatedSeries":
        return cls(order, [Fraction(c)])

    @classmethod
    def linear(cls, order: int, a) -> "TruncatedSeries":
        """The series 1 + a*h."""
        return cls(order, [Fraction(1), Fraction(a)])

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k]

    def integer_coefficient(self, k: int) -> int:
        c = self.coeffs[k]
        if c.denominator != 1:
            raise ValueError(f"expected an integer coefficient, got {c}")
        return int(c)

    def _binary(self, other, op):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.order, other)
        if not isinstance(other, TruncatedSeries) or other.order != self.order:
            raise ValueError("series orders differ")
        return op(other)

    def __add__(self, other):
        return self._binary(other, lambda o: TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)]))

    def __sub__(self, other):
        return self._binary(other, lambda o: TruncatedSeries(
            self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.order, [c * Fraction(other) for c in self.coeffs])
        if not isinstance(other, TruncatedSeries) or other.order != self.order:
            raise ValueError("series orders differ")
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(self.order, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power; invert first")
        result = TruncatedSeries.constant(self.order, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and other.order == self.order
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        body = " + ".join(f"{c}*h^{i}" for i, c in enumerate(self.coeffs) if c)
        return f"TruncatedSeries({body or '0'})"


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; the constant term must be nonzero."""
    c0 = s.coeffs[0]
    if c0 == 0:
        raise ValueError("series with zero constant term has no inverse")
    inv = [Fraction(1) / c0]
    for k in range(1, s.order + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += s.coeffs[i] * inv[k - i]
        inv.append(-acc / c0)
    return TruncatedSeries(s.order, inv)


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


def chern_log_tangent(data: ChernInput) -> TruncatedSeries:
    """Total Chern class of the log tangent bundle: (1+h)^(n+1)/prod(1+d_i h)."""
    n = data.n
    numerator = TruncatedSeries.linear(n, 1) ** (n + 1)
    out = numerator
    for d in data.divisor_degrees:
        out = out * series_inverse(TruncatedSeries.linear(n, d))
    return out


def lhs_integral(data: ChernInput) -> int:
    """Top Chern number of the log tangent bundle twisted against O(1-d)."""
    series = chern_log_tangent(data)
    twist = series_inverse(TruncatedSeries.linear(data.n, 1 - data.foliation_degree))
    return (series * twist).integer_coefficient(data.n)


# ------------------------------------------------------------- closed form

def complete_homogeneous(m: int, args: Sequence) -> Fraction:
    """h_m(args) by the one-variable-at-a-time recurrence (no series)."""
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
    """Same shape with all-positive arguments; disagrees with the series."""
    return _binomial_sigma(data, 1)


SIGMA_DIVERGENCE_CASE = ChernInput(n=2, divisor_degrees=(1,), foliation_degree=2)


def sigma_convention_note() -> str:
    """One-line reminder of why the closed form negates divisor degrees."""
    series = lhs_integral(SIGMA_DIVERGENCE_CASE)
    positive = closed_form_sigma_positive_args(SIGMA_DIVERGENCE_CASE)
    return (
        "closed form uses arguments (-d_1,...,-d_k, d-1); with all-positive "
        f"arguments the case n=2, k=1, d_1=1, d=2 gives {positive} while the "
        f"Chern series gives {series}"
    )


# --------------------------------------------------------------- recursion

def recursion_check(data: ChernInput, drop: int) -> bool:
    """Drop one degree-1 divisor component and compare across dimensions.

    The integral over P^n equals the integral without the dropped
    component minus the corresponding integral over the component
    itself, a P^(n-1) carrying the remaining degrees.
    """
    degrees = data.divisor_degrees
    if not 0 <= drop < len(degrees):
        raise ValueError("drop index out of range")
    if degrees[drop] != 1:
        raise ValueError("can only drop a degree-1 component")
    if data.n < 2:
        raise ValueError("need n >= 2 to restrict to a hyperplane")
    rest = degrees[:drop] + degrees[drop + 1:]
    whole = lhs_integral(data)
    without = lhs_integral(ChernInput(data.n, rest, data.foliation_degree))
    on_component = lhs_integral(ChernInput(data.n - 1, rest, data.foliation_degree))
    return whole == without - on_component
