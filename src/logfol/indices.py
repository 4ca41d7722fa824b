"""Local multiplicities and logarithmic index bookkeeping.

The Milnor number at a rational point is a saturation defect: the
dimension of the quotient minus the dimension after saturating away the
point.  (The test suite checks it against a second, independent route,
the stabilized jet dimension of `tests/oracles.py`.)  The logarithmic
index at a point is the alternating sum of Milnor numbers of the
restrictions to all strata through the point, with the convention that
a zero-dimensional stratum contributes 1 when the point is singular.
Points off the divisor take their plain Milnor number; the homological
index of a point on the divisor is its Milnor number minus its
logarithmic index (`point_record`).

Global totals never enumerate points: each chart contributes the length
of its singular scheme on the vanishing of the earlier chart
coordinates, read off the multiplication matrices of the chart's
quotient ring (`supported_length`), so irrational singularities are
counted with full multiplicity.  `chern_input` is the one place that
decides the divisor degrees the Chern side sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .chern import ChernInput, lhs_integral
from .errors import NC_VIOLATION, NOT_LOGARITHMIC, InputError
from .foliations import (
    Arrangement,
    Foliation,
    Instance,
    _form_vector,
    build_stratum,
    is_invariant,
    restrict_field,
)
from .groebner import (
    INFINITE,
    Ideal,
    buchberger,
    quotient_dimension,
    saturate,
    supported_length,
)
from .polynomials import MultiPoly


# ------------------------------------------------------------------- points

class RationalPoint:
    """A rational point of P^n in canonical scaling (first nonzero = 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        coords = [Fraction(c) for c in coords]
        pivot = next((c for c in coords if c != 0), None)
        if pivot is None:
            raise ValueError("all coordinates are zero")
        self.coords = tuple(c / pivot for c in coords)

    @classmethod
    def parse(cls, items: Sequence) -> "RationalPoint":
        return cls([Fraction(str(x)) for x in items])

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    @property
    def chart_index(self) -> int:
        return next(i for i, c in enumerate(self.coords) if c != 0)

    def affine_coords(self, j: int) -> tuple:
        if self.coords[j] == 0:
            raise ValueError(f"point is not in chart {j}")
        return tuple(c / self.coords[j] for i, c in enumerate(self.coords) if i != j)

    def display(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def __eq__(self, other):
        return isinstance(other, RationalPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"RationalPoint({self.display()})"


# -------------------------------------------------------- local multiplicity

def maximal_ideal_at(nvars: int, point: Sequence) -> Ideal:
    gens = [MultiPoly.variable(nvars, i) - Fraction(point[i]) for i in range(nvars)]
    return Ideal(nvars, gens)


def milnor_at_point(ideal: Ideal, point: Sequence) -> int:
    """Multiplicity of a zero-dimensional ideal at one rational point.

    quotient_dimension(I) - quotient_dimension(I : m_p^infinity); zero
    exactly when the point is not in the zero set.
    """
    return milnor_at_maximal_ideal(ideal,
                                   maximal_ideal_at(ideal.nvars, point))


def milnor_at_maximal_ideal(ideal: Ideal, locus: Ideal) -> int:
    """Scheme length of the part of V(ideal) supported on V(locus).

    Accepts any ideal as the locus, so points with irrational
    coordinates work through their defining equations.  The raw length
    is returned; it is not divided by any residue-field degree.
    """
    total = quotient_dimension(ideal)
    if total == INFINITE:
        raise ValueError("ideal is not zero-dimensional")
    away = saturate(ideal, locus)
    rest = quotient_dimension(away)
    if rest == INFINITE:
        raise ValueError("saturation left a positive-dimensional ideal")
    return total - rest


# ------------------------------------------------------------ point queries

def is_singular_point(fol: Foliation, point: RationalPoint) -> bool:
    j = point.chart_index
    aff = point.affine_coords(j)
    return all(c.evaluate(aff) == 0 for c in fol.chart_field(j).components)


def point_milnor(fol: Foliation, point: RationalPoint) -> int:
    """Milnor number of the foliation at a rational point (0 off Sing)."""
    j = point.chart_index
    return milnor_at_point(fol.singular_ideal(j), point.affine_coords(j))


def components_through(arr: Arrangement, point: RationalPoint) -> tuple:
    return tuple(i for i, f in enumerate(arr.forms)
                 if f.evaluate(point.coords) == 0)


def log_index_at_point(inst: Instance, point: RationalPoint) -> int:
    """Alternating sum of restricted Milnor numbers over strata through p.

    Off the divisor this is just the Milnor number; at a nonsingular
    point it is 0.
    """
    if not is_singular_point(inst.fol, point):
        return 0

    def milnor(subset):
        restricted, stratum = inst.restriction(subset)
        return point_milnor(restricted,
                            RationalPoint(stratum.ambient_to_stratum(point.coords)))

    return _alternating_sum(components_through(inst.arr, point), inst.fol.n, milnor)


def _alternating_sum(through: Sequence[int], n: int, milnor) -> int:
    """Sum of (-1)^|S| milnor(S) over the subsets S of `through`.

    Called at a singular point in dimension n: the n hyperplanes of a
    point stratum contribute 1 there instead of a Milnor number.
    """
    total = 0
    for size in range(len(through) + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(through, size):
            total += sign * (1 if size == n else milnor(subset))
    return total


# ------------------------------------------------------------- global sums

def _overlap_vars(n: int, j: int) -> list:
    # chart-j coordinates covering the ambient variables z_0..z_{j-1}
    return [MultiPoly.variable(n, i) for i in range(j)]


def total_milnor(fol: Foliation) -> int:
    """Sum of all Milnor numbers of the foliation, multiplicity included.

    Chart j contributes the length of its singular scheme supported on
    the vanishing of the earlier coordinates x_0..x_{j-1}, the points no
    earlier chart sees; `Foliation` already rejects charts whose
    singular scheme has positive dimension.  For a valid foliation of
    degree d on P^n this totals sum_{i<=n} d^i.
    """
    n = fol.n
    return sum(supported_length(fol.singular_ideal(j), _overlap_vars(n, j))
               for j in range(n + 1))


def complement_milnor_sum(inst: Instance) -> int:
    """Total Milnor number of the singularities off the arrangement.

    Chart j contributes its length on the chart's own locus minus the
    part of that which also lies on some hyperplane.
    """
    n = inst.fol.n
    total = 0
    for j in range(n + 1):
        ideal = inst.fol.singular_ideal(j)
        product = MultiPoly.constant(n, 1)
        for f in inst.arr.forms:
            product = product * f.dehomogenize(j)
        overlap = _overlap_vars(n, j)
        total += (supported_length(ideal, overlap)
                  - supported_length(ideal, overlap + [product]))
    return total


@dataclass(frozen=True)
class StratumTotal:
    """One stratum's share of the stratified right-hand side."""

    indices: tuple
    dim: int
    sign: int
    total: int


def _point_stratum_point(arr: Arrangement, indices) -> RationalPoint:
    vectors = [_form_vector(arr.forms[i]) for i in indices]
    kernel = linalg.nullspace(vectors)
    if len(kernel) != 1:
        raise InputError(NC_VIOLATION,
                         f"hyperplanes {indices} do not meet transversally")
    return RationalPoint(kernel[0])


def stratum_breakdown(inst: Instance) -> list:
    """Signed total Milnor numbers of all stratum restrictions.

    Zero-dimensional strata report 1 when their point is singular for
    the ambient foliation (it always is, under tangency) and 0
    otherwise.
    """
    fol, arr = inst.fol, inst.arr
    n = fol.n
    k = len(arr.forms)
    out = []
    for size in range(0, min(k, n) + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(range(k), size):
            if size == 0:
                value = total_milnor(fol)
            elif size == n:
                point = _point_stratum_point(arr, subset)
                value = 1 if is_singular_point(fol, point) else 0
            else:
                value = total_milnor(inst.restriction(subset)[0])
            out.append(StratumTotal(indices=tuple(subset), dim=n - size,
                                    sign=sign, total=value))
    return out


# ------------------------------------------------------------- affine germs

def germ_milnor(components: Sequence[MultiPoly], point: Sequence) -> int:
    """Milnor number of an affine vector-field germ at a rational point."""
    ideal = buchberger(list(components))
    return milnor_at_point(ideal, [Fraction(c) for c in point])


def germ_log_index(components: Sequence[MultiPoly], forms: Sequence[MultiPoly],
                   point: Sequence) -> int:
    """Logarithmic index of an affine germ along a union of hyperplanes.

    `forms` are affine-linear; only those vanishing at the point enter.
    Each of them must be invariant: the derivative of the form along the
    field has to be divisible by the form.  The germ is moved to the
    origin, where those forms are linear, and restricted to their strata
    like a projective foliation.
    """
    components = list(components)
    n = components[0].nvars
    point = [Fraction(c) for c in point]
    if any(f.total_degree() != 1 for f in forms):
        raise ValueError("divisor components must be affine-linear")
    through = [f for f in forms if f.evaluate(point) == 0]
    if not all(is_invariant(components, f) for f in through):
        raise InputError(NOT_LOGARITHMIC,
                         "germ is not tangent to one of the divisor components")
    if any(v.evaluate(point) for v in components):
        return 0
    shift = [MultiPoly.variable(n, i) + point[i] for i in range(n)]
    field = [v.compose(shift) for v in components]
    linear = [f.compose(shift) for f in through]

    def milnor(subset):
        restricted = restrict_field(field, build_stratum(linear, subset, n))
        return germ_milnor(restricted, [0] * len(restricted))

    return _alternating_sum(range(len(linear)), n, milnor)


def germ_hom_index(components: Sequence[MultiPoly], forms: Sequence[MultiPoly],
                   point: Sequence) -> int:
    point = [Fraction(c) for c in point]
    if all(f.evaluate(point) != 0 for f in forms):
        raise ValueError("point does not lie on the divisor")
    return germ_milnor(components, point) - germ_log_index(components, forms, point)


# -------------------------------------------------------------- full report

@dataclass(frozen=True)
class PointRecord:
    point: RationalPoint
    on_divisor: tuple
    singular: bool
    milnor: int
    log_index: int
    hom_index: int | None


@dataclass(frozen=True)
class IndexReport:
    lhs_chern: int
    rhs_total: int
    verified: bool
    strata: tuple
    points: tuple


def point_record(inst: Instance, point: RationalPoint) -> PointRecord:
    on = components_through(inst.arr, point)
    singular = is_singular_point(inst.fol, point)
    mu = point_milnor(inst.fol, point) if singular else 0
    log = log_index_at_point(inst, point)
    hom = (mu - log) if on else None
    return PointRecord(point=point, on_divisor=on, singular=singular,
                       milnor=mu, log_index=log, hom_index=hom)


def chern_input(inst: Instance) -> ChernInput:
    """The Chern-side data of an instance: every hyperplane has degree 1."""
    return ChernInput(n=inst.fol.n, divisor_degrees=(1,) * len(inst.arr.forms),
                      foliation_degree=inst.fol.degree)


def verify_instance(inst: Instance,
                    points: Sequence[RationalPoint] = ()) -> IndexReport:
    """Compare the Chern-number side with the stratified index side."""
    strata = stratum_breakdown(inst)
    rhs = sum(s.sign * s.total for s in strata)
    lhs = lhs_integral(chern_input(inst))
    records = tuple(point_record(inst, p) for p in points)
    return IndexReport(lhs_chern=lhs, rhs_total=rhs, verified=(lhs == rhs),
                       strata=tuple(strata), points=records)
