"""Foliations on projective space and hyperplane arrangements.

A degree-d foliation on P^n is stored as one global representative:
n+1 homogeneous components of degree d in z_0..z_n.  All geometry is
read off the standard affine charts; the chart-j vector field has
components (P_i - x_i * P_j) with z_j set to 1, which is invariant under
replacing P_i by P_i + z_i * Q (the radial ambiguity of the
representative).  No attempt is made to canonicalize representatives.

Restriction to an intersection of invariant hyperplanes keeps the same
degree-d bookkeeping: after the linear change of coordinates the dropped
components vanish on the stratum and the surviving tuple is used as-is.
Dividing out a common polynomial factor would discard singular points
that the ambient foliation really has on the stratum (a factor can
appear on line strata), so the components are deliberately left intact;
the chart criterion below rejects anything with non-isolated zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import (
    DEGREE_MISMATCH,
    NC_VIOLATION,
    NOT_LOGARITHMIC,
    POSITIVE_DIM_SING,
    InputError,
)
from .groebner import INFINITE, Ideal, buchberger, divide, quotient_dimension
from .polynomials import GREVLEX, MultiPoly, format_poly, linear_images


def ambient_names(n: int) -> list:
    return [f"z{i}" for i in range(n + 1)]


# ---------------------------------------------------------------- foliation

@dataclass(frozen=True)
class AffineField:
    """The vector field of a foliation in one standard affine chart."""

    chart: int
    components: tuple

    @property
    def nvars(self) -> int:
        return len(self.components)


class Foliation:
    """A validated foliation on P^n with isolated singularities."""

    __slots__ = ("n", "degree", "components", "_fields", "_ideals")

    def __init__(self, components: Sequence[MultiPoly]):
        components = tuple(components)
        if len(components) < 2:
            raise InputError(DEGREE_MISMATCH, "need at least two components")
        nvars = components[0].nvars
        if nvars != len(components):
            raise InputError(DEGREE_MISMATCH,
                             "components must live in n+1 variables for P^n")
        if any(p.nvars != nvars for p in components):
            raise InputError(DEGREE_MISMATCH, "components live in different rings")
        degrees = {p.total_degree() for p in components if not p.is_zero()}
        if not degrees:
            raise InputError(DEGREE_MISMATCH, "all components are zero")
        if len(degrees) != 1 or not all(p.is_homogeneous() for p in components):
            raise InputError(DEGREE_MISMATCH,
                             "components must be homogeneous of one common degree")
        degree = degrees.pop()
        if degree < 1:
            raise InputError(DEGREE_MISMATCH, "constant components define no foliation")
        self.n = nvars - 1
        self.degree = degree
        self.components = components
        self._fields = {}
        self._ideals = {}
        self._validate()

    def _validate(self):
        # Reject the radial-only degenerate representative, then demand a
        # zero-dimensional singular scheme in every chart.
        if all(c.is_zero() for f in (self.chart_field(j) for j in range(self.n + 1))
               for c in f.components):
            raise InputError(POSITIVE_DIM_SING,
                             "radial representative: every point would be singular")
        for j in range(self.n + 1):
            ideal = self.singular_ideal(j)
            if quotient_dimension(ideal) == INFINITE:
                raise InputError(
                    POSITIVE_DIM_SING,
                    f"singular scheme has positive dimension in chart {j}")

    def chart_field(self, j: int) -> AffineField:
        """Affine field in chart j: components (P_i - x_i P_j) at z_j = 1."""
        if j in self._fields:
            return self._fields[j]
        if not 0 <= j <= self.n:
            raise ValueError("chart index out of range")
        pj = self.components[j].dehomogenize(j)
        comps = []
        for i in range(self.n + 1):
            if i == j:
                continue
            local = i if i < j else i - 1
            xi = MultiPoly.variable(self.n, local)
            comps.append(self.components[i].dehomogenize(j) - xi * pj)
        field = AffineField(chart=j, components=tuple(comps))
        self._fields[j] = field
        return field

    def singular_ideal(self, j: int) -> Ideal:
        """Ideal of the chart-j vector field components, basis cached.

        Charts whose fields have the same nonzero components share one
        ideal, so its basis is computed once.
        """
        if j not in self._ideals:
            gens = [c for c in self.chart_field(j).components if not c.is_zero()]
            same = [ideal for ideal in self._ideals.values()
                    if set(ideal.generators) == set(gens)]
            self._ideals[j] = same[0] if same else buchberger(gens, self.n)
        return self._ideals[j]

    def __eq__(self, other):
        if not isinstance(other, Foliation):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        names = ambient_names(self.n)
        body = ", ".join(format_poly(p, names) for p in self.components)
        return f"Foliation(degree {self.degree} on P^{self.n}: {body})"


# --------------------------------------------------------------- arrangement

class Arrangement:
    """Finitely many pairwise non-proportional hyperplanes in P^n."""

    __slots__ = ("n", "forms")

    def __init__(self, n: int, forms: Sequence[MultiPoly]):
        forms = tuple(forms)
        for idx, f in enumerate(forms):
            if f.nvars != n + 1 or f.is_zero() or f.total_degree() != 1 \
                    or not f.is_homogeneous():
                raise InputError(NC_VIOLATION,
                                 f"hyperplane {idx} is not a nonzero linear form")
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                if linalg.rank([_form_vector(forms[i]), _form_vector(forms[j])]) < 2:
                    raise InputError(NC_VIOLATION,
                                     f"hyperplanes {i} and {j} are proportional")
        self.n = n
        self.forms = forms

    def __len__(self):
        return len(self.forms)

    def __repr__(self):
        names = ambient_names(self.n)
        return "Arrangement(" + ", ".join(format_poly(f, names) for f in self.forms) + ")"


def _form_vector(form: MultiPoly) -> list:
    n = form.nvars
    return [form.coefficient(tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)]


def validate_arrangement(arr: Arrangement):
    """Raise NC_VIOLATION unless the arrangement is normal crossing.

    Dependent subsets of size <= n+1 always share a projective point, so
    checking linear independence of every such subset is exactly the
    normal-crossing condition for hyperplanes.  `Arrangement` has
    already checked the pairs, so the subsets start at size 3.
    """
    from itertools import combinations

    vectors = [_form_vector(f) for f in arr.forms]
    k = len(vectors)
    for size in range(3, min(k, arr.n + 1) + 1):
        for subset in combinations(range(k), size):
            if linalg.rank([vectors[i] for i in subset]) < size:
                listed = ", ".join(str(i) for i in subset)
                raise InputError(NC_VIOLATION,
                                 f"hyperplanes {{{listed}}} are linearly dependent "
                                 "but meet in projective space")


def is_invariant(components: Sequence[MultiPoly], form: MultiPoly) -> bool:
    """True when the hyperplane {form = 0} is invariant for the field.

    The derivative of the (affine-)linear form along the field is
    sum_i P_i * a_i for its linear coefficients a_i; invariance is
    divisibility by the form.
    """
    along = MultiPoly.zero(form.nvars)
    for a, p in zip(_form_vector(form), components):
        if a:
            along = along + p * a
    return along.is_zero() or divide(along, [form], GREVLEX)[1].is_zero()


def is_logarithmic(fol: Foliation, form: MultiPoly) -> bool:
    """True when the hyperplane {form = 0} is invariant for the foliation."""
    if form.nvars != fol.n + 1 or form.total_degree() != 1 or not form.is_homogeneous():
        raise ValueError("expected a nonzero linear form in the ambient ring")
    return is_invariant(fol.components, form)


def require_logarithmic(fol: Foliation, arr: Arrangement):
    """Raise NOT_LOGARITHMIC naming the first non-invariant hyperplane."""
    names = ambient_names(arr.n)
    for i, form in enumerate(arr.forms):
        if not is_logarithmic(fol, form):
            text = format_poly(form, names)
            raise InputError(NOT_LOGARITHMIC,
                             f"hyperplane {i} ({text}) is not invariant")


# ------------------------------------------------------------------- strata

@dataclass(frozen=True)
class Stratum:
    """An intersection of hyperplanes with its parametrization.

    `change` is an invertible matrix whose last rows are the chosen
    forms; in the new coordinates w = change . z the stratum is the
    vanishing of the trailing coordinates, and the leading m+1 of them
    parametrize it as a P^m (or, for an affine germ's forms through the
    origin, as affine (m+1)-space).
    """

    indices: tuple
    change: tuple
    inverse: tuple

    @property
    def ambient_dim(self) -> int:
        return len(self.change) - 1

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.indices)

    def ambient_to_stratum(self, point: Sequence) -> tuple:
        w = linalg.mat_vec(self.change, [Fraction(x) for x in point])
        if any(w[self.dim + 1:]):
            raise ValueError("point does not lie on the stratum")
        return tuple(w[: self.dim + 1])

    def stratum_to_ambient(self, point: Sequence) -> tuple:
        full = list(point) + [Fraction(0)] * len(self.indices)
        return tuple(linalg.mat_vec(self.inverse, full))


def build_stratum(forms: Sequence[MultiPoly], indices: Sequence[int],
                  nvars: int) -> Stratum:
    """The intersection of the linear forms forms[i], i in indices.

    The forms live in `nvars` variables; no index gives the whole space,
    with the identity change of coordinates.
    """
    indices = tuple(sorted(indices))
    if len(set(indices)) != len(indices):
        raise ValueError("repeated hyperplane index")
    vectors = [_form_vector(forms[i]) for i in indices]
    if linalg.rank(vectors) != len(vectors):
        raise InputError(NC_VIOLATION,
                         f"hyperplanes {indices} do not meet transversally")
    if vectors:
        change = linalg.complete_to_square(vectors)
    else:
        change = [[Fraction(1 if i == j else 0) for j in range(nvars)]
                  for i in range(nvars)]
    inverse = linalg.invert(change)
    return Stratum(indices=indices,
                   change=tuple(tuple(row) for row in change),
                   inverse=tuple(tuple(row) for row in inverse))


def restrict_field(components: Sequence[MultiPoly], stratum: Stratum) -> tuple:
    """The field components restricted to a stratum, in its coordinates.

    Substitutes z = inverse . w, combines the results by the rows of
    `change` and keeps the leading dim+1 of them with the trailing
    coordinates set to 0.  Tangency makes the dropped components vanish
    on the stratum; NOT_LOGARITHMIC otherwise.  The whole space (no
    index) returns the components unchanged.
    """
    components = tuple(components)
    if not stratum.indices:
        return components
    keep = stratum.dim + 1
    images = linear_images(stratum.inverse)
    transformed = [p.compose(images) for p in components]
    combined = []
    for row in stratum.change:
        q = MultiPoly.zero(len(row))
        for coeff, p in zip(row, transformed):
            if coeff:
                q = q + p * coeff
        combined.append(q.set_trailing_zero(keep))
    if any(not q.is_zero() for q in combined[keep:]):
        raise InputError(NOT_LOGARITHMIC, f"stratum {stratum.indices} is not invariant")
    return tuple(combined[:keep])


# ----------------------------------------------------------------- instance

class Instance:
    """A foliation with a normal-crossing arrangement of invariant hyperplanes.

    The constructor runs the checks a `Foliation` leaves open, once: the
    arrangement is normal crossing and every hyperplane is invariant.
    Code handed an `Instance` never re-validates it.  The chart bases
    stay cached on the foliation, and each stratum restriction is built
    at most once, as one `Foliation` per distinct restricted field.
    """

    __slots__ = ("fol", "arr", "_restrictions", "_foliations")

    def __init__(self, fol: Foliation, arr: Arrangement):
        if arr.n != fol.n:
            raise ValueError("foliation and arrangement live in different spaces")
        validate_arrangement(arr)
        require_logarithmic(fol, arr)
        self.fol = fol
        self.arr = arr
        self._restrictions = {}
        self._foliations = {fol.components: fol}

    def restriction(self, indices: Sequence[int]):
        """(restricted foliation, stratum) for the given hyperplanes, memoized.

        Raises POSITIVE_DIM_SING when the restriction vanishes.
        """
        indices = tuple(sorted(indices))
        if indices not in self._restrictions:
            stratum = build_stratum(self.arr.forms, indices, self.fol.n + 1)
            if stratum.dim < 1:
                raise ValueError("stratum is a point; use the point conventions instead")
            restricted = restrict_field(self.fol.components, stratum)
            if all(r.is_zero() for r in restricted):
                raise InputError(POSITIVE_DIM_SING,
                                 f"restriction to stratum {indices} vanishes")
            if restricted not in self._foliations:
                self._foliations[restricted] = Foliation(restricted)
            self._restrictions[indices] = self._foliations[restricted], stratum
        return self._restrictions[indices]
