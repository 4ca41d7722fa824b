"""Foliations on projective space and hyperplane arrangements.

A degree-d foliation on P^n is stored as one global representative:
n+1 homogeneous components of degree d in z_0..z_n.  All geometry is
read off the standard affine charts; the chart-j vector field has
components (P_i - x_i * P_j) with z_j set to 1, which is invariant under
replacing P_i by P_i + z_i * Q (the radial ambiguity of the
representative).  No attempt is made to canonicalize representatives.

Each hypothesis of the residue formula has one owner: `Foliation`
checks that the singularities are isolated, `Arrangement` that the
hyperplanes cross normally, and `Instance` that each hyperplane is
invariant (the foliation is logarithmic along the arrangement).

`Foliation` proves Sing finite on the cover of P^n by U_0 and the
affine pieces U_j ∩ {z_0 = ... = z_{j-1} = 0} (finiteness theorem:
Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 5
§3), so only chart 0 needs its full basis; the other chart ideals are
built on first use.

Restriction to an intersection of invariant hyperplanes keeps the same
degree-d bookkeeping: the forms are solved for some coordinates, and the
components along the other (free) coordinates, with the solved ones
substituted, are used as-is; tangency makes the dropped components
vanish on the stratum.
Dividing out a common polynomial factor would discard singular points
that the ambient foliation really has on the stratum (a factor can
appear on line strata), so the components are deliberately left intact;
the cover criterion rejects anything with non-isolated zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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
        # Reject the radial-only degenerate representative, then check the
        # cover: chart 0 by its cached basis, piece j < n by a throwaway
        # basis of chart j's field with x_0..x_{j-1} set to 0, in the other
        # n-j coordinates, and piece n, at most one point, not at all.  A
        # chart with the generators of a proven-finite ideal needs no piece.
        # A positive-dimensional component C first fails at
        # min{j : z_j is not identically 0 on C}, the chart a full basis of
        # every chart would name.
        if all(c.is_zero() for j in range(self.n + 1) for c in self.chart_field(j)):
            raise InputError(POSITIVE_DIM_SING,
                             "radial representative: every point would be singular")
        for j in range(self.n):
            gens = [c for c in self.chart_field(j) if not c.is_zero()]
            if j == 0:
                finite = quotient_dimension(self.singular_ideal(0)) != INFINITE
            elif self._shared_ideal(gens) is not None:
                continue
            else:
                piece = [MultiPoly._trusted(self.n - j, {
                    e[j:]: c for e, c in g.terms.items() if not any(e[:j])})
                    for g in gens]
                piece = [p for p in piece if not p.is_zero()]
                # with no equation left the piece is all of affine (n-j)-space
                finite = bool(piece) and (
                    quotient_dimension(buchberger(piece, self.n - j)) != INFINITE)
            if not finite:
                raise InputError(
                    POSITIVE_DIM_SING,
                    f"singular scheme has positive dimension in chart {j}")

    def chart_field(self, j: int) -> tuple:
        """Affine field components in chart j: (P_i - x_i P_j) at z_j = 1."""
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
        self._fields[j] = tuple(comps)
        return self._fields[j]

    def hyperplane_chart(self, form: MultiPoly) -> tuple:
        """(singular ideal, images of z_0..z_n) in the affine chart {form = 1}.

        With the form scaled so that its first nonzero coefficient, at z_p,
        is 1, the chart coordinates are the other z_k in order, and z_p is
        1 - sum c_k z_k over them.  Where form(z) = 1, P is proportional to
        z exactly when P_i = z_i form(P) for every i != p (the p-th equation
        follows), so the field is (P_i - z_i form(P)), which the radial term
        leaves alone.  For form = z_j it is chart j's field, and a chart
        with the generators of a cached ideal shares its basis.
        """
        coeffs = _form_vector(form)
        p = next(k for k, c in enumerate(coeffs) if c)
        coeffs = [c / coeffs[p] for c in coeffs]
        x = [MultiPoly.variable(self.n, i) for i in range(self.n)]
        images = x[:p] + [MultiPoly.constant(self.n, 1)] + x[p:]
        for k, c in enumerate(coeffs):
            if k != p and c:
                images[p] = images[p] - images[k] * c
        local = [q.compose(images) for q in self.components]
        along = sum((local[k] * c for k, c in enumerate(coeffs) if c),
                    MultiPoly.zero(self.n))
        gens = [local[i] - images[i] * along for i in range(self.n + 1) if i != p]
        gens = [g for g in gens if not g.is_zero()]
        return self._shared_ideal(gens) or buchberger(gens, self.n), images

    def _shared_ideal(self, gens: list):
        """A cached ideal with exactly these generators, or None."""
        return next((ideal for ideal in self._ideals.values()
                     if set(ideal.generators) == set(gens)), None)

    def singular_ideal(self, j: int) -> Ideal:
        """Ideal of the chart-j vector field components, basis cached.

        Built on first use.  Charts whose fields have the same nonzero
        components share one ideal, so its basis is computed once.
        """
        if j not in self._ideals:
            gens = [c for c in self.chart_field(j) if not c.is_zero()]
            self._ideals[j] = self._shared_ideal(gens) or buchberger(gens, self.n)
        return self._ideals[j]

    def __repr__(self):
        names = ambient_names(self.n)
        body = ", ".join(format_poly(p, names) for p in self.components)
        return f"Foliation(degree {self.degree} on P^{self.n}: {body})"


# --------------------------------------------------------------- arrangement

class Arrangement:
    """Finitely many hyperplanes in P^n crossing normally.

    Dependent subsets of size <= n+1 always share a projective point, so
    linear independence of every such subset is exactly the
    normal-crossing condition for hyperplanes.  The pairs are checked
    first, then the larger subsets.
    """

    __slots__ = ("n", "forms")

    def __init__(self, n: int, forms: Sequence[MultiPoly]):
        forms = tuple(forms)
        for idx, f in enumerate(forms):
            if f.nvars != n + 1 or f.is_zero() or f.total_degree() != 1 \
                    or not f.is_homogeneous():
                raise InputError(NC_VIOLATION,
                                 f"hyperplane {idx} is not a nonzero linear form")
        vectors = [_form_vector(f) for f in forms]
        for size in range(2, min(len(forms), n + 1) + 1):
            for subset in combinations(range(len(forms)), size):
                if linalg.rank([vectors[i] for i in subset]) < size:
                    listed = ", ".join(str(i) for i in subset)
                    message = (f"hyperplanes {subset[0]} and {subset[1]} are proportional"
                               if size == 2 else
                               f"hyperplanes {{{listed}}} are linearly dependent "
                               "but meet in projective space")
                    raise InputError(NC_VIOLATION, message)
        self.n = n
        self.forms = forms

    def __repr__(self):
        names = ambient_names(self.n)
        return "Arrangement(" + ", ".join(format_poly(f, names) for f in self.forms) + ")"


def _form_vector(form: MultiPoly) -> list:
    n = form.nvars
    return [form.coefficient(tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)]


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


# ------------------------------------------------------------------- strata

@dataclass(frozen=True)
class Stratum:
    """An intersection of hyperplanes with its parametrization.

    The forms are solved for the coordinates missing from `free`; the
    coordinates `free` (ascending) parametrize the stratum as a P^m (or,
    for an affine germ's forms through the origin, as affine
    (m+1)-space).  `images[i]` is the linear form in the free
    coordinates that z_i equals on the stratum.
    """

    indices: tuple
    free: tuple
    images: tuple

    @property
    def dim(self) -> int:
        return len(self.free) - 1

    def ambient_to_stratum(self, point: Sequence) -> tuple:
        w = tuple(Fraction(point[i]) for i in self.free)
        if self.stratum_to_ambient(w) != tuple(Fraction(x) for x in point):
            raise ValueError("point does not lie on the stratum")
        return w

    def stratum_to_ambient(self, point: Sequence) -> tuple:
        return tuple(image.evaluate(point) for image in self.images)


def build_stratum(forms: Sequence[MultiPoly], indices: Sequence[int],
                  nvars: int) -> Stratum:
    """The intersection of the linear forms forms[i], i in indices.

    The forms live in `nvars` variables.  Their vectors are row-reduced
    with the columns taken right to left, so the solved coordinates are
    the last ones possible and `free` is the lexicographically first
    complement.  No index gives the whole space, with the identity
    parametrization.
    """
    indices = tuple(sorted(indices))
    if len(set(indices)) != len(indices):
        raise ValueError("repeated hyperplane index")
    reduced, pivots = linalg.rref([_form_vector(forms[i])[::-1] for i in indices])
    if len(pivots) != len(indices):
        raise InputError(NC_VIOLATION,
                         f"hyperplanes {indices} do not meet transversally")
    # the row of solved coordinate s reads z_s + sum over free f of row[f] * z_f = 0
    solved = {nvars - 1 - c: row[::-1] for c, row in zip(pivots, reduced)}
    free = tuple(i for i in range(nvars) if i not in solved)
    rows = [[-solved[i][f] if i in solved else int(i == f) for f in free]
            for i in range(nvars)]
    return Stratum(indices=indices, free=free, images=tuple(linear_images(rows)))


def restrict_field(components: Sequence[MultiPoly], stratum: Stratum) -> tuple:
    """The field components restricted to a stratum, in its coordinates.

    The components along the free coordinates, with every coordinate
    replaced by its image.  The field must be tangent to the stratum, so
    that the dropped components vanish there; `Instance` and
    `indices.germ_log_index` check that where the forms come in.  The
    whole space (no index) returns the components unchanged.
    """
    components = tuple(components)
    if not stratum.indices:
        return components
    return tuple(components[j].compose(stratum.images) for j in stratum.free)


# ----------------------------------------------------------------- instance

class Instance:
    """A foliation with a normal-crossing arrangement of invariant hyperplanes.

    The constructor runs the one check neither part makes on its own,
    once: every hyperplane is invariant for the foliation, and the first
    that is not raises NOT_LOGARITHMIC.  Code handed an `Instance` never
    re-validates it.  The chart bases stay cached on the foliation, and
    each stratum restriction is built at most once, as one `Foliation`
    per distinct restricted field.
    """

    __slots__ = ("fol", "arr", "_restrictions", "_foliations")

    def __init__(self, fol: Foliation, arr: Arrangement):
        if arr.n != fol.n:
            raise ValueError("foliation and arrangement live in different spaces")
        for i, form in enumerate(arr.forms):
            if not is_invariant(fol.components, form):
                text = format_poly(form, ambient_names(arr.n))
                raise InputError(NOT_LOGARITHMIC,
                                 f"hyperplane {i} ({text}) is not invariant")
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
