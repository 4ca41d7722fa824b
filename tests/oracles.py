"""Brute-force cross-checks and test-only helpers.

Everything here is slow and obviously correct.  The quotient and
membership checks use dense linear algebra over Fraction on truncated
monomial bases, and the reference division is textbook multivariate
division on plain dicts whose results go through the validating
MultiPoly constructor; none of them uses Groebner machinery.  The jet
oracle `milnor_oracle` is the second Milnor route next to the
saturation of `logfol.indices`: it computes a different ideal with the
package's own bases.  `recursion_check` checks the Chern integral across
hyperplane sections, and `linear_substitute` and `LEX` serve the tests
that move instances and compare monomial orders.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import neg

from logfol import linalg
from logfol.chern import ChernInput, lhs_integral
from logfol.groebner import INFINITE, buchberger, quotient_dimension
from logfol.polynomials import MonomialOrder, MultiPoly, linear_images


class LexOrder(MonomialOrder):
    """Pure lexicographic order; variable 0 is the most significant."""

    name = "lex"

    def key(self, exps):
        return tuple(exps)

    def rev_key(self, exps):
        return tuple(map(neg, exps))


LEX = LexOrder()


def linear_substitute(f: MultiPoly, matrix) -> MultiPoly:
    """Compose f with the invertible linear change of variables x -> M.x."""
    n = f.nvars
    rows = [[Fraction(x) for x in row] for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix shape does not match the ring")
    if linalg.rank(rows) != n:
        raise ValueError("substitution matrix is singular")
    return f.compose(linear_images(rows))


def milnor_oracle(ideal, point, max_jet: int = 24) -> int:
    """Independent multiplicity: dimension of I + m_p^N once N stabilizes.

    The jet dimensions are nondecreasing and strictly increase until
    they reach the multiplicity, so two equal consecutive values end the
    scan.
    """
    n = ideal.nvars
    shifts = [MultiPoly.variable(n, i) - Fraction(point[i]) for i in range(n)]
    previous = None
    for jet in range(1, max_jet + 1):
        gens = list(ideal.generators)
        for combo in combinations_with_replacement(range(n), jet):
            g = MultiPoly.constant(n, 1)
            for i in combo:
                g = g * shifts[i]
            gens.append(g)
        value = quotient_dimension(buchberger(gens, n))
        if value == INFINITE:
            raise ValueError("jet ideal is not zero-dimensional")
        if value == previous:
            return value
        previous = value
    raise ValueError(f"jet dimensions did not stabilize below N={max_jet}")


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


def monomials_upto(nvars: int, degree: int) -> list:
    """All exponent tuples with total degree <= degree, fixed order."""
    if degree < 0:
        return []
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], degree)
    return out


class _Echelon:
    """Incremental row echelon form over Fraction."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def reduce(self, row):
        row = list(row)
        for pivot_col, pivot_row in zip(self.pivots, self.rows):
            if row[pivot_col] != 0:
                factor = row[pivot_col] / pivot_row[pivot_col]
                row = [a - factor * b for a, b in zip(row, pivot_row)]
        return row

    def add(self, row) -> bool:
        """Insert a row; True when it enlarged the span."""
        row = self.reduce(row)
        for col, value in enumerate(row):
            if value != 0:
                self.rows.append(row)
                self.pivots.append(col)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def gauss_rank(rows) -> int:
    ech = _Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def _multiple_rows(gens, nvars, degree, index):
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        for m in monomials_upto(nvars, degree - g.total_degree()):
            row = [Fraction(0)] * len(index)
            for gm, coeff in g.terms.items():
                product = tuple(a + b for a, b in zip(m, gm))
                row[index[product]] = coeff
            rows.append(row)
    return rows


def visible_image_dim(gens, nvars: int, low: int, high: int) -> int:
    """Dimension of the span of degree <= low monomials inside the
    quotient of degree <= high space by all visible generator multiples.

    For an inhomogeneous ideal the multiples of degree <= high need not
    span every ideal element of low degree (cancellation can come from
    above), so this overestimates; growing `high` with `low` fixed makes
    it exact, and growing `low` then reaches the quotient dimension.
    """
    monos = monomials_upto(nvars, high)
    index = {m: i for i, m in enumerate(monos)}
    ech = _Echelon()
    for row in _multiple_rows(gens, nvars, high, index):
        ech.add(row)
    extra = 0
    for m in monomials_upto(nvars, low):
        row = [Fraction(0)] * len(monos)
        row[index[m]] = Fraction(1)
        if ech.add(row):
            extra += 1
    return extra


def brute_quotient_dimension(gens, nvars: int, max_degree: int = 16,
                             settle: int = 3) -> int:
    """Stabilized quotient dimension of a zero-dimensional ideal."""
    prev = None
    streak = 0
    for high in range(2, max_degree + 1):
        current = visible_image_dim(gens, nvars, high // 2, high)
        if current == prev:
            streak += 1
            if streak >= settle:
                return current
        else:
            prev = current
            streak = 0
    raise AssertionError("truncated quotient dimensions never stabilized")


def brute_contains(gens, f, max_degree: int = 10) -> bool:
    """Whether f is a visible combination of the generators.

    Sound for membership (True means f really is in the ideal); a False
    only says no combination exists within the degree bound.
    """
    nvars = f.nvars
    base = max(f.total_degree(), 0)
    for degree in range(base, max_degree + 1):
        monos = monomials_upto(nvars, degree)
        index = {m: i for i, m in enumerate(monos)}
        ech = _Echelon()
        for row in _multiple_rows(gens, nvars, degree, index):
            ech.add(row)
        frow = [Fraction(0)] * len(monos)
        for fm, coeff in f.terms.items():
            frow[index[fm]] = coeff
        if not any(ech.reduce(frow)):
            return True
    return False


def reference_divide(f, divisors, order):
    """Textbook division: (quotients, remainder), first listed divisor first.

    Takes the largest remaining monomial by a full max at every step.
    """
    nvars = f.nvars
    leads = []
    for g in divisors:
        lm = max(g.terms, key=order.key)
        leads.append((lm, g.terms[lm]))
    quotients = [{} for _ in divisors]
    remainder = {}
    work = dict(f.terms)
    while work:
        exps = max(work, key=order.key)
        coeff = work.pop(exps)
        for i, (lm, lc) in enumerate(leads):
            if all(a <= b for a, b in zip(lm, exps)):
                shift = tuple(b - a for a, b in zip(lm, exps))
                factor = coeff / lc
                quotients[i][shift] = quotients[i].get(shift, Fraction(0)) + factor
                for e2, c2 in divisors[i].terms.items():
                    if e2 == lm:
                        continue
                    e = tuple(a + b for a, b in zip(shift, e2))
                    val = work.get(e, Fraction(0)) - factor * c2
                    if val:
                        work[e] = val
                    else:
                        work.pop(e, None)
                break
        else:
            remainder[exps] = remainder.get(exps, Fraction(0)) + coeff
    return [MultiPoly(nvars, q) for q in quotients], MultiPoly(nvars, remainder)
