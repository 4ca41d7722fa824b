"""Brute-force cross-checks, kept independent of the package internals.

Everything here is slow and obviously correct: dense linear algebra over
Fraction on truncated monomial bases, and textbook multivariate division
on plain dicts whose results go through the validating MultiPoly
constructor.  No Groebner machinery.
"""

from fractions import Fraction

from logfol.polynomials import MultiPoly


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
