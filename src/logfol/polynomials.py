"""Sparse multivariate polynomials over exact rationals.

A monomial is an exponent tuple of fixed length (the ring's variable
count).  A polynomial maps monomials to nonzero Fraction coefficients.
All arithmetic is exact; nothing here ever touches floats.  Polynomials
are immutable by convention and hashable, so they can be shared freely
between ideals, foliations and reports.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, le
from typing import Iterable, Mapping, Sequence

Exponents = tuple  # tuple[int, ...]


# ------------------------------------------------------------------ monomials

def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """Exponents of x^a / x^b.  Caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Exponents) -> int:
    return sum(a)


# ------------------------------------------------------------------ orderings

class MonomialOrder:
    """A multiplicative well-order on monomials, exposed as a sort key.

    key(a) < key(b) exactly when a precedes b in the order, so the
    leading monomial of a polynomial is max(terms, key=order.key).
    rev_key sorts the other way round (rev_key(a) < rev_key(b) exactly
    when b precedes a), so a min-heap keyed by it pops the largest
    monomial first.
    """

    name: str = "?"

    def key(self, exps: Exponents):
        raise NotImplementedError

    def rev_key(self, exps: Exponents):
        raise NotImplementedError

    def __repr__(self):
        return self.name


def _grevlex_key(exps: Exponents):
    # Graded, ties broken by the *last* differing exponent being smaller.
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _grevlex_rev_key(exps: Exponents):
    # _grevlex_key with every entry negated
    return (-sum(exps), exps[::-1])


class GrevlexOrder(MonomialOrder):
    name = "grevlex"

    def key(self, exps):
        return _grevlex_key(exps)

    def rev_key(self, exps):
        return _grevlex_rev_key(exps)


class BlockOrder(MonomialOrder):
    """Elimination order for the first `block` variables.

    Compares the leading block by grevlex first, so any monomial that
    involves an eliminated variable dominates every monomial that does
    not.  Used to compute intersections and colon ideals.
    """

    def __init__(self, block: int):
        if block < 1:
            raise ValueError("block size must be >= 1")
        self.block = block
        self.name = f"elim({block})"

    def key(self, exps):
        return (_grevlex_key(exps[: self.block]), _grevlex_key(exps[self.block:]))

    def rev_key(self, exps):
        return (_grevlex_rev_key(exps[: self.block]), _grevlex_rev_key(exps[self.block:]))


GREVLEX = GrevlexOrder()


# ---------------------------------------------------------------- polynomials

class MultiPoly:
    """A polynomial in Q[x_0, ..., x_{nvars-1}] stored as {exponents: coeff}.

    The constructor validates and normalizes its input.  Arithmetic
    results are built with `_trusted`, which skips that work: they are
    normalized by construction (exponent tuples of length nvars, every
    coefficient a nonzero Fraction).
    """

    __slots__ = ("nvars", "terms", "_hash", "_lead")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | Iterable = ()):
        self.nvars = nvars
        clean: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, c in items:
            c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._hash = None
        self._lead = None

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Wrap an already normalized term dict, which the result then owns."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._hash = None
        p._lead = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff=1) -> "MultiPoly":
        return cls(nvars, {tuple(exps): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((mono_deg(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def lead_term(self, order: MonomialOrder = GREVLEX):
        """(exponents, coefficient) of the leading term.  Errors on zero.

        The result is kept for the order last asked for (by name).
        """
        lead = self._lead
        if lead is not None and lead[0] == order.name:
            return lead[1]
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=order.key)
        term = (exps, self.terms[exps])
        self._lead = (order.name, term)
        return term

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        """The terms, leading term first."""
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                c += terms[e]
                if not c:
                    del terms[e]
                    continue
            terms[e] = c
        return MultiPoly._trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly._trusted(self.nvars, {})
            return MultiPoly._trusted(self.nvars, {e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                old = terms.get(e)
                terms[e] = c1 * c2 if old is None else old + c1 * c2
        return MultiPoly._trusted(self.nvars, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for x, k in zip(pt, e):
                if k:
                    val *= x ** k
            total += val
        return total

    def compose(self, polys: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute variable i by polys[i].  All images share one ring."""
        if len(polys) != self.nvars:
            raise ValueError("need one image per variable")
        if not polys:
            raise ValueError("cannot compose in an empty ring")
        tvars = polys[0].nvars
        if any(p.nvars != tvars for p in polys):
            raise ValueError("images live in different rings")
        powers: dict = {}

        def power(i, k):
            if (i, k) not in powers:
                powers[(i, k)] = polys[i] ** k
            return powers[(i, k)]

        out = MultiPoly.zero(tvars)
        for e, c in self.terms.items():
            piece = MultiPoly.constant(tvars, c)
            for i, k in enumerate(e):
                if k:
                    piece = piece * power(i, k)
            out = out + piece
        return out

    def dehomogenize(self, i: int) -> "MultiPoly":
        """Set variable i to 1 and drop it from the ring."""
        terms: dict = {}
        for e, c in self.terms.items():
            exps = e[:i] + e[i + 1:]
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return MultiPoly(self.nvars - 1, terms)

    def set_trailing_zero(self, keep: int) -> "MultiPoly":
        """Set the last nvars-keep variables to 0 and drop them."""
        terms = {}
        for e, c in self.terms.items():
            if any(e[keep:]):
                continue
            terms[e[:keep]] = c
        return MultiPoly(keep, terms)

    # -- presentation --------------------------------------------------------

    def __str__(self):
        return format_poly(self, [f"x{i}" for i in range(self.nvars)])

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"


# ------------------------------------------------------------- substitutions

def linear_images(matrix: Sequence[Sequence]) -> list:
    """The images of the variables under x -> M.x: one linear form per row."""
    n = len(matrix)
    return [MultiPoly(n, {tuple(1 if j == k else 0 for k in range(n)): row[j]
                          for j in range(n) if row[j] != 0})
            for row in matrix]


# ------------------------------------------------------------------- parsing

# deepest nesting of parentheses and unary minus signs parse_polynomial accepts
MAX_NESTING = 100
# highest degree of a product or power parse_polynomial expands; far above
# any foliation degree Buchberger can handle here
MAX_DEGREE = 50
# most terms a product or power parse_polynomial expands, bounded before it is
# expanded: (z0+z1+z2)^50 has 1326 terms, (z0+z1+z2+z3)^21 would have 2024
MAX_TERMS = 2000
# longest coefficient of a product or power parse_polynomial expands, in bits
# of the common denominator and of the largest numerator over it; the
# binomials of (z0+z1)^50 have 47 bits, bounded by 100
MAX_COEFFICIENT_BITS = 10000


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, msg):
        raise ValueError(f"{msg} at position {self.pos} in {self.text!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            self.error("expected a name")
        return self.text[start:self.pos]


def _coefficient_bits(p: MultiPoly) -> int:
    """Bits of the common denominator and of the largest numerator over it."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    top = max((abs(c.numerator) * (den // c.denominator) for c in p.terms.values()),
              default=0)
    return max(den.bit_length(), top.bit_length())


def parse_polynomial(text: str, names: Sequence[str]) -> MultiPoly:
    """Parse +, -, *, ^, rational coefficients and parentheses.

    Multiplication is explicit (write 2*x, not 2x).  Raises ValueError
    with a position on malformed input, including parentheses and unary
    minus signs nested more than MAX_NESTING deep and any product or
    power that could exceed MAX_DEGREE, MAX_TERMS or MAX_COEFFICIENT_BITS,
    which is refused before it is expanded.
    """
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}
    sc = _Scanner(text)
    depth = 0

    def nested(parse):
        nonlocal depth
        if depth == MAX_NESTING:
            sc.error(f"more than {MAX_NESTING} nested parentheses or signs")
        depth += 1
        inner = parse()
        depth -= 1
        return inner

    def parse_expr() -> MultiPoly:
        sign = 1
        if sc.peek() == "-":
            sc.take()
            sign = -1
        elif sc.peek() == "+":
            sc.take()
        total = parse_term() * sign
        while True:
            ch = sc.peek()
            if ch == "+":
                sc.take()
                total = total + parse_term()
            elif ch == "-":
                sc.take()
                total = total - parse_term()
            else:
                return total

    def over_budget(degree: int, terms: int, bits: int):
        for what, value, limit in (("degree", degree, MAX_DEGREE),
                                   ("terms", terms, MAX_TERMS),
                                   ("coefficient bits", bits, MAX_COEFFICIENT_BITS)):
            if value > limit:
                sc.error(f"{what} {value} above {limit}")

    def parse_term() -> MultiPoly:
        p, bits = parse_factor()
        while sc.peek() == "*":
            sc.take()
            q, q_bits = parse_factor()
            lp, lq = len(p.terms), len(q.terms)
            degree = p.total_degree() + q.total_degree()
            # each coefficient of the product sums at most min(lp, lq) products
            bits += q_bits + ((lp if lp < lq else lq) - 1).bit_length()
            if degree > MAX_DEGREE or lp * lq > MAX_TERMS or bits > MAX_COEFFICIENT_BITS:
                over_budget(degree, lp * lq, bits)
            p = p * q
        return p

    # factors and atoms come with an upper bound on their _coefficient_bits,
    # so a product is bounded without a pass over its operands' terms
    def parse_factor() -> tuple:
        base, bits = parse_atom()
        if sc.peek() == "^":
            sc.take()
            k = sc.integer()
            t = max(len(base.terms), 1)
            degree = base.total_degree() * k
            # a power of t terms has at most C(t+k-1, k) terms, and its
            # coefficients sum to at most (t * largest)^k; the binomial is
            # only taken once the degree has bounded k
            terms = comb(t + k - 1, k) if degree <= MAX_DEGREE else 0
            bits = k * (bits + (t - 1).bit_length())
            if degree > MAX_DEGREE or terms > MAX_TERMS or bits > MAX_COEFFICIENT_BITS:
                over_budget(degree, terms, bits)
            return base ** k, bits
        return base, bits

    def parse_atom() -> tuple:
        ch = sc.peek()
        if ch == "(":
            sc.take()
            inner = nested(parse_expr)
            if sc.peek() != ")":
                sc.error("expected ')'")
            sc.take()
            return inner, _coefficient_bits(inner)
        if ch == "-":
            sc.take()
            inner, bits = nested(parse_atom)
            return -inner, bits
        if ch.isdigit():
            num = sc.integer()
            if sc.peek() == "/":
                sc.take()
                den = sc.integer()
                if den == 0:
                    sc.error("zero denominator")
                return (MultiPoly.constant(nvars, Fraction(num, den)),
                        max(num.bit_length(), den.bit_length()))
            return MultiPoly.constant(nvars, num), num.bit_length()
        if ch.isalpha() or ch == "_":
            name = sc.name()
            if name not in index:
                sc.error(f"unknown variable {name!r}")
            return MultiPoly.variable(nvars, index[name]), 1
        sc.error("unexpected character")

    result = parse_expr()
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input")
    return result


def format_poly(p: MultiPoly, names: Sequence[str], order: MonomialOrder = GREVLEX) -> str:
    """Deterministic text form; output reparses to the same polynomial."""
    if p.is_zero():
        return "0"
    if len(names) != p.nvars:
        raise ValueError("need one name per variable")
    pieces = []
    for exps, coeff in p.sorted_terms(order):
        factors = [f"{names[i]}^{k}" if k > 1 else names[i]
                   for i, k in enumerate(exps) if k]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)
