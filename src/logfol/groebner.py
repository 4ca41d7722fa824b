"""Groebner bases over Q and the ideal operations built on them.

Buchberger's algorithm with the classical pair pruning (coprime leading
monomials and the chain criterion) followed by one interreduction pass,
so every call yields *the* reduced basis of the ideal under the order
it is given.  An `Ideal` caches its grevlex basis only; the one other
order in use is the elimination order inside `intersect`, which calls
the basis engine directly and keeps nothing.  The run is deterministic:
inputs are sorted canonically, the pending pairs sit in a heap keyed
(order key of the lcm, i, j), so the smallest lcm comes first and ties
go to the lower indices, and bases come out sorted by leading monomial.
Division keeps the pending terms in a heap keyed once per monomial and
splits each divisor's tail off once.

Vector-space dimensions of quotients are staircase counts read off the
reduced basis.  The length of the part of a zero-dimensional scheme on
a locus is exact linear algebra on the multiplication matrices of the
quotient ring over its staircase (Stetter's method; Cox, Little and
O'Shea, *Using Algebraic Geometry*, ch. 2 and 4).  The matrices are
built from normal forms of monomials, each outside the staircase
divided once per call, and scaled to integers, so their powers' row
spaces and ranks come from fraction-free elimination in `linalg`.  Colon ideals go
through the classical tag-variable intersection trick; saturation
iterates single-generator colons round-robin until the chain
stabilizes.

The degree of the projective scheme of a homogeneous ideal comes from
the Hilbert series of its grevlex lead monomials, whose numerator is
built by Bigatti's pivot split on an explicit stack (Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 9; Bigatti 1997).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import lcm
from typing import Iterable, Sequence

from . import linalg
from .polynomials import (
    GREVLEX,
    BlockOrder,
    MonomialOrder,
    MultiPoly,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

INFINITE = float("inf")


# ------------------------------------------------------------------- ideals

class Ideal:
    """An ideal given by generators, with its reduced grevlex basis cached.

    `buchberger` or the first call of `groebner_basis` fills the cache.
    Two ideals compare equal when their reduced bases coincide.
    """

    __slots__ = ("nvars", "generators", "_basis")

    def __init__(self, nvars: int, generators: Iterable[MultiPoly]):
        gens = []
        for g in generators:
            if not isinstance(g, MultiPoly):
                raise TypeError("generators must be MultiPoly")
            if g.nvars != nvars:
                raise ValueError("generator lives in the wrong ring")
            if not g.is_zero():
                gens.append(g)
        self.nvars = nvars
        self.generators = tuple(gens)
        self._basis = None

    def groebner_basis(self) -> tuple:
        if self._basis is None:
            self._basis = _reduced_groebner(self.generators, self.nvars, GREVLEX)
        return self._basis

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        return self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        return hash((self.nvars, self.groebner_basis()))

    def __repr__(self):
        return f"Ideal({self.nvars}, {len(self.generators)} generators)"


def buchberger(generators: Sequence[MultiPoly], nvars: int | None = None) -> Ideal:
    """Build an Ideal and cache its reduced Groebner basis."""
    gens = list(generators)
    if nvars is None:
        if not gens:
            raise ValueError("need nvars for an empty generator list")
        nvars = gens[0].nvars
    ideal = Ideal(nvars, gens)
    ideal.groebner_basis()
    return ideal


# ----------------------------------------------------------------- division

def divide(f: MultiPoly, divisors: Sequence[MultiPoly],
           order: MonomialOrder = GREVLEX) -> tuple[list, MultiPoly]:
    """Multivariate division.  Returns (quotients, remainder).

    Every monomial of the remainder is divisible by no leading monomial
    of the divisors; the divisor scanned first is always the first
    listed, which makes the outcome deterministic for a fixed list.
    """
    rev_key = order.rev_key
    reducers = []
    for g in divisors:
        lm, lc = g.lead_term(order)
        reducers.append((lm, lc, [(e, c) for e, c in g.terms.items() if e != lm]))
    quotients = [{} for _ in divisors]
    remainder: dict = {}
    # work holds the pending terms; each of its monomials sits in the heap
    # exactly once, because every term a step adds is smaller than the
    # monomial just taken off.  A coefficient that cancels stays as 0.
    work = dict(f.terms)
    heap = [(rev_key(e), e) for e in work]
    heapify(heap)
    while heap:
        exps = heappop(heap)[1]
        coeff = work.pop(exps)
        if not coeff:
            continue
        for (lm, lc, tail), quotient in zip(reducers, quotients):
            if mono_divides(lm, exps):
                shift = mono_div(exps, lm)
                factor = coeff / lc
                quotient[shift] = factor
                for e2, c2 in tail:
                    e = mono_mul(shift, e2)
                    old = work.get(e)
                    if old is None:
                        work[e] = -factor * c2
                        heappush(heap, (rev_key(e), e))
                    else:
                        work[e] = old - factor * c2
                break
        else:
            remainder[exps] = coeff
    return ([MultiPoly._trusted(f.nvars, q) for q in quotients],
            MultiPoly._trusted(f.nvars, remainder))


def _cached_basis(ideal: Ideal) -> tuple:
    if ideal._basis is None:
        raise ValueError("ideal has no cached Groebner basis; call buchberger first")
    return ideal._basis


def normal_form(f: MultiPoly, ideal: Ideal) -> MultiPoly:
    """Remainder of f modulo the ideal's cached reduced basis.

    Requires a cached basis (compute one with `buchberger` first); with
    a reduced basis the result is the unique normal form, so membership
    is `normal_form(f, I).is_zero()`.
    """
    basis = _cached_basis(ideal)
    if not basis:
        return f
    return divide(f, basis)[1]


def exact_divide(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f / g when g divides f exactly; raises ValueError otherwise."""
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    quotients, rem = divide(f, [g], GREVLEX)
    if not rem.is_zero():
        raise ValueError("not an exact division")
    return quotients[0]


# ------------------------------------------------------------ basis machinery

def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    lf, cf = f.lead_term(order)
    lg, cg = g.lead_term(order)
    lcm = mono_lcm(lf, lg)
    mf = MultiPoly.monomial(f.nvars, mono_div(lcm, lf), Fraction(1) / cf)
    mg = MultiPoly.monomial(g.nvars, mono_div(lcm, lg), Fraction(1) / cg)
    return mf * f - mg * g


def _canonical_sort(polys: Sequence[MultiPoly], order: MonomialOrder) -> list:
    def key(p):
        return (order.key(p.lead_term(order)[0]),
                sorted(((order.key(e), c) for e, c in p.terms.items()), reverse=True))
    return sorted(polys, key=key)


def _monic(p: MultiPoly, order: MonomialOrder) -> MultiPoly:
    _, c = p.lead_term(order)
    return p * (Fraction(1) / c)


def _interreduce(polys: list, order: MonomialOrder) -> tuple:
    """Minimalize then fully reduce monic polys; yields the unique reduced basis."""
    # minimal: drop any element whose lead is divisible by another lead
    minimal = []
    leads = [p.lead_term(order)[0] for p in polys]
    for i, p in enumerate(polys):
        li = leads[i]
        redundant = any(
            j != i and mono_divides(leads[j], li)
            and not (leads[j] == li and j > i)
            for j in range(len(polys))
        )
        if not redundant:
            minimal.append(p)
    # Tail reduction never changes a leading monomial, and no lead divides
    # another, so one pass leaves every element reduced against the rest.
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            minimal[i] = divide(minimal[i], others, order)[1]
    return tuple(_canonical_sort(minimal, order))


def _reduced_groebner(generators: Sequence[MultiPoly], nvars: int,
                      order: MonomialOrder) -> tuple:
    basis = [_monic(g, order) for g in _canonical_sort(
        [g for g in generators if not g.is_zero()], order)]
    if not basis:
        return ()
    leads = [p.lead_term(order)[0] for p in basis]
    pending = []  # heap of (order.key(lcm), i, j, lcm) with i < j

    def add_pairs(j):
        for i in range(j):
            lcm = mono_lcm(leads[i], leads[j])
            heappush(pending, (order.key(lcm), i, j, lcm))

    for j in range(1, len(basis)):
        add_pairs(j)
    done = set()
    while pending:
        _, i, j, lcm = heappop(pending)
        done.add((i, j))
        # coprime leads: the S-polynomial reduces to zero
        if lcm == mono_mul(leads[i], leads[j]):
            continue
        # chain criterion: some processed k divides the lcm
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        _, rem = divide(s_polynomial(basis[i], basis[j], order), basis, order)
        if rem.is_zero():
            continue
        rem = _monic(rem, order)
        basis.append(rem)
        leads.append(rem.lead_term(order)[0])
        add_pairs(len(basis) - 1)
    return _interreduce(basis, order)


# --------------------------------------------------------- derived operations

def _prefix_var(p: MultiPoly, count: int = 1) -> MultiPoly:
    return MultiPoly(p.nvars + count,
                     {(0,) * count + e: c for e, c in p.terms.items()})


def _strip_prefix(p: MultiPoly, count: int = 1) -> MultiPoly:
    if any(any(e[:count]) for e in p.terms):
        raise ValueError("polynomial involves the variables being stripped")
    return MultiPoly(p.nvars - count, {e[count:]: c for e, c in p.terms.items()})


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Ideal intersection via the tag variable t: (t*A + (1-t)*B) ∩ Q[x]."""
    if a.nvars != b.nvars:
        raise ValueError("ideals live in different rings")
    n = a.nvars
    t = MultiPoly.variable(n + 1, 0)
    one = MultiPoly.constant(n + 1, 1)
    gens = [t * _prefix_var(g) for g in a.generators]
    gens += [(one - t) * _prefix_var(g) for g in b.generators]
    basis = _reduced_groebner(gens, n + 1, BlockOrder(1))
    kept = [_strip_prefix(g) for g in basis if not any(e[0] for e in g.terms)]
    return buchberger(kept, n)


def ideal_quotient(ideal: Ideal, f: MultiPoly) -> Ideal:
    """The colon ideal I : (f) for a single nonzero f."""
    if f.nvars != ideal.nvars:
        raise ValueError("f lives in the wrong ring")
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    if f.total_degree() == 0:
        return buchberger(ideal.generators, ideal.nvars)
    meet = intersect(ideal, buchberger([f], ideal.nvars))
    gens = [exact_divide(g, f) for g in meet.groebner_basis()]
    return buchberger(gens, ideal.nvars)


def colon_by_ideal(ideal: Ideal, other: Ideal) -> Ideal:
    """I : J as the intersection of the single-generator colons."""
    gens = [g for g in other.generators if not g.is_zero()]
    if not gens:
        raise ValueError("cannot take a colon by the zero ideal")
    gens = _canonical_sort(gens, GREVLEX)
    result = ideal_quotient(ideal, gens[0])
    for f in gens[1:]:
        result = intersect(result, ideal_quotient(ideal, f))
    return result


def saturate(ideal: Ideal, other: Ideal) -> Ideal:
    """I : J^infinity: iterate the colon by J until the chain stabilizes.

    Each round goes through J's generators one at a time (single
    colons, then an intersection); equality of the reduced bases of two
    consecutive rounds detects the fixed point.
    """
    current = buchberger(ideal.generators, ideal.nvars)
    while True:
        step = colon_by_ideal(current, other)
        if step.groebner_basis() == current.groebner_basis():
            return current
        current = step


def _standard_monomials(ideal: Ideal):
    """The staircase of the cached reduced basis in walk order, or None.

    None means the staircase is infinite: some variable has no pure
    power among the leading monomials.
    """
    basis = _cached_basis(ideal)
    n = ideal.nvars
    if not basis:
        return [()] if n == 0 else None
    leads = [g.lead_term()[0] for g in basis]
    if any(mono_deg(lm) == 0 for lm in leads):
        return []
    bounds = []
    for i in range(n):
        pure = [lm[i] for lm in leads if all(k == 0 for j, k in enumerate(lm) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    out = []
    stack = [(0,) * n]
    seen = {(0,) * n}
    while stack:
        exps = stack.pop()
        if any(mono_divides(lm, exps) for lm in leads):
            continue
        out.append(exps)
        for i in range(n):
            if exps[i] + 1 < bounds[i]:
                up = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                if up not in seen:
                    seen.add(up)
                    stack.append(up)
    return out


def quotient_dimension(ideal: Ideal):
    """dim_Q of the quotient ring, or INFINITE.

    Counts the staircase of the cached reduced basis: monomials not
    divisible by any leading monomial.  Finite exactly when every
    variable appears as a pure power among the leads.
    """
    monos = _standard_monomials(ideal)
    return INFINITE if monos is None else len(monos)


def staircase(ideal: Ideal) -> list:
    """The standard monomials of a zero-dimensional ideal, sorted."""
    monos = _standard_monomials(ideal)
    if monos is None:
        raise ValueError("staircase is infinite")
    return sorted(monos, key=GREVLEX.key)


def supported_lengths(ideal: Ideal, loci: Sequence[Sequence[MultiPoly]]) -> list:
    """For each locus V(g_1, ..., g_r): the length of the part of V(ideal) on it.

    With B the staircase of a zero-dimensional ideal (D = |B|) and M_g
    the matrix of "multiply by g, then take the normal form" on B, M_g^D
    vanishes on the local factors of Q[x]/I at the zeros of g and is
    invertible on the others.  The stacked [M_{g_1}^D; ...; M_{g_r}^D]
    therefore has kernel the part supported on the locus, and its rank
    is the length off it; each M_g^D enters through its row space, found
    by `linalg.stable_row_space` without forming the power.  Points with
    irrational coordinates count with full multiplicity.  An empty locus
    gives D.

    Column b of M_g is the sum of c * NF(t*b) over the terms c*t of g.
    The normal forms are memoized for the call: a staircase monomial is
    its own normal form, and any other monomial is divided once.  Each
    M_g is scaled by the lcm of its denominators, which leaves the row
    spaces of its powers alone, so all the elimination is on integers.
    A polynomial in several loci has its row space computed once.
    """
    monos = staircase(ideal)
    dim = len(monos)
    position = {m: i for i, m in enumerate(monos)}
    # normal forms by monomial, as {row: coefficient}
    forms = {m: {i: 1} for m, i in position.items()}
    spaces = {}  # stable row space of M_g by polynomial g

    def row_space(g):
        if g in spaces:
            return spaces[g]
        matrix = [[0] * dim for _ in range(dim)]
        for col, b in enumerate(monos):
            for t, c in g.terms.items():
                m = mono_mul(t, b)
                if m not in forms:
                    rem = normal_form(MultiPoly.monomial(ideal.nvars, m), ideal)
                    forms[m] = {position[e]: x for e, x in rem.terms.items()}
                for row, x in forms[m].items():
                    matrix[row][col] += c * x
        scale = lcm(*(x.denominator for row in matrix for x in row if x))
        matrix = [[x.numerator * (scale // x.denominator) for x in row] for row in matrix]
        spaces[g] = linalg.stable_row_space(matrix)
        return spaces[g]

    return [dim - len(linalg.echelon([row for g in locus for row in row_space(g)]))
            for locus in loci]


# ------------------------------------------------------------ Hilbert series

def _minimal(monos) -> list:
    """Minimal generators of the monomial ideal spanned by `monos`."""
    out = []
    for m in sorted(set(monos), key=mono_deg):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def _hilbert_numerator(leads, nvars: int) -> list:
    """Coefficients of N(t), where N(t)/(1-t)^nvars is the Hilbert series of
    Q[x] modulo the monomial ideal generated by `leads`.

    Bigatti's pivot split N(M) = N(M + (p)) + t^deg(p) N(M : p), with p
    the median power of the variable found in the most generators that
    are not pure powers, runs on an explicit stack, so no basis is too
    long for it.  An ideal of pure powers is a leaf: prod (1 - t^deg).
    """
    numerator = [0]
    stack = [(0, _minimal(leads))]
    while stack:
        shift, gens = stack.pop()
        mixed = [m for m in gens if len(m) - m.count(0) > 1]
        if mixed:
            counts = [sum(1 for m in mixed if m[i]) for i in range(nvars)]
            i = counts.index(max(counts))
            powers = sorted(m[i] for m in mixed if m[i])
            e = powers[len(powers) // 2]
            pivot = tuple(e if k == i else 0 for k in range(nvars))
            stack.append((shift, _minimal(gens + [pivot])))
            stack.append((shift + e, _minimal(
                [mono_div(mono_lcm(m, pivot), pivot) for m in gens])))
            continue
        leaf = [0] * shift + [1]
        for m in gens:
            a = mono_deg(m)
            leaf += [0] * a
            for k in range(len(leaf) - 1, a - 1, -1):
                leaf[k] -= leaf[k - a]
        numerator += [0] * (len(leaf) - len(numerator))
        for k, c in enumerate(leaf):
            numerator[k] += c
    return numerator


def projective_degree(ideal: Ideal):
    """Degree of the projective scheme of a homogeneous ideal, or INFINITE.

    Reads the Hilbert series N(t)/(1-t)^nvars of the grevlex lead
    monomials, which is that of the ideal (Macaulay), and cancels (1-t)
    while N(1) = 0.  One factor left means a finite scheme of length
    N(1); more mean a positive-dimensional one (INFINITE); none, the
    empty scheme (0).
    """
    if not all(g.is_homogeneous() for g in ideal.generators):
        raise ValueError("ideal is not homogeneous")
    leads = [g.lead_term()[0] for g in ideal.groebner_basis()]
    numerator = _hilbert_numerator(leads, ideal.nvars)
    factors = ideal.nvars
    while factors and sum(numerator) == 0:
        # N = (1-t) Q: the coefficients of Q are the partial sums of N's
        numerator = list(accumulate(numerator))
        factors -= 1
    if factors == 0:
        return 0
    return sum(numerator) if factors == 1 else INFINITE
