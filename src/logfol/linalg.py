"""Small exact linear algebra helpers, over Fraction and over the integers.

Reduced row echelon form and rank over Fraction, for the small form
matrices of strata and arrangements.  Fraction-free row echelon form,
matrix products and the stable row space of a matrix's powers on integer
rows, for the multiplication matrices of quotient rings: elimination by
cross-multiplication keeps every entry an integer, and dividing each new
row by the gcd of its entries keeps them short.  Row operations only;
matrices are lists of lists and stay small (at most a few dozen rows),
so no pivoting strategy beyond "first nonzero" is needed.  No floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def rref(rows: Sequence[Sequence]) -> tuple[list, list]:
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries (a zero row stays zero)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def echelon(rows: Sequence[Sequence[int]]) -> list:
    """Row echelon form of integer rows, without fractions.

    Returns independent primitive integer rows spanning the same row
    space, so their number is the rank.  Each pivot row p clears column
    c below it by row := p[c] * row - row[c] * p, and the result is
    divided by the gcd of its entries.
    """
    m = [_primitive(list(row)) for row in rows if any(row)]
    if not m:
        return []
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(r + 1, len(m)):
            x = m[i][c]
            if x:
                m[i] = _primitive([p * a - x * b for a, b in zip(m[i], prow)])
        r += 1
        if r == len(m):
            break
    return m[:r]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    """Matrix product a . b, skipping zero entries."""
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * ncols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def stable_row_space(matrix: Sequence[Sequence[int]]) -> list:
    """Independent integer rows spanning the row space of matrix^k for all large k.

    The row spaces of the powers shrink, since rowspace(M^(k+1)) =
    rowspace(M^k) . M, and once one step keeps the dimension they stay
    put; for an n x n matrix that happens by k = n.  Equal to the row
    space of M^n without forming the power.  Takes an integer matrix
    (scale a rational one by a common denominator first: the powers'
    row spaces do not change) and returns `echelon` rows.
    """
    rows = echelon(matrix)
    while rows:
        image = echelon(mat_mul(rows, matrix))
        if len(image) == len(rows):
            break
        rows = image
    return rows
