"""Small exact linear algebra helpers over Fraction.

Reduced row echelon form and rank, matrix products, and the stable row
space of a matrix's powers.  Row operations only; matrices are lists of
lists of Fraction and stay small (at most a few dozen rows), so no
pivoting strategy beyond "first nonzero" is needed.
"""

from __future__ import annotations

from fractions import Fraction
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


def stable_row_space(matrix: Sequence[Sequence]) -> list:
    """Independent rows spanning the row space of matrix^k for all large k.

    The row spaces of the powers shrink, since rowspace(M^(k+1)) =
    rowspace(M^k) . M, and once one step keeps the dimension they stay
    put; for an n x n matrix that happens by k = n.  Equal to the row
    space of M^n without forming the power.
    """
    reduced, pivots = rref(matrix)
    rows = reduced[:len(pivots)]
    while rows:
        reduced, pivots = rref(mat_mul(rows, matrix))
        if len(pivots) == len(rows):
            break
        rows = reduced[:len(pivots)]
    return rows
