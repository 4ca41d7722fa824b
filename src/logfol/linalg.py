"""Small exact linear algebra helpers over Fraction.

Row operations only; matrices are lists of lists of Fraction and stay
small (at most a few dozen rows), so no pivoting strategy beyond "first
nonzero" is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _copy(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[list, list]:
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    m = _copy(rows)
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


def invert(matrix: Sequence[Sequence]) -> list:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def mat_vec(matrix: Sequence[Sequence], vec: Sequence) -> list:
    return [sum((Fraction(a) * Fraction(x) for a, x in zip(row, vec)), Fraction(0))
            for row in matrix]


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


def nullspace(rows: Sequence[Sequence]) -> list:
    """Basis of the right kernel, one list per basis vector."""
    if not rows:
        raise ValueError("need at least one row")
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def complete_to_square(rows: Sequence[Sequence]) -> list:
    """Extend independent rows to an invertible matrix.

    Standard basis vectors are prepended greedily (lowest index first),
    keeping the given rows as the *last* rows of the result.
    """
    given = _copy(rows)
    n = len(given[0]) if given else 0
    if rank(given) != len(given):
        raise ValueError("rows are dependent")
    chosen: list = []
    for j in range(n):
        if len(chosen) + len(given) == n:
            break
        e = [Fraction(1 if c == j else 0) for c in range(n)]
        if rank(chosen + [e] + given) > len(chosen) + len(given):
            chosen.append(e)
    full = chosen + given
    if rank(full) != n:
        raise ValueError("could not complete to a basis")
    return full
