"""Small exact linear algebra over the rationals (and Gaussian rationals).

Just enough Gaussian elimination for the lattice-duality and data-recovery
solves in this package: determinant, inverse, and a consistent-solve that
reports inconsistency instead of least-squaring.  Matrices are lists of
lists of rationals (``coeff.Q`` values).
"""

from __future__ import annotations

from .coeff import Q

__all__ = ["rat_det", "rat_inverse", "rat_solve", "rat_rank", "grat_rank"]


def _clone(m):
    return [row[:] for row in m]


def rat_det(m):
    """Determinant by fraction-exact elimination."""
    n = len(m)
    a = _clone(m)
    det = Q(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Q(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det

def rat_rank(m):
    if not m:
        return 0
    a = _clone(m)
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        for r in range(rows):
            if r != rank and a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def rat_inverse(m):
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(m)
    a = [row[:] + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def rat_solve(m, rhs):
    """Solve m x = rhs exactly (m may be tall); None if inconsistent.

    ``rhs`` may have multiple columns.  For wide/underdetermined systems the
    reduced echelon solution with free variables set to zero is returned.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    width = len(rhs[0])
    a = [m[i][:] + rhs[i][:] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, rows):
        if any(a[r][cols + j] != 0 for j in range(width)):
            return None
    x = [[Q(0)] * width for _ in range(cols)]
    for r, col in enumerate(pivots):
        x[col] = a[r][cols:]
    return x


def grat_rank(m):
    """Rank of a GRat matrix via the doubled real form."""
    if not m:
        return 0
    real = []
    for row in m:
        real.append([e.re for e in row] + [-e.im for e in row])
        real.append([e.im for e in row] + [e.re for e in row])
    return rat_rank(real) // 2
