"""Small exact linear algebra over the rationals (and Gaussian rationals).

One fraction-exact Gauss-Jordan elimination serves the lattice-duality
and data-recovery solves in this package: determinant and inverse from
one pass, rank, and a consistent-solve that reports inconsistency instead
of least-squaring.
Matrices are lists of lists of rationals (``coeff.Q`` values); Gaussian
rational systems are solved in their doubled real form.
"""

from __future__ import annotations

from .coeff import GRat, Q

__all__ = ["rat_det_inverse", "rat_solve", "rat_rank", "grat_rank", "grat_solve"]


def _gauss_jordan(a, ncols):
    """Bring the rows of ``a`` to reduced echelon form in place, pivoting
    on the first ``ncols`` columns.  Returns the pivot columns and, when
    those columns form a square block, its determinant."""
    rows = len(a)
    pivots = []
    det = Q(1)
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            det = Q(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        p = a[rank][col]
        det *= p
        a[rank] = [x / p for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    return pivots, det


def rat_rank(m):
    return len(_gauss_jordan([row[:] for row in m], len(m[0]) if m else 0)[0])


def rat_solve(m, rhs):
    """Solve m x = rhs exactly (m may be tall); None if inconsistent.

    ``rhs`` may have multiple columns.  For wide/underdetermined systems the
    reduced echelon solution with free variables set to zero is returned.
    """
    cols = len(m[0]) if m else 0
    a = [m[i][:] + rhs[i][:] for i in range(len(m))]
    pivots, _ = _gauss_jordan(a, cols)
    if any(any(row[cols:]) for row in a[len(pivots):]):
        return None
    x = [[Q(0)] * len(rhs[0]) for _ in range(cols)]
    for r, col in enumerate(pivots):
        x[col] = a[r][cols:]
    return x


def rat_det_inverse(m):
    """(det, inverse) of a square rational matrix from one elimination of
    m beside the identity; the inverse is None when det == 0."""
    n = len(m)
    a = [row[:] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    det = _gauss_jordan(a, n)[1]
    return det, ([row[n:] for row in a] if det else None)


def _doubled(m):
    """The real 2n x 2g form of an n x g Gaussian rational matrix: the
    real and imaginary parts of each row, acting on (Re x, Im x)."""
    real = []
    for row in m:
        real.append([e.re for e in row] + [-e.im for e in row])
        real.append([e.im for e in row] + [e.re for e in row])
    return real


def grat_rank(m):
    """Rank of a GRat matrix via the doubled real form."""
    return rat_rank(_doubled(m)) // 2


def grat_solve(m, rhs):
    """Solve sum_k m[j][k] x_k = rhs[j] for a GRat vector x, as a tuple;
    None if inconsistent (free variables set to zero, as ``rat_solve``)."""
    g = len(m[0])
    sol = rat_solve(_doubled(m), [[c] for e in rhs for c in (e.re, e.im)])
    if sol is None:
        return None
    return tuple(GRat(sol[k][0], sol[g + k][0]) for k in range(g))
