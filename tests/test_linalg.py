"""Exact linear algebra checked against definitions that share no code
with the elimination: the Leibniz expansion, the largest nonzero minor,
and substitution back into the system."""

import random
from itertools import combinations, permutations

import pytest

from nctorus import linalg
from nctorus.coeff import GRat, Q
from nctorus.linalg import rat_det_inverse, rat_rank, rat_solve

SEEDS = range(12)


def _sparse_rational(rng):
    # about half the entries are zero, so pivots are often missing and
    # rows must be swapped
    return Q(0) if rng.random() < 0.5 else Q(rng.randint(-3, 3), rng.randint(1, 3))


def _matrix(rng, rows, cols, entry=_sparse_rational):
    return [[entry(rng) for _ in range(cols)] for _ in range(rows)]


def _shapes(rng, count):
    return [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(count)]


def _leibniz(m):
    n = len(m)
    total = None
    for perm in permutations(range(n)):
        term = m[0][perm[0]]
        for i in range(1, n):
            term = term * m[i][perm[i]]
        if sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _minor_rank(m):
    """The size of the largest square submatrix with a nonzero determinant."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if _leibniz([[m[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _matmul(a, b):
    zero = a[0][0] - a[0][0]
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for row in a
    ]


def _augment(m, rhs):
    return [row + extra for row, extra in zip(m, rhs)]


@pytest.mark.parametrize("seed", SEEDS)
def test_det_is_the_leibniz_expansion(seed):
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = _matrix(rng, n, n)
        assert rat_det_inverse(m)[0] == _leibniz(m)


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_is_the_largest_nonzero_minor(seed):
    rng = random.Random(100 + seed)
    for rows, cols in _shapes(rng, 20):
        m = _matrix(rng, rows, cols)
        assert rat_rank(m) == _minor_rank(m)


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_exactly_when_the_determinant_is_nonzero(seed):
    rng = random.Random(200 + seed)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = _matrix(rng, n, n)
        inv = rat_det_inverse(m)[1]
        if _leibniz(m):
            identity = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
            assert _matmul(m, inv) == identity
        else:
            assert inv is None


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_exactly_when_the_augmented_rank_agrees(seed):
    rng = random.Random(300 + seed)
    for rows, cols in _shapes(rng, 20):
        m = _matrix(rng, rows, cols)
        width = rng.randint(1, 2)
        if rng.random() < 0.5:
            rhs = _matmul(m, _matrix(rng, cols, width))
        else:
            rhs = _matrix(rng, rows, width)
        x = rat_solve(m, rhs)
        solvable = _minor_rank(m) == _minor_rank(_augment(m, rhs))
        assert (x is not None) == solvable
        if solvable:
            assert _matmul(m, x) == rhs


@pytest.mark.parametrize("seed", SEEDS)
def test_grat_solve_substitutes_back(seed):
    rng = random.Random(400 + seed)

    def entry(r):
        return GRat(_sparse_rational(r), _sparse_rational(r))

    for rows, cols in _shapes(rng, 20):
        m = _matrix(rng, rows, cols, entry)
        if rng.random() < 0.5:
            rhs = [row[0] for row in _matmul(m, _matrix(rng, cols, 1, entry))]
        else:
            rhs = [entry(rng) for _ in range(rows)]
        x = linalg.grat_solve(m, rhs)
        column = [[e] for e in rhs]
        solvable = _minor_rank(m) == _minor_rank(_augment(m, column))
        assert (x is not None) == solvable
        assert linalg.grat_rank(m) == _minor_rank(m)
        if solvable:
            assert _matmul(m, [[e] for e in x]) == column
