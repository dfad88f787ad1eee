"""Complex torus data: period lattice, dual lattice, pairings, B-field.

A torus is V/Lambda with V = C^g and Lambda spanned by 2g vectors with
Gaussian-rational coordinates.  The dual lattice lives in the space of
conjugate-linear functionals xi, stored by the coefficient vectors of

    <xi, v> = sum_i xi_i * conj(v_i)

(linear in xi, conjugate-linear in v).  Duality is integrality of
Im<xi, lambda>; the dual basis is normalized so Im<xi^(k), lambda_j> is
the identity matrix.

The B-field transports a constant Poisson bivector Pi to the dual side:

    B(xi1, xi2) = Pi contracted with conj(xi1) wedge conj(xi2)
                = sum_ij Pi[i][j] conj(xi1_i) conj(xi2_j),

an alternating biadditive form, zero when g = 1 or Pi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .coeff import GRAT_ZERO, CoeffError, GRat, bilinear, combine, exp_hpi2
from .linalg import grat_rank, rat_det, rat_inverse

__all__ = [
    "TorusData",
    "DualLatticeBasis",
    "BForm",
    "TorusError",
    "validate_torus",
    "pairing",
    "dual_lattice",
    "bfield",
    "gaussian_product_torus",
]


class TorusError(CoeffError):
    """Degenerate or ill-formed torus data."""


@dataclass(frozen=True)
class TorusData:
    """g, 2g lattice column vectors in C^g, Poisson matrix, truncation."""

    g: int
    lattice: tuple  # 2g vectors, each a tuple of g GRat
    poisson: tuple  # g x g antisymmetric GRat matrix
    order: int

    def __post_init__(self):
        g = self.g
        if g < 1:
            raise TorusError("dimension must be positive")
        if len(self.lattice) != 2 * g or any(len(v) != g for v in self.lattice):
            raise TorusError("lattice must consist of 2g vectors in C^g")
        if len(self.poisson) != g or any(len(r) != g for r in self.poisson):
            raise TorusError("poisson matrix must be g x g")
        for i in range(g):
            for j in range(g):
                if self.poisson[i][j] != -self.poisson[j][i]:
                    raise TorusError("poisson matrix must be antisymmetric")

    def pairing_rows(self):
        """Row j maps the flattened (Re xi, Im xi) to Im<xi, lambda_j>.

        Im(xi_i * conj(l_i)) = -Re(xi_i) Im(l_i) + Im(xi_i) Re(l_i).
        """
        rows = []
        for lam in self.lattice:
            rows.append([-e.im for e in lam] + [e.re for e in lam])
        return rows


@dataclass(frozen=True)
class DualLatticeBasis:
    """2g coefficient vectors xi^(k); Im<xi^(k), lambda_j> = delta_kj.

    Holds the memo of the fiber points w = s + sum_k n_k xi^(k) of F_s
    that ``gerbe.rho_act`` and the section check read: ``point(base,
    offset)`` is computed once per argument."""

    vectors: tuple  # 2g tuples of g GRat
    point: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "point", cache(self._point))

    def _point(self, base, offset) -> tuple:
        """base + sum_k offset_k xi^(k)."""
        return tuple(a + b for a, b in zip(base, combine(offset, self.vectors)))


@dataclass(frozen=True)
class BForm:
    """The transported bivector as a bilinear form on dual coefficient
    vectors, with its matrix on the dual lattice basis precomputed, and
    the memo of the Heisenberg extension ctilde that ``gerbe.ctilde``
    reads: ``ctilde(w, xi, order)`` is computed once per argument."""

    poisson: tuple
    basis: DualLatticeBasis
    matrix: tuple  # 2g x 2g GRat values B(xi^(k), xi^(m))
    # the nonzero entries: their (k, m) and, for ``combine``, their 1-vectors
    support: tuple = field(init=False, repr=False, compare=False)
    entries: tuple = field(init=False, repr=False, compare=False)
    ctilde: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = [((k, m), (x,)) for k, row in enumerate(self.matrix) for m, x in enumerate(row) if x]
        object.__setattr__(self, "support", tuple(km for km, _ in cells))
        object.__setattr__(self, "entries", tuple(x for _, x in cells))
        object.__setattr__(self, "ctilde", cache(self._ctilde))

    def _ctilde(self, w, xi, order: int):
        """exp(h pi^2 B(xi, w)) for a point w of the dual space and integer
        coordinates xi over the dual basis."""
        return exp_hpi2(order, self.value(combine(xi, self.basis.vectors), w))

    def value(self, xi1, xi2) -> GRat:
        """B on arbitrary coefficient vectors (the Q-bilinear extension)."""
        return bilinear(
            self.poisson, [a.conj() for a in xi1], [b.conj() for b in xi2]
        )

    def on_coords(self, c1, c2) -> GRat:
        """B on integer coordinate vectors over the dual basis: the
        combination of the nonzero matrix entries B(xi^(k), xi^(m)) with
        the integer weights c1_k c2_m."""
        if not self.support:
            return GRAT_ZERO
        return combine([c1[k] * c2[m] for k, m in self.support], self.entries)[0]


def validate_torus(data: TorusData) -> dict:
    """Rank-2g real independence check plus the rank of Pi."""
    det = rat_det(data.pairing_rows())
    if det == 0:
        raise TorusError("lattice vectors are linearly dependent over R")
    return {
        "g": data.g,
        "period_det": det,
        "poisson_rank": grat_rank([list(r) for r in data.poisson]),
    }


def pairing(xi, v) -> GRat:
    """<xi, v> = sum_i xi_i conj(v_i); linear in xi, conjugate-linear in v."""
    acc = GRAT_ZERO
    for a, b in zip(xi, v):
        acc = acc + a * b.conj()
    return acc


def im_pairing(xi, v):
    """Im<xi, v> as a rational."""
    return pairing(xi, v).im


def dual_lattice(data: TorusData) -> DualLatticeBasis:
    """Exact basis of {xi : Im<xi, lambda_j> in Z}, integrally dual.

    Solves the real 2g x 2g pairing system over Q and verifies the
    defining congruences afterwards.
    """
    rows = data.pairing_rows()
    if rat_det(rows) == 0:
        raise TorusError("degenerate lattice")
    inv = rat_inverse(rows)
    g = data.g
    vectors = []
    for k in range(2 * g):
        col = [inv[r][k] for r in range(2 * g)]
        vec = tuple(GRat(col[i], col[g + i]) for i in range(g))
        vectors.append(vec)
    basis = DualLatticeBasis(tuple(vectors))
    for k, xi in enumerate(basis.vectors):
        for j, lam in enumerate(data.lattice):
            expected = 1 if j == k else 0
            if im_pairing(xi, lam) != expected:
                raise TorusError("dual basis verification failed")
    return basis


def bfield(data: TorusData) -> BForm:
    """B on the torus's dual lattice basis: the ``BForm`` of the Poisson
    bivector, the basis ``dual_lattice(data)`` and the matrix
    B(xi^(k), xi^(m)), contracted by ``bilinear`` on the conjugated basis
    vectors.  Built afresh on each call, so each caller's ``BForm`` holds
    its own ctilde and fiber-point memos."""
    basis = dual_lattice(data)
    conj = [[a.conj() for a in xi] for xi in basis.vectors]
    matrix = tuple(tuple(bilinear(data.poisson, x, y) for y in conj) for x in conj)
    return BForm(data.poisson, basis, matrix)


def gaussian_product_torus(g: int, poisson=None, order: int = 4) -> TorusData:
    """The product of g square elliptic curves (Gaussian lattices)."""
    lat = []
    for i in range(g):
        lat.append(tuple(GRat.of(1 if j == i else 0) for j in range(g)))
        lat.append(tuple(GRat.of(0, 1 if j == i else 0) for j in range(g)))
    if poisson is None:
        poisson = tuple(tuple(GRAT_ZERO for _ in range(g)) for _ in range(g))
    return TorusData(g, tuple(lat), poisson, order)
