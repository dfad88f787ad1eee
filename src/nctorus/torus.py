"""Complex torus data: period lattice, dual lattice, pairings, B-field.

A torus is V/Lambda with V = C^g and Lambda spanned by 2g vectors with
Gaussian-rational coordinates.  The dual lattice lives in the space of
conjugate-linear functionals xi, stored by the coefficient vectors of

    <xi, v> = sum_i xi_i * conj(v_i)

(linear in xi, conjugate-linear in v).  Duality is integrality of
Im<xi, lambda>; the dual basis is normalized so Im<xi^(k), lambda_j> is
the identity matrix.  ``dual_lattice(torus)`` owns that basis: the 2g
vectors, solved once per torus and memoized.

The B-field transports a constant Poisson bivector Pi to the dual side:

    B(xi1, xi2) = Pi contracted with conj(xi1) wedge conj(xi2)
                = sum_ij Pi[i][j] conj(xi1_i) conj(xi2_j),

an alternating biadditive form, zero when g = 1 or Pi = 0.  ``BForm``
holds it with the dual basis and owns what is read off that basis: the
dual points xi(x) = sum_k x_k xi^(k), the fiber points of F_s = s +
dual lattice, and the Heisenberg extension ctilde.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .coeff import GRAT_ZERO, CoeffError, GRat, bilinear, combine, exp_hpi2
from .linalg import grat_rank, rat_det, rat_inverse

__all__ = [
    "TorusData",
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
class BForm:
    """The transported bivector as a bilinear form on dual coefficient
    vectors, with its matrix on the dual lattice basis precomputed.

    Owns the memos read off the basis, each computed once per argument:
    ``xi(x)``, the dual point sum_k x_k xi^(k) of integer coordinates x,
    read by the Poincare factor and ``gerbe.ctilde_extends``;
    ``point(base, offset)``, the point w =
    base + xi(offset) of the fiber F_base, read by ``gerbe.rho_act`` and
    the section check; and ``ctilde(w, xi, order)``, the Heisenberg
    extension that ``gerbe.ctilde`` reads."""

    poisson: tuple
    basis: tuple  # the 2g vectors xi^(k) of ``dual_lattice``
    matrix: tuple  # 2g x 2g GRat values B(xi^(k), xi^(m))
    # the nonzero entries: their (k, m) and, for ``combine``, their 1-vectors
    support: tuple = field(init=False, repr=False, compare=False)
    entries: tuple = field(init=False, repr=False, compare=False)
    xi: object = field(init=False, repr=False, compare=False)
    point: object = field(init=False, repr=False, compare=False)
    ctilde: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = [((k, m), (x,)) for k, row in enumerate(self.matrix) for m, x in enumerate(row) if x]
        object.__setattr__(self, "support", tuple(km for km, _ in cells))
        object.__setattr__(self, "entries", tuple(x for _, x in cells))
        object.__setattr__(self, "xi", cache(self._xi))
        object.__setattr__(self, "point", cache(self._point))
        object.__setattr__(self, "ctilde", cache(self._ctilde))

    def _xi(self, x) -> tuple:
        return combine(x, self.basis)

    def _point(self, base, offset) -> tuple:
        return tuple(a + b for a, b in zip(base, self.xi(offset)))

    def _ctilde(self, w, xi, order: int):
        """exp(h pi^2 B(xi, w)) for a point w of the dual space and integer
        coordinates xi over the dual basis."""
        return exp_hpi2(order, self.value(self.xi(xi), w))

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


@cache
def dual_lattice(data: TorusData) -> tuple:
    """Exact basis of {xi : Im<xi, lambda_j> in Z}, integrally dual: the
    2g vectors xi^(k) with Im<xi^(k), lambda_j> = delta_kj.

    One elimination inverts the real 2g x 2g pairing system over Q; the
    defining congruences are verified afterwards.  Memoized: a pure
    function of frozen data, so every ``bfield`` of one torus, and
    ``fm_hh2``, read one basis.
    """
    try:
        inv = rat_inverse(data.pairing_rows())
    except ZeroDivisionError:
        raise TorusError("degenerate lattice") from None
    g = data.g
    basis = tuple(tuple(GRat(inv[i][k], inv[g + i][k]) for i in range(g)) for k in range(2 * g))
    for k, xi in enumerate(basis):
        for j, lam in enumerate(data.lattice):
            if pairing(xi, lam).im != (1 if j == k else 0):
                raise TorusError("dual basis verification failed")
    return basis


def bfield(data: TorusData) -> BForm:
    """B on the torus's dual lattice basis: the ``BForm`` of the Poisson
    bivector, the basis ``dual_lattice(data)`` and the matrix
    B(xi^(k), xi^(m)), contracted by ``bilinear`` on the conjugated basis
    vectors.  Built afresh on each call around the one memoized basis, so
    each caller's ``BForm`` holds its own xi, fiber-point and ctilde
    memos."""
    basis = dual_lattice(data)
    conj = [[a.conj() for a in xi] for xi in basis]
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
