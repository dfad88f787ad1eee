"""The Heisenberg extension of the dual lattice by units.

Group elements are pairs (xi, z) with xi an integer coordinate vector
over the dual lattice basis and z an invertible scalar; the law is

    (xi, z) . (xi', z') = (xi + xi', z z' c(xi, xi'))

with the 2-cocycle c(xi, xi') = exp(h pi^2 B(xi', xi)), expanded in
closed form by ``coeff.exp_hpi2``.  The extension ctilde(w, xi) =
exp(h pi^2 B(xi, w)) takes an arbitrary exact base point w (a Gaussian-
rational coefficient vector in the dual space) and, when w is the
lattice point with coordinates xi1, equals c(xi1, xi).

Functions on a fiber F_s = s + dual lattice are finite windows of scalar
values; (xi, z) acts with central weight -1 by

    (rho_(xi,z) f)_w = z^{-1} ctilde(w, xi) f_{w - xi}.

The module also holds the gerbe's checked identities, as predicates
``(B, order, ..., case) -> bool`` over one case each: the 2-cocycle
identity, the group law, rho composition, ctilde's restriction and
additivity, and the cocycle against ``series_exp``, run by
``checks.check_cases`` on cases from ``checks.sample_window``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import coordinate_window
from .coeff import CIRCLE_ONE, CoeffError, HbarSeries, PiPoly, Scalar, combine, exp_hpi2, series_exp
from .torus import BForm

__all__ = [
    "GammaElement",
    "FiberFunction",
    "heisenberg_cocycle",
    "gamma_mul",
    "gamma_inverse",
    "ctilde",
    "rho_act",
    "coordinate_window",  # re-exported: the acceptance tests and perfbench import it from here
    "cocycle_identity",
    "group_law",
    "rho_composes",
    "ctilde_extends",
    "cocycle_expands",
]


@dataclass(frozen=True)
class GammaElement:
    """(xi, z): integer dual coordinates plus an invertible central part."""

    xi: tuple  # integers over the dual basis
    z: Scalar

    @staticmethod
    def identity(rank: int, order: int) -> "GammaElement":
        return GammaElement((0,) * rank, Scalar.one(order))


def heisenberg_cocycle(B: BForm, xi, xi2, order: int) -> Scalar:
    """c(xi, xi') = exp(h pi^2 B(xi', xi)) on integer dual coordinates."""
    return exp_hpi2(order, B.on_coords(xi2, xi))


def _add(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def gamma_mul(a: GammaElement, b: GammaElement, B: BForm, order: int) -> GammaElement:
    if len(a.xi) != len(b.xi):
        raise CoeffError("dual coordinate ranks differ")
    return GammaElement(_add(a.xi, b.xi), a.z * b.z * heisenberg_cocycle(B, a.xi, b.xi, order))


def gamma_inverse(a: GammaElement) -> GammaElement:
    """(xi, z)^(-1) = (-xi, z^(-1)): the product (xi, z)(-xi, z^(-1)) has
    central part c(xi, -xi) = exp(-h pi^2 B(xi, xi)), which is 1 because B
    is antisymmetric."""
    return GammaElement(tuple(-x for x in a.xi), a.z.inverse())


def ctilde(w, xi, B: BForm, order: int) -> Scalar:
    """Multiplicative extension of c to arbitrary exact base points:
    ctilde(w, xi) = exp(h pi^2 B(xi, w)), with w a GRat coefficient
    vector in the dual space and xi integer dual coordinates.  Computed
    once per (w, xi, order) by the memo ``B.ctilde`` that the form holds;
    rho and the section check call it through this name."""
    return B.ctilde(w, xi, order)


@dataclass(frozen=True)
class FiberFunction:
    """Finitely supported function on F_s = s + dual lattice.

    Keys are integer offset tuples n; the actual point is
    w_n = s + sum_k n_k xi^(k).  Values are scalars.
    """

    base: tuple  # GRat coefficient vector of s
    values: tuple  # sorted ((offset tuple, Scalar), ...)

    @staticmethod
    def of(base, mapping: dict) -> "FiberFunction":
        return FiberFunction(tuple(base), tuple(sorted(mapping.items())))


def rho_act(a: GammaElement, f: FiberFunction, B: BForm, order: int) -> FiberFunction:
    """The weight (-1) action: (rho f)_w = z^{-1} ctilde(w, xi) f_{w-xi}."""
    vals = dict(f.values)
    out = {}
    zinv = a.z.inverse()
    for offset in vals:
        src = tuple(o - x for o, x in zip(offset, a.xi))
        if src not in vals:
            continue  # the window shrinks by the shift
        w = B.basis.point(f.base, offset)
        out[offset] = zinv * ctilde(w, a.xi, B, order) * vals[src]
    if vals and not out:
        raise CoeffError("fiber window too small for this shift")
    return FiberFunction.of(f.base, out)


def cocycle_identity(B: BForm, order: int, case) -> bool:
    """c(a, b) c(a + b, c) = c(b, c) c(a, b + c) at the triple (a, b, c)."""
    a, b, c = case
    lhs = heisenberg_cocycle(B, a, b, order) * heisenberg_cocycle(B, _add(a, b), c, order)
    return lhs == heisenberg_cocycle(B, b, c, order) * heisenberg_cocycle(B, a, _add(b, c), order)


def group_law(B: BForm, order: int, case) -> bool:
    """Associativity at three elements (a, b, c), and a a^(-1) = 1."""
    a, b, c = case
    if gamma_mul(gamma_mul(a, b, B, order), c, B, order) != gamma_mul(a, gamma_mul(b, c, B, order), B, order):
        return False
    return gamma_mul(a, gamma_inverse(a), B, order) == GammaElement.identity(len(a.xi), order)


def rho_composes(B: BForm, order: int, base, compare, case) -> bool:
    """rho_b rho_a f = rho_(b a) f at the offsets ``compare`` of the fiber
    over ``base``, for the pair ``case`` = (a, b) of (xi, z) pairs.

    f is 1 on a support built to contain exactly the shifts both routes
    need; a pair with no compared offset left on both sides fails.
    """
    a, b = (GammaElement(*e) for e in case)
    neg_a, neg_b = (tuple(-x for x in e.xi) for e in (a, b))
    shifts = (neg_a, neg_b, _add(neg_a, neg_b))
    support = set(compare).union(_add(o, t) for o in compare for t in shifts)
    f = FiberFunction.of(base, {o: Scalar.one(order) for o in support})
    dl = dict(rho_act(b, rho_act(a, f, B, order), B, order).values)
    dr = dict(rho_act(gamma_mul(b, a, B, order), f, B, order).values)
    common = (set(dl) & set(dr)) & set(compare)
    return bool(common) and all(dl[o] == dr[o] for o in common)


def ctilde_extends(B: BForm, order: int, case) -> bool:
    """At ``case`` = (xi1, xi2, w): ctilde at the lattice point xi1 is
    c(xi1, xi2), and ctilde(w, .) is additive, ctilde(w, xi1 + xi2) =
    ctilde(w, xi1) ctilde(w, xi2)."""
    x1, x2, w = case
    if ctilde(combine(x1, B.basis.vectors), x2, B, order) != heisenberg_cocycle(B, x1, x2, order):
        return False
    return ctilde(w, _add(x1, x2), B, order) == ctilde(w, x1, B, order) * ctilde(w, x2, B, order)


def cocycle_expands(B: BForm, order: int, case) -> bool:
    """c(xi1, xi2) at ``case`` = (xi1, xi2) against the Taylor series of
    exp(h pi^2 B(xi2, xi1)), not against the closed form it is computed by."""
    x1, x2 = case
    log = HbarSeries.of(order, {1: PiPoly.pi_power(2, B.on_coords(x2, x1))})
    return heisenberg_cocycle(B, x1, x2, order) == Scalar(CIRCLE_ONE, series_exp(log))
