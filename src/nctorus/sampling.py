"""Seeded random data for the verification suites.

Everything here is driven by an explicit ``random.Random`` so that suite
reports are reproducible run over run; the CLI uses fixed seeds and the
test suite reuses the same generators.
"""

from __future__ import annotations

from math import gcd

from .coeff import CircleConst, GRat, HbarSeries, PiPoly, Q, Scalar
from .picard import NSData, QAHData, Semicharacter
from .torus import TorusData, gaussian_product_torus

__all__ = [
    "random_rational",
    "random_grat",
    "random_unit_scalar",
    "random_quantizable_ns",
    "random_semicharacter",
    "random_qah",
    "gaussian_product_torus",
]


def random_rational(rng):
    return Q(rng.randint(-2, 2), rng.randint(1, 2))


def random_grat(rng) -> GRat:
    return GRat(random_rational(rng), random_rational(rng))


def random_unit_scalar(rng, order: int) -> Scalar:
    """A random invertible scalar with nontrivial series tail."""
    coeffs = {0: PiPoly.const(_nonzero_grat(rng))}
    for k in range(1, order):
        if rng.random() < 0.7:
            coeffs[k] = PiPoly.of(
                {rng.randint(0, 2): random_grat(rng)}
            )
    unit = CircleConst.of(Q(rng.randint(0, 7), 4))
    return Scalar.of(unit, HbarSeries.of(order, coeffs))


def _nonzero_grat(rng) -> GRat:
    while True:
        c = random_grat(rng)
        if c:
            return c


def random_quantizable_ns(rng, torus: TorusData) -> NSData:
    """Random rank <= 1 Hermitian form with integral Im on the lattice
    (these are exactly the unobstructed classes for a rank-2 bivector)."""
    g = torus.g
    a = tuple(random_grat(rng) for _ in range(g))
    h = [[a[i] * a[j].conj() for j in range(g)] for i in range(g)]
    ns = NSData(tuple(tuple(row) for row in h))
    den = 1
    for li in torus.lattice:
        for lj in torus.lattice:
            d = ns.value(li, lj).im.denominator
            den = den * d // gcd(den, int(d))
    if den != 1:
        ns = NSData(tuple(tuple(e.scale(Q(den)) for e in row) for row in h))
    return ns


def random_semicharacter(rng, torus: TorusData) -> Semicharacter:
    return Semicharacter(
        tuple(CircleConst.of(Q(rng.randint(0, 7), 4)) for _ in range(2 * torus.g))
    )


def random_qah(rng, torus: TorusData) -> QAHData:
    """Random valid quantum Appell-Humbert data on the torus."""
    ns = random_quantizable_ns(rng, torus)
    chi = random_semicharacter(rng, torus)
    l = tuple(
        tuple(random_grat(rng) for _ in range(torus.g)) for _ in range(torus.order - 1)
    )
    return QAHData(ns, chi, l)
