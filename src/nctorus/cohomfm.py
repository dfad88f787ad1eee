"""Cohomological Fourier-Mukai transform on exterior-algebra models.

Torus cohomology is modeled over the Gaussian rationals on the real
lattice generators: 4g exterior generators, the first 2g (e_1..e_2g)
spanning H^1 of the torus and the last 2g (f_1..f_2g) spanning H^1 of
the dual, with the dual lattice basis normalized to be integrally dual.
In that normalization the first Chern class of the Poincare bundle is
the canonical pairing class c1 = sum_k e_k wedge f_k.

The transform wedges with exp(c1) and integrates out one block: the
coefficient of the ordered volume form of that block (generators
ascending; the e-block precedes the f-block) is extracted.  Composing
the two directions gives pullback-by-(-1) (which is (-1)^deg on H^deg)
times a per-degree sign; the table of those signs is emitted rather
than asserted.

``fm_hh2`` transports a Poisson bivector: write it in real lattice
coordinates, contract twice into exp(c1), read the pure dual-side
2-form, then take the (0,2) Hodge component using the complex structure
of the dual space (with the -4 normalization making the round trip
exact).  The result must equal the B-field matrix of the torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coeff import GRAT_ZERO, CoeffError, GRat, Q, bilinear
from .torus import TorusData, dual_lattice, gaussian_product_torus, pairing

__all__ = [
    "ExtClass",
    "c1_poincare",
    "exp_c1",
    "fm_transform",
    "fm_square_table",
    "fm_hh2",
    "ORIENTATION_NOTE",
]

ORIENTATION_NOTE = (
    "generators e1..e2g, f1..f2g; monomials ascending; volume coefficient "
    "taken against the ordered block"
)


@dataclass(frozen=True)
class ExtClass:
    """Element of the exterior algebra on 4g ordered generators."""

    ngen: int
    terms: tuple  # ((sorted index tuple, GRat), ...) sorted, no zeros

    @staticmethod
    def of(ngen: int, mapping: dict) -> "ExtClass":
        items = tuple(sorted((m, c) for m, c in mapping.items() if c))
        return ExtClass(ngen, items)

    @staticmethod
    def zero(ngen: int) -> "ExtClass":
        return ExtClass(ngen, ())

    @staticmethod
    def unit(ngen: int) -> "ExtClass":
        return ExtClass.of(ngen, {(): GRat.of(1)})

    def __add__(self, other: "ExtClass") -> "ExtClass":
        acc = dict(self.terms)
        for m, c in other.terms:
            s = acc.get(m)
            acc[m] = c if s is None else s + c
        return ExtClass.of(self.ngen, acc)

    def scale(self, c: GRat) -> "ExtClass":
        if not c:
            return ExtClass.zero(self.ngen)
        return ExtClass(self.ngen, tuple((m, x * c) for m, x in self.terms))

    def wedge(self, other: "ExtClass") -> "ExtClass":
        acc: dict = {}
        for m1, c1 in self.terms:
            s1 = set(m1)
            for m2, c2 in other.terms:
                if s1 & set(m2):
                    continue
                mono, sign = _merge_sign(m1, m2)
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = acc.get(mono)
                acc[mono] = c if s is None else s + c
        return ExtClass.of(self.ngen, acc)

    def contract(self, index: int) -> "ExtClass":
        """Interior product with the vector dual to generator ``index``."""
        acc: dict = {}
        for m, c in self.terms:
            if index in m:
                pos = m.index(index)
                mono = m[:pos] + m[pos + 1 :]
                if pos % 2:
                    c = -c
                s = acc.get(mono)
                acc[mono] = c if s is None else s + c
        return ExtClass.of(self.ngen, acc)


def _merge_sign(m1, m2):
    """Merge two disjoint sorted tuples; sign counts transpositions."""
    out = []
    i = j = 0
    sign = 1
    while i < len(m1) and j < len(m2):
        if m1[i] < m2[j]:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            if (len(m1) - i) % 2:
                sign = -sign
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out), sign


def c1_poincare(torus: TorusData) -> ExtClass:
    """c1 of the Poincare bundle: the duality pairing class sum e_k f_k."""
    n = 4 * torus.g
    two_g = 2 * torus.g
    return ExtClass.of(
        n, {(k, two_g + k): GRat.of(1) for k in range(two_g)}
    )


def exp_c1(torus: TorusData) -> ExtClass:
    c1 = c1_poincare(torus)
    acc = ExtClass.unit(4 * torus.g)
    term = ExtClass.unit(4 * torus.g)
    for k in range(1, 2 * torus.g + 1):
        term = term.wedge(c1).scale(GRat.of(Q(1, k)))
        acc = acc + term
    return acc


def _integrate_block(element: ExtClass, block) -> ExtClass:
    """Coefficient of the full ordered block; keeps the complement.

    Reordering a monomial into (block)(rest) takes one transposition per
    pair j < k with j in the rest and k in the block.  For the two blocks
    ``fm_transform`` integrates that count is even, so no sign enters:
    no index precedes the e-block, and every index of the rest precedes
    each of the 2g indices of the f-block, 2g * len(rest) pairs."""
    bset = set(block)
    acc: dict = {}
    for m, c in element.terms:
        rest = tuple(k for k in m if k not in bset)
        if len(m) - len(rest) != len(block):
            continue
        s = acc.get(rest)
        acc[rest] = c if s is None else s + c
    return ExtClass.of(element.ngen, acc)


def fm_transform(alpha: ExtClass, torus: TorusData, reverse: bool = False) -> ExtClass:
    """p_*(exp(c1) wedge alpha), integrating the e-block (or, reversed,
    the f-block); degree d goes to 2g - d on the other side."""
    two_g = 2 * torus.g
    block = tuple(range(two_g)) if not reverse else tuple(range(two_g, 4 * torus.g))
    return _integrate_block(exp_c1(torus).wedge(alpha), block)


def fm_square_table(g: int) -> dict:
    """Compose the two transforms on every basis class alpha of degree d
    and read the sign s with composite(alpha) == s * (-1)^d * alpha, or
    None when the composite is no such multiple.

    Returns {"table": {degree: sign}, "status": "PASS"|"FAIL",
    "orientation": ...}; ``table[d]`` is the first sign of degree d that
    is not None.  PASS means every class has the sign (-1)^g: Mukai's
    inversion, the composite is (-1)^g [-1]^* on cohomology.
    """
    if g > 3:
        raise CoeffError("fm_square_table is intended for g <= 3")
    torus = gaussian_product_torus(g, order=2)
    n = 4 * g
    table, signs = {}, []
    for d in range(2 * g + 1):
        found = []
        for mono in combinations(range(2 * g), d):
            alpha = ExtClass.of(n, {mono: GRat.of(1)})
            out = fm_transform(fm_transform(alpha, torus), torus, reverse=True)
            found.append(next((s for s in (1, -1) if out == alpha.scale(GRat.of(s * (-1) ** d))), None))
        table[d] = next((s for s in found if s is not None), None)
        signs += found
    return {
        "table": table,
        "status": "PASS" if all(s == (-1) ** g for s in signs) else "FAIL",
        "orientation": ORIENTATION_NOTE,
    }


def fm_hh2(poisson, torus: TorusData) -> tuple:
    """Transport a Poisson bivector through exp(c1) and take the (0,2)
    component on the dual side; returns the 2g x 2g GRat matrix on the
    dual lattice basis.  Equality with ``bfield`` is the executable
    content of the HH^2 matching.
    """
    basis = dual_lattice(torus)
    g = torus.g
    two_g = 2 * g
    n = 4 * g

    # real coordinates: t_k(v) = Im<xi^(k), v>; for the standard complex
    # basis u_i this is Im(xi^(k)_i)
    treal = [[GRat(e.im, Q(0)) for e in xi] for xi in basis]
    # Pi in real lattice coordinates, extended C-linearly: a complex
    # bivector transports as its real and imaginary parts do
    preal = [[bilinear(poisson, ta, tb) for tb in treal] for ta in treal]

    # contract twice into exp(c1); keep the pure dual-side 2-form
    ec = exp_c1(torus)
    transported = ExtClass.zero(n)
    for a in range(two_g):
        for b in range(a + 1, two_g):
            w = preal[a][b]
            if not w:
                continue
            piece = ec.contract(b).contract(a)
            pure = ExtClass(
                n, tuple((m, c) for m, c in piece.terms if len(m) == 2 and m[0] >= two_g)
            )
            transported = transported + pure.scale(w)
    # read the dual-basis matrix E[k][m] of the transported real 2-form
    emat = [[GRAT_ZERO] * two_g for _ in range(two_g)]
    for m, c in transported.terms:
        k1, k2 = m[0] - two_g, m[1] - two_g
        emat[k1][k2] = c
        emat[k2][k1] = -c

    # (0,2) Hodge component: for each dual basis vector xi, the
    # anti-holomorphic projection has real coordinates
    # (rvec(xi) + i rvec(i xi)) / 2; B = -4 E(xi^{01}, eta^{01})
    def rvec(eta):
        return [pairing(eta, lam).im for lam in torus.lattice]

    proj = []
    for k in range(two_g):
        xi = basis[k]
        r1 = rvec(xi)
        r2 = rvec(tuple(GRat(-a.im, a.re) for a in xi))  # i * xi
        proj.append([GRat(Q(r1[j], 2), Q(r2[j], 2)) for j in range(two_g)])

    return tuple(
        tuple(bilinear(emat, proj[k], proj[m]).scale(Q(-4)) for m in range(two_g))
        for k in range(two_g)
    )
