"""Classical and quantum Appell-Humbert theory on the lattice.

Line bundles are handled through factors of automorphy: maps e from a
group of deck transformations to invertible elements of the function
algebra, subject to the left cocycle condition

    e(u1 u2) = e(u2) * (e(u1) . u2)

with the star product and the translation action of the group on
values.  ``cocycle_defect`` returns e(u1 u2)^{-1} * e(u2) * (e(u1).u2),
which equals 1 exactly when the condition holds at the pair.

The classical factor for Neron-Severi data (H, chi) is

    chi(lam) exp(pi H(v, lam) + (pi/2) H(lam, lam)),

and the first-order obstruction to quantizing it along a constant
Poisson structure is the group 2-cocycle (lam1, lam2) -> {h_lam2, h_lam1}
with h_lam = pi H(., lam).  When that vanishes, every series
l(h) = sum_j h^j l_j of conjugate-linear functionals yields the quantum
factor

    chi(lam) exp(pi H(v,lam) + (pi/2) H(lam,lam) + sum_j h^j pi <l_j, lam>)

which is an exact noncommutative cocycle.  ``reduce_to_qah`` inverts
this parameterization on exponential-class cocycles, recovering the data
and the (unique, normalized) coboundary witness.

Semicharacter validity follows the classical definition: the stored
generator values always extend along chi(lam+mu) = chi(lam) chi(mu)
exp(pi i Im H(lam, mu)), and validity is exactly integrality of
Im H on lattice pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import comb, lcm

from .checks import coordinate_window, sample_window
from .coeff import (
    GRAT_ZERO,
    CircleConst,
    CoeffError,
    GRat,
    HbarSeries,
    PiPoly,
    Scalar,
    _circle,
    _reduced,
    bilinear,
    combine,
    exp_decompose,
)
from .expalg import (
    ExpSum,
    LinForm,
    Slot,
    SlotSpec,
    star_inverse,
    translate,
    translation,
)
from .linalg import grat_solve, rat_solve
from .torus import TorusData, pairing

__all__ = [
    "NSData",
    "Semicharacter",
    "QAHData",
    "Factor",
    "LatticeGroup",
    "lattice_slotspec",
    "validate_ns",
    "validate_semicharacter",
    "semicharacter_value",
    "qah_factor",
    "obstruction0",
    "is_quantizable",
    "cocycle_defect",
    "cocycle_holds",
    "coboundary_twist",
    "extension_obstruction",
    "reduce_to_qah",
    "quotient",
    "classify_cohomology",
    "CohomologyVerdict",
]


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class NSData:
    """Hermitian g x g matrix; H(v, w) = sum H[i][j] v_i conj(w_j)."""

    matrix: tuple

    def value(self, v, w) -> GRat:
        return bilinear(self.matrix, v, [b.conj() for b in w])

    def half_norm(self, lam) -> GRat:
        """H(lam, lam)/2, real: the factor's constant (pi/2) H(lam, lam)
        is pi times it."""
        hll = self.value(lam, lam)
        if hll.m:
            raise CoeffError("H(lam, lam) must be real for Hermitian H")
        return _reduced(hll.n, 0, 2 * hll.d)

    def row_form(self, lam) -> tuple:
        """Coefficient vector of v -> H(v, lam) (the pi-cofactor of h_lam)."""
        g = len(self.matrix)
        return tuple(
            sum(
                (self.matrix[i][j] * lam[j].conj() for j in range(g) if self.matrix[i][j] and lam[j]),
                GRAT_ZERO,
            )
            for i in range(g)
        )

    def is_hermitian(self) -> bool:
        g = len(self.matrix)
        return all(
            self.matrix[j][i] == self.matrix[i][j].conj()
            for i in range(g)
            for j in range(g)
        )


@dataclass(frozen=True)
class Semicharacter:
    """Values of chi on the 2g lattice generators, as circle constants."""

    values: tuple  # 2g CircleConst


@dataclass(frozen=True)
class QAHData:
    """((H, chi), l(h)): quantum Appell-Humbert data."""

    ns: NSData
    chi: Semicharacter
    l: tuple  # entries: dual coefficient vectors for h^1 .. h^{order-1}


@cache
def lattice_slotspec(torus: TorusData) -> SlotSpec:
    """The one slot v of the torus, Moyal along its Poisson bivector.

    Memoized: a pure function of frozen data, so every lattice factor
    over one torus shares one ``SlotSpec`` object, as ``star``'s identity
    check of the operands' specs needs."""
    return SlotSpec((Slot("v", torus.g, poisson=torus.poisson),), torus.order)


# ---------------------------------------------------------------------------
# groups and factors


@dataclass(frozen=True)
class LatticeGroup:
    """Z^{2g} in generator coordinates, acting by lattice translations."""

    torus: TorusData
    spec: SlotSpec

    @property
    def rank(self) -> int:
        return 2 * self.torus.g

    def compose(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def act(self, value: ExpSum, a) -> ExpSum:
        return translate(value, translation(value.spec, {"v": combine(a, self.torus.lattice)}))

    def window(self, radius: int = 1):
        return coordinate_window(self.rank, radius)


@dataclass(frozen=True)
class Factor:
    """A factor of automorphy: group model plus evaluation map."""

    group: object
    fn: object

    def value(self, element) -> ExpSum:
        return self.fn(element)

    def cached(self) -> "Factor":
        """Memoize evaluations (elements must be hashable)."""
        return Factor(self.group, cache(self.fn))


def lattice_pairs(grp: LatticeGroup, radius: int = 1):
    """Window pairs for the cocycle check (policy: ``checks.sample_window``)."""
    return sample_window([grp.window(radius)] * 2, 20000, 2, 300, random.Random(171))


def _cocycle_sides(factor: Factor, e1, e2):
    """(e(e1 e2), e(e2) * (e(e1) . e2)): the two sides of the left cocycle
    condition at a pair."""
    grp = factor.group
    lhs = factor.value(grp.compose(e1, e2))
    return lhs, factor.value(e2).star(grp.act(factor.value(e1), e2))


def cocycle_defect(factor: Factor, e1, e2) -> ExpSum:
    """e(e1 e2)^{-1} * e(e2) * (e(e1) . e2); equals 1 iff the left cocycle
    condition holds at this pair."""
    lhs, rhs = _cocycle_sides(factor, e1, e2)
    return star_inverse(lhs).star(rhs)


def cocycle_holds(factor: Factor, e1, e2) -> bool:
    """Equality form of the defect-is-one check (no inversions)."""
    lhs, rhs = _cocycle_sides(factor, e1, e2)
    return lhs == rhs


def coboundary_twist(factor: Factor, u: ExpSum) -> Factor:
    """e'(el) = u^{-1} * e(el) * (u . el): the twisted, cohomologous factor."""
    grp = factor.group
    uinv = star_inverse(u)
    return Factor(
        grp, lambda e: uinv.star(factor.value(e)).star(grp.act(u, e))
    )


# ---------------------------------------------------------------------------
# Neron-Severi data and semicharacters


@cache
def _im_table(ns: NSData, torus: TorusData) -> tuple:
    """E = Im H on the lattice generators, rows of rationals: entry (k, m)
    is Im H(lam_k, lam_m).

    Memoized: a pure function of frozen data, read by ``validate_ns`` and
    by ``semicharacter_value`` at every lattice point."""
    lat = torus.lattice
    return tuple(tuple(ns.value(a, b).im for b in lat) for a in lat)


def validate_ns(ns: NSData, torus: TorusData) -> bool:
    """Hermitian plus Im H(lambda_i, lambda_j) in Z on generator pairs."""
    if not ns.is_hermitian():
        raise CoeffError("matrix is not Hermitian")
    return all(e.denominator == 1 for row in _im_table(ns, torus) for e in row)


def semicharacter_value(ns: NSData, chi: Semicharacter, torus: TorusData, coords) -> CircleConst:
    """chi extended to generator coordinates in a fixed generator order:

    chi(sum n_k lam_k) = prod chi_k^{n_k} * exp(pi i sum_{k<l} n_k n_l E_kl)

    with E = Im H on generators, read from the memo ``_im_table(ns,
    torus)``, so it is built once per (H, torus).  This is the unique
    extension satisfying the semicharacter identity once Im H is integral.
    """
    imt = _im_table(ns, torus)
    # the angle is num/den, summed on integers over one common denominator
    values = chi.values
    den = lcm(*(c.d for c in values), *(e.denominator for row in imt for e in row))
    num = 0
    for k, n in enumerate(coords):
        if n:
            c = values[k]
            num += c.n * (den // c.d) * n
            for m in range(k + 1, len(coords)):
                if coords[m]:
                    e = imt[k][m]
                    num += e.numerator * (den // e.denominator) * n * coords[m]
    return _circle(num, den)


def validate_semicharacter(ns: NSData, chi: Semicharacter, torus: TorusData) -> bool:
    """True iff Im H is integral on the lattice and the extended chi
    satisfies the semicharacter identity

        chi(a+b) = chi(a) chi(b) exp(pi i Im H(lam_a, lam_b))

    on all lattice pairs.  The identity follows from integrality, so this
    is ``validate_ns``.

    Proof.  Write E = Im H on generators; it is antisymmetric because H
    is Hermitian.  For integer coordinates a and b, ``semicharacter_value``
    gives chi(a+b) the exponent sum_k chi_k (a_k + b_k) + sum_{k<m}
    (a_k + b_k)(a_m + b_m) E_km, and the right side has the exponent of
    chi(a) plus that of chi(b) plus sum_{k,m} a_k b_m E_km.  Their
    difference is sum_{k<m} (a_k b_m + b_k a_m) E_km - sum_{k,m} a_k b_m
    E_km = 2 sum_{k<m} a_m b_k E_km, using E_kk = 0 and E_mk = -E_km.  So
    the two sides differ by exp(pi i * 2 sum_{k<m} a_m b_k E_km), which is
    1 when E is integral.
    """
    return validate_ns(ns, torus)


# ---------------------------------------------------------------------------
# the factors


def l_series(lseries, lam, order: int):
    """sum_j h^j pi <l_j, lam> as an h-series, or None when every term is 0."""
    coeffs = {}
    for j, lj in enumerate(lseries, start=1):
        val = pairing(lj, lam)
        if val:
            coeffs[j] = PiPoly.pi_power(1, val)
    return HbarSeries.of(order, coeffs) if coeffs else None


def _ah_factor(ns: NSData, chi: Semicharacter, lseries, torus: TorusData) -> Factor:
    """lam -> chi(lam) E(pi H(v,lam) + (pi/2) H(lam,lam) + sum_j h^j pi <l_j,lam>),
    over the torus's ``lattice_slotspec``; with ``lseries`` empty, the
    classical Appell-Humbert factor.  A non-Hermitian H is refused here,
    as ``validate_ns`` refuses it, not at the first evaluation."""
    if not ns.is_hermitian():
        raise CoeffError("matrix is not Hermitian")
    spec = lattice_slotspec(torus)

    def fn(coords):
        unit = semicharacter_value(ns, chi, torus, coords)
        lam = combine(coords, torus.lattice)
        form = LinForm((ns.row_form(lam),), ns.half_norm(lam), l_series(lseries, lam, spec.order))
        return ExpSum.exponential(spec, form, Scalar.from_circle(spec.order, unit))

    return Factor(LatticeGroup(torus, spec), fn)


def qah_factor(data: QAHData, torus: TorusData) -> Factor:
    """The quantum Appell-Humbert cocycle; requires vanishing obstruction."""
    if not is_quantizable(data.ns, torus):
        raise CoeffError("obstructed Neron-Severi class cannot be quantized")
    return _ah_factor(data.ns, data.chi, data.l, torus)


# ---------------------------------------------------------------------------
# obstruction theory


@cache
def obstruction0(ns: NSData, torus: TorusData):
    """Matrix of {h_lam_j, h_lam_i} on generator pairs (i row, j column):
    entry (i, j) is the obstruction value at the pair (lam_i, lam_j),
    a pi^2 multiple as a PiPoly.

    Memoized: a pure function of frozen data, read by the quantizable
    suite, ``is_quantizable``, ``qah_factor`` and ``reduce_to_qah``."""
    rows = [ns.row_form(lam) for lam in torus.lattice]
    n = len(rows)
    out = []
    for i in range(n):
        line = []
        for j in range(n):
            val = bilinear(torus.poisson, rows[j], rows[i])
            line.append(PiPoly.pi_power(2, val))
        out.append(tuple(line))
    return tuple(out)


def is_quantizable(ns: NSData, torus: TorusData) -> bool:
    """ob_0 vanishes identically on generator pairs."""
    return not any(p for row in obstruction0(ns, torus) for p in row)


def extension_obstruction(factor: Factor, n: int):
    """Order-(n+1) defect table of a factor satisfying the cocycle
    condition modulo h^{n+1}.

    Returns {(a, b): PiPoly} on window pairs; verifies the group-cocycle
    closedness delta(ob) = 0 on window triples.  Raises if the factor has
    a defect at some order <= n.
    """
    grp = factor.group
    pairs = sample_window([grp.window()] * 2, 4000, 2, 0, None, per_part=True)
    win = list(dict.fromkeys(a for a, _ in pairs))
    table = {}
    for a, b in pairs:
        d = cocycle_defect(factor, a, b)
        t = d.single_term()
        if any(c for s in t.form.coeffs for c in s) or t.form.const_pi:
            raise CoeffError("defect is not scalar: not a cocycle mod h")
        if not t.coeff.unit.is_one():
            raise CoeffError("defect has a unit part: not a cocycle mod h")
        series = t.coeff.series
        if series.coeffs[0] != PiPoly.pi_power(0):
            raise CoeffError("defect does not reduce to 1 mod h")
        for k in range(1, min(n + 1, series.order)):
            if series.coeffs[k]:
                raise CoeffError(
                    f"defect already present at order h^{k} <= h^{n}"
                )
        table[(a, b)] = (
            series.coeffs[n + 1] if n + 1 < series.order else PiPoly.pi_power(0, GRAT_ZERO)
        )
    # closedness on triples whose partial sums stay inside the window
    win_set = set(win)
    for a in win:
        for b in win:
            ab = grp.compose(a, b)
            if ab not in win_set:
                continue
            for c in win:
                bc = grp.compose(b, c)
                if bc not in win_set:
                    continue
                delta = (
                    table[(b, c)]
                    - table[(ab, c)]
                    + table[(a, bc)]
                    - table[(a, b)]
                )
                if delta:
                    raise CoeffError("obstruction table is not a 2-cocycle")
    return table


# ---------------------------------------------------------------------------
# canonicalization


def reduce_to_qah(factor: Factor, torus: TorusData):
    """Canonicalize an exponential-class lattice cocycle.

    Returns (QAHData, witness) with

        factor(el) = witness^{-1} * qah(el) * (witness . el)

    exactly on the radius-1 window; the witness is the normalized single
    exponential E(pi b.v).  H comes from the v-linear parts and b from the
    residual real constants; chi and the l-series are then read off the
    scalars of ``coboundary_twist(factor, witness^{-1})``, the twist that
    takes the factor back to qah.  Raises when the input is not
    cohomologous to quantum Appell-Humbert data within the exponential
    class.
    """
    grp = factor.group
    g = torus.g
    spec = grp.spec
    n = 2 * g
    gens = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    terms = [factor.value(e).single_term() for e in gens]

    # H from the v-linear parts: a_j = H(. , lam_j)
    lat = torus.lattice
    conj_lat = [[c.conj() for c in lam] for lam in lat]
    hmat = []
    for i in range(g):
        row = grat_solve(conj_lat, [t.form.coeffs[0][i] for t in terms])
        if row is None:
            raise CoeffError("v-linear parts are not Neron-Severi consistent")
        hmat.append(row)
    ns = NSData(tuple(hmat))
    if not validate_ns(ns, torus):
        raise CoeffError("recovered form has non-integral Im H on the lattice")
    if not is_quantizable(ns, torus):
        raise CoeffError("recovered form is obstructed")

    # witness from the residual symbolic constants: Re(b . lam_j) = r_j
    rows = []
    rhs = []
    for t, lam in zip(terms, lat):
        r = t.form.const_pi - ns.half_norm(lam)
        if r.im != 0:
            raise CoeffError("exponent constants are not normalized")
        rows.append([lam[i].re for i in range(g)] + [-lam[i].im for i in range(g)])
        rhs.append([r.re])
    sol = rat_solve(rows, rhs)
    if sol is None:
        raise CoeffError("residual constants are not a coboundary")
    b = tuple(GRat(sol[i][0], sol[g + i][0]) for i in range(g))
    witness = ExpSum.exponential(spec, LinForm((b,), GRAT_ZERO, None))

    # chi and the l-series from the scalars of the untwisted factor
    untwisted = coboundary_twist(factor, star_inverse(witness))
    chi_vals = []
    log_rows = {}
    for e in gens:
        dec = exp_decompose(untwisted.value(e).single_term().coeff)
        if dec.magnitude != GRat.of(1):
            raise CoeffError("scalar part is not a circle constant times exp")
        chi_vals.append(dec.unit)
        logs = dec.log
        for k in range(1, spec.order):
            poly = logs.coeffs[k]
            if not poly:
                val = GRAT_ZERO
            else:
                if [d for d, _ in poly.terms] != [1]:
                    raise CoeffError("log series is not pi-linear")
                val = poly.terms[0][1]
            log_rows.setdefault(k, []).append(val)

    lout = []
    for k in range(1, spec.order):
        lk = grat_solve(conj_lat, log_rows[k])
        if lk is None:
            raise CoeffError("h-series constants are not conjugate-linear in the lattice")
        lout.append(lk)

    data = QAHData(ns, Semicharacter(tuple(chi_vals)), tuple(lout))
    twisted = coboundary_twist(qah_factor(data, torus), witness)
    for a in grp.window():
        if factor.value(a) != twisted.value(a):
            raise CoeffError("roundtrip verification failed: not cohomologous")
    return data, witness


# ---------------------------------------------------------------------------
# cohomology classifier


@dataclass(frozen=True)
class CohomologyVerdict:
    kind: str  # AllVanish | FreeTrivial | NontrivialDeformation
    dims: tuple = None  # FreeTrivial: dim H^k for k = 0..g
    h0_zero: bool = None
    h1_nonzero: bool = None


def quotient(t: QAHData, s: QAHData) -> QAHData:
    """The data of L_t (x) L_s^{-1}, whose cohomology is Hom(L_s, L_t):
    H_t - H_s, chi_t / chi_s, and l_t - l_s with the shorter series
    padded by zeros."""
    zero = (GRAT_ZERO,) * len(t.ns.matrix)
    n = max(len(t.l), len(s.l))
    lt, ls = (tuple(d.l) + (zero,) * (n - len(d.l)) for d in (t, s))
    return QAHData(
        NSData(tuple(tuple(a - b for a, b in zip(p, q)) for p, q in zip(t.ns.matrix, s.ns.matrix))),
        Semicharacter(tuple(a * b.inverse() for a, b in zip(t.chi.values, s.chi.values))),
        tuple(tuple(a - b for a, b in zip(p, q)) for p, q in zip(lt, ls)),
    )


def classify_cohomology(data: QAHData, torus: TorusData) -> CohomologyVerdict:
    """Degree-zero classifier (H = 0 required):

    chi nontrivial       -> all cohomology vanishes;
    chi = 1, l = 0       -> free module, dims C(g, k);
    chi = 1, some l != 0 -> H^0 = 0 and nonzero H^1 flag.
    """
    if any(e for row in data.ns.matrix for e in row):
        raise CoeffError("classifier requires degree-zero data (H = 0)")
    chi_trivial = all(u.is_one() for u in data.chi.values)
    l_zero = all(all(not c for c in lk) for lk in data.l)
    if not chi_trivial:
        return CohomologyVerdict("AllVanish")
    if l_zero:
        g = torus.g
        return CohomologyVerdict(
            "FreeTrivial", dims=tuple(comb(g, k) for k in range(g + 1))
        )
    return CohomologyVerdict("NontrivialDeformation", h0_zero=True, h1_nonzero=True)
