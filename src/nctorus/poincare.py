"""The quantum Poincare factor of automorphy and its kernel identities.

The factor lives on V x (dual space) with the Moyal structure on V and
the commutative structure on the dual slot, indexed by the product of
the period lattice with the Heisenberg group:

    phi(lam, (xi, z))(v, l) = z exp(pi(<l + xi, lam> + conj<xi, v>))

Its noncommutative cocycle identity reduces to

    c(xi1, xi2) exp(pi conj<xi1+xi2, v>)
        = exp(pi conj<xi2, v>) * exp(pi conj<xi1, v>)

whose star correction is exp(h {f_xi2, f_xi1}) = exp(h pi^2 B(xi2, xi1)),
pinning the sign convention of the Heisenberg cocycle.

The convolution identity is the factor pulled back along three maps
from the triple product V x dual x V (opposite Moyal structure on the
third slot) to V x dual: p12(v, x, w) = (v, x), p23(v, x, w) = (w, x) and
diff(v, x, w) = (v - w, x).  The star-inverted p23 pullback of
phi(mu, (xi, z)) times the p12 pullback of phi(lam, (xi, z)) is the diff
pullback of phi(lam - mu, (xi, 1)): the central parts cancel, the
dual-pairing constants merge, and the difference map splits the
conjugate pairing, giving exact equality of exponential sums.

Restriction to a constant dual section s evaluates the same factor,
translated on the dual slot to a point w of the fiber s + dual lattice
and pulled back along the zero section v -> (v, 0).  It compares the two
natural factors for the resulting quantum line bundle over the fiber
and exhibits the explicit cochain iota_w = E(-pi conj<w, v>)
twisting one into the other, returning canonical degree-zero data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import product as iproduct

from .coeff import (
    GRAT_ZERO,
    PI_ONE,
    CircleConst,
    CoeffError,
    GRat,
    HbarSeries,
    Q,
    Scalar,
    combine,
    series_log,
)
from .expalg import (
    AffineMap,
    ExpSum,
    LinForm,
    Slot,
    SlotSpec,
    poisson_pairing,
    star_inverse,
    substitute,
    Translation,
    translate,
    translation,
)
from .checks import check_cases, coordinate_window, nonzero, sample_window
from .gerbe import ctilde, heisenberg_cocycle
from .picard import (
    Factor,
    NSData,
    QAHData,
    Semicharacter,
    coboundary_twist,
    cocycle_holds,
    lattice_slotspec,
    qah_factor,
)
from .torus import BForm, TorusData, bfield, pairing

__all__ = [
    "PoincareContext",
    "make_context",
    "PoincareGroup",
    "poincare_factor",
    "verify_poincare_cocycle",
    "translation_coboundary",
    "convolution_factor_check",
    "convolution_window_report",
    "restrict_to_section",
]


@dataclass(frozen=True)
class PoincareContext:
    """The torus, its B-field ``bfield(torus)`` (which holds the dual
    lattice basis and the memos of xi(x), the fiber points and ctilde),
    and the slot specs and pullbacks of the kernel."""

    torus: TorusData
    B: BForm
    spec2: SlotSpec  # v (Moyal) then l (commutative, conjugate pair)
    spec3: SlotSpec  # v (Moyal), x (commutative), w (opposite Moyal)
    pullbacks: tuple  # spec3 -> spec2: p12 (v, x), p23 (w, x), diff (v - w, x)


def _linear_map(source: SlotSpec, target: SlotSpec, rows) -> AffineMap:
    """The map taking target variable i to sum c * y_j over (j, c) in rows[i]."""
    matrix = []
    for row in rows:
        entries = [GRAT_ZERO] * source.nvars
        for j, c in row:
            entries[j] = GRat.of(c)
        matrix.append(tuple(entries))
    return AffineMap(source, target, tuple(matrix), (GRAT_ZERO,) * target.nvars)


def make_context(torus: TorusData) -> PoincareContext:
    B = bfield(torus)
    g = torus.g
    v = Slot("v", g, poisson=torus.poisson)
    l = Slot("l", g, conjugate_pair=True)
    x = Slot("x", g, conjugate_pair=True)
    w = Slot("w", g, poisson=torus.poisson, opposite=True)
    spec2 = SlotSpec((v, l), torus.order)
    spec3 = SlotSpec((v, x, w), torus.order)
    # spec3 variables: v from 0, x from g, w from 3g; x lands on l
    x_rows = [[(g + k, 1)] for k in range(2 * g)]

    def pullback(*v_terms):
        v_rows = [[(start + i, c) for start, c in v_terms] for i in range(g)]
        return _linear_map(spec3, spec2, v_rows + x_rows)

    pullbacks = (pullback((0, 1)), pullback((3 * g, 1)), pullback((0, 1), (3 * g, -1)))
    return PoincareContext(torus, B, spec2, spec3, pullbacks)


@cache
def _default_z_choices(order: int):
    """1 and 1 + h, both in log form: the log of 1 + h is computed once
    per order."""
    oneph = HbarSeries.one(order) + HbarSeries.of(order, {1: PI_ONE})
    return (Scalar.one(order), Scalar.exp(series_log(oneph)))


class PoincareGroup:
    """Lambda x Gamma: elements (m, x, z) with m, x integer coordinate
    tuples and z a central invertible scalar.

    Memoized per group, each by the ``functools.cache`` that computes it:
    lam(m), so a window builds each once for the factor, its translations
    and the sub-checks alike (xi(x) is the B-field's memo ``BForm.xi``,
    which they read the same way); the Heisenberg cocycle
    c(x1, x2), since a window re-uses few (x1, x2); the central part
    z1 z2 c(x1, x2) of ``compose`` per (z1, z2, x1, x2), so a window's
    products are one scalar per distinct central argument (324 for the
    26,244 pairs of the g = 1 window) and each composed element carries
    one shared, already hashed z; and the prepared translation of ``act``
    per (m, x) of the acting element, built from moves memoized per m and
    per x.
    """

    def __init__(self, ctx: PoincareContext):
        self.ctx = ctx
        spec = ctx.spec2
        self.lam = cache(lambda m: combine(m, ctx.torus.lattice))
        self.cocycle = cache(partial(heisenberg_cocycle, ctx.B, order=ctx.torus.order))
        self.central = cache(lambda z1, z2, x1, x2: z1 * z2 * self.cocycle(x1, x2))
        lam_moves = cache(lambda m: translation(spec, {"v": self.lam(m)}).moves)
        xi_moves = cache(lambda x: translation(spec, {"l": ctx.B.xi(x)}).moves)
        self.translation = cache(lambda m, x: Translation(spec, lam_moves(m) + xi_moves(x)))

    @property
    def rank(self) -> int:
        return 2 * self.ctx.torus.g

    def compose(self, e1, e2):
        m1, x1, z1 = e1
        m2, x2, z2 = e2
        return (
            tuple(a + b for a, b in zip(m1, m2)),
            tuple(a + b for a, b in zip(x1, x2)),
            self.central(z1, z2, x1, x2),
        )

    def act(self, value: ExpSum, e) -> ExpSum:
        """value . (m, x, z): translation by lam(m) on the V slot and by
        xi(x) on the dual slot, both in one ``translate``; z acts trivially."""
        m, x, _ = e
        return translate(value, self.translation(m, x))

    def window(self, radius: int = 1, z_choices=None):
        if z_choices is None:
            z_choices = _default_z_choices(self.ctx.torus.order)
        coords = coordinate_window(self.rank, radius)
        return [(m, x, z) for m in coords for x in coords for z in z_choices]


def poincare_factor(ctx: PoincareContext) -> Factor:
    """phi(lam, (xi, z)) = z E(pi(<l + xi, lam> + conj<xi, v>)), evaluated
    afresh each time: a loop over a window asks for ``.cached()``.  lam
    is the group's memo and xi the B-field's."""
    g = ctx.torus.g
    grp = PoincareGroup(ctx)

    def fn(e):
        m, x, z = e
        lam, xi = grp.lam(m), ctx.B.xi(x)
        vcoef = tuple(a.conj() for a in xi)
        lcoef = tuple(l.conj() for l in lam) + tuple([GRAT_ZERO] * g)
        return ExpSum.exponential(ctx.spec2, LinForm((vcoef, lcoef), pairing(xi, lam), None), z)

    return Factor(grp, fn)


# ---------------------------------------------------------------------------
# the cocycle report


def cocycle_pairs(grp: PoincareGroup, radius: int, z_choices):
    """Pairs for the cocycle check (policy: ``checks.sample_window``)."""
    return sample_window([grp.window(radius, z_choices)] * 2, 40000, 2, 500, random.Random(170))


def verify_poincare_cocycle(ctx: PoincareContext, radius: int = 1) -> dict:
    """Exact cocycle verification for the Poincare factor, the
    needtoshow sub-identity, the split-constant consistency of the
    unsimplified formula, and the negated-B (c^{-1}) negative control."""
    z_choices = _default_z_choices(ctx.torus.order)
    factor = poincare_factor(ctx).cached()
    grp = factor.group
    report = {
        "cocycle": check_cases(
            cocycle_pairs(grp, radius, z_choices), lambda p: cocycle_holds(factor, *p), "pairs"
        )
    }

    coords = coordinate_window(grp.rank, radius)
    pairs = list(iproduct(coords, coords))
    # f_xi = pi conj<xi, v>, the exponent of phi(0, (xi, 1))
    origin, one = (0,) * grp.rank, Scalar.one(ctx.torus.order)
    f = {x: factor.value((origin, x, one)).single_term().form for x in coords}

    def needtoshow(p):
        # c(x1,x2) E(pi conj<x1+x2, v>) = E(pi conj<x2,v>) * E(pi conj<x1,v>);
        # every x-pair of the window is read once, so c is computed unkept,
        # not through the group's memo
        x1, x2 = p
        c = heisenberg_cocycle(ctx.B, x1, x2, ctx.torus.order)
        lhs = ExpSum.exponential(ctx.spec2, f[x1] + f[x2], c)
        rhs = ExpSum.exponential(ctx.spec2, f[x2]).star(ExpSum.exponential(ctx.spec2, f[x1]))
        return lhs == rhs

    def showme(p):
        # {f_xi2, f_xi1} = pi^2 B(xi2, xi1), with the pairing the star product uses
        x1, x2 = p
        return poisson_pairing(ctx.spec2, f[x2], f[x1]) == ctx.B.value(ctx.B.xi(x2), ctx.B.xi(x1))

    def split_agrees(p):
        # the unsimplified first line: split constants agree on lattice pairs
        m, x = p
        q = pairing(ctx.B.xi(x), grp.lam(m))
        if q.im.denominator != 1:
            return False
        zero = ctx.spec2.zero_form().coeffs
        direct = ExpSum.exponential(ctx.spec2, LinForm(zero, q, None))
        split = Scalar.from_circle(ctx.torus.order, CircleConst.of(q.im))
        recombined = ExpSum.exponential(ctx.spec2, LinForm(zero, GRat(q.re, Q(0)), None), split)
        return direct == recombined

    report["needtoshow"] = check_cases(pairs, needtoshow, "pairs")
    report["poisson_to_bfield"] = check_cases(pairs, showme)
    del report["poisson_to_bfield"]["checked"]
    report["psfa_split"] = check_cases(pairs, split_agrees)
    del report["psfa_split"]["checked"]

    # negative control: the flipped cocycle sign must fail at a pair of dual
    # generators with B(xi2, xi1) nonzero; there is one exactly when B != 0,
    # whatever the window
    n = grp.rank
    if ctx.B.support:
        # the cocycle reads B through its matrix only: negated, c becomes c^{-1}
        negated = tuple(tuple(-b for b in row) for row in ctx.B.matrix)
        bad = poincare_factor(replace(ctx, B=replace(ctx.B, matrix=negated)))
        k, m = ctx.B.support[0]  # B(xi^(k), xi^(m)) != 0: xi1 = xi^(m), xi2 = xi^(k)
        a, b = (((0,) * n, tuple(int(i == j) for i in range(n)), z_choices[0]) for j in (m, k))
        report["negative_control"] = {
            "status": "FAIL" if cocycle_holds(bad, a, b) else "PASS",
            "note": "sign-flipped Heisenberg cocycle must break the identity",
        }
    else:
        report["negative_control"] = {
            "status": "SKIP",
            "note": "B = 0: the flipped cocycle is the same factor",
        }
    return report


# ---------------------------------------------------------------------------
# translation coboundary


def translation_coboundary(ctx: PoincareContext, w) -> ExpSum:
    """Witness u with translate(phi, v += w) = u^{-1} * phi * (u . el):
    u = E(pi conj<l, w>), expressed through the conjugated dual-slot
    coordinates.  Verified exactly on the window before returning, with
    the shift by w prepared once.  The kernel is not ``.cached()``: a
    memo would save one evaluation per window element, cheap with the
    group's lam and the B-field's xi, and hold the whole window (13,122
    values at g = 2)."""
    g = ctx.torus.g
    factor = poincare_factor(ctx)
    lcoef = tuple([GRAT_ZERO] * g) + tuple(w)
    u = ExpSum.exponential(
        ctx.spec2, LinForm((tuple([GRAT_ZERO] * g), lcoef), GRAT_ZERO, None)
    )
    shift = translation(ctx.spec2, {"v": w})
    twisted = coboundary_twist(factor, u)
    for e in factor.group.window():
        if translate(factor.value(e), shift) != twisted.value(e):
            raise CoeffError(f"translation coboundary witness fails at {e}")
    return u


# ---------------------------------------------------------------------------
# the convolution identity


def convolution_factor_check(factor: Factor, element) -> dict:
    """Factor-level kernel convolution identity of the Poincare factor phi
    at one group element (m, x, z, mu) of Lambda x Gamma x Lambda.

    Left: p23^*(phi(mu, x, z))^{-1} * p12^*(phi(m, x, z)); the dual factor
    enters by left multiplication, i.e. star-inverted, and the central
    parts cancel.  Right: diff^*(phi(m - mu, x, 1)).  Exact ExpSum
    equality.
    """
    m, x, z, mu = element
    ctx = factor.group.ctx
    p12, p23, diff = ctx.pullbacks
    left = substitute(star_inverse(factor.value((mu, x, z))), p23).star(
        substitute(factor.value((m, x, z)), p12)
    )
    diff_m = tuple(a - b for a, b in zip(m, mu))
    right = substitute(factor.value((diff_m, x, Scalar.one(ctx.torus.order))), diff)
    return {"element": element, "equal": left == right, "left": left, "right": right}


def convolution_window_report(ctx: PoincareContext, radius: int = 1) -> dict:
    """Run the convolution identity over the (m, x, z, mu) window
    (policy: ``checks.sample_window``)."""
    z_choices = _default_z_choices(ctx.torus.order)
    coords = coordinate_window(2 * ctx.torus.g, radius)
    elements = sample_window([coords, coords, z_choices, coords], 10000, 2, 300, random.Random(173))
    phi = poincare_factor(ctx).cached()
    return check_cases(elements, lambda e: convolution_factor_check(phi, e)["equal"])


# ---------------------------------------------------------------------------
# section restriction


def restrict_to_section(ctx: PoincareContext, s, lseries=(), radius: int = 1):
    """Compare the two factors of the restricted kernel over the fiber
    F_s and verify the iota witness twists one into the other; returns
    (degree-zero QAHData, report).

    ``s`` is an exact dual-space coefficient vector; ``lseries`` the
    h-series of conjugate-linear functionals.  The fiber window is
    indexed by integer dual offsets of at most one unit; the group is
    Lambda x dual lattice.  One side is the H = 0 quantum Appell-Humbert
    factor of the returned data, chi_s(lam) = exp(2 pi i Im<s, lam>); the
    other is the Poincare factor translated to the fiber point and pulled
    back along the zero section, times ctilde.  The l-fold
    exp(sum_j h^j pi <l_j, lam>) is a central invertible scalar on both
    sides, so it cancels from the comparison: ``lseries`` is returned as
    given, and only chi is checked.
    """
    torus = ctx.torus
    g = torus.g
    order = torus.order
    vspec = lattice_slotspec(torus)
    phi = poincare_factor(ctx).cached()
    one = Scalar.one(order)
    # the zero section v -> (v, 0) of V x dual
    section = _linear_map(vspec, ctx.spec2, [[(i, 1)] for i in range(g)] + [[]] * (2 * g))
    chi = Semicharacter(tuple(CircleConst.of(2 * pairing(s, lam).im) for lam in torus.lattice))
    hzero = NSData(tuple(tuple(GRAT_ZERO for _ in range(g)) for _ in range(g)))
    canon = qah_factor(QAHData(hzero, chi, ()), torus)

    @cache
    def fiber(offset):
        """(w, the translation to w, iota_w, its star inverse) at the
        fiber point w of the offset."""
        w = ctx.B.point(s, offset)
        vcoef = tuple(-a.conj() for a in w)
        iota = ExpSum.exponential(vspec, LinForm((vcoef,), GRAT_ZERO, None))
        return w, translation(ctx.spec2, {"l": w}), iota, star_inverse(iota)

    def ca_value(e, offset) -> ExpSum:
        m, x = e
        w, to_fiber, _, _ = fiber(offset)
        restricted = substitute(translate(phi.value((m, x, one)), to_fiber), section)
        return restricted.scale(ctilde(w, x, ctx.B, order))

    def iota_twists(case):
        e, o = case
        m, x = e
        shifted = tuple(a + b for a, b in zip(o, x))
        rhs = fiber(o)[3].star(ca_value(e, o)).star(canon.group.act(fiber(shifted)[2], m))
        return canon.value(m) == rhs

    coords = coordinate_window(2 * g, radius)
    elements = sample_window([coords, coords], 400, 2, 200, random.Random(172))
    offsets = [o for o in coordinate_window(2 * g, 1) if nonzero(o) <= 1]
    report = check_cases(list(iproduct(elements, offsets)), iota_twists)
    return QAHData(hzero, chi, lseries), report
