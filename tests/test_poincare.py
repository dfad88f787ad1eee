import os
import random
import sys
from dataclasses import replace

import pytest

from nctorus.coeff import (
    CIRCLE_ONE,
    GRat,
    HbarSeries,
    PI_ONE,
    Q,
    Scalar,
    combine,
)
from nctorus import poincare
from nctorus.expalg import ExpSum
from nctorus.poincare import (
    convolution_factor_check,
    convolution_window_report,
    make_context,
    poincare_factor,
    restrict_to_section,
    translation_coboundary,
    verify_poincare_cocycle,
)
from nctorus.sampling import gaussian_product_torus

G = GRat.of
PI2 = ((G(0), G(1)), (G(-1), G(0)))
CTX1 = make_context(gaussian_product_torus(1))
CTX2 = make_context(gaussian_product_torus(2, PI2))

Z1H4 = Scalar(CIRCLE_ONE, HbarSeries.one(4) + HbarSeries.of(4, {1: PI_ONE}))


def test_factor_identity_and_pure_gamma():
    f = poincare_factor(CTX1)
    assert f.value(((0, 0), (0, 0), Scalar.one(4))) == ExpSum.one(CTX1.spec2)
    # (0, (xi, z)): z * exp(pi conj<xi, v>), no l-dependence
    e = ((0, 0), (1, 0), Z1H4)
    t = f.value(e).single_term()
    xi = combine((1, 0), CTX1.B.basis.vectors)
    assert t.form.coeffs[0] == tuple(a.conj() for a in xi)
    assert all(not c for c in t.form.coeffs[1])
    assert not t.form.const_pi
    assert t.coeff == Z1H4


def test_factor_b_zero_reduces_to_classical():
    # g=1: B = 0, so the factor is the classical Poincare factor with a
    # central scaling; the cocycle closes already for the plain product
    f = poincare_factor(CTX1)
    grp = f.group
    rng = random.Random(50)
    win = grp.window(1)
    for _ in range(40):
        a, b = rng.choice(win), rng.choice(win)
        lhs = f.value(grp.compose(a, b))
        rhs = f.value(b) * grp.act(f.value(a), b)
        assert lhs == rhs


def test_verify_reports_pass():
    rep1 = verify_poincare_cocycle(CTX1)
    assert all(
        v["status"] in ("PASS", "SKIP") for v in rep1.values()
    ), rep1
    assert rep1["negative_control"]["status"] == "SKIP"  # B = 0 at g=1
    rep2 = verify_poincare_cocycle(CTX2)
    assert all(v["status"] == "PASS" for v in rep2.values()), rep2


def test_negative_control_needs_no_window():
    # the control pair is taken from the dual generators, so the radius-0
    # window, which holds only the zero vector, still has one
    rep = verify_poincare_cocycle(CTX2, radius=0)
    assert all(v["status"] == "PASS" for v in rep.values()), rep


def test_translation_coboundary_examples():
    g = CTX1.torus.g
    zero = tuple(G(0) for _ in range(g))
    u0 = translation_coboundary(CTX1, zero)
    assert u0 == ExpSum.one(CTX1.spec2)
    lam0 = CTX1.torus.lattice[1]
    translation_coboundary(CTX1, lam0)
    translation_coboundary(CTX1, (G(Q(2, 7), Q(1, 3)),))


def test_convolution_identity_element():
    zero = (0, 0)
    res = convolution_factor_check(
        poincare_factor(CTX1), (zero, zero, Scalar.one(4), zero)
    )
    assert res["equal"]
    assert res["left"] == ExpSum.one(CTX1.spec3)


def test_convolution_l_dependence_drops_when_lambda_equals_mu():
    m = (1, -1)
    e = (m, (1, 0), Z1H4, m)
    res = convolution_factor_check(poincare_factor(CTX1), e)
    assert res["equal"]
    t = res["right"].single_term()
    # the x-slot coefficients vanish: <l + xi, lam - mu> = <l + xi, 0>
    assert all(not c for c in t.form.coeffs[1])


def test_convolution_window_g1_exhaustive():
    rep = convolution_window_report(CTX1)
    assert rep["status"] == "PASS"
    assert rep["checked"] == 9 * 9 * 2 * 9


def test_convolution_window_g2():
    rep = convolution_window_report(CTX2)
    assert rep["status"] == "PASS"


def test_restrict_to_section_g1():
    s = (G(Q(1, 2)),)
    data, rep = restrict_to_section(CTX1, s)
    assert rep["status"] == "PASS"
    # the half-period dual point gives an order-two character
    assert [u.q for u in data.chi.values] == [Q(0), Q(1)]
    s0 = (G(0),)
    data0, rep0 = restrict_to_section(CTX1, s0)
    assert rep0["status"] == "PASS"
    assert all(u.is_one() for u in data0.chi.values)


def test_restrict_to_section_g2_with_l():
    s = (G(Q(1, 2)), G(0))
    lser = ((G(1), G(0)),)
    data, rep = restrict_to_section(CTX2, s, lser)
    assert rep["status"] == "PASS"
    assert data.l == lser
    assert all(not e for row in data.ns.matrix for e in row)


@pytest.mark.parametrize("ctx", [CTX1, CTX2], ids=["g1", "g2"])
def test_convolution_fails_along_the_sum_map(ctx):
    # negative control: pull the dual kernel back along (v + w, x) in place
    # of the difference map (v - w, x)
    g = ctx.torus.g
    p12, p23, diff = ctx.pullbacks

    def pullback(sign):
        v_rows = [[(i, 1), (3 * g + i, sign)] for i in range(g)]
        return poincare._linear_map(ctx.spec3, ctx.spec2, v_rows + [[(g + k, 1)] for k in range(2 * g)])

    assert pullback(-1) == diff
    wrong = pullback(1)
    assert convolution_window_report(ctx)["status"] == "PASS"
    assert convolution_window_report(replace(ctx, pullbacks=(p12, p23, wrong)))["status"] == "FAIL"


def _g1_cocycle_window():
    """The cached g1 Poincare factor and the 26,244 pairs of its radius-1
    window."""
    from nctorus.cli import parse_config

    path = os.path.join(os.path.dirname(poincare.__file__), "fixtures", "g1.json")
    with open(path) as fh:
        ctx = make_context(parse_config(fh.read()).torus)
    factor = poincare_factor(ctx).cached()
    window = factor.group.window(1)
    pairs = [(a, b) for a in window for b in window]
    assert len(pairs) == 26244
    return factor, pairs


def test_g1_cocycle_window_makes_no_series_product(monkeypatch):
    # every coefficient of the g1 Poincare cocycle check is a log form, so
    # the 26,244 pairs of the radius-1 window multiply no dense series
    from nctorus.picard import cocycle_holds

    factor, pairs = _g1_cocycle_window()
    calls = [0]
    product = HbarSeries.__mul__

    def counting(a, b):
        calls[0] += 1
        return product(a, b)

    monkeypatch.setattr(HbarSeries, "__mul__", counting)
    assert all(cocycle_holds(factor, a, b) for a, b in pairs)
    assert calls[0] == 0


def test_g1_cocycle_window_combines_per_element_not_per_pair(monkeypatch):
    # lam(m) and xi(x) are the group's memos, read by the factor's
    # evaluations and by the translations of the action alike: one combine
    # per distinct m and per distinct x of the composed elements (25 of
    # each), not one per evaluation or per pair
    from nctorus.picard import cocycle_holds

    factor, pairs = _g1_cocycle_window()
    calls = [0]

    def counting(coeffs, vectors):
        calls[0] += 1
        return combine(coeffs, vectors)

    for name, module in list(sys.modules.items()):
        if name.startswith("nctorus.") and getattr(module, "combine", None) is combine:
            monkeypatch.setattr(module, "combine", counting)
    assert all(cocycle_holds(factor, a, b) for a, b in pairs)
    assert calls[0] <= 50


def test_g1_cocycle_window_multiplies_and_normalizes_per_distinct_value(monkeypatch):
    # the central part z1 z2 c(x1, x2) of a composed element is the group's
    # memo (2 products for each of the 324 distinct (z1, z2, x1, x2)); each
    # pair adds the one product of its star; and the terms of the factor's
    # values stay normalized through translations and stars, so only the
    # 25 x 25 x 3 distinct factor values are normalized
    from nctorus import expalg
    from nctorus.picard import cocycle_holds

    factor, pairs = _g1_cocycle_window()
    products, normalized = [0], [0]
    product, normalize = Scalar.__mul__, expalg._normalize

    def counting_product(a, b):
        products[0] += 1
        return product(a, b)

    def counting_normalize(coeff, form):
        normalized[0] += 1
        return normalize(coeff, form)

    monkeypatch.setattr(Scalar, "__mul__", counting_product)
    monkeypatch.setattr(expalg, "_normalize", counting_normalize)
    assert all(cocycle_holds(factor, a, b) for a, b in pairs)
    assert products[0] <= 26244 + 2 * 324
    assert normalized[0] <= 1875
