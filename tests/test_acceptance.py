"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete; every check is an exact equality at the stated
truncation order and window.
"""

import os
import random
import time

from click.testing import CliRunner

from nctorus.coeff import (
    CIRCLE_ONE,
    CircleConst,
    GRat,
    HbarSeries,
    PI_ONE,
    PiPoly,
    Q,
    Scalar,
    exp_decompose,
)
from nctorus.cli import main as cli_main
from nctorus.cohomfm import fm_hh2, fm_square_table, fm_transform, ExtClass
from nctorus.expalg import ExpSum, LinForm, Slot, SlotSpec
from nctorus.gerbe import (
    FiberFunction,
    GammaElement,
    coordinate_window,
    gamma_mul,
    heisenberg_cocycle,
    rho_act,
)
from nctorus.moyal_oracle import taylor_expand, taylor_star_oracle
from nctorus.picard import (
    NSData,
    QAHData,
    Semicharacter,
    classify_cohomology,
    coboundary_twist,
    is_quantizable,
    obstruction0,
    qah_factor,
    reduce_to_qah,
)
from nctorus.poincare import (
    convolution_window_report,
    make_context,
    restrict_to_section,
    verify_poincare_cocycle,
)
from nctorus.sampling import (
    gaussian_product_torus,
    random_grat,
    random_qah,
    random_unit_scalar,
)
from nctorus.torus import bfield

G = GRat.of
PI2 = ((G(0), G(1)), (G(-1), G(0)))


def _pass(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_star_oracle_agreement():
    # the Moyal algebra of the g=2 torus (one Poisson slot of dimension 2)
    spec = SlotSpec((Slot("v", 2, poisson=PI2),), 6)
    # plus the kernel two-slot algebra as extra coverage
    spec2 = SlotSpec(
        (Slot("v", 2, poisson=PI2), Slot("l", 2, conjugate_pair=True)), 6
    )
    rng = random.Random(101)

    def term(sp):
        coeffs = tuple(
            tuple(
                G(Q(rng.randint(-2, 2), rng.randint(1, 2)), Q(rng.randint(-2, 2), 2))
                for _ in range(s.nvars)
            )
            for s in sp.slots
        )
        const = G(Q(rng.randint(-2, 2), 2), Q(rng.randint(-2, 2), 2))
        ch = HbarSeries.of(6, {1: PiPoly.const(G(Q(rng.randint(-1, 1), 2)))})
        coeff = random_unit_scalar(rng, 6)
        return ExpSum.exponential(sp, LinForm(coeffs, const, ch), coeff)

    t0 = time.perf_counter()
    for _ in range(50):
        f, g = term(spec), term(spec)
        assert taylor_expand(f.star(g), 6) == taylor_star_oracle(f, g, 6)
    for _ in range(6):
        f, g = term(spec2), term(spec2)
        assert taylor_expand(f.star(g), 6) == taylor_star_oracle(f, g, 6)
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"took {dt:.1f}s (budget 10s)"
    _pass(
        1,
        "star == Taylor oracle on 50 random g=2 pairs and 6 two-slot kernel "
        f"pairs, N=6 deg 6 ({dt:.1f}s)",
    )


def test_criterion_02_elliptic_product_obstruction():
    t0 = time.perf_counter()
    torus = gaussian_product_torus(2, PI2)
    H_L = NSData(((G(0), G(0)), (G(0), G(1))))
    H_M = NSData(((G(1), G(0)), (G(0), G(0))))
    H_LM = NSData(((G(1), G(0)), (G(0), G(1))))
    assert is_quantizable(H_L, torus)
    assert is_quantizable(H_M, torus)
    assert not is_quantizable(H_LM, torus)
    ob = obstruction0(H_LM, torus)
    assert ob[0][2] == PiPoly.pi_power(2, G(-1))  # -pi^2 at (e1, e2)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _pass(2, f"E1xE2: H_L, H_M quantizable, H_LM obstructed with ob0 = -pi^2 ({dt:.2f}s)")


def test_criterion_03_poincare_cocycle():
    for g, poisson in ((1, None), (2, PI2)):
        torus = gaussian_product_torus(g, poisson)
        ctx = make_context(torus)
        rep = verify_poincare_cocycle(ctx)
        assert rep["cocycle"]["status"] == "PASS", rep
        assert rep["needtoshow"]["status"] == "PASS"
        assert rep["psfa_split"]["status"] == "PASS"
        if g == 2:
            assert rep["negative_control"]["status"] == "PASS"
    _pass(3, "Poincare cocycle exact on g=1 (exhaustive) and g=2 windows; sign-flip control fails")


def test_criterion_04_convolution_identity():
    ctx = make_context(gaussian_product_torus(1))
    rep = convolution_window_report(ctx)
    assert rep["status"] == "PASS"
    assert rep["checked"] == 9 * 9 * 2 * 9  # exhaustive triple window
    _pass(4, f"convolution factor identity exact on all {rep['checked']} g=1 window tuples")


def test_criterion_05_gerbe_suite():
    torus = gaussian_product_torus(2, PI2)
    order = torus.order
    B = bfield(torus)
    rank = 4
    window = coordinate_window(rank, 1)
    cache = {}

    def coc(x, y):
        v = cache.get((x, y))
        if v is None:
            v = heisenberg_cocycle(B, x, y, order)
            cache[(x, y)] = v
        return v

    # (a) the 2-cocycle identity on all window triples
    for a in window:
        for b in window:
            ab = tuple(x + y for x, y in zip(a, b))
            cab = coc(a, b)
            for c in window:
                bc = tuple(x + y for x, y in zip(b, c))
                assert cab * coc(ab, c) == coc(b, c) * coc(a, bc)

    # (b) associativity on 100 random triples
    rng = random.Random(105)
    zs = (
        Scalar.one(order),
        Scalar(CIRCLE_ONE, HbarSeries.one(order) + HbarSeries.of(order, {1: PI_ONE})),
    )
    for _ in range(100):
        es = [
            GammaElement(tuple(rng.randint(-2, 2) for _ in range(rank)), rng.choice(zs))
            for _ in range(3)
        ]
        assert gamma_mul(gamma_mul(es[0], es[1], B, order), es[2], B, order) == gamma_mul(
            es[0], gamma_mul(es[1], es[2], B, order), B, order
        )

    # (c) rho composition on the full window of group-element pairs
    s = (G(Q(1, 3)), G(Q(1, 2)))
    compare = [(0,) * rank] + [
        tuple(1 if i == k else 0 for i in range(rank)) for k in range(rank)
    ]
    elems = [GammaElement(x, z) for x in window for z in zs]
    checked = 0
    for a in elems:
        for b in elems:
            support = set(compare)
            for o in compare:
                o1 = tuple(x - y for x, y in zip(o, b.xi))
                support.add(o1)
                support.add(tuple(x - y for x, y in zip(o, a.xi)))
                support.add(tuple(x - y for x, y in zip(o1, a.xi)))
            f = FiberFunction.of(s, {o: Scalar.one(order) for o in support})
            lhs = rho_act(b, rho_act(a, f, B, order), B, order)
            rhs = rho_act(gamma_mul(b, a, B, order), f, B, order)
            dl, dr = dict(lhs.values), dict(rhs.values)
            common = (set(dl) & set(dr)) & set(compare)
            assert common
            assert all(dl[o] == dr[o] for o in common)
            checked += 1

    # (d) the expansion of the cocycle at N = 4
    for _ in range(25):
        x1 = tuple(rng.randint(-2, 2) for _ in range(rank))
        x2 = tuple(rng.randint(-2, 2) for _ in range(rank))
        bval = B.on_coords(x2, x1)
        coeffs = {0: PI_ONE}
        power, fact = G(1), 1
        for k in range(1, order):
            power = power * bval
            fact *= k
            coeffs[k] = PiPoly.pi_power(2 * k, power.scale(Q(1, fact)))
        assert heisenberg_cocycle(B, x1, x2, order) == Scalar(
            CIRCLE_ONE, HbarSeries.of(order, coeffs)
        )
    _pass(5, f"gerbe suite: cocycle identity on {len(window)**3} triples, 100 associativity trials, rho composition on {checked} pairs, expansion at N=4")


def test_criterion_06_fm_transport_and_square():
    rng = random.Random(106)
    count = 0
    for g in (2, 3):
        for _ in range(10):
            P = [[G(0)] * g for _ in range(g)]
            for i in range(g):
                for j in range(i + 1, g):
                    v = Q(rng.randint(-3, 3), rng.randint(1, 3))
                    P[i][j] = G(v)
                    P[j][i] = G(-v)
            torus = gaussian_product_torus(g, tuple(tuple(r) for r in P), order=2)
            assert fm_hh2(torus.poisson, torus) == bfield(torus).matrix
            count += 1
    rep = fm_square_table(1)
    assert rep["status"] == "PASS"
    # the brute-force oracle values (hand expansion of exp(c1) wedge .)
    torus1 = gaussian_product_torus(1)
    oracle = {
        (): {(2, 3): G(-1)},
        (0,): {(3,): G(1)},
        (1,): {(2,): G(-1)},
        (0, 1): {(): G(1)},
    }
    for mono, want in oracle.items():
        out = fm_transform(ExtClass.of(4, {mono: G(1)}), torus1)
        assert dict(out.terms) == want
    assert rep["table"] == {0: -1, 1: -1, 2: -1}
    _pass(6, f"fm_hh2 == bfield on {count} random bivectors (g in {{2,3}}); FM square table at g=1 matches the brute-force oracle")


def test_criterion_07_cohomology_classifier():
    from math import comb

    for g in range(1, 5):
        torus = gaussian_product_torus(g)
        zero = NSData(tuple(tuple(G(0) for _ in range(g)) for _ in range(g)))
        chi1 = Semicharacter(tuple(CIRCLE_ONE for _ in range(2 * g)))
        chi_bad = Semicharacter(
            tuple(CircleConst.of(Q(1, 2)) if k == 0 else CIRCLE_ONE for k in range(2 * g))
        )
        assert classify_cohomology(QAHData(zero, chi_bad, ()), torus).kind == "AllVanish"
        v = classify_cohomology(QAHData(zero, chi1, ()), torus)
        assert v.kind == "FreeTrivial"
        assert v.dims == tuple(comb(g, k) for k in range(g + 1))
        l1 = (tuple(G(1 if i == 0 else 0) for i in range(g)),)
        v = classify_cohomology(QAHData(zero, chi1, l1), torus)
        assert v.kind == "NontrivialDeformation" and v.h0_zero and v.h1_nonzero
    _pass(7, "degree-zero classifier verdicts and dims C(g,k) for g <= 4")


def test_criterion_08_exp_log_bijection():
    rng = random.Random(108)
    for _ in range(100):
        u = random_unit_scalar(rng, 8)
        assert exp_decompose(u).recompose() == u
    _pass(8, "exp/log unit decomposition roundtrip on 100 random units at N=8")


def test_criterion_09_qah_canonicalization():
    torus = gaussian_product_torus(2, PI2)
    rng = random.Random(109)
    t0 = time.perf_counter()
    for _ in range(50):
        data = random_qah(rng, torus)
        f = qah_factor(data, torus)
        b = tuple(random_grat(rng) for _ in range(2))
        u = ExpSum.exponential(
            f.group.spec,
            LinForm((b,), G(Q(rng.randint(-2, 2), 2)), None),
            Scalar.of(CircleConst.of(Q(rng.randint(0, 7), 4)), HbarSeries.one(4)),
        )
        data2, wit = reduce_to_qah(coboundary_twist(f, u), torus)
        assert data2 == data
        assert wit.single_term().form.coeffs[0] == b
    _pass(9, f"reduce_to_qah recovers (H, chi, l) exactly on 50 random twisted cocycles ({time.perf_counter()-t0:.1f}s)")


def test_criterion_10_section_comparison():
    ctx1 = make_context(gaussian_product_torus(1))
    for s, lser in (((G(0),), ()), ((G(Q(1, 2)),), ()), ((G(0, Q(1, 2)),), ((G(1),),))):
        data, rep = restrict_to_section(ctx1, s, lser)
        assert rep["status"] == "PASS", (s, rep)
    ctx2 = make_context(gaussian_product_torus(2, PI2))
    for s, lser in (
        ((G(Q(1, 2)), G(0)), ()),
        ((G(0), G(Q(1, 2))), ((G(1), G(0)),)),
    ):
        data, rep = restrict_to_section(ctx2, s, lser)
        assert rep["status"] == "PASS", (s, rep)
        assert data.l == lser
    _pass(10, "iota-witness section comparison exact on the g=1 and g=2 windows at N=4")


def test_criterion_11_end_to_end(monkeypatch):
    # time the fixtures' own window, not one set through the environment
    monkeypatch.delenv("NCT_WINDOW", raising=False)
    fixtures = os.path.join(
        os.path.dirname(__file__), "..", "src", "nctorus", "fixtures"
    )
    runner = CliRunner()
    t0 = time.perf_counter()
    for name in ("g1.json", "e1xe2.json"):
        path = os.path.abspath(os.path.join(fixtures, name))
        res = runner.invoke(cli_main, ["run", path])
        assert res.exit_code == 0, f"{name}: {res.output[-2000:]}"
        assert "ALL PASS" in res.output
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"took {dt:.1f}s (budget 60s)"
    _pass(11, f"nct run on both bundled fixtures: all suites PASS, exit 0 ({dt:.1f}s)")
