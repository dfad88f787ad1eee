import os
import random

import pytest

from nctorus.coeff import (
    CIRCLE_ONE,
    CoeffError,
    GRat,
    HbarSeries,
    PI_ONE,
    PiPoly,
    Q,
    Scalar,
    combine,
)
from nctorus import cli, poincare
from nctorus.checks import check_cases, coordinate_window, nonzero, sample_window
from nctorus.gerbe import (
    FiberFunction,
    GammaElement,
    ctilde,
    gamma_inverse,
    gamma_mul,
    heisenberg_cocycle,
    rho_act,
)
from nctorus.picard import LatticeGroup, lattice_pairs, lattice_slotspec
from nctorus.sampling import gaussian_product_torus, random_grat
from nctorus.torus import bfield

G = GRat.of
PI2 = ((G(0), G(1)), (G(-1), G(0)))
T2 = gaussian_product_torus(2, PI2)
B = bfield(T2)
N = T2.order
RANK = 4

Z1 = Scalar.one(N)
Z1H = Scalar(CIRCLE_ONE, HbarSeries.one(N) + HbarSeries.of(N, {1: PI_ONE}))


def test_cocycle_trivial_cases():
    zeroB = bfield(gaussian_product_torus(2))
    assert heisenberg_cocycle(zeroB, (1, 0, 0, 0), (0, 0, 1, 0), N) == Z1
    xi = (1, -1, 2, 0)
    assert heisenberg_cocycle(B, xi, xi, N) == Z1  # antisymmetry of B


def test_cocycle_series_expansion():
    # with B(xi', xi) = 1 the expansion is 1 + pi^2 h + pi^4/2 h^2 + ...
    x1, x2 = (1, 0, 0, 0), (0, 0, 1, 0)
    b = B.on_coords(x2, x1)
    assert b == G(1)
    c = heisenberg_cocycle(B, x1, x2, 3)
    assert c == Scalar(
        CIRCLE_ONE,
        HbarSeries.of(
            3,
            {0: PI_ONE, 1: PiPoly.pi_power(2), 2: PiPoly.pi_power(4, G(Q(1, 2)))},
        ),
    )


def test_two_cocycle_identity_window_triples():
    win = [w for w in coordinate_window(RANK, 1)]
    rng = random.Random(40)
    triples = [(rng.choice(win), rng.choice(win), rng.choice(win)) for _ in range(300)]
    sparse = [w for w in win if sum(1 for x in w if x) <= 1]
    triples += [(a, b, c) for a in sparse for b in sparse for c in sparse]
    for a, b, c in triples:
        ab = tuple(x + y for x, y in zip(a, b))
        bc = tuple(x + y for x, y in zip(b, c))
        lhs = heisenberg_cocycle(B, a, b, N) * heisenberg_cocycle(B, ab, c, N)
        rhs = heisenberg_cocycle(B, b, c, N) * heisenberg_cocycle(B, a, bc, N)
        assert lhs == rhs


def test_gamma_group_law():
    rng = random.Random(41)
    ident = GammaElement.identity(RANK, N)
    for _ in range(100):
        es = [
            GammaElement(
                tuple(rng.randint(-2, 2) for _ in range(RANK)), rng.choice((Z1, Z1H))
            )
            for _ in range(3)
        ]
        assert gamma_mul(gamma_mul(es[0], es[1], B, N), es[2], B, N) == gamma_mul(
            es[0], gamma_mul(es[1], es[2], B, N), B, N
        )
        inv = gamma_inverse(es[0])
        assert gamma_mul(es[0], inv, B, N) == ident
        assert gamma_mul(inv, es[0], B, N) == ident
    assert gamma_mul(ident, es[0], B, N) == es[0]


def test_gamma_commutator():
    a = GammaElement((1, 0, 0, 0), Z1)
    b = GammaElement((0, 0, 1, 0), Z1)
    comm = gamma_mul(
        gamma_mul(a, b, B, N),
        gamma_mul(gamma_inverse(a), gamma_inverse(b), B, N),
        B,
        N,
    )
    assert comm.xi == (0, 0, 0, 0)
    want = heisenberg_cocycle(B, a.xi, b.xi, N) * heisenberg_cocycle(
        B, b.xi, a.xi, N
    ).inverse()
    assert comm.z == want


def test_ctilde_examples():
    zero = tuple(G(0) for _ in range(2))
    assert ctilde(zero, (1, 0, 0, 0), B, N) == Z1
    rng = random.Random(42)
    # lattice restriction agrees with the cocycle in the same order
    for _ in range(30):
        x1 = tuple(rng.randint(-1, 1) for _ in range(RANK))
        x2 = tuple(rng.randint(-1, 1) for _ in range(RANK))
        w = combine(x1, B.basis)
        assert ctilde(w, x2, B, N) == heisenberg_cocycle(B, x1, x2, N)
    # additivity in the lattice argument
    w = tuple(random_grat(rng) for _ in range(2))
    x1, x2 = (1, 0, -1, 0), (0, 1, 0, 1)
    x12 = tuple(a + b for a, b in zip(x1, x2))
    assert ctilde(w, x12, B, N) == ctilde(w, x1, B, N) * ctilde(w, x2, B, N)


def _const_fiber(s, radius=1):
    return FiberFunction.of(
        s, {o: Scalar.one(N) for o in coordinate_window(RANK, radius)}
    )


def test_rho_identity_and_central_action():
    s = (G(Q(1, 2)), G(0))
    f = _const_fiber(s, radius=2)
    ident = GammaElement.identity(RANK, N)
    assert rho_act(ident, f, B, N) == f
    z_only = GammaElement((0, 0, 0, 0), Z1H)
    acted = rho_act(z_only, f, B, N)
    zinv = Z1H.inverse()
    assert all(v == zinv for _, v in acted.values)


def test_rho_composition_window():
    s = (G(Q(1, 3)), G(Q(1, 2), Q(1, 2)))
    f = _const_fiber(s)
    rng = random.Random(43)
    elems = [
        GammaElement(x, z)
        for x in coordinate_window(RANK, 1)
        for z in (Z1, Z1H)
    ]
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(150)]
    for a, b in pairs:
        lhs = rho_act(b, rho_act(a, f, B, N), B, N)
        rhs = rho_act(gamma_mul(b, a, B, N), f, B, N)
        dl, dr = dict(lhs.values), dict(rhs.values)
        common = set(dl) & set(dr)
        assert common
        assert all(dl[o] == dr[o] for o in common)


def test_window_too_small():
    s = (G(0), G(0))
    f = FiberFunction.of(s, {(0, 0, 0, 0): Scalar.one(N)})
    with pytest.raises(CoeffError):
        rho_act(GammaElement((1, 0, 0, 0), Z1), f, B, N)


def test_sampler_exhaustive_within_budget_else_sparse_plus_draws():
    part = coordinate_window(2, 1)
    full = [(a, b) for a in part for b in part]
    assert sample_window([part, part], 81, 1, 5, None) == full
    rng, ref = random.Random(3), random.Random(3)
    cases = sample_window([part, part], 80, 1, 5, rng)
    sparse = [(a, b) for a, b in full if nonzero(a) + nonzero(b) <= 1]
    assert cases == sparse + [(ref.choice(part), ref.choice(part)) for _ in range(5)]
    assert rng.getstate() == ref.getstate()
    each = sample_window([part, part], 80, 1, 0, None, per_part=True)
    assert each == [(a, b) for a, b in full if nonzero(a) <= 1 and nonzero(b) <= 1]
    assert nonzero(((0, 2, -1), (1, 0), Z1H)) == 3


def test_check_loop_reports_the_first_failure():
    cases = [(k,) for k in range(10)]
    assert check_cases(cases, lambda c: c != (6,)) == {
        "status": "FAIL",
        "checked": 7,
        "failing": (6,),
    }
    assert check_cases(cases, lambda c: True, "pairs") == {
        "status": "PASS",
        "pairs": 10,
        "failing": None,
    }
    assert check_cases([], lambda c: True) == {"status": "FAIL", "checked": 0, "failing": None}


def _window_counts(monkeypatch, g, radius):
    """Case counts of the six windowed checks; the checks themselves are skipped."""

    def count_only(cases, holds, count="checked"):
        return {"status": "PASS", count: len(cases), "failing": None}

    monkeypatch.setattr(poincare, "check_cases", count_only)
    monkeypatch.setattr(cli, "check_cases", count_only)
    torus = gaussian_product_torus(g, PI2 if g == 2 else None)
    ctx = poincare.make_context(torus)
    cfg = cli.RunConfig("counts", torus, [], ["gerbe"], radius, [])
    gerbe = {r["name"]: r for r in cli.suite_gerbe(cfg)}
    z_choices = poincare._default_z_choices(torus.order)
    return {
        "qpic": len(lattice_pairs(LatticeGroup(torus, lattice_slotspec(torus)), radius)),
        "poincare": len(poincare.cocycle_pairs(poincare.PoincareGroup(ctx), radius, z_choices)),
        "convolution": poincare.convolution_window_report(ctx, radius)["checked"],
        "section": poincare.restrict_to_section(ctx, (G(0),) * g, (), radius)[1]["checked"],
        "triples": gerbe["gerbe:cocycle-identity"]["triples"],
        "rho": gerbe["gerbe:rho-composition"]["pairs"],
    }


def test_window_counts_at_g2_are_sampled(monkeypatch):
    # the counts of the e1xe2 fixture's report: 329 section elements
    # times 9 fiber offsets give 2961 section checks
    assert _window_counts(monkeypatch, 2, 1) == {
        "qpic": 6561,
        "poincare": 2552,
        "convolution": 878,
        "section": 2961,
        "triples": 1229,
        "rho": 468,
    }


def test_window_counts_at_g1_are_exhaustive(monkeypatch):
    n = len(coordinate_window(2, 1))
    offsets = 5  # fiber offsets with at most one nonzero coordinate
    assert _window_counts(monkeypatch, 1, 1) == {
        "qpic": n**2,
        "poincare": (2 * n * n) ** 2,
        "convolution": n**3 * 2,
        "section": n**2 * offsets,
        "triples": n**3,
        "rho": (2 * n) ** 2,
    }


def test_g1_gerbe_suite_builds_each_ctilde_once(monkeypatch):
    # ctilde is memoized per (w, xi, order) by the B-field that computes it:
    # the g1 suite asks for it 7,523 times at 400 distinct arguments
    from nctorus import torus

    with open(os.path.join(os.path.dirname(__file__), "..", "src", "nctorus", "fixtures", "g1.json")) as fh:
        cfg = cli.parse_config(fh.read())
    built = [0]
    closed_form = torus.exp_hpi2

    def counting(order, value):
        built[0] += 1
        return closed_form(order, value)

    monkeypatch.setattr(torus, "exp_hpi2", counting)
    assert all(r["status"] == "PASS" for r in cli.suite_gerbe(cfg))
    assert 0 < built[0] <= 400
