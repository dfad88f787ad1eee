import os
import random
from itertools import combinations

import pytest

from nctorus.cli import parse_config
from nctorus import cohomfm
from nctorus.coeff import CoeffError, GRat, Q
from nctorus.cohomfm import (
    ORIENTATION_NOTE,
    ExtClass,
    c1_poincare,
    exp_c1,
    fm_hh2,
    fm_square_table,
    fm_transform,
)
from nctorus.linalg import rat_inverse
from nctorus.picard import _im_table
from nctorus.sampling import gaussian_product_torus
from nctorus.torus import bfield

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "nctorus", "fixtures")

G = GRat.of
T1 = gaussian_product_torus(1)


def klass(n, mono, c=1):
    return ExtClass.of(n, {tuple(mono): G(c)})


def test_c1_examples():
    c1 = c1_poincare(T1)
    assert dict(c1.terms) == {(0, 2): G(1), (1, 3): G(1)}
    # c1^2 at g=1: 2 e1 f1 e2 f2 = -2 e1 e2 f1 f2
    sq = c1.wedge(c1)
    assert dict(sq.terms) == {(0, 1, 2, 3): G(-2)}
    # exterior nilpotence: exp truncates at total degree 4g
    e = exp_c1(T1)
    assert max(len(m) for m, _ in e.terms) == 4


def test_transform_degree_reversal_and_linearity():
    g = 2
    torus = gaussian_product_torus(g)
    n = 4 * g
    rng = random.Random(60)
    from itertools import combinations

    basis = [m for d in range(2 * g + 1) for m in combinations(range(2 * g), d)]
    for mono in basis:
        out = fm_transform(klass(n, mono), torus)
        for m, _ in out.terms:
            assert len(m) == 2 * g - len(mono)
            assert all(k >= 2 * g for k in m)
    a, b = rng.choice(basis), rng.choice(basis)
    fa = fm_transform(klass(n, a), torus)
    fb = fm_transform(klass(n, b), torus)
    combined = fm_transform(klass(n, a) + klass(n, b).scale(G(Q(3, 2))), torus)
    assert combined == fa + fb.scale(G(Q(3, 2)))


def test_transform_top_and_unit():
    # top class -> unit (up to the fixed orientation sign); unit -> top
    out_top = fm_transform(klass(4, (0, 1)), T1)
    assert dict(out_top.terms) == {(): G(1)}
    out_unit = fm_transform(klass(4, ()), T1)
    assert dict(out_unit.terms) == {(2, 3): G(-1)}


def test_square_table_matches_brute_force_oracle():
    # frozen hand expansion at g=1 (independent of the implementation):
    #   S(1) = -f1 f2, S(e1) = f2, S(e2) = -f1, S(e1 e2) = 1
    #   S'(f1 f2) = 1, S'(f2) = e1, S'(f1) = -e2, S'(1) = -e1 e2
    # so the composite is -1, +(-1)*... i.e. sign -1 on every degree
    S = lambda a: fm_transform(a, T1)
    Sp = lambda a: fm_transform(a, T1, reverse=True)
    one, e1, e2 = klass(4, ()), klass(4, (0,)), klass(4, (1,))
    e12 = klass(4, (0, 1))
    assert dict(S(one).terms) == {(2, 3): G(-1)}
    assert dict(S(e1).terms) == {(3,): G(1)}
    assert dict(S(e2).terms) == {(2,): G(-1)}
    assert dict(S(e12).terms) == {(): G(1)}
    assert dict(Sp(klass(4, (2, 3))).terms) == {(): G(1)}
    assert dict(Sp(klass(4, (3,))).terms) == {(0,): G(1)}
    assert dict(Sp(klass(4, (2,))).terms) == {(1,): G(-1)}
    assert dict(Sp(one).terms) == {(0, 1): G(-1)}
    rep = fm_square_table(1)
    assert rep["status"] == "PASS"
    assert rep["table"] == {0: -1, 1: -1, 2: -1}


def test_square_table_g2():
    rep = fm_square_table(2)
    assert rep["status"] == "PASS"
    # stable per-degree table
    assert set(rep["table"].values()) == {1}


def test_square_table_refuses_g_above_3():
    with pytest.raises(CoeffError, match="intended for g <= 3"):
        fm_square_table(4)


def test_square_table_cannot_see_a_negated_integration(monkeypatch):
    # the composite integrates twice, so a sign error there cancels: the
    # tables stay those of the correct code (a known blind spot)
    integrate = cohomfm._integrate_block
    monkeypatch.setattr(cohomfm, "_integrate_block", lambda e, block: integrate(e, block).scale(G(-1)))
    assert fm_square_table(1) == {"table": {0: -1, 1: -1, 2: -1}, "status": "PASS", "orientation": ORIENTATION_NOTE}
    assert fm_square_table(2) == {"table": dict.fromkeys(range(5), 1), "status": "PASS", "orientation": ORIENTATION_NOTE}


def test_hh2_matches_bfield_random():
    rng = random.Random(61)
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


def test_hh2_zero_and_linearity():
    g = 2
    zero = gaussian_product_torus(g)
    out = fm_hh2(zero.poisson, zero)
    assert all(not e for row in out for e in row)
    P1 = ((G(0), G(1)), (G(-1), G(0)))
    P2 = ((G(0), G(Q(1, 2))), (G(Q(-1, 2)), G(0)))
    PS = tuple(
        tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(P1, P2)
    )
    t = gaussian_product_torus(g, P1)
    m1 = fm_hh2(P1, t)
    m2 = fm_hh2(P2, t)
    ms = fm_hh2(PS, t)
    assert ms == tuple(
        tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2)
    )


def _complex_bivector(rng, g):
    P = [[G(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            re = Q(rng.randint(-3, 3), rng.randint(1, 3))
            im = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            P[i][j] = G(re, im)
            P[j][i] = G(-re, -im)
    return tuple(tuple(r) for r in P)


def test_hh2_is_complex_linear_and_matches_bfield():
    # a holomorphic Poisson bivector is any antisymmetric complex matrix;
    # its transport is the B-field of the torus built on it
    rng = random.Random(62)
    for g in (2, 3):
        for _ in range(6):
            P = _complex_bivector(rng, g)
            torus = gaussian_product_torus(g, P, order=2)
            assert any(e.im for row in P for e in row)
            assert fm_hh2(P, torus) == bfield(torus).matrix


def test_conjugate_linear_transport_fails_on_a_non_real_bivector():
    # control: a conjugate-linear transport, Pi -> fm_hh2(conj(Pi)), is the
    # C-linear one on a real bivector but misses the B-field of a non-real one
    rng = random.Random(63)
    for g in (2, 3):
        P = _complex_bivector(rng, g)
        conj = tuple(tuple(e.conj() for e in row) for row in P)
        real = tuple(tuple(G(e.re) for e in row) for row in P)
        torus = gaussian_product_torus(g, P, order=2)
        real_torus = gaussian_product_torus(g, real, order=2)
        assert fm_hh2(real, real_torus) == bfield(real_torus).matrix
        assert fm_hh2(conj, torus) != bfield(torus).matrix


# Mukai's index theorem in cohomology: for E = Im H on the lattice
# generators and omega_E = sum_{i<j} E_ij e_i e_j, the transform of the
# Chern character exp(omega_E) is Pf(E) exp(omega_{E^-1}) on the f-block
# (E^-1 itself, not its transpose), chi(L) = Pf(E) being the index; for
# E = 0 the transform of 1 is the dual point class (-1)^g f_1 ... f_2g.
# Both sides are built wedge-free: the coefficient of e_S in exp(omega_M)
# is the Pfaffian of M on S.


def _pfaffian(m, idx) -> Q:
    """Pf of the antisymmetric matrix m on the sorted indices idx, by
    expansion along the first index."""
    if not idx:
        return Q(1)
    i, rest = idx[0], idx[1:]
    return sum(((-1) ** k * m[i][j] * _pfaffian(m, rest[:k] + rest[k + 1 :]) for k, j in enumerate(rest)), Q(0))


def _exp_omega(m, offset: int, ngen: int) -> ExtClass:
    """exp(omega_m) on the generators offset .. offset + len(m) - 1."""
    n = len(m)
    return ExtClass.of(
        ngen,
        {tuple(offset + k for k in s): G(_pfaffian(m, s)) for d in range(0, n + 1, 2) for s in combinations(range(n), d)},
    )


def _random_nondegenerate(rng, g):
    while True:
        m = [[Q(0)] * (2 * g) for _ in range(2 * g)]
        for i, j in combinations(range(2 * g), 2):
            m[i][j] = Q(rng.randint(-3, 3))
            m[j][i] = -m[i][j]
        if _pfaffian(m, tuple(range(2 * g))):
            return m


def _fixture_im_h(fixture, bundle):
    with open(os.path.join(FIXTURES, fixture)) as fh:
        cfg = parse_config(fh.read())
    ns = next(b.ns for b in cfg.bundles if b.name == bundle)
    return cfg.torus.g, [list(row) for row in _im_table(ns, cfg.torus)]


_RNG = random.Random(64)
_BUNDLE_FORMS = [
    _fixture_im_h("g1.json", "theta"),
    _fixture_im_h("e1xe2.json", "H_LM"),
    *((g, _random_nondegenerate(_RNG, g)) for g in (2, 2, 2, 3, 3, 3)),
]


@pytest.mark.parametrize("g, E", _BUNDLE_FORMS, ids=["theta", "H_LM", "g2-0", "g2-1", "g2-2", "g3-0", "g3-1", "g3-2"])
def test_transform_of_a_bundle_is_pfaffian_times_exp_of_the_inverse(g, E):
    ngen = 4 * g
    out = fm_transform(_exp_omega(E, 0, ngen), gaussian_product_torus(g))
    pf = _pfaffian(E, tuple(range(2 * g)))
    assert pf
    assert out == _exp_omega(rat_inverse(E), 2 * g, ngen).scale(G(pf))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_transform_of_a_degree_zero_bundle_is_the_dual_point_class(g):
    zero = [[Q(0)] * (2 * g) for _ in range(2 * g)]
    out = fm_transform(_exp_omega(zero, 0, 4 * g), gaussian_product_torus(g))
    assert dict(out.terms) == {tuple(range(2 * g, 4 * g)): G((-1) ** g)}
