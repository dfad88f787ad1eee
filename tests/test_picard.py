import random
from dataclasses import replace

import pytest

from nctorus.coeff import (
    CIRCLE_ONE,
    CircleConst,
    CoeffError,
    GRat,
    HbarSeries,
    PI_ONE,
    PiPoly,
    Q,
    Scalar,
    combine,
    exp_hpi2,
)
from nctorus.expalg import ExpSum, LinForm
from nctorus.picard import (
    Factor,
    LatticeGroup,
    NSData,
    QAHData,
    Semicharacter,
    _ah_factor,
    classify_cohomology,
    coboundary_twist,
    cocycle_defect,
    cocycle_holds,
    extension_obstruction,
    is_quantizable,
    lattice_pairs,
    lattice_slotspec,
    obstruction0,
    qah_factor,
    quotient,
    reduce_to_qah,
    semicharacter_value,
    validate_ns,
    validate_semicharacter,
)
from nctorus.sampling import (
    gaussian_product_torus,
    random_grat,
    random_qah,
    random_quantizable_ns,
    random_semicharacter,
)
from nctorus.torus import TorusData

G = GRat.of
PI2 = ((G(0), G(1)), (G(-1), G(0)))
T2 = gaussian_product_torus(2, PI2)
T1 = gaussian_product_torus(1)

H_M = NSData(((G(1), G(0)), (G(0), G(0))))
H_L = NSData(((G(0), G(0)), (G(0), G(1))))
H_LM = NSData(((G(1), G(0)), (G(0), G(1))))
CHI1_2 = Semicharacter(tuple(CIRCLE_ONE for _ in range(4)))
CHI1_1 = Semicharacter((CIRCLE_ONE, CIRCLE_ONE))


def test_validate_ns():
    zero = NSData(((G(0),),))
    assert validate_ns(zero, T1)
    h = NSData(((G(1),),))
    assert validate_ns(h, T1)
    half = NSData(((G(Q(1, 2)),),))
    assert not validate_ns(half, T1)
    with pytest.raises(CoeffError):
        validate_ns(NSData(((G(0, 1),),)), T1)  # not Hermitian


def test_lattice_factors_over_one_torus_share_one_slot_spec():
    # the spec is derived from the torus, once: star checks operand specs by identity
    zero = NSData(((G(0), G(0)), (G(0), G(0))))
    a, b = QAHData(zero, CHI1_2, ()), QAHData(zero, CHI1_2, ((G(1), G(0)),))
    assert qah_factor(a, T2).group.spec is qah_factor(b, T2).group.spec is lattice_slotspec(T2)
    assert _ah_factor(H_LM, CHI1_2, (), T2).group.spec is lattice_slotspec(T2)


def test_semicharacter_extension_and_validity():
    # chi extends along the E-corrected rule; any generator values are
    # valid once Im H is integral (classical Appell-Humbert theory; the
    # canonical chi for H = v conj(w) on Z[i] takes value 1 on 1 and i)
    h = NSData(((G(1),),))
    chi = Semicharacter((CIRCLE_ONE, CIRCLE_ONE))
    assert validate_semicharacter(h, chi, T1)
    # chi(1 + i) = chi(1) chi(i) exp(pi i Im H(1, i)) = -1
    val = semicharacter_value(h, chi, T1, (1, 1))
    assert val == CircleConst.of(1)
    chi_i = Semicharacter((CircleConst.of(Q(1, 2)), CircleConst.of(Q(1, 2))))
    assert validate_semicharacter(h, chi_i, T1)
    assert not validate_semicharacter(NSData(((G(Q(1, 2)),),)), chi, T1)


def _semicharacter_pair_loop(ns, chi, torus):
    """The identity chi(a+b) = chi(a) chi(b) exp(pi i Im H(lam_a, lam_b))
    checked on every pair of the radius-1 coordinate window."""
    from nctorus.coeff import combine
    from nctorus.checks import coordinate_window
    from nctorus.picard import LatticeGroup

    window = coordinate_window(2 * torus.g, 1)
    grp = LatticeGroup(torus, lattice_slotspec(torus))
    vec = {a: combine(a, torus.lattice) for a in window}
    chi_at = {a: semicharacter_value(ns, chi, torus, a) for a in window}
    for a in window:
        for b in window:
            lhs = semicharacter_value(ns, chi, torus, grp.compose(a, b))
            e = ns.value(vec[a], vec[b]).im
            if lhs != chi_at[a] * chi_at[b] * CircleConst.of(e):
                return False
    return True


def _random_integral_hermitian(rng, g):
    """Gaussian-integer Hermitian H: Im H is integral on Gaussian lattices."""
    h = [[None] * g for _ in range(g)]
    for i in range(g):
        h[i][i] = G(rng.randint(-2, 2))
        for j in range(i + 1, g):
            h[i][j] = G(rng.randint(-2, 2), rng.randint(-2, 2))
            h[j][i] = h[i][j].conj()
    return NSData(tuple(tuple(row) for row in h))


def test_semicharacter_pair_loop_is_implied_by_integrality():
    # the reference for the proof in validate_semicharacter: the window
    # pair loop holds for every chi once Im H is integral, and it does
    # catch an Im H that is not
    assert not _semicharacter_pair_loop(NSData(((G(Q(1, 3)),),)), CHI1_1, T1)
    rng = random.Random(77)
    cases = [(T1, _random_integral_hermitian(rng, 1)) for _ in range(8)]
    cases += [(T2, _random_integral_hermitian(rng, 2)) for _ in range(2)]
    cases += [(T2, random_quantizable_ns(rng, T2))]
    for torus, ns in cases:
        assert validate_ns(ns, torus)
        for _ in range(2):
            chi = random_semicharacter(rng, torus)
            assert _semicharacter_pair_loop(ns, chi, torus)
            assert validate_semicharacter(ns, chi, torus)


def test_ah_factor_classical_cocycle():
    t2c = gaussian_product_torus(2)  # commutative
    f = _ah_factor(H_LM, CHI1_2, (), t2c)
    one = ExpSum.one(f.group.spec)
    rng = random.Random(2)
    win = f.group.window(1)
    for _ in range(40):
        a, b = rng.choice(win), rng.choice(win)
        assert cocycle_holds(f, a, b)
    assert f.value((0, 0, 0, 0)) == one


def test_obstruction0_values():
    ob = obstruction0(H_LM, T2)
    # generators ordered (e1, i e1, e2, i e2); the (e1, e2) pair sits at (0, 2)
    assert ob[0][2] == PiPoly.pi_power(2, G(-1))
    assert ob[2][0] == PiPoly.pi_power(2, G(1))
    assert not any(p for row in obstruction0(H_M, T2) for p in row)
    assert not any(p for row in obstruction0(NSData(((G(0), G(0)), (G(0), G(0)))), T2) for p in row)


def test_is_quantizable_examples():
    assert is_quantizable(H_L, T2)
    assert is_quantizable(H_M, T2)
    assert not is_quantizable(H_LM, T2)
    # any H with Pi = 0 quantizes
    assert is_quantizable(H_LM, gaussian_product_torus(2))
    # flat bundles always do
    assert is_quantizable(NSData(((G(0), G(0)), (G(0), G(0)))), T2)


def test_obstructed_defect_value():
    f = _ah_factor(H_LM, CHI1_2, (), T2)
    d = cocycle_defect(f, (1, 0, 0, 0), (0, 0, 1, 0))
    t = d.single_term()
    assert t.form.is_zero()
    # exp(h {h_e2, h_e1}) = exp(-pi^2 h)
    want = Scalar(
        CIRCLE_ONE,
        HbarSeries.of(
            4,
            {
                0: PI_ONE,
                1: PiPoly.pi_power(2, G(-1)),
                2: PiPoly.pi_power(4, G(Q(1, 2))),
                3: PiPoly.pi_power(6, G(Q(-1, 6))),
            },
        ),
    )
    assert t.coeff == want


def test_qah_factor_cocycle_and_obstructed_rejection():
    data = QAHData(H_M, CHI1_2, ((G(1), G(0)),))
    f = qah_factor(data, T2).cached()
    for a, b in lattice_pairs(f.group, 1)[:2000]:
        assert cocycle_holds(f, a, b)
    with pytest.raises(CoeffError):
        qah_factor(QAHData(H_LM, CHI1_2, ()), T2)


def test_extension_obstruction_matches_ob0_and_vanishes_for_qah():
    f = _ah_factor(H_LM, CHI1_2, (), T2)
    table = extension_obstruction(f, 0)
    gens = [tuple(1 if i == k else 0 for i in range(4)) for k in range(4)]
    ob = obstruction0(H_LM, T2)
    for i in range(4):
        for j in range(4):
            assert table[(gens[i], gens[j])] == ob[i][j]
    data = QAHData(H_M, CHI1_2, ((G(1), G(0)), (G(0, 1), G(Q(1, 2))), (G(0), G(1))))
    q = qah_factor(data, T2).cached()
    for n in range(0, T2.order - 1):
        t = extension_obstruction(q, n)
        assert not any(t.values())


def test_extension_obstruction_coboundary_difference():
    # two exp-class lifts of the same quantizable classical factor differ
    # at each order by a 2-coboundary; here: zero tables for both, so the
    # difference is trivially a coboundary, and a nontrivial twist keeps
    # the table zero as well
    data = QAHData(H_M, CHI1_2, ((G(1), G(0)),))
    base = qah_factor(data, T2)
    spec = base.group.spec
    u = ExpSum.exponential(
        spec, LinForm(((random_grat(random.Random(5)), G(0)),), G(0), None)
    )
    twisted = coboundary_twist(base, u).cached()
    t = extension_obstruction(twisted, 0)
    assert not any(t.values())


def test_reduce_to_qah_fixed_point_and_witness():
    rng = random.Random(13)
    data = random_qah(rng, T2)
    f = qah_factor(data, T2)
    data2, wit = reduce_to_qah(f, T2)
    assert data2 == data
    assert wit == ExpSum.one(lattice_slotspec(T2)) or wit.single_term().form.is_zero()


def test_reduce_to_qah_roundtrip_with_twist():
    rng = random.Random(14)
    for _ in range(10):
        data = random_qah(rng, T2)
        f = qah_factor(data, T2)
        b = tuple(random_grat(rng) for _ in range(2))
        u = ExpSum.exponential(
            f.group.spec,
            LinForm((b,), G(Q(rng.randint(-2, 2), 2)), None),
            Scalar.of(CircleConst.of(Q(rng.randint(0, 7), 4)), HbarSeries.one(4)),
        )
        data2, wit = reduce_to_qah(coboundary_twist(f, u), T2)
        assert data2 == data
        assert wit.single_term().form.coeffs[0] == b


def test_reduce_rejects_non_cocycles():
    # a tabulated factor with a broken value is not cohomologous to qah
    data = QAHData(H_M, CHI1_2, ())
    f = qah_factor(data, T2)
    def broken(e):
        v = f.value(e)
        if e == (1, 0, 0, 0):
            return v.scale(Scalar.one(4).scale(G(2)))
        return v
    from nctorus.picard import Factor

    g = Factor(f.group, broken)
    with pytest.raises(CoeffError):
        reduce_to_qah(g, T2)


def test_classifier_verdicts():
    for g in range(1, 5):
        torus = gaussian_product_torus(g)
        zero = NSData(tuple(tuple(G(0) for _ in range(g)) for _ in range(g)))
        chi1 = Semicharacter(tuple(CIRCLE_ONE for _ in range(2 * g)))
        chi_bad = Semicharacter(
            tuple(
                CircleConst.of(Q(1, 2)) if k == 0 else CIRCLE_ONE
                for k in range(2 * g)
            )
        )
        v = classify_cohomology(QAHData(zero, chi_bad, ()), torus)
        assert v.kind == "AllVanish"
        v = classify_cohomology(QAHData(zero, chi1, ()), torus)
        from math import comb

        assert v.kind == "FreeTrivial"
        assert v.dims == tuple(comb(g, k) for k in range(g + 1))
        l1 = (tuple(G(1 if i == 0 else 0) for i in range(g)),)
        v = classify_cohomology(QAHData(zero, chi1, l1), torus)
        assert v.kind == "NontrivialDeformation" and v.h0_zero and v.h1_nonzero
    with pytest.raises(CoeffError):
        classify_cohomology(QAHData(H_M, CHI1_2, ()), T2)


HALF, THIRD = CircleConst.of(Q(1, 2)), CircleConst.of(Q(1, 3))


def test_quotient_subtracts_the_data():
    # L_t (x) L_s^{-1}: H_t - H_s, chi_t / chi_s, and l_t - l_s with the
    # shorter series padded by zeros, whichever side is shorter
    t = QAHData(H_LM, Semicharacter((HALF, THIRD, CIRCLE_ONE, HALF)), ((G(1), G(0, 1)), (G(2), G(0))))
    s = QAHData(H_M, Semicharacter((THIRD, THIRD, HALF, CIRCLE_ONE)), ((G(Q(1, 2)), G(0)),))
    q = quotient(t, s)
    assert q.ns == H_L
    assert q.chi.values == (CircleConst.of(Q(1, 6)), CIRCLE_ONE, CircleConst.of(Q(3, 2)), HALF)
    assert q.l == ((G(Q(1, 2)), G(0, 1)), (G(2), G(0)))
    assert quotient(s, t).l == ((G(Q(-1, 2)), G(0, -1)), (G(-2), G(0)))
    assert quotient(s, t).chi.values == tuple(c.inverse() for c in q.chi.values)


def test_quotient_is_free_exactly_for_equal_data():
    zero = NSData(((G(0),),))
    d = QAHData(zero, Semicharacter((THIRD, HALF)), ((G(1),),))
    assert classify_cohomology(quotient(d, d), T1).kind == "FreeTrivial"
    # a zero tail pads to the same series
    assert classify_cohomology(quotient(d, replace(d, l=((G(1),), (G(0),)))), T1).kind == "FreeTrivial"
    assert classify_cohomology(quotient(d, replace(d, chi=CHI1_1)), T1).kind == "AllVanish"
    for l in (((G(2),),), ((G(1),), (G(1),)), ()):
        assert classify_cohomology(quotient(d, replace(d, l=l)), T1).kind == "NontrivialDeformation"


# Crafted factors on T1 (T2 where the Poisson bivector matters), each
# refused by canonicalization or by the extension ladder with its message.
H0 = QAHData(NSData(((G(0),),)), CHI1_1, ())
ORDER = T1.order
FLAT_LINE = TorusData(1, ((G(1),), (G(2),)), ((G(0),),), ORDER)


def _factor(torus, coeffs, scalar, group=LatticeGroup, const=lambda e: G(0)):
    """e -> scalar(e) E(pi coeffs(lam) . v + pi const(e)), lam the lattice
    point of e."""
    spec = lattice_slotspec(torus)

    def value(e):
        lam = combine(e, torus.lattice)
        return ExpSum.exponential(spec, LinForm((coeffs(lam),), const(e), None), scalar(e))

    return Factor(group(torus, spec), value)


def _times_at(factor, element, scalar):
    """The factor with its value at ``element`` times ``scalar``."""
    return Factor(factor.group, lambda e: factor.value(e).scale(scalar) if e == element else factor.value(e))


class _Magma(LatticeGroup):
    """a + 2b: not associative, so a coboundary need not be closed."""

    def compose(self, a, b):
        return tuple(x + 2 * y for x, y in zip(a, b))


def _exp_h_pi(c=1):
    return Scalar.exp(HbarSeries.of(ORDER, {1: PiPoly.pi_power(1, G(c))}))


def _one(e):
    return Scalar.one(ORDER)


def _flat(lam):
    return (G(0),)


def _v(lam):
    return (G(1),)


QAH0 = qah_factor(H0, T1)
REFUSALS = [
    ("reduce-inconsistent-H", lambda: reduce_to_qah(_factor(T1, _v, _one), T1), "v-linear parts are not Neron-Severi consistent"),
    (
        "reduce-non-hermitian",
        lambda: reduce_to_qah(_factor(T1, lambda lam: (G(0, 1) * lam[0].conj(),), _one), T1),
        "matrix is not Hermitian",
    ),
    (
        "reduce-half-integral",
        lambda: reduce_to_qah(_factor(T1, lambda lam: (G(Q(1, 2)) * lam[0].conj(),), _one), T1),
        "recovered form has non-integral Im H on the lattice",
    ),
    ("reduce-obstructed", lambda: reduce_to_qah(_ah_factor(H_LM, CHI1_2, (), T2), T2), "recovered form is obstructed"),
    (
        # a TorusData need not pass validate_torus: on R-dependent generators
        # 1 and 2 the constants 0 and 1 are no real-linear function
        "reduce-degenerate-lattice",
        lambda: reduce_to_qah(_factor(FLAT_LINE, _flat, _one, const=lambda e: G(e[1])), FLAT_LINE),
        "residual constants are not a coboundary",
    ),
    (
        "reduce-log-not-pi-linear",
        lambda: reduce_to_qah(_times_at(QAH0, (1, 0), exp_hpi2(ORDER, G(1))), T1),
        "log series is not pi-linear",
    ),
    (
        "reduce-l-not-conjugate-linear",
        lambda: reduce_to_qah(_times_at(QAH0, (1, 0), _exp_h_pi()), T1),
        "h-series constants are not conjugate-linear in the lattice",
    ),
    (
        "reduce-roundtrip",
        lambda: reduce_to_qah(_times_at(QAH0, (1, 1), Scalar.one(ORDER).scale(G(2))), T1),
        "roundtrip verification failed: not cohomologous",
    ),
    ("ladder-not-scalar", lambda: extension_obstruction(_factor(T1, _v, _one), 0), "defect is not scalar: not a cocycle mod h"),
    (
        "ladder-unit-part",
        lambda: extension_obstruction(_factor(T1, _flat, lambda e: Scalar.from_circle(ORDER, CircleConst.of(Q(1, 4)))), 0),
        "defect has a unit part: not a cocycle mod h",
    ),
    (
        "ladder-not-one-mod-h",
        lambda: extension_obstruction(_factor(T1, _flat, lambda e: Scalar.one(ORDER).scale(G(2))), 0),
        "defect does not reduce to 1 mod h",
    ),
    (
        "ladder-lower-order",
        lambda: extension_obstruction(_factor(T1, _flat, lambda e: _exp_h_pi()), 1),
        "defect already present at order h^1 <= h^1",
    ),
    (
        "ladder-not-closed",
        lambda: extension_obstruction(_factor(T1, _flat, lambda e: _exp_h_pi(e[0]), _Magma), 0),
        "obstruction table is not a 2-cocycle",
    ),
    # a non-Hermitian H is refused when the factor is built, not at its first value
    ("ah-not-hermitian", lambda: _ah_factor(NSData(((G(0, 1),),)), CHI1_1, (), T1), "matrix is not Hermitian"),
    ("qah-not-hermitian", lambda: qah_factor(QAHData(NSData(((G(0, 1),),)), CHI1_1, ()), T1), "matrix is not Hermitian"),
]


@pytest.mark.parametrize("refused, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_canonicalization_and_the_extension_ladder_refuse(refused, message):
    with pytest.raises(CoeffError) as exc:
        refused()
    assert str(exc.value) == message
