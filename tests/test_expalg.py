import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from nctorus.coeff import (
    CIRCLE_ONE,
    GRAT_ONE,
    GRAT_ZERO,
    CircleConst,
    GRat,
    HbarSeries,
    PI_ONE,
    PiPoly,
    Q,
    Scalar,
    series_exp,
)
from nctorus.expalg import (
    AffineMap,
    ExpSum,
    LinForm,
    Slot,
    SlotSpec,
    SlotMismatch,
    poisson_pairing,
    scalar_add,
    star_inverse,
    substitute,
    translate,
)
from nctorus.moyal_oracle import taylor_expand, taylor_star_oracle

P2 = ((GRAT_ZERO, GRAT_ONE), (GRat.of(-1), GRAT_ZERO))


def spec_qp(order=4, scale=1):
    p = tuple(tuple(e.scale(Q(scale)) for e in row) for row in P2)
    return SlotSpec((Slot("v", 2, poisson=p),), order)


def form(spec, cv, const=0, slot=0):
    coeffs = list(spec.zero_form().coeffs)
    coeffs[slot] = tuple(GRat.of(c) for c in cv)
    return LinForm(tuple(coeffs), GRat.of(const), None)


def exp_of(spec, cv, const=0):
    return ExpSum.exponential(spec, form(spec, cv, const))


def test_mul_examples():
    spec = spec_qp()
    f = exp_of(spec, (1, 0))
    assert f * ExpSum.one(spec) == f
    # E(pi i/2 const)^2 = -1: imaginary constants fold to units
    half_i = ExpSum.exponential(
        spec, LinForm(spec.zero_form().coeffs, GRat.of(0, Q(1, 2)), None)
    )
    sq = half_i * half_i
    assert sq == ExpSum.scalar(spec, Scalar.from_grat(4, GRat.of(-1)))
    g, m, n = exp_of(spec, (1, 0)), exp_of(spec, (0, 1)), exp_of(spec, (1, 1))
    assert (g + m) * n == g * n + m * n


def test_star_examples_and_mod_h():
    spec = spec_qp()
    q, p = exp_of(spec, (1, 0)), exp_of(spec, (0, 1))
    prod = q.star(p)
    t = prod.single_term()
    assert t.form.coeffs[0] == (GRAT_ONE, GRAT_ONE)
    assert t.coeff == Scalar(
        CIRCLE_ONE, series_exp(HbarSeries.of(4, {1: PiPoly.pi_power(2)}))
    )
    assert q.star(ExpSum.one(spec)) == q
    # commutative slot: star is pointwise
    cspec = SlotSpec((Slot("c", 2),), 4)
    a, b = exp_of(cspec, (1, 2)), exp_of(cspec, (3, 1))
    assert a.star(b) == a * b
    # f * g == f.star(g) mod h: compare h^0 parts via order-1 truncation
    rng = random.Random(3)
    for _ in range(20):
        f = rnd_term(rng, spec)
        g = rnd_term(rng, spec)
        s, m = f.star(g).single_term(), (f * g).single_term()
        assert s.form == m.form
        assert s.coeff.series.coeffs[0] == m.coeff.series.coeffs[0]
        assert s.coeff.unit == m.coeff.unit


def test_star_commutator_structure():
    # star(f,g) and star(g,f) differ exactly by exp(2 h {l1,l2})
    spec = spec_qp()
    rng = random.Random(4)
    for _ in range(25):
        f, g = rnd_term(rng, spec), rnd_term(rng, spec)
        fg, gf = f.star(g), g.star(f)
        pr = poisson_pairing(spec, f.single_term().form, g.single_term().form)
        corr = Scalar(
            CIRCLE_ONE,
            series_exp(HbarSeries.of(4, {1: PiPoly.pi_power(2, pr.scale(Q(2)))})),
        )
        assert fg == gf.scale(corr)


def test_star_associativity_sampled():
    spec = spec_qp()
    rng = random.Random(8)
    for _ in range(50):
        f, g, h = (rnd_term(rng, spec) for _ in range(3))
        assert f.star(g).star(h) == f.star(g.star(h))


def test_star_inverse():
    spec = spec_qp()
    one = ExpSum.one(spec)
    assert star_inverse(one) == one
    f = exp_of(spec, (1, 0))
    assert star_inverse(f) == exp_of(spec, (-1, 0))
    coeff = Scalar(CIRCLE_ONE, HbarSeries.one(4) + HbarSeries.of(4, {1: PI_ONE}))
    g = ExpSum.exponential(spec, form(spec, (2, 1)), coeff)
    assert g.star(star_inverse(g)) == one
    assert star_inverse(g).star(g) == one


def test_opposite_slot_reverses_order():
    n_spec = spec_qp()
    o_spec = SlotSpec((Slot("v", 2, poisson=P2, opposite=True),), 4)
    rng = random.Random(12)
    for _ in range(25):
        cv1 = tuple(rng.randint(-2, 2) for _ in range(2))
        cv2 = tuple(rng.randint(-2, 2) for _ in range(2))
        a_o, b_o = exp_of(o_spec, cv1), exp_of(o_spec, cv2)
        a_n, b_n = exp_of(n_spec, cv1), exp_of(n_spec, cv2)
        lhs = a_o.star(b_o).single_term()
        rhs = b_n.star(a_n).single_term()
        assert lhs.coeff == rhs.coeff and lhs.form.coeffs == rhs.form.coeffs


def test_slot_mismatch():
    with pytest.raises(SlotMismatch):
        exp_of(spec_qp(), (1, 0)).star(exp_of(spec_qp(6), (1, 0)))


def test_substitute_identity_and_translate():
    spec = spec_qp()
    f = exp_of(spec, (1, 2), const=Q(1, 3))
    assert substitute(f, AffineMap.identity(spec)) == f
    assert translate(f, "v", (GRAT_ZERO, GRAT_ZERO)) == f
    t = translate(f, "v", (GRat.of(1), GRat.of(0, 1)))
    # exponent constant picks up 1*1 + 2*i -> real part symbolic, im to unit
    term = t.single_term()
    assert term.form.const_pi == GRat.of(1 + Q(1, 3))
    assert term.coeff.unit == CircleConst.of(2)  # exp(pi i * 2) = 1
    back = translate(t, "v", (GRat.of(-1), GRat.of(0, -1)))
    assert back == f


def test_conjugate_pair_translation():
    spec = SlotSpec((Slot("l", 1, conjugate_pair=True),), 4)
    # E(pi * l~): translation by xi shifts the conjugate half by conj(xi),
    # so the constant picks up conj(xi) = -i, i.e. the unit exp(-pi i) = -1
    f = ExpSum.exponential(
        spec, LinForm(((GRAT_ZERO, GRAT_ONE),), GRAT_ZERO, None)
    )
    t = translate(f, "l", (GRat.of(0, 1),))  # xi = i
    assert t.single_term().coeff == Scalar.from_grat(4, GRat.of(-1))
    g = ExpSum.exponential(spec, LinForm(((GRAT_ONE, GRAT_ZERO),), GRAT_ZERO, None))
    tg = translate(g, "l", (GRat.of(0, 1),))
    assert tg.single_term().coeff == Scalar.from_grat(4, GRat.of(-1))


def test_addition_map_is_star_homomorphism():
    # pull back along (v1, v2) -> v1 + v2 from the (a+b)Pi algebra to the
    # (a Pi, b Pi) two-slot algebra
    a_w, b_w = 2, 3
    src = SlotSpec(
        (
            Slot("x", 2, poisson=_scaled(P2, a_w)),
            Slot("y", 2, poisson=_scaled(P2, b_w)),
        ),
        4,
    )
    tgt = spec_qp(scale=a_w + b_w)
    eye = [
        (GRAT_ONE, GRAT_ZERO, GRAT_ONE, GRAT_ZERO),
        (GRAT_ZERO, GRAT_ONE, GRAT_ZERO, GRAT_ONE),
    ]
    add = AffineMap(src, tgt, tuple(eye), (GRAT_ZERO, GRAT_ZERO))
    rng = random.Random(21)
    for _ in range(20):
        f, g = rnd_term(rng, tgt), rnd_term(rng, tgt)
        lhs = substitute(f.star(g), add)
        rhs = substitute(f, add).star(substitute(g, add))
        assert lhs == rhs


def test_antipode_intertwines_with_opposite():
    # v -> -v maps star_{Pi} to the opposite of star_{-Pi}
    spec_pos = spec_qp()
    spec_neg = SlotSpec((Slot("v", 2, poisson=_scaled(P2, -1)),), 4)
    n = spec_pos.nvars
    neg = AffineMap(
        spec_neg,
        spec_pos,
        tuple(
            tuple(GRat.of(-1) if i == j else GRAT_ZERO for j in range(n))
            for i in range(n)
        ),
        tuple([GRAT_ZERO] * n),
    )
    rng = random.Random(22)
    for _ in range(20):
        f, g = rnd_term(rng, spec_pos), rnd_term(rng, spec_pos)
        lhs = substitute(f.star(g), neg)
        rhs = substitute(g, neg).star(substitute(f, neg))
        assert lhs == rhs


def _scaled(p, s):
    return tuple(tuple(e.scale(Q(s)) for e in row) for row in p)


def rnd_term(rng, spec, quarter_units=False):
    coeffs = tuple(
        tuple(
            GRat.of(Q(rng.randint(-2, 2), rng.randint(1, 2)), Q(rng.randint(-2, 2), 2))
            for _ in range(s.nvars)
        )
        for s in spec.slots
    )
    const = GRat.of(Q(rng.randint(-2, 2), 2), Q(rng.randint(-2, 2), 2))
    ch = HbarSeries.of(
        spec.order, {1: PiPoly.const(GRat.of(Q(rng.randint(-1, 1), 2)))}
    )
    den = 2 if quarter_units else 4
    coeff = Scalar.of(
        CircleConst.of(Q(rng.randint(0, 2 * den - 1), den)),
        HbarSeries.one(spec.order)
        + HbarSeries.of(spec.order, {2: PiPoly.const(GRat.of(rng.randint(-1, 1)))}),
    )
    return ExpSum.exponential(spec, LinForm(coeffs, const, ch), coeff)


_small = st.builds(Q, st.integers(-2, 2), st.sampled_from((1, 2)))
_grats = st.builds(GRat, _small, _small)


@st.composite
def raw_term(draw, spec):
    """A (Scalar, LinForm) pair before normalization: the imaginary
    pi-constant is any multiple of 1/8, quarter turns included, the
    h-constant is absent, zero or h-divisible, and the coefficient is
    often zero, with or without a circle unit."""
    n = spec.order
    coeffs = tuple(tuple(draw(_grats) for _ in range(s.nvars)) for s in spec.slots)
    const_pi = GRat(draw(_small), Q(draw(st.integers(-16, 16)), 8))
    hbar = draw(
        st.one_of(
            st.none(),
            st.just(HbarSeries.zero(n)),
            st.dictionaries(st.integers(1, n - 1), _grats, max_size=2).map(
                lambda d: HbarSeries.of(n, {k: PiPoly.pi_power(k % 3, c) for k, c in d.items()})
            ),
        )
    )
    unit = CircleConst.of(Q(draw(st.integers(0, 15)), 8))
    series = draw(
        st.one_of(
            st.just(HbarSeries.zero(n)),
            st.dictionaries(st.integers(0, n - 1), _grats, max_size=3).map(
                lambda d: HbarSeries.of(n, {k: PiPoly.const(c) for k, c in d.items()})
            ),
        )
    )
    return Scalar.of(unit, series), LinForm(coeffs, const_pi, hbar)


TWO_SLOTS = SlotSpec((Slot("v", 2, poisson=P2), Slot("l", 1, conjugate_pair=True)), 3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((spec_qp(order=3), TWO_SLOTS)), st.data())
def test_single_term_make_matches_general_path(spec, data):
    term = data.draw(raw_term(spec))
    _, other = data.draw(raw_term(spec))
    form = term[1]
    assume(other.coeffs != form.coeffs or other.const_pi.re != form.const_pi.re)
    one = ExpSum.make(spec, [term])
    # a zero term with another exponent sends the pair down the merge path
    two = ExpSum.make(spec, [term, (Scalar.zero(spec.order), other)])
    assert one == two and hash(one) == hash(two) and repr(one) == repr(two)


def test_oracle_trivials():
    spec = spec_qp()
    one = ExpSum.one(spec)
    assert taylor_star_oracle(one, one, 4) == taylor_expand(one, 4)
    # Pi = 0: oracle equals the plain product
    zspec = SlotSpec((Slot("v", 2, poisson=_scaled(P2, 0)),), 4)
    rng = random.Random(30)
    f, g = rnd_term(rng, zspec), rnd_term(rng, zspec)
    assert taylor_star_oracle(f, g, 5) == taylor_expand(f * g, 5)


def test_oracle_agrees_with_star():
    spec = SlotSpec(
        (Slot("v", 2, poisson=P2), Slot("l", 1, conjugate_pair=True)), 4
    )
    rng = random.Random(31)
    for _ in range(12):
        f, g = rnd_term(rng, spec), rnd_term(rng, spec)
        assert taylor_expand(f.star(g), 5) == taylor_star_oracle(f, g, 5)


def test_oracle_on_sums():
    # multi-term inputs collide monomials in the oracle accumulator, which
    # only merges foldable (quarter-turn) units; use those
    spec = spec_qp()
    rng = random.Random(32)
    f = rnd_term(rng, spec, quarter_units=True) + rnd_term(rng, spec, quarter_units=True)
    g = rnd_term(rng, spec, quarter_units=True)
    assert taylor_expand(f.star(g), 4) == taylor_star_oracle(f, g, 4)
