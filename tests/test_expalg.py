import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from nctorus.coeff import (
    CIRCLE_ONE,
    GRAT_ONE,
    GRAT_ZERO,
    CircleConst,
    CoeffError,
    GRat,
    HbarSeries,
    PI_ONE,
    PiPoly,
    Q,
    Scalar,
    gauss_mac,
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
from nctorus import moyal_oracle as mo
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


# -- the oracle's exact forms against Scalar arithmetic ----------------------


def _materialize(form, order):
    """The Scalar that an oracle form (unit, den, parts) stands for."""
    unit, den, parts = form
    levels = {}
    for (k, p), (re, im) in parts:
        levels.setdefault(k, {})[p] = GRat(Q(re, den), Q(im, den))
    return Scalar(unit, HbarSeries.of(order, {k: PiPoly.of(c) for k, c in levels.items()}))


def _materialized(result, order):
    return {
        c: {m: _materialize(form, order) for m, form in bucket.items()}
        for c, bucket in result.items()
    }


def _scalar_accumulate(result, const_key, mono, scal):
    # a zero contribution is no contribution, whatever its unit
    if scal.is_zero():
        return
    bucket = result.setdefault(const_key, {})
    old = bucket.get(mono)
    total = scal if old is None else scalar_add(old, scal)
    if total.is_zero():
        del bucket[mono]
    else:
        bucket[mono] = total


def _monomial_times_coeff(t, d, c, order):
    """t.coeff * Scalar(pi^d c) by Scalar arithmetic."""
    return t.coeff * Scalar(CIRCLE_ONE, HbarSeries.of(order, {0: PiPoly.pi_power(d, c)}))


def _scalar_expand(f, degree):
    order = f.spec.order
    result = {}
    for t in f.terms:
        poly, den = mo._exp_poly(mo._flat_pairs(t.form), f.spec.nvars, degree)
        for mono, (a, b) in poly.items():
            scal = _monomial_times_coeff(t, sum(mono), GRat(Q(a, den), Q(b, den)), order)
            _scalar_accumulate(result, t.form.const_pi.re, mono, scal)
    return result


def _scalar_oracle(f, g, degree):
    """The oracle's output as Scalars: each monomial's h-levels become a
    Scalar over their own denominators, multiplied by the term pair's
    coefficient product, one Scalar product per monomial."""
    spec = f.spec
    n, order = spec.nvars, spec.order
    pvars, cvars = mo._var_split(spec)
    np_, nc = len(pvars), len(cvars)
    entries, lp = mo._pairing_entries(spec, pvars)
    result = {}
    for t1 in f.terms:
        flat1 = mo._flat_pairs(t1.form)
        p1, den1 = mo._exp_poly([flat1[i] for i in pvars], np_, degree + order - 1)
        c1, cden1 = mo._exp_poly([flat1[i] for i in cvars], nc, degree)
        for t2 in g.terms:
            flat2 = mo._flat_pairs(t2.form)
            p2, den2 = mo._exp_poly([flat2[i] for i in pvars], np_, degree + order - 1)
            c2, cden2 = mo._exp_poly([flat2[i] for i in cvars], nc, degree)
            comm = mo._mul_trunc(c1, c2, degree)
            cache1, cache2 = {(0,) * np_: p1}, {(0,) * np_: p2}
            state = {((0,) * np_, (0,) * np_): (1, 0)}
            dens = [den1 * den2 * cden1 * cden2]
            local = {}
            for k in range(order):
                if k:
                    dens.append(dens[-1] * lp * k)
                for (alpha, beta), (wa, wb) in state.items():
                    da = mo._deriv_cached(cache1, alpha, np_)
                    db = mo._deriv_cached(cache2, beta, np_)
                    for pm, (a, b) in mo._mul_trunc(da, db, degree).items():
                        re, im = a * wa - b * wb, a * wb + b * wa
                        for cm, (c, d) in comm.items():
                            if sum(pm) + sum(cm) <= degree:
                                mono = mo._merge_mono(n, pvars, cvars, pm, cm)
                                gauss_mac(local.setdefault(mono, {}), k, re, im, c, d)
                nxt = {}
                for (alpha, beta), (wa, wb) in state.items():
                    for i, j, (pa, pb) in entries:
                        na = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                        nb = beta[:j] + (beta[j] + 1,) + beta[j + 1 :]
                        gauss_mac(nxt, (na, nb), wa, wb, pa, pb)
                state = nxt
            base = t1.coeff * t2.coeff
            const_key = (t1.form.const_pi + t2.form.const_pi).re
            for mono, levels in local.items():
                coeffs = {
                    k: PiPoly.pi_power(sum(mono) + 2 * k, GRat(Q(re, dens[k]), Q(im, dens[k])))
                    for k, (re, im) in levels.items()
                }
                scal = base * Scalar(CIRCLE_ONE, HbarSeries.of(order, coeffs))
                _scalar_accumulate(result, const_key, mono, scal)
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CoeffError as exc:
        return ("CoeffError", str(exc))


@st.composite
def dense_sum(draw, spec):
    """An ExpSum of one or two terms with dense coefficients: every h-level
    holds one to three pi-degrees, and the unit is any multiple of 1/8,
    often the same for both terms.  The exponents' real pi-constants are
    0 or 1/2, so two terms often collide on a monomial."""
    n = spec.order
    units = [draw(st.integers(0, 15))]
    units.append(draw(st.one_of(st.just(units[0]), st.integers(0, 15))))
    terms = []
    for unit in units[: draw(st.integers(1, 2))]:
        coeffs = tuple(tuple(draw(_grats) for _ in range(s.nvars)) for s in spec.slots)
        const = GRat(draw(st.sampled_from((Q(0), Q(1, 2)))), draw(_small))
        series = HbarSeries.of(
            n,
            {
                k: PiPoly.of(draw(st.dictionaries(st.integers(0, 2), _grats, min_size=1, max_size=3)))
                for k in range(n)
            },
        )
        assume(not series.is_zero())
        coeff = Scalar.of(CircleConst.of(Q(unit, 8)), series)
        terms.append(ExpSum.exponential(spec, LinForm(coeffs, const, None), coeff))
    if len(terms) == 2:
        assume(terms[0].terms[0].form.coeffs != terms[1].terms[0].form.coeffs)
    return sum(terms[1:], terms[0])


def _assert_canonical(result):
    for bucket in result.values():
        for unit, den, parts in bucket.values():
            assert parts and den > 0 and unit.q < Q(1, 2)
            assert list(parts) == sorted(parts) and len({k for k, _ in parts}) == len(parts)
            assert all(re or im for _, (re, im) in parts)
            assert gcd(den, *(x for _, v in parts for x in v)) == 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_taylor_expand_matches_scalar_products(data):
    spec = data.draw(st.sampled_from((spec_qp(order=3), TWO_SLOTS)))
    f = data.draw(dense_sum(spec))
    got = _outcome(taylor_expand, f, 3)
    want = _outcome(_scalar_expand, f, 3)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_canonical(got)
        assert _materialized(got, spec.order) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_taylor_star_oracle_matches_scalar_products(data):
    spec = data.draw(st.sampled_from((spec_qp(order=3), TWO_SLOTS)))
    f, g = data.draw(dense_sum(spec)), data.draw(dense_sum(spec))
    got = _outcome(taylor_star_oracle, f, g, 2)
    want = _outcome(_scalar_oracle, f, g, 2)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_canonical(got)
        assert _materialized(got, spec.order) == want


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((CIRCLE_ONE, CircleConst.of(Q(1, 8)))),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 4)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        min_size=1,
    ),
    st.integers(1, 12),
    st.integers(2, 6),
)
def test_oracle_form_is_unique_per_value(unit, acc, den, m):
    form = mo._form(unit, den, acc)
    # the same value over the denominator den * m
    assert mo._form(unit, den * m, {k: (re * m, im * m) for k, (re, im) in acc.items()}) == form
    if not form[2]:
        return
    # a perturbed numerator is another value and another form
    (key, (re, im)), *rest = form[2]
    other = (form[0], form[1], ((key, (re + 1, im)), *rest))
    assert _materialize(other, 4) != _materialize(form, 4)
    assert mo._form(unit, form[1], dict(other[2])) != form


def test_oracle_collisions_of_differing_units_raise():
    spec = spec_qp()
    f = ExpSum.exponential(spec, form(spec, (1, 0)), Scalar.of(CircleConst.of(Q(1, 8)), HbarSeries.one(4)))
    g = ExpSum.exponential(spec, form(spec, (0, 1)), Scalar.of(CircleConst.of(Q(3, 8)), HbarSeries.one(4)))
    with pytest.raises(CoeffError, match="incompatible circle constants"):
        taylor_expand(f + g, 2)
    with pytest.raises(CoeffError, match="incompatible circle constants"):
        taylor_star_oracle(f + g, ExpSum.one(spec), 2)


def test_oracle_cancelling_terms_drop_the_monomial():
    # E(pi x) - E(-pi x) is odd in x: every even monomial cancels
    spec = spec_qp()
    minus = Scalar.from_grat(4, GRat.of(-1))
    f = exp_of(spec, (1, 0)) + ExpSum.exponential(spec, form(spec, (-1, 0)), minus)
    one = ExpSum.one(spec)
    for result in (taylor_expand(f, 4), taylor_star_oracle(f, one, 4)):
        assert sorted(result[Q(0)]) == [(1, 0), (3, 0)]
