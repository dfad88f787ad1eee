import itertools
import random
from math import factorial, gcd
from operator import add

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
    translation,
)
from nctorus import moyal_oracle as mo
from nctorus.poincare import make_context
from nctorus.sampling import gaussian_product_torus
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
    assert sq == ExpSum.exponential(spec, spec.zero_form(), Scalar.one(4).scale(GRat.of(-1)))
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
    n = spec.nvars
    eye = tuple(tuple(GRat.of(int(i == j)) for j in range(n)) for i in range(n))
    assert substitute(f, AffineMap(spec, spec, eye, (GRAT_ZERO,) * n)) == f
    assert translate(f, translation(spec, {"v": (GRAT_ZERO, GRAT_ZERO)})) == f
    t = translate(f, translation(spec, {"v": (GRat.of(1), GRat.of(0, 1))}))
    # exponent constant picks up 1*1 + 2*i -> real part symbolic, im to unit
    term = t.single_term()
    assert term.form.const_pi == GRat.of(1 + Q(1, 3))
    assert term.coeff.unit == CircleConst.of(2)  # exp(pi i * 2) = 1
    back = translate(t, translation(spec, {"v": (GRat.of(-1), GRat.of(0, -1))}))
    assert back == f


def test_conjugate_pair_translation():
    spec = SlotSpec((Slot("l", 1, conjugate_pair=True),), 4)
    # E(pi * l~): translation by xi shifts the conjugate half by conj(xi),
    # so the constant picks up conj(xi) = -i, i.e. the unit exp(-pi i) = -1
    f = ExpSum.exponential(
        spec, LinForm(((GRAT_ZERO, GRAT_ONE),), GRAT_ZERO, None)
    )
    by_i = translation(spec, {"l": (GRat.of(0, 1),)})  # xi = i
    t = translate(f, by_i)
    assert t.single_term().coeff == Scalar.one(4).scale(GRat.of(-1))
    g = ExpSum.exponential(spec, LinForm(((GRAT_ONE, GRAT_ZERO),), GRAT_ZERO, None))
    tg = translate(g, by_i)
    assert tg.single_term().coeff == Scalar.one(4).scale(GRat.of(-1))


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


def _numerators(form):
    """(den, {(k, p): (re, im)}): the entries of an oracle form
    (unit, K0, lead, shape) over one denominator, keys made absolute."""
    _, (k0, p0), (d, (a, b)), (sd, parts) = form
    nums = {(k0 + k, p0 + p): (a * re - b * im, a * im + b * re) for (k, p), (re, im) in parts}
    return d * sd, nums


def _materialize(form, order):
    """The Scalar that an oracle form (unit, K0, lead, shape) stands for."""
    den, nums = _numerators(form)
    levels = {}
    for (k, p), (re, im) in nums.items():
        levels.setdefault(k, {})[p] = GRat(Q(re, den), Q(im, den))
    return Scalar(form[0], HbarSeries.of(order, {k: PiPoly.of(c) for k, c in levels.items()}))


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


def _monomials(n, degree):
    """Exponent tuples in n variables of total degree at most ``degree``."""
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            yield tuple(combo.count(i) for i in range(n))


def _ref_exp_poly(lin, degree):
    """{alpha: prod_i lin[i]^alpha_i / alpha_i!}: the Taylor coefficients
    of E(pi sum_i lin[i] x_i) up to total degree, without their
    pi^|alpha|, zeros dropped."""
    out = {}
    for alpha in _monomials(len(lin), degree):
        c = GRAT_ONE
        for x, e in zip(lin, alpha):
            for _ in range(e):
                c = c * x
            c = c.scale(Q(1, factorial(e)))
        if c:
            out[alpha] = c
    return out


def _ref_deriv(poly, alpha, degree):
    """d^alpha of a tuple-monomial polynomial, up to total degree."""
    out = {}
    for m, c in poly.items():
        if all(e >= a for e, a in zip(m, alpha)) and sum(m) - sum(alpha) <= degree:
            falling = 1
            for e, a in zip(m, alpha):
                falling *= factorial(e) // factorial(e - a)
            out[tuple(e - a for e, a in zip(m, alpha))] = c.scale(Q(falling))
    return out


def _lin(t):
    return [c for s in t.form.coeffs for c in s]


def _scalar_expand(f, degree):
    order = f.spec.order
    result = {}
    for t in f.terms:
        for mono, c in _ref_exp_poly(_lin(t), degree).items():
            scal = _monomial_times_coeff(t, sum(mono), c, order)
            _scalar_accumulate(result, t.form.const_pi, mono, scal)
    return result


def _scalar_oracle(f, g, degree):
    """sum_k h^k P^k (f (x) g) / k! multiplied out in GRats: each operand
    term expanded in all variables to degree + order - 1, differentiated
    and multiplied monomial by monomial; each monomial's h-levels are a
    Scalar, multiplied by the term pair's coefficient product."""
    spec = f.spec
    n, order = spec.nvars, spec.order
    entries = []  # (i, j, weight) of P on global variables
    offset = 0
    for s in spec.slots:
        if s.poisson is not None:
            for i in range(s.dim):
                for j in range(s.dim):
                    w = -s.poisson[i][j] if s.opposite else s.poisson[i][j]
                    if w:
                        entries.append((offset + i, offset + j, w))
        offset += s.nvars
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    result = {}
    for t1 in f.terms:
        p1 = _ref_exp_poly(_lin(t1), degree + order - 1)
        for t2 in g.terms:
            p2 = _ref_exp_poly(_lin(t2), degree + order - 1)
            state = {((0,) * n, (0,) * n): GRAT_ONE}
            levels = {}  # mono -> {h level -> GRat}
            for k in range(order):
                for (alpha, beta), w in state.items():
                    w = w.scale(Q(1, factorial(k)))
                    db = _ref_deriv(p2, beta, degree)
                    for m1, a in _ref_deriv(p1, alpha, degree).items():
                        for m2, b in db.items():
                            mono = tuple(map(add, m1, m2))
                            if sum(mono) <= degree:
                                lv = levels.setdefault(mono, {})
                                lv[k] = lv.get(k, GRAT_ZERO) + w * a * b
                nxt = {}
                for (alpha, beta), w in state.items():
                    for i, j, p in entries:
                        key = (tuple(map(add, alpha, unit[i])), tuple(map(add, beta, unit[j])))
                        nxt[key] = nxt.get(key, GRAT_ZERO) + w * p
                state = nxt
            base = t1.coeff * t2.coeff
            const_key = t1.form.const_pi + t2.form.const_pi
            for mono, lv in levels.items():
                coeffs = {k: PiPoly.pi_power(sum(mono) + 2 * k, c) for k, c in lv.items()}
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
        for unit, _, (d, (a, b)), (sd, parts) in bucket.values():
            assert parts and d > 0 and sd > 0 and Q(0) <= unit.q < Q(1, 2)
            assert parts[0] == ((0, 0), (sd, 0))
            assert list(parts) == sorted(parts) and len({k for k, _ in parts}) == len(parts)
            assert all(re or im for _, (re, im) in parts)
            assert gcd(sd, *(x for _, v in parts for x in v)) == 1
            assert (a or b) and gcd(d, a, b) == 1


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


@pytest.mark.parametrize("degree", (0, 2))
def test_oracle_packing_boundary_matches_the_reference(degree):
    # monomials are packed in base B = degree + order.  At degree 0 every
    # kept product is the constant; E(pi a v1) puts its whole Poisson-leg
    # expansion on one variable, up to the exponent B - 1
    spec = spec_qp(order=3)
    series = HbarSeries.of(3, {0: PiPoly.const(GRat.of(2, 1)), 1: PiPoly.pi_power(1, GRat.of(Q(1, 3)))})
    coeff = Scalar.of(CircleConst.of(Q(1, 8)), series)
    f = ExpSum.exponential(spec, form(spec, (Q(3, 2), 0), Q(1, 2)), coeff)
    g = exp_of(spec, (0, -2))
    got = taylor_star_oracle(f, g, degree)
    _assert_canonical(got)
    assert _materialized(got, 3) == _scalar_oracle(f, g, degree)
    assert taylor_expand(f.star(g), degree) == got
    assert _materialized(taylor_expand(f, degree), 3) == _scalar_expand(f, degree)
    if degree == 0:
        assert list(got[GRat.of(Q(1, 2))]) == [(0, 0)]


def _shape_ids(result):
    return {id(form[3]) for bucket in result.values() for form in bucket.values()}


def test_kernel_pair_convolves_once_per_poisson_leg_monomial(monkeypatch):
    # a two-slot pair at N = 6, degree 6 has 924 monomials in six
    # variables, 28 of them on the Poisson leg (v1, v2); the commutative
    # leg only scales each Poisson-leg monomial's convolved coefficient
    spec = SlotSpec((Slot("v", 2, poisson=P2), Slot("l", 2, conjugate_pair=True)), 6)
    series = HbarSeries.of(6, {k: PiPoly.pi_power(k % 3, GRat.of(Q(k + 1, 2), 1)) for k in range(6)})
    coeff = Scalar.of(CircleConst.of(Q(3, 8)), series)

    def term(v, l, c=None):
        lin = LinForm((tuple(map(GRat.of, v)), tuple(map(GRat.of, l))), GRAT_ZERO, None)
        return ExpSum.exponential(spec, lin, c)

    # every variable's summed coefficient is nonzero: no monomial vanishes
    f = term((1, Q(1, 2)), (2, 1, -1, Q(3, 2)), coeff)
    g = term((Q(-1, 2), 2), (1, 1, 2, 1))
    calls = [0]
    convolve = mo._convolve

    def counting(*args):
        calls[0] += 1
        return convolve(*args)

    monkeypatch.setattr(mo, "_convolve", counting)
    got = taylor_star_oracle(f, g, 6)
    assert sum(map(len, got.values())) == 924
    assert calls[0] <= 28
    # the monomials of one tail share its shape object; the expansion of
    # the single-term product is one tail
    assert len(_shape_ids(got)) <= 28
    monkeypatch.undo()
    expanded = taylor_expand(f.star(g), 6)
    assert len(_shape_ids(expanded)) == 1
    assert expanded == got
    # l1's coefficients cancel: its zero entries of the commutative leg
    # are dropped, leaving the 462 monomials free of l1
    h = term((Q(-1, 2), 2), (-2, 1, 2, 1))
    got = taylor_star_oracle(f, h, 6)
    assert sum(map(len, got.values())) == 462
    assert all(mono[2] == 0 for bucket in got.values() for mono in bucket)
    assert taylor_expand(f.star(h), 6) == got


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
    if form is None:
        return
    # the form's own entries give it back
    d, nums = _numerators(form)
    assert mo._form(unit, d, nums) == form
    # a perturbed numerator is another value and another form
    key, (re, im) = min(nums.items())
    other = mo._form(unit, d, {**nums, key: (re + 1, im)})
    assert other is None or _materialize(other, 4) != _materialize(form, 4)
    assert other != form


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 4)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        min_size=1,
    ),
    st.integers(1, 12),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any),
    st.integers(1, 6),
)
def test_oracle_form_scaled_by_a_gaussian_rational_changes_only_its_lead(acc, den, scale, q):
    form = mo._form(CIRCLE_ONE, den, acc)
    assume(form is not None)
    x, y = scale
    scaled = {k: (re * x - im * y, re * y + im * x) for k, (re, im) in acc.items()}
    got = mo._form(CIRCLE_ONE, den * q, scaled)
    assert got[:2] == form[:2] and got[3] == form[3]
    (d, (a, b)), (d2, (a2, b2)) = form[2], got[2]
    assert GRat(Q(a2, d2), Q(b2, d2)) == GRat(Q(a, d), Q(b, d)) * GRat(Q(x, q), Q(y, q))
    assert (got[2] == form[2]) == ((x, y) == (q, 0))


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
    minus = Scalar.one(4).scale(GRat.of(-1))
    f = exp_of(spec, (1, 0)) + ExpSum.exponential(spec, form(spec, (-1, 0)), minus)
    one = ExpSum.one(spec)
    for result in (taylor_expand(f, 4), taylor_star_oracle(f, one, 4)):
        assert sorted(result[GRAT_ZERO]) == [(1, 0), (3, 0)]


def test_scalar_add_of_differing_units_raises():
    one = Scalar.one(4)
    with pytest.raises(CoeffError, match="incompatible circle constants"):
        scalar_add(one, Scalar.from_circle(4, CircleConst.of(Q(1, 4))))
    # a half-integer unit is folded into the series by Scalar.of, so the
    # units of canonical scalars agree and the sum stays in the class
    i = Scalar.from_circle(4, CircleConst.of(Q(1, 2)))
    assert i.unit == CIRCLE_ONE
    assert scalar_add(one, i) == Scalar(CIRCLE_ONE, HbarSeries.one(4).scale(GRat.of(1, 1)))


# the Poincare kernel's V x dual slots at g = 1 and g = 2
POINCARE_SPECS = tuple(make_context(gaussian_product_torus(g)).spec2 for g in (1, 2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(POINCARE_SPECS), st.data())
def test_one_pass_translate_is_the_identity_substitution(spec, data):
    # distinct exponents: like terms with unequal units have no sum in the class
    terms = st.lists(
        raw_term(spec), min_size=1, max_size=3, unique_by=lambda t: (t[1].coeffs, t[1].const_pi.re)
    )
    f = ExpSum.make(spec, data.draw(terms))
    v, l = spec.slots
    a = tuple(data.draw(_grats) for _ in range(v.dim))
    b = tuple(data.draw(_grats) for _ in range(l.dim))
    n = spec.nvars
    eye = tuple(tuple(GRat.of(int(i == j)) for j in range(n)) for i in range(n))
    shifted = AffineMap(spec, spec, eye, v.shift_vector(a) + l.shift_vector(b))
    by_a, by_b = translation(spec, {"v": a}), translation(spec, {"l": b})
    both = translate(f, translation(spec, {"v": a, "l": b}))
    assert both == substitute(f, shifted)
    assert both == translate(translate(f, by_a), by_b)
    assert both == translate(translate(f, by_b), by_a)
    zero = {"v": (GRAT_ZERO,) * v.dim, "l": (GRAT_ZERO,) * l.dim}
    assert translate(f, translation(spec, zero)) is f and translate(f, translation(spec, {})) is f
    # a translation prepared over other slots is refused
    with pytest.raises(SlotMismatch):
        translate(f, translation(SlotSpec((v,), spec.order), {"v": a}))


def test_a_zero_scalar_has_unit_one_and_merges_with_any_unit():
    d = Scalar.of(CircleConst.of(Q(1, 4)), HbarSeries.one(4).scale(GRat.of(2)))
    minus = d.scale(GRat.of(-1))
    for zero in (d.scale(GRat.of(0)), scalar_add(d, minus)):
        assert zero == Scalar.zero(4)
        assert str(zero) == "0"
    # like terms cancel to a zero of unit 1 on the way and still sum to d
    spec = spec_qp()
    f = form(spec, (1, 0))
    one_term = ExpSum.make(spec, [(d, f)])
    for coeffs in ((d, minus, d), (Scalar.zero(4), d), (d, d.scale(GRat.of(0)))):
        assert ExpSum.make(spec, [(c, f) for c in coeffs]) == one_term
