import itertools
import random
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from nctorus.coeff import (
    CIRCLE_ONE,
    GRAT_ONE,
    GRAT_ZERO,
    CircleConst,
    GRat,
    HbarSeries,
    I_POWERS,
    NotInvertible,
    NotRepresentable,
    OrderMismatch,
    PI_ONE,
    PiPoly,
    Q,
    Scalar,
    bilinear,
    cmul,
    combine,
    exp_decompose,
    exp_hpi2,
    over_lcd,
    series_exp,
    series_log,
)
from nctorus.moyal_oracle import _exp_poly, _mul_trunc
from nctorus.sampling import random_unit_scalar
from nctorus.textfmt import scalar_str

N = 4


def h_term(k, poly):
    return HbarSeries.of(N, {k: poly})


def test_scalar_mul_identity_and_signs():
    s = Scalar.of(CircleConst.of(Q(1, 3)), HbarSeries.one(N) + h_term(1, PI_ONE))
    assert Scalar.one(N) * s == s
    minus = Scalar.from_circle(N, CircleConst.of(1))
    assert minus * minus == Scalar.one(N)


def test_scalar_mul_truncated_expansion():
    # (1 + pi^2 h)(1 - pi^2 h) = 1 mod h^2
    one = HbarSeries.one(2)
    a = one + HbarSeries.of(2, {1: PiPoly.pi_power(2)})
    b = one + HbarSeries.of(2, {1: PiPoly.pi_power(2, GRat.of(-1))})
    assert a * b == one


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatch):
        HbarSeries.one(3) * HbarSeries.one(4)


def test_series_exp_examples():
    assert series_exp(HbarSeries.zero(N)) == HbarSeries.one(N)
    e = series_exp(HbarSeries.of(3, {1: PiPoly.pi_power(2)}))
    assert e == HbarSeries.of(
        3, {0: PI_ONE, 1: PiPoly.pi_power(2), 2: PiPoly.pi_power(4, GRat.of(Q(1, 2)))}
    )
    h = HbarSeries.of(N, {1: PI_ONE})
    assert series_exp(h) * series_exp(-h) == HbarSeries.one(N)


def test_series_exp_rejects_constant_term():
    with pytest.raises(NotRepresentable):
        series_exp(HbarSeries.one(N))


def test_series_log_examples():
    assert series_log(HbarSeries.one(N)) == HbarSeries.zero(N)
    a = HbarSeries.of(N, {1: PI_ONE, 2: PiPoly.const(GRat.of(3))})
    assert series_log(series_exp(a)) == a
    # Mercator: log(1+h) = h - h^2/2 + h^3/3 at N=3 -> h - h^2/2
    u = HbarSeries.of(3, {0: PI_ONE, 1: PI_ONE})
    assert series_log(u) == HbarSeries.of(
        3, {1: PI_ONE, 2: PiPoly.const(GRat.of(Q(-1, 2)))}
    )


def test_circle_const_normalization():
    assert CircleConst.of(Q(2)) == CircleConst.of(0)
    assert CircleConst.of(1) * CircleConst.of(1) == CircleConst.of(0)
    q1, q2 = Q(3, 4), Q(5, 6)
    assert (CircleConst.of(q1) * CircleConst.of(q2)).q == (q1 + q2) % 2


def test_exp_decompose_examples():
    u = Scalar.one(N)
    d = exp_decompose(u)
    assert (d.unit, d.magnitude) == (CIRCLE_ONE, GRAT_ONE)
    assert not d.log

    minus = Scalar.of(
        CIRCLE_ONE, -(HbarSeries.one(N) + HbarSeries.of(N, {1: PI_ONE}))
    )
    d = exp_decompose(minus)
    assert d.unit == CircleConst.of(1)
    assert d.magnitude == GRAT_ONE
    assert d.log == series_log(HbarSeries.one(N) + HbarSeries.of(N, {1: PI_ONE}))
    assert d.recompose() == minus

    i_exp_h = Scalar.of(
        CIRCLE_ONE, series_exp(HbarSeries.of(N, {1: PI_ONE})).scale(GRat.of(0, 1))
    )
    d = exp_decompose(i_exp_h)
    assert d.unit == CircleConst.of(Q(1, 2))
    assert d.log == HbarSeries.of(N, {1: PI_ONE})


def test_exp_decompose_raw_leading_coefficient():
    u = Scalar.one(N).scale(GRat.of(1, 2))  # not a circle constant times q>0
    d = exp_decompose(u)
    assert d.magnitude == GRat.of(1, 2)
    assert d.recompose() == u


def test_exp_decompose_rejects_non_units():
    with pytest.raises(NotInvertible):
        exp_decompose(Scalar.zero(N))
    with pytest.raises(NotInvertible):
        exp_decompose(Scalar(CIRCLE_ONE, HbarSeries.of(N, {1: PI_ONE})))


def rnd_grat(rng):
    return GRat.of(
        Q(rng.randint(-3, 3), rng.randint(1, 3)), Q(rng.randint(-3, 3), rng.randint(1, 3))
    )


def rnd_series(rng, order=N):
    return HbarSeries.of(
        order,
        {
            k: PiPoly.of({rng.randint(0, 2): rnd_grat(rng)})
            for k in range(order)
            if rng.random() < 0.8
        },
    )


def test_ring_axioms_sampled():
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = (rnd_series(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_exp_homomorphism_sampled():
    rng = random.Random(6)
    for _ in range(40):
        a = rnd_series(rng)
        b = rnd_series(rng)
        a = HbarSeries.of(N, {k: a.coeffs[k] for k in range(1, N)})
        b = HbarSeries.of(N, {k: b.coeffs[k] for k in range(1, N)})
        assert series_exp(a + b) == series_exp(a) * series_exp(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8))
def test_circle_group_law(p1, q1, p2, q2):
    a, b = CircleConst.of(Q(p1, q1)), CircleConst.of(Q(p2, q2))
    assert (a * b).q == (Q(p1, q1) + Q(p2, q2)) % 2
    assert a * a.inverse() == CIRCLE_ONE


# the reference for the integer circle constant: Fraction arithmetic mod 2
angles = st.builds(Q, st.integers(-40, 40), st.integers(1, 12))


def _holds_angle(c, want):
    """c holds the angle want mod 2 as the pair 0 <= n < 2d, gcd(n, d) = 1."""
    want %= 2
    return (c.n, c.d) == (want.numerator, want.denominator) and c.q == want


@settings(max_examples=300, deadline=None)
@given(angles, angles, st.integers(-3, 3))
def test_integer_circle_constant_matches_fraction_arithmetic(p, q, k):
    a, b = CircleConst.of(p), CircleConst.of(q)
    assert _holds_angle(a, p) and _holds_angle(b, q)
    assert _holds_angle(a * b, p + q) and _holds_angle(b * a, p + q)
    assert _holds_angle(a.inverse(), -p)
    assert a.is_one() == (p % 2 == 0)
    assert (a == b) == (p % 2 == q % 2)
    same = CircleConst.of(p + 2 * k)
    assert same == a and hash(same) == hash(a)
    turns, r = a.quarter_turns()
    assert 0 <= turns < 4 and 0 <= r.q < Q(1, 2)
    assert p % 2 == Q(turns, 2) + r.q and _holds_angle(r, r.q)


def test_circle_constant_of_is_taken_mod_2():
    a, b = CircleConst.of(Q(5, 2)), CircleConst.of(Q(1, 2))
    assert a == b and hash(a) == hash(b)
    assert (a.n, a.d) == (1, 2)
    assert CircleConst.of("-1/3") == CircleConst.of(Q(5, 3))


@settings(max_examples=200, deadline=None)
@given(angles, st.integers(-40, 40), st.integers(1, 12), st.data())
def test_turn_by_an_integer_angle(unit, n, d, data):
    s = Scalar.of(CircleConst.of(unit), data.draw(sparse_series(N)))
    want = Scalar.of(CircleConst.of(s.unit.q + Q(n, d)), s.series)
    assert _same(s.turn(n, d), want)
    if d == 1:
        assert _same(s.turn(n), want)


# zero parts are common, so the real x real path and the mixed cases are hit;
# numerators and denominators share factors within and across operands
rationals = st.builds(
    Q,
    st.one_of(st.just(0), st.integers(-12, 12)),
    st.sampled_from((1, 2, 3, 4, 6, 9, 12)),
)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_complex_product_kernel_matches_schoolbook(a, b, c, d):
    want = (a * c - b * d, a * d + b * c)

    def parts(pair):
        return [(x.numerator, x.denominator) for x in pair]

    got = cmul(GRat(a, b), GRat(c, d))
    assert parts((got.re, got.im)) == parts(want)
    assert got == GRat(*want) and hash(got) == hash(GRat(*want))

    prod = GRat(a, b) * GRat(c, d)
    assert parts((prod.re, prod.im)) == parts(want)
    assert prod == got and hash(prod) == hash(got)

    # the oracle's product on integer numerators over one denominator each
    den1, nums1 = over_lcd([GRat(a, b)])
    den2, nums2 = over_lcd([GRat(c, d)])
    assert den1 == lcm(a.denominator, b.denominator)
    assert [(Q(x, den1), Q(y, den1)) for x, y in nums1] == [(a, b)]
    # constants are degree-0 polynomials: one layer holding the code 0
    pair, = _mul_trunc([((1, 0), [{0: nums1[0]}], [{0: nums2[0]}])], 0)
    den = den1 * den2
    if want[0] or want[1]:
        (key, (re, im)), = pair.items()
        val = (Q(re, den), Q(im, den))
        assert key == 0 and parts(val) == parts(want)
        assert hash(val) == hash(want)
    else:
        assert pair == {}


grats = st.builds(GRat, rationals, rationals)


def _schoolbook_str(re, im):
    """The rendering of re + im i from its two Fraction parts."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im} i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)} i"


def _parts(x):
    return (x.re, x.im)


def _canonical(x):
    fields = (x.n, x.m, x.d)
    return all(type(f) is int for f in fields) and x.d > 0 and gcd(*fields) == 1


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, rationals, rationals, st.one_of(st.integers(-4, 4), rationals))
def test_grat_triples_match_fraction_schoolbook(a, b, c, d, q):
    x, y = GRat(a, b), GRat(c, d)
    for v, (re, im) in ((x, (a, b)), (y, (c, d))):
        assert _canonical(v)
        assert type(v.re) is Fraction and type(v.im) is Fraction
        assert _parts(v) == (re, im)
        assert str(v) == _schoolbook_str(re, im)
        assert repr(v) == f"GRat({re!r}, {im!r})"
    norm = c * c + d * d
    want = {
        "+": (a + c, b + d),
        "-": (a - c, b - d),
        "*": (a * c - b * d, a * d + b * c),
        "neg": (-a, -b),
        "conj": (a, -b),
        "scale": (a * q, b * q),
    }
    got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x, "conj": x.conj(), "scale": x.scale(q)}
    if norm:
        want["/"] = ((a * c + b * d) / norm, (b * c - a * d) / norm)
        want["inverse"] = (c / norm, -d / norm)
        got["/"] = x / y
        got["inverse"] = y.inverse()
    else:
        with pytest.raises(NotInvertible):
            y.inverse()
    for op, v in got.items():
        assert _canonical(v), op
        assert _parts(v) == want[op], op
        # equal values have equal fields, whichever way they were built
        built = GRat(*want[op])
        assert (v.n, v.m, v.d) == (built.n, built.m, built.d) and v == built, op
        assert hash(v) == hash(built) and bool(v) == any(want[op]), op
        assert GRat.parse(str(v)) == v, op
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    # a sum with a zero side is the other side
    assert x + GRAT_ZERO is x and x - GRAT_ZERO is x
    assert GRAT_ZERO + y is (y if y else GRAT_ZERO)
    assert (x == y) == ((a, b) == (c, d))


@settings(max_examples=200, deadline=None)
@given(grats, grats)
def test_grat_hot_operations_build_no_fraction(x, y):
    built = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting))
        for u, v in ((x, y), (y, x), (x, x), (x, GRAT_ZERO), (GRAT_ZERO, x)):
            u + v, u - v, u * v, u == v, hash(u), bool(u)
        assert built[0] == 0
        Q(1, 2)  # the guard does see a construction
        assert built[0] == 1


def _grat_product(x, y):
    return GRat(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def _schoolbook_series_product(a, b):
    """The h^k coefficients of a * b as [(pi-degree, re, im)], by a
    Fraction double sum over (h-degree, pi-degree)."""
    n = a.order
    acc = {}
    for (k1, c1), (k2, c2) in itertools.product(enumerate(a.coeffs), enumerate(b.coeffs)):
        if k1 + k2 >= n:
            continue
        for (p1, x), (p2, y) in itertools.product(c1.terms, c2.terms):
            key = (k1 + k2, p1 + p2)
            acc[key] = acc.get(key, GRAT_ZERO) + _grat_product(x, y)
    out = [[] for _ in range(n)]
    for (k, p), c in sorted(acc.items()):
        if c.re or c.im:
            out[k].append((p, c.re, c.im))
    return out


def _reflect(a):
    """a(-h): a(h) a(-h) is even in h, so its odd parts cancel to zero."""
    return HbarSeries(a.order, tuple(c if k % 2 == 0 else -c for k, c in enumerate(a.coeffs)))


@st.composite
def sparse_series(draw, order):
    grats = st.builds(GRat, rationals, rationals)
    parts = draw(
        st.dictionaries(st.tuples(st.integers(0, order - 1), st.integers(0, 3)), grats, max_size=6)
    )
    coeffs = {}
    for (k, p), c in parts.items():
        coeffs.setdefault(k, {})[p] = c
    return HbarSeries.of(order, {k: PiPoly.of(c) for k, c in coeffs.items()})


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.data())
def test_series_product_kernel_matches_schoolbook(order, data):
    a = data.draw(sparse_series(order))
    grats = st.builds(GRat, rationals, rationals)
    b = data.draw(
        st.one_of(
            sparse_series(order),
            st.just(HbarSeries.zero(order)),
            st.just(HbarSeries.one(order)),
            grats.map(lambda c: HbarSeries.one(order).scale(c)),  # constant in h
            sparse_series(order).map(lambda s: HbarSeries.of(order, {0: s.coeffs[0]})),
            st.just(_reflect(a)),  # odd parts cancel
        )
    )
    for x, y in ((a, b), (b, a)):
        got = x * y
        want = _schoolbook_series_product(x, y)
        assert got.order == order
        assert [
            [(p, c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator) for p, c in poly.terms]
            for poly in got.coeffs
        ] == [
            [(p, re.numerator, re.denominator, im.numerator, im.denominator) for p, re, im in parts]
            for parts in want
        ]
        built = HbarSeries(
            order, tuple(PiPoly(tuple((p, GRat(re, im)) for p, re, im in parts)) for parts in want)
        )
        assert got == built and hash(got) == hash(built)
    with pytest.raises(OrderMismatch):
        a * HbarSeries.one(order + 1)
    with pytest.raises(OrderMismatch):
        HbarSeries.one(order + 1) * b


def _folded_product(a, b):
    """The general scalar product: multiply the units, then fold the
    quarter turns of the product into the series."""
    return Scalar.of(a.unit * b.unit, a.series * b.series)


def _same(got, want):
    return got == want and hash(got) == hash(want) and repr(got) == repr(want)


# units drawn from {0, 1/8, ..., 15/8}; every fourth one folds to unit 1
eighths = st.integers(0, 15).map(lambda k: CircleConst.of(Q(k, 8)))


@st.composite
def scalars(draw, order):
    return Scalar.of(draw(eighths), draw(sparse_series(order)))


@settings(max_examples=300, deadline=None)
@given(scalars(N), scalars(N))
def test_scalar_product_unit_fast_path_matches_folded_product(a, b):
    for x, y in ((a, b), (b, a)):
        assert _same(x * y, _folded_product(x, y))
    assert _same(Scalar.one(N) * a, a) and _same(a * Scalar.one(N), a)


@settings(max_examples=60, deadline=None)
@given(scalars(N))
def test_turn_matches_product_with_circle_constant(s):
    for k in range(-16, 16):
        q = Q(k, 8)
        want = _folded_product(s, Scalar.from_circle(N, CircleConst.of(q)))
        assert _same(s.turn(q.numerator, q.denominator), want)


@settings(max_examples=100, deadline=None)
@given(sparse_series(N), st.integers(0, 7))
def test_quarter_turn_fold_matches_product_by_i_power(series, k):
    # Scalar.of swaps and negates numerators; the reference multiplies by i^k
    s = Scalar.of(CircleConst.of(Q(k, 2)), series)
    want = series.scale(I_POWERS[k % 4])
    assert s.unit == CIRCLE_ONE
    assert s.series == want and hash(s.series) == hash(want) and repr(s.series) == repr(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.data())
def test_exp_poly_integer_form_matches_taylor_coefficients(nvars, degree, data):
    lin = data.draw(st.lists(st.builds(GRat, rationals, rationals), min_size=nvars, max_size=nvars))
    # the smallest base that holds a digit of ``degree``
    base = degree + 1
    packed, den = _exp_poly(lin, range(nvars), base, degree)
    assert isinstance(den, int) and den > 0
    poly = {}
    for m, layer in enumerate(packed):
        for code, v in layer.items():
            alpha = tuple(code // base**i % base for i in range(nvars))
            assert sum(alpha) == m and alpha not in poly
            poly[alpha] = v
    want = {}
    for alpha in itertools.product(range(degree + 1), repeat=nvars):
        if sum(alpha) > degree:
            continue
        # prod_i lin[i]^alpha_i / alpha_i!
        c = GRAT_ONE
        for x, e in zip(lin, alpha):
            for _ in range(e):
                c = _grat_product(c, GRat(x.re, x.im))
            c = GRat(c.re / factorial(e), c.im / factorial(e))
        if c.re or c.im:
            want[alpha] = c
    assert set(poly) == set(want)
    for alpha, (re, im) in poly.items():
        assert type(re) is int and type(im) is int
        assert (Q(re, den), Q(im, den)) == (want[alpha].re, want[alpha].im)


def test_inverse_of_a_dense_unit_with_magnitude_one_scales_no_series(monkeypatch):
    # series_log reads such a series as it is: a rescaled copy would be
    # built, then hashed again before the series_log memo answers
    tail = {1: PiPoly.pi_power(2, GRat.of(Q(1, 3))), 2: PiPoly.pi_power(1, GRat.of(0, 2))}
    one = Scalar(CIRCLE_ONE, HbarSeries.of(N, {0: PI_ONE, **tail}))
    two = Scalar(CIRCLE_ONE, HbarSeries.of(N, {0: PiPoly.const(GRat.of(2)), **tail}))
    half = GRat.of(Q(1, 2))
    series_log(one.series), series_log(two.series.scale(half))  # fill the memo
    calls = [0]
    scale = HbarSeries.scale

    def counting(self, c):
        calls[0] += 1
        return scale(self, c)

    monkeypatch.setattr(HbarSeries, "scale", counting)
    inv_one = one.inverse()
    assert calls[0] == 0
    inv_two = two.inverse()
    assert calls[0] == 1
    monkeypatch.undo()
    assert one * inv_one == Scalar.one(N) and two * inv_two == Scalar.one(N)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-3, 3), rationals), min_size=1, max_size=4),
    st.data(),
)
def test_combination_kernel_matches_schoolbook(coords, data):
    grats = st.builds(GRat, rationals, rationals)
    vectors = [data.draw(st.tuples(grats, grats)) for _ in coords]
    want = [GRat(Q(0), Q(0)) for _ in range(2)]
    for c, vec in zip(coords, vectors):
        want = [GRat(w.re + c * x.re, w.im + c * x.im) for w, x in zip(want, vec)]
    got = combine(coords, vectors)
    assert [(x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator) for x in got] == [
        (x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator) for x in want
    ]
    assert hash(got) == hash(tuple(want))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_bilinear_contraction_matches_schoolbook(n, data):
    # zero parts are common, so zero entries and zero vector components occur
    grats = st.builds(GRat, rationals, rationals)
    matrix = [data.draw(st.lists(grats, min_size=n, max_size=n)) for _ in range(n)]
    x = data.draw(st.lists(grats, min_size=n, max_size=n))
    y = data.draw(st.lists(grats, min_size=n, max_size=n))
    re = im = Fraction(0)
    for i in range(n):
        for j in range(n):
            # (x_i M_ij) y_j as (a + b i)(c + d i) = (ac - bd) + (ad + bc) i
            a = x[i].re * matrix[i][j].re - x[i].im * matrix[i][j].im
            b = x[i].re * matrix[i][j].im + x[i].im * matrix[i][j].re
            re += a * y[j].re - b * y[j].im
            im += a * y[j].im + b * y[j].re
    got = bilinear(matrix, x, y)
    assert (got.re, got.im) == (re, im)
    assert hash(got) == hash(GRat(re, im))


@pytest.mark.parametrize("order", range(1, 9))
def test_exp_hpi2_is_series_exp_of_h_pi2_value(order):
    for v in (GRAT_ZERO, GRat.of(1), GRat.of(Q(-2, 3), Q(1, 2)), GRat.of(0, Q(5, 4))):
        want = series_exp(HbarSeries.of(order, {1: PiPoly.pi_power(2, v)}))
        assert exp_hpi2(order, v) == Scalar(CIRCLE_ONE, want)


def test_grat_parse_render_roundtrip():
    rng = random.Random(9)
    for _ in range(50):
        c = rnd_grat(rng)
        assert GRat.parse(str(c)) == c
    assert GRat.parse("i") == GRat.of(0, 1)
    assert GRat.parse("-2") == GRat.of(-2)
    assert GRat.parse("1+i") == GRat.of(1, 1)


def test_inverse_refuses_non_units():
    msg = "series unit must have invertible h^0 term"
    for s in (
        Scalar.zero(N),
        Scalar(CIRCLE_ONE, h_term(1, PI_ONE)),  # h-divisible
        Scalar(CIRCLE_ONE, HbarSeries.of(N, {0: PiPoly.of({0: GRAT_ONE, 1: GRAT_ONE})})),  # 1 + pi
    ):
        with pytest.raises(NotInvertible) as err:
            s.inverse()
        assert str(err.value) == msg


@st.composite
def unit_scalars(draw, order=N):
    """An invertible scalar in either form: dense from ``Scalar(unit,
    series)`` or ``random_unit_scalar``, or in log form as a product of
    ``exp_hpi2``, ``turn`` and ``Scalar.one``."""
    kind = draw(st.sampled_from(("dense", "sampled", "log")))
    if kind == "dense":
        unit = CircleConst.of(Q(draw(st.integers(0, 3)), 8))  # canonical: in [0, 1/2)
        tail = draw(sparse_series(order)).coeffs
        c0 = draw(grats.filter(bool))
        return Scalar(unit, HbarSeries(order, (PiPoly.const(c0),) + tail[1:]))
    if kind == "sampled":
        return random_unit_scalar(random.Random(draw(st.integers(0, 10**6))), order)
    x = Scalar.one(order)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x = x * exp_hpi2(order, draw(grats))
        else:
            x = x.turn(draw(st.integers(-8, 8)), draw(st.sampled_from((1, 2, 3, 4, 8))))
    return x


def _dense(s):
    """A new dense scalar of the value of s, holding only its series."""
    return Scalar(s.unit, s.series)


@settings(max_examples=200, deadline=None)
@given(unit_scalars(), unit_scalars())
def test_log_form_and_dense_units_agree(x, y):
    one = Scalar.one(N)
    for s in (x, y):
        d = _dense(s)
        # equal values compare equal, hash equal and render the same bytes
        assert _same(s, d) and _same(d, s) and scalar_str(s) == scalar_str(d)
        assert s * s.inverse() == one and s.inverse() * s == one
        # a dense operand materializes the inverse: series_log against series_exp
        assert d * s.inverse() == one and one == s.inverse() * d
        assert _same(s.inverse().inverse(), d)
        # a product with the exact one is the other operand itself (of two
        # exact ones, either one)
        assert one * d is d and d * one is d
        if s != one:
            assert one * s is s and s * one is s
    assert _same(x * y, _folded_product(_dense(x), _dense(y)))
    assert (x == y) == (_dense(x) == _dense(y))


def test_hash_reads_the_h1_coefficient():
    # the z keys 1, 1 + h and (1 + h)^2 of the Poincare window share
    # (order, unit, h^0 coefficient) but hash apart, in either form
    oneph = Scalar.exp(series_log(HbarSeries.one(N) + HbarSeries.of(N, {1: PI_ONE})))
    zs = (Scalar.one(N), oneph, oneph * oneph)
    assert len({hash(z) for z in zs}) == 3
    for z in zs:
        assert hash(Scalar(z.unit, z.series)) == hash(z)
