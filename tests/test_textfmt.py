import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from nctorus.coeff import (
    CircleConst,
    CoeffError,
    GRat,
    HbarSeries,
    PiPoly,
    Q,
    Scalar,
)
from nctorus.expalg import ExpSum, LinForm, Slot, SlotSpec
from nctorus.sampling import random_grat, random_rational, random_unit_scalar
from nctorus.textfmt import expsum_str, parse_expsum, scalar_str

G = GRat.of
P2 = ((G(0), G(1)), (G(-1), G(0)))
SPEC = SlotSpec((Slot("v", 2, poisson=P2), Slot("l", 1, conjugate_pair=True)), 4)
SCALARS = SlotSpec((), 4)
# the two slot layouts of the star-oracle benchmark
MOYAL = SlotSpec((Slot("v", 2, poisson=P2),), 6)
KERNEL = SlotSpec((Slot("v", 2, poisson=P2), Slot("l", 2, conjugate_pair=True)), 6)


def random_exp_term(rng, spec: SlotSpec) -> ExpSum:
    """A random single exponential term over the given slots."""
    coeffs = tuple(
        tuple(random_grat(rng) for _ in range(s.nvars)) for s in spec.slots
    )
    const = GRat(random_rational(rng), random_rational(rng))
    const_h = HbarSeries.of(spec.order, {1: PiPoly.const(random_grat(rng))})
    coeff = random_unit_scalar(rng, spec.order)
    return ExpSum.exponential(spec, LinForm(coeffs, const, const_h), coeff)


def test_scalar_roundtrip_golden():
    s = Scalar.of(
        CircleConst.of(Q(1, 4)),
        HbarSeries.of(
            4,
            {
                0: PiPoly.pi_power(0),
                1: PiPoly.pi_power(2),
                2: PiPoly.pi_power(4, G(Q(1, 2), Q(1, 3))),
            },
        ),
    )
    text = scalar_str(s)
    assert text == "u(1/4)*(1 + pi^2*h + (1/2+1/3 i)*pi^4*h^2)"
    assert parse_expsum(text, SCALARS).single_term().coeff == s


def test_expsum_golden_and_roundtrip():
    f = parse_expsum("(1+h)*E[pi*(v1+2*v2-1/2*l1~)] + u(1/4)*E[pi*(v1+1/3)]", SPEC)
    text = expsum_str(f)
    assert text == (
        "u(1/4)*E[pi*(v1 + 1/3)] + (1 + h)*E[pi*(v1 + 2*v2 - 1/2*l1~)]"
    )
    assert parse_expsum(text, SPEC) == f


def test_vector_form_and_star_example():
    f = parse_expsum("E[pi*(1,0|0,0)]", SPEC)
    g = parse_expsum("E[pi*(0,1|0,0)]", SPEC)
    prod = f.star(g)
    assert expsum_str(prod) == (
        "(1 + pi^2*h + 1/2*pi^4*h^2 + 1/6*pi^6*h^3)*E[pi*(v1 + v2)]"
    )


def test_random_roundtrips():
    rng = random.Random(70)
    for _ in range(40):
        f = random_exp_term(rng, SPEC) + random_exp_term(rng, SPEC)
        assert parse_expsum(expsum_str(f), SPEC) == f


def test_parse_errors():
    with pytest.raises(CoeffError):
        parse_expsum("E[pi*(nope)]", SPEC)
    with pytest.raises(CoeffError):
        parse_expsum("E[pi*(v1+", SPEC)
    with pytest.raises(CoeffError):
        parse_expsum("0.5*E[pi*(v1)]", SPEC)
    with pytest.raises(CoeffError):
        parse_expsum("E[pi*(v1)]", SCALARS)


# every parsed coefficient is dense, whatever enters it
PARSE_TABLE = [
    (
        SCALARS,
        "u(1/4)*(1 + pi^2*h + (1/2+1/3 i)*pi^4*h^2)",
        "u(1/4)*(1 + pi^2*h + (1/2+1/3 i)*pi^4*h^2)",
    ),
    (
        SPEC,
        "(1+h)*E[pi*(v1+2*v2-1/2*l1~)] + u(1/4)*E[pi*(v1+1/3)]",
        "u(1/4)*E[pi*(v1 + 1/3)] + (1 + h)*E[pi*(v1 + 2*v2 - 1/2*l1~)]",
    ),
    # the per-variable coefficient list
    (SPEC, "E[pi*(1,0|0,0)] * E[pi*(0,1|0,0)]", "E[pi*(v1 + v2)]"),
    (
        SPEC,
        "E[pi*((1+2 i), 3 | 1/2 i, -i)] - 1/2",
        "-1/2 + E[pi*((1+2 i)*v1 + 3*v2 + (1/2 i)*l1 + (-1 i)*l1~)]",
    ),
    # one operand per benchmark spec, in the benchmark's own format
    (
        MOYAL,
        "u(3/4)*u(1/2)*((-1-1 i) + (1-1/2 i)*h^1 + (-3/8+3/8 i)*h^2 + (25/12+43/48 i)*h^3"
        " + (-389/384-185/384 i)*h^4 + (161/640+157/1280 i)*h^5)"
        "*E[pi*((-1+0 i)*v1 + (-1+1/2 i)*v2) + pi*(1/2)]",
        "(u(1/4)*((1+1 i) + (-1+1/2 i)*h + (3/8-3/8 i)*h^2 + (-25/12-43/48 i)*h^3"
        " + (389/384+185/384 i)*h^4 + (-161/640-157/1280 i)*h^5))"
        "*E[pi*(-1*v1 + (-1+1/2 i)*v2 + 1/2)]",
    ),
    (
        KERNEL,
        "u(1/4)*u(1/2)*((-1-1 i) + (1-1/2 i)*pi^1*h^1 + (2-2 i)*pi^1*h^2 + (-1+2 i)*h^3"
        " + (-1+0 i)*pi^1*h^4 + (-1/2+0 i)*pi^2*h^5)*E[pi*((-1/2+1/2 i)*v1 + (0-1 i)*v2"
        " + (-1/2+0 i)*l1 + (1+1/2 i)*l2 + (-1-1 i)*l1~ + (1-1 i)*l2~) + pi*(-1/2)]",
        "(u(1/4)*((1-1 i) + (1/2+1 i)*pi*h + (2+2 i)*pi*h^2 + (-2-1 i)*h^3 + (-1 i)*pi*h^4"
        " + (-1/2 i)*pi^2*h^5))*E[pi*((-1/2+1/2 i)*v1 + (-1 i)*v2 - 1/2*l1 + (1+1/2 i)*l2"
        " + (-1-1 i)*l1~ + (1-1 i)*l2~ - 1/2)]",
    ),
    # every atom takes a power, and a coefficient reads alike in and out of E[...]
    (SPEC, "u(1/4)^2", "(1 i)"),
    (SPEC, "E[pi*v1]^2*h^0", "E[pi*(2*v1)]"),
    (SPEC, "E[pi*(2 i*v1)]", "E[pi*((2 i)*v1)]"),
    (SPEC, "E[pi*((1/2+1/3 i)*v1)]", "E[pi*((1/2+1/3 i)*v1)]"),
    # a coefficient that is a difference is bracketed
    (SPEC, "(1 - h)*E[pi*v2]", "(1 - 1*h)*E[pi*(v2)]"),
]


@pytest.mark.parametrize("spec, text, rendered", PARSE_TABLE)
def test_parse_table(spec, text, rendered):
    f = parse_expsum(text, spec)
    assert expsum_str(f) == rendered
    assert all(t.coeff.mag is None for t in f.terms)
    assert parse_expsum(rendered, spec) == f


@pytest.mark.parametrize(
    "text", ["", "+", "1 +", "2*", "()", "E[]", "E[pi*()]", "2^3/2", "h^1/2"]
)
def test_empty_products_and_fractional_powers_are_errors(text):
    with pytest.raises(CoeffError):
        parse_expsum(text, SPEC)


PARSE_ERRORS = [
    # the tokenizer and the recursive descent
    ("1 2)", "trailing input near token ')'"),
    ("E[pi*v1]]", "trailing input near token ']'"),
    ("1 # 2", "cannot tokenize '# 2'"),
    ("0.5*E[pi*(v1)]", "cannot tokenize '.5*E[pi*(v1)]'"),
    ("E[", "unexpected end of input (wanted more)"),
    ("E[pi*v1", "unexpected end of input (wanted ])"),
    ("u", "unexpected end of input (wanted ()"),
    ("()", "unexpected token ')'"),
    ("E[pi*v1]^2^2", "unexpected token '^'"),
    ("E[pi*(1,2|3)]", "unexpected token ')' (wanted ,)"),
    ("E[pi*(1,2)]", "unexpected token ')' (wanted |)"),
    ("E[pi*(nope)]", "unknown name 'nope'"),
    # powers
    ("2^x", "unexpected token 'x' (wanted num)"),
    ("h^1/2", "power '1/2' is not a whole number"),
    # variables, and the terms of an exponent
    ("(v1)", "unknown name 'v1'"),
    ("(1, 2|3, 4)", "parenthesized factor must be scalar"),
    ("E[pi*v1*v2]", "a product of two variables is not linear"),
    ("E[h*v1*v2]", "a product of two variables is not linear"),
    ("E[h*v1]", "an exponent term must be a Gaussian rational times pi"),
    ("E[pi*u(1/4)*v1]", "an exponent term must be a Gaussian rational times pi"),
    ("E[pi*(1,v1|0)]", "a coefficient must be a number"),
    ("E[E[pi*v1]]", "E[...] inside an exponent"),
    # the first offending term of an exponent decides
    ("E[h*v1 + E[pi*v2]]", "an exponent term must be a Gaussian rational times pi"),
    ("E[E[pi*v2] + h*v1]", "E[...] inside an exponent"),
    # circle constants
    ("u(i)", "u(...) takes a real rational"),
    ("u(h)", "u(...) must be a Gaussian rational"),
    ("u(u(1/4))", "u(...) must be a Gaussian rational"),
    ("u(1/4) + 1", "sum of scalars with incompatible circle constants is not representable"),
    ("u(1/3) + u(1/4) - u(1/4)", "sum of scalars with incompatible circle constants is not representable"),
    (
        "E[pi*v1] + u(1/4)*E[pi*v1]",
        "sum of scalars with incompatible circle constants is not representable",
    ),
    # like terms met inside a product
    ("E[(v1 + 1)*(1 + u(1/4))]", "sum of scalars with incompatible circle constants is not representable"),
    # numbers
    ("1/0", "zero denominator in '1/0'"),
    ("E[pi*(1/0)*v1]", "zero denominator in '1/0'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_messages(text, message):
    with pytest.raises(CoeffError) as exc:
        parse_expsum(text, SPEC)
    assert type(exc.value) is CoeffError
    assert str(exc.value) == message


def test_a_zero_term_merges_with_any_unit():
    # a zero has unit 1, in the parser's partial sums as in Scalar
    # arithmetic; the refusal is decided at the first + that meets two units
    assert parse_expsum("0*u(1/4) + 1", SPEC) == ExpSum.one(SPEC)
    want = ExpSum.exponential(SPEC, _ZERO_FORM, Scalar.one(_ORDER).turn(1, 3))
    assert parse_expsum("u(1/4) - u(1/4) + u(1/3)", SPEC) == want
    with pytest.raises(CoeffError, match="incompatible circle constants"):
        parse_expsum("u(1/3) + u(1/4) - u(1/4)", SPEC)


def test_cli_star_reports_the_parse_error():
    from click.testing import CliRunner

    from nctorus.cli import main

    slots = json.dumps(
        {
            "order": 4,
            "slots": [
                {"name": "v", "dim": 2, "poisson": [["0", "1"], ["-1", "0"]]},
                {"name": "l", "dim": 1, "conjugate_pair": True},
            ],
        }
    )
    text, message = "E[pi*v1*v2]", "a product of two variables is not linear"
    res = CliRunner().invoke(main, ["star", "E[pi*v1]", text, "--slots", slots])
    assert res.exit_code == 2
    assert f"parse error: {message}\n" in res.output


_TOKENS = ["0", "1", "2", "1/2", "3/4", "i", "pi", "h", "u", "E"] + SPEC.var_names() + list("+-*^()[]|,")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=14).map(" ".join))
def test_random_token_strings_parse_back_or_are_errors(text):
    try:
        f = parse_expsum(text, SPEC)
    except CoeffError:
        return
    assert parse_expsum(expsum_str(f), SPEC) == f


def test_benchmark_operands_parse_without_series_or_scalar_products(monkeypatch):
    # each coefficient is evaluated on monomials and becomes one Scalar; no
    # Scalar or series product is taken on the way
    calls = {"HbarSeries": 0, "Scalar": 0}
    for cls in (HbarSeries, Scalar):
        def counting(a, b, name=cls.__name__, mul=cls.__mul__):
            calls[name] += 1
            return mul(a, b)

        monkeypatch.setattr(cls, "__mul__", counting)
    rows = [row for row in PARSE_TABLE if row[0] is MOYAL or row[0] is KERNEL]
    assert len(rows) == 2
    for spec, text, rendered in rows:
        assert expsum_str(parse_expsum(text, spec)) == rendered
    assert calls == {"HbarSeries": 0, "Scalar": 0}


# Random expression trees, rendered into the grammar and evaluated by ring
# arithmetic on Scalar and ExpSum.  E[...] stands only where the grammar
# allows it, as a factor of a top-level product: outside E[...] a
# parenthesized sum must be a scalar.
_ORDER = SPEC.order
_ZERO_FORM = SPEC.zero_form()
_ATOMS = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 3), st.integers(1, 3)),
    st.sampled_from([("i",), ("pi",), ("h",)]),
    st.tuples(st.just("u"), st.integers(0, 7), st.sampled_from([1, 2, 4])),
)
_SCALAR_TREES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(st.just("pow"), inner, st.integers(0, 3)),
        st.tuples(st.just("prod"), st.lists(inner, min_size=2, max_size=3)),
        st.tuples(st.just("sum"), st.lists(st.tuples(st.sampled_from("+-"), inner), min_size=1, max_size=3)),
    ),
    max_leaves=6,
)
_GRATS = st.builds(lambda a, b, d: G(Q(a, d), Q(b, d)), st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 2))
_EXPS = st.builds(
    lambda cs, c, listed: ("E", LinForm(((cs[0], cs[1]), (cs[2], cs[3])), c, None), listed),
    st.lists(_GRATS, min_size=4, max_size=4),
    st.builds(lambda a, d: G(Q(a, d)), st.integers(-2, 2), st.integers(1, 2)),
    st.booleans(),
)
_FACTORS = st.one_of(_SCALAR_TREES, _EXPS, st.tuples(st.just("pow"), _EXPS, st.integers(0, 2)))
_TREES = st.tuples(
    st.just("sum"),
    st.lists(
        st.tuples(st.sampled_from("+-"), st.tuples(st.just("prod"), st.lists(_FACTORS, min_size=1, max_size=3))),
        min_size=1,
        max_size=3,
    ),
)


def _text(t) -> str:
    kind = t[0]
    if kind == "num":
        return f"{t[1]}/{t[2]}"
    if kind == "u":
        return f"u({t[1]}/{t[2]})"
    if kind == "E":
        form = t[1]
        flat = [c for slot in form.coeffs for c in slot]
        if t[2]:
            return f"E[pi*({flat[0]}, {flat[1]} | {flat[2]}, {flat[3]}) + pi*({form.const_pi})]"
        named = " + ".join(f"({c})*{n}" for c, n in zip(flat, SPEC.var_names()))
        return f"E[pi*({named} + ({form.const_pi}))]"
    if kind == "pow":
        base = _text(t[1])
        if t[1][0] not in ("num", "i", "pi", "h", "u", "E"):
            base = f"({base})"
        return f"{base}^{t[2]}"
    if kind == "prod":
        return "*".join(f"({_text(f)})" if f[0] == "sum" else _text(f) for f in t[1])
    if kind == "sum":
        parts = [(sign, f"({_text(term)})" if term[0] == "sum" else _text(term)) for sign, term in t[1]]
        head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return head + "".join(f" {sign} {body}" for sign, body in parts[1:])
    return kind


def _scalar_atom(t) -> Scalar:
    if t[0] == "u":
        return Scalar.one(_ORDER).turn(t[1], t[2])
    if t[0] == "num":
        series = {0: PiPoly.const(G(Q(t[1], t[2])))}
    else:
        series = {"i": {0: PiPoly.const(G(0, 1))}, "pi": {0: PiPoly.pi_power(1)}, "h": {1: PiPoly.const(G(1))}}[t[0]]
    return Scalar(CircleConst.of(0), HbarSeries.of(_ORDER, series))


def _value(t) -> ExpSum:
    kind = t[0]
    if kind == "E":
        return ExpSum.exponential(SPEC, t[1])
    if kind == "pow":
        out = ExpSum.one(SPEC)
        for _ in range(t[2]):
            out = out * _value(t[1])
        return out
    if kind == "prod":
        out = ExpSum.one(SPEC)
        for f in t[1]:
            out = out * _value(f)
        return out
    if kind == "sum":
        out = ExpSum(SPEC, ())
        for sign, term in t[1]:
            out = out + (-_value(term) if sign == "-" else _value(term))
        return out
    return ExpSum.exponential(SPEC, _ZERO_FORM, _scalar_atom(t))


class _Clash(Exception):
    """Like terms with different circle constants meet."""


def _merge(out: dict, form, c: Scalar) -> None:
    """Add the like term c: a zero has unit 1 and merges with any unit."""
    old = out.get(form)
    if old is None or old.is_zero():
        out[form] = c
    elif not c.is_zero():
        if old.unit != c.unit:
            raise _Clash
        out[form] = Scalar(c.unit, old.series + c.series)


def _forms_of(t) -> dict:
    """The unit rule of ``textfmt``'s module docstring, as a model: each
    exponent of the parse (zero coefficients kept) to its coefficient,
    like terms added in the parser's order."""
    kind = t[0]
    if kind == "E":
        return {t[1]: Scalar.one(_ORDER)}
    if kind in ("pow", "prod"):
        if kind == "pow":
            _forms_of(t[1])  # the base is read even at ^0, so its clash raises
        factors = [t[1]] * t[2] if kind == "pow" else t[1]
        out = {_ZERO_FORM: Scalar.one(_ORDER)}
        for f in factors:
            acc = {}
            for fa, ca in out.items():
                for fb, cb in _forms_of(f).items():
                    _merge(acc, fa + fb, ca * cb)
            out = acc
        return out
    if kind == "sum":
        out = {}
        for sign, term in t[1]:
            for form, c in _forms_of(term).items():
                _merge(out, form, c.scale(G(-1)) if sign == "-" else c)
        return out
    return {_ZERO_FORM: _scalar_atom(t)}


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_random_expression_trees_parse_to_their_ring_value_and_form(tree):
    text = _text(tree)
    try:
        forms = _forms_of(tree)
    except _Clash:
        with pytest.raises(CoeffError, match="incompatible circle constants"):
            parse_expsum(text, SPEC)
        return
    f = parse_expsum(text, SPEC)
    assert f == _value(tree)
    for term in f.terms:
        assert term.coeff == forms[term.form]
        assert term.coeff.mag is None
