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


@pytest.mark.parametrize(
    "spec, text, rendered",
    [
        (SCALARS, "u(1/4)*(1 + pi^2*h + (1/2+1/3 i)*pi^4*h^2)", "u(1/4)*(1 + pi^2*h + (1/2+1/3 i)*pi^4*h^2)"),
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
    ],
)
def test_parse_table(spec, text, rendered):
    f = parse_expsum(text, spec)
    assert expsum_str(f) == rendered
    assert parse_expsum(rendered, spec) == f


@pytest.mark.parametrize(
    "text", ["", "+", "1 +", "2*", "()", "E[]", "E[pi*()]", "2^3/2", "h^1/2"]
)
def test_empty_products_and_fractional_powers_are_errors(text):
    with pytest.raises(CoeffError):
        parse_expsum(text, SPEC)


_TOKENS = ["0", "1", "2", "1/2", "3/4", "i", "pi", "h", "u", "E"] + SPEC.var_names() + list("+-*^()[]|,")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=14).map(" ".join))
def test_random_token_strings_parse_back_or_are_errors(text):
    try:
        f = parse_expsum(text, SPEC)
    except CoeffError:
        return
    assert parse_expsum(expsum_str(f), SPEC) == f
