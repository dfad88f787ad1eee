import random

import pytest

from nctorus.coeff import (
    CIRCLE_ONE,
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
