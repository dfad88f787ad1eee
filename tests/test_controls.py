"""Negative controls: one table of mutants, run by one test.

A PASS means something only when its check fails on a wrong program.
Each row of ``MUTANTS`` patches a wrong program in and runs a fixture's
suites through ``cli.run``.  The records in ``fail`` PASS without the
mutant and FAIL with it, those in ``stay`` PASS with and without it, and
every other record keeps its unpatched status.  ``GAPS`` lists the
records of the rows' suites that no row fails.
"""

import os
from dataclasses import dataclass, replace
from functools import cache

import pytest

from nctorus import cli, coeff, cohomfm, expalg, gerbe, picard, poincare
from nctorus.coeff import GRAT_ZERO, CircleConst, GRat, Q
from nctorus.expalg import ExpSum, LinForm, star_inverse
from nctorus.picard import Factor, Semicharacter
from nctorus.torus import BForm

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "nctorus", "fixtures")


@dataclass(frozen=True)
class Mutant:
    id: str
    fixture: str
    window: int
    suites: tuple
    patches: tuple  # (module, attribute, factory taking the original)
    fail: tuple  # the records that turn FAIL
    stay: tuple = ()  # the records that stay PASS
    fields: tuple = ()  # (record, predicate on the record under the mutant)


def _inverted(ctilde):
    return lambda w, xi, B, order: ctilde(w, xi, B, order).inverse()


def _b_matrix(entry):
    """``bfield`` with the bivector kept and each entry a of the matrix
    B(xi^(i), xi^(j)) replaced by ``entry(i, j, a)``."""

    def factory(bfield):
        def mutant(torus):
            B = bfield(torus)
            rows = tuple(tuple(entry(i, j, a) for j, a in enumerate(row)) for i, row in enumerate(B.matrix))
            return BForm(B.poisson, B.basis, rows)

        return mutant

    return factory


def _squared_cocycle(B, xi, xi2, order):
    b = B.on_coords(xi2, xi)
    return coeff.exp_hpi2(order, b * b)


def _exp_h1_without_factorial(order, mag, e, v):
    coeffs, power = [coeff.PiPoly(((0, mag),))], mag
    for k in range(1, order):
        power = coeff.cmul(power, v)
        coeffs.append(coeff.PiPoly(((e * k, power),)))
    return coeff.HbarSeries(order, tuple(coeffs))


def _chi_without_cross_term(ns, chi, torus, coords):
    # no exp(pi i sum_{k<m} n_k n_m E_km): no semicharacter once Im H != 0
    return CircleConst.of(sum((chi.values[k].q * n for k, n in enumerate(coords)), Q(0)))


def _negated_l(reduce_to_qah):
    def reduce(factor, torus):
        data, witness = reduce_to_qah(factor, torus)
        return replace(data, l=tuple(tuple(-a for a in lj) for lj in data.l)), witness

    return reduce


def _flipped_merge(merge):
    # the unit class wedged on the right negated: still +-1 in each degree, but not (-1)^g
    def flipped(m1, m2):
        mono, sign = merge(m1, m2)
        return mono, sign if m2 else -sign

    return flipped


def _lam_in_v(poincare_factor):
    # conj(lam) added to the factor's v-coefficients
    def mutant(ctx):
        f = poincare_factor(ctx)

        def fn(e):
            t = f.value(e).single_term()
            lam = coeff.combine(e[0], ctx.torus.lattice)
            vcoef = tuple(a + b.conj() for a, b in zip(t.form.coeffs[0], lam))
            form = LinForm((vcoef,) + t.form.coeffs[1:], t.form.const_pi, None)
            return ExpSum.exponential(ctx.spec2, form, t.coeff)

        return Factor(f.group, fn)

    return mutant


def _turned_chi(qah_factor):
    # chi times u(1) = -1 on lambda_1: not the character the restricted kernel carries
    def turned(data, torus):
        first, *rest = data.chi.values
        chi = Semicharacter((first * CircleConst.of(Q(1)), *rest))
        return qah_factor(replace(data, chi=chi), torus)

    return turned


def _zero_pairing(_):
    # star without its Moyal correction exp(h pi^2 {l1, l2})
    return lambda spec, f1, f2: GRAT_ZERO


def _identity(_):
    return lambda f: f


def _negated(fm_hh2):
    # -B is antisymmetric and equals B only when B = 0
    return lambda poisson, torus: tuple(tuple(-a for a in row) for row in fm_hh2(poisson, torus))


def _ignores_s(_):
    # the data of L_t alone in place of L_t (x) L_s^-1
    return lambda t, s: t


class _TurnedCircle:
    # every circle constant poincare builds, turned by u(1) = -1
    @staticmethod
    def of(q):
        return CircleConst.of(q + 1)


def _table_full(rec):
    return None not in rec["table"].values()


E1, G1 = "e1xe2.json", "g1.json"
SECTIONS = ("cohomology:section-0-iota", "cohomology:section-1-iota")
G1_SECTIONS = (*SECTIONS, "cohomology:section-2-iota")
RHO_CTILDE = ("gerbe:rho-composition", "gerbe:ctilde")
MUTANTS = [
    Mutant("inverted-ctilde", E1, 1, ("gerbe", "cohomology"),
           ((gerbe, "ctilde", _inverted), (poincare, "ctilde", _inverted)), (*RHO_CTILDE, *SECTIONS)),
    # rho composition and ctilde read both the matrix and the bivector; the
    # other records read the matrix only and pass on any antisymmetric one
    Mutant("doubled-b", E1, 1, ("gerbe",), ((cli, "bfield", _b_matrix(lambda i, j, a: a + a)),), RHO_CTILDE,
           ("gerbe:cocycle-identity", "gerbe:group-law", "gerbe:cocycle-expansion")),
    # B(xi, xi) != 0 breaks c(xi, -xi) = 1, on which the inverse rests
    Mutant("symmetric-b", E1, 1, ("gerbe",),
           ((cli, "bfield", _b_matrix(lambda i, j, a: a + GRat.of(int(i == j)))),),
           ("gerbe:group-law", *RHO_CTILDE)),
    # not bilinear in the coordinates
    Mutant("squared-cocycle", E1, 1, ("gerbe",), ((gerbe, "heisenberg_cocycle", lambda _: _squared_cocycle),),
           ("gerbe:cocycle-identity", "gerbe:group-law", *RHO_CTILDE, "gerbe:cocycle-expansion")),
    # the expansion record compares the cocycle with the Taylor series of
    # exp(h pi^2 b); the cocycle is a log form, so the comparison reads its
    # closed form
    Mutant("doubled-closed-form", E1, 0, ("gerbe",),
           ((gerbe, "exp_hpi2", lambda exp_hpi2: lambda order, b: exp_hpi2(order, b + b)),),
           ("gerbe:ctilde", "gerbe:cocycle-expansion")),
    Mutant("exp-h1-without-factorial", E1, 0, ("gerbe",),
           ((coeff, "_exp_h1", lambda _: _exp_h1_without_factorial),), ("gerbe:cocycle-expansion",)),
    Mutant("semicharacter-without-cross-term", G1, 1, ("qpic",),
           ((picard, "semicharacter_value", lambda _: _chi_without_cross_term),),
           ("qpic:theta:cocycle", "qpic:theta:extension-ladder"),
           ("qpic:flat:cocycle", "qpic:flat:extension-ladder", "qpic:deformed:cocycle",
            "qpic:deformed:extension-ladder", "qpic:canonicalization")),
    Mutant("wrong-l", G1, 1, ("qpic",), ((cli, "reduce_to_qah", _negated_l),), ("qpic:canonicalization",),
           fields=(("qpic:canonicalization", lambda rec: rec["failures"] == 5),)),
    Mutant("witness-inverted", G1, 1, ("poincare",),
           ((poincare, "coboundary_twist", lambda twist: lambda f, u: twist(f, star_inverse(u))),),
           ("poincare:translation-coboundary",)),
    # u * u is the witness of 2w
    Mutant("witness-squared", G1, 1, ("poincare",),
           ((poincare, "coboundary_twist", lambda twist: lambda f, u: twist(f, u.star(u))),),
           ("poincare:translation-coboundary",)),
    Mutant("flipped-merge-sign", G1, 1, ("fm",), ((cohomfm, "_merge_sign", _flipped_merge),),
           ("fm:square-g1", "fm:square-g2"),
           fields=(("fm:square-g1", _table_full), ("fm:square-g2", _table_full))),
    # e1xe2's Poisson bivector is nonzero, so B is; the square tables do not read the torus
    Mutant("negated-hh2-transport", E1, 1, ("fm",), ((cli, "fm_hh2", _negated),), ("fm:hh2-transport",),
           ("fm:square-g1", "fm:square-g2")),
    # both identities are statements about the one factor
    Mutant("poincare-factor-with-lam-in-v", G1, 1, ("convolution", "cohomology"),
           ((poincare, "poincare_factor", _lam_in_v),), ("convolution:kernel-identity", *G1_SECTIONS)),
    Mutant("turned-chi-g1", G1, 1, ("cohomology",), ((poincare, "qah_factor", _turned_chi),), G1_SECTIONS),
    Mutant("turned-chi-e1xe2", E1, 1, ("cohomology",), ((poincare, "qah_factor", _turned_chi),), SECTIONS),
    # iota_w in place of iota_w^{-1} on the left
    Mutant("iota-not-inverted-g1", G1, 1, ("cohomology",), ((poincare, "star_inverse", _identity),),
           G1_SECTIONS),
    Mutant("iota-not-inverted-e1xe2", E1, 1, ("cohomology",), ((poincare, "star_inverse", _identity),),
           SECTIONS),
    # poincare binds the pairing itself for its Poisson-to-B check
    Mutant("star-without-moyal-correction", E1, 1, ("poincare",),
           ((expalg, "poisson_pairing", _zero_pairing), (poincare, "poisson_pairing", _zero_pairing)),
           ("poincare:cocycle", "poincare:needtoshow", "poincare:poisson_to_bfield")),
    Mutant("quotient-ignores-s", G1, 1, ("cohomology",), ((cli, "quotient", _ignores_s),),
           ("cohomology:section-orthogonality",)),
    # the split's scalar and the sections' chi_s are the circle constants poincare builds
    Mutant("turned-circle-constant", G1, 1, ("poincare", "cohomology"),
           ((poincare, "CircleConst", lambda _: _TurnedCircle),), ("poincare:psfa_split", *G1_SECTIONS)),
]

GAPS = [
    "cohomology:deformed-trivial", "cohomology:nontrivial-character", "cohomology:trivial-bundle",
    "poincare:negative_control",
    "qpic:deformed:cocycle", "qpic:deformed:extension-ladder",
    "qpic:flat:cocycle", "qpic:flat:extension-ladder",
]


def _records(fixture, window, suites) -> dict:
    with open(os.path.join(FIXTURES, fixture)) as fh:
        cfg = cli.parse_config(fh.read())
    cfg.window, cfg.checks = window, list(suites)
    return {rec["name"]: rec for rec in cli.run(cfg)["results"]}


@cache
def _unpatched(fixture, window, suite) -> dict:
    """The statuses of one suite's records without a mutant, shared by the rows."""
    return {name: rec["status"] for name, rec in _records(fixture, window, (suite,)).items()}


@pytest.mark.parametrize("row", MUTANTS, ids=[row.id for row in MUTANTS])
def test_mutant_fails_its_records(row, monkeypatch):
    before = {}
    for suite in row.suites:
        before.update(_unpatched(row.fixture, row.window, suite))
    assert {name: before.get(name) for name in row.fail + row.stay} == dict.fromkeys(row.fail + row.stay, "PASS")
    for module, attribute, factory in row.patches:
        monkeypatch.setattr(module, attribute, factory(getattr(module, attribute)))
    records = _records(row.fixture, row.window, row.suites)
    after = {name: rec["status"] for name, rec in records.items()}
    assert after == {**before, **dict.fromkeys(row.fail, "FAIL")}
    for name, holds in row.fields:
        assert holds(records[name]), records[name]


def test_records_no_row_fails():
    seen = {name for row in MUTANTS for suite in row.suites for name in _unpatched(row.fixture, row.window, suite)}
    failed = {name for row in MUTANTS for name in row.fail}
    assert sorted(seen - failed) == GAPS
