"""Tests of the benchmark's own checks.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
from pathlib import Path

import checks
import run
import tracing
from nctorus import cli
from nctorus.coeff import GRat
from nctorus.gerbe import coordinate_window
from nctorus.picard import LatticeGroup, lattice_pairs, lattice_slotspec
from nctorus.poincare import PoincareGroup, _default_z_choices, cocycle_pairs, make_context
from nctorus.sampling import gaussian_product_torus

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "src" / "nctorus" / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def test_obstruction_agrees_with_declared_flags():
    for name in ("g1.json", "e1xe2.json"):
        fixture = _fixture(name)
        for bundle in fixture["bundles"]:
            assert checks.is_quantizable(fixture["torus"], bundle) == bundle["quantizable"], (
                name,
                bundle["name"],
            )
    # H_LM on E1 x E2 is obstructed at the generator pair (e1, e2), where
    # the program's ob_0 is -pi^2.
    e1xe2 = _fixture("e1xe2.json")
    h_lm = next(b for b in e1xe2["bundles"] if b["name"] == "H_LM")
    assert (0, 2) in checks.obstruction_pairs(e1xe2["torus"], h_lm["H"])


def test_gauss_literals():
    F = checks.F
    assert checks.gauss("1/2 i") == (F(0), F(1, 2))
    assert checks.gauss("-i") == (F(0), F(-1))
    assert checks.gauss("-1/2-3/4 i") == (F(-1, 2), F(-3, 4))
    assert checks.gauss("2") == (F(2), F(0))
    for text in ("1/2 i", "-i", "-1/2-3/4 i", "2", "3+i"):
        g = GRat.parse(text)
        assert checks.gauss(text) == (g.re, g.im)


def test_window_sizes_of_the_g1_fixture():
    sizes = checks.window_sizes(1, 1, 3)
    assert {k: v for k, (v, _) in sizes.items()} == {
        "qpic-cocycle": 81,
        "poincare:cocycle": 26244,
        "poincare:needtoshow": 81,
        "convolution:kernel-identity": 1458,
        "gerbe:cocycle-identity": 729,
        "gerbe:rho-composition": 324,
        "section-iota": 405,
        "cohomology:section-orthogonality": 6,
    }
    assert all(exhaustive for _, exhaustive in sizes.values())


def test_window_sizes_of_the_e1xe2_fixture():
    exhaustive = {k for k, (_, e) in checks.window_sizes(2, 1, 2).items() if e}
    assert exhaustive == {
        "qpic-cocycle",
        "poincare:needtoshow",
        "cohomology:section-orthogonality",
    }
    assert checks.window_sizes(2, 1, 2)["qpic-cocycle"][0] == 6561


def test_window_sizes_match_the_program_enumerations():
    for g, radius in ((1, 0), (1, 1), (2, 0), (2, 1)):
        torus = gaussian_product_torus(g)
        sizes = checks.window_sizes(g, radius, 0)
        assert len(coordinate_window(2 * g, radius)) ** 2 == sizes["poincare:needtoshow"][0]
        size, exhaustive = sizes["qpic-cocycle"]
        pairs = lattice_pairs(LatticeGroup(torus, lattice_slotspec(torus)), radius)
        assert exhaustive and len(pairs) == size
        size, exhaustive = sizes["poincare:cocycle"]
        grp = PoincareGroup(make_context(torus))
        pairs = cocycle_pairs(grp, radius, _default_z_choices(torus.order))
        assert exhaustive == (len(pairs) == size)


def test_flipped_flag_is_one_failed_operation():
    fixture = _fixture("g1.json")
    flipped = copy.deepcopy(fixture)
    flipped["bundles"][1]["quantizable"] = False
    report = cli.run(cli.parse_config(json.dumps(flipped)))
    ops = checks.check_fixture(flipped, report)
    failed = [name for name, ok, _ in ops if not ok]
    assert failed == ["quantizable:" + flipped["bundles"][1]["name"]]


def test_star_operands_parse_to_the_drawn_exponents():
    from nctorus.expalg import Slot, SlotSpec
    from nctorus.textfmt import parse_expsum

    data = checks.draw_operands(3)
    assert data == checks.draw_operands(3)
    pair = next(p for p in data["pairs"] if p["spec"] == "kernel")
    raw = data["specs"]["kernel"]
    slots = []
    for s in raw["slots"]:
        poisson = None
        if s.get("poisson"):
            poisson = tuple(tuple(GRat.parse(e) for e in row) for row in s["poisson"])
        slots.append(Slot(s["name"], s["dim"], poisson=poisson, conjugate_pair=s.get("conjugate_pair", False)))
    spec = SlotSpec(tuple(slots), raw["order"])
    assert spec.var_names() == checks.var_names(raw)
    f = parse_expsum(pair["lhs"], spec)
    got = [(c.re, c.im) for slot in f.terms[0].form.coeffs for c in slot]
    assert got == checks.lin_of(pair, "lhs")
    assert checks.oracle_size(raw, 6) == 924


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.metric_specs()
    )
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_tracer_reaches_every_layer_and_restores_the_program():
    from nctorus import coeff, moyal_oracle, textfmt
    from nctorus.expalg import Slot, SlotSpec

    fixture = _fixture("e1xe2.json")
    fixture["window"] = 0
    original_cmul = coeff.cmul
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.run(cli.parse_config(json.dumps(fixture)))
        spec = SlotSpec((Slot("v", 2, poisson=((GRat.of(0), GRat.of(1)), (GRat.of(-1), GRat.of(0)))),), 4)
        f = textfmt.parse_expsum("(1+1 i)*E[pi*(v1 + v2)]", spec)
        g = textfmt.parse_expsum("E[pi*(v1 - v2)]", spec)
        textfmt.expsum_str(f.star(g))
        moyal_oracle.taylor_expand(f.star(g), 2)
        moyal_oracle.taylor_star_oracle(f, g, 2)
    finally:
        tracer.uninstall()
    assert coeff.cmul is original_cmul
    assert cli.SUITE_FUNCS["poincare"] is cli.suite_poincare
    values = tracer.metrics()
    names = [n for n, _, _ in tracing.metric_specs() if not n.startswith("trace.")]
    assert [n for n in names if n not in values] == []
    calls = [n for n in names if n.endswith(".calls")]
    assert [n for n in calls if values[n] == 0] == []
    assert values["expalg.star.moyal_corrections"] > 0
    assert 0 < values["picard.factor_cache.misses"] < values["picard.factor_cache.lookups"]
    assert len(tracer.spans) > 0
