import copy
import hashlib
import json
import os

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from nctorus import cli, expalg, picard
from nctorus.cli import ConfigError, main, parse_config, run
from nctorus.coeff import GRAT_ZERO, CoeffError

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = os.path.join(ROOT, "src", "nctorus", "fixtures")


def fixture_path(name):
    return os.path.abspath(os.path.join(FIXTURES, name))


MINIMAL = """
{
  "torus": {"g": 1, "lattice": [["1"], ["i"]], "poisson": [["0"]]},
  "checks": ["torus"]
}
"""


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.torus.order == 4
    assert cfg.window == 1
    assert cfg.checks == ["torus"]


def test_parse_rejects_floats():
    bad = MINIMAL.replace('"poisson": [["0"]]', '"poisson": [[0.5]]')
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_parse_rejects_bad_suite_and_schema():
    with pytest.raises(ConfigError):
        parse_config('{"torus": {"g": 1, "lattice": [["1"], ["i"]], "poisson": [["0"]]}, "checks": ["nope"]}')
    with pytest.raises(ConfigError):
        parse_config("{}")
    with pytest.raises(ConfigError):
        parse_config("not json")


def test_parse_e1xe2_fixture():
    with open(fixture_path("e1xe2.json")) as fh:
        cfg = parse_config(fh.read())
    assert [b.name for b in cfg.bundles] == ["H_L", "H_M", "H_LM"]
    assert cfg.torus.g == 2


def test_obstruction_witness_renders_as_a_scalar():
    # the witness is textfmt's rendering of the h^0 scalar of ob_0's entry
    with open(fixture_path("e1xe2.json")) as fh:
        cfg = parse_config(fh.read())
    cfg.checks = ["quantizable"]
    records = {rec["name"]: rec for rec in run(cfg)["results"]}
    assert records["quantizable:H_LM"]["witness"] == {"pair": [0, 2], "value": "-1*pi^2"}


def test_run_empty_suites():
    cfg = parse_config(MINIMAL)
    cfg.checks = []
    report = run(cfg)
    assert report["results"] == []
    assert report["all_pass"]


def test_cli_run_exit_codes(tmp_path):
    runner = CliRunner()
    out = tmp_path / "report.json"
    res = runner.invoke(
        main,
        ["run", fixture_path("g1.json"), "--suite", "torus", "--suite", "fm", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["all_pass"]
    assert {r["name"] for r in payload["results"]} >= {"torus:validate"}

    res = runner.invoke(main, ["run", str(tmp_path / "missing.json")])
    assert res.exit_code == 2
    res = runner.invoke(main, ["run", fixture_path("g1.json"), "--suite", "nosuch"])
    assert res.exit_code == 2 and "config error: unknown suite 'nosuch'" in res.output

    bad = tmp_path / "bad.json"
    bad.write_text('{"torus": {"g": 1, "lattice": [["1"], ["2"]], "poisson": [["0"]]}}')
    res = runner.invoke(main, ["run", str(bad)])
    assert res.exit_code == 2


def test_cli_quantizable_expectation_failure(tmp_path):
    cfgtext = json.loads(open(fixture_path("e1xe2.json")).read())
    cfgtext["bundles"] = [dict(cfgtext["bundles"][2], quantizable=True)]
    cfgtext["checks"] = ["quantizable"]
    p = tmp_path / "wrong.json"
    p.write_text(json.dumps(cfgtext))
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(p)])
    assert res.exit_code == 1


QP_SLOTS = json.dumps(
    {
        "slots": [
            {
                "name": "v",
                "dim": 2,
                "vars": ["q", "p"],
                "poisson": [["0", "1"], ["-1", "0"]],
            }
        ],
        "order": 4,
    }
)


def test_cli_star_and_dual_lattice():
    runner = CliRunner()
    res = runner.invoke(main, ["star", "E[pi*(q)]", "E[pi*(p)]", "--slots", QP_SLOTS])
    assert res.exit_code == 0, res.output
    assert "E[pi*(q + p)]" in res.output
    assert "oracle" in res.output and "OK" in res.output

    res = runner.invoke(main, ["dual-lattice", fixture_path("g1.json")])
    assert res.exit_code == 0
    assert "xi^(1)" in res.output


def test_cli_star_mismatches_without_the_moyal_correction(monkeypatch):
    # star without exp(h pi^2 {q, p}); the oracle differentiates instead
    monkeypatch.setattr(expalg, "poisson_pairing", lambda spec, f1, f2: GRAT_ZERO)
    res = CliRunner().invoke(main, ["star", "E[pi*(q)]", "E[pi*(p)]", "--slots", QP_SLOTS])
    assert res.exit_code == 1, res.output
    assert "oracle[deg<=4]: MISMATCH" in res.output


ONE_SLOT = json.dumps({"order": 4, "slots": [{"name": "v", "dim": 1}]})


def test_cli_star_zero_denominator_is_a_parse_error():
    res = CliRunner().invoke(main, ["star", "1/0*E[pi*v]", "E[pi*v]", "--slots", ONE_SLOT])
    assert res.exit_code == 2
    assert "parse error:" in res.output and "zero denominator" in res.output
    assert isinstance(res.exception, SystemExit)


def test_cli_run_zero_denominator_is_a_config_error(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(MINIMAL.replace('"poisson": [["0"]]', '"poisson": [["1/0"]]'))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 2
    assert "config error:" in res.output
    assert isinstance(res.exception, SystemExit)


def test_cli_star_rejects_a_negative_degree():
    args = ["star", "E[pi*v]", "E[pi*v]", "--slots", ONE_SLOT, "--degree", "-1"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert "oracle" not in res.output
    res = CliRunner().invoke(main, args[:-1] + ["0"])
    assert res.exit_code == 0 and "oracle[deg<=0]: OK" in res.output


@pytest.mark.parametrize(
    "slots",
    [
        {},
        {"slots": 5},
        [1],
        {"slots": [{"name": "v"}]},
        {"slots": [{"name": "v", "dim": "x"}]},
        {"slots": [{"name": "v", "dim": 0}]},
        {"order": "a", "slots": [{"name": "v", "dim": 1}]},
        {"slots": [{"name": "v", "dim": 1, "opposite": "no"}]},
        {"slots": [{"name": "v", "dim": 1, "conjugate_pair": "false"}]},
        # names the text format cannot read back
        {"slots": [{"name": "v", "dim": 2, "vars": ["a", "a"]}]},
        {"slots": [{"name": "v", "dim": 1, "vars": ["i"]}]},
        {"slots": [{"name": "v", "dim": 1}, {"name": "v", "dim": 2}]},
        {"slots": [{"name": "v", "dim": 2, "vars": ["a-b", "c"]}]},
        {"slots": [{"name": "v", "dim": 1, "vars": ["2x"]}]},
        {"slots": [{"name": "v", "dim": 1, "vars": ["v 1"]}]},
        # a falsy vars is not an absent one
        {"slots": [{"name": "v", "dim": 1, "vars": False}]},
        {"slots": [{"name": "v", "dim": 1, "vars": 0}]},
        {"slots": [{"name": "v", "dim": 1, "vars": ""}]},
        {"slots": [{"name": "v", "dim": 1, "vars": []}]},
        {"slots": [{"name": "v", "dim": 1, "vars": {}}]},
        {"slots": [1]},
    ],
)
def test_cli_star_malformed_slots_is_a_parse_error(slots):
    res = CliRunner().invoke(main, ["star", "E[pi*v]", "E[pi*v]", "--slots", json.dumps(slots)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    # the specification itself is refused, before any operand is read
    with pytest.raises((ConfigError, CoeffError)) as exc:
        cli._slots_from_json(json.dumps(slots))
    assert f"parse error: {exc.value}" in res.output


@pytest.mark.parametrize("lhs, rhs", [("2^3/2*E[pi*v]", "E[pi*v]"), ("", "+")])
def test_cli_star_malformed_operand_is_a_parse_error(lhs, rhs):
    res = CliRunner().invoke(main, ["star", lhs, rhs, "--slots", ONE_SLOT])
    assert res.exit_code == 2
    assert "parse error:" in res.output
    assert isinstance(res.exception, SystemExit)


_DEEP_SLOTS = "[" * 100_000
_DEEP_OPERAND = "(" * 5000 + "1" + ")" * 5000


@pytest.mark.parametrize(
    "args, data, prefix",
    [
        (["run"], b"[" * 200_000, "config error:"),
        (["dual-lattice"], b"[" * 200_000, "config error:"),
        (["run"], b"\xff\xfe{", "config error:"),
        (["dual-lattice"], b"\xff\xfe{", "config error:"),
        (["star", "1", "1", "--slots", _DEEP_SLOTS], None, "parse error:"),
        (["star", _DEEP_OPERAND, "1", "--slots", ONE_SLOT], None, "parse error:"),
    ],
    ids=["run-deep", "dual-deep", "run-not-utf8", "dual-not-utf8", "star-deep-slots", "star-deep-operand"],
)
def test_deep_or_undecodable_input_exits_2(tmp_path, args, data, prefix):
    # inputs the JSON-value fuzz cannot produce: nesting beyond the
    # recursion limit, and bytes that are not UTF-8
    if data is not None:
        path = tmp_path / "raw.json"
        path.write_bytes(data)
        args = args + [str(path)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert prefix in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def _run_minimal(tmp_path, *args, env=None):
    cfg = tmp_path / "minimal.json"
    cfg.write_text(MINIMAL)
    out = tmp_path / "report.json"
    res = CliRunner().invoke(main, ["run", str(cfg), "--out", str(out), *args], env=env)
    return res, (json.loads(out.read_text()) if res.exit_code != 2 else None)


def test_nct_window_env(tmp_path):
    # the window comes from --window, then the file; NCT_WINDOW is not read,
    # so a set one, even an unreadable one, changes nothing
    assert parse_config(MINIMAL).window == 1
    for value in ("2", "abc"):
        res, report = _run_minimal(tmp_path, env={"NCT_WINDOW": value})
        assert res.exit_code == 0, res.output
        assert report["window"] == 1
    res, report = _run_minimal(tmp_path, "--window", "0", env={"NCT_WINDOW": "2"})
    assert res.exit_code == 0, res.output
    assert report["window"] == 0


@pytest.mark.parametrize(
    "args, env",
    [
        (["--window", "-1"], None),
        (["--window", "x"], None),
        (["--order", "1"], None),
    ],
)
def test_cli_rejects_bad_window_and_order(tmp_path, args, env):
    res, _ = _run_minimal(tmp_path, *args, env=env)
    assert res.exit_code == 2
    assert "config error:" in res.output


def test_run_times_the_parse(tmp_path):
    res, report = _run_minimal(tmp_path)
    assert res.exit_code == 0, res.output
    timings = report["timings_s"]
    assert list(timings) == ["parse", "torus"]
    assert timings["parse"] >= 0
    assert f"({sum(timings.values()):.1f}s)" in res.output
    # the parse timing does not reach the deterministic block
    assert report["results"] == run(parse_config(MINIMAL))["results"]


def test_unexpected_suite_exception_is_a_fail_record(tmp_path, monkeypatch):
    def broken(cfg):
        return 1 // 0

    monkeypatch.setitem(cli.SUITE_FUNCS, "torus", broken)
    out = tmp_path / "report.json"
    res = CliRunner().invoke(
        main,
        ["run", fixture_path("g1.json"), "--suite", "torus", "--suite", "fm", "--out", str(out)],
    )
    assert res.exit_code == 1, res.output
    assert "Traceback" in res.output  # the traceback goes to stderr
    results = json.loads(out.read_text())["results"]
    assert results[0] == {
        "name": "torus:error",
        "status": "FAIL",
        "error": "ZeroDivisionError: integer division or modulo by zero",
    }
    # the remaining suites still run
    fm = results[1:]
    assert fm and all(r["name"].startswith("fm:") for r in fm)
    assert all(r["status"].startswith("PASS") for r in fm)


def test_order_override_checks_lseries_length():
    # g1's "deformed" bundle has a two-term l-series, which order 2 cannot hold
    res = CliRunner().invoke(main, ["run", fixture_path("g1.json"), "--order", "2"])
    assert res.exit_code == 2
    assert "config error: bundle deformed: l-series longer than order-1" in res.output


def test_empty_window_is_never_a_pass():
    with open(fixture_path("g1.json")) as fh:
        cfg = parse_config(fh.read())
    cfg.window = -1  # bypasses the CLI's check, as a Python caller can
    cfg.checks = ["qpic", "convolution", "gerbe"]
    report = run(cfg)
    assert not report["all_pass"]
    counted = [r for r in report["results"] if {"pairs", "checked", "triples"} & set(r)]
    assert counted and all(r["status"] == "FAIL" for r in counted)


@pytest.mark.parametrize("count", [0, 1])
def test_counted_records_with_nothing_counted_do_not_pass(count):
    # one section has no distinct pair to be orthogonal to
    with open(fixture_path("g1.json")) as fh:
        cfg = parse_config(fh.read())
    cfg.sections = cfg.sections[:count]
    records = cli.suite_cohomology(cfg)
    assert len([r for r in records if r["name"].endswith("-iota")]) == count
    for rec in records:
        if any(rec.get(k) == 0 for k in ("pairs", "checked", "triples", "trials")):
            assert rec["status"] != "PASS", rec


def test_qpic_builds_each_obstruction_table_once(monkeypatch):
    # is_quantizable runs in the suite, again in qah_factor and again in
    # reduce_to_qah: on g1 that asks 21 times about 5 distinct (ns, torus)
    # pairs (2 bundle classes, 3 among the canonicalization trials), and
    # each table is built once
    asked = []
    quantizable = picard.is_quantizable

    def recording(ns, torus):
        asked.append((ns, torus))
        return quantizable(ns, torus)

    monkeypatch.setattr(cli, "is_quantizable", recording)
    monkeypatch.setattr(picard, "is_quantizable", recording)
    picard.obstruction0.cache_clear()
    with open(fixture_path("g1.json")) as fh:
        cfg = parse_config(fh.read())
    assert all(r["status"] == "PASS" for r in cli.suite_qpic(cfg))
    assert len(asked) == 21
    assert picard.obstruction0.cache_info().misses == len(set(asked)) == 5


def _g1_with(path, value):
    raw = json.loads(open(fixture_path("g1.json")).read())
    *keys, last = path
    target = raw
    for k in keys:
        target = target[k]
    if value is KeyError:
        del target[last]
    else:
        target[last] = value
    return json.dumps(raw)


@pytest.mark.parametrize(
    "path, value",
    [
        (("torus", "g"), "x"),
        (("torus", "order"), "x"),
        (("torus", "lattice", 0, 0), "abc"),
        (("torus", "lattice", 0), ["1", "0"]),
        (("torus", "poisson"), "0"),
        (("bundles", 0, "H"), KeyError),
        (("bundles", 0, "H"), [["0", "0"], ["0", "0"]]),
        (("bundles", 0, "chi", 0), "abc"),
        (("bundles", 0, "chi"), "00"),
        (("bundles",), [1]),
        (("bundles",), 1),
        (("bundles", 2, "l", 0), ["1", "2"]),
        (("sections", 0, "s"), KeyError),
        (("sections", 0, "s"), ["0", "1"]),
        (("sections", 0, "s"), []),
        (("sections", 2, "l", 0), ["1", "1"]),
        (("sections", 2, "l"), [["1"]] * 4),
        (("sections",), [["0"]]),
        (("checks",), 5),
        (("window",), "x"),
        (("window",), -1),
        (("torus", "lattice", 0, 0), "++1"),
        (("bundles", 0, "quantizable"), "yes"),
        (("bundles", 0, "quantizable"), 1),
        (("bundles", 0, "name"), ["a"]),
        (("name",), ["a"]),
        (("name",), 5),
        (("window",), True),
        (("torus", "g"), True),
        (("bundles", 0, "H"), [["0"], ["0"]]),
        (("bundles", 0, "H"), [["1 i"]]),
        (("bundles", 1, "H"), [["1/2"]]),
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, path, value):
    text = _g1_with(path, value)
    with pytest.raises(ConfigError):
        parse_config(text)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    res = CliRunner().invoke(main, ["run", str(bad)])
    assert res.exit_code == 2
    assert "config error:" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def _paths(node, prefix=()):
    """Every path into a parsed JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


_G1 = json.loads(open(fixture_path("g1.json")).read())
_KEYS = ["torus", "g", "order", "lattice", "poisson", "bundles", "H", "chi", "l", "name", "quantizable", "s", "checks"]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-1", "1/2", "i", "1/2 i", "-i", "1+i", "1/0", "0/0", "torus", "fm"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_paths(_G1))), _json_values | st.just(KeyError)), min_size=1, max_size=3))
def test_fuzzed_config_parses_or_is_a_config_error(edits):
    raw = copy.deepcopy(_G1)
    for path, value in edits:
        *keys, last = path
        target = raw
        try:
            for k in keys:
                target = target[k]
            if value is KeyError:
                del target[last]
            else:
                target[last] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this path
    try:
        parse_config(json.dumps(raw))
    except ConfigError:
        pass


_SLOT_FLAGS = ("opposite", "conjugate_pair")
_SLOT_KEYS = ("name", "dim", "poisson", "vars") + _SLOT_FLAGS
_LABELS = ("a", "b", "c", "p", "q", "s", "t", "x1", "y_2", "z")


@st.composite
def _well_formed_specs(draw):
    """A spec that parses: distinct slot names, dim 1 to 3, boolean flags,
    and on most slots a vars list of dim readable names, distinct across
    the spec."""
    names = draw(st.lists(st.sampled_from(["v", "w", "l"]), unique=True, max_size=3))
    dims = [draw(st.integers(1, 3)) for _ in names]
    labels = iter(draw(st.permutations(_LABELS)))
    slots = []
    for name, dim in zip(names, dims):
        slot = {"name": name, "dim": dim}
        slot.update(draw(st.fixed_dictionaries({}, optional={k: st.booleans() for k in _SLOT_FLAGS})))
        if draw(st.integers(0, 3)) < 3:
            slot["vars"] = [next(labels) for _ in range(dim)]
        slots.append(slot)
    return draw(st.fixed_dictionaries({"slots": st.just(slots)}, optional={"order": st.integers(1, 5)}))


@st.composite
def _slot_specs(draw):
    """Mostly a well-formed spec; otherwise random JSON in place of the
    whole spec, of its order, or of up to two keys of one slot.  Choices
    near 0 are drawn most often, so 0 keeps the spec well-formed."""
    raw = draw(_well_formed_specs())
    corruption = draw(st.integers(0, 7))
    if corruption == 1:
        return draw(_json_values)
    if corruption == 2:
        raw["order"] = draw(_json_values)
    if corruption == 3 and raw["slots"]:
        slot = draw(st.sampled_from(raw["slots"]))
        slot.update(draw(st.dictionaries(st.sampled_from(_SLOT_KEYS), _json_values, min_size=1, max_size=2)))
    return raw


@settings(max_examples=300, deadline=None)
@given(_slot_specs())
# the vars edge cases, each named once
@example({"slots": [{"name": "v", "dim": 2, "vars": ["a", "b"]}]})
@example({"slots": [{"name": "v", "dim": 1, "vars": False}]})
@example({"slots": [{"name": "v", "dim": 1, "vars": None}]})
def test_fuzzed_slots_give_a_spec_or_a_parse_error(raw):
    # star_cmd turns exactly these errors into "parse error:" and exit 2
    try:
        spec = cli._slots_from_json(json.dumps(raw))
    except (ConfigError, CoeffError, json.JSONDecodeError):
        return
    for slot, given_slot in zip(spec.slots, raw["slots"], strict=True):
        for flag in _SLOT_FLAGS:
            assert getattr(slot, flag) is given_slot.get(flag, False)
        if given_slot.get("vars") is not None:
            assert slot.labels == tuple(given_slot["vars"])


@pytest.mark.parametrize("name", ["g1.json", "e1xe2.json"])
def test_run_results_match_the_reference_digest(name):
    # the byte contract of the deterministic ``results`` block, against the
    # sha256 the benchmark checks every round with
    with open(os.path.join(ROOT, "perfbench", "reference_results.json"), encoding="utf-8") as fh:
        want = json.load(fh)[name]
    with open(fixture_path(name), encoding="utf-8") as fh:
        report = run(parse_config(fh.read()))
    text = json.dumps(report["results"], indent=2, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == want
