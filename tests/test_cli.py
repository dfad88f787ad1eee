import copy
import json
import os

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from nctorus import cli
from nctorus.cli import ConfigError, main, parse_config, run, SUITES

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "nctorus", "fixtures")


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


def test_cli_star_and_dual_lattice():
    runner = CliRunner()
    slots = json.dumps(
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
    res = runner.invoke(main, ["star", "E[pi*(q)]", "E[pi*(p)]", "--slots", slots])
    assert res.exit_code == 0, res.output
    assert "E[pi*(q + p)]" in res.output
    assert "oracle" in res.output and "OK" in res.output

    res = runner.invoke(main, ["dual-lattice", fixture_path("g1.json")])
    assert res.exit_code == 0
    assert "xi^(1)" in res.output


def _run_minimal(tmp_path, *args, env=None):
    cfg = tmp_path / "minimal.json"
    cfg.write_text(MINIMAL)
    out = tmp_path / "report.json"
    res = CliRunner().invoke(main, ["run", str(cfg), "--out", str(out), *args], env=env)
    return res, (json.loads(out.read_text()) if res.exit_code != 2 else None)


def test_nct_window_env(tmp_path, monkeypatch):
    # the file says 1; NCT_WINDOW overrides it, and --window overrides both
    monkeypatch.delenv("NCT_WINDOW", raising=False)
    assert parse_config(MINIMAL).window == 1
    res, report = _run_minimal(tmp_path, env={"NCT_WINDOW": "2"})
    assert res.exit_code == 0, res.output
    assert report["window"] == 2
    res, report = _run_minimal(tmp_path, "--window", "0", env={"NCT_WINDOW": "2"})
    assert res.exit_code == 0, res.output
    assert report["window"] == 0


@pytest.mark.parametrize(
    "args, env",
    [
        (["--window", "-1"], None),
        (["--window", "x"], None),
        ([], {"NCT_WINDOW": "-1"}),
        ([], {"NCT_WINDOW": "abc"}),
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


def test_cocycle_expansion_checks_the_closed_form(monkeypatch):
    # the record compares the cocycle with the Taylor series of
    # exp(h pi^2 b), so a wrong closed form behind the cocycle fails it
    from nctorus import gerbe

    with open(fixture_path("e1xe2.json")) as fh:
        cfg = parse_config(fh.read())
    cfg.window = 0  # the expansion check does not use the window

    def expansion(cfg):
        (rec,) = [r for r in cli.suite_gerbe(cfg) if r["name"] == "gerbe:cocycle-expansion"]
        return rec["status"]

    assert expansion(cfg) == "PASS"
    closed_form = gerbe.exp_hpi2
    monkeypatch.setattr(gerbe, "exp_hpi2", lambda order, b: closed_form(order, b + b))
    assert expansion(cfg) == "FAIL"


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
