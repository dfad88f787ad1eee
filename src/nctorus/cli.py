"""Batch driver: parse configurations, run verification suites, report.

JSON in, JSON out; the human-readable summary is derived from the
report, never the other way around.  Exit status: 0 all PASS, 1 any
FAIL, 2 configuration error.  All randomized checks use fixed seeds, so
the ``results`` section of a report is byte-identical across runs;
timings are reported separately as they cannot be deterministic.
"""

from __future__ import annotations

import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from math import comb

import click

from .checks import check_cases, coordinate_window, nonzero, sample_window
from .coeff import (
    CIRCLE_ONE,
    GRAT_ZERO,
    CircleConst,
    CoeffError,
    GRat,
    HbarSeries,
    Q,
    Scalar,
)
from .cohomfm import fm_hh2, fm_square_table
from .expalg import ExpSum, LinForm, Slot, SlotSpec
from .gerbe import GammaElement, cocycle_expands, cocycle_identity, ctilde_extends, group_law, rho_composes
from .moyal_oracle import taylor_expand, taylor_star_oracle
from .picard import (
    NSData,
    QAHData,
    Semicharacter,
    classify_cohomology,
    coboundary_twist,
    cocycle_holds,
    extension_obstruction,
    is_quantizable,
    lattice_pairs,
    lattice_slotspec,
    obstruction0,
    qah_factor,
    quotient,
    reduce_to_qah,
    validate_semicharacter,
)
from .poincare import (
    _default_z_choices,
    convolution_window_report,
    make_context,
    restrict_to_section,
    translation_coboundary,
    verify_poincare_cocycle,
)
from .sampling import random_grat, random_qah
from .textfmt import expsum_str, parse_expsum, scalar_str
from .torus import TorusData, bfield, dual_lattice, pairing, validate_torus

class ConfigError(ValueError):
    pass


@dataclass
class Bundle:
    name: str
    ns: NSData
    chi: Semicharacter
    l: tuple
    expect_quantizable: bool = None


@dataclass
class RunConfig:
    name: str
    torus: TorusData
    bundles: list
    checks: list
    window: int
    sections: list  # (point, lseries) pairs


def _reject_float(value):
    raise ConfigError(f"inexact numeric literal {value!r} rejected; use rational strings")


def _grat(value) -> GRat:
    try:
        if isinstance(value, int):
            return GRat.of(value)
        if isinstance(value, str):
            return GRat.parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad complex rational {value!r}: {exc}")
    raise ConfigError(f"expected an exact complex rational, got {value!r}")


def _rational(value):
    if isinstance(value, (int, str)):
        try:
            return Q(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational {value!r}: {exc}")
    raise ConfigError(f"expected an exact rational, got {value!r}")


def _int(value, what: str, low: int) -> int:
    try:
        n = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError):
        n = None
    if n is None or n < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return n


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list")
    return value


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _vectors(rows, n: int, what: str) -> tuple:
    """A list of n-component lists of exact complex rationals."""
    if any(not isinstance(r, list) or len(r) != n for r in _list(rows, what)):
        raise ConfigError(f"{what} must list vectors of {n} components")
    return tuple(tuple(_grat(e) for e in r) for r in rows)


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text, parse_float=_reject_float)
    except ConfigError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}")
    except RecursionError:
        raise ConfigError("malformed JSON: nested too deeply")
    if not isinstance(raw, dict) or "torus" not in raw:
        raise ConfigError("configuration must be an object with a 'torus' field")
    t = raw["torus"]
    try:
        g = _int(t["g"], "g", 1)
        order = _int(t.get("order", 4), "truncation order", 2)
        lattice = _vectors(t["lattice"], g, "lattice")
        poisson = _vectors(t["poisson"], g, "poisson")
        torus = TorusData(g, lattice, poisson, order)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad torus block: {exc}")
    except CoeffError as exc:
        raise ConfigError(f"bad torus data: {exc}")
    try:
        validate_torus(torus)
    except CoeffError as exc:
        raise ConfigError(f"degenerate torus: {exc}")

    bundles = []
    for i, b in enumerate(_list(raw.get("bundles", []), "bundles")):
        if not isinstance(b, dict) or "H" not in b:
            raise ConfigError(f"bundle {i} must be an object with an 'H' field")
        name = _name(b.get("name", f"bundle{i}"), f"bundle {i}: name")
        matrix = _vectors(b["H"], g, f"bundle {name}: H")
        if len(matrix) != g:
            raise ConfigError(f"bundle {name}: H must be g x g")
        ns = NSData(matrix)
        chi_angles = b.get("chi", ["0"] * (2 * g))
        if not isinstance(chi_angles, list) or len(chi_angles) != 2 * g:
            raise ConfigError(f"bundle {name}: chi must list 2g angles")
        chi = Semicharacter(
            tuple(CircleConst.of(_rational(a)) for a in chi_angles)
        )
        l = _vectors(b.get("l", []), g, f"bundle {name}: l")
        if not ns.is_hermitian():
            raise ConfigError(f"bundle {name}: H is not Hermitian")
        if not validate_semicharacter(ns, chi, torus):
            raise ConfigError(f"bundle {name}: Im H not integral on the lattice")
        expect = b.get("quantizable")
        if expect is not None and not isinstance(expect, bool):
            raise ConfigError(f"bundle {name}: quantizable must be true, false or null")
        bundles.append(Bundle(name, ns, chi, l, expect))

    checks = _list(raw.get("checks", list(SUITES)), "checks")
    for c in checks:
        if c not in SUITES:
            raise ConfigError(f"unknown suite {c!r}")
    window = _int(raw.get("window", 1), "window", 0)
    sections = []
    for i, sec in enumerate(_list(raw.get("sections", []), "sections")):
        if not isinstance(sec, dict) or "s" not in sec:
            raise ConfigError(f"section {i} must be an object with an 's' field")
        (pt,) = _vectors([sec["s"]], g, f"section {i}: s")
        lser = _vectors(sec.get("l", []), g, f"section {i}: l")
        sections.append((pt, lser))
    name = _name(raw.get("name", "run"), "name")
    cfg = RunConfig(name, torus, bundles, checks, window, sections)
    _check_lseries(cfg)
    return cfg


def _check_lseries(cfg: RunConfig) -> None:
    """Every l-series has its terms h^1 .. h^(order-1) within the
    effective truncation order; rerun whenever the order changes."""
    limit = cfg.torus.order - 1
    for b in cfg.bundles:
        if len(b.l) > limit:
            raise ConfigError(f"bundle {b.name}: l-series longer than order-1")
    for i, (_, lser) in enumerate(cfg.sections):
        if len(lser) > limit:
            raise ConfigError(f"section {i}: l-series longer than order-1")


# ---------------------------------------------------------------------------
# suites


def _record(name, status, **extra):
    rec = {"name": name, "status": status}
    rec.update(extra)
    return rec


def _check_record(name, rep):
    """The record of a report; a ``check_cases`` failing case as text."""
    if rep.get("failing"):
        rep = {**rep, "failing": str(rep["failing"])}
    return _record(name, **rep)


def suite_torus(cfg: RunConfig):
    out = []
    rep = validate_torus(cfg.torus)
    out.append(
        _record(
            "torus:validate",
            "PASS",
            poisson_rank=rep["poisson_rank"],
            period_det=str(rep["period_det"]),
        )
    )
    B = bfield(cfg.torus)
    ok = all(
        pairing(xi, lam).im == (1 if j == k else 0)
        for k, xi in enumerate(B.basis)
        for j, lam in enumerate(cfg.torus.lattice)
    )
    out.append(_record("torus:dual-integrality", "PASS" if ok else "FAIL"))
    anti = all(
        B.matrix[i][j] == -B.matrix[j][i]
        for i in range(2 * cfg.torus.g)
        for j in range(2 * cfg.torus.g)
    )
    out.append(_record("torus:bfield-antisymmetric", "PASS" if anti else "FAIL"))
    return out


def suite_quantizable(cfg: RunConfig):
    out = []
    for b in cfg.bundles:
        # quantizable exactly when ob_0 has no nonzero entry to witness,
        # rendered as the h^0 scalar of its pi-polynomial
        ob = obstruction0(b.ns, cfg.torus)
        witness = next(
            (
                {"pair": [i, j], "value": scalar_str(Scalar(CIRCLE_ONE, HbarSeries.of(1, {0: p})))}
                for i, row in enumerate(ob)
                for j, p in enumerate(row)
                if p
            ),
            None,
        )
        quant = witness is None
        label = "quantizable" if quant else "obstructed"
        status = "PASS"
        if b.expect_quantizable is not None and quant != b.expect_quantizable:
            status = "FAIL"
        out.append(
            _record(f"quantizable:{b.name}", f"{status}-{label}", witness=witness)
        )
    return out


def suite_qpic(cfg: RunConfig):
    out = []
    torus = cfg.torus
    rng = random.Random(2024)
    for b in cfg.bundles:
        if not is_quantizable(b.ns, torus):
            out.append(_record(f"qpic:{b.name}", "SKIP", note="obstructed"))
            continue
        data = QAHData(b.ns, b.chi, b.l)
        f = qah_factor(data, torus).cached()
        rep = check_cases(lattice_pairs(f.group, cfg.window), lambda p: cocycle_holds(f, *p), "pairs")
        out.append(_record(f"qpic:{b.name}:cocycle", **rep))
        try:
            table = extension_obstruction(f, torus.order - 2)
            flat = not any(table.values())
            out.append(
                _record(
                    f"qpic:{b.name}:extension-ladder",
                    "PASS" if flat else "FAIL",
                )
            )
        except CoeffError as exc:
            out.append(_record(f"qpic:{b.name}:extension-ladder", "FAIL", error=str(exc)))
    # canonicalization roundtrips
    trials = 5
    bad = 0
    spec = lattice_slotspec(torus)
    for _ in range(trials):
        data = random_qah(rng, torus)
        f = qah_factor(data, torus)
        bvec = tuple(random_grat(rng) for _ in range(torus.g))
        u = ExpSum.exponential(
            spec, LinForm((bvec,), GRat.of(Q(rng.randint(-2, 2), 2)), None)
        )
        tw = coboundary_twist(f, u)
        data2, _wit = reduce_to_qah(tw, torus)
        if data2 != data:
            bad += 1
    out.append(
        _record(
            "qpic:canonicalization",
            "PASS" if bad == 0 else "FAIL",
            trials=trials,
            failures=bad,
        )
    )
    return out


def suite_poincare(cfg: RunConfig):
    ctx = make_context(cfg.torus)
    rep = verify_poincare_cocycle(ctx, radius=cfg.window)
    out = [_check_record(f"poincare:{key}", val) for key, val in rep.items()]
    try:
        translation_coboundary(ctx, tuple(GRat.of(Q(1, 3), Q(1, 5)) for _ in range(cfg.torus.g)))
        out.append(_record("poincare:translation-coboundary", "PASS"))
    except CoeffError as exc:
        out.append(_record("poincare:translation-coboundary", "FAIL", error=str(exc)))
    return out


def suite_convolution(cfg: RunConfig):
    ctx = make_context(cfg.torus)
    rep = convolution_window_report(ctx, radius=cfg.window)
    return [_check_record("convolution:kernel-identity", rep)]


def _coords(rng, rank: int, radius: int) -> tuple:
    """A random integer coordinate vector with entries in [-radius, radius]."""
    return tuple(rng.randint(-radius, radius) for _ in range(rank))


def suite_gerbe(cfg: RunConfig):
    """The gerbe's identities, each a ``gerbe`` predicate run by
    ``check_cases`` over cases drawn in turn from one ``Random(7)``."""
    torus = cfg.torus
    order = torus.order
    B = bfield(torus)
    rank = 2 * torus.g
    rng = random.Random(7)
    window = coordinate_window(rank, cfg.window)
    zs = _default_z_choices(order)

    triples = sample_window([window] * 3, 30000, 1, 500, rng, per_part=True)
    rep = check_cases(triples, partial(cocycle_identity, B, order), "triples")
    out = [_check_record("gerbe:cocycle-identity", rep)]

    elements = [
        tuple(GammaElement(_coords(rng, rank, 2), rng.choice(zs)) for _ in range(3)) for _ in range(100)
    ]
    rep = check_cases(elements, partial(group_law, B, order), "trials")
    out.append(_record("gerbe:group-law", rep["status"], trials=rep["trials"]))

    # rho composition, compared on the offsets with at most one nonzero coordinate
    base = tuple(random_grat(rng) for _ in range(torus.g))
    compare = [o for o in window if nonzero(o) <= 1]
    pairs = sample_window([[(x, z) for x in window for z in zs]] * 2, 4000, 1, 400, rng)
    rep = check_cases(pairs, partial(rho_composes, B, order, base, compare), "pairs")
    if rep["failing"]:  # name the failing pair by its two xi
        rep["failing"] = (rep["failing"][0][0], rep["failing"][1][0])
    out.append(_check_record("gerbe:rho-composition", rep))

    points = [
        (_coords(rng, rank, 1), _coords(rng, rank, 1), tuple(random_grat(rng) for _ in range(torus.g)))
        for _ in range(50)
    ]
    rep = check_cases(points, partial(ctilde_extends, B, order), "trials")
    out.append(_record("gerbe:ctilde", rep["status"], trials=rep["trials"]))

    pairs = [(_coords(rng, rank, 2), _coords(rng, rank, 2)) for _ in range(20)]
    rep = check_cases(pairs, partial(cocycle_expands, B, order))
    out.append(_record("gerbe:cocycle-expansion", rep["status"]))
    return out


def suite_fm(cfg: RunConfig):
    out = []
    torus = cfg.torus
    B = bfield(torus)
    M = fm_hh2(torus.poisson, torus)
    out.append(
        _record(
            "fm:hh2-transport",
            "PASS" if M == B.matrix else "FAIL",
        )
    )
    for g in (1, 2):
        rep = fm_square_table(g)
        out.append(
            _record(
                f"fm:square-g{g}",
                rep["status"],
                table={str(k): v for k, v in rep["table"].items()},
                orientation=rep["orientation"],
            )
        )
    return out


def suite_cohomology(cfg: RunConfig):
    torus = cfg.torus
    g = torus.g
    hzero = NSData(tuple(tuple(GRAT_ZERO for _ in range(g)) for _ in range(g)))
    out = []

    chi_nontriv = Semicharacter(
        tuple(CircleConst.of(Q(1, 2)) if k == 0 else CIRCLE_ONE for k in range(2 * g))
    )
    v = classify_cohomology(QAHData(hzero, chi_nontriv, ()), torus)
    out.append(_record("cohomology:nontrivial-character", "PASS" if v.kind == "AllVanish" else "FAIL"))

    chi1 = Semicharacter(tuple(CIRCLE_ONE for _ in range(2 * g)))
    v = classify_cohomology(QAHData(hzero, chi1, ()), torus)
    want = tuple(comb(g, k) for k in range(g + 1))
    out.append(
        _record(
            "cohomology:trivial-bundle",
            "PASS" if v.kind == "FreeTrivial" and v.dims == want else "FAIL",
            dims=list(v.dims) if v.dims else None,
        )
    )

    l1 = (tuple(GRat.of(1 if i == 0 else 0) for i in range(g)),)
    v = classify_cohomology(QAHData(hzero, chi1, l1), torus)
    out.append(
        _record(
            "cohomology:deformed-trivial",
            "PASS" if v.kind == "NontrivialDeformation" and v.h0_zero and v.h1_nonzero else "FAIL",
        )
    )

    # the degree-zero data of each constant section, from its restriction
    ctx = make_context(torus)
    restricted = [restrict_to_section(ctx, s, ls, radius=cfg.window) for s, ls in cfg.sections]
    # hom orthogonality between distinct constant sections: Hom(L_s, L_t)
    # is the cohomology of L_t (x) L_s^{-1}, which must not be free
    if len(restricted) > 1:
        pairs = list(permutations([d for d, _ in restricted], 2))
        ok = all(classify_cohomology(quotient(t, s), torus).kind != "FreeTrivial" for s, t in pairs)
        out.append(
            _record(
                "cohomology:section-orthogonality",
                "PASS" if ok else "FAIL",
                pairs=len(pairs),
            )
        )
    # section restriction comparison
    for i, (_, rep) in enumerate(restricted):
        out.append(_check_record(f"cohomology:section-{i}-iota", rep))
    return out


SUITE_FUNCS = {
    "torus": suite_torus,
    "quantizable": suite_quantizable,
    "qpic": suite_qpic,
    "poincare": suite_poincare,
    "convolution": suite_convolution,
    "gerbe": suite_gerbe,
    "fm": suite_fm,
    "cohomology": suite_cohomology,
}
SUITES = tuple(SUITE_FUNCS)


def run(cfg: RunConfig) -> dict:
    results = []
    timings = {}
    for name in cfg.checks:
        t0 = time.perf_counter()
        try:
            records = SUITE_FUNCS[name](cfg)
        except CoeffError as exc:
            records = [_record(f"{name}:error", "FAIL", error=str(exc))]
        except Exception as exc:  # a bug in a suite fails it, not the run
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
            records = [_record(f"{name}:error", "FAIL", error=error)]
        timings[name] = round(time.perf_counter() - t0, 3)
        results.extend(records)
    status_ok = all(r["status"].startswith("PASS") or r["status"] == "SKIP" for r in results)
    return {
        "config": cfg.name,
        "window": cfg.window,
        "order": cfg.torus.order,
        "results": results,
        "all_pass": status_ok,
        "timings_s": timings,
    }


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Exact verification workbench for noncommutative-torus dualities."""


@main.command("run")
@click.argument("config", type=click.Path(exists=True))
@click.option("--suite", "suites", multiple=True, help="run only the named suites")
@click.option("--window", default=None, help="override window radius (default: the file)")
@click.option("--order", type=int, default=None, help="override truncation order")
@click.option("--out", type=click.Path(), default=None, help="write the JSON report here")
def run_cmd(config, suites, window, order, out):
    """Run the verification suites of a torus/bundle configuration."""
    try:
        t0 = time.perf_counter()
        with open(config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        parse_s = round(time.perf_counter() - t0, 3)
        for s in suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        cfg.checks = list(suites) or cfg.checks
        if window is not None:
            cfg.window = _int(window, "window", 0)
        if order is not None:
            t = cfg.torus
            cfg.torus = TorusData(t.g, t.lattice, t.poisson, _int(order, "order", 2))
            _check_lseries(cfg)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    report = run(cfg)
    report["timings_s"] = {"parse": parse_s, **report["timings_s"]}
    payload = json.dumps(report, indent=2, default=str)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    for rec in report["results"]:
        click.echo(f"{rec['status']:>18}  {rec['name']}")
    click.echo(
        f"{'ALL PASS' if report['all_pass'] else 'FAILURES'}  "
        f"({sum(report['timings_s'].values()):.1f}s)"
    )
    sys.exit(0 if report["all_pass"] else 1)


@main.command("star")
@click.argument("lhs")
@click.argument("rhs")
@click.option("--slots", required=True, help="slot specification as JSON")
@click.option("--degree", type=click.IntRange(min=0), default=4, help="oracle expansion degree")
def star_cmd(lhs, rhs, slots, degree):
    """Star-multiply two exponential expressions and cross-check."""
    try:
        spec = _slots_from_json(slots)
        f = parse_expsum(lhs, spec)
        g = parse_expsum(rhs, spec)
    except (ConfigError, CoeffError, json.JSONDecodeError, RecursionError) as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(2)
    prod = f.star(g)
    click.echo(expsum_str(prod))
    agree = taylor_expand(prod, degree) == taylor_star_oracle(f, g, degree)
    click.echo(f"oracle[deg<={degree}]: {'OK' if agree else 'MISMATCH'}")
    sys.exit(0 if agree else 1)


def _slots_from_json(text: str) -> SlotSpec:
    raw = json.loads(text, parse_float=_reject_float)
    if not isinstance(raw, dict):
        raise ConfigError("slot specification must be an object with a 'slots' list")
    slots = []
    for i, s in enumerate(_list(raw.get("slots"), "slots")):
        if not isinstance(s, dict):
            raise ConfigError(f"slot {i} must be an object")
        name = _name(s.get("name"), f"slot {i}: name")
        dim = _int(s.get("dim"), f"slot {name}: dim", 1)
        poisson = None
        if s.get("poisson") is not None:
            poisson = _vectors(s["poisson"], dim, f"slot {name}: poisson")
        labels = None
        if s.get("vars") is not None:
            names = _list(s["vars"], f"slot {name}: vars")
            labels = tuple(_name(v, f"slot {name}: vars") for v in names)
            if len(labels) != dim:
                raise ConfigError("vars must list one name per dimension")
        slots.append(
            Slot(
                name,
                dim,
                poisson=poisson,
                opposite=_flag(s.get("opposite", False), f"slot {name}: opposite"),
                conjugate_pair=_flag(s.get("conjugate_pair", False), f"slot {name}: conjugate_pair"),
                labels=labels,
            )
        )
    return SlotSpec(tuple(slots), _int(raw.get("order", 4), "order", 1))


@main.command("dual-lattice")
@click.argument("config", type=click.Path(exists=True))
def dual_cmd(config):
    """Print the dual lattice basis of the configured torus."""
    try:
        with open(config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    for k, vec in enumerate(dual_lattice(cfg.torus)):
        click.echo(f"xi^({k + 1}) = ({', '.join(str(e) for e in vec)})")
    sys.exit(0)


if __name__ == "__main__":
    main()
