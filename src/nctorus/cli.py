"""Batch driver: parse configurations, run verification suites, report.

JSON in, JSON out; the human-readable summary is derived from the
report, never the other way around.  Exit status: 0 all PASS, 1 any
FAIL, 2 configuration error.  All randomized checks use fixed seeds, so
the ``results`` section of a report is byte-identical across runs;
timings are reported separately as they cannot be deterministic.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from functools import cache

import click

from .coeff import (
    CIRCLE_ONE,
    CircleConst,
    CoeffError,
    GRat,
    HbarSeries,
    PiPoly,
    Q,
    Scalar,
    series_exp,
)
from .cohomfm import fm_hh2, fm_square_table
from .expalg import ExpSum, Slot, SlotSpec
from .gerbe import (
    FiberFunction,
    GammaElement,
    check_cases,
    coordinate_window,
    ctilde,
    gamma_inverse,
    gamma_mul,
    heisenberg_cocycle,
    nonzero,
    rho_act,
    sample_window,
)
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
    reduce_to_qah,
    validate_semicharacter,
)
from .poincare import (
    convolution_window_report,
    make_context,
    restrict_to_section,
    translation_coboundary,
    verify_poincare_cocycle,
)
from .sampling import random_grat, random_qah
from .textfmt import expsum_str, parse_expsum
from .torus import TorusData, bfield, dual_lattice, pairing, validate_torus

SUITES = (
    "torus",
    "quantizable",
    "qpic",
    "poincare",
    "convolution",
    "gerbe",
    "fm",
    "cohomology",
)


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
        n = int(value)
    except (TypeError, ValueError):
        n = None
    if n is None or n < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return n


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
    """The record of a ``check_cases`` report, its failing case as text."""
    failing = rep["failing"]
    return _record(name, **{**rep, "failing": str(failing) if failing else None})


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
    basis = dual_lattice(cfg.torus)
    ok = all(
        pairing(xi, lam).im == (1 if j == k else 0)
        for k, xi in enumerate(basis.vectors)
        for j, lam in enumerate(cfg.torus.lattice)
    )
    out.append(_record("torus:dual-integrality", "PASS" if ok else "FAIL"))
    B = bfield(cfg.torus, basis)
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
        quant = is_quantizable(b.ns, cfg.torus)
        label = "quantizable" if quant else "obstructed"
        status = "PASS"
        if b.expect_quantizable is not None and quant != b.expect_quantizable:
            status = "FAIL"
        ob = obstruction0(b.ns, cfg.torus)
        witness = None
        if not quant:
            for i, row in enumerate(ob):
                for j, p in enumerate(row):
                    if not p.is_zero():
                        witness = {"pair": [i, j], "value": str(p)}
                        break
                if witness:
                    break
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
            table = extension_obstruction(f, torus.order - 2, radius=1)
            flat = all(p.is_zero() for p in table.values())
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
    from .expalg import LinForm

    for _ in range(trials):
        data = random_qah(rng, torus)
        f = qah_factor(data, torus, spec)
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
    out = []
    for key, val in rep.items():
        rec = {k: v for k, v in val.items() if k != "status"}
        rec = {k: (str(v) if not isinstance(v, (int, type(None))) else v) for k, v in rec.items()}
        out.append(_record(f"poincare:{key}", val["status"], **rec))
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


def suite_gerbe(cfg: RunConfig):
    torus = cfg.torus
    order = torus.order
    B = bfield(torus)
    rank = 2 * torus.g
    out = []
    rng = random.Random(7)

    # 2-cocycle identity
    window = coordinate_window(rank, cfg.window)

    @cache
    def coc(x, y):
        return heisenberg_cocycle(B, x, y, order)

    def cocycle_identity(t):
        a, b, c = t
        ab = tuple(x + y for x, y in zip(a, b))
        bc = tuple(x + y for x, y in zip(b, c))
        return coc(a, b) * coc(ab, c) == coc(b, c) * coc(a, bc)

    triples = sample_window([window] * 3, 30000, 1, 500, rng, per_part=True)
    rep = check_cases(triples, cocycle_identity, "triples")
    out.append(_check_record("gerbe:cocycle-identity", rep))

    # group law
    zs = (
        Scalar.one(order),
        Scalar(CIRCLE_ONE, HbarSeries.one(order) + HbarSeries.of(order, {1: PiPoly.pi_power(0)})),
    )
    bad = 0
    for _ in range(100):
        es = [
            GammaElement(tuple(rng.randint(-2, 2) for _ in range(rank)), rng.choice(zs))
            for _ in range(3)
        ]
        l = gamma_mul(gamma_mul(es[0], es[1], B, order), es[2], B, order)
        r = gamma_mul(es[0], gamma_mul(es[1], es[2], B, order), B, order)
        if l != r:
            bad += 1
        inv = gamma_inverse(es[0], B, order)
        if gamma_mul(es[0], inv, B, order) != GammaElement.identity(rank, order):
            bad += 1
    out.append(_record("gerbe:group-law", "PASS" if bad == 0 else "FAIL", trials=100))

    # rho composition: compare on a sparse offset set, with the fiber
    # support built per pair to contain exactly the shifts both routes need
    s = tuple(random_grat(rng) for _ in range(torus.g))
    compare = [o for o in window if nonzero(o) <= 1]
    elems = [(x, z) for x in window for z in zs]

    def rho_composes(pair):
        a, b = (GammaElement(*e) for e in pair)
        support = set(compare)
        for o in compare:
            o1 = tuple(x - y for x, y in zip(o, b.xi))
            support.add(o1)
            support.add(tuple(x - y for x, y in zip(o, a.xi)))
            support.add(tuple(x - y for x, y in zip(o1, a.xi)))
        f = FiberFunction.of(s, {o: Scalar.one(order) for o in support})
        lhs = rho_act(b, rho_act(a, f, B, order), B, order)
        rhs = rho_act(gamma_mul(b, a, B, order), f, B, order)
        dl, dr = dict(lhs.values), dict(rhs.values)
        common = (set(dl) & set(dr)) & set(compare)
        return bool(common) and all(dl[o] == dr[o] for o in common)

    rep = check_cases(sample_window([elems] * 2, 4000, 1, 400, rng), rho_composes, "pairs")
    if rep["failing"]:  # name the failing pair by its two xi
        rep["failing"] = (rep["failing"][0][0], rep["failing"][1][0])
    out.append(_check_record("gerbe:rho-composition", rep))

    # ctilde restriction and additivity
    basis = B.basis
    bad = 0
    for _ in range(50):
        x1 = tuple(rng.randint(-1, 1) for _ in range(rank))
        x2 = tuple(rng.randint(-1, 1) for _ in range(rank))
        w = basis.combination(x1)
        if ctilde(w, x2, B, order) != heisenberg_cocycle(B, x1, x2, order):
            bad += 1
        wr = tuple(random_grat(rng) for _ in range(torus.g))
        x12 = tuple(a + b for a, b in zip(x1, x2))
        if ctilde(wr, x12, B, order) != ctilde(wr, x1, B, order) * ctilde(wr, x2, B, order):
            bad += 1
    out.append(_record("gerbe:ctilde", "PASS" if bad == 0 else "FAIL", trials=50))

    # the cocycle against the Taylor series of exp(h pi^2 B(x2, x1)),
    # not against the closed form it is computed by
    ok = True
    for _ in range(20):
        x1 = tuple(rng.randint(-2, 2) for _ in range(rank))
        x2 = tuple(rng.randint(-2, 2) for _ in range(rank))
        log = HbarSeries.of(order, {1: PiPoly.pi_power(2, B.on_coords(x2, x1))})
        want = Scalar(CIRCLE_ONE, series_exp(log))
        if heisenberg_cocycle(B, x1, x2, order) != want:
            ok = False
            break
    out.append(_record("gerbe:cocycle-expansion", "PASS" if ok else "FAIL"))
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
    zero = GRat.of(0)
    hzero = NSData(tuple(tuple(zero for _ in range(g)) for _ in range(g)))
    one = CircleConst.of(0)
    out = []

    chi_nontriv = Semicharacter(
        tuple(CircleConst.of(Q(1, 2)) if k == 0 else one for k in range(2 * g))
    )
    v = classify_cohomology(QAHData(hzero, chi_nontriv, ()), torus)
    out.append(_record("cohomology:nontrivial-character", "PASS" if v.kind == "AllVanish" else "FAIL"))

    chi1 = Semicharacter(tuple(one for _ in range(2 * g)))
    v = classify_cohomology(QAHData(hzero, chi1, ()), torus)
    from math import comb

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

    # hom orthogonality between distinct constant sections
    if cfg.sections:
        ok = True
        pairs = 0
        for i, (s, ls) in enumerate(cfg.sections):
            for j, (t, lt) in enumerate(cfg.sections):
                if i == j:
                    continue
                diff = tuple(a - b for a, b in zip(t, s))
                chi_d = Semicharacter(
                    tuple(
                        CircleConst.of(2 * pairing(diff, lam).im)
                        for lam in torus.lattice
                    )
                )
                depth = max(len(ls), len(lt))
                ldiff = []
                for k in range(depth):
                    a = lt[k] if k < len(lt) else tuple([zero] * g)
                    b = ls[k] if k < len(ls) else tuple([zero] * g)
                    ldiff.append(tuple(x - y for x, y in zip(a, b)))
                vd = classify_cohomology(QAHData(hzero, chi_d, tuple(ldiff)), torus)
                pairs += 1
                if vd.kind == "FreeTrivial":
                    ok = False
        out.append(
            _record(
                "cohomology:section-orthogonality",
                "PASS" if ok else "FAIL",
                pairs=pairs,
            )
        )
    # section restriction comparison
    ctx = make_context(torus)
    for i, (s, ls) in enumerate(cfg.sections):
        data, rep = restrict_to_section(ctx, s, ls, radius=cfg.window)
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
@click.option("--window", default=None, help="override window radius (default: NCT_WINDOW, then the file)")
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
        # the effective window: --window, then NCT_WINDOW, then the file
        if window is None:
            window = os.environ.get("NCT_WINDOW") or None
        if window is not None:
            cfg.window = _int(window, "window", 0)
        if order is not None:
            t = cfg.torus
            cfg.torus = TorusData(t.g, t.lattice, t.poisson, _int(order, "order", 2))
            _check_lseries(cfg)
    except (ConfigError, OSError) as exc:
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
@click.option("--degree", type=int, default=4, help="oracle expansion degree")
def star_cmd(lhs, rhs, slots, degree):
    """Star-multiply two exponential expressions and cross-check."""
    try:
        spec = _slots_from_json(slots)
        f = parse_expsum(lhs, spec)
        g = parse_expsum(rhs, spec)
    except (ConfigError, CoeffError, json.JSONDecodeError) as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(2)
    prod = f.star(g)
    click.echo(expsum_str(prod))
    agree = taylor_expand(prod, degree) == taylor_star_oracle(f, g, degree)
    click.echo(f"oracle[deg<={degree}]: {'OK' if agree else 'MISMATCH'}")
    sys.exit(0 if agree else 1)


def _slots_from_json(text: str) -> SlotSpec:
    raw = json.loads(text, parse_float=_reject_float)
    slots = []
    for s in raw["slots"]:
        poisson = None
        if s.get("poisson") is not None:
            poisson = tuple(tuple(_grat(e) for e in row) for row in s["poisson"])
        labels = tuple(s["vars"]) if s.get("vars") else None
        if labels and len(labels) != int(s["dim"]):
            raise ConfigError("vars must list one name per dimension")
        slots.append(
            Slot(
                s["name"],
                int(s["dim"]),
                poisson=poisson,
                opposite=bool(s.get("opposite", False)),
                conjugate_pair=bool(s.get("conjugate_pair", False)),
                labels=labels,
            )
        )
    return SlotSpec(tuple(slots), int(raw.get("order", 4)))


@main.command("dual-lattice")
@click.argument("config", type=click.Path(exists=True))
def dual_cmd(config):
    """Print the dual lattice basis of the configured torus."""
    try:
        with open(config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (ConfigError, OSError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    basis = dual_lattice(cfg.torus)
    for k, vec in enumerate(basis.vectors):
        click.echo(f"xi^({k + 1}) = ({', '.join(str(e) for e in vec)})")
    sys.exit(0)


if __name__ == "__main__":
    main()
