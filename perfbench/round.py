"""One round of a workload in a fresh interpreter.

Run by ``run.py``, never by hand: it expects ``PYTHONPATH`` to hold the
checkout's ``src`` and prints one JSON object on its last line.

``--mode full`` times set-up (import of ``nctorus`` through parsing the
inputs) and verification, then runs the benchmark's checks on the
outputs.  ``--mode setup`` times set-up only.  ``--trace-out`` wraps the
program's public functions (see ``tracing.py``) for the set-up and
verification phases and writes spans and metrics to the named file; the
checks always run untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import checks


def _fixture_round(path, mode, tracer):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    t0 = time.perf_counter()
    from nctorus import cli

    if tracer is not None:
        tracer.install()
    cfg = cli.parse_config(text)
    t1 = time.perf_counter()
    out = {"setup_s": t1 - t0, "module": cli.__file__}
    if mode == "setup":
        return out
    report = cli.run(cfg)
    out["verify_s"] = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
    fixture = json.loads(text)
    reference = _reference().get(os.path.basename(path))
    out["ops"] = checks.check_fixture(fixture, report, reference)
    out["cases"] = checks.cases_checked(report)
    return out


def _reference():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference_results.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _star_round(path, mode, tracer):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    degree = data["degree"]
    t0 = time.perf_counter()
    from nctorus.coeff import GRat
    from nctorus.expalg import Slot, SlotSpec
    from nctorus import moyal_oracle, textfmt

    if tracer is not None:
        tracer.install()
    specs = {}
    for name, raw in data["specs"].items():
        slots = []
        for s in raw["slots"]:
            poisson = None
            if s.get("poisson") is not None:
                poisson = tuple(tuple(GRat.parse(e) for e in row) for row in s["poisson"])
            slots.append(
                Slot(s["name"], s["dim"], poisson=poisson, conjugate_pair=s.get("conjugate_pair", False))
            )
        specs[name] = SlotSpec(tuple(slots), raw["order"])
    operands = [
        (
            textfmt.parse_expsum(p["lhs"], specs[p["spec"]]),
            textfmt.parse_expsum(p["rhs"], specs[p["spec"]]),
        )
        for p in data["pairs"]
    ]
    t1 = time.perf_counter()
    out = {"setup_s": t1 - t0, "module": textfmt.__file__}
    if mode == "setup":
        return out
    # Each pair is checked right after it is verified, so that no output
    # outlives its pair and peak memory is that of one `nct star` call.
    verify_s = 0.0
    ops = []
    cases = 0
    for k, (p, (f, g)) in enumerate(zip(data["pairs"], operands)):
        t2 = time.perf_counter()
        prod = f.star(g)
        text = textfmt.expsum_str(prod)
        oracle = moyal_oracle.taylor_star_oracle(f, g, degree)
        agree = moyal_oracle.taylor_expand(prod, degree) == oracle
        verify_s += time.perf_counter() - t2
        if tracer is not None:
            tracer.uninstall()
        raw_spec = data["specs"][p["spec"]]
        cases += checks.oracle_size(raw_spec, degree)
        problems = []
        if not agree:
            problems.append("star product disagrees with the Taylor oracle")
        l1, l2 = checks.lin_of(p, "lhs"), checks.lin_of(p, "rhs")
        if _lin(f) != l1 or _lin(g) != l2:
            problems.append("parsed operand exponent differs from the drawn one")
        want = [checks.cadd(a, b) for a, b in zip(l1, l2)]
        if len(prod.terms) != 1 or _lin(prod) != want:
            problems.append("product exponent is not l1 + l2")
        if textfmt.parse_expsum(text, specs[p["spec"]]) != prod:
            problems.append("rendered product does not parse back to it")
        if checks.moyal_pairing(raw_spec, l1, l2) != checks.ZERO:
            if moyal_oracle.taylor_expand(f * g, degree) == oracle:
                problems.append("commutative product matches the oracle though {l1, l2} != 0")
        ops.append((f"pair-{k}", not problems, "; ".join(problems)))
        if tracer is not None:
            tracer.install()
    if tracer is not None:
        tracer.uninstall()
    out["verify_s"] = verify_s
    out["ops"] = ops
    out["cases"] = cases
    return out


def _lin(f):
    """Linear exponent of a single-term ExpSum as (re, im) Fractions."""
    if len(f.terms) != 1:
        return None
    return [
        (checks.F(c.re.numerator, c.re.denominator), checks.F(c.im.numerator, c.im.denominator))
        for slot in f.terms[0].form.coeffs
        for c in slot
    ]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--mode", choices=("full", "setup"), default="full")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
    if args.workload == "star-oracle":
        out = _star_round(args.input, args.mode, tracer)
    else:
        out = _fixture_round(args.input, args.mode, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.metrics()
        tracer.dump(args.trace_out, {"verify_s": out.get("verify_s")})
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
