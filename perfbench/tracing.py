"""Per-layer tracing of ``nctorus`` from outside the program.

``Tracer.install`` replaces public functions and methods of the loaded
``nctorus`` modules with wrappers that count calls and, for the timed
ones, measure inclusive and self time.  Every module binding of a
function is replaced, so ``from .coeff import cmul`` style imports are
traced too.  Coarse boundaries (parsing, suites, window reports, the
oracle) also record spans (id, name, start, end, parent) in memory;
``Tracer.dump`` writes them out when the run ends.

Self time is inclusive time minus the time of the timed calls directly
inside it; counted-only calls stay in their caller's self time.  A
recursive call adds to the inclusive time only at its outermost level.
"""

from __future__ import annotations

import json
import sys
import time

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

# (module, attribute) of the functions and methods traced, by kind.
SPANNED = [
    ("cli", "parse_config"),
    ("picard", "validate_semicharacter"),
    ("picard", "reduce_to_qah"),
    ("picard", "extension_obstruction"),
    ("poincare", "verify_poincare_cocycle"),
    ("poincare", "convolution_window_report"),
    ("poincare", "restrict_to_section"),
    ("moyal_oracle", "taylor_star_oracle"),
    ("moyal_oracle", "taylor_expand"),
    ("textfmt", "parse_expsum"),
    ("textfmt", "expsum_str"),
]
TIMED = [
    ("picard", "cocycle_holds"),
    ("gerbe", "rho_act"),
    ("expalg", "ExpSum.star"),
    ("expalg", "translate"),
    ("coeff", "Scalar.__mul__"),
    ("coeff", "series_exp"),
    ("linalg", "rat_solve"),
]
COUNTED = [
    ("gerbe", "heisenberg_cocycle"),
    ("gerbe", "ctilde"),
    ("expalg", "scalar_add"),
    ("coeff", "HbarSeries.__mul__"),
    ("coeff", "PiPoly.__mul__"),
    ("coeff", "cmul"),
    ("coeff", "combine"),
]


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def timed(name, calls=False):
        if calls:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.s", "s", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))

    timed("cli.parse_config")
    for s in SUITES:
        timed(f"cli.suite.{s}")
    timed("picard.validate_semicharacter")
    timed("picard.cocycle_holds", calls=True)
    timed("picard.reduce_to_qah")
    timed("picard.extension_obstruction")
    out.append(("picard.factor_cache.lookups", "count", "lower"))
    out.append(("picard.factor_cache.misses", "count", "lower"))
    out.append(("picard.factor_cache.hit_ratio", "ratio", "higher"))
    timed("poincare.verify_poincare_cocycle")
    timed("poincare.convolution_window_report")
    timed("poincare.restrict_to_section")
    out.append(("gerbe.heisenberg_cocycle.calls", "count", "lower"))
    out.append(("gerbe.ctilde.calls", "count", "lower"))
    timed("gerbe.rho_act", calls=True)
    timed("expalg.ExpSum.star", calls=True)
    out.append(("expalg.star.moyal_corrections", "count", "lower"))
    timed("expalg.ExpSum.make", calls=True)
    out.append(("expalg.ExpSum.make.terms_in", "count", "lower"))
    out.append(("expalg.ExpSum.make.terms_out", "count", "lower"))
    out.append(("expalg.ExpSum.make.merge_ratio", "ratio", "lower"))
    timed("expalg.translate", calls=True)
    out.append(("expalg.scalar_add.calls", "count", "lower"))
    timed("coeff.Scalar.__mul__", calls=True)
    out.append(("coeff.HbarSeries.__mul__.calls", "count", "lower"))
    out.append(("coeff.PiPoly.__mul__.calls", "count", "lower"))
    out.append(("coeff.cmul.calls", "count", "lower"))
    timed("coeff.series_exp", calls=True)
    out.append(("coeff.combine.calls", "count", "lower"))
    timed("moyal_oracle.taylor_star_oracle")
    timed("moyal_oracle.taylor_expand")
    timed("textfmt.parse_expsum")
    timed("textfmt.expsum_str")
    timed("linalg.rat_solve", calls=True)
    out.append(("trace.spans", "count", "lower"))
    out.append(("trace.verify_s", "s", "lower"))
    out.append(("trace.untraced_verify_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.timed = {}  # name -> [calls, inclusive s, self s]
        self.counts = {}  # name -> [calls]
        self.extra = {
            "picard.factor_cache.lookups": [0],
            "picard.factor_cache.misses": [0],
            "expalg.star.moyal_corrections": [0],
            "expalg.ExpSum.make.terms_in": [0],
            "expalg.ExpSum.make.terms_out": [0],
        }
        self.spans = []  # [id, name, start, end, parent id]
        self._frames = []  # child time of each active timed call
        self._span_ids = []  # ids of the active spans
        self._restore = []

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn, span=False):
        st = self.timed.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        span_ids = self._span_ids
        spans = self.spans
        clock = time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            st[0] += 1
            frame = [0.0]
            frames.append(frame)
            depth[0] += 1
            if span:
                sid = len(spans)
                spans.append([sid, name, 0.0, 0.0, span_ids[-1] if span_ids else None])
                span_ids.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                depth[0] -= 1
                frames.pop()
                if span:
                    span_ids.pop()
                    spans[sid][2] = t0
                    spans[sid][3] = t1
                if not depth[0]:
                    st[1] += dt
                st[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt

        return wrapper

    def _counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _replace(self, module, attr, make):
        """Replace ``module.attr`` (a function, or ``Class.method``) and
        every other binding of the same function in loaded nctorus modules."""
        mod = sys.modules[f"nctorus.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            self._restore.append((cls, meth, raw))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for name, m in list(sys.modules.items()):
            if not name.startswith("nctorus.") or m is None:
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    self._restore.append((m, key, orig))

    def install(self):
        """Wrap the traced functions of every loaded nctorus module."""
        loaded = {n.split(".", 1)[1] for n in sys.modules if n.startswith("nctorus.")}
        kinds = (
            (SPANNED, lambda n, fn: self._timed(n, fn, span=True)),
            (TIMED, self._timed),
            (COUNTED, self._counted),
        )
        for table, wrap in kinds:
            for module, attr in table:
                if module in loaded:
                    name = f"{module}.{attr}"
                    self._replace(module, attr, lambda fn, n=name, w=wrap: w(n, fn))
        if "expalg" in loaded:
            self._replace("expalg", "ExpSum.make", self._wrap_make)
            self._replace("expalg", "poisson_pairing", self._wrap_pairing)
        if "picard" in loaded:
            self._replace("picard", "Factor.cached", self._wrap_cached)
        if "cli" in loaded:
            cli = sys.modules["nctorus.cli"]
            for suite in SUITES:
                orig = cli.SUITE_FUNCS[suite]
                cli.SUITE_FUNCS[suite] = self._timed(f"cli.suite.{suite}", orig, span=True)
                self._restore.append((cli.SUITE_FUNCS, suite, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore = []

    def _wrap_make(self, fn):
        timed = self._timed("expalg.ExpSum.make", fn)
        terms_in = self.extra["expalg.ExpSum.make.terms_in"]
        terms_out = self.extra["expalg.ExpSum.make.terms_out"]

        def make(spec, raw_terms):
            raw_terms = list(raw_terms)
            terms_in[0] += len(raw_terms)
            out = timed(spec, raw_terms)
            terms_out[0] += len(out.terms)
            return out

        return make

    def _wrap_pairing(self, fn):
        nonzero = self.extra["expalg.star.moyal_corrections"]

        def poisson_pairing(spec, f1, f2):
            p = fn(spec, f1, f2)
            if p:
                nonzero[0] += 1
            return p

        return poisson_pairing

    def _wrap_cached(self, cached):
        """Count lookups into, and misses of, every ``Factor.cached`` table."""
        lookups = self.extra["picard.factor_cache.lookups"]
        misses = self.extra["picard.factor_cache.misses"]

        def wrapped_cached(factor):
            inner = factor.fn

            def miss(e):
                misses[0] += 1
                return inner(e)

            table_fn = cached(type(factor)(factor.group, miss)).fn

            def lookup(e):
                lookups[0] += 1
                return table_fn(e)

            return type(factor)(factor.group, lookup)

        return wrapped_cached

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        values = {}
        for name, (calls, incl, self_s) in self.timed.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = incl
            values[f"{name}.self_s"] = self_s
        for name, (calls,) in self.counts.items():
            values[f"{name}.calls"] = calls
        for name, (value,) in self.extra.items():
            values[name] = value
        lookups = values["picard.factor_cache.lookups"]
        values["picard.factor_cache.hit_ratio"] = (
            (lookups - values["picard.factor_cache.misses"]) / lookups if lookups else 0.0
        )
        made = values["expalg.ExpSum.make.terms_in"]
        values["expalg.ExpSum.make.merge_ratio"] = (
            values["expalg.ExpSum.make.terms_out"] / made if made else 0.0
        )
        values["trace.spans"] = len(self.spans)
        return values

    def dump(self, path: str, extra: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"id": i, "name": n, "start": s, "end": e, "parent": p}
                        for i, n, s, e, p in self.spans
                    ],
                    "metrics": {**self.metrics(), **extra},
                },
                fh,
                indent=1,
            )
