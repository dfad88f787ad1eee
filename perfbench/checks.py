"""The benchmark's own correctness checks and input generator.

Nothing here imports ``nctorus``.  Expected values are computed from the
bundled fixture files and from the generated operands in plain
``fractions.Fraction`` arithmetic, so a fault in the program's own
arithmetic cannot hide itself by judging its own output.  Complex numbers
are ``(re, im)`` pairs of Fractions.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from math import comb

ZERO = (F(0), F(0))

# Record fields that count the cases a check covered.
COUNT_KEYS = ("pairs", "checked", "triples", "trials")

# The central elements the program's Poincare group windows range over:
# 1 and 1 + h.
Z_CHOICES = 2


# ---------------------------------------------------------------------------
# Gaussian rationals


def gauss(text: str):
    """Parse a fixture literal: 'a/b', 'c/d i', 'i', '-i' or 'a/b+c/d i'."""
    s = str(text).replace(" ", "")
    if not s.endswith("i"):
        return (F(s), F(0))
    body = s[:-1].rstrip("*")
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut > 0:
        re_part, im_part = body[:cut], body[cut:]
    else:
        re_part, im_part = "0", body
    if im_part in ("", "+", "-"):
        im_part += "1"
    return (F(re_part), F(im_part))


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def conj(a):
    return (a[0], -a[1])


def _sum(values):
    acc = ZERO
    for v in values:
        acc = cadd(acc, v)
    return acc


def _matrix(rows):
    return [[gauss(e) for e in row] for row in rows]


def _gauss_str(c) -> str:
    re_part, im_part = c
    sign = "-" if im_part < 0 else "+"
    return f"{re_part}{sign}{abs(im_part)} i"


# ---------------------------------------------------------------------------
# first-order obstruction


def _bracket(poisson, f1, f2):
    """{f1, f2} = sum_ab P[a][b] f1_a f2_b on pi-cofactor vectors."""
    acc = ZERO
    for a, row in enumerate(poisson):
        for b, w in enumerate(row):
            acc = cadd(acc, cmul(cmul(f1[a], w), f2[b]))
    return acc


def obstruction_pairs(torus: dict, H_rows) -> list:
    """Generator pairs (i, j) where {h_lam_j, h_lam_i} is non-zero.

    h_lam(v) = pi H(v, lam), whose pi-cofactor has entries
    sum_k H[a][k] conj(lam_k); the pairing is antisymmetric, so only
    i < j is computed.
    """
    H = _matrix(H_rows)
    lattice = _matrix(torus["lattice"])
    poisson = _matrix(torus["poisson"])
    rows = []
    for lam in lattice:
        rows.append(
            [
                _sum(cmul(H[a][k], conj(lam[k])) for k in range(len(lam)))
                for a in range(len(H))
            ]
        )
    return [
        (i, j)
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if _bracket(poisson, rows[j], rows[i]) != ZERO
    ]


def is_quantizable(torus: dict, bundle: dict) -> bool:
    return not obstruction_pairs(torus, bundle["H"])


# ---------------------------------------------------------------------------
# window sizes


def window_sizes(g: int, radius: int, n_sections: int) -> dict:
    """Full window size of each windowed check, and whether the program
    checks that window exhaustively.

    A window is exhaustive when its full size is within the budget the
    program documents for that check; past the budget the program samples,
    and the benchmark then only asks for a non-zero count.
    """
    rank = 2 * g
    W = (2 * radius + 1) ** rank  # coordinate window of Z^(2g)
    z = Z_CHOICES
    offsets = 1 + 2 * rank  # fiber offsets with at most one nonzero entry
    return {
        "qpic-cocycle": (W * W, W * W <= 20000),
        "poincare:cocycle": ((W * W * z) ** 2, (W * W * z) ** 2 <= 40000),
        "poincare:needtoshow": (W * W, True),
        "convolution:kernel-identity": (W ** 3 * z, W ** 3 * z <= 10000),
        "gerbe:cocycle-identity": (W ** 3, W ** 3 <= 30000),
        "gerbe:rho-composition": ((W * z) ** 2, (W * z) ** 2 <= 4000),
        "section-iota": (W * W * offsets, W * W <= 400),
        "cohomology:section-orthogonality": (
            n_sections * (n_sections - 1),
            True,
        ),
    }


def window_kind(name: str):
    """The ``window_sizes`` key of a record name, or None."""
    if name.startswith("qpic:") and name.endswith(":cocycle"):
        return "qpic-cocycle"
    if name.startswith("cohomology:section-") and name.endswith("-iota"):
        return "section-iota"
    if name in (
        "poincare:cocycle",
        "poincare:needtoshow",
        "convolution:kernel-identity",
        "gerbe:cocycle-identity",
        "gerbe:rho-composition",
        "cohomology:section-orthogonality",
    ):
        return name
    return None


# ---------------------------------------------------------------------------
# fixture reports


def results_digest(report: dict) -> str:
    """sha256 of the ``results`` block serialized as ``nct run --out`` does."""
    text = json.dumps(report["results"], indent=2, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def cases_checked(report: dict) -> int:
    return sum(
        rec[key] for rec in report["results"] for key in COUNT_KEYS if key in rec
    )


def check_fixture(fixture: dict, report: dict, reference_digest: str = None):
    """The benchmark's operations on one ``nct run`` report.

    Returns ``(name, ok, detail)`` triples: one for the window, one per
    record (verdict, expected SKIPs, quantizability and counts), one for
    the coverage of bundles and sections, and, when a reference digest is
    given, one for the byte-identity of the ``results`` block.
    """
    torus = fixture["torus"]
    g = int(torus["g"])
    radius = int(fixture.get("window", 1))
    bundles = fixture.get("bundles", [])
    names = [b.get("name", f"bundle{i}") for i, b in enumerate(bundles)]
    quant = {n: is_quantizable(torus, b) for n, b in zip(names, bundles)}
    declared = {n: b.get("quantizable") for n, b in zip(names, bundles)}
    poisson_zero = all(x == ZERO for row in _matrix(torus["poisson"]) for x in row)
    n_sections = len(fixture.get("sections", []))
    sizes = window_sizes(g, radius, n_sections)

    ops = [
        (
            "window",
            report.get("window") == radius,
            f"report window {report.get('window')}, fixture window {radius}",
        )
    ]
    seen = set()
    for rec in report["results"]:
        name, status = rec["name"], rec["status"]
        seen.add(name)
        problems = []
        if status == "SKIP":
            expected = (name == "poincare:negative_control" and poisson_zero) or (
                name.startswith("qpic:")
                and name.count(":") == 1
                and quant.get(name[5:]) is False
            )
            if not expected:
                problems.append("unexpected SKIP")
        elif not (status == "PASS" or status.startswith("PASS-")):
            problems.append(f"status {status}")
        if name.startswith("quantizable:"):
            bundle = name.split(":", 1)[1]
            label = status.split("-", 1)[1] if "-" in status else None
            own = "quantizable" if quant.get(bundle) else "obstructed"
            if label != own:
                problems.append(f"verdict {label}, first-order obstruction says {own}")
            flag = declared.get(bundle)
            if flag is not None and label != ("quantizable" if flag else "obstructed"):
                problems.append(f"verdict {label}, fixture flag quantizable={flag}")
        for key in COUNT_KEYS:
            if key not in rec:
                continue
            count = rec[key]
            if not count > 0:
                problems.append(f"{key} = {count}")
            kind = window_kind(name)
            if kind is not None:
                size, exhaustive = sizes[kind]
                if exhaustive and count != size:
                    problems.append(f"{key} = {count}, full window is {size}")
        ops.append((name, not problems, "; ".join(problems)))

    suites = fixture.get("checks", [])
    wanted = []
    if "quantizable" in suites:
        wanted += [f"quantizable:{n}" for n in names]
    if "qpic" in suites:
        wanted += [f"qpic:{n}:cocycle" if quant[n] else f"qpic:{n}" for n in names]
    if "cohomology" in suites:
        wanted += [f"cohomology:section-{i}-iota" for i in range(n_sections)]
    missing = [n for n in wanted if n not in seen]
    missing += [s for s in suites if not any(n.startswith(s + ":") for n in seen)]
    ops.append(("coverage", not missing, f"missing records: {missing}" if missing else ""))

    if reference_digest is not None:
        digest = results_digest(report)
        ops.append(
            (
                "results-identical",
                digest == reference_digest,
                f"results digest {digest}, reference {reference_digest}",
            )
        )
    return ops


# ---------------------------------------------------------------------------
# star-oracle operands

DEGREE = 6
ORDER = 6
_MOYAL_SLOT = {"name": "v", "dim": 2, "poisson": [["0", "1"], ["-1", "0"]]}
SPECS = {
    # the Moyal algebra of the g = 2 torus
    "moyal": {"slots": [_MOYAL_SLOT], "order": ORDER},
    # the Poincare kernel's two-slot algebra
    "kernel": {
        "slots": [_MOYAL_SLOT, {"name": "l", "dim": 2, "conjugate_pair": True}],
        "order": ORDER,
    },
}
PAIRS = (("moyal", 50), ("kernel", 6))


def var_names(spec: dict) -> list:
    names = []
    for s in spec["slots"]:
        base = [f"{s['name']}{i + 1}" for i in range(s["dim"])]
        if s.get("conjugate_pair"):
            base += [f"{n}~" for n in base]
        names += base
    return names


def _rand_gauss(rng, den_re=2):
    return (F(rng.randint(-2, 2), rng.randint(1, den_re)), F(rng.randint(-2, 2), 2))


def _draw_term(rng, nvars: int) -> dict:
    """One exponential term drawn like the operands of acceptance criterion 1:
    linear coefficients (a/b + c/2 i) with a, c in [-2, 2] and b in {1, 2};
    a constant (a/2 + c/2 i); an h-constant h * k/2 with k in [-1, 1]; and a
    unit coefficient u(q) (c_0 + sum_k c_k pi^e h^k), q in {0, 1/4, .., 7/4},
    each tail term present with probability 0.7, e in [0, 2]."""
    lin = [_rand_gauss(rng) for _ in range(nvars)]
    const = (F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 2))
    hconst = F(rng.randint(-1, 1), 2)
    while True:
        c0 = (F(rng.randint(-2, 2), rng.randint(1, 2)), F(rng.randint(-2, 2), rng.randint(1, 2)))
        if c0 != ZERO:
            break
    series = {(0, 0): c0}
    for k in range(1, ORDER):
        if rng.random() < 0.7:
            e = rng.randint(0, 2)
            c = (F(rng.randint(-2, 2), rng.randint(1, 2)), F(rng.randint(-2, 2), rng.randint(1, 2)))
            series[(k, e)] = c
    unit = F(rng.randint(0, 7), 4)
    # fold exp(h * hconst) into the series, truncated at h^ORDER
    folded = {}
    fact = 1
    for j in range(ORDER):
        if j:
            fact *= j
        w = (hconst ** j / fact, F(0))
        for (k, e), c in series.items():
            if k + j < ORDER:
                key = (k + j, e)
                folded[key] = cadd(folded.get(key, ZERO), cmul(c, w))
    return {"lin": lin, "const": const, "unit": unit, "series": folded}


def render_term(term: dict, names: list) -> str:
    """The term in the program's text format, written by the benchmark."""
    parts = []
    for (k, e), c in sorted(term["series"].items()):
        if c == ZERO:
            continue
        factors = [f"({_gauss_str(c)})"]
        if e:
            factors.append(f"pi^{e}")
        if k:
            factors.append(f"h^{k}")
        parts.append("*".join(factors))
    series = " + ".join(parts) if parts else "0"
    lin = " + ".join(
        f"({_gauss_str(c)})*{n}" for c, n in zip(term["lin"], names) if c != ZERO
    )
    re_const, im_const = term["const"]
    return (
        f"u({term['unit']})*u({im_const})*({series})"
        f"*E[pi*({lin or '0'}) + pi*({re_const})]"
    )


def draw_operands(seed: int) -> dict:
    """The star-oracle inputs for one seed: text operands plus the linear
    coefficients the benchmark meant, as strings."""
    rng = random.Random(seed)
    pairs = []
    for spec_name, count in PAIRS:
        spec = SPECS[spec_name]
        names = var_names(spec)
        for _ in range(count):
            f, g = _draw_term(rng, len(names)), _draw_term(rng, len(names))
            pairs.append(
                {
                    "spec": spec_name,
                    "lhs": render_term(f, names),
                    "rhs": render_term(g, names),
                    "lhs_lin": [[str(x) for x in c] for c in f["lin"]],
                    "rhs_lin": [[str(x) for x in c] for c in g["lin"]],
                }
            )
    return {"degree": DEGREE, "specs": SPECS, "pairs": pairs}


def lin_of(pair: dict, side: str) -> list:
    return [(F(a), F(b)) for a, b in pair[f"{side}_lin"]]


def moyal_pairing(spec: dict, lin1: list, lin2: list):
    """{l1, l2} summed over the Poisson slots (without the factor pi^2)."""
    acc = ZERO
    pos = 0
    for s in spec["slots"]:
        n = 2 * s["dim"] if s.get("conjugate_pair") else s["dim"]
        if s.get("poisson") is not None:
            P = _matrix(s["poisson"])
            acc = cadd(acc, _bracket(P, lin1[pos : pos + n], lin2[pos : pos + n]))
        pos += n
    return acc


def oracle_size(spec: dict, degree: int) -> int:
    """Monomials of total degree <= degree: the coefficients one
    comparison of Taylor expansions covers."""
    return comb(len(var_names(spec)) + degree, degree)
