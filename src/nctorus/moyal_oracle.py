"""Independent Taylor-truncation check of the Moyal product.

The closed form used by ``ExpSum.star`` never differentiates anything;
this module does the opposite.  It expands the exponentials as honest
polynomials in the slot variables up to a total degree bound, applies the
bidifferential operator

    P = sum over Poisson slots of  Pi^{ij} (d_i (x) d_j)

term by term as sum_k h^k P^k / k!, and truncates at h^order and the
degree bound.  Polynomial prefactors exist only here; the core algebra
never needs them.

Since derivatives only ever touch Poisson-slot variables, each input
splits as (Poisson-variable factor) x (commutative factor); the operator
machinery runs on the first tensor leg alone and the commutative product
is multiplied back in afterwards.  Input expansions go out to
degree + (order - 1) on the Poisson leg because every application of P
consumes one derivative per side.  Internally a polynomial is a dict of
(re, im) Gaussian-integer numerators over one shared denominator, carried
beside it, and a term's coefficient is flattened the same way, once.
No rational is built and no ``Scalar`` is multiplied per monomial.

Results are reported as a two-level mapping

    {symbolic-pi constant -> {monomial -> (unit, den, parts)}}

keyed first by the residual real pi-constant of the exponents (which no
derivative ever touches) so that a star-product output can be expanded
with ``taylor_expand`` and compared for exact equality.  A monomial's
coefficient is unit * sum of h^k pi^p (re + im i) / den over the
``((k, p), (re, im))`` entries of ``parts``: ``unit`` is the canonical
``CircleConst`` of the term's coefficient, ``parts`` is sorted with no
zero entry, ``den > 0`` and gcd(den, every numerator) = 1.  Each
Gaussian rational has one reduced form over the lcm of its parts'
denominators, so two coefficients are equal exactly when their forms
are; a zero coefficient has no entry.
"""

from __future__ import annotations

from math import factorial, gcd, lcm
from operator import add

from .coeff import CoeffError, _flatten, gauss_mac, over_lcd
from .expalg import ExpSum, SlotSpec

__all__ = ["taylor_star_oracle", "taylor_expand"]


def _exp_poly(lin, nvars: int, degree: int):
    """Taylor expansion of E(pi * sum lin[i] x_i) to total degree bound.

    ``lin`` holds (re, im) rational pairs.  Returns ``(poly, den)``: poly
    maps monomials (exponent tuples) to (re, im) integer numerators over
    den.  Layer m, built from layer m-1 by one more factor sum_i lin[i]
    x_i, is over L^m m! for L the lcm of the denominators in ``lin``;
    den is that of the last layer.  A monomial of total degree d carries
    an implicit pi^d tracked by the caller.
    """
    support = [i for i, (c, d) in enumerate(lin) if c or d]
    lcd, nums = over_lcd([lin[i] for i in support])
    step = [(i, c, d) for i, (c, d) in zip(support, nums)]
    layers = [{(0,) * nvars: (1, 0)}]
    for _ in range(degree):
        nxt = {}
        for mono, (a, b) in layers[-1].items():
            for i, c, d in step:
                gauss_mac(nxt, mono[:i] + (mono[i] + 1,) + mono[i + 1 :], a, b, c, d)
        if not nxt:
            break
        layers.append(nxt)
    top = len(layers) - 1
    poly = {}
    scale = 1  # lcd^(top-m) top!/m!, from layer m's denominator to den
    for m in range(top, -1, -1):
        for mono, (a, b) in layers[m].items():
            if a or b:
                poly[mono] = (a * scale, b * scale)
        scale *= lcd * m
    return poly, lcd**top * factorial(top)


def _diff(poly, var: int):
    out = {}
    for mono, (a, b) in poly.items():
        e = mono[var]
        if e:
            out[mono[:var] + (e - 1,) + mono[var + 1 :]] = (a * e, b * e)
    return out


def _mul_trunc(p1, p2, degree: int):
    """Product of two monomial -> (re, im) dicts of Gaussian-integer
    numerators, truncated by total degree.  The product is over the
    product of the operands' denominators."""
    buckets = {}
    for mono, c in p2.items():
        buckets.setdefault(sum(mono), []).append((mono, c))
    out = {}
    for m1, (a, b) in p1.items():
        d1 = sum(m1)
        if d1 > degree:
            continue
        for d2, items in buckets.items():
            if d1 + d2 > degree:
                continue
            for m2, (c, d) in items:
                gauss_mac(out, tuple(map(add, m1, m2)), a, b, c, d)
    return {k: v for k, v in out.items() if v[0] or v[1]}


def _var_split(spec: SlotSpec):
    """Global indices of Poisson-slot variables vs commutative ones."""
    pvars, cvars = [], []
    offset = 0
    for s in spec.slots:
        idx = range(offset, offset + s.nvars)
        (pvars if s.poisson is not None else cvars).extend(idx)
        offset += s.nvars
    return pvars, cvars


def _pairing_entries(spec: SlotSpec, pvars):
    """(entries, lp): the (i, j, (re, im)) triples of P in
    Poisson-leg-local indices, with integer weights over lp, the lcd of
    P's entries."""
    local = {g: k for k, g in enumerate(pvars)}
    entries = []
    offset = 0
    for s in spec.slots:
        if s.poisson is not None:
            sign = -1 if s.opposite else 1
            for i in range(s.dim):
                for j in range(s.dim):
                    w = s.poisson[i][j]
                    if w:
                        entries.append(
                            (
                                local[offset + i],
                                local[offset + j],
                                (w.re * sign, w.im * sign),
                            )
                        )
        offset += s.nvars
    lp, nums = over_lcd([w for *_, w in entries])
    return [(i, j, w) for (i, j, _), w in zip(entries, nums)], lp


def _deriv_cached(cache, alpha, n):
    if alpha in cache:
        return cache[alpha]
    for i in range(n - 1, -1, -1):
        if alpha[i]:
            prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            out = _diff(_deriv_cached(cache, prev, n), i)
            cache[alpha] = out
            return out
    raise AssertionError("zero multi-index is always cached")


def _form(unit, den, acc):
    """The canonical (unit, den, parts) of unit * sum of acc[(k, p)] h^k
    pi^p over den: zero entries dropped, parts sorted, and den and the
    numerators divided by their gcd."""
    parts = sorted(kv for kv in acc.items() if kv[1] != (0, 0))
    g = gcd(den, *[x for _, v in parts for x in v])
    if g != 1:
        den //= g
        parts = [(key, (re // g, im // g)) for key, (re, im) in parts]
    return unit, den, tuple(parts)


def _accumulate(result, const_key, mono, form):
    """Add a monomial's form into ``result``; equal units add over the
    lcm of the two denominators, and a sum that cancels drops the
    monomial.  Forms are canonical, so differing units differ as circle
    constants and their sum leaves the representable class."""
    if not form[2]:
        return
    bucket = result.setdefault(const_key, {})
    old = bucket.get(mono)
    if old is None:
        bucket[mono] = form
        return
    unit, d1, p1 = old
    if form[0] != unit:
        raise CoeffError(
            "sum of scalars with incompatible circle constants is not representable"
        )
    d2, p2 = form[1], form[2]
    den = lcm(d1, d2)
    acc = {}
    for parts, d in ((p1, d1), (p2, d2)):
        s = den // d
        for key, (re, im) in parts:
            gauss_mac(acc, key, re, im, s, 0)
    total = _form(unit, den, acc)
    if total[2]:
        bucket[mono] = total
    else:
        del bucket[mono]


def _merge_mono(nvars, pvars, cvars, pm, cm):
    out = [0] * nvars
    for g, e in zip(pvars, pm):
        out[g] = e
    for g, e in zip(cvars, cm):
        out[g] = e
    return tuple(out)


def _flat_pairs(form):
    return [(a.re, a.im) for s in form.coeffs for a in s]


def taylor_star_oracle(f: ExpSum, g: ExpSum, degree: int):
    """Moyal product via explicit polynomial differentiation.

    Used only as an independent cross-check of ``ExpSum.star``; agreement
    is through h^(order-1) and total degree ``degree``.  Returns
    {real pi-constant -> {monomial -> (unit, den, parts)}}, the canonical
    forms of the module docstring.  Per term pair the coefficient product
    is flattened once; per monomial the h-levels are lifted to one
    denominator, convolved with it on integers and reduced by one gcd.
    """
    spec = f.spec
    if g.spec != spec:
        raise ValueError("operands live over different slot specs")
    n = spec.nvars
    order = spec.order
    pvars, cvars = _var_split(spec)
    np_, nc = len(pvars), len(cvars)
    entries, lp = _pairing_entries(spec, pvars)
    in_degree = degree + order - 1
    result = {}
    for t1 in f.terms:
        flat1 = _flat_pairs(t1.form)
        p1, den1 = _exp_poly([flat1[i] for i in pvars], np_, in_degree)
        c1, cden1 = _exp_poly([flat1[i] for i in cvars], nc, degree)
        d1_cache = {(0,) * np_: p1}
        for t2 in g.terms:
            flat2 = _flat_pairs(t2.form)
            p2, den2 = _exp_poly([flat2[i] for i in pvars], np_, in_degree)
            c2, cden2 = _exp_poly([flat2[i] for i in cvars], nc, degree)
            d2_cache = {(0,) * np_: p2}
            comm = _mul_trunc(c1, c2, degree)
            comm_buckets = {}
            for cm, cc in comm.items():
                comm_buckets.setdefault(sum(cm), []).append((cm, cc))
            base = t1.coeff * t2.coeff
            bden, bparts = _flatten(base.series.coeffs)
            const_key = (t1.form.const_pi + t2.form.const_pi).re
            # level k sums state weights (products of k entries of P, over
            # lp^k) times d^alpha p1 d^beta p2 (over den1 den2) times comm
            # (over cden1 cden2), divided by k!
            state = {((0,) * np_, (0,) * np_): (1, 0)}
            dens = [den1 * den2 * cden1 * cden2]
            local = {}  # mono -> {h level -> (re, im)} over dens[level]
            for k in range(order):
                if k:
                    dens.append(dens[-1] * lp * k)
                level = {}
                for (alpha, beta), (wa, wb) in state.items():
                    da = _deriv_cached(d1_cache, alpha, np_)
                    if not da:
                        continue
                    db = _deriv_cached(d2_cache, beta, np_)
                    if not db:
                        continue
                    for pm, (a, b) in _mul_trunc(da, db, degree).items():
                        gauss_mac(level, pm, a, b, wa, wb)
                for pm, (a, b) in level.items():
                    if not (a or b):
                        continue
                    dp = sum(pm)
                    for dc, items in comm_buckets.items():
                        if dp + dc > degree:
                            continue
                        for cm, (c, d) in items:
                            mono = _merge_mono(n, pvars, cvars, pm, cm)
                            levels = local.get(mono)
                            if levels is None:
                                levels = local[mono] = {}
                            gauss_mac(levels, k, a, b, c, d)
                if k + 1 >= order:
                    break
                nxt = {}
                for (alpha, beta), (wa, wb) in state.items():
                    for i, j, (pa, pb) in entries:
                        na = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                        nb = beta[:j] + (beta[j] + 1,) + beta[j + 1 :]
                        gauss_mac(nxt, (na, nb), wa, wb, pa, pb)
                state = {k2: v for k2, v in nxt.items() if v[0] or v[1]}
                if not state:
                    break
            # level k is h^k pi^(d + 2k) over dens[k]; lift it to dens[-1]
            top = dens[-1]
            lift = [top // dk for dk in dens]
            for mono, levels in local.items():
                d = sum(mono)
                lifted = [
                    (k, d + 2 * k, re * lift[k], im * lift[k])
                    for k, (re, im) in levels.items()
                    if re or im
                ]
                acc = {}
                for kb, pb, br, bi in bparts:
                    for k, p, re, im in lifted:
                        if kb + k < order:
                            gauss_mac(acc, (kb + k, pb + p), br, bi, re, im)
                _accumulate(result, const_key, mono, _form(base.unit, bden * top, acc))
    return result


def taylor_expand(f: ExpSum, degree: int):
    """Expand an ExpSum up to total degree ``degree`` into the mapping
    that ``taylor_star_oracle`` returns.

    Each term's coefficient is flattened once; a monomial of degree d
    with Taylor numerator c contributes c pi^d times each flattened part,
    over the product of the two denominators, reduced by one gcd.
    """
    n = f.spec.nvars
    result = {}
    for t in f.terms:
        poly, den = _exp_poly(_flat_pairs(t.form), n, degree)
        cden, cparts = _flatten(t.coeff.series.coeffs)
        const_key = t.form.const_pi.re
        for mono, (a, b) in poly.items():
            d = sum(mono)
            acc = {(k, p + d): (re * a - im * b, re * b + im * a) for k, p, re, im in cparts}
            _accumulate(result, const_key, mono, _form(t.coeff.unit, den * cden, acc))
    return result
