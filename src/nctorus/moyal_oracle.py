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
machinery runs on the first tensor leg alone.  Input expansions go out to
degree + (order - 1) on the Poisson leg because every application of P
consumes one derivative per side.  A polynomial holds (re, im)
Gaussian-integer numerators over one shared denominator, carried beside
it; no rational is built and no ``Scalar`` is multiplied per monomial.

Monomials and multi-indices are packed: an exponent vector e is the
integer sum of e_g B^g over the global variable indices g.  The oracle
takes B = degree + order, one more than the Poisson leg's input degree,
and ``taylor_expand`` takes B = degree + 1.  No digit can carry: inputs
stay below B in every digit, products are truncated at ``degree`` < B,
and the two legs hold disjoint digits.  A product of monomials is one
integer addition and d/dx_g one subtraction of B^g.  A polynomial is a
list of dicts, one per total degree, so a truncated product visits only
the degree pairs that survive.

The commutative leg is factored out of the per-monomial tail.  The
h-levels of each Poisson-leg monomial, all over one denominator, are
convolved once with the term pair's flattened coefficient
(``_convolve``).  Each commutative monomial then scales that sorted list
by its Gaussian-integer coefficient, which shifts every pi-degree by its
total degree and keeps the order (``_tail``); ``taylor_expand`` runs the
same tail on each term's coefficient.  Exponent tuples are decoded only
when a monomial is written out.

Results are reported as a two-level mapping

    {symbolic-pi constant -> {monomial -> (unit, den, parts)}}

keyed first by the residual real pi-constant of the exponents, a real
``GRat`` (which no derivative ever touches), so that a star-product
output can be expanded with ``taylor_expand`` and compared for exact
equality.  A monomial is its exponent tuple.  Its coefficient is
unit * sum of h^k pi^p (re + im i) / den over the ``((k, p), (re, im))``
entries of ``parts``: ``unit`` is the canonical ``CircleConst`` of the
term's coefficient, ``parts`` is sorted with no zero entry, ``den > 0``
and gcd(den, every numerator) = 1.  Each Gaussian rational has one
reduced form over the lcm of its parts' denominators, so two
coefficients are equal exactly when their forms are; a zero coefficient
has no entry.
"""

from __future__ import annotations

from math import factorial, gcd, lcm

from .coeff import CoeffError, _flatten, gauss_mac, over_lcd
from .expalg import ExpSum, SlotSpec

__all__ = ["taylor_star_oracle", "taylor_expand"]


def _exp_poly(lin, variables, base: int, degree: int):
    """Taylor expansion of E(pi * sum lin[g] x_g), g over ``variables``,
    to total degree bound, packed in ``base``.

    ``lin`` holds GRats, indexed by global variable.  Returns
    ``(poly, den)``: poly[m] maps the codes of the degree-m monomials to
    (re, im) integer numerators over den.  Layer m, built from layer m-1
    by one more factor sum_g lin[g] x_g, is over L^m m! for L the lcm of
    the denominators in ``lin``; den is that of the last layer.  A
    monomial of total degree d carries an implicit pi^d tracked by the
    caller.
    """
    support = [g for g in variables if lin[g]]
    lcd, nums = over_lcd([lin[g] for g in support])
    step = [(base**g, c, d) for g, (c, d) in zip(support, nums)]
    poly = [{0: (1, 0)}]
    for _ in range(degree if step else 0):
        nxt = {}
        for code, (a, b) in poly[-1].items():
            for s, c, d in step:
                gauss_mac(nxt, code + s, a, b, c, d)
        poly.append(nxt)
    top = len(poly) - 1
    scale = 1  # lcd^(top-m) top!/m!, from layer m's denominator to den
    for m in range(top, -1, -1):
        poly[m] = {code: (a * scale, b * scale) for code, (a, b) in poly[m].items() if a or b}
        scale *= lcd * m
    return poly, lcd**top * factorial(top)


def _diff(poly, step: int, base: int):
    """d/dx_g of a packed polynomial, for step = base^g."""
    return [
        {code - step: (a * e, b * e) for code, (a, b) in layer.items() if (e := code // step % base)}
        for layer in poly[1:]
    ]


def _mul_trunc(terms, degree: int):
    """Sum of w * p1 * p2 over the ``(w, p1, p2)`` of ``terms``, truncated
    at total degree ``degree``, zero entries dropped.  w is an (re, im)
    Gaussian integer; the sum is over the product of the operands'
    denominators."""
    out = [{} for _ in range(degree + 1)]
    for (wa, wb), p1, p2 in terms:
        for d1, layer in enumerate(p1[: degree + 1]):
            rest = p2[: degree + 1 - d1]
            for m1, (a, b) in layer.items():
                a, b = a * wa - b * wb, a * wb + b * wa
                for d2, other in enumerate(rest):
                    acc = out[d1 + d2]
                    for m2, (c, d) in other.items():
                        m = m1 + m2
                        re = a * c - b * d
                        im = a * d + b * c
                        old = acc.get(m)
                        acc[m] = (re, im) if old is None else (old[0] + re, old[1] + im)
    return [{m: v for m, v in layer.items() if v[0] or v[1]} for layer in out]


def _pairing_entries(spec: SlotSpec, base: int):
    """(entries, lp): the (base^i, base^j, (re, im)) triples of P on
    global variables i, j, with integer weights over lp, the lcd of P's
    entries."""
    entries = []
    offset = 0
    for s in spec.slots:
        if s.poisson is not None:
            for i in range(s.dim):
                for j in range(s.dim):
                    w = -s.poisson[i][j] if s.opposite else s.poisson[i][j]
                    if w:
                        entries.append((base ** (offset + i), base ** (offset + j), w))
        offset += s.nvars
    lp, nums = over_lcd([w for *_, w in entries])
    return [(i, j, w) for (i, j, _), w in zip(entries, nums)], lp


def _deriv(cache, alpha: int, steps, base: int):
    """d^alpha of cache[0] for a packed multi-index alpha over the
    variables at ``steps``, memoized in cache."""
    out = cache.get(alpha)
    if out is None:
        s = next(s for s in steps if alpha // s % base)
        out = cache[alpha] = _diff(_deriv(cache, alpha - s, steps, base), s, base)
    return out


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


def _convolve(bparts, levels, dp: int, order: int):
    """Sorted nonzero (k, p, re, im) of the coefficient parts ``bparts``
    times sum over k of levels[k] h^k pi^(dp + 2k), modulo h^order.
    ``bparts`` runs in increasing h-degree (see ``_flatten``)."""
    acc = {}
    for k, (re, im) in levels.items():
        for kb, pb, br, bi in bparts:
            if kb + k >= order:
                break
            gauss_mac(acc, (kb + k, pb + dp + 2 * k), br, bi, re, im)
    return sorted((k, p, re, im) for (k, p), (re, im) in acc.items() if re or im)


def _tail(result, const_key, unit, den, parts, items, base: int, n: int):
    """Write unit * (c + e i) pi^d * parts over den into ``result`` for
    each ``(code, d, (c, e))`` of ``items``.

    ``parts`` is sorted (k, p, re, im) with no zero entry; a nonzero
    Gaussian integer keeps every entry nonzero and the shift by d keeps
    the order.  parts and den are reduced once; then a prime power that
    divides den and every numerator of parts * (c + e i) divides
    c^2 + e^2, so a monomial needs the full gcd only when that norm
    shares a factor with den."""
    if not parts:
        return
    g0 = gcd(den, *[x for *_, re, im in parts for x in (re, im)])
    den //= g0
    nums = [(re // g0, im // g0) for _, _, re, im in parts]
    powers = [base**g for g in range(n)]
    keys = {}  # d -> the parts' (k, p + d)
    for code, d, (c, e) in items:
        g = gcd(den, c, e)
        dm = den
        if g != 1:
            c //= g
            e //= g
            dm //= g
        res = [re * c - im * e for re, im in nums]
        ims = [re * e + im * c for re, im in nums]
        g = gcd(dm, c * c + e * e)
        if g != 1:
            g = gcd(g, *res, *ims)
            if g != 1:
                res = [x // g for x in res]
                ims = [x // g for x in ims]
                dm //= g
        shifted = keys.get(d)
        if shifted is None:
            shifted = keys[d] = [(k, p + d) for k, p, _, _ in parts]
        mono = tuple([code // s % base for s in powers])
        _accumulate(result, const_key, mono, (unit, dm, tuple(zip(shifted, zip(res, ims)))))


def _flat(form):
    return [a for s in form.coeffs for a in s]


def taylor_star_oracle(f: ExpSum, g: ExpSum, degree: int):
    """Moyal product via explicit polynomial differentiation.

    Used only as an independent cross-check of ``ExpSum.star``; agreement
    is through h^(order-1) and total degree ``degree``.  Returns
    {real pi-constant -> {monomial -> (unit, den, parts)}}, the canonical
    forms of the module docstring.  Per term pair the coefficient product
    is flattened once; per Poisson-leg monomial it is convolved with the
    h-levels once; per output monomial ``_tail`` scales the result by the
    commutative coefficient.
    """
    spec = f.spec
    if g.spec != spec:
        raise ValueError("operands live over different slot specs")
    n = spec.nvars
    order = spec.order
    base = degree + order
    poisson = [s.poisson is not None for s in spec.slots for _ in range(s.nvars)]
    pvars = [v for v in range(n) if poisson[v]]
    cvars = [v for v in range(n) if not poisson[v]]
    steps = [base**v for v in pvars]
    entries, lp = _pairing_entries(spec, base)
    top = order - 1
    in_degree = degree + top
    # level k sums state weights (products of k entries of P, over lp^k)
    # times d^alpha p1 d^beta p2, divided by k!; scaled by lp^(top-k)
    # top!/k!, every level is over lp^top top! times the legs' denominators
    scales = [lp ** (top - k) * factorial(top) // factorial(k) for k in range(order)]
    result = {}
    for t1 in f.terms:
        flat1 = _flat(t1.form)
        p1, den1 = _exp_poly(flat1, pvars, base, in_degree)
        c1, cden1 = _exp_poly(flat1, cvars, base, degree)
        d1_cache = {0: p1}
        for t2 in g.terms:
            flat2 = _flat(t2.form)
            p2, den2 = _exp_poly(flat2, pvars, base, in_degree)
            c2, cden2 = _exp_poly(flat2, cvars, base, degree)
            d2_cache = {0: p2}
            comm = _mul_trunc([((1, 0), c1, c2)], degree)
            coeff = t1.coeff * t2.coeff
            bden, bparts = _flatten(coeff.series.coeffs)
            den = lp**top * factorial(top) * den1 * den2 * cden1 * cden2
            state = {(0, 0): (1, 0)}
            levels = {}  # Poisson-leg code -> (degree, {k -> (re, im)} over den)
            for k, s in enumerate(scales):
                products = []
                for (alpha, beta), (wa, wb) in state.items():
                    da = _deriv(d1_cache, alpha, steps, base)
                    if any(da):
                        db = _deriv(d2_cache, beta, steps, base)
                        if any(db):
                            products.append(((wa * s, wb * s), da, db))
                for dp, layer in enumerate(_mul_trunc(products, degree)):
                    for pm, v in layer.items():
                        levels.setdefault(pm, (dp, {}))[1][k] = v
                nxt = {}
                for (alpha, beta), (wa, wb) in state.items():
                    for i, j, (pa, pb) in entries:
                        gauss_mac(nxt, (alpha + i, beta + j), wa, wb, pa, pb)
                state = {k2: v for k2, v in nxt.items() if v[0] or v[1]}
            const_key = t1.form.const_pi + t2.form.const_pi
            for pm, (dp, by_k) in levels.items():
                items = (
                    (pm + cm, dc, v)
                    for dc, layer in enumerate(comm[: degree + 1 - dp])
                    for cm, v in layer.items()
                )
                parts = _convolve(bparts, by_k, dp, order)
                _tail(result, const_key, coeff.unit, bden * den, parts, items, base, n)
    return result


def taylor_expand(f: ExpSum, degree: int):
    """Expand an ExpSum up to total degree ``degree`` into the mapping
    that ``taylor_star_oracle`` returns.

    Each term's coefficient is flattened and sorted once; a monomial of
    degree d with Taylor numerator c scales it by c pi^d in ``_tail``,
    over the product of the two denominators.
    """
    n = f.spec.nvars
    base = degree + 1
    result = {}
    for t in f.terms:
        poly, den = _exp_poly(_flat(t.form), range(n), base, degree)
        cden, cparts = _flatten(t.coeff.series.coeffs)
        parts = sorted(p for p in cparts if p[2] or p[3])
        items = ((code, d, v) for d, layer in enumerate(poly) for code, v in layer.items())
        _tail(result, t.form.const_pi, t.coeff.unit, den * cden, parts, items, base, n)
    return result
