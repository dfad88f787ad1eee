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

The commutative leg is factored out of the per-monomial tail, and the
h-profile of the Poisson leg is canonicalized.  Each Poisson-leg
monomial's h-levels, all over one denominator, have a lowest nonzero
level v at h^kL; times conj(v), divided by the gcd of their integer
parts, with h-degrees taken from kL, they are the monomial's primitive
profile.  A term pair keeps a local dict from (kL, primitive profile) to
the shape of its flattened coefficient B times that profile
(``_convolve``, then ``_shape``), so each distinct profile is convolved
and normalized once per pair.  The levels are a Gaussian-rational
multiple of the profile, so the monomial's coefficient has that shape;
its K0 is B's lowest key plus (kL, dp + 2 kL), at pi-degree dp of the
monomial, and its entry there is B's lowest entry times v, since (k, p)
lex is a monomial order and Z[i] has no zero divisors.  The key is the
exact profile: a monomial whose levels are not proportional to another's
gets its own convolution, so the oracle never assumes the proportionality
of the closed form it checks.  Each commutative monomial then multiplies
the coefficient by its Gaussian integer and shifts every pi-degree by its
total degree, which changes only the lead and K0 (``_tail``);
``taylor_expand`` runs the same tail on each term's coefficient.
Exponent tuples are decoded only when a monomial is written out.

Results are reported as a two-level mapping

    {symbolic-pi constant -> {monomial -> (unit, K0, lead, shape)}}

keyed first by the residual real pi-constant of the exponents, a real
``GRat`` (which no derivative ever touches), so that a star-product
output can be expanded with ``taylor_expand`` and compared for exact
equality.  A monomial is its exponent tuple.  Its coefficient C is
unit * sum of C[(k, p)] h^k pi^p, held in projective form: ``unit`` is
the canonical ``CircleConst`` of the term's coefficient, K0 = (k0, p0)
the smallest key with C[K0] != 0, ``lead`` = (d, (re, im)) the reduced
C[K0] = (re + im i) / d with d > 0, and ``shape`` = (sd, parts) the
reduced C / C[K0]: ``parts`` holds the ``((k - k0, p - p0), (re, im))``
entries over sd > 0, sorted, with no zero entry and gcd(sd, every
numerator) = 1, so its first entry is ((0, 0), (sd, 0)).  The form is
canonical: C determines K0, C[K0] and C / C[K0], and each Gaussian
rational, or list of them, has one reduced form over the lcm of their
denominators.  So two coefficients are equal exactly when their forms
are.  The monomials of one term pair's profile, or of one term in
``taylor_expand``, share one shape object.  A zero coefficient has no
entry.
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


def _lead(re, im, den):
    """The reduced (d, (re, im)) of (re + im i) / den, d > 0."""
    g = gcd(den, re, im)
    return den // g, (re // g, im // g)


def _shape(parts):
    """The canonical (sd, parts relative to K0) of parts / parts[0], for
    sorted (k, p, re, im) ``parts`` with no zero entry.  The quotient by
    (r0 + i0 i) is the product with (r0 - i0 i) over r0^2 + i0^2, so the
    first entry is ((0, 0), (sd, 0)) once the gcd is divided out."""
    k0, p0, r0, i0 = parts[0]
    rel = [(k - k0, p - p0, re * r0 + im * i0, im * r0 - re * i0) for k, p, re, im in parts]
    g = gcd(r0 * r0 + i0 * i0, *[x for *_, re, im in rel for x in (re, im)])
    return rel[0][2] // g, tuple(((k, p), (re // g, im // g)) for k, p, re, im in rel)


def _form(unit, den, acc):
    """The canonical (unit, K0, lead, shape) of unit * sum of acc[(k, p)]
    h^k pi^p over den, or None for zero: K0 is the smallest key with a
    nonzero entry, lead the reduced entry there, and shape the rest
    divided by it (``_shape``)."""
    parts = sorted((k, p, re, im) for (k, p), (re, im) in acc.items() if re or im)
    if not parts:
        return None
    k0, p0, re, im = parts[0]
    return unit, (k0, p0), _lead(re, im, den), _shape(parts)


def _accumulate(bucket, mono, form):
    """Add a monomial's form into ``bucket``.  A collision materializes
    both forms, adds them over the lcm of their denominators and
    renormalizes; a sum that cancels drops the monomial.  Forms are
    canonical, so differing units differ as circle constants and their
    sum leaves the representable class."""
    old = bucket.get(mono)
    if old is None:
        bucket[mono] = form
        return
    unit = old[0]
    if form[0] != unit:
        raise CoeffError(
            "sum of scalars with incompatible circle constants is not representable"
        )
    den = lcm(*[d * sd for _, _, (d, _), (sd, _) in (old, form)])
    acc = {}
    for _, (k0, p0), (d, (a, b)), (sd, parts) in (old, form):
        s = den // (d * sd)
        for (k, p), (re, im) in parts:
            gauss_mac(acc, (k0 + k, p0 + p), a * s, b * s, re, im)
    total = _form(unit, den, acc)
    if total is None:
        del bucket[mono]
    else:
        bucket[mono] = total


def _convolve(bparts, profile, order: int):
    """Sorted nonzero (k, p, re, im) of the coefficient parts ``bparts``
    times the sum of re + im i times h^k pi^(2k) over the (k, re, im) of
    ``profile``, modulo h^order.  ``bparts`` runs in increasing h-degree
    (see ``_parts``)."""
    acc = {}
    for k, re, im in profile:
        for kb, pb, br, bi in bparts:
            if kb + k >= order:
                break
            gauss_mac(acc, (kb + k, pb + 2 * k), br, bi, re, im)
    return sorted((k, p, re, im) for (k, p), (re, im) in acc.items() if re or im)


def _parts(series):
    """(den, parts) of a series' coefficients (``_flatten``), zero entries
    dropped and sorted, so parts[0] is the lowest key's entry."""
    den, parts = _flatten(series.coeffs)
    return den, sorted(p for p in parts if p[2] or p[3])


def _tail(result, const_key, unit, den, first, shape, items, base: int, n: int):
    """Write unit * (c + e i) pi^d * C over den into ``result`` for each
    ``(code, d, (c, e))`` of ``items``, for the coefficient C with the
    first entry ``first`` = (k0, p0, r0, i0), its lowest key and the
    Gaussian integer there, and the canonical ``shape`` (``_shape``).

    A nonzero Gaussian integer times pi^d scales every entry alike and
    shifts every key by (0, d), so all the monomials share the one shape.
    A monomial's own form is its lead, (c + e i) times r0 + i0 i over den
    with one gcd, and K0 shifted by d."""
    k0, p0, r0, i0 = first
    powers = [base**g for g in range(n)]
    bucket = result.setdefault(const_key, {})
    for code, d, (c, e) in items:
        lead = _lead(c * r0 - e * i0, c * i0 + e * r0, den)
        mono = tuple([code // s % base for s in powers])
        _accumulate(bucket, mono, (unit, (k0, p0 + d), lead, shape))


def _flat(form):
    return [a for s in form.coeffs for a in s]


def taylor_star_oracle(f: ExpSum, g: ExpSum, degree: int):
    """Moyal product via explicit polynomial differentiation.

    Used only as an independent cross-check of ``ExpSum.star``; agreement
    is through h^(order-1) and total degree ``degree``.  Returns
    {real pi-constant -> {monomial -> (unit, K0, lead, shape)}}, the
    projective forms of the module docstring.  Per term pair the
    coefficient product is flattened once, and a dict local to the pair
    maps each distinct (kL, primitive profile) of the Poisson-leg
    monomials' h-levels to the shape of the coefficient times that
    profile, convolved and normalized once.  Per Poisson-leg monomial the
    oracle computes its profile and its first entry; per output monomial
    ``_tail`` computes the lead alone.  The memo is dropped with its pair
    and keyed by the exact profile, so two monomials share a shape because
    their levels are proportional, never because the closed form says so.
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
            coeff = t1.coeff * t2.coeff
            bden, bparts = _parts(coeff.series)
            if not bparts:
                continue
            kb0, pb0, br0, bi0 = bparts[0]
            flat2 = _flat(t2.form)
            p2, den2 = _exp_poly(flat2, pvars, base, in_degree)
            c2, cden2 = _exp_poly(flat2, cvars, base, degree)
            d2_cache = {0: p2}
            comm = _mul_trunc([((1, 0), c1, c2)], degree)
            den = bden * lp**top * factorial(top) * den1 * den2 * cden1 * cden2
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
            shapes = {}  # (kL, primitive profile) -> shape of bparts times it
            for pm, (dp, by_k) in levels.items():
                # levels are filled in increasing k: the first is the lowest
                kl, (vr, vi) = next(iter(by_k.items()))
                if kb0 + kl >= order:
                    continue
                profile = [(k - kl, re * vr + im * vi, im * vr - re * vi) for k, (re, im) in by_k.items()]
                div = gcd(*[x for _, re, im in profile for x in (re, im)])
                key = (kl, tuple([(k, re // div, im // div) for k, re, im in profile]))
                shape = shapes.get(key)
                if shape is None:
                    shape = shapes[key] = _shape(_convolve(bparts, key[1], order - kl))
                items = (
                    (pm + cm, dc, v)
                    for dc, layer in enumerate(comm[: degree + 1 - dp])
                    for cm, v in layer.items()
                )
                first = (kb0 + kl, pb0 + dp + 2 * kl, br0 * vr - bi0 * vi, br0 * vi + bi0 * vr)
                _tail(result, const_key, coeff.unit, den, first, shape, items, base, n)
    return result


def taylor_expand(f: ExpSum, degree: int):
    """Expand an ExpSum up to total degree ``degree`` into the mapping
    that ``taylor_star_oracle`` returns.

    Each term's coefficient is flattened, sorted and normalized to one
    shape once; a monomial of degree d with Taylor numerator c has the
    lead c times the coefficient's first entry, over the product of the
    two denominators, at K0 shifted by pi^d (``_tail``).
    """
    n = f.spec.nvars
    base = degree + 1
    result = {}
    for t in f.terms:
        cden, parts = _parts(t.coeff.series)
        if not parts:
            continue
        poly, den = _exp_poly(_flat(t.form), range(n), base, degree)
        items = ((code, d, v) for d, layer in enumerate(poly) for code, v in layer.items())
        _tail(result, t.form.const_pi, t.coeff.unit, den * cden, parts[0], _shape(parts), items, base, n)
    return result
