"""Canonical text renderings and the matching parser.

This module owns the text of every scalar and exponential sum:
``scalar_str`` and ``expsum_str`` are their only renderers (a polynomial
in pi renders as the scalar it is at h^0); ``coeff`` renders only a
Gaussian rational.

Scalars render as term lists ``(a/b+c/d i)*pi^k*h^j`` joined by ``+``/``-``
with an optional leading circle-constant factor ``u(q)`` (meaning
exp(pi*i*q)).  Exponential sums render as

    <scalar>*E[pi*(<linear combination of named variables>)+pi*<const>]

Variable names come from the slot specification (``v1``, ``v2``, ...;
conjugate-pair slots append ``~`` for the conjugated half).  Rendering is
deterministic, and everything rendered parses back to an equal value.

The parser reads one grammar, with the same rules everywhere::

    sum     := [+|-] product {(+|-) product}
    product := factor {[*] factor}
    factor  := atom [^ n]
    atom    := rational | i | pi | h | u(sum) | E[sum] | variable | (sum)

``n`` is a whole number, ``rational`` is ``a`` or ``a/b``, and ``u(q)``
takes a sum that reads as a real rational q.  Variables exist only inside
``E[...]``: there ``i`` and ``pi`` are the constants, any other name the
slots define is a variable, and every term must be a Gaussian rational
times exactly one ``pi``.  Outside ``E[...]`` a parenthesized sum must be
a scalar.  A group whose first entry is followed by ``,`` or ``|`` lists
one Gaussian rational per slot variable, ``,`` between the variables of a
slot and ``|`` between slots: ``E[pi*(1, 2 i | 0)]``.

Each reader evaluates to a sum: a dict from (variable index or None,
exponent form or None for zero) to a coefficient (unit, series), ``unit``
a circle constant of angle in [0, 1/2) and ``series`` a map from
(h-degree < order, pi-degree) to nonzero GRats.  Products convolve terms
and fold the quarter turns of the unit product into them, as ``Scalar.of``
does; sums add like terms with ``expalg.scalar_add``, as for Scalars: a
zero coefficient (an empty map, whatever its unit) leaves the other
term, and two nonzero ones add their maps or, with two units, are
refused.  So ``0*u(1/4) + 1`` reads as 1, and ``u(1/3) + u(1/4) -
u(1/4)`` is refused at its first ``+``.  ``parse_expsum`` builds one
dense ``Scalar(unit, series)`` per term.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import islice

from .coeff import (
    CIRCLE_ONE,
    GRAT_I,
    GRAT_ONE,
    GRAT_ZERO,
    I_POWERS,
    CoeffError,
    GRat,
    HbarSeries,
    PiPoly,
    Scalar,
    _circle,
    _reduced,
)
from .expalg import VAR_NAME, ExpSum, LinForm, SlotSpec, scalar_add

__all__ = ["scalar_str", "expsum_str", "parse_expsum"]


def _join_signed(parts) -> str:
    """The parts joined by " + ", and " - " before a negative one; "0" for none."""
    return " + ".join(parts).replace(" + -", " - ") or "0"


# ---------------------------------------------------------------------------
# rendering


def _grat_str(c: GRat) -> str:
    s = str(c)
    return f"({s})" if " " in s or "+" in s[1:] or "-" in s[1:] else s


def scalar_str(s: Scalar) -> str:
    parts = []
    for k, poly in enumerate(s.series.coeffs):
        for d, c in poly.terms:
            factors = []
            cs = _grat_str(c)
            if d:
                factors.append("pi" if d == 1 else f"pi^{d}")
            if k:
                factors.append("h" if k == 1 else f"h^{k}")
            if not factors or cs != "1":
                factors.insert(0, cs)
            parts.append("*".join(factors))
    body = _join_signed(parts)
    if s.unit.is_one():
        return body
    return f"u({s.unit.q})" if body == "1" else f"u({s.unit.q})*({body})"


def _linform_str(form: LinForm, spec: SlotSpec) -> str:
    flat = [a for slot in form.coeffs for a in slot]
    pieces = [n if c == GRAT_ONE else f"{_grat_str(c)}*{n}" for n, c in zip(spec.var_names(), flat) if c]
    if form.const_pi:
        pieces.append(_grat_str(form.const_pi))
    return _join_signed(pieces)


def expsum_str(f: ExpSum) -> str:
    out = []
    for t in f.terms:
        coeff = scalar_str(t.coeff)
        if not t.form.is_zero():
            exp = f"E[pi*({_linform_str(t.form, f.spec)})]"
            # a sum of terms is bracketed; "u(q)*(...)" is already a product
            if " + " in coeff or " - " in coeff and t.coeff.unit.is_one():
                coeff = f"({coeff})"
            coeff = exp if coeff == "1" else f"{coeff}*{exp}"
        out.append(coeff)
    return _join_signed(out)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    rf"(?P<num>\d+(?:/\d+)?)|(?P<name>{VAR_NAME.pattern})"
    r"|(?P<sym>[-+*^()\[\]|,])|(?P<bad>\S)"
)


class _Terms(dict):
    """{(h-degree, pi-degree): nonzero GRat}; ``+`` adds like monomials."""

    def __add__(self, other):
        out = _Terms(self)
        for m, g in other.items():
            out[m] = g = out[m] + g if m in out else g
            if not g:
                del out[m]
        return out


# a coefficient of a sum; ``scalar_add`` adds two like ones
_Coeff = namedtuple("_Coeff", "unit series")
_SCALAR = (None, None)  # the key of a term with no variable and a zero form
_ONE = _Coeff(CIRCLE_ONE, _Terms({(0, 0): GRAT_ONE}))  # the coefficient 1
_CONSTANTS = {"i": ((0, 0), GRAT_I), "pi": ((0, 1), GRAT_ONE), "h": ((1, 0), GRAT_ONE)}


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise CoeffError(f"cannot tokenize {text[m.start():]!r}")
        out.append((m.lastgroup, m.group()))
    out.append((None, None))  # the end of input
    return out


def _gaussian(c, pi_degree: int, what: str) -> GRat:
    """g where the coefficient c is the Gaussian rational g times pi^pi_degree."""
    if c.unit.n or any(m != (0, pi_degree) for m in c.series):
        raise CoeffError(f"{what} must be a Gaussian rational{' times pi' * pi_degree}")
    return c.series.get((0, pi_degree), GRAT_ZERO)


def _times(order: int, a, b):
    """The product of two coefficients (see the module docstring)."""
    (ua, ta), (ub, tb) = a, b
    turn, unit = (ua * ub).quarter_turns() if ua.n and ub.n else (0, ua if ua.n else ub)
    terms = _Terms()
    for (ka, pa), ga in ta.items():
        for (kb, pb), gb in tb.items():
            if ka + kb < order:
                m, g = (ka + kb, pa + pb), ga * gb
                terms[m] = terms[m] + g if m in terms else g
    if turn or len(ta) > 1 and len(tb) > 1:  # else no zero and nothing to fold
        terms = _Terms({m: g * I_POWERS[turn] for m, g in terms.items() if g})
    return _Coeff(unit, terms)


def _nonzero(form: LinForm):
    """The form as a key: None for the zero form."""
    return None if form.is_zero() else form


class _Parser:
    """Recursive descent over the grammar of the module docstring; every
    reader returns a sum.  Variables are read only inside ``E[...]``."""

    def __init__(self, text: str, spec: SlotSpec):
        self.toks, self.pos = _tokenize(text), 0
        self.spec = spec
        self.var_index = {n: i for i, n in enumerate(spec.var_names())}
        self.in_exp = False

    def take(self, kind=None, value=None):
        k, v = self.toks[self.pos]
        if k is None:
            raise CoeffError(f"unexpected end of input (wanted {value or kind or 'more'})")
        if kind and k != kind or value and v != value:
            raise CoeffError(f"unexpected token {v!r} (wanted {value or kind})")
        self.pos += 1
        return v

    def at(self, syms: str) -> bool:
        k, v = self.toks[self.pos]
        return k == "sym" and v in syms

    def sum(self) -> dict:
        """sum := [+|-] product {(+|-) product}"""
        acc = {}
        sign = self.take() if self.at("+-") else "+"
        while True:
            for key, c in self.product().items():
                if sign == "-":
                    c = _Coeff(c.unit, _Terms({m: -g for m, g in c.series.items()}))
                acc[key] = scalar_add(acc[key], c) if key in acc else c
            if not self.at("+-"):
                return acc
            sign = self.take()

    def product(self) -> dict:
        """product := factor {[*] factor}"""
        acc = self.factor()
        while self.toks[self.pos][0] and not self.at("+-)]|,"):
            if self.at("*"):
                self.take()
            acc = self.times(acc, self.factor())
        return acc

    def factor(self) -> dict:
        """factor := atom [^ n], with n a whole number (by squaring)"""
        base = self.atom()
        if not self.at("^"):
            return base
        self.take()
        n = self.take("num")
        if not n.isdigit():
            raise CoeffError(f"power {n!r} is not a whole number")
        out, n = {_SCALAR: _ONE}, int(n)
        while n:
            if n & 1:
                out = self.times(out, base)
            n >>= 1
            if n:
                base = self.times(base, base)
        return out

    def atom(self) -> dict:
        """atom := rational | i | pi | h | u(sum) | E[sum] | variable | (sum)"""
        k, v = self.toks[self.pos]
        self.take()
        if k == "num":
            n, _, d = v.partition("/")
            d = int(d or 1)
            if not d:
                raise CoeffError(f"zero denominator in {v!r}")
            g = _reduced(int(n), 0, d)
            return {_SCALAR: _Coeff(CIRCLE_ONE, _Terms({(0, 0): g} if g else {}))}
        if v == "(":
            group = self.sum()
            if self.at(",|"):
                group = self.coefficient_list(group)
            self.take("sym", ")")
            if not self.in_exp and list(group) != [_SCALAR]:
                raise CoeffError("parenthesized factor must be scalar")
            return group
        if k != "name":
            raise CoeffError(f"unexpected token {v!r}")
        if self.in_exp and v in self.var_index:  # never i or pi (SlotSpec)
            return {(self.var_index[v], None): _ONE}
        if v in _CONSTANTS:
            m, g = _CONSTANTS[v]
            return {_SCALAR: _Coeff(CIRCLE_ONE, _Terms({m: g} if m[0] < self.spec.order else {}))}
        if v == "u":
            self.take("sym", "(")
            q = self.number(self.sum(), "u(...)")
            self.take("sym", ")")
            if q.m:
                raise CoeffError("u(...) takes a real rational")
            k, unit = _circle(q.n, q.d).quarter_turns()
            return {_SCALAR: _Coeff(unit, _Terms({(0, 0): I_POWERS[k]}))}
        if v == "E":
            self.take("sym", "[")
            outer, self.in_exp = self.in_exp, True
            form = self.exponent(self.sum())
            self.in_exp = outer
            self.take("sym", "]")
            return {(None, _nonzero(form)): _ONE}
        raise CoeffError(f"unknown name {v!r}")

    def coefficient_list(self, first: dict) -> dict:
        """(c, c | c, ...), one coefficient per slot variable, after ``first``."""
        out, entry = {}, first
        for slot in self.spec.slots:
            for vi in range(slot.nvars):
                if out:
                    self.take("sym", "," if vi else "|")
                    entry = self.sum()
                self.number(entry, "a coefficient")
                out[(len(out), None)] = entry[_SCALAR]
        return out

    def number(self, terms: dict, what: str) -> GRat:
        if list(terms) != [_SCALAR]:
            raise CoeffError(f"{what} must be a number")
        return _gaussian(terms[_SCALAR], 0, what)

    def exponent(self, terms: dict) -> LinForm:
        """The form of an E[...] body: a Gaussian rational times pi per term."""
        flat = [GRAT_ZERO] * (self.spec.nvars + 1)  # the constant last
        for (var, form), c in terms.items():
            if form is not None:
                raise CoeffError("E[...] inside an exponent")
            flat[-1 if var is None else var] = _gaussian(c, 1, "an exponent term")
        it = iter(flat)
        return LinForm(tuple(tuple(islice(it, s.nvars)) for s in self.spec.slots), flat[-1], None)

    def times(self, a: dict, b: dict) -> dict:
        """The product of two sums; a variable meets only constants."""
        out = {}
        for (va, fa), ca in a.items():
            for (vb, fb), cb in b.items():
                if va is not None and vb is not None:
                    raise CoeffError("a product of two variables is not linear")
                form = fa if fb is None else fb if fa is None else _nonzero(fa + fb)
                key = (vb if va is None else va, form)
                c = _times(self.spec.order, ca, cb)
                out[key] = scalar_add(out[key], c) if key in out else c
        return out


def parse_expsum(text: str, spec: SlotSpec) -> ExpSum:
    p, order = _Parser(text, spec), spec.order
    terms = p.sum()
    if p.toks[p.pos][0]:
        raise CoeffError(f"trailing input near token {p.toks[p.pos][1]!r}")
    pairs = []
    for (_, form), (unit, monomials) in terms.items():
        # h-level k: the monomials (k, d)
        levels = [PiPoly.of({d: g for (j, d), g in monomials.items() if j == k}) for k in range(order)]
        pairs.append((Scalar(unit, HbarSeries(order, tuple(levels))), form or spec.zero_form()))
    return ExpSum.make(spec, pairs)
