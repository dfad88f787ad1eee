"""Canonical text renderings and the matching parser.

Scalars render as term lists ``(a/b+c/d i)*pi^k*h^j`` joined by ``+``/``-``
with an optional leading circle-constant factor ``u(q)`` (meaning
exp(pi*i*q)).  Exponential sums render as

    <scalar>*E[pi*(<linear combination of named variables>)+pi*<const>]

Variable names come from the slot specification (``v1``, ``v2``, ...;
conjugate-pair slots append ``~`` for the conjugated half).  Rendering is
deterministic, and everything rendered parses back to an equal value
(bit-stable golden forms).

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
"""

from __future__ import annotations

import re
from itertools import islice

from .coeff import (
    CIRCLE_ONE,
    GRAT_I,
    GRAT_ONE,
    GRAT_ZERO,
    PI_ONE,
    CoeffError,
    GRat,
    HbarSeries,
    PiPoly,
    Scalar,
)
from .expalg import VAR_NAME, ExpSum, LinForm, SlotSpec, scalar_add

__all__ = ["scalar_str", "expsum_str", "parse_expsum"]


def _join_signed(parts) -> str:
    out = ""
    for p in parts:
        if not out:
            out = p
        elif p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


# ---------------------------------------------------------------------------
# rendering


def _grat_str(c: GRat, wrap: bool) -> str:
    s = str(c)
    if wrap and (" " in s or "+" in s[1:] or "-" in s[1:]):
        return f"({s})"
    return s


def _series_terms(series: HbarSeries):
    for k, poly in enumerate(series.coeffs):
        for d, c in poly.terms:
            yield k, d, c


def scalar_str(s: Scalar) -> str:
    parts = []
    for k, d, c in _series_terms(s.series):
        factors = []
        cs = _grat_str(c, wrap=True)
        if d:
            factors.append("pi" if d == 1 else f"pi^{d}")
        if k:
            factors.append("h" if k == 1 else f"h^{k}")
        if not factors or cs not in ("1",):
            factors.insert(0, cs)
        parts.append("*".join(factors))
    body = _join_signed(parts) if parts else "0"
    if s.unit.is_one():
        return body
    if body == "1":
        return f"u({s.unit.q})"
    return f"u({s.unit.q})*({body})"


def _linform_str(form: LinForm, spec: SlotSpec) -> str:
    names = spec.var_names()
    flat = [a for slot in form.coeffs for a in slot]
    pieces = []
    for name, c in zip(names, flat):
        if not c:
            continue
        cs = _grat_str(c, wrap=True)
        pieces.append(name if cs == "1" else f"{cs}*{name}")
    if form.const_pi:
        pieces.append(_grat_str(form.const_pi, wrap=True))
    return _join_signed(pieces) if pieces else "0"


def expsum_str(f: ExpSum) -> str:
    if not f.terms:
        return "0"
    out = []
    for t in f.terms:
        coeff = scalar_str(t.coeff)
        if t.form.is_zero():
            out.append(coeff)
            continue
        exp = f"E[pi*({_linform_str(t.form, f.spec)})]"
        if coeff == "1":
            out.append(exp)
        else:
            # a sum of terms is bracketed; "u(q)*(...)" is already a product
            if " + " in coeff or " - " in coeff and t.coeff.unit.is_one():
                coeff = f"({coeff})"
            out.append(f"{coeff}*{exp}")
    return _join_signed(out)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    rf"(?P<num>\d+(?:/\d+)?)|(?P<name>{VAR_NAME.pattern})"
    r"|(?P<sym>[-+*^()\[\]|,])|(?P<bad>\S)"
)
_MINUS_ONE = -GRAT_ONE
_SCALAR = (None, None)  # the key of a term with no variable and a zero form


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise CoeffError(f"cannot tokenize {text[m.start():]!r}")
        out.append((m.lastgroup, m.group()))
    return out


def _gaussian(c: Scalar, pi_degree: int, what: str) -> GRat:
    """g where c is the Gaussian rational g times pi^pi_degree."""
    head, *tail = c.series.coeffs
    if not c.unit.is_one() or any(tail) or any(d != pi_degree for d, _ in head.terms):
        raise CoeffError(f"{what} must be a Gaussian rational{' times pi' * pi_degree}")
    return head.terms[0][1] if head.terms else GRAT_ZERO


def _nonzero(form: LinForm):
    """The form as a key: None for the zero form."""
    return None if form.is_zero() else form


class _Parser:
    """Recursive descent over the grammar of the module docstring.

    Every reader returns a sum: a dict that maps (variable index or None,
    exponent form or None for the zero form) to its ``Scalar``
    coefficient.  Variables are read only inside ``E[...]``.
    """

    def __init__(self, text: str, spec: SlotSpec):
        self.toks = _tokenize(text)
        self.pos = 0
        self.spec = spec
        self.var_index = {n: i for i, n in enumerate(spec.var_names())}
        self.in_exp = False

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if k is None:
            raise CoeffError(f"unexpected end of input (wanted {value or kind or 'more'})")
        if kind and k != kind or value and v != value:
            raise CoeffError(f"unexpected token {v!r} (wanted {value or kind})")
        self.pos += 1
        return v

    def at(self, syms: str) -> bool:
        k, v = self.peek()
        return k == "sym" and v in syms

    def scalar(self, series: dict) -> dict:
        return {_SCALAR: Scalar(CIRCLE_ONE, HbarSeries.of(self.spec.order, series))}

    def sum(self) -> dict:
        """sum := [+|-] product {(+|-) product}"""
        acc = {}
        sign = self.take() if self.at("+-") else "+"
        while True:
            for key, c in self.product().items():
                if sign == "-":
                    c = c.scale(_MINUS_ONE)
                acc[key] = scalar_add(acc[key], c) if key in acc else c
            if not self.at("+-"):
                return acc
            sign = self.take()

    def product(self) -> dict:
        """product := factor {[*] factor}"""
        acc = self.factor()
        while self.pos < len(self.toks) and not self.at("+-)]|,"):
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
        out = {_SCALAR: Scalar.one(self.spec.order)}
        n = int(n)
        while n:
            if n & 1:
                out = self.times(out, base)
            n >>= 1
            if n:
                base = self.times(base, base)
        return out

    def atom(self) -> dict:
        """atom := rational | i | pi | h | u(sum) | E[sum] | variable | (sum)"""
        k, v = self.peek()
        self.take()
        if k == "num":
            return self.scalar({0: PiPoly.const(GRat.parse(v))})
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
            return {(self.var_index[v], None): Scalar.one(self.spec.order)}
        if v == "i":
            return self.scalar({0: PiPoly.const(GRAT_I)})
        if v == "pi":
            return self.scalar({0: PiPoly.pi_power(1)})
        if v == "h":
            return self.scalar({1: PI_ONE})
        if v == "u":
            self.take("sym", "(")
            q = self.number(self.sum(), "u(...)")
            self.take("sym", ")")
            if q.m:
                raise CoeffError("u(...) takes a real rational")
            return {_SCALAR: Scalar.one(self.spec.order).turn(q.n, q.d)}
        if v == "E":
            self.take("sym", "[")
            outer, self.in_exp = self.in_exp, True
            form = self.exponent(self.sum())
            self.in_exp = outer
            self.take("sym", "]")
            return {(None, _nonzero(form)): Scalar.one(self.spec.order)}
        raise CoeffError(f"unknown name {v!r}")

    def coefficient_list(self, first: dict) -> dict:
        """(c, c | c, ...): one coefficient per slot variable, ``,`` between
        the variables of a slot and ``|`` between slots; ``first`` is the
        entry already read."""
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
        """The form of an E[...] body, whose every term is a Gaussian
        rational times one pi."""
        flat = [GRAT_ZERO] * self.spec.nvars
        const = GRAT_ZERO
        for (var, form), c in terms.items():
            if form is not None:
                raise CoeffError("E[...] inside an exponent")
            g = _gaussian(c, 1, "an exponent term")
            if var is None:
                const = g
            else:
                flat[var] = g
        it = iter(flat)
        return LinForm(tuple(tuple(islice(it, s.nvars)) for s in self.spec.slots), const, None)

    def times(self, a: dict, b: dict) -> dict:
        """The product of two sums; a variable meets only constants."""
        out = {}
        for (va, fa), ca in a.items():
            for (vb, fb), cb in b.items():
                if va is not None and vb is not None:
                    raise CoeffError("a product of two variables is not linear")
                form = fa if fb is None else fb if fa is None else _nonzero(fa + fb)
                key = (vb if va is None else va, form)
                c = ca * cb
                out[key] = scalar_add(out[key], c) if key in out else c
        return out


def parse_expsum(text: str, spec: SlotSpec) -> ExpSum:
    p = _Parser(text, spec)
    terms = p.sum()
    if p.pos < len(p.toks):
        raise CoeffError(f"trailing input near token {p.peek()[1]!r}")
    zero = spec.zero_form()
    return ExpSum.make(spec, [(c, form or zero) for (_, form), c in terms.items()])
