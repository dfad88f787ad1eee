"""Canonical text renderings and the matching parser.

Scalars render as term lists ``(a/b+c/d i)*pi^k*h^j`` joined by ``+``/``-``
with an optional leading circle-constant factor ``u(q)`` (meaning
exp(pi*i*q)).  Exponential sums render as

    <scalar>*E[pi*(<linear combination of named variables>)+pi*<const>]

Variable names come from the slot specification (``v1``, ``v2``, ...;
conjugate-pair slots append ``~`` for the conjugated half).  Rendering is
deterministic, and everything rendered parses back to an equal value
(bit-stable golden forms).
"""

from __future__ import annotations

import re

from .coeff import (
    CIRCLE_ONE,
    GRAT_ZERO,
    I_POWERS,
    PI_ONE,
    CoeffError,
    GRat,
    HbarSeries,
    PiPoly,
    Q,
    Scalar,
)
from .expalg import ExpSum, LinForm, SlotSpec, scalar_add

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
            if " + " in coeff:
                coeff = f"({coeff})"
            out.append(f"{coeff}*{exp}")
    return _join_signed(out)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*~?)"
    r"|(?P<sym>[-+*^()\[\]|,]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise CoeffError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup:
            out.append((m.lastgroup, m.group(m.lastgroup)))
    return out


class _Parser:
    def __init__(self, text: str, spec: SlotSpec):
        self.toks = _tokenize(text)
        self.pos = 0
        self.spec = spec
        names = spec.var_names()
        self.var_index = {n: i for i, n in enumerate(names)}

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if kind and k != kind or value and v != value:
            raise CoeffError(f"unexpected token {v!r} (wanted {value or kind})")
        self.pos += 1
        return v

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    # -- scalar-with-exponential grammar --------------------------------

    def parse_sum(self):
        terms = [self.parse_signed_product(allow_lead_sign=True)]
        while True:
            k, v = self.peek()
            if k == "sym" and v in "+-":
                self.take()
                coeff, form = self.parse_product()
                if v == "-":
                    coeff = coeff.scale(GRat.of(-1))
                terms.append((coeff, form))
            else:
                break
        return terms

    def parse_signed_product(self, allow_lead_sign=False):
        k, v = self.peek()
        sign = 1
        if allow_lead_sign and k == "sym" and v in "+-":
            self.take()
            sign = -1 if v == "-" else 1
        coeff, form = self.parse_product()
        if sign < 0:
            coeff = coeff.scale(GRat.of(-1))
        return coeff, form

    def parse_product(self):
        order = self.spec.order
        coeff = Scalar.one(order)
        form = self.spec.zero_form()
        while True:
            k, v = self.peek()
            if k is None or (k == "sym" and v in "+-)]|,"):
                break
            if k == "sym" and v == "*":
                self.take()
                continue
            coeff, form = self._apply_atom(coeff, form)
        return coeff, form

    def _apply_atom(self, coeff: Scalar, form: LinForm):
        order = self.spec.order
        k, v = self.peek()
        if k == "num":
            self.take()
            exp = self._maybe_power()
            coeff = coeff.scale(GRat.of(GRat.parse(v).re ** exp))
            return coeff, form
        if k == "name" and v == "i":
            self.take()
            exp = self._maybe_power()
            g = I_POWERS[exp % 4]
            return coeff.scale(g), form
        if k == "name" and v == "pi":
            self.take()
            exp = self._maybe_power()
            piece = PiPoly.pi_power(exp)
            coeff = coeff * Scalar(CIRCLE_ONE, HbarSeries.of(order, {0: piece}))
            return coeff, form
        if k == "name" and v == "h":
            self.take()
            exp = self._maybe_power()
            if exp >= order:
                coeff = coeff.scale(GRAT_ZERO)
                return coeff, form
            series = HbarSeries.of(order, {exp: PI_ONE})
            coeff = coeff * Scalar(CIRCLE_ONE, series)
            return coeff, form
        if k == "name" and v == "u":
            self.take()
            self.take("sym", "(")
            num = self._signed_rational()
            self.take("sym", ")")
            coeff = coeff.turn(num)
            return coeff, form
        if k == "name" and v == "E":
            self.take()
            self.take("sym", "[")
            form = form + self._parse_exponent()
            self.take("sym", "]")
            return coeff, form
        if k == "sym" and v == "(":
            self.take()
            sub = self.parse_sum()
            self.take("sym", ")")
            exp = self._maybe_power()
            acc = None
            for c2, f2 in sub:
                if not f2.is_zero():
                    raise CoeffError("parenthesized factor must be scalar")
                acc = c2 if acc is None else scalar_add(acc, c2)
            if acc is None:
                acc = Scalar.zero(order)
            powered = Scalar.one(order)
            for _ in range(exp):
                powered = powered * acc
            return coeff * powered, form
        raise CoeffError(f"unexpected token {v!r} in scalar expression")

    def _maybe_power(self) -> int:
        k, v = self.peek()
        if k == "sym" and v == "^":
            self.take()
            return int(self.take("num"))
        return 1

    def _signed_rational(self):
        k, v = self.peek()
        sign = 1
        if k == "sym" and v in "+-":
            self.take()
            sign = -1 if v == "-" else 1
        return GRat.parse(self.take("num")).re * sign

    def _grat_literal(self) -> GRat:
        """(a/b + c/d i) style literal; also plain rationals or i."""
        re_part, im_part = Q(0), Q(0)
        first = True
        while True:
            k, v = self.peek()
            if k == "sym" and v in ")]":
                break
            sign = 1
            if k == "sym" and v in "+-":
                self.take()
                sign = -1 if v == "-" else 1
                k, v = self.peek()
            elif not first:
                break
            if k == "num":
                self.take()
                mag = GRat.parse(v).re
                k2, v2 = self.peek()
                if k2 == "sym" and v2 == "*":
                    # tolerate 1*i
                    k3, v3 = self.toks[self.pos + 1] if self.pos + 1 < len(self.toks) else (None, None)
                    if k3 == "name" and v3 == "i":
                        self.take()
                        k2, v2 = self.peek()
                if k2 == "name" and v2 == "i":
                    self.take()
                    im_part += sign * mag
                else:
                    re_part += sign * mag
            elif k == "name" and v == "i":
                self.take()
                im_part += sign
            else:
                raise CoeffError(f"bad complex literal near {v!r}")
            first = False
        return GRat(re_part, im_part)

    # -- exponent bodies -------------------------------------------------

    def _parse_exponent(self) -> LinForm:
        """Sum of pieces 'pi*<linear>' or 'pi*<rational>' inside E[...]."""
        total = self.spec.zero_form()
        while True:
            k, v = self.peek()
            if k == "sym" and v == "]":
                break
            sign = 1
            if k == "sym" and v in "+-":
                self.take()
                sign = -1 if v == "-" else 1
            self.take("name", "pi")
            self.take("sym", "*")
            piece = self._pi_factor()
            if sign < 0:
                piece = -piece
            total = total + piece
        return total

    def _pi_factor(self) -> LinForm:
        k, v = self.peek()
        if k == "sym" and v == "(":
            self.take()
            inner = self._linear_body()
            self.take("sym", ")")
            return inner
        if k == "num":
            self.take()
            return LinForm(
                self.spec.zero_form().coeffs, GRat.parse(v), None
            )
        if k == "name" and v in self.var_index:
            self.take()
            return self._var_form(v, GRat.of(1))
        raise CoeffError(f"bad exponent piece near {v!r}")

    def _var_form(self, name: str, c: GRat) -> LinForm:
        idx = self.var_index[name]
        flat = [GRAT_ZERO] * self.spec.nvars
        flat[idx] = c
        coeffs = []
        pos = 0
        for s in self.spec.slots:
            coeffs.append(tuple(flat[pos : pos + s.nvars]))
            pos += s.nvars
        return LinForm(tuple(coeffs), GRAT_ZERO, None)

    def _linear_body(self) -> LinForm:
        """Named linear combination or |-separated coefficient vectors."""
        if self._looks_like_vectors():
            return self._vector_body()
        total = self.spec.zero_form()
        first = True
        while True:
            k, v = self.peek()
            if k == "sym" and v == ")":
                break
            sign = 1
            if k == "sym" and v in "+-":
                self.take()
                sign = -1 if v == "-" else 1
            elif not first:
                raise CoeffError("expected + or - in linear form")
            coef = GRat.of(sign)
            k, v = self.peek()
            if k == "num":
                self.take()
                coef = coef * GRat.parse(v)
                k2, v2 = self.peek()
                if k2 == "sym" and v2 == "*":
                    self.take()
                    k, v = self.peek()
                else:
                    total = total + LinForm(
                        self.spec.zero_form().coeffs, coef, None
                    )
                    first = False
                    continue
            elif k == "sym" and v == "(":
                self.take()
                coef = coef * self._grat_literal()
                self.take("sym", ")")
                self.take("sym", "*")
                k, v = self.peek()
            elif k == "name" and v == "i":
                self.take()
                coef = coef * GRat.of(0, 1)
                k2, v2 = self.peek()
                if k2 == "sym" and v2 == "*":
                    self.take()
                    k, v = self.peek()
                else:
                    total = total + LinForm(
                        self.spec.zero_form().coeffs, coef, None
                    )
                    first = False
                    continue
            if k == "name" and v in self.var_index:
                self.take()
                total = total + self._var_form(v, coef)
            else:
                raise CoeffError(f"expected a variable name, got {v!r}")
            first = False
        return total

    def _looks_like_vectors(self) -> bool:
        depth = 0
        for k, v in self.toks[self.pos :]:
            if k == "sym" and v == "(":
                depth += 1
            elif k == "sym" and v == ")":
                if depth == 0:
                    return False
                depth -= 1
            elif k == "sym" and v in ",|" and depth == 0:
                return True
        return False

    def _vector_body(self) -> LinForm:
        coeffs = []
        for si, slot in enumerate(self.spec.slots):
            entries = []
            for vi in range(slot.nvars):
                k, v = self.peek()
                if k == "sym" and v == "(":
                    self.take()
                    entries.append(self._grat_literal())
                    self.take("sym", ")")
                else:
                    sign = 1
                    if k == "sym" and v in "+-":
                        self.take()
                        sign = -1 if v == "-" else 1
                    k2, v2 = self.peek()
                    if k2 == "name" and v2 == "i":
                        self.take()
                        entries.append(GRat.of(0, sign))
                    else:
                        num = self.take("num")
                        k3, v3 = self.peek()
                        if k3 == "name" and v3 == "i":
                            self.take()
                            entries.append(GRat.of(0, GRat.parse(num).re * sign))
                        else:
                            entries.append(GRat.parse(num).scale(sign))
                if vi + 1 < slot.nvars:
                    self.take("sym", ",")
            coeffs.append(tuple(entries))
            if si + 1 < len(self.spec.slots):
                self.take("sym", "|")
        return LinForm(tuple(coeffs), GRAT_ZERO, None)


def parse_expsum(text: str, spec: SlotSpec) -> ExpSum:
    p = _Parser(text, spec)
    terms = p.parse_sum()
    if not p.at_end():
        raise CoeffError(f"trailing input near token {p.peek()[1]!r}")
    return ExpSum.make(spec, terms)
