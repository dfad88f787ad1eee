"""Exact scalar tower.

Everything downstream computes in the commutative ring

    Scalar = CircleConst * (truncated power series in h with coefficients
             in Q(i)[pi])

where pi is a formal transcendental symbol and h is the deformation
parameter, truncated at a fixed order N.  All arithmetic is exact; there
is no floating point anywhere in the package.

At the bottom of the tower a Gaussian rational (``GRat``) is one
canonical integer triple (n, m, d), the value (n + m i)/d with d > 0 and
gcd(n, m, d) = 1.  The triples of one value are the nonzero multiples of
a single primitive one, and the two conditions pick that one out; so
equality, hashing and the zero test compare integers, and every
arithmetic result is reduced by one gcd.  A circle constant
(``CircleConst``) is likewise one canonical integer pair (n, d), the
angle n/d mod 2.  ``Q`` (``fractions.Fraction``) remains the type of the
linear algebra and of the read-only ``re``/``im`` and ``q`` views.

Units of the series ring decompose as a_0 * exp(a_1 h + a_2 h^2 + ...);
`exp_decompose` computes that decomposition and `series_exp`/`series_log`
are the two directions of the bijection it rests on.

A ``Scalar`` holds one of two canonical forms:

- dense: ``Scalar(unit, series)``, the unit's angle in [0, 1/2), its
  quarter turns folded into the series (by ``Scalar.of``);
- log form: unit * mag * exp(log), the same unit, ``mag`` the h^0
  coefficient (nonzero, free of pi, quarter turns folded in) and ``log``
  a nonzero h-divisible series or None for 0.

The deformation data enter as exponentials of h-divisible series (the
Moyal correction and the Heisenberg cocycle through `exp_hpi2`, the
l-fold through ``Scalar.exp``), and circle constants and 1 are log forms
too (``one``, ``from_circle``, and ``turn`` and ``scale`` of a log
form), so their products add logs and their inverses negate them.  The
rules:

- a product of two log forms is a log form: magnitudes multiply, logs
  add, and the quarter turns of the unit product go into the magnitude;
- ``inverse`` is a log form with the log negated; a dense scalar is
  decomposed first, by ``series_log``, and stays dense.  The inverse is
  computed on the first call and kept in a slot; it keeps no reference
  back to the scalar it inverts;
- a product with a dense operand materializes the log side (its series,
  cached on the object: closed form for a log of one h^1 monomial,
  ``series_exp`` otherwise) and is dense, so ``scalar_add``, rendering
  and the Taylor oracle keep the dense path; the text parser builds each
  term's scalar once, dense, with no product;
- a dense zero has unit 1, whatever unit the value it came from had,
  and ``expalg.scalar_add`` owns what that means for a sum: a zero
  operand returns the other operand;
- a product with an exact one (the log form of unit 1, mag 1 and log 0,
  as ``one`` makes it) is the other operand itself, so a chain of
  products by 1 hands on one object;
- ``==`` is true on identity; otherwise it compares (unit, mag, log) when
  both sides are log forms and (unit, series) otherwise;
- ``hash`` reads (order, unit, h^0 coefficient, h^1 coefficient over the
  h^0 coefficient), which both forms hold: in log form mag and the h^1
  coefficient of the log.  So 1, 1 + h and (1 + h)^2 hash apart.  It is
  computed once per scalar and kept in a slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from math import gcd, lcm

__all__ = [
    "Q",
    "cmul",
    "gauss_mac",
    "over_lcd",
    "GRat",
    "combine",
    "bilinear",
    "exp_hpi2",
    "PiPoly",
    "HbarSeries",
    "CircleConst",
    "Scalar",
    "UnitDecomposition",
    "CoeffError",
    "OrderMismatch",
    "NotInvertible",
    "NotRepresentable",
    "series_exp",
    "series_log",
    "exp_decompose",
    "GRAT_ZERO",
    "GRAT_ONE",
    "GRAT_I",
    "I_POWERS",
    "PI_ZERO",
    "PI_ONE",
    "CIRCLE_ONE",
]


class CoeffError(ValueError):
    """Base class for scalar-tower errors."""


class OrderMismatch(CoeffError):
    """Arithmetic between series of different truncation orders."""


class NotInvertible(CoeffError):
    """Inversion of a non-unit."""


class NotRepresentable(CoeffError):
    """Operation leaves the exactly representable class."""


def _rat(x):
    """An int, a Q, or a string parsed as a Q; a zero denominator in a
    string is a ``CoeffError``."""
    if isinstance(x, str):
        try:
            return Q(x)  # a string may carry one sign and surrounding spaces
        except ZeroDivisionError:
            raise CoeffError(f"zero denominator in {x!r}") from None
    return x


# ---------------------------------------------------------------------------
# Gaussian rationals


_new = object.__new__


def _grat(n, m, d):
    """The GRat (n + m i)/d of an already canonical triple."""
    g = _new(GRat)
    g.n = n
    g.m = m
    g.d = d
    return g


def _reduced(n, m, d):
    """The GRat (n + m i)/d for integers n, m and d > 0, reduced by one
    gcd; a zero value comes out as (0, 0, 1)."""
    if d != 1:
        g = gcd(n, m, d)
        if g != 1:
            return _grat(n // g, m // g, d // g)
    return _grat(n, m, d)


def cmul(x, y):
    """x * y for Gaussian rationals x and y.

    The one complex-product kernel: one Gaussian-integer product of the
    numerators over the product of the denominators, reduced by one gcd.
    A zero imaginary part on either side skips the products it would
    zero.
    """
    a, b, p = x.n, x.m, x.d
    c, e, q = y.n, y.m, y.d
    if not e:
        if not c:
            return GRAT_ZERO
        n, m = a * c, b * c
    elif not b:
        if not a:
            return GRAT_ZERO
        n, m = a * c, a * e
    else:
        n, m = a * c - b * e, a * e + b * c
    return _reduced(n, m, p * q)


class GRat:
    """A Gaussian rational (n + m i)/d, stored as the canonical integer
    triple with d > 0 and gcd(n, m, d) = 1.

    The integer triples of one value are the nonzero multiples k(n, m, d)
    of a single primitive one; d > 0 and gcd(n, m, d) = 1 pick it out, so
    equal values have equal fields, and ``==``, ``hash`` and ``bool``
    compare integers.  Zero is (0, 0, 1).  Arithmetic works on the
    integers and reduces each result by one gcd; ``re`` and ``im`` are
    read-only ``Q`` views of the two parts.

    A plain slots class rather than a dataclass: these are created in
    bulk on every arithmetic path.  Treat instances as immutable.
    """

    __slots__ = ("n", "m", "d")

    def __init__(self, re, im):
        rn, rd = re.numerator, re.denominator
        jn, jd = im.numerator, im.denominator
        if rd == jd:
            self.n, self.m, self.d = rn, jn, rd
        else:
            # over lcm(rd, jd) a prime's full power in d comes from one
            # part's reduced denominator, and that part's numerator is
            # prime to it: the triple is canonical
            d = lcm(rd, jd)
            self.n, self.m, self.d = rn * (d // rd), jn * (d // jd), d

    @property
    def re(self) -> Q:
        return Q(self.n, self.d)

    @property
    def im(self) -> Q:
        return Q(self.m, self.d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GRat)
            and self.n == other.n
            and self.m == other.m
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.n, self.m, self.d))

    def __repr__(self):
        return f"GRat({self.re!r}, {self.im!r})"

    @staticmethod
    def of(re, im=0) -> "GRat":
        return GRat(_rat(re), _rat(im))

    def __add__(self, other: "GRat") -> "GRat":
        c, e, q = other.n, other.m, other.d
        if not (c or e):
            return self
        a, b, p = self.n, self.m, self.d
        if not (a or b):
            return other
        if p == q:
            return _reduced(a + c, b + e, p)
        g = gcd(p, q)
        s, t = q // g, p // g
        return _reduced(a * s + c * t, b * s + e * t, p * s)

    def __sub__(self, other: "GRat") -> "GRat":
        return self + (-other)

    def __neg__(self) -> "GRat":
        return _grat(-self.n, -self.m, self.d)

    def __mul__(self, other: "GRat") -> "GRat":
        return cmul(self, other)

    def scale(self, q) -> "GRat":
        """self * q for a rational q."""
        q = _rat(q)
        return _reduced(self.n * q.numerator, self.m * q.numerator, self.d * q.denominator)

    def inverse(self) -> "GRat":
        n, m, d = self.n, self.m, self.d
        norm = n * n + m * m
        if not norm:
            raise NotInvertible("division by zero Gaussian rational")
        return _reduced(n * d, -m * d, norm)

    def __truediv__(self, other: "GRat") -> "GRat":
        return self * other.inverse()

    def conj(self) -> "GRat":
        return _grat(self.n, -self.m, self.d)

    def __bool__(self) -> bool:
        return bool(self.n or self.m)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im} i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)} i"

    @staticmethod
    def parse(text: str) -> "GRat":
        """Parse 'a/b', 'c/d i', or 'a/b+c/d i' (also with '-').  A zero
        denominator is a ``CoeffError``."""
        s = text.strip().replace(" ", "")
        if not s:
            raise CoeffError("empty Gaussian rational literal")
        if s.endswith("i"):
            body = s[:-1]
            # split at the last +/- that is not the leading sign
            for k in range(len(body) - 1, 0, -1):
                if body[k] in "+-" and body[k - 1] not in "+-/":
                    re_part, im_part = body[:k], body[k:]
                    im_part = im_part.rstrip("*")
                    if im_part in ("+", "-"):
                        im_part += "1"
                    return GRat.of(re_part, im_part)
            body = body.rstrip("*")
            if body in ("", "+"):
                body = "1"
            elif body == "-":
                body = "-1"
            return GRat.of(0, body)
        return GRat.of(s)


def combine(coeffs, vectors) -> tuple:
    """sum_k coeffs[k] * vectors[k] for rational coeffs and GRat vectors.

    The one integer-combination kernel behind the lattice and dual-lattice
    vectors.  Each entry is summed on Gaussian-integer numerators over a
    running least common denominator and reduced once, by one gcd.
    """
    sums = [[0, 0, 1] for _ in vectors[0]]
    for c, vec in zip(coeffs, vectors):
        if not c:
            continue
        cn, cd = c.numerator, c.denominator
        for acc, x in zip(sums, vec):
            if not (x.n or x.m):
                continue
            d = cd * x.d
            den = acc[2]
            if d == den:
                acc[0] += cn * x.n
                acc[1] += cn * x.m
            else:
                g = gcd(den, d)
                s, t = d // g, den // g
                acc[0] = acc[0] * s + cn * x.n * t
                acc[1] = acc[1] * s + cn * x.m * t
                acc[2] = den * s
    return tuple(_reduced(n, m, d) for n, m, d in sums)


def bilinear(matrix, x, y) -> GRat:
    """sum_ij x_i matrix[i][j] y_j over GRat, skipping zero entries.

    The one bilinear contraction: the Poisson pairing of the star
    product, the B-field, Hermitian forms, the quantization obstruction
    and the transported bivector of ``fm_hh2`` are all this sum, with
    their vectors conjugated where the form is conjugate-linear.
    """
    acc = GRAT_ZERO
    for a, row in zip(x, matrix):
        if not a:
            continue
        for m, b in zip(row, y):
            if m and b:
                acc = acc + a * m * b
    return acc


GRAT_ZERO = _grat(0, 0, 1)
GRAT_ONE = _grat(1, 0, 1)
GRAT_I = _grat(0, 1, 1)

I_POWERS = (GRAT_ONE, GRAT_I, -GRAT_ONE, -GRAT_I)  # i^k for k = 0..3


# ---------------------------------------------------------------------------
# Polynomials in the formal symbol pi


class PiPoly:
    """Polynomial in pi with GRat coefficients, sparse and normalized."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms  # ((degree, GRat), ...) sorted by degree, no zeros

    def __eq__(self, other) -> bool:
        return isinstance(other, PiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"PiPoly({self.terms!r})"

    @staticmethod
    def of(coeffs: dict) -> "PiPoly":
        items = tuple(sorted((d, c) for d, c in coeffs.items() if c))
        return PiPoly(items)

    @staticmethod
    def const(c: GRat) -> "PiPoly":
        return PiPoly(((0, c),)) if c else PI_ZERO

    @staticmethod
    def pi_power(k: int, c: GRat = GRAT_ONE) -> "PiPoly":
        return PiPoly(((k, c),)) if c else PI_ZERO

    def __add__(self, other: "PiPoly") -> "PiPoly":
        """The sorted merge; one monomial on each side at one degree, such
        as the h^1 levels of two ``exp_hpi2`` logs, is one GRat sum."""
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            s = a[0][1] + b[0][1]
            return PiPoly(((a[0][0], s),)) if s else PI_ZERO
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            da, ca = a[i]
            db, cb = b[j]
            if da < db:
                out.append(a[i])
                i += 1
            elif db < da:
                out.append(b[j])
                j += 1
            else:
                s = ca + cb
                if s:
                    out.append((da, s))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return PiPoly(tuple(out))

    def __neg__(self) -> "PiPoly":
        return PiPoly(tuple((d, -c) for d, c in self.terms))

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        return self + (-other)

    def __mul__(self, other: "PiPoly") -> "PiPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return PI_ZERO
        acc: dict = {}
        for d1, c1 in a:
            for d2, c2 in b:
                d = d1 + d2
                p = c1 * c2
                s = acc.get(d)
                acc[d] = p if s is None else s + p
        return PiPoly.of(acc)

    def scale(self, c: GRat) -> "PiPoly":
        if not c:
            return PI_ZERO
        return PiPoly(tuple((d, x * c) for d, x in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_part(self) -> GRat:
        for d, c in self.terms:
            if d == 0:
                return c
        return GRAT_ZERO

    def is_const(self) -> bool:
        return all(d == 0 for d, _ in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for d, c in self.terms:
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or cs.endswith("i"):
                cs = f"({cs})"
            if d == 0:
                out.append(cs)
            else:
                p = "pi" if d == 1 else f"pi^{d}"
                out.append(p if cs == "1" else f"{cs}*{p}")
        return " + ".join(out).replace("+ -", "- ")


PI_ZERO = PiPoly(())
PI_ONE = PiPoly(((0, GRAT_ONE),))


def gauss_mac(acc, key, a, b, c, d):
    """acc[key] += (a + b i)(c + d i), on Gaussian integers."""
    re = a * c - b * d
    im = a * d + b * c
    old = acc.get(key)
    acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)


def over_lcd(grats):
    """(lcd, nums) of a list of GRats: nums holds each one's (re, im)
    integer numerators over lcd, the lcm of every denominator."""
    lcd = lcm(*(x.d for x in grats))
    return lcd, [(x.n * (lcd // x.d), x.m * (lcd // x.d)) for x in grats]


def _flatten(coeffs):
    """(den, parts) of a series' coefficients: parts lists (h-degree,
    pi-degree, re, im) in increasing h-degree, with integer re and im
    over den (see ``over_lcd``)."""
    keys = [(k, p) for k, a in enumerate(coeffs) for p, _ in a.terms]
    den, nums = over_lcd([c for a in coeffs for _, c in a.terms])
    return den, [(k, p, re, im) for (k, p), (re, im) in zip(keys, nums)]


# ---------------------------------------------------------------------------
# Truncated series in the deformation parameter


class HbarSeries:
    """Power series in h modulo h^order, coefficients in Q(i)[pi]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = coeffs  # tuple[PiPoly], length == order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HbarSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"HbarSeries({self.order}, {self.coeffs!r})"

    @staticmethod
    def of(order: int, coeffs: dict) -> "HbarSeries":
        if order < 1:
            raise CoeffError("truncation order must be >= 1")
        return HbarSeries(
            order, tuple(coeffs.get(k, PI_ZERO) for k in range(order))
        )

    @staticmethod
    def one(order: int) -> "HbarSeries":
        return HbarSeries.of(order, {0: PI_ONE})

    @staticmethod
    def zero(order: int) -> "HbarSeries":
        return HbarSeries.of(order, {})

    def _check(self, other: "HbarSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(
                f"truncation orders differ: {self.order} != {other.order}"
            )

    def __add__(self, other: "HbarSeries") -> "HbarSeries":
        self._check(other)
        return HbarSeries(self.order, tuple(map(PiPoly.__add__, self.coeffs, other.coeffs)))

    def __neg__(self) -> "HbarSeries":
        return HbarSeries(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "HbarSeries") -> "HbarSeries":
        return self + (-other)

    def __mul__(self, other: "HbarSeries") -> "HbarSeries":
        """The dense series product, on Gaussian-integer numerators.

        An operand constant in h is one PiPoly b0: the product is b0
        times each part of the other operand, and the other operand
        itself when b0 is 1.  Otherwise each operand is flattened once
        into (h-degree, pi-degree, re, im) integer numerators over the
        lcm of its parts' denominators; the convolution runs on Python
        ints, truncated at h^order, and each output part is reduced over
        the product of the two denominators by one gcd.
        """
        self._check(other)
        n = self.order
        for a, b in ((self, other), (other, self)):
            if not any(p.terms for p in b.coeffs[1:]):
                b0 = b.coeffs[0]
                if b0 == PI_ONE:
                    return a
                return HbarSeries(n, tuple(p * b0 for p in a.coeffs))
        da, fa = _flatten(self.coeffs)
        db, fb = _flatten(other.coeffs)
        acc = {}
        for ka, pa, ar, ai in fa:
            for kb, pb, br, bi in fb:
                k = ka + kb
                if k >= n:
                    break  # fb runs in increasing h-degree
                gauss_mac(acc, (k, pa + pb), ar, ai, br, bi)
        den = da * db
        out = [[] for _ in range(n)]
        for (k, p), (re, im) in sorted(acc.items()):
            if re or im:
                out[k].append((p, _reduced(re, im, den)))
        return HbarSeries(
            n, tuple(PiPoly(tuple(t)) if t else PI_ZERO for t in out)
        )

    def scale(self, c: GRat) -> "HbarSeries":
        return HbarSeries(self.order, tuple(a.scale(c) for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()


def series_exp(a: HbarSeries) -> HbarSeries:
    """exp of an h-divisible series; finite sum modulo h^order."""
    if a.coeffs[0]:
        raise NotRepresentable("series_exp needs a zero constant term")
    acc = HbarSeries.one(a.order)
    term = HbarSeries.one(a.order)
    for k in range(1, a.order):
        term = (term * a).scale(_grat(1, 0, k))
        if term.is_zero():
            break
        acc = acc + term
    return acc


@cache
def series_log(u: HbarSeries) -> HbarSeries:
    """log of a series with constant term 1 (Mercator, truncated).

    Memoized: a pure function of an immutable series.  A scalar keeps its
    inverse, but equal dense units arrive as distinct objects: over the
    acceptance tests in one process the memo hits 18,257 times and misses
    382 times."""
    c0 = u.coeffs[0]
    if not (c0.is_const() and c0.constant_part() == GRAT_ONE):
        raise NotRepresentable("series_log needs constant term 1")
    x = u - HbarSeries.one(u.order)
    acc = HbarSeries.zero(u.order)
    term = HbarSeries.one(u.order)
    for k in range(1, u.order):
        term = term * x
        if term.is_zero():
            break
        acc = acc + term.scale(_grat((-1) ** (k + 1), 0, k))
    return acc


# ---------------------------------------------------------------------------
# Exactly representable unit-circle constants


def _circle(n, d):
    """The CircleConst exp(pi i n/d) for integers n and d > 0: n is
    reduced mod 2d, then the pair by one gcd."""
    n %= 2 * d
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    c = _new(CircleConst)
    c.n = n
    c.d = d
    return c


class CircleConst:
    """exp(pi i n/d), stored as the canonical integer pair with
    0 <= n < 2d and gcd(n, d) = 1.

    The angle n/d is taken mod 2 and reduced, so equal constants have
    equal fields, and ``==`` and ``hash`` compare integers.  ``q`` is the
    read-only ``Q`` view of the angle.  Built by ``of`` from a rational
    or by ``_circle`` from an integer pair; in the ``GRat`` idiom, a
    plain slots class.  Treat instances as immutable.
    """

    __slots__ = ("n", "d")

    @property
    def q(self) -> Q:
        return Q(self.n, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, CircleConst) and self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    def __repr__(self):
        return f"CircleConst.of({self.q!r})"

    @staticmethod
    def of(q) -> "CircleConst":
        """exp(pi i q) for an int, a Q or a string read as a Q."""
        q = _rat(q)
        return _circle(q.numerator, q.denominator)

    def __mul__(self, other: "CircleConst") -> "CircleConst":
        return _circle(self.n * other.d + other.n * self.d, self.d * other.d)

    def inverse(self) -> "CircleConst":
        return _circle(-self.n, self.d)

    def conj(self) -> "CircleConst":
        return self.inverse()

    def is_one(self) -> bool:
        return not self.n

    def quarter_turns(self):
        """(k, r) with q = k/2 + r, 0 <= r < 1/2, and r a CircleConst;
        i^k is the foldable part."""
        n, d = self.n, self.d
        k = 2 * n // d
        if not k:
            return 0, self
        return k, _circle(2 * n - k * d, 2 * d)


CIRCLE_ONE = _circle(0, 1)


# ---------------------------------------------------------------------------
# The full scalar


def _quarter_turn(series: HbarSeries, k: int) -> HbarSeries:
    """series * i^k, as an exact swap and negate of each coefficient's
    numerators: no product and no gcd, and every triple stays canonical."""

    def turn(c):
        n, m = c.n, c.m
        for _ in range(k):
            n, m = -m, n
        return _grat(n, m, c.d)

    return HbarSeries(
        series.order,
        tuple(PiPoly(tuple((p, turn(c)) for p, c in a.terms)) for a in series.coeffs),
    )


def _exp_h1(order: int, mag: GRat, e: int, v: GRat) -> HbarSeries:
    """mag * exp(h pi^e v) in closed form: the h^k coefficient is
    mag v^k pi^{ek} / k!, one running product and no series product."""
    coeffs = [PiPoly(((0, mag),))]
    power, fact = mag, 1
    for k in range(1, order):
        power = cmul(power, v)
        fact *= k
        coeffs.append(PiPoly(((e * k, _reduced(power.n, power.m, power.d * fact)),)))
    return HbarSeries(order, tuple(coeffs))


def _exp_series(order: int, mag: GRat, log) -> HbarSeries:
    """mag * exp(log) as a dense series: a log with one h^1 monomial, such
    as the h pi^2 b of ``exp_hpi2``, by ``_exp_h1``; any other log by
    ``series_exp``."""
    if log is None:
        return HbarSeries(order, (PiPoly(((0, mag),)),) + (PI_ZERO,) * (order - 1))
    head = log.coeffs[1].terms
    if len(head) == 1 and not any(log.coeffs[2:]):
        (e, v), = head
        return _exp_h1(order, mag, e, v)
    return series_exp(log).scale(mag)


def _log_form(order: int, unit: "CircleConst", mag: GRat, log) -> "Scalar":
    """The log-form scalar unit * mag * exp(log): ``unit`` canonical with
    its angle in [0, 1/2), ``mag`` a nonzero GRat and ``log`` a nonzero
    h-divisible series or None for 0."""
    s = _new(Scalar)
    s.order = order
    s.unit = unit
    s.mag = mag
    s.log = log
    s._series = None
    s._hash = None
    s._inverse = None
    return s


class Scalar:
    """A truncated scalar, dense or in log form.  The two forms, the
    constructors that make each, and the rules of ``*``, ``inverse``,
    ``==`` and ``hash`` are those of the module docstring."""

    __slots__ = ("order", "unit", "mag", "log", "_series", "_hash", "_inverse")

    def __init__(self, unit, series):
        self.order = series.order
        self.unit = CIRCLE_ONE if unit.n and series.is_zero() else unit
        self.mag = None
        self.log = None
        self._series = series
        self._hash = None
        self._inverse = None

    @property
    def series(self) -> HbarSeries:
        s = self._series
        if s is None:
            s = self._series = _exp_series(self.order, self.mag, self.log)
        return s

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Scalar) or self.unit != other.unit:
            return False
        if self.mag is not None and other.mag is not None:
            return self.order == other.order and self.mag == other.mag and self.log == other.log
        return self.series == other.series

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.order, self.unit) + self._head())
        return h

    def _head(self):
        """(h^0 coefficient, h^1 coefficient over it), which equal values
        share in either form: a log form's mag and its log's h^1
        coefficient, read off the series of a dense scalar.  A dense h^0
        coefficient that is not a nonzero constant (no log form equals
        such a scalar) is returned with the h^1 coefficient as they are."""
        if self.mag is not None:
            return self.mag, PI_ZERO if self.log is None else self.log.coeffs[1]
        coeffs = self._series.coeffs
        c0, c1 = coeffs[0], coeffs[1] if self.order > 1 else PI_ZERO
        if len(c0.terms) == 1 and not c0.terms[0][0]:
            mag = c0.terms[0][1]
            return mag, c1.scale(mag.inverse())
        return c0, c1

    def __repr__(self):
        return f"Scalar({self.unit!r}, {self.series!r})"

    @staticmethod
    def of(unit: CircleConst, series: HbarSeries) -> "Scalar":
        k, r = unit.quarter_turns()
        if k:
            series = _quarter_turn(series, k)
        return Scalar(r, series)

    @staticmethod
    def one(order: int) -> "Scalar":
        return _log_form(order, CIRCLE_ONE, GRAT_ONE, None)

    @staticmethod
    def zero(order: int) -> "Scalar":
        return Scalar(CIRCLE_ONE, HbarSeries.zero(order))

    @staticmethod
    def from_circle(order: int, u: CircleConst) -> "Scalar":
        k, r = u.quarter_turns()
        return _log_form(order, r, I_POWERS[k], None)

    @staticmethod
    def exp(log: HbarSeries) -> "Scalar":
        """exp(log) for an h-divisible series, in log form."""
        if log.coeffs[0]:
            raise NotRepresentable("exp needs a zero constant term")
        return _log_form(log.order, CIRCLE_ONE, GRAT_ONE, log if log else None)

    def __mul__(self, other: "Scalar") -> "Scalar":
        """Log forms multiply by adding logs; with a dense operand the
        product is the dense one.  A product with an exact one (a log
        form of unit 1, mag 1 and log 0) is the other operand itself.  A
        unit 1 on either side leaves the other, already canonical, unit
        as it is; otherwise the unit product is folded again."""
        if self.order != other.order:
            raise OrderMismatch(f"truncation orders differ: {self.order} != {other.order}")
        u1, u2 = self.unit, other.unit
        m1, m2 = self.mag, other.mag
        if m2 is not None and other.log is None and not u2.n and m2 == GRAT_ONE:
            return self
        if m1 is not None and self.log is None and not u1.n and m1 == GRAT_ONE:
            return other
        if m1 is not None and m2 is not None:
            mag = m2 if m1 is GRAT_ONE else m1 if m2 is GRAT_ONE else cmul(m1, m2)
            if not u1.n:
                unit = u2
            elif not u2.n:
                unit = u1
            else:
                k, unit = (u1 * u2).quarter_turns()
                if k:
                    mag = cmul(mag, I_POWERS[k])
            l1, l2 = self.log, other.log
            if l1 is None:
                log = l2
            elif l2 is None:
                log = l1
            else:
                log = l1 + l2
                if not any(log.coeffs):
                    log = None
            return _log_form(self.order, unit, mag, log)
        series = self.series * other.series
        if not u1.n:
            return Scalar(u2, series)
        if not u2.n:
            return Scalar(u1, series)
        return Scalar.of(u1 * u2, series)

    def turn(self, n: int, d: int = 1) -> "Scalar":
        """self * exp(pi i n/d) for integers n and d > 0: the circle
        constant goes into the unit and its quarter turns into the
        magnitude of a log form or the series of a dense scalar, with no
        series product."""
        u = self.unit
        unit = _circle(u.n * d + n * u.d, u.d * d)
        if self.mag is None:
            return Scalar.of(unit, self._series)
        k, r = unit.quarter_turns()
        return _log_form(self.order, r, cmul(self.mag, I_POWERS[k]) if k else self.mag, self.log)

    def scale(self, c: GRat) -> "Scalar":
        if self.mag is None:
            return Scalar(self.unit, self._series.scale(c))
        if not c:
            return Scalar.zero(self.order)
        return _log_form(self.order, self.unit, cmul(self.mag, c), self.log)

    def is_zero(self) -> bool:
        return self.mag is None and self._series.is_zero()

    def _decomposed(self):
        """(mag, log) of an invertible scalar: the fields of a log form, or
        a dense scalar's decomposition by ``series_log``, which it does not
        keep, so that it stays dense."""
        if self.mag is not None:
            return self.mag, self.log
        series = self._series
        c0 = series.coeffs[0]
        if not c0.is_const() or c0.is_zero():
            raise NotInvertible("series unit must have invertible h^0 term")
        mag = c0.terms[0][1]
        if not any(series.coeffs[1:]):
            return mag, None
        return mag, series_log(series if mag == GRAT_ONE else series.scale(mag.inverse()))

    def inverse(self) -> "Scalar":
        """unit^-1 * mag^-1 * exp(-log), in log form, kept from the first call."""
        inv = self._inverse
        if inv is None:
            mag, log = self._decomposed()
            k, unit = self.unit.inverse().quarter_turns()
            m = mag.inverse()
            if k:
                m = cmul(m, I_POWERS[k])
            inv = self._inverse = _log_form(self.order, unit, m, None if log is None else -log)
        return inv

    def __str__(self) -> str:
        from .textfmt import scalar_str

        return scalar_str(self)


def exp_hpi2(order: int, value: GRat) -> Scalar:
    """exp(h pi^2 value), in log form with log h pi^2 value.

    The Moyal correction exp(h pi^2 {l1, l2}), the Heisenberg cocycle and
    its extension ctilde are this exponential.  Its series, when asked
    for, is the closed form of ``_exp_h1``: the h^k coefficient is
    value^k pi^{2k} / k!, equal to ``series_exp`` of h pi^2 value without
    the series products.
    """
    return Scalar.exp(HbarSeries.of(order, {1: PiPoly.pi_power(2, value)}))


@dataclass(frozen=True)
class UnitDecomposition:
    """u = unit * magnitude * exp(log).  `magnitude` is a positive rational
    whenever the h^0 coefficient is a circle constant times a positive
    rational; otherwise it is the raw h^0 coefficient and `unit` carries
    only the original unit part."""

    unit: CircleConst
    magnitude: GRat
    log: HbarSeries

    def recompose(self) -> Scalar:
        series = series_exp(self.log).scale(self.magnitude)
        return Scalar.of(self.unit, series)


def exp_decompose(u: Scalar) -> UnitDecomposition:
    """Split an invertible scalar into a_0 * exp(a_1 h + a_2 h^2 + ...)."""
    c, log = u._decomposed()
    unit = u.unit
    if not c.m and c.n > 0:
        magnitude = c
    elif not c.m and c.n < 0:
        unit = unit * _circle(1, 1)
        magnitude = -c
    elif not c.n and c.m > 0:
        unit = unit * _circle(1, 2)
        magnitude = _grat(c.m, 0, c.d)
    elif not c.n and c.m < 0:
        unit = unit * _circle(3, 2)
        magnitude = _grat(-c.m, 0, c.d)
    else:
        magnitude = c
    return UnitDecomposition(unit, magnitude, HbarSeries.zero(u.order) if log is None else log)
