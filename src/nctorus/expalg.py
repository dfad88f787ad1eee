"""The exponential function algebra.

Elements are finite sums of terms ``scalar * E(pi*(linear form) + const)``
over named variable slots.  Exponents are complex-linear in the slot
variables, with every variable coefficient carrying exactly one implicit
factor of pi; constants split into a symbolic real pi-multiple (kept in
the exponent), a circle constant, and an h-divisible part (both folded
into the scalar coefficient).  The circle constant exp(pi i q) of an
imaginary pi-multiple goes into the coefficient's unit (``Scalar.turn``),
its quarter turns into the magnitude of a log-form coefficient or the
series of a dense one, without a series product; exp of the h-divisible
part is the log-form ``Scalar.exp``, with no ``series_exp``.

The slot-wise Moyal product closes on this class:

    E(l1) * E(l2) = exp(h * {l1, l2}) * E(l1 + l2)

with {l1, l2} the constant Poisson pairing of the linear parts, computed
per slot.  Commutative slots contribute nothing; opposite-orientation
slots contribute with reversed argument order (equivalently, a sign).

Slots of "conjugate pair" kind expose 2*dim variables (the coordinate
values and their conjugates) so that both pairing orientations against a
conjugate-linear functional stay inside the linear-exponent class; a
translation of such a slot shifts the two halves by conjugate vectors.

Terms are always stored normalized: no h-divisible constant and a real
``const_pi``.  ``_normalize`` establishes that, and runs only where a
form can carry such a constant: ``ExpSum.make`` (the constructors and
the text parser build through it) and ``substitute``, whose shift and
matrix make complex constants.  The sum, product and inverse of
normalized forms are normalized, so ``+``, ``*``, ``star``, ``scale``
and ``star_inverse`` call only the merge (``_merged``).  ``translate``
splits its shift's constant itself: the imaginary part turns the
coefficient, the real part moves ``const_pi``.

``poisson_pairing`` is also exported on its own.  The first-order
commutator of the product is exp(h*p) - exp(-h*p) applied to E(l1+l2)
with p the pairing; the package deliberately does not identify the
commutator normalization with any induced-bracket convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .coeff import (
    GRAT_ZERO,
    CoeffError,
    GRat,
    NotInvertible,
    Scalar,
    _reduced,
    bilinear,
    exp_hpi2,
)

__all__ = [
    "Slot",
    "SlotSpec",
    "LinForm",
    "ExpTerm",
    "ExpSum",
    "AffineMap",
    "SlotMismatch",
    "VAR_NAME",
    "poisson_pairing",
    "star_inverse",
    "substitute",
    "Translation",
    "translation",
    "translate",
    "scalar_add",
]


class SlotMismatch(CoeffError):
    """Operands live over different slot specifications."""


# a variable name as the text format reads it
VAR_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*~?")


@dataclass(frozen=True)
class Slot:
    """One named variable group.

    ``poisson`` is a dim x dim antisymmetric GRat matrix (rows as tuples)
    or None for a commutative slot.  ``conjugate_pair`` slots expose
    2*dim variables: the coordinates followed by their formal conjugates.
    """

    name: str
    dim: int
    poisson: tuple = None
    opposite: bool = False
    conjugate_pair: bool = False
    labels: tuple = None  # optional display names for the coordinates

    @property
    def nvars(self) -> int:
        return 2 * self.dim if self.conjugate_pair else self.dim

    def var_names(self):
        if self.labels:
            base = list(self.labels)
        elif self.dim == 1 and not self.conjugate_pair:
            base = [self.name]
        else:
            base = [f"{self.name}{i+1}" for i in range(self.dim)]
        if self.conjugate_pair:
            base = base + [f"{n}~" for n in base]
        return base

    def shift_vector(self, vec):
        """Translation vector (tuple of GRat, length nvars) for a complex
        dim-vector; conjugate-pair slots shift both halves conjugately."""
        if len(vec) != self.dim:
            raise SlotMismatch(f"slot {self.name}: expected {self.dim} entries")
        if self.conjugate_pair:
            return tuple(vec) + tuple(v.conj() for v in vec)
        return tuple(vec)


def _check_poisson(slot: Slot) -> None:
    p = slot.poisson
    if p is None:
        return
    if slot.conjugate_pair:
        raise CoeffError("conjugate-pair slots must be commutative")
    n = slot.dim
    if len(p) != n or any(len(row) != n for row in p):
        raise CoeffError(f"slot {slot.name}: poisson matrix must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            if p[i][j] != -p[j][i]:
                raise CoeffError(f"slot {slot.name}: poisson matrix not antisymmetric")


@dataclass(frozen=True)
class SlotSpec:
    """Ordered slots plus the global truncation order."""

    slots: tuple
    order: int
    # derived once: the number of variables, and the Moyal slots as
    # (slot index, Poisson matrix, opposite) for each nonzero matrix
    nvars: int = field(init=False, repr=False, compare=False)
    moyal: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Also refuses names the text format could not read back."""
        for slot in self.slots:
            _check_poisson(slot)
        if len({s.name for s in self.slots}) != len(self.slots):
            raise SlotMismatch("two slots share a name")
        names = self.var_names()
        if len(set(names)) != len(names):
            raise SlotMismatch("two variables share a name")
        for name in names:
            if name in ("i", "pi") or not VAR_NAME.fullmatch(name):
                raise SlotMismatch(f"the text format cannot read back a variable named {name!r}")
        object.__setattr__(self, "nvars", sum(s.nvars for s in self.slots))
        moyal = tuple(
            (i, s.poisson, s.opposite)
            for i, s in enumerate(self.slots)
            if s.poisson is not None and any(a for row in s.poisson for a in row)
        )
        object.__setattr__(self, "moyal", moyal)

    def slot_index(self, name: str) -> int:
        for i, s in enumerate(self.slots):
            if s.name == name:
                return i
        raise SlotMismatch(f"no slot named {name!r}")

    def var_names(self):
        out = []
        for s in self.slots:
            out.extend(s.var_names())
        return out

    def zero_form(self) -> "LinForm":
        return LinForm(
            tuple(tuple([GRAT_ZERO] * s.nvars) for s in self.slots),
            GRAT_ZERO,
            None,
        )


def poisson_pairing(spec: SlotSpec, f1: "LinForm", f2: "LinForm") -> GRat:
    """{l1, l2} per slot; the implicit pi on each side is NOT included
    (the Moyal correction is exp(h * pi^2 * pairing)).  Only the slots of
    ``spec.moyal`` contribute: commutative slots and zero matrices pair to
    zero."""
    total = GRAT_ZERO
    for i, poisson, opposite in spec.moyal:
        p = bilinear(poisson, f1.coeffs[i], f2.coeffs[i])
        total = total - p if opposite else total + p
    return total


@dataclass(slots=True, unsafe_hash=True)
class LinForm:
    """pi * (linear form in the slot variables + const_pi) + const_hbar.

    ``coeffs`` is a tuple of per-slot coefficient tuples (GRat); these are
    the pi-cofactors.  ``const_pi`` is the GRat multiple of the symbolic
    pi in the constant part; after normalization its imaginary part has
    been folded away.  ``const_hbar`` is an h-divisible HbarSeries or
    None; normalization folds it into the scalar coefficient.

    A slots dataclass rather than a frozen one, like ``ExpTerm`` and
    ``ExpSum``: these are created on every product and translation, and
    a frozen ``__init__`` costs more than twice a plain one.  Treat
    instances as immutable.
    """

    coeffs: tuple
    const_pi: GRat
    const_hbar: object = None

    def __add__(self, other: "LinForm") -> "LinForm":
        ch = self.const_hbar
        if other.const_hbar is not None:
            ch = other.const_hbar if ch is None else ch + other.const_hbar
        return LinForm(
            tuple(
                tuple(map(GRat.__add__, s1, s2))
                for s1, s2 in zip(self.coeffs, other.coeffs)
            ),
            self.const_pi + other.const_pi,
            ch,
        )

    def __neg__(self) -> "LinForm":
        return LinForm(
            tuple(tuple(-a for a in s) for s in self.coeffs),
            -self.const_pi,
            None if self.const_hbar is None else -self.const_hbar,
        )

    def is_zero(self) -> bool:
        return (
            not self.const_pi
            and (self.const_hbar is None or self.const_hbar.is_zero())
            and all(not a for s in self.coeffs for a in s)
        )

    def sort_key(self):
        flat = [(a.re, a.im) for s in self.coeffs for a in s]
        flat.append((self.const_pi.re, self.const_pi.im))
        return tuple(flat)


@dataclass(slots=True, unsafe_hash=True)
class ExpTerm:
    """scalar coefficient times E(form); always stored normalized.  Treat
    instances as immutable."""

    coeff: Scalar
    form: LinForm


@dataclass(slots=True, unsafe_hash=True)
class ExpSum:
    """Normalized sum of ExpTerms with pairwise distinct exponents.  Treat
    instances as immutable."""

    spec: SlotSpec
    terms: tuple

    # -- constructors -------------------------------------------------

    @staticmethod
    def make(spec: SlotSpec, raw_terms) -> "ExpSum":
        """Build from a list of (Scalar, LinForm) pairs: normalize each
        pair, then merge them (``_merged``)."""
        return _merged(spec, [_normalize(coeff, form) for coeff, form in raw_terms])

    @staticmethod
    def one(spec: SlotSpec) -> "ExpSum":
        return ExpSum.make(spec, [(Scalar.one(spec.order), spec.zero_form())])

    @staticmethod
    def exponential(spec: SlotSpec, form: LinForm, coeff: Scalar = None) -> "ExpSum":
        if coeff is None:
            coeff = Scalar.one(spec.order)
        return ExpSum.make(spec, [(coeff, form)])

    # -- ring structure -----------------------------------------------

    def _check(self, other: "ExpSum") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SlotMismatch("operands live over different slot specs")

    def __add__(self, other: "ExpSum") -> "ExpSum":
        self._check(other)
        return _merged(
            self.spec,
            [(t.coeff, t.form) for t in self.terms]
            + [(t.coeff, t.form) for t in other.terms],
        )

    def __neg__(self) -> "ExpSum":
        return ExpSum(
            self.spec,
            tuple(ExpTerm(t.coeff.scale(GRat.of(-1)), t.form) for t in self.terms),
        )

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        """Commutative pointwise product: exponents add."""
        self._check(other)
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append((t1.coeff * t2.coeff, t1.form + t2.form))
        return _merged(self.spec, out)

    def star(self, other: "ExpSum") -> "ExpSum":
        """Moyal product; reduces to ``*`` modulo h.  With no Moyal slot
        (``spec.moyal`` empty) every pairing is zero and none is taken."""
        self._check(other)
        spec = self.spec
        moyal = spec.moyal
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                coeff = t1.coeff * t2.coeff
                if moyal:
                    p = poisson_pairing(spec, t1.form, t2.form)
                    if p:
                        coeff = coeff * exp_hpi2(spec.order, p)
                out.append((coeff, t1.form + t2.form))
        return _merged(spec, out)

    # -- helpers -------------------------------------------------------

    def single_term(self) -> ExpTerm:
        if len(self.terms) != 1:
            raise CoeffError("expected a single exponential term")
        return self.terms[0]

    def scale(self, s: Scalar) -> "ExpSum":
        return _merged(self.spec, [(t.coeff * s, t.form) for t in self.terms])


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    """Add two canonical scalars with the same truncation order.

    Both are unit*series.  A zero has unit 1, whatever unit it was built
    with, so a zero operand returns the other operand; two nonzero ones
    add only when the units agree, as they always do for merged
    like-exponent terms coming out of normalization.  The sum is dense
    and of the operands' type: the text parser adds its like terms,
    unit*monomials, here too, so this is where its zeros merge as well.
    """
    if not b.series:
        return a
    if not a.series:
        return b
    if a.unit == b.unit:
        return type(a)(a.unit, a.series + b.series)
    raise CoeffError(
        "sum of scalars with incompatible circle constants is not representable"
    )


def _merged(spec: SlotSpec, pairs) -> ExpSum:
    """The one merge: the ExpSum of normalized (Scalar, LinForm) pairs,
    like exponents added by ``scalar_add``, sorted by exponent, zero
    coefficients dropped.

    A single pair is kept unless its coefficient is zero, with no merge
    key and no sort: one term has nothing to merge with and one order, so
    this is exactly what the general path returns for it.
    """
    if len(pairs) == 1:
        (coeff, form), = pairs
        if coeff.is_zero():
            return ExpSum(spec, ())
        return ExpSum(spec, (ExpTerm(coeff, form),))
    acc = {}
    for coeff, form in pairs:
        key = form.sort_key()
        old = acc.get(key)
        acc[key] = (coeff if old is None else scalar_add(old[0], coeff), form)
    terms = tuple(
        ExpTerm(c, f)
        for _, (c, f) in sorted(acc.items())
        if not c.is_zero()
    )
    return ExpSum(spec, terms)


def _normalize(coeff: Scalar, form: LinForm):
    """Fold h-divisible and imaginary-pi constants into the coefficient."""
    ch = form.const_hbar
    if ch is not None and not ch.is_zero():
        coeff = coeff * Scalar.exp(ch)
    cp = form.const_pi
    if cp.m:
        coeff = coeff.turn(cp.m, cp.d)
        cp = _reduced(cp.n, 0, cp.d)
    if ch is not None or cp is not form.const_pi:
        form = LinForm(form.coeffs, cp, None)
    return coeff, form


def star_inverse(f: ExpSum) -> ExpSum:
    """Star inverse of a single invertible exponential term: negate the
    exponent, invert the coefficient.  Exact since {l, -l} = 0."""
    t = f.single_term()
    if t.coeff.is_zero():
        raise NotInvertible("zero coefficient")
    return _merged(f.spec, [(t.coeff.inverse(), -t.form)])


@dataclass(frozen=True)
class AffineMap:
    """x = matrix . y + shift, mapping functions of x (on ``target``) to
    functions of y (on ``source``) by composition."""

    source: SlotSpec
    target: SlotSpec
    matrix: tuple  # target.nvars rows, each of source.nvars GRat entries
    shift: tuple  # target.nvars GRat entries


def substitute(f: ExpSum, m: AffineMap) -> ExpSum:
    """Pull back f along the affine map: E(l) -> normalize(E(l o m))."""
    if f.spec != m.target:
        raise SlotMismatch("map target does not match the operand's slots")
    src = m.source
    n_t, n_s = f.spec.nvars, src.nvars
    out = []
    for t in f.terms:
        flat = [a for s in t.form.coeffs for a in s]
        new_flat = [GRAT_ZERO] * n_s
        const = t.form.const_pi
        for i in range(n_t):
            ci = flat[i]
            if not ci:
                continue
            row = m.matrix[i]
            for j in range(n_s):
                if row[j]:
                    new_flat[j] = new_flat[j] + ci * row[j]
            if m.shift[i]:
                const = const + ci * m.shift[i]
        coeffs = []
        pos = 0
        for s in src.slots:
            coeffs.append(tuple(new_flat[pos : pos + s.nvars]))
            pos += s.nvars
        out.append((t.coeff, LinForm(tuple(coeffs), const, t.form.const_hbar)))
    return ExpSum.make(src, out)


@dataclass(slots=True)
class Translation:
    """A translation prepared by ``translation``: over ``spec``, the
    (slot index, shift vector) ``moves`` of the slots it shifts, each slot
    at most once.  Treat instances as immutable."""

    spec: SlotSpec
    moves: tuple


def translation(spec: SlotSpec, shifts) -> Translation:
    """Prepare the translation v -> v + vec of every slot of ``shifts``, a
    map {slot_name: vec, ...} over ``spec``.

    Each named slot becomes its index and its ``shift_vector(vec)``; a slot
    whose shift is zero is left out.  A caller that translates by the same
    vectors many times prepares once and passes the result to every
    ``translate``.
    """
    moves = []
    for name, vec in shifts.items():
        idx = spec.slot_index(name)
        shift = spec.slots[idx].shift_vector(vec)
        if any(shift):
            moves.append((idx, shift))
    return Translation(spec, tuple(moves))


def translate(f: ExpSum, t: Translation) -> ExpSum:
    """Substitute along the prepared translation ``t`` (see
    ``translation``); ``f`` itself when ``t`` moves no slot.

    Equivalent to ``substitute`` along an ``AffineMap`` with the identity
    matrix and the moved slots' shift vectors as its shift, but computed
    directly: only the exponent constants move, every slot's shift is
    added in one pass, its imaginary part turns the coefficient
    (``Scalar.turn``) and its real part moves ``const_pi``.  The terms
    are built here, with no merge: a translation adds the same constant
    to exponents with the same linear part, so distinct exponents stay
    distinct and in order, and no coefficient becomes zero.
    """
    spec = f.spec
    if spec is not t.spec and spec != t.spec:
        raise SlotMismatch("translation prepared over other slots than the operand's")
    moves = t.moves
    if not moves:
        return f
    out = []
    for term in f.terms:
        coeff, form = term.coeff, term.form
        add = GRAT_ZERO
        for idx, shift in moves:
            for a, s in zip(form.coeffs[idx], shift):
                if a and s:
                    add = add + a * s
        if add.m:
            coeff = coeff.turn(add.m, add.d)
        if add.n:
            form = LinForm(form.coeffs, form.const_pi + _reduced(add.n, 0, add.d), None)
        out.append(ExpTerm(coeff, form))
    return ExpSum(spec, tuple(out))
