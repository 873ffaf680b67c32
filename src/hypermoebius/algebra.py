"""Arithmetic over the three two-dimensional commutative real algebras.

A value is ``a1 + u*a2`` where the generator ``u`` squares to a real constant
sigma: ``i**2 = -1`` (complex), ``eps**2 = 0`` (dual), ``j**2 = +1`` (double,
a.k.a. split-complex).  Double numbers split along the idempotents
``P+ = (1+j)/2`` and ``P- = (1-j)/2`` into two independent real components
``a+ = a1+a2`` and ``a- = a1-a2``; under that splitting multiplication,
inversion and square roots all act componentwise.

Scalars are double-precision floats.  Two tolerances are used throughout:
``TAU_ZERO`` decides structural questions ("is this component zero?") and
``TAU_ALG`` checks algebraic identities on computed values.

The coordinates may also be float arrays of one shape, a *stack*: ring
arithmetic, ``invert``, ``decompose`` and ``recompose`` then act on each
number with the expression tree they use on floats.  The module also
provides the sigma-parametrised trigonometric functions (circular for
sigma=-1, linear for sigma=0, hyperbolic for sigma=+1) used by the
one-parameter subgroups.

numpy is imported only where a stack needs it: a float number needs none,
and a stack is built by a caller that has loaded numpy already.  That keeps
numpy off the import path of the scalar CLI commands.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DomainError,
    InvalidLiteralError,
    KindMismatchError,
    NotInvertibleError,
)

TAU_ZERO = 1e-12  # structural-zero tolerance (classification)
TAU_ALG = 1e-9    # identity tolerance (computed values)


class Kind(Enum):
    """One of the three algebras, tagged by the square of its generator."""

    COMPLEX = -1
    DUAL = 0
    DOUBLE = 1

    @property
    def sigma(self) -> int:
        return self.value

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]

    @classmethod
    def from_name(cls, name: str) -> "Kind":
        key = name.strip().lower()
        if key not in _KIND_NAMES:
            raise InvalidLiteralError(
                f"unknown algebra {name!r}: expected complex, dual or double"
            )
        return _KIND_NAMES[key]


_SYMBOLS = {Kind.COMPLEX: "i", Kind.DUAL: "e", Kind.DOUBLE: "j"}
# plain dict: the Enum property costs a descriptor call per ring multiply
_SIGMA_OF = {kind: kind.value for kind in Kind}
_KIND_NAMES = {"complex": Kind.COMPLEX, "dual": Kind.DUAL, "double": Kind.DOUBLE}


class ElementClass(Enum):
    UNIT = "Unit"
    ZERO = "Zero"
    ZERO_DIVISOR_PLUS = "ZeroDivisorPlus"
    ZERO_DIVISOR_MINUS = "ZeroDivisorMinus"
    NILPOTENT_NONZERO = "NilpotentNonzero"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Hypercomplex:
    """Immutable number ``a1 + u*a2`` in the algebra given by ``kind``; its
    coordinates are floats, or float arrays of one shape for a stack."""

    kind: Kind
    a1: float
    a2: float

    # numpy defers ``array * number`` to __rmul__ instead of building an
    # object array of products
    __array_ufunc__ = None

    def __add__(self, other: "Hypercomplex | float") -> "Hypercomplex":
        other = _coerce(self.kind, other)
        _check_kinds(self, other)
        return Hypercomplex(self.kind, self.a1 + other.a1, self.a2 + other.a2)

    __radd__ = __add__

    def __sub__(self, other: "Hypercomplex | float") -> "Hypercomplex":
        other = _coerce(self.kind, other)
        _check_kinds(self, other)
        return Hypercomplex(self.kind, self.a1 - other.a1, self.a2 - other.a2)

    def __rsub__(self, other: float) -> "Hypercomplex":
        return _coerce(self.kind, other) - self

    def __mul__(self, other: "Hypercomplex | float") -> "Hypercomplex":
        if isinstance(other, Hypercomplex):
            _check_kinds(self, other)
            s = _SIGMA_OF[self.kind]
            return Hypercomplex(
                self.kind,
                self.a1 * other.a1 + s * self.a2 * other.a2,
                self.a1 * other.a2 + self.a2 * other.a1,
            )
        if type(other) is float:  # exact type: numpy.float64 subclasses float
            return Hypercomplex(self.kind, self.a1 * other, self.a2 * other)
        if isinstance(other, numbers.Real):
            return self * float(other)
        if is_stack(other):  # a float array: the stack of this number times each
            return Hypercomplex(self.kind, self.a1 * other, self.a2 * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: "Hypercomplex | float") -> "Hypercomplex":
        if isinstance(other, Hypercomplex):
            _check_kinds(self, other)
            return self * invert(other)
        if type(other) is float:
            return Hypercomplex(self.kind, self.a1 / other, self.a2 / other)
        if isinstance(other, numbers.Real):
            return self / float(other)
        return NotImplemented

    def __rtruediv__(self, other: float) -> "Hypercomplex":
        if isinstance(other, numbers.Real):
            return invert(self) * other
        return NotImplemented

    def __neg__(self) -> "Hypercomplex":
        return Hypercomplex(self.kind, -self.a1, -self.a2)

    def conjugate(self) -> "Hypercomplex":
        return Hypercomplex(self.kind, self.a1, -self.a2)

    def is_zero(self, tol: float = TAU_ZERO) -> bool:
        return abs(self.a1) <= tol and abs(self.a2) <= tol

    def magnitude(self) -> float:
        """Max-abs of the two scalar coordinates (used for error bounds), NaN
        when either is NaN; for a stack, the array of each number's."""
        a1, a2 = self.a1, self.a2
        if type(a1) is float or not is_stack(a1):  # a stack's coordinates are arrays
            m1, m2 = abs(a1), abs(a2)
            return float(m1 if m1 > m2 or m1 != m1 else m2)  # a NaN in either place, as np.maximum
        import numpy as np

        return np.maximum(abs(a1), abs(a2))

    def close_to(self, other: "Hypercomplex | float", tol: float = TAU_ALG) -> bool:
        other = _coerce(self.kind, other)
        return abs(self.a1 - other.a1) <= tol and abs(self.a2 - other.a2) <= tol

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Hypercomplex({self.kind.name}, {self.a1!r}, {self.a2!r})"


# The dataclass __init__ of a frozen class stores each field through
# object.__setattr__; the slot descriptors store them at half the cost, and
# assignment after construction still raises FrozenInstanceError.
_set_kind = Hypercomplex.kind.__set__
_set_a1 = Hypercomplex.a1.__set__
_set_a2 = Hypercomplex.a2.__set__


def _init(self, kind: Kind, a1: float, a2: float) -> None:
    _set_kind(self, kind)
    _set_a1(self, a1)
    _set_a2(self, a2)


Hypercomplex.__init__ = _init


def _coerce(kind: Kind, value: "Hypercomplex | float") -> Hypercomplex:
    if isinstance(value, Hypercomplex):
        return value
    if is_stack(value):  # a float array: the stack of those real numbers
        import numpy as np

        return Hypercomplex(kind, value, np.zeros(value.shape))
    return Hypercomplex(kind, float(value), 0.0)


def _check_kinds(x: Hypercomplex, y: Hypercomplex) -> None:
    if x.kind is not y.kind:
        raise KindMismatchError(f"mixed kinds {x.kind.name} and {y.kind.name}")


def number(kind: Kind, a1: float, a2: float = 0.0) -> Hypercomplex:
    return Hypercomplex(kind, float(a1), float(a2))


def zero(kind: Kind) -> Hypercomplex:
    return Hypercomplex(kind, 0.0, 0.0)


def one(kind: Kind) -> Hypercomplex:
    return Hypercomplex(kind, 1.0, 0.0)


def generator(kind: Kind) -> Hypercomplex:
    """The basis element j, eps or i of the given algebra."""
    return Hypercomplex(kind, 0.0, 1.0)


P_PLUS = Hypercomplex(Kind.DOUBLE, 0.5, 0.5)
P_MINUS = Hypercomplex(Kind.DOUBLE, 0.5, -0.5)


def decompose(x: Hypercomplex) -> tuple[float, float]:
    """Idempotent components (a+, a-) = (a1+a2, a1-a2) of a double number."""
    if x.kind is not Kind.DOUBLE:
        raise KindMismatchError("decompose is defined for double numbers only")
    return (x.a1 + x.a2, x.a1 - x.a2)


def recompose(plus: float, minus: float) -> Hypercomplex:
    """Inverse of :func:`decompose`: the double number plus*P+ + minus*P-."""
    return Hypercomplex(Kind.DOUBLE, (plus + minus) / 2.0, (plus - minus) / 2.0)


def classify_element(x: Hypercomplex, tol: float = TAU_ZERO) -> ElementClass:
    """Unit / zero / zero-divisor / nilpotent classification.

    A coordinate (or idempotent component) with magnitude <= ``tol`` counts
    as zero, which keeps the answer stable under float noise.
    """
    if x.kind is Kind.DOUBLE:
        p, m = decompose(x)
        zp, zm = abs(p) <= tol, abs(m) <= tol
        if zp and zm:
            return ElementClass.ZERO
        if zm:
            return ElementClass.ZERO_DIVISOR_PLUS
        if zp:
            return ElementClass.ZERO_DIVISOR_MINUS
        return ElementClass.UNIT
    if x.kind is Kind.DUAL:
        if abs(x.a1) <= tol:
            return ElementClass.ZERO if abs(x.a2) <= tol else ElementClass.NILPOTENT_NONZERO
        return ElementClass.UNIT
    # complex: a field
    return ElementClass.ZERO if x.is_zero(tol) else ElementClass.UNIT


def is_unit(x: Hypercomplex, tol: float = TAU_ZERO) -> bool:
    return classify_element(x, tol) is ElementClass.UNIT


def invert(x: Hypercomplex, tol: float = TAU_ZERO) -> Hypercomplex:
    """1/x, or for a stack 1/x of each number, bit for bit.  A non-unit
    raises :class:`NotInvertibleError` with its class; a stack raises for
    its first non-unit.  A stack's non-finite rows raise no numpy warning."""
    if type(x.a1) is float or not is_stack(x.a1):
        return _invert(x, tol)
    import numpy as np

    with np.errstate(all="ignore"):  # inf - inf, inf * 0 and overflow in a stack
        return _invert(x, tol)


def _invert(x: Hypercomplex, tol: float) -> Hypercomplex:
    cls = _classify_first(x, tol)
    if cls is not ElementClass.UNIT:
        raise NotInvertibleError(cls)
    return _inverse(x)


def _inverse(x: Hypercomplex) -> Hypercomplex:
    """1/x for a unit x, or for each number of a stack of units."""
    if x.kind is Kind.DOUBLE:
        p, m = decompose(x)
        return recompose(1.0 / p, 1.0 / m)
    if x.kind is Kind.DUAL:
        r = 1.0 / x.a1
        return Hypercomplex(Kind.DUAL, r, -r * r * x.a2)
    d = x.a1 * x.a1 + x.a2 * x.a2
    big = d == math.inf  # past about 1e154 the squares overflow (a NaN d needs no scaling)
    scalar = not is_stack(d)
    if not (big if scalar else big.any()):
        return Hypercomplex(Kind.COMPLEX, x.a1 / d, -x.a2 / d)
    # scale by the larger coordinate first, as math.hypot does; a stack
    # divides its other rows by 1.0, which is exact
    if scalar:
        s = max(abs(x.a1), abs(x.a2))
    else:
        import numpy as np

        s = np.where(big, np.maximum(abs(x.a1), abs(x.a2)), 1.0)
    a1, a2 = x.a1 / s, x.a2 / s
    d = a1 * a1 + a2 * a2
    return Hypercomplex(Kind.COMPLEX, a1 / d / s, -a2 / d / s)


def sqrt_all(
    x: Hypercomplex, tol_zero: float = TAU_ZERO, tol_alg: float = TAU_ALG
) -> list[Hypercomplex]:
    """All square roots of ``x``; empty list when none are defined.

    Double numbers have up to four roots (one per sign choice on each
    idempotent component), collapsing to two when exactly one component
    vanishes and to ``[0]`` at zero.  Dual numbers have two roots when the
    real part is positive, ``[0]`` at zero, and none otherwise.  Coincident
    sign variants are deduplicated within ``tol_alg``.
    """
    if x.kind is Kind.DOUBLE:
        p, m = decompose(x)
        if p < -tol_zero or m < -tol_zero:
            return []
        rp = math.sqrt(p) if p > tol_zero else 0.0
        rm = math.sqrt(m) if m > tol_zero else 0.0
        candidates = [(rp, rm), (rp, -rm), (-rp, rm), (-rp, -rm)]
        roots: list[Hypercomplex] = []
        for cp, cm in candidates:
            cand = recompose(cp, cm)
            if not any(cand.close_to(r, tol_alg) for r in roots):
                roots.append(cand)
        return roots
    if x.kind is Kind.DUAL:
        if abs(x.a1) <= tol_zero:
            return [zero(Kind.DUAL)] if abs(x.a2) <= tol_zero else []
        if x.a1 < 0:
            return []
        r = math.sqrt(x.a1)
        root = Hypercomplex(Kind.DUAL, r, x.a2 / (2.0 * r))
        return [root, -root]
    # complex: principal root and its negative
    if x.is_zero(tol_zero):
        return [zero(Kind.COMPLEX)]
    w = cmath.sqrt(complex(x.a1, x.a2))
    root = Hypercomplex(Kind.COMPLEX, w.real, w.imag)
    return [root, -root]


# ---------------------------------------------------------------------------
# stacks


def is_stack(x) -> bool:
    """Whether x is a numpy array: the coordinates of a stack, or the values
    at which a stack is asked for.  A Python number is answered without
    importing numpy."""
    if isinstance(x, (int, float)):
        return False
    import numpy as np

    return type(x) is np.ndarray


def stacked(kind: Kind, coords: np.ndarray) -> Hypercomplex:
    """The stack of numbers whose (a1, a2) run along the last axis of coords."""
    return Hypercomplex(kind, coords[..., 0], coords[..., 1])


def _unit_mask(x: Hypercomplex, tol: float = TAU_ZERO):
    """Whether each number of the stack x is a unit, by the test of
    :func:`classify_element`: a NaN coordinate counts as nonzero."""
    if x.kind is Kind.DOUBLE:
        p, m = decompose(x)
        return ~(abs(p) <= tol) & ~(abs(m) <= tol)
    if x.kind is Kind.DUAL:
        return ~(abs(x.a1) <= tol)
    return ~((abs(x.a1) <= tol) & (abs(x.a2) <= tol))


def _classify_first(x: Hypercomplex, tol: float = TAU_ZERO) -> ElementClass:
    """:func:`classify_element` of a number, or of the first number of the
    stack x that is not a unit (``UNIT`` when every number is one)."""
    if type(x.a1) is float or not is_stack(x.a1):
        return classify_element(x, tol)
    singular = ~_unit_mask(x, tol)
    if not singular.any():
        return ElementClass.UNIT
    return classify_element(Hypercomplex(x.kind, float(x.a1[singular][0]),
                                         float(x.a2[singular][0])), tol)


def sqrt_all_many(x: Hypercomplex):
    """:func:`sqrt_all` of each number of a double or dual stack x, as
    ``(roots, kept)``: a stack of candidate roots of shape ``(k,) + shape``
    and a bool array of that shape.  The roots of number i are
    ``roots[j, i]`` at each j where ``kept[j, i]``, in j order: the list
    sqrt_all gives, bit for bit.  A candidate that is not kept is finite
    where x is, so the roots can be squared without numpy warnings.

    Double numbers take sqrt_all's four sign choices per idempotent
    component, each kept unless it is within ``TAU_ALG`` of a kept one
    before it; dual numbers take the root of the a1-part and its negative,
    or zero.  Complex stacks raise :class:`KindMismatchError`.
    """
    import numpy as np

    with np.errstate(all="ignore"):  # roots of negative or zero parts are not kept
        if x.kind is Kind.DOUBLE:
            p, m = decompose(x)
            rp = np.where(p > TAU_ZERO, np.sqrt(p), 0.0)
            rm = np.where(m > TAU_ZERO, np.sqrt(m), 0.0)
            roots = recompose(np.stack((rp, rp, -rp, -rp)), np.stack((rm, -rm, rm, -rm)))
            kept = np.empty(roots.a1.shape, bool)
            kept[0] = ~((p < -TAU_ZERO) | (m < -TAU_ZERO))
            for j in range(1, 4):
                dup = np.zeros(p.shape, bool)
                for i in range(j):
                    dup |= (kept[i] & (abs(roots.a1[j] - roots.a1[i]) <= TAU_ALG)
                            & (abs(roots.a2[j] - roots.a2[i]) <= TAU_ALG))
                kept[j] = kept[0] & ~dup
            return roots, kept
        if x.kind is not Kind.DUAL:
            raise KindMismatchError("stacked square roots are defined for double and dual numbers")
        zero_part = abs(x.a1) <= TAU_ZERO
        two = ~zero_part & ~(x.a1 < 0)
        r = np.sqrt(x.a1)
        # zero where the a1-part has no two roots: the root kept at x = 0
        r1, r2 = np.where(two, r, 0.0), np.where(two, x.a2 / (2.0 * r), 0.0)
        kept = np.stack((two | (zero_part & (abs(x.a2) <= TAU_ZERO)), two))
        return Hypercomplex(Kind.DUAL, np.stack((r1, -r1)), np.stack((r2, -r2))), kept


# ---------------------------------------------------------------------------
# sigma-trigonometry

_SIGMAS = (-1, 0, 1)


def _check_sigma(sigma: int) -> None:
    if sigma not in _SIGMAS:
        raise DomainError(f"sigma must be -1, 0 or +1, got {sigma}")


def cos_sigma(sigma: int, t: float) -> float:
    _check_sigma(sigma)
    if sigma == -1:
        return math.cos(t)
    if sigma == 0:
        return 1.0
    return math.cosh(t)


def sin_sigma(sigma: int, t: float) -> float:
    _check_sigma(sigma)
    if sigma == -1:
        return math.sin(t)
    if sigma == 0:
        return t
    return math.sinh(t)


def tan_sigma(sigma: int, t: float) -> float:
    _check_sigma(sigma)
    if sigma == -1:
        c = math.cos(t)
        if abs(c) <= TAU_ALG:
            raise DomainError(f"tangent pole: cos({t}) vanishes in the circular regime")
        return math.tan(t)
    if sigma == 0:
        return t
    return math.tanh(t)


def arctan_sigma(sigma: int, x: float) -> float:
    """Principal inverse of :func:`tan_sigma`.

    Circular regime returns values in (-pi/2, pi/2); the hyperbolic regime
    requires |x| < 1.
    """
    _check_sigma(sigma)
    if sigma == -1:
        return math.atan(x)
    if sigma == 0:
        return x
    if abs(x) >= 1.0:
        raise DomainError(f"arctan in the hyperbolic regime needs |x| < 1, got {x}")
    return math.atanh(x)


# ---------------------------------------------------------------------------
# text form

_DEC = r"(?:\d+(?:\.\d*)?|\.\d+)"
_FULL_RE = re.compile(
    rf"^(?P<re>[+-]?{_DEC})(?:(?P<sign>[+-])(?P<im>{_DEC})(?P<sym>[jei]))?$"
)
_IMAG_RE = re.compile(rf"^(?P<sign>[+-]?)(?P<im>{_DEC})?(?P<sym>[jei])$")
_COMPONENT_RE = re.compile(rf"^\((?P<p>[+-]?{_DEC})\|(?P<m>[+-]?{_DEC})\)$")


def _normalize_literal(text: str) -> str:
    return text.replace("−", "-").replace(" ", "")


def parse_number(kind: Kind, text: str) -> Hypercomplex:
    """Parse ``a1``, ``a1+a2<sym>``, ``a2<sym>`` or (double only) ``(a+|a-)``.

    Decimal literals carry no exponent part; the generator symbol must match
    the algebra (j double, e dual, i complex).  A unicode minus is accepted.
    A literal whose value is past the float range is refused.
    """
    return finite_literal(_parse_number(kind, text), text)


def finite_literal(x: Hypercomplex, text: str) -> Hypercomplex:
    """x, the value of the literal text; :class:`InvalidLiteralError` when a
    coordinate is past the float range, as a decimal of 310 digits is."""
    if math.isfinite(x.a1) and math.isfinite(x.a2):
        return x
    raise InvalidLiteralError(f"{text!r} is past the float range")


def _parse_number(kind: Kind, text: str) -> Hypercomplex:
    s = _normalize_literal(text)
    if kind is Kind.DOUBLE:
        m = _COMPONENT_RE.match(s)
        if m:
            return recompose(float(m.group("p")), float(m.group("m")))
    m = _FULL_RE.match(s)
    if m:
        sym = m.group("sym")
        if sym is None:
            return Hypercomplex(kind, float(m.group("re")), 0.0)
        if sym != kind.symbol:
            raise InvalidLiteralError(
                f"generator {sym!r} does not belong to the {kind.name.lower()} algebra"
            )
        a2 = float(m.group("im"))
        if m.group("sign") == "-":
            a2 = -a2
        return Hypercomplex(kind, float(m.group("re")), a2)
    m = _IMAG_RE.match(s)
    if m:
        if m.group("sym") != kind.symbol:
            raise InvalidLiteralError(
                f"generator {m.group('sym')!r} does not belong to the "
                f"{kind.name.lower()} algebra"
            )
        a2 = float(m.group("im")) if m.group("im") else 1.0
        if m.group("sign") == "-":
            a2 = -a2
        return Hypercomplex(kind, 0.0, a2)
    raise InvalidLiteralError(f"cannot parse {text!r} as a {kind.name.lower()} number")


def _fmt(v: float) -> str:
    """The shortest round-trip digits of v in positional notation, the text of
    ``np.format_float_positional(v, trim="-")``: the grammar carries no
    exponent part.  Built from ``repr``, which is about twice as fast: a repr
    with no exponent, the common case, is answered first, and ``+ 0.0``
    folds -0.0 into 0.0."""
    text = repr(float(v) + 0.0)
    if "e" not in text:
        return text[:-2] if text.endswith(".0") else text
    mantissa, _, exponent = text.partition("e")
    sign = "-" if mantissa[0] == "-" else ""
    digits = mantissa.lstrip("-").replace(".", "")
    point = int(exponent) + 1  # digits before the decimal point
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    # repr uses an exponent from 1e16 on, and has at most 17 digits
    return f"{sign}{digits}{'0' * (point - len(digits))}"


def render(x: Hypercomplex) -> str:
    """Canonical text form ``a1+a2<sym>`` (sign folded into the middle)."""
    sign = "-" if x.a2 < 0 else "+"
    return f"{_fmt(x.a1)}{sign}{_fmt(abs(x.a2))}{_SYMBOLS[x.kind]}"


def render_components(x: Hypercomplex) -> str:
    """Double numbers in idempotent-component form ``(a+|a-)``."""
    p, m = decompose(x)
    return f"({_fmt(p)}|{_fmt(m)})"
