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
arithmetic, ``decompose`` and ``recompose`` then act on each number with the
expression tree they use on floats.  The module also provides the
sigma-parametrised trigonometric functions (circular for sigma=-1, linear
for sigma=0, hyperbolic for sigma=+1) used by the one-parameter subgroups.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
        """Max-abs of the two scalar coordinates (used for error bounds)."""
        return max(abs(self.a1), abs(self.a2))

    def close_to(self, other: "Hypercomplex | float", tol: float = TAU_ALG) -> bool:
        other = _coerce(self.kind, other)
        return abs(self.a1 - other.a1) <= tol and abs(self.a2 - other.a2) <= tol

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Hypercomplex({self.kind.name}, {self.a1!r}, {self.a2!r})"


def _coerce(kind: Kind, value: "Hypercomplex | float") -> Hypercomplex:
    if isinstance(value, Hypercomplex):
        return value
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
    cls = classify_element(x, tol)
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
    return Hypercomplex(Kind.COMPLEX, x.a1 / d, -x.a2 / d)


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


def stacked(kind: Kind, coords: np.ndarray) -> Hypercomplex:
    """The stack of numbers whose (a1, a2) run along the last axis of coords."""
    return Hypercomplex(kind, coords[..., 0], coords[..., 1])


def magnitude_many(x: Hypercomplex) -> np.ndarray:
    """:meth:`Hypercomplex.magnitude` of each number of a stack."""
    return np.maximum(abs(x.a1), abs(x.a2))


def invert_many(x: Hypercomplex) -> Hypercomplex:
    """:func:`invert` of each number of a stack; raises for the first non-unit."""
    if x.kind is Kind.DOUBLE:
        p, m = decompose(x)
        singular = (abs(p) <= TAU_ZERO) | (abs(m) <= TAU_ZERO)
    elif x.kind is Kind.DUAL:
        singular = abs(x.a1) <= TAU_ZERO
    else:
        singular = (abs(x.a1) <= TAU_ZERO) & (abs(x.a2) <= TAU_ZERO)
    if singular.any():
        first = Hypercomplex(x.kind, float(x.a1[singular][0]), float(x.a2[singular][0]))
        raise NotInvertibleError(classify_element(first))
    return _inverse(x)


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


def trig_triple(sigma: int, t: float) -> tuple[float, float, float]:
    """(cos_sigma t, sin_sigma t, tan_sigma t)."""
    return (cos_sigma(sigma, t), sin_sigma(sigma, t), tan_sigma(sigma, t))


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
    """
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
    exponent part.  Built from ``repr``, which is about twice as fast."""
    if v == 0.0:
        v = 0.0  # normalize -0.0
    text = repr(float(v))
    mantissa, e, exponent = text.partition("e")
    if not e:
        return text[:-2] if text.endswith(".0") else text
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
    return f"{_fmt(x.a1)}{sign}{_fmt(abs(x.a2))}{x.kind.symbol}"


def render_components(x: Hypercomplex) -> str:
    """Double numbers in idempotent-component form ``(a+|a-)``."""
    p, m = decompose(x)
    return f"({_fmt(p)}|{_fmt(m)})"
