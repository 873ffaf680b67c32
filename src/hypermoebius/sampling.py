"""Seeded random generators for sweeps and probes.

All randomness in the verification suites flows from one seeded stream, a
:class:`Draws` over ``numpy.random.PCG64``, so that a fixed seed reproduces
identical runs byte for byte.  Units and invertible matrices are drawn
well-conditioned (components bounded away from the zero-divisor locus) so
that identity checks are limited by the formulas under test, not by float
conditioning.  Every function here also accepts a ``numpy.random.Generator``,
whose stream a :class:`Draws` of the same seed reproduces.

The unit, point and matrix samplers are each one walk over the stream, a
``*_row`` function that returns a row of floats: 2 for a number, 4 for a
point and 8 for a matrix (``projline.from_row``).  ``verify`` stacks the
rows of a chunk of cases with one ``numpy.array``, and the sampler of the
same name without ``_row`` builds its ``Hypercomplex``, ``ProjPoint`` or
``Mat2`` from the row.  A walk tests its rejections on the floats and forms
each product with the float expressions of ``Hypercomplex.__mul__`` and
``matrix2.det``, so its row holds the bits the ring operations give.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra
from .algebra import P_MINUS, P_PLUS, Hypercomplex, Kind
from .errors import DomainError
from .matrix2 import Mat2, adj_real
from .projline import ProjPoint, from_row
from .subgroups import DoubleGL, DoubleSL, DualGL, DualSL, RealGL, SigmaKind

NONTRIVIAL = (SigmaKind.ELLIPTIC, SigmaKind.PARABOLIC, SigmaKind.HYPERBOLIC)

_BLOCK = 1_024  # words per refill: a small buffer keeps small bulk draws cheap
_UNIT = 2.0 ** -53  # a double in [0, 1) is the top 53 bits of a word times this
_SMALL = 8  # bulk draws this small (a 2x2 draw) cost less in Python than in ufuncs


class Draws:
    """The draws of ``numpy.random.default_rng(seed)``, served from a buffer
    of its 64-bit words.

    A scalar ``Generator`` call costs about 1-2.5 us in numpy's argument
    handling; a double here costs a list lookup.  The words come from the
    generator's ``PCG64``, ``_BLOCK`` at a time, and each method applies
    numpy's formula to them:

    - ``random`` is ``(word >> 11) * 2**-53``, PCG64's ``next_double``;
    - ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``;
    - ``integers`` is Lemire's bounded method on 32-bit halves, the low half
      of a word first; the high half waits for the next 32-bit request, also
      across calls, as PCG64's ``has_uint32``/``uinteger`` pair keeps it.

    Bulk calls (``size=``) take their doubles from the same buffer, and the
    generator itself fills what the buffer lacks, so scalar and bulk calls
    keep stream order.
    """

    __slots__ = ("_gen", "_words", "_array", "_doubles", "_next", "_half")

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self._words = self._array = np.empty(0)
        self._doubles: list[float] = []
        self._next = _BLOCK  # the buffer is empty: the first call refills it
        self._half: int | None = None  # the pending high half of a word

    def _refill(self) -> None:
        self._doubles = []  # frees the spent block before the next is built
        self._words = self._gen.bit_generator.random_raw(_BLOCK)
        self._array = (self._words >> 11) * _UNIT
        self._doubles = self._array.tolist()
        self._next = 0

    def random(self, size=None):
        """A double in [0, 1), or an array of them of shape ``size``."""
        if size is not None:
            return self._bulk(size, 0.0, 1.0)
        i = self._next
        if i == _BLOCK:
            self._refill()
            i = 0
        self._next = i + 1
        return self._doubles[i]

    def uniform(self, low=0.0, high=1.0, size=None):
        """``low + (high - low) * random()``, or an array of shape ``size``."""
        if size is not None:
            return self._bulk(size, low, high)
        i = self._next
        if i == _BLOCK:
            self._refill()
            i = 0
        self._next = i + 1
        return low + (high - low) * self._doubles[i]

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) without ``high``."""
        if high is None:
            low, high = 0, low
        bound = high - low
        if not 0 < bound <= 1 << 32:
            raise ValueError(f"integers serves bounds up to 2**32, got [{low}, {high})")
        if bound == 1:  # numpy draws nothing for a single value
            return low
        m = self._uint32() * bound
        if m & 0xFFFFFFFF < bound:
            threshold = (1 << 32) % bound
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * bound
        return low + (m >> 32)

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        i = self._next
        if i == _BLOCK:
            self._refill()
            i = 0
        self._next = i + 1
        word = int(self._words[i])  # 7% of verify's draws: no list of words
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def _bulk(self, size, low, high) -> np.ndarray:
        """A new array, shaped ``size``, of ``low + (high - low) * u`` for each
        of the next ``prod(size)`` doubles u."""
        n = math.prod(size) if isinstance(size, tuple) else size
        i = self._next
        if i == _BLOCK:
            if n > _SMALL:  # the buffer is spent: one call of the generator
                return self._gen.uniform(low, high, size)
            self._refill()
            i = 0
        j = i + n
        span = high - low
        if j <= _BLOCK:
            self._next = j
            if n <= _SMALL:
                return np.array([low + span * u for u in self._doubles[i:j]]).reshape(size)
            out = self._array[i:j] * span
        else:  # the rest of the buffer, then the generator
            out = np.empty(n)
            out[:_BLOCK - i] = self._array[i:]
            self._next = _BLOCK
            self._gen.random(out=out[_BLOCK - i:])
            out *= span
        out += low
        return out.reshape(size)


# a string, so that numpy.random loads with the first draw, not with this
# module: loading it at import raised verify's peak RSS by about 0.4 MB
Rng = "Draws | np.random.Generator"


def rng_from_seed(seed: int) -> Draws:
    """The draws of a seed; :class:`DomainError` for a negative seed,
    which numpy refuses."""
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return Draws(seed)


def _signed_magnitude(rng: Rng, lo: float, hi: float) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(lo, hi)


def random_regime(rng: Rng) -> SigmaKind:
    """A nontrivial regime, K, N or A, with equal chances."""
    return NONTRIVIAL[int(rng.integers(0, len(NONTRIVIAL)))]


def random_number(kind: Kind, rng: Rng) -> Hypercomplex:
    return Hypercomplex(kind, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def random_unit_row(kind: Kind, rng: Rng,
                    lo: float = 0.1, hi: float = 10.0) -> tuple[float, float]:
    """A unit with both coordinates of magnitude in [lo, hi], as (a1, a2).

    Double draws are rejected until both idempotent components stay clear of
    the zero-divisor lines (|a+-| >= lo/2).
    """
    while True:
        a1 = _signed_magnitude(rng, lo, hi)
        a2 = _signed_magnitude(rng, lo, hi)
        if kind is Kind.DOUBLE and min(abs(a1 + a2), abs(a1 - a2)) < lo / 2.0:
            continue
        return a1, a2


def random_unit(kind: Kind, rng: Rng, lo: float = 0.1, hi: float = 10.0) -> Hypercomplex:
    return from_row(kind, random_unit_row(kind, rng, lo, hi))


def random_numbers(rng: Rng, shape: tuple[int, ...]) -> np.ndarray:
    """A (*shape, 2) stack of :func:`random_number` draws, in the same stream
    order as the scalar calls made one after another."""
    return rng.uniform(-2.0, 2.0, size=(*shape, 2))


def random_units(kind: Kind, rng: Rng, count: int) -> np.ndarray:
    """A (count, 2) stack of default :func:`random_unit` draws, in the same
    stream order.

    Each attempt takes four doubles, a sign and a magnitude per coordinate,
    and the magnitude is formed as ``Generator.uniform`` forms it.  A round
    draws only as many attempts as units are still missing, so rejected
    double attempts leave the generator where the scalar loop leaves it.
    """
    lo, hi = 0.1, 10.0
    out = np.empty((0, 2))
    while len(out) < count:
        u = rng.random((count - len(out), 2, 2))
        x = np.where(u[..., 0] < 0.5, 1.0, -1.0) * (lo + (hi - lo) * u[..., 1])
        if kind is Kind.DOUBLE:
            p, m = algebra.decompose(algebra.stacked(kind, x))
            x = x[np.minimum(abs(p), abs(m)) >= lo / 2.0]
        out = np.concatenate((out, x))
    return out


def random_point_row(rng: Rng) -> tuple[float, float, float, float]:
    """Two random numbers x and y, redrawn while both are within 1e-6 of
    zero, as (x1, x2, y1, y2)."""
    while True:
        row = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), \
            rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        if max(map(abs, row)) > 1e-6:
            return row


def random_point(kind: Kind, rng: Rng) -> ProjPoint:
    return from_row(kind, random_point_row(rng))


def _nonzero_real(rng: Rng) -> float:
    return _signed_magnitude(rng, 0.2, 3.0)


def _times_nonzero_real(base: Hypercomplex, rng: Rng) -> tuple[float, float]:
    """base * r for a random nonzero real r, as (a1, a2)."""
    r = _nonzero_real(rng)
    return base.a1 * r, base.a2 * r


def random_point_mixed_row(kind: Kind, rng: Rng) -> tuple[float, float, float, float]:
    """Points drawn across every canonical class, including the
    non-admissible families and boundary constructions, then rescaled by a
    random unit half of the time, as (x1, x2, y1, y2)."""
    if kind is Kind.DOUBLE:
        x1, x2, y1, y2 = _random_double_mixed(rng)
    elif kind is Kind.DUAL:
        x1, x2, y1, y2 = _random_dual_mixed(rng)
    else:
        x1, x2 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        y1, y2 = (0.0, 0.0) if rng.random() < 0.2 else \
            (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if max(abs(x1), abs(x2), abs(y1), abs(y2)) <= 1e-6:
            x1, x2 = 1.0, 0.0
    if rng.random() < 0.5:
        u1, u2 = random_unit_row(kind, rng, 0.2, 3.0)
        s = kind.sigma  # [x*u : y*u], each product as Hypercomplex.__mul__ forms it
        return (x1 * u1 + s * x2 * u2, x1 * u2 + x2 * u1,
                y1 * u1 + s * y2 * u2, y1 * u2 + y2 * u1)
    return x1, x2, y1, y2


def random_point_mixed(kind: Kind, rng: Rng) -> ProjPoint:
    return from_row(kind, random_point_mixed_row(kind, rng))


def _random_double_mixed(rng: Rng) -> tuple[float, float, float, float]:
    which = rng.integers(0, 9)
    if which == 0:  # generic
        return random_point_row(rng)
    if which == 1:  # affine chart
        return rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), 1.0, 0.0
    if which == 2:  # infinity
        return (*random_unit_row(Kind.DOUBLE, rng, 0.2, 3.0), 0.0, 0.0)
    if which in (3, 4):  # omega plus, omega minus
        return (*random_unit_row(Kind.DOUBLE, rng, 0.2, 3.0),
                *_times_nonzero_real(P_PLUS if which == 3 else P_MINUS, rng))
    if which == 5:  # sigma classes
        x, y = (P_PLUS, P_MINUS) if rng.random() < 0.5 else (P_MINUS, P_PLUS)
        return (*_times_nonzero_real(x, rng), *_times_nonzero_real(y, rng))
    if which in (6, 7):  # non-admissible families, with zero-entry boundaries
        return _family_point(P_PLUS if which == 6 else P_MINUS, rng)
    # zero-divisor x against unit y (affine class with non-unit numerator)
    zd = _times_nonzero_real(P_PLUS if rng.random() < 0.5 else P_MINUS, rng)
    return (*zd, *random_unit_row(Kind.DOUBLE, rng, 0.2, 3.0))


def _family_point(base: Hypercomplex, rng: Rng) -> tuple[float, float, float, float]:
    """A point [base * r : base * s] of a non-admissible family, r or s zero
    half of the time."""
    r = rng.random()
    if r < 0.25:
        return (*_times_nonzero_real(base, rng), 0.0, 0.0)
    if r < 0.5:
        return (0.0, 0.0, *_times_nonzero_real(base, rng))
    return (*_times_nonzero_real(base, rng), *_times_nonzero_real(base, rng))


def _random_dual_mixed(rng: Rng) -> tuple[float, float, float, float]:
    eps = algebra.generator(Kind.DUAL)
    which = rng.integers(0, 6)
    if which == 0:
        return random_point_row(rng)
    if which == 1:
        return rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), 1.0, 0.0
    if which == 2:  # infinity
        return (*random_unit_row(Kind.DUAL, rng, 0.2, 3.0), 0.0, 0.0)
    if which == 3:  # dual omega
        return (*random_unit_row(Kind.DUAL, rng, 0.2, 3.0), *_times_nonzero_real(eps, rng))
    if which == 4:  # non-admissible family, with boundary zeros
        return _family_point(eps, rng)
    # nilpotent numerator over a unit denominator
    return (*_times_nonzero_real(eps, rng), *random_unit_row(Kind.DUAL, rng, 0.2, 3.0))


def random_gl_row(kind: Kind, rng: Rng) -> list[float]:
    """Random invertible matrix with a well-conditioned determinant, as
    (a1, a2, b1, b2, c1, c2, d1, d2)."""
    s = kind.sigma
    while True:
        row = a1, a2, b1, b2, c1, c2, d1, d2 = [rng.uniform(-2.0, 2.0) for _ in range(8)]
        e1 = (a1 * d1 + s * a2 * d2) - (b1 * c1 + s * b2 * c2)  # det = a*d - b*c
        e2 = (a1 * d2 + a2 * d1) - (b1 * c2 + b2 * c1)
        if kind is Kind.DOUBLE:  # both idempotent components
            size = min(abs(e1 + e2), abs(e1 - e2))
        else:
            size = abs(e1) if kind is Kind.DUAL else max(abs(e1), abs(e2))
        if size >= 0.1:
            return row


def random_gl(kind: Kind, rng: Rng) -> Mat2:
    return from_row(kind, random_gl_row(kind, rng))


def random_sl_real(rng: Rng) -> np.ndarray:
    """Random real matrix of determinant one."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        d = float(np.linalg.det(m))
        if d >= 0.1:
            return m / np.sqrt(d)


def random_sl_row(kind: Kind, rng: Rng) -> list[float]:
    """Random determinant-one matrix over the given algebra, as
    (a1, a2, b1, b2, c1, c2, d1, d2)."""
    if kind is Kind.DOUBLE:  # A+ P+ + A- P-
        plus, minus = random_sl_real(rng).ravel().tolist(), random_sl_real(rng).ravel().tolist()
        return [v for p, m in zip(plus, minus) for v in ((p + m) / 2.0, (p - m) / 2.0)]
    if kind is Kind.DUAL:  # A1 + eps A2
        a1 = random_sl_real(rng)
        a2 = rng.uniform(-2.0, 2.0, size=(2, 2))
        drift = float(np.trace(a1 @ adj_real(a2)))
        a2 = a2 - (drift / 2.0) * a1  # tr(A1 @ adj(A1)) = 2 det(A1) = 2
        return [v for pair in zip(a1.ravel().tolist(), a2.ravel().tolist()) for v in pair]
    from .matrix2 import normalize_to_sl

    g = normalize_to_sl(random_gl(kind, rng))
    return [v for e in g.entries() for v in (e.a1, e.a2)]


def random_sl(kind: Kind, rng: Rng) -> Mat2:
    return from_row(kind, random_sl_row(kind, rng))


def random_specs(rng: Rng, n_per_family: int = 20) -> dict[str, list]:
    """Random subgroup specs keyed by family: n_per_family of each with
    nontrivial regimes, plus one with a trivial component for real-gl,
    double-sl and dual-gl."""
    families = {}
    families["real-gl"] = [
        RealGL(random_regime(rng), rng.uniform(-1, 1))
        for _ in range(n_per_family)
    ] + [RealGL(SigmaKind.TRIVIAL, rng.uniform(-1, 1))]
    families["double-sl"] = [
        DoubleSL(random_regime(rng),
                 random_regime(rng),
                 rng.uniform(0.5, 2.0))
        for _ in range(n_per_family)
    ] + [DoubleSL(random_regime(rng), SigmaKind.TRIVIAL)]
    families["double-gl"] = [
        DoubleGL(random_regime(rng), rng.uniform(-1, 1),
                 random_regime(rng), rng.uniform(-1, 1),
                 rng.uniform(0.5, 2.0))
        for _ in range(n_per_family)
    ]
    families["dual-gl"] = [
        DualGL(random_regime(rng), rng.uniform(-1, 1),
               _signed_magnitude(rng, 0.5, 2.0), rng.uniform(-1, 1))
        for _ in range(n_per_family)
    ] + [DualGL(SigmaKind.TRIVIAL, rng.uniform(-1, 1),
                _signed_magnitude(rng, 0.5, 2.0), rng.uniform(-1, 1))]
    families["dual-sl"] = [
        DualSL(random_regime(rng),
               _signed_magnitude(rng, 0.5, 2.0),
               rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(n_per_family)
    ]
    return families
