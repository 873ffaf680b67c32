"""Seeded random generators for sweeps and probes.

All randomness in the verification suites flows through a
``numpy.random.Generator`` so that a fixed seed reproduces identical runs
byte for byte.  Units and invertible matrices are drawn well-conditioned
(components bounded away from the zero-divisor locus) so that identity
checks are limited by the formulas under test, not by float conditioning.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .algebra import Hypercomplex, Kind
from .errors import DomainError
from .matrix2 import Mat2, adj_real, double_from_components, dual_from_parts
from .projline import ProjPoint, point
from .subgroups import DoubleGL, DoubleSL, DualGL, DualSL, RealGL, SigmaKind

NONTRIVIAL = (SigmaKind.ELLIPTIC, SigmaKind.PARABOLIC, SigmaKind.HYPERBOLIC)


def rng_from_seed(seed: int) -> np.random.Generator:
    """The generator of a seed; :class:`DomainError` for a negative seed,
    which numpy refuses."""
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _signed_magnitude(rng: np.random.Generator, lo: float, hi: float) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(lo, hi)


def random_number(kind: Kind, rng: np.random.Generator) -> Hypercomplex:
    return Hypercomplex(kind, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def random_unit(kind: Kind, rng: np.random.Generator,
                lo: float = 0.1, hi: float = 10.0) -> Hypercomplex:
    """A unit with both coordinates of magnitude in [lo, hi].

    Double draws are rejected until both idempotent components stay clear of
    the zero-divisor lines (|a+-| >= lo/2).
    """
    while True:
        a1 = _signed_magnitude(rng, lo, hi)
        a2 = _signed_magnitude(rng, lo, hi)
        x = Hypercomplex(kind, a1, a2)
        if kind is Kind.DOUBLE:
            p, m = algebra.decompose(x)
            if min(abs(p), abs(m)) < lo / 2.0:
                continue
        return x


def random_numbers(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A (*shape, 2) stack of :func:`random_number` draws, in the same stream
    order as the scalar calls made one after another."""
    return rng.uniform(-2.0, 2.0, size=(*shape, 2))


def random_units(kind: Kind, rng: np.random.Generator, count: int) -> np.ndarray:
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


def random_point(kind: Kind, rng: np.random.Generator) -> ProjPoint:
    while True:
        x = random_number(kind, rng)
        y = random_number(kind, rng)
        if not (x.is_zero(1e-6) and y.is_zero(1e-6)):
            return ProjPoint(kind, x, y)


def _nonzero_real(rng: np.random.Generator) -> float:
    return _signed_magnitude(rng, 0.2, 3.0)


def random_point_mixed(kind: Kind, rng: np.random.Generator) -> ProjPoint:
    """Points drawn across every canonical class, including the
    non-admissible families and boundary constructions, then rescaled by a
    random unit half of the time."""
    if kind is Kind.DOUBLE:
        p = _random_double_mixed(rng)
    elif kind is Kind.DUAL:
        p = _random_dual_mixed(rng)
    else:
        x = random_number(kind, rng)
        y = algebra.zero(kind) if rng.random() < 0.2 else random_number(kind, rng)
        if x.is_zero(1e-6) and y.is_zero(1e-6):
            x = algebra.one(kind)
        p = ProjPoint(kind, x, y)
    if rng.random() < 0.5:
        p = p.scaled(random_unit(p.kind, rng, 0.2, 3.0))
    return p


def _random_double_mixed(rng: np.random.Generator) -> ProjPoint:
    from .algebra import P_MINUS, P_PLUS

    which = rng.integers(0, 9)
    if which == 0:  # generic
        return random_point(Kind.DOUBLE, rng)
    if which == 1:  # affine chart
        return point(Kind.DOUBLE, random_number(Kind.DOUBLE, rng), 1.0)
    if which == 2:  # infinity
        return ProjPoint(Kind.DOUBLE, random_unit(Kind.DOUBLE, rng, 0.2, 3.0),
                         algebra.zero(Kind.DOUBLE))
    if which == 3:  # omega plus
        return ProjPoint(Kind.DOUBLE, random_unit(Kind.DOUBLE, rng, 0.2, 3.0),
                         P_PLUS * _nonzero_real(rng))
    if which == 4:  # omega minus
        return ProjPoint(Kind.DOUBLE, random_unit(Kind.DOUBLE, rng, 0.2, 3.0),
                         P_MINUS * _nonzero_real(rng))
    if which == 5:  # sigma classes
        if rng.random() < 0.5:
            return ProjPoint(Kind.DOUBLE, P_PLUS * _nonzero_real(rng),
                             P_MINUS * _nonzero_real(rng))
        return ProjPoint(Kind.DOUBLE, P_MINUS * _nonzero_real(rng),
                         P_PLUS * _nonzero_real(rng))
    if which in (6, 7):  # non-admissible families, with zero-entry boundaries
        base = P_PLUS if which == 6 else P_MINUS
        r = rng.random()
        if r < 0.25:
            coords = (base * _nonzero_real(rng), algebra.zero(Kind.DOUBLE))
        elif r < 0.5:
            coords = (algebra.zero(Kind.DOUBLE), base * _nonzero_real(rng))
        else:
            coords = (base * _nonzero_real(rng), base * _nonzero_real(rng))
        return ProjPoint(Kind.DOUBLE, *coords)
    # zero-divisor x against unit y (affine class with non-unit numerator)
    zd = (P_PLUS if rng.random() < 0.5 else P_MINUS) * _nonzero_real(rng)
    return ProjPoint(Kind.DOUBLE, zd, random_unit(Kind.DOUBLE, rng, 0.2, 3.0))


def _random_dual_mixed(rng: np.random.Generator) -> ProjPoint:
    eps = algebra.generator(Kind.DUAL)
    which = rng.integers(0, 6)
    if which == 0:
        return random_point(Kind.DUAL, rng)
    if which == 1:
        return point(Kind.DUAL, random_number(Kind.DUAL, rng), 1.0)
    if which == 2:  # infinity
        return ProjPoint(Kind.DUAL, random_unit(Kind.DUAL, rng, 0.2, 3.0),
                         algebra.zero(Kind.DUAL))
    if which == 3:  # dual omega
        return ProjPoint(Kind.DUAL, random_unit(Kind.DUAL, rng, 0.2, 3.0),
                         eps * _nonzero_real(rng))
    if which == 4:  # non-admissible family, with boundary zeros
        r = rng.random()
        if r < 0.25:
            coords = (eps * _nonzero_real(rng), algebra.zero(Kind.DUAL))
        elif r < 0.5:
            coords = (algebra.zero(Kind.DUAL), eps * _nonzero_real(rng))
        else:
            coords = (eps * _nonzero_real(rng), eps * _nonzero_real(rng))
        return ProjPoint(Kind.DUAL, *coords)
    # nilpotent numerator over a unit denominator
    return ProjPoint(Kind.DUAL, eps * _nonzero_real(rng),
                     random_unit(Kind.DUAL, rng, 0.2, 3.0))


def random_gl(kind: Kind, rng: np.random.Generator) -> Mat2:
    """Random invertible matrix with a well-conditioned determinant."""
    from .matrix2 import det

    while True:
        m = Mat2(kind, *(random_number(kind, rng) for _ in range(4)))
        d = det(m)
        if kind is Kind.DOUBLE:
            p, q = algebra.decompose(d)
            if min(abs(p), abs(q)) >= 0.1:
                return m
        elif kind is Kind.DUAL:
            if abs(d.a1) >= 0.1:
                return m
        else:
            if d.magnitude() >= 0.1:
                return m


def random_sl_real(rng: np.random.Generator) -> np.ndarray:
    """Random real matrix of determinant one."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        d = float(np.linalg.det(m))
        if d >= 0.1:
            return m / np.sqrt(d)


def random_sl(kind: Kind, rng: np.random.Generator) -> Mat2:
    """Random determinant-one matrix over the given algebra."""
    if kind is Kind.DOUBLE:
        return double_from_components(random_sl_real(rng), random_sl_real(rng))
    if kind is Kind.DUAL:
        a1 = random_sl_real(rng)
        a2 = rng.uniform(-2.0, 2.0, size=(2, 2))
        drift = float(np.trace(a1 @ adj_real(a2)))
        a2 = a2 - (drift / 2.0) * a1  # tr(A1 @ adj(A1)) = 2 det(A1) = 2
        return dual_from_parts(a1, a2)
    from .matrix2 import normalize_to_sl

    return normalize_to_sl(random_gl(kind, rng))


def random_specs(rng: np.random.Generator, n_per_family: int = 20) -> dict[str, list]:
    """Random subgroup specs keyed by family: n_per_family of each with
    nontrivial regimes, plus one with a trivial component for real-gl,
    double-sl and dual-gl."""
    families = {}
    families["real-gl"] = [
        RealGL(NONTRIVIAL[int(rng.integers(0, 3))], rng.uniform(-1, 1))
        for _ in range(n_per_family)
    ] + [RealGL(SigmaKind.TRIVIAL, rng.uniform(-1, 1))]
    families["double-sl"] = [
        DoubleSL(NONTRIVIAL[int(rng.integers(0, 3))],
                 NONTRIVIAL[int(rng.integers(0, 3))],
                 rng.uniform(0.5, 2.0))
        for _ in range(n_per_family)
    ] + [DoubleSL(NONTRIVIAL[int(rng.integers(0, 3))], SigmaKind.TRIVIAL)]
    families["double-gl"] = [
        DoubleGL(NONTRIVIAL[int(rng.integers(0, 3))], rng.uniform(-1, 1),
                 NONTRIVIAL[int(rng.integers(0, 3))], rng.uniform(-1, 1),
                 rng.uniform(0.5, 2.0))
        for _ in range(n_per_family)
    ]
    families["dual-gl"] = [
        DualGL(NONTRIVIAL[int(rng.integers(0, 3))], rng.uniform(-1, 1),
               _signed_magnitude(rng, 0.5, 2.0), rng.uniform(-1, 1))
        for _ in range(n_per_family)
    ] + [DualGL(SigmaKind.TRIVIAL, rng.uniform(-1, 1),
                _signed_magnitude(rng, 0.5, 2.0), rng.uniform(-1, 1))]
    families["dual-sl"] = [
        DualSL(NONTRIVIAL[int(rng.integers(0, 3))],
               _signed_magnitude(rng, 0.5, 2.0),
               rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(n_per_family)
    ]
    return families
