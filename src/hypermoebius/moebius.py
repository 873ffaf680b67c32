"""Moebius maps: invertible matrices acting on point classes.

A map is represented by a matrix whose determinant is a unit; matrices that
differ by a unit scalar act identically.  The module provides the action,
composition, equality modulo units, the scalar kernel of the matrix-to-map
projection, the trace-squared classification, and fixed points.

Over the double and dual numbers the classification reduces a det-1
representative to real component matrices and classifies those; fixed-point
search follows the same reduction and can return one-parameter families
(a phenomenon the zero divisors and nilpotents make possible).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from . import algebra
from .algebra import (
    TAU_ALG,
    TAU_ZERO,
    ElementClass,
    Hypercomplex,
    Kind,
    decompose,
    invert,
    recompose,
)
from .errors import (
    DomainError,
    FixesEverythingError,
    KindMismatchError,
    SingularMatrixError,
)
from .matrix2 import (
    Mat2,
    det,
    identity,
    normalize_to_sl,
    split_double,
    split_dual,
    trace,
)
from .projline import (
    CanonicalClass,
    ClassTag,
    ProjPoint,
    bijection_f,
    canonical_ratio,
    canonicalize,
    image,
    real_projective_equal,
)

TAU_CLASS = 1e-9  # half-width of the parabolic band around tr^2 = 4


@dataclass(frozen=True, slots=True)
class MoebiusMap:
    """A class map [x:y] -> [ax+by : cx+dy] carried by an invertible matrix.

    A stack of matrices makes a stack of maps, each matrix tested; then
    :func:`compose` and :func:`apply_point` act map by map.

    The private slot ``_sl`` holds the determinant-one representative.  It is
    filled at most once, on first use by :func:`classify_map` or
    :func:`fixed_points`; maps that are only applied never compute it.
    """

    rep: Mat2
    _sl: "Mat2 | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cls = algebra._classify_first(det(self.rep))
        if cls is not ElementClass.UNIT:
            raise SingularMatrixError(
                cls, "a Moebius map needs an invertible representative matrix")

    @property
    def kind(self) -> Kind:
        return self.rep.kind

    def __str__(self) -> str:
        return str(self.rep)


_IDENTITY_MAPS = {kind: MoebiusMap(identity(kind)) for kind in Kind}


def identity_map(kind: Kind) -> MoebiusMap:
    """The identity map of ``kind``: one shared map per kind."""
    return _IDENTITY_MAPS[kind]


def _normalized(m: MoebiusMap) -> Mat2:
    """The determinant-one representative of ``m``, kept in its ``_sl`` slot."""
    if m._sl is None:
        object.__setattr__(m, "_sl", normalize_to_sl(m.rep))
    return m._sl


def apply_point(m: MoebiusMap, p: ProjPoint) -> ProjPoint:
    """The image point (a representative of the image class)."""
    if m.kind is not p.kind:
        raise KindMismatchError("map and point kinds differ")
    return image(m.rep, p)


def apply(m: MoebiusMap, p: ProjPoint) -> CanonicalClass:
    return canonicalize(apply_point(m, p))


def compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    if m1.kind is not m2.kind:
        raise KindMismatchError("cannot compose maps of different kinds")
    return MoebiusMap(m1.rep @ m2.rep)


def mob_equal(m1: MoebiusMap, m2: MoebiusMap) -> bool:
    """True when the representatives differ by a unit scalar.

    The scalar is solved for from the best-conditioned entry (componentwise
    over double, a1-level then eps-level over dual) and then checked against
    all four entries.  Against :func:`identity_map` that scalar is entry a
    of ``m1`` itself (its components recombined over double), so the test
    is answered in closed form without the solve.
    """
    if m1.kind is not m2.kind:
        raise KindMismatchError("cannot compare maps of different kinds")
    kind = m1.kind
    if m2 is _IDENTITY_MAPS[kind]:
        r = m1.rep
        u = recompose(*decompose(r.a)) if kind is Kind.DOUBLE else r.a
        tt = TAU_ALG * (1.0 + max(r.max_entry_magnitude(), 1.0))
        return r.a.close_to(u, tt) and r.b.is_zero(tt) and r.c.is_zero(tt) and r.d.close_to(u, tt)
    e1 = m1.rep.entries()
    e2 = m2.rep.entries()
    if kind is Kind.DOUBLE:
        p1 = [decompose(v) for v in e1]
        p2 = [decompose(v) for v in e2]
        ip = max(range(4), key=lambda i: abs(p2[i][0]))
        im = max(range(4), key=lambda i: abs(p2[i][1]))
        if abs(p2[ip][0]) <= TAU_ZERO or abs(p2[im][1]) <= TAU_ZERO:
            return False
        u = recompose(p1[ip][0] / p2[ip][0], p1[im][1] / p2[im][1])
    elif kind is Kind.DUAL:
        i1 = max(range(4), key=lambda i: abs(e2[i].a1))
        if abs(e2[i1].a1) <= TAU_ZERO:
            return False
        u1 = e1[i1].a1 / e2[i1].a1
        u2 = (e1[i1].a2 - u1 * e2[i1].a2) / e2[i1].a1
        u = Hypercomplex(Kind.DUAL, u1, u2)
    else:
        i1 = max(range(4), key=lambda i: e2[i].magnitude())
        if e2[i1].magnitude() <= TAU_ZERO:
            return False
        u = e1[i1] * invert(e2[i1])
    scale = 1.0 + max(m1.rep.max_entry_magnitude(), m2.rep.max_entry_magnitude())
    return all(a.close_to(b * u, TAU_ALG * scale) for a, b in zip(e1, e2))


# ---------------------------------------------------------------------------
# kernel of the matrix -> map projection


N_PROBES = 100  # random points each kernel candidate must fix


def kernel_check(name: str, seed: int = 7):
    """det-1 scalar matrices acting as the identity on a random probe set.

    ``name`` is one of "real", "complex", "double", "dual".  Real matrices
    come back as numpy arrays, ring matrices as :class:`Mat2`.  Every
    candidate scalar u with u^2 = 1 is checked against ``N_PROBES`` random
    points.
    """
    from .projline import equivalent
    from .sampling import random_point, rng_from_seed

    rng = rng_from_seed(seed)
    if name.strip().lower() == "real":
        import numpy as np

        kernel = []
        for u in (1.0, -1.0):
            m = u * np.eye(2)
            probes = [rng.uniform(-3, 3, size=2) for _ in range(N_PROBES)]
            if all(real_projective_equal(m @ v, v) for v in probes):
                kernel.append(m)
        return kernel
    k = Kind.from_name(name)
    kernel = []
    for u in filter(algebra.is_unit, algebra.sqrt_all(algebra.one(k))):
        m = MoebiusMap(identity(k).scale(u))
        if all(
            equivalent(apply_point(m, p), p)
            for p in (random_point(k, rng) for _ in range(N_PROBES))
        ):
            kernel.append(m.rep)
    return kernel


def kernel_labels(name: str, seed: int = 7) -> list[str]:
    """Human-readable names of the kernel scalars, e.g. ["I", "-I", "jI", "-jI"]."""
    mats = kernel_check(name, seed)
    labels = []
    for m in mats:
        u = m.a if isinstance(m, Mat2) else m[0, 0]
        labels.append(_scalar_label(u))
    return labels


def _scalar_label(u) -> str:
    if not isinstance(u, Hypercomplex):  # an entry of a real matrix
        return "I" if u > 0 else "-I"
    if abs(u.a2) <= TAU_ALG:
        return "I" if u.a1 > 0 else "-I"
    sym = u.kind.symbol
    return f"{sym}I" if u.a2 > 0 else f"-{sym}I"


# ---------------------------------------------------------------------------
# trace-squared classification


class MapTag(Enum):
    IDENTITY = "Identity"
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"
    STRICTLY_LOXODROMIC = "StrictlyLoxodromic"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class MapClass:
    """Classification record: one tag over a field, a component pair over
    the double numbers (plus component first), the a1-projection's tag over
    the dual numbers."""

    kind: Kind
    tags: tuple[MapTag, ...]
    tr2: Hypercomplex
    is_identity: bool

    def label(self) -> str:
        if self.is_identity:
            return "Identity"
        if len(self.tags) == 2:
            return f"({self.tags[0]}, {self.tags[1]})"
        return str(self.tags[0])


def _classify_real_tr2(t2: float) -> MapTag:
    if abs(t2 - 4.0) < TAU_CLASS:
        return MapTag.PARABOLIC
    if t2 < 4.0:
        return MapTag.ELLIPTIC
    return MapTag.HYPERBOLIC


def _classify_complex_tr2(re: float, im: float) -> MapTag:
    if abs(im) >= TAU_CLASS or re < -TAU_CLASS:
        return MapTag.STRICTLY_LOXODROMIC
    return _classify_real_tr2(re)


def classify_map(m: MoebiusMap) -> MapClass:
    sl = _normalized(m)
    t = trace(sl)
    t2 = t * t
    is_id = mob_equal(m, identity_map(m.kind))
    if m.kind is Kind.DOUBLE:
        tags = ((MapTag.IDENTITY,) * 2 if is_id
                else tuple(_classify_real_component(*g) for g in split_double(sl)))
    elif m.kind is Kind.DUAL:
        tags = (MapTag.IDENTITY if is_id
                else _classify_real_component(*split_dual(sl)[0]),)
    else:
        tags = (MapTag.IDENTITY if is_id else _classify_complex_tr2(t2.a1, t2.a2),)
    return MapClass(m.kind, tags, t2, is_id)


def _classify_real_component(a: float, b: float, c: float, d: float) -> MapTag:
    if _is_scalar_real(a, b, c, d):
        return MapTag.IDENTITY
    return _classify_real_tr2(_square(a + d))


def _square(x):
    """x ** 2 of a float or complex entry expression; :class:`DomainError`
    where ``**`` raises OverflowError past the float range (``*`` would
    give inf)."""
    try:
        return x ** 2
    except OverflowError:
        raise DomainError("a square of the map's entries overflows the float range") from None


def _is_scalar_real(a, b, c, d, tol: float = TAU_ALG) -> bool:
    return abs(b) <= tol and abs(c) <= tol and abs(a - d) <= tol


# ---------------------------------------------------------------------------
# fixed points


@dataclass(frozen=True, slots=True)
class FixedFamily:
    """A one-parameter family of fixed classes, described rather than
    enumerated.  ``representatives`` holds a few verified members."""

    description: str
    representatives: tuple[ProjPoint, ...]


@dataclass(frozen=True, slots=True)
class FixedPointSet:
    points: tuple[CanonicalClass, ...]
    families: tuple[FixedFamily, ...] = ()


_INF = (1.0, 0.0)  # the root [1 : 0]


def _fixed_roots(a, b, c, d, tol: float) -> list:
    """Fixed points of x -> (ax+b)/(cx+d) over float or complex entries.

    Each root is a pair (x, 1.0), or ``_INF``.  The roots solve
    c x^2 + (d-a) x - b = 0 with disc = (d-a)^2 + 4bc.  The double-root forms
    [a-d : 2c] and [2b : d-a] have cross product -disc, so when
    |disc| <= tol*|(a-d, 2c)|*|(2b, d-a)| they agree projectively within tol
    and give one double root, divided out by the larger denominator.
    Otherwise the roots are [q : 2c] and [-2b : q] with q = a-d +- sqrt(disc)
    free of cancellation; the first is infinity when c is zero within
    tol*(1 + max |entry|).  Real entries with disc < 0 have no roots.
    """
    small = tol * (1.0 + max(abs(a), abs(b), abs(c), abs(d)))

    def root(x, y):
        return _INF if abs(y) <= small else (x / y, 1.0)

    disc = _square(d - a) + 4.0 * c * b
    spread = math.hypot(abs(a - d), abs(2.0 * c)) * math.hypot(abs(2.0 * b), abs(d - a))
    if abs(disc) <= tol * spread:
        if abs(d - a) >= abs(2.0 * c):
            return [root(2.0 * b, d - a)]
        return [root(a - d, 2.0 * c)]
    if isinstance(disc, complex):
        r = cmath.sqrt(disc)
    elif disc > 0:
        r = math.sqrt(disc)
    else:
        return []
    q = a - d + r if abs(a - d + r) >= abs(a - d - r) else a - d - r
    return [root(q, 2.0 * c), (-2.0 * b / q, 1.0)]


def _real_fixed_points(a: float, b: float, c: float, d: float, tol: float = TAU_ALG):
    """Real projective fixed points of the real matrix (a, b, c, d) as (x, y)
    pairs; None when the matrix is scalar (everything is fixed)."""
    return None if _is_scalar_real(a, b, c, d, tol) else _fixed_roots(a, b, c, d, tol)


def _fixed_points_complex(m: MoebiusMap, tol: float) -> list[CanonicalClass]:
    try:
        roots = _fixed_roots(*(complex(e.a1, e.a2) for e in m.rep.entries()), tol)
    except OverflowError:  # abs of a complex past the float range, as abs(1e308+1e308j)
        raise DomainError("a fixed-point term of the map's entries overflows the float range") \
            from None
    return [CanonicalClass(ClassTag.AFFINE, affine=Hypercomplex(Kind.COMPLEX, z.real, z.imag))
            if y else CanonicalClass(ClassTag.INFINITY) for z, y in roots]


def _combine_double(fp: tuple[float, float], fm: tuple[float, float]) -> ProjPoint:
    return ProjPoint(Kind.DOUBLE, recompose(fp[0], fm[0]), recompose(fp[1], fm[1]))


def _fixed_points_double(m: MoebiusMap, tol: float) -> FixedPointSet:
    fixed_plus, fixed_minus = (_real_fixed_points(*g, tol) for g in split_double(_normalized(m)))
    if fixed_plus is None and fixed_minus is None:
        raise FixesEverythingError("identity map fixes every class")
    points: list[CanonicalClass] = []
    families: list[FixedFamily] = []
    # order is 1 when the free component is the plus one, -1 when it is minus
    for tag, own, other, description, order in (
            (ClassTag.PR_PLUS, fixed_plus, fixed_minus,
             "free plus-component over a fixed minus-component", 1),
            (ClassTag.PR_MINUS, fixed_minus, fixed_plus,
             "fixed plus-component over a free minus-component", -1)):
        if own is not None:
            points.extend(CanonicalClass(tag, ratio=canonical_ratio(*v)) for v in own)
            continue
        # a scalar component fixes its whole PR family, and every class over
        # each fixed point of the other component
        reps = [bijection_f(tag, *v) for v in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))]
        families.append(FixedFamily(f"every class of the {tag.value} family", tuple(reps)))
        for fixed in other:
            reps = tuple(_combine_double(*(v, fixed)[::order])
                         for v in ((0.5, 1.0), (1.0, 0.0), (2.0, 1.0)))
            families.append(FixedFamily(description, reps))
    if fixed_plus is not None and fixed_minus is not None:
        points.extend(canonicalize(_combine_double(fp, fm))
                      for fp in fixed_plus for fm in fixed_minus)
    return FixedPointSet(tuple(points), tuple(families))


def _fixed_points_dual(m: MoebiusMap, tol: float) -> FixedPointSet:
    """Fixed classes of a dual map, solved level by level.

    Level one gives the real fixed points of the a1-part A1.  Over each, the
    eps level is a linear equation lin*s = rhs for the eps-coordinate, in
    the chart x1 + eps*s of an affine root or [1 : eps*s] of infinity (where
    s = 0 is infinity itself and s != 0 an omega class).  A scalar A1 passes
    every real base, and the eps-part A2 picks the bases with s free.
    """
    r = _normalized(m)
    (a1, b1, c1, d1), (a2, b2, c2, d2) = split_dual(r)
    tol_s = tol * (1.0 + r.max_entry_magnitude())
    one = algebra.one(Kind.DUAL)
    points: list[CanonicalClass] = []
    families: list[FixedFamily] = []
    free = _is_scalar_real(a1, b1, c1, d1, tol_s)
    bases = _fixed_roots(*((a2, b2, c2, d2) if free else (a1, b1, c1, d1)), tol)
    # affine classes first, then the classes over infinity: the CLI's order
    for x1, y1 in sorted(bases, key=lambda v: not v[1]):
        x1 += 0.0  # normalize -0.0
        if y1:
            lin = 2.0 * c1 * x1 + (d1 - a1)
            rhs = b2 - c2 * x1 * x1 - (d2 - a2) * x1
        else:
            lin, rhs = a1 - d1, c2
        if not free and abs(lin) > tol_s:
            s = rhs / lin
            if y1:
                points.append(CanonicalClass(
                    ClassTag.AFFINE, affine=Hypercomplex(Kind.DUAL, x1, s)))
            elif abs(s) > tol_s:
                points.append(CanonicalClass(ClassTag.DUAL_OMEGA, lam=s))
            else:
                points.append(CanonicalClass(ClassTag.INFINITY))
        elif free or abs(rhs) <= tol_s:
            if y1:
                reps = tuple(ProjPoint(Kind.DUAL, Hypercomplex(Kind.DUAL, x1, s), one)
                             for s in (0.0, 1.0, -2.0))
                families.append(FixedFamily(
                    f"affine classes {x1:g} + eps*s for every real s", reps))
            else:
                points.append(CanonicalClass(ClassTag.INFINITY))
                reps = tuple(ProjPoint(Kind.DUAL, one, Hypercomplex(Kind.DUAL, 0.0, s))
                             for s in (1.0, -1.0, 2.0))
                families.append(FixedFamily("every omega class [1 : eps*lam]", reps))
    return FixedPointSet(tuple(points), tuple(families))


def fixed_points(m: MoebiusMap, tol: float = TAU_ALG) -> FixedPointSet:
    """All fixed classes of a non-identity map, families included.

    Raises FixesEverythingError for identity-class maps.  Every returned
    point satisfies apply(m, point) == point; family members are spot
    checked through their stored representatives.
    """
    if mob_equal(m, identity_map(m.kind)):
        raise FixesEverythingError("identity map fixes every class")
    if m.kind is Kind.COMPLEX:
        return FixedPointSet(tuple(_fixed_points_complex(m, tol)))
    if m.kind is Kind.DOUBLE:
        return _fixed_points_double(m, tol)
    return _fixed_points_dual(m, tol)


def class_point(kind: Kind, cls: CanonicalClass) -> ProjPoint:
    """A representative point of a canonical class (used to re-apply maps)."""
    from .algebra import P_MINUS, P_PLUS

    if cls.tag is ClassTag.AFFINE:
        return ProjPoint(kind, cls.affine, algebra.one(kind))
    if cls.tag is ClassTag.INFINITY:
        return ProjPoint(kind, algebra.one(kind), algebra.zero(kind))
    if cls.tag is ClassTag.OMEGA_PLUS:
        return ProjPoint(kind, algebra.one(kind), P_PLUS * cls.lam)
    if cls.tag is ClassTag.OMEGA_MINUS:
        return ProjPoint(kind, algebra.one(kind), P_MINUS * cls.lam)
    if cls.tag is ClassTag.DUAL_OMEGA:
        return ProjPoint(kind, algebra.one(kind), algebra.generator(Kind.DUAL) * cls.lam)
    if cls.tag is ClassTag.SIGMA_ONE:
        return ProjPoint(kind, P_PLUS, P_MINUS)
    if cls.tag is ClassTag.SIGMA_TWO:
        return ProjPoint(kind, P_MINUS, P_PLUS)
    return bijection_f(cls.tag, *cls.ratio)
