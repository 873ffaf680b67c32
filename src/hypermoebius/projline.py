"""Cosets of pairs over an algebra under unit scaling.

A point [x : y] is the class of (x, y) != (0, 0) under multiplication by an
invertible scalar.  Over the double and dual numbers this splits into the
projective line proper (admissible points, i.e. pairs extendable to an
invertible matrix) plus extra non-admissible families that form copies of
the real projective line.

Every point falls into exactly one canonical class; the class tags, their
payloads and the display labels follow the conventions:

  double:  affine a, infinity, [1 : lam*P+] and [1 : lam*P-] (the "omega"
           classes), [P+ : P-] and [P- : P+] (the "sigma" classes), and the
           non-admissible families [r*P+ : s*P+], [r*P- : s*P-];
  dual:    affine a, infinity, [1 : eps*lam], and non-admissible
           [eps*r : eps*s].
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algebra
from .algebra import (
    P_MINUS,
    P_PLUS,
    TAU_ALG,
    TAU_ZERO,
    Hypercomplex,
    Kind,
    _DEC,
    decompose,
    invert,
)
from .errors import (
    InvalidLiteralError,
    InvalidPointError,
    KindMismatchError,
    MembershipError,
    NotAdmissibleError,
)
from .matrix2 import Mat2, components_double, mat2, membership, parts_dual


@dataclass(frozen=True, slots=True)
class ProjPoint:
    kind: Kind
    x: Hypercomplex
    y: Hypercomplex

    def __post_init__(self):
        if self.x.kind is not self.kind or self.y.kind is not self.kind:
            raise KindMismatchError("point coordinates must share the point kind")
        if self.x.is_zero(TAU_ZERO) and self.y.is_zero(TAU_ZERO):
            raise InvalidPointError("both homogeneous coordinates vanish")

    def scaled(self, u: Hypercomplex) -> "ProjPoint":
        return ProjPoint(self.kind, self.x * u, self.y * u)

    def __str__(self) -> str:
        return render_point(self)


def act(g: Mat2, x: Hypercomplex, y: Hypercomplex) -> tuple[Hypercomplex, Hypercomplex]:
    """(ax + by, cx + dy) for g = [[a, b], [c, d]]: the homogeneous coordinates
    of the image of [x : y], also for a stack of matrices g."""
    return g.a * x + g.b * y, g.c * x + g.d * y


def image(g: Mat2, p: ProjPoint) -> ProjPoint:
    """[ax + by : cx + dy], the image of p = [x : y] under g = [[a, b], [c, d]]."""
    return ProjPoint(p.kind, *act(g, p.x, p.y))


def point(kind: Kind, x, y) -> ProjPoint:
    conv = lambda v: v if isinstance(v, Hypercomplex) else algebra.number(kind, v)
    return ProjPoint(kind, conv(x), conv(y))


class ClassTag(Enum):
    AFFINE = "Affine"
    INFINITY = "Infinity"
    OMEGA_PLUS = "OmegaPlus"
    OMEGA_MINUS = "OmegaMinus"
    SIGMA_ONE = "SigmaOne"
    SIGMA_TWO = "SigmaTwo"
    DUAL_OMEGA = "DualOmega"
    PR_PLUS = "NonAdmissiblePRPlus"
    PR_MINUS = "NonAdmissiblePRMinus"
    PR = "NonAdmissiblePR"

    def __str__(self) -> str:
        return self.value


PR_TAGS = {ClassTag.PR_PLUS, ClassTag.PR_MINUS, ClassTag.PR}  # the non-admissible classes


@dataclass(frozen=True, slots=True)
class CanonicalClass:
    """A class tag plus its payload (exactly one payload field is set).

    ``affine`` carries the value a of [a : 1]; ``lam`` the real parameter of
    an omega class [1 : lam*P+-] or [1 : eps*lam]; ``ratio`` the canonical
    real-projective representative of a non-admissible family.
    """

    tag: ClassTag
    affine: Hypercomplex | None = None
    lam: float | None = None
    ratio: tuple[float, float] | None = None

    def label(self) -> str:
        if self.tag is ClassTag.AFFINE:
            return algebra.render(self.affine)
        if self.tag is ClassTag.INFINITY:
            return "∞"
        if self.tag is ClassTag.SIGMA_ONE:
            return "σ1"
        if self.tag is ClassTag.SIGMA_TWO:
            return "σ2"
        if self.tag is ClassTag.OMEGA_MINUS:
            return f"{_fmt(1.0 / self.lam)}ω1"
        if self.tag is ClassTag.OMEGA_PLUS:
            return f"{_fmt(1.0 / self.lam)}ω2"
        if self.tag is ClassTag.DUAL_OMEGA:
            return f"{_fmt(1.0 / self.lam)}ω"
        name = {ClassTag.PR_PLUS: "PR+", ClassTag.PR_MINUS: "PR-", ClassTag.PR: "PR"}[self.tag]
        return f"{name}[{_fmt(self.ratio[0])}:{_fmt(self.ratio[1])}]"

    def __str__(self) -> str:
        return self.label()


def _fmt(v: float) -> str:
    if v == 0.0:
        v = 0.0
    return format(v, ".12g")


class OrbitLabel(Enum):
    PROJECTIVE_LINE = "ProjectiveLine"
    PR_PLUS = "PRPlus"
    PR_MINUS = "PRMinus"
    PR = "PR"

    def __str__(self) -> str:
        return self.value


def canonical_ratio(x: float, y: float, tol: float = TAU_ZERO) -> tuple[float, float]:
    """Real-projective representative: unit norm, first nonzero entry > 0."""
    n = math.hypot(x, y)
    if n == 0.0:
        raise InvalidPointError("ratio of two zeros")
    x, y = x / n, y / n
    if x < -tol or (abs(x) <= tol and y < 0.0):
        x, y = -x, -y
    return (x, y)


def same_class(p: CanonicalClass, q: CanonicalClass, tol: float = TAU_ALG) -> bool:
    if p.tag is not q.tag:
        return False
    if p.tag is ClassTag.AFFINE:
        scale = 1.0 + max(p.affine.magnitude(), q.affine.magnitude())
        return p.affine.close_to(q.affine, tol * scale)
    if p.lam is not None:
        return abs(p.lam - q.lam) <= tol * (1.0 + max(abs(p.lam), abs(q.lam)))
    if p.ratio is not None:
        return (abs(p.ratio[0] - q.ratio[0]) <= tol
                and abs(p.ratio[1] - q.ratio[1]) <= tol)
    return True


def admissible(p: ProjPoint, tol: float = TAU_ZERO) -> bool:
    """True when (x, y) extends to an invertible matrix.

    Componentwise: over the double numbers both idempotent-component pairs
    must be nonzero; over the dual numbers the pair of a1-parts must be.
    """
    if p.kind is Kind.DOUBLE:
        xp, xm = decompose(p.x)
        yp, ym = decompose(p.y)
        return (max(abs(xp), abs(yp)) > tol) and (max(abs(xm), abs(ym)) > tol)
    if p.kind is Kind.DUAL:
        return max(abs(p.x.a1), abs(p.y.a1)) > tol
    return True  # complex: a field, every nonzero pair is admissible


def canonicalize(p: ProjPoint, tol: float = TAU_ZERO) -> CanonicalClass:
    """The unique canonical class of the point."""
    if p.kind is Kind.DOUBLE:
        return _canonicalize_double(p, tol)
    if p.kind is Kind.DUAL:
        return _canonicalize_dual(p, tol)
    if p.y.is_zero(tol):
        return CanonicalClass(ClassTag.INFINITY)
    return CanonicalClass(ClassTag.AFFINE, affine=p.x * invert(p.y, tol))


def _canonicalize_double(p: ProjPoint, tol: float) -> CanonicalClass:
    xp, xm = decompose(p.x)
    yp, ym = decompose(p.y)
    plus_zero = abs(xp) <= tol and abs(yp) <= tol
    minus_zero = abs(xm) <= tol and abs(ym) <= tol
    if plus_zero and minus_zero:
        raise InvalidPointError("both homogeneous coordinates vanish")
    if minus_zero:
        return CanonicalClass(ClassTag.PR_PLUS, ratio=canonical_ratio(xp, yp, tol))
    if plus_zero:
        return CanonicalClass(ClassTag.PR_MINUS, ratio=canonical_ratio(xm, ym, tol))
    # both component pairs nonzero: the admissible cases
    if abs(yp) > tol and abs(ym) > tol:
        return CanonicalClass(ClassTag.AFFINE, affine=p.x * invert(p.y, tol))
    if abs(yp) <= tol and abs(ym) <= tol:
        return CanonicalClass(ClassTag.INFINITY)
    if abs(ym) <= tol:  # y is a plus-family zero divisor, and xm != 0
        if abs(xp) > tol:
            return CanonicalClass(ClassTag.OMEGA_PLUS, lam=yp / xp)
        return CanonicalClass(ClassTag.SIGMA_TWO)
    # y is a minus-family zero divisor, and xp != 0
    if abs(xm) > tol:
        return CanonicalClass(ClassTag.OMEGA_MINUS, lam=ym / xm)
    return CanonicalClass(ClassTag.SIGMA_ONE)


def _canonicalize_dual(p: ProjPoint, tol: float) -> CanonicalClass:
    if abs(p.x.a1) <= tol and abs(p.y.a1) <= tol:
        return CanonicalClass(ClassTag.PR, ratio=canonical_ratio(p.x.a2, p.y.a2, tol))
    if abs(p.y.a1) > tol:
        return CanonicalClass(ClassTag.AFFINE, affine=p.x * invert(p.y, tol))
    # x is a unit here
    if abs(p.y.a2) <= tol:
        return CanonicalClass(ClassTag.INFINITY)
    return CanonicalClass(ClassTag.DUAL_OMEGA, lam=p.y.a2 / p.x.a1)


def equivalent(p: ProjPoint, q: ProjPoint,
               tol_zero: float = TAU_ZERO, tol_alg: float = TAU_ALG) -> bool:
    if p.kind is not q.kind:
        raise KindMismatchError("cannot compare points of different kinds")
    return same_class(canonicalize(p, tol_zero), canonicalize(q, tol_zero), tol_alg)


def orbit_label(p: ProjPoint, tol: float = TAU_ZERO) -> OrbitLabel:
    if admissible(p, tol):
        return OrbitLabel.PROJECTIVE_LINE
    if p.kind is Kind.DUAL:
        return OrbitLabel.PR
    xp, xm = decompose(p.x)
    yp, ym = decompose(p.y)
    if max(abs(xm), abs(ym)) <= tol:
        return OrbitLabel.PR_PLUS
    return OrbitLabel.PR_MINUS


# ---------------------------------------------------------------------------
# constructive transitivity


def transporter_to(p: ProjPoint, tol: float = TAU_ZERO) -> Mat2:
    """An invertible matrix sending [1 : 0] to the admissible point p.

    The first column is (x, y); the second column [[-y], [x]] makes
    det = x^2 + y^2, a unit exactly when p is admissible (over the complex
    field the second column is conjugated so the determinant is |x|^2+|y|^2).
    """
    if not admissible(p, tol):
        raise NotAdmissibleError("no transporter: point is not admissible")
    if p.kind is Kind.COMPLEX:
        return Mat2(p.kind, p.x, -p.y.conjugate(), p.y, p.x.conjugate())
    return Mat2(p.kind, p.x, -p.y, p.y, p.x)


def pr_base_point(kind: Kind, tag: ClassTag) -> ProjPoint:
    """The base point of a non-admissible family: [P+:0], [P-:0] or [eps:0]."""
    if tag is ClassTag.PR_PLUS:
        return ProjPoint(Kind.DOUBLE, P_PLUS, algebra.zero(Kind.DOUBLE))
    if tag is ClassTag.PR_MINUS:
        return ProjPoint(Kind.DOUBLE, P_MINUS, algebra.zero(Kind.DOUBLE))
    if tag is ClassTag.PR:
        return ProjPoint(Kind.DUAL, algebra.generator(Kind.DUAL), algebra.zero(Kind.DUAL))
    raise InvalidPointError(f"{tag} is not a non-admissible family tag")


def transporter_nonadmissible(kind: Kind, target: CanonicalClass,
                              tol: float = TAU_ZERO) -> Mat2:
    """An invertible matrix sending the family base point onto ``target``.

    For the double families the transporter columns mix the target ratio
    with the opposite idempotent; when the ratio's first entry vanishes the
    alternate column arrangement is used instead.
    """
    if target.tag not in PR_TAGS:
        raise InvalidPointError(f"{target.tag} is not a non-admissible class")
    lam, mu = target.ratio
    if target.tag is ClassTag.PR:
        if kind is not Kind.DUAL:
            raise KindMismatchError("PR targets live over the dual numbers")
        eps = algebra.generator(Kind.DUAL)
        return mat2(Kind.DUAL, [[eps + lam, -mu], [eps + mu, lam]])
    if kind is not Kind.DOUBLE:
        raise KindMismatchError("PR+- targets live over the double numbers")
    same, other = (P_PLUS, P_MINUS) if target.tag is ClassTag.PR_PLUS else (P_MINUS, P_PLUS)
    if abs(lam) > tol:
        return Mat2(Kind.DOUBLE, same * lam, other, same * mu + other, same)
    return Mat2(Kind.DOUBLE, same * lam + other, same, same * mu, other)


# ---------------------------------------------------------------------------
# projections onto the real group and line


def project_sl(g: Mat2, tol_alg: float = TAU_ALG):
    """Component projection(s) of a det-1 matrix onto real det-1 matrices.

    Double matrices project onto the pair of idempotent components, dual
    matrices onto their a1-part.  Raises MembershipError when det(g) != 1.
    """
    if not membership(g, tol_alg=tol_alg).in_sl:
        raise MembershipError("matrix is not in the det-1 group")
    if g.kind is Kind.DOUBLE:
        return components_double(g)
    if g.kind is Kind.DUAL:
        return parts_dual(g)[0]
    raise KindMismatchError("projection is defined for double and dual matrices")


def bijection_f(kind: Kind, x: float, y: float, family: str = "+") -> ProjPoint:
    """Embed a real projective point into a non-admissible family.

    Double: [x*P+- : y*P+-] according to ``family``; dual: [eps*x : eps*y].
    """
    if kind is Kind.DOUBLE:
        p = P_PLUS if family == "+" else P_MINUS
        return ProjPoint(Kind.DOUBLE, p * x, p * y)
    if kind is Kind.DUAL:
        eps = algebra.generator(Kind.DUAL)
        return ProjPoint(Kind.DUAL, eps * x, eps * y)
    raise KindMismatchError("embedding is defined for double and dual kinds")


def real_projective_equal(v: tuple[float, float], w: tuple[float, float],
                          tol: float = TAU_ALG) -> bool:
    cross = v[0] * w[1] - v[1] * w[0]
    return abs(cross) <= tol * (1.0 + math.hypot(*v) * math.hypot(*w))


def real_apply(m: np.ndarray, v: tuple[float, float]) -> tuple[float, float]:
    """Action of a real matrix on a real projective point."""
    return (m[0, 0] * v[0] + m[0, 1] * v[1], m[1, 0] * v[0] + m[1, 1] * v[1])


# ---------------------------------------------------------------------------
# text form

_POINT_RE = re.compile(r"^\[([^:\[\]]+):([^:\[\]]+)\]$")
_P_SUGAR_RE = re.compile(rf"^(?P<coef>[+-]?{_DEC})?P(?P<sign>[+-])$")


def parse_entry(kind: Kind, text: str) -> Hypercomplex:
    """Algebra literal, with "P+" / "P-" (optionally scaled) sugar for double."""
    s = text.replace("−", "-").replace(" ", "")
    if kind is Kind.DOUBLE:
        m = _P_SUGAR_RE.match(s)
        if m:
            coef = float(m.group("coef")) if m.group("coef") else 1.0
            base = P_PLUS if m.group("sign") == "+" else P_MINUS
            return base * coef
    return algebra.parse_number(kind, s)


def parse_point(kind: Kind, text: str) -> ProjPoint:
    """Parse "[x : y]" with entries in the algebra grammar plus P+- sugar."""
    s = text.replace(" ", "")
    m = _POINT_RE.match(s)
    if not m:
        raise InvalidLiteralError(f"cannot parse {text!r} as a point [x : y]")
    return ProjPoint(kind, parse_entry(kind, m.group(1)), parse_entry(kind, m.group(2)))


def render_point(p: ProjPoint) -> str:
    return f"[{algebra.render(p.x)} : {algebra.render(p.y)}]"
