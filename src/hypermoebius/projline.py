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

from . import algebra
from .algebra import (
    P_MINUS,
    P_PLUS,
    TAU_ALG,
    TAU_ZERO,
    Hypercomplex,
    Kind,
    _DEC,
    _coerce,
    _inverse,
    _unit_mask,
    decompose,
    is_stack,
)
from .errors import (
    DomainError,
    InvalidLiteralError,
    InvalidPointError,
    KindMismatchError,
    NotAdmissibleError,
)
from .matrix2 import Mat2, _select


@dataclass(frozen=True, slots=True)
class ProjPoint:
    kind: Kind
    x: Hypercomplex
    y: Hypercomplex

    def __post_init__(self):
        x, y = self.x, self.y
        if x.kind is not self.kind or y.kind is not self.kind:
            raise KindMismatchError("point coordinates must share the point kind")
        if type(x.a1) is not float and is_stack(x.a1):  # a stack: each point's test
            vanish = ((abs(x.a1) <= TAU_ZERO) & (abs(x.a2) <= TAU_ZERO)
                      & (abs(y.a1) <= TAU_ZERO) & (abs(y.a2) <= TAU_ZERO)).any()
        else:
            vanish = x.is_zero(TAU_ZERO) and y.is_zero(TAU_ZERO)
        if vanish:
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
    """Real-projective representative: unit norm, first nonzero entry > 0,
    a zero entry +0.0; :class:`DomainError` when the norm of (x, y) is
    infinite or NaN."""
    n = math.hypot(x, y)
    if n == 0.0:
        raise InvalidPointError("ratio of two zeros")
    if not math.isfinite(n):
        raise DomainError("the ratio of the coordinates has no finite representative")
    x, y = x / n, y / n
    if x < -tol or (abs(x) <= tol and y < 0.0):
        x, y = -x, -y
    return (x + 0.0, y + 0.0)  # -0.0 + 0.0 is +0.0


def same_class(p: CanonicalClass | ClassStack, q: CanonicalClass | ClassStack) -> bool:
    """Whether two canonical classes agree, their payloads within
    ``TAU_ALG``; for two :class:`ClassStack` of one length, the bool array
    of each row pair's answer: the affine test in bulk where both rows are
    certified, this test elsewhere."""
    if type(p) is ClassStack:
        import numpy as np

        a, b = p.affine, q.affine
        both = p.ok & q.ok
        with np.errstate(all="ignore"):  # the rows not certified hold any value
            tol = TAU_ALG * (1.0 + np.maximum(a.magnitude(), b.magnitude()))
            same = both & (abs(a.a1 - b.a1) <= tol) & (abs(a.a2 - b.a2) <= tol)
        for i in np.flatnonzero(~both).tolist():
            same[i] = same_class(p[i], q[i])
        return same
    if p.tag is not q.tag:
        return False
    if p.tag is ClassTag.AFFINE:
        scale = 1.0 + max(p.affine.magnitude(), q.affine.magnitude())
        return p.affine.close_to(q.affine, TAU_ALG * scale)
    if p.lam is not None:
        return abs(p.lam - q.lam) <= TAU_ALG * (1.0 + max(abs(p.lam), abs(q.lam)))
    if p.ratio is not None:
        return (abs(p.ratio[0] - q.ratio[0]) <= TAU_ALG
                and abs(p.ratio[1] - q.ratio[1]) <= TAU_ALG)
    return True


def admissible(p: ProjPoint, tol: float = TAU_ZERO) -> bool:
    """True when (x, y) extends to an invertible matrix; for a stack of
    points, the bool array of each point's answer.

    Componentwise: over the double numbers both idempotent-component pairs
    must be nonzero; over the dual numbers the pair of a1-parts must be.
    """
    if type(p.x.a1) is float or not is_stack(p.x.a1):
        return _admissible(p, tol)
    import numpy as np

    with np.errstate(all="ignore"):  # inf - inf in the double components
        return _admissible(p, tol) & np.ones(p.x.a1.shape, bool)


def _admissible(p: ProjPoint, tol: float):
    """The rule of :func:`admissible` on float or array coordinates: some
    coordinate of each pair exceeds tol.  A NaN exceeds nothing, in x as in
    y."""
    if p.kind is Kind.DOUBLE:
        plus, minus = _nonzero_pairs(p, tol)
        return plus & minus
    if p.kind is Kind.DUAL:
        return (abs(p.x.a1) > tol) | (abs(p.y.a1) > tol)
    return True  # complex: a field, every nonzero pair is admissible


def _nonzero_pairs(p: ProjPoint, tol: float):
    """Whether the pair of plus and the pair of minus idempotent components
    of the double point p are nonzero: some coordinate of the pair exceeds
    tol.  A NaN exceeds nothing, in x as in y."""
    x, y = p.x, p.y
    return (((abs(x.a1 + x.a2) > tol) | (abs(y.a1 + y.a2) > tol)),
            ((abs(x.a1 - x.a2) > tol) | (abs(y.a1 - y.a2) > tol)))


def canonicalize(p: ProjPoint, tol: float = TAU_ZERO) -> CanonicalClass:
    """The unique canonical class of the point.  For a stack of points, the
    :class:`ClassStack` of their classes: each row gets the class of its
    point, or the stack raises the error of its first refused point.  A
    stack is canonicalized at ``TAU_ZERO`` only, and any other tol raises
    :class:`DomainError`."""
    if type(p.x.a1) is not float and is_stack(p.x.a1):
        return _canonicalize_stack(p, tol)
    if p.kind is Kind.DOUBLE:
        return _canonicalize_double(p, tol)
    if p.kind is Kind.DUAL:
        return _canonicalize_dual(p, tol)
    if p.y.is_zero(tol):
        return CanonicalClass(ClassTag.INFINITY)
    return _affine_class(p)


def _affine_class(p: ProjPoint) -> CanonicalClass:
    """The affine class of p, whose y its caller has found a unit (as
    :func:`certify_affine` does for a stack); :class:`DomainError` when its
    coordinate x / y overflows the float range or is NaN."""
    a = p.x * _inverse(p.y)
    if not (math.isfinite(a.a1) and math.isfinite(a.a2)):
        raise DomainError("the affine coordinate x / y of the point is not a finite float")
    return CanonicalClass(ClassTag.AFFINE, affine=a)


def _canonicalize_double(p: ProjPoint, tol: float) -> CanonicalClass:
    xp, xm = decompose(p.x)
    yp, ym = decompose(p.y)
    if xp != xp or xm != xm or yp != yp or ym != ym:  # a NaN component
        raise DomainError("a NaN idempotent component leaves the class of the point undecided")
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
        return _affine_class(p)
    if abs(yp) <= tol and abs(ym) <= tol:
        return CanonicalClass(ClassTag.INFINITY)
    if abs(ym) <= tol:  # y is a plus-family zero divisor, and xm != 0
        if abs(xp) > tol:
            return _omega(ClassTag.OMEGA_PLUS, yp / xp)
        return CanonicalClass(ClassTag.SIGMA_TWO)
    # y is a minus-family zero divisor, and xp != 0
    if abs(xm) > tol:
        return _omega(ClassTag.OMEGA_MINUS, ym / xm)
    return CanonicalClass(ClassTag.SIGMA_ONE)


def _canonicalize_dual(p: ProjPoint, tol: float) -> CanonicalClass:
    if math.isnan(p.x.a1) or math.isnan(p.y.a1):
        raise DomainError("a NaN a1-part leaves the class of the point undecided")
    if abs(p.x.a1) <= tol and abs(p.y.a1) <= tol:
        return CanonicalClass(ClassTag.PR, ratio=canonical_ratio(p.x.a2, p.y.a2, tol))
    if abs(p.y.a1) > tol:
        return _affine_class(p)
    # x is a unit here
    if abs(p.y.a2) <= tol:
        return CanonicalClass(ClassTag.INFINITY)
    return _omega(ClassTag.DUAL_OMEGA, p.y.a2 / p.x.a1)


def _omega(tag: ClassTag, lam: float) -> CanonicalClass:
    """The omega class of parameter lam; :class:`DomainError` when lam is
    zero or not finite, as an infinite coordinate makes it: the label
    1/lam names no class then."""
    if not 0.0 < abs(lam) < math.inf:  # NaN too
        raise DomainError("the omega parameter of the point is zero or not a finite float")
    return CanonicalClass(tag, lam=lam)


# ---------------------------------------------------------------------------
# stacks of points
#
# A ProjPoint whose coordinates are stacks of numbers is a stack of points,
# as a Mat2 of stacks is a stack of matrices: ``image`` and ``scaled`` act
# point by point, and ``canonicalize``, ``same_class``, ``equivalent`` and
# ``admissible`` answer row by row.  ``canonicalize`` certifies the affine
# rows of a stack by one rule, which ``orbits.sampled_orbit`` shares, and
# canonicalizes every other row as a point of its own.


def stack(values):
    """The stack of a sequence of numbers, matrices or points of one kind."""
    import numpy as np

    first = values[0]
    if isinstance(first, Mat2):
        return Mat2(*map(stack, zip(*(m.entries() for m in values))))
    if isinstance(first, ProjPoint):
        return ProjPoint(first.kind, stack([p.x for p in values]), stack([p.y for p in values]))
    return Hypercomplex(first.kind, np.array([v.a1 for v in values]),
                        np.array([v.a2 for v in values]))


def from_row(kind: Kind, row):
    """The number (a1, a2), point (x1, x2, y1, y2) or matrix
    (a1, a2, b1, b2, c1, c2, d1, d2) whose coordinates are the entries of
    row, a sequence of 2, 4 or 8 floats, or of float arrays of one shape for
    a stack."""
    if len(row) == 2:
        return Hypercomplex(kind, row[0], row[1])
    if len(row) == 4:
        return ProjPoint(kind, Hypercomplex(kind, row[0], row[1]),
                         Hypercomplex(kind, row[2], row[3]))
    return Mat2(*(Hypercomplex(kind, row[i], row[i + 1]) for i in range(0, 8, 2)))


def stack_rows(kind: Kind, rows):
    """The stack of the numbers, points or matrices of a sequence of rows of
    one width (see :func:`from_row`), built by one ``numpy.array``."""
    import numpy as np

    return from_row(kind, np.array(rows).T)


def certify_affine(x: Hypercomplex, y: Hypercomplex):
    """For the stack of points [x : y], ``(ok, a)`` with a = x * _inverse(y):
    ok marks the rows where y is a unit and a is finite.  On those rows
    :func:`canonicalize` takes the affine branch, whose value is a, bit for
    bit, and does not refuse the point.  Rows with non-finite coordinates
    are computed without numpy warnings."""
    import numpy as np

    with np.errstate(all="ignore"):
        a = x * _inverse(y)
        return _unit_mask(y) & np.isfinite(a.a1) & np.isfinite(a.a2), a


class ClassStack:
    """The canonical classes of a stack of points.  ``ok`` marks the rows
    certified affine, whose coordinates are the rows of the stack
    ``affine``; ``rows`` holds the :func:`canonicalize` class of every other
    row, and None at a certified one."""

    __slots__ = ("ok", "affine", "rows")

    def __init__(self, ok, affine: Hypercomplex, rows: list):
        self.ok, self.affine, self.rows = ok, affine, rows

    def __getitem__(self, i: int) -> CanonicalClass:
        cls = self.rows[i]
        if cls is None:
            a = self.affine
            cls = CanonicalClass(ClassTag.AFFINE,
                                 affine=Hypercomplex(a.kind, float(a.a1[i]), float(a.a2[i])))
        return cls

    def tags(self) -> list[ClassTag]:
        return [ClassTag.AFFINE if cls is None else cls.tag for cls in self.rows]

    @classmethod
    def of(cls, kind: Kind, classes: list) -> "ClassStack":
        """The stack of a list of canonical classes of ``kind``: its affine
        classes are the certified rows."""
        import numpy as np

        affine = [c.tag is ClassTag.AFFINE for c in classes]
        zero = algebra.zero(kind)
        return cls(np.array(affine, bool),
                   stack([c.affine if a else zero for c, a in zip(classes, affine)]),
                   [None if a else c for c, a in zip(classes, affine)])


def _canonicalize_stack(p: ProjPoint, tol: float) -> ClassStack:
    """:func:`canonicalize` of a stack: a row that :func:`certify_affine`
    does not certify is canonicalized as a point of its own, in row order,
    so it gets the scalar class, or raises the scalar error at the same
    first row."""
    if tol != TAU_ZERO:
        raise DomainError(f"a stack of points is canonicalized at tol {TAU_ZERO:g} only")
    import numpy as np

    ok, a = certify_affine(p.x, p.y)
    rows = [None] * len(ok)
    x1, x2, y1, y2 = (v.tolist() for v in (p.x.a1, p.x.a2, p.y.a1, p.y.a2))
    kind = p.kind
    for i in np.flatnonzero(~ok).tolist():
        rows[i] = canonicalize(ProjPoint(kind, Hypercomplex(kind, x1[i], x2[i]),
                                         Hypercomplex(kind, y1[i], y2[i])))
    return ClassStack(ok, a, rows)


def equivalent(p: ProjPoint, q: ProjPoint) -> bool:
    """Whether two points are in one class; for two stacks of points, the
    bool array of each row pair's answer."""
    if p.kind is not q.kind:
        raise KindMismatchError("cannot compare points of different kinds")
    return same_class(canonicalize(p), canonicalize(q))


def orbit_label(p: ProjPoint, tol: float = TAU_ZERO) -> OrbitLabel:
    """The orbit of p: the projective line when p is admissible, else its
    non-admissible family; over the double numbers the family is read from
    the pair test of :func:`admissible`."""
    if p.kind is Kind.DOUBLE:
        plus, minus = _nonzero_pairs(p, tol)
        if plus and minus:
            return OrbitLabel.PROJECTIVE_LINE
        return OrbitLabel.PR_MINUS if minus else OrbitLabel.PR_PLUS
    if admissible(p, tol):
        return OrbitLabel.PROJECTIVE_LINE
    return OrbitLabel.PR  # complex points are all admissible


# ---------------------------------------------------------------------------
# constructive transitivity


def transporter_to(p: ProjPoint) -> Mat2:
    """An invertible matrix sending [1 : 0] to the admissible point p, or the
    stack of them for a stack of points.

    The first column is (x, y); the second column [[-y], [x]] makes
    det = x^2 + y^2, a unit exactly when p is admissible (over the complex
    field the second column is conjugated so the determinant is |x|^2+|y|^2).
    """
    ok = admissible(p)
    if not (ok.all() if is_stack(p.x.a1) else ok):
        raise NotAdmissibleError("no transporter: point is not admissible")
    if p.kind is Kind.COMPLEX:
        return Mat2(p.x, -p.y.conjugate(), p.y, p.x.conjugate())
    return Mat2(p.x, -p.y, p.y, p.x)


def transporter_nonadmissible(target: CanonicalClass) -> Mat2:
    """An invertible matrix sending the base point ``bijection_f(target.tag,
    1.0, 0.0)`` of the family onto ``target``.  For a target whose ratio is
    a pair of float arrays, the stack of the transporters onto the classes
    of its tag at each ratio.

    For the double families the transporter columns mix the target ratio
    with the opposite idempotent; when the ratio's first entry vanishes the
    alternate column arrangement is used instead.
    """
    if target.tag not in PR_TAGS:
        raise InvalidPointError(f"{target.tag} is not a non-admissible class")
    lam, mu = target.ratio
    if target.tag is ClassTag.PR:
        eps = algebra.generator(Kind.DUAL)
        return Mat2(eps + lam, _coerce(Kind.DUAL, -mu), eps + mu, _coerce(Kind.DUAL, lam))
    same, other = (P_PLUS, P_MINUS) if target.tag is ClassTag.PR_PLUS else (P_MINUS, P_PLUS)
    first = Mat2(same * lam, other, same * mu + other, same)
    alternate = Mat2(same * lam + other, same, same * mu, other)
    if not is_stack(lam):
        return first if abs(lam) > TAU_ZERO else alternate
    return _select(abs(lam) > TAU_ZERO, first, alternate)


# ---------------------------------------------------------------------------
# the real projective line and its embedding into the families


_FAMILY_BASES = {ClassTag.PR_PLUS: P_PLUS, ClassTag.PR_MINUS: P_MINUS,
                 ClassTag.PR: algebra.generator(Kind.DUAL)}


def bijection_f(tag: ClassTag, x: float, y: float) -> ProjPoint:
    """Embed the real projective point [x : y] into the non-admissible family
    of ``tag``: [x*P+ : y*P+], [x*P- : y*P-] or [eps*x : eps*y]."""
    if tag not in PR_TAGS:
        raise InvalidPointError(f"{tag} is not a non-admissible family tag")
    base = _FAMILY_BASES[tag]
    return ProjPoint(base.kind, base * x, base * y)


def real_projective_equal(v: tuple[float, float], w: tuple[float, float]) -> bool:
    cross = v[0] * w[1] - v[1] * w[0]
    return abs(cross) <= TAU_ALG * (1.0 + math.hypot(*v) * math.hypot(*w))


def real_apply(m: tuple[float, ...], v: tuple[float, float]) -> tuple[float, float]:
    """Action of the real matrix (a, b, c, d) on a real projective point."""
    a, b, c, d = m
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


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
            return algebra.finite_literal(base * coef, text)
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
