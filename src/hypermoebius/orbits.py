"""Orbit sampling and closed-form orbit-equation residuals.

:func:`sampled_orbit` builds each row in one pass.  Ground truth is the
direct matrix action: evaluate the subgroup at t, act on the start point,
canonicalize.  The t values are evaluated as stacks: one stacked matrix per
``STACK_SIZE`` values acts on the start point, and a row it certifies as
affine takes its coordinate from the stack, the value canonicalize gives;
any other row is made from its own matrix.  On an affine row the closed
forms chosen once for the family are then evaluated, and a non-finite
residual is reported as None.

Three closed forms are covered for the det-1 double families:

  * the general two-regime equation relating the inverse sigma-tangents of
    the two component coordinates (valid on the principal branches);
  * its shear-shear (both components parabolic) polynomial special case;
  * the "one component trivial" case, where the orbit is the line
    u - v = y_minus.  The circulating polynomial form of that line equation
    reads 2v = u^2 - v^2 - y_minus (u - v); multiplying the left side by
    y_minus makes it an identity on the line while the unmodified form only
    holds when additionally y_minus = 1 or u + v = y_minus.  Both variants
    are computed so the discrepancy stays visible.

For the det-1 dual family the long displayed equation is transcribed
literally and compared against the oracle rows; agreement is reported per
parameter set, not asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    TAU_ZERO,
    Hypercomplex,
    Kind,
    arctan_sigma,
    cos_sigma,
    recompose,
    sin_sigma,
)
from .errors import DomainError, KindMismatchError
from .matrix2 import Mat2
from .projline import (
    PR_TAGS,
    CanonicalClass,
    ClassTag,
    ProjPoint,
    act,
    canonicalize,
    certify_affine,
    image,
)
from .subgroups import DoubleSL, DualSL, SigmaKind, eval_subgroup
from . import algebra

MAX_GRID_STEPS = 10**6
STACK_SIZE = 4096  # t values per stacked evaluation: bounds the arrays of one orbit


@dataclass(frozen=True, slots=True)
class StartPoint:
    """Affine-chart start: [y+ P+ + y- P- : 1] (double) or [a + eps b : 1]."""

    kind: Kind
    c1: float
    c2: float

    def to_point(self) -> ProjPoint:
        if self.kind is Kind.DOUBLE:
            return ProjPoint(Kind.DOUBLE, recompose(self.c1, self.c2),
                             algebra.one(Kind.DOUBLE))
        if self.kind is Kind.DUAL:
            return ProjPoint(Kind.DUAL, Hypercomplex(Kind.DUAL, self.c1, self.c2),
                             algebra.one(Kind.DUAL))
        raise KindMismatchError("orbit starts live over the double or dual numbers")


def start_double(y_plus: float, y_minus: float) -> StartPoint:
    return StartPoint(Kind.DOUBLE, float(y_plus), float(y_minus))


def start_dual(a: float, b: float) -> StartPoint:
    return StartPoint(Kind.DUAL, float(a), float(b))


@dataclass(frozen=True, slots=True)
class OrbitRow:
    t: float
    cls: CanonicalClass
    u: float | None
    v: float | None
    residual_primary: float | None = None
    residual_secondary: float | None = None


@dataclass(frozen=True, slots=True)
class OrbitSample:
    spec: object
    start: StartPoint
    rows: tuple[OrbitRow, ...]


def t_grid(t_start: float, t_end: float, step: float) -> list[float]:
    """Inclusive grid from start to end; the endpoint joins within half a step.
    An end before the start, or more than ``MAX_GRID_STEPS`` steps, raise
    :class:`DomainError` up front; a step too small to move t in floats
    raises it after ``MAX_GRID_STEPS`` values."""
    if not all(math.isfinite(v) for v in (t_start, t_end, step)):
        raise DomainError("grid start, end and step must be finite")
    if step <= 0:
        raise DomainError("grid step must be positive")
    if t_end < t_start:
        raise DomainError(f"grid end {t_end!r} is before its start {t_start!r}")
    if (t_end - t_start) / step > MAX_GRID_STEPS:
        raise DomainError(f"grid spans more than {MAX_GRID_STEPS} steps")
    ts = []
    k = 0
    while True:
        t = t_start + k * step
        if t > t_end + step / 2.0:
            break
        if k > MAX_GRID_STEPS + 1:
            raise DomainError(f"grid step {step!r} does not move t from {t!r}")
        ts.append(t)
        k += 1
    return ts


# ---------------------------------------------------------------------------
# closed-form residuals


def residual_two_regime(sigma_plus: int, sigma_minus: int, a: float,
                        start: StartPoint, u: float, v: float) -> float | None:
    """General double-family orbit equation (difference of the two sides).

    arctan_{s+}[(y+ - (u+v)) / (y+ (u+v) - s+)]
        - (1/a) * arctan_{s-}[(y- - (u-v)) / (y- (u-v) - s-)]

    Returns None (inapplicable) for a = 0, vanishing denominators, or
    arguments outside the hyperbolic-inverse domain.
    """
    return _two_regime(sigma_plus, sigma_minus, a, start)(u, v)


def _two_regime(sigma_plus: int, sigma_minus: int, a: float, start: StartPoint):
    """:func:`residual_two_regime` of one sample as a function (u, v) -> value."""
    if abs(a) <= TAU_ZERO:
        return lambda u, v: None
    y_plus, y_minus = start.c1, start.c2

    def value(u: float, v: float) -> float | None:
        u_prime, v_prime = u + v, u - v
        den_p = y_plus * u_prime - sigma_plus
        den_m = y_minus * v_prime - sigma_minus
        scale_p = 1.0 + abs(y_plus * u_prime)
        scale_m = 1.0 + abs(y_minus * v_prime)
        if abs(den_p) <= TAU_ZERO * scale_p or abs(den_m) <= TAU_ZERO * scale_m:
            return None
        arg_p = (y_plus - u_prime) / den_p
        arg_m = (y_minus - v_prime) / den_m
        if sigma_plus == 1 and abs(arg_p) >= 1.0:
            return None
        if sigma_minus == 1 and abs(arg_m) >= 1.0:
            return None
        return arctan_sigma(sigma_plus, arg_p) - arctan_sigma(sigma_minus, arg_m) / a
    return value


def residual_shear_pair(a: float, start: StartPoint, u: float, v: float) -> float | None:
    """Polynomial orbit equation for the shear-shear double family:

    u^2 - v^2 + (a-1) y+ y- / (y+ - a y-) * u - (a+1) y+ y- / (y+ - a y-) * v
    """
    return _shear_pair(a, start)(u, v)


def _shear_pair(a: float, start: StartPoint):
    """:func:`residual_shear_pair` of one sample as a function (u, v) ->
    value: the guard, its coefficient and a -+ 1 are computed once."""
    y_plus, y_minus = start.c1, start.c2
    den = y_plus - a * y_minus
    if abs(den) <= TAU_ZERO * (1.0 + abs(y_plus) + abs(a * y_minus)):
        return lambda u, v: None
    coef = y_plus * y_minus / den
    a_minus, a_plus = a - 1.0, a + 1.0

    # (u+v)(u-v) instead of u^2 - v^2: same value, no cancellation blowup
    # on rows near the projective poles
    return lambda u, v: (u + v) * (u - v) + coef * (a_minus * u - a_plus * v)


@dataclass(frozen=True, slots=True)
class LineOrbitResiduals:
    """Residuals for the trivial-minus-component family.

    ``line``:      (u - v) - y_minus, the orbit line itself;
    ``corrected``: 2 v y_minus - (u^2 - v^2) + y_minus (u - v), an identity
                   on the line;
    ``printed``:   2 v - (u^2 - v^2) + y_minus (u - v), the circulating
                   variant, zero only when y_minus = 1 or u + v = y_minus.
    """

    line: float
    corrected: float
    printed: float


def residual_trivial_minus(start: StartPoint, u: float, v: float) -> LineOrbitResiduals:
    return LineOrbitResiduals((u - v) - start.c2, *_line_forms(start.c2)(u, v))


def _line_forms(y_minus: float):
    """The corrected and circulating forms of :class:`LineOrbitResiduals` of
    one sample as a function (u, v) -> (corrected, printed)."""
    def forms(u: float, v: float) -> tuple[float, float]:
        diff_sq = (u + v) * (u - v)
        cross = y_minus * (u - v)
        return 2.0 * v * y_minus - diff_sq + cross, 2.0 * v - diff_sq + cross
    return forms


def residual_dual_orbit(spec: DualSL, start: StartPoint, u: float, v: float) -> float | None:
    """Literal transcription of the long displayed dual orbit equation.

    The value is the left side of the displayed "... = 0" statement; it is
    reported, not asserted, since the displayed expression does not match
    the oracle rows (see ``dual_orbit_report``).  None where it is
    inapplicable, or where one of its powers or its exponential overflows
    the float range (they raise OverflowError there), as a non-finite value
    is None in the orbit row.
    """
    return _dual_orbit(spec, start)(u, v)


def _dual_orbit(spec: DualSL, start: StartPoint):
    """:func:`residual_dual_orbit` of one sample as a function (u, v) ->
    value.  The terms that do not depend on the row, cos_s(t0), sin_s(t0),
    lam e^(lam1 t0) and the powers of a^2 - s, are computed once; when one
    overflows, every row is None."""
    s = spec.sigma.sigma
    a, b = start.c1, start.c2
    aa = a * a
    den2 = aa - s
    try:
        c0, s0 = cos_sigma(s, spec.t0), sin_sigma(s, spec.t0)
        growth = spec.lam * math.exp(spec.lam1 * spec.t0)
        den2_2, den2_3 = den2 ** 2, den2 ** 3
    except OverflowError:
        return lambda u, v: None
    aa_s = aa + s

    def value(u: float, v: float) -> float | None:
        uu = u * u
        den1 = a * u - s
        den3 = uu - s
        scale = 1.0 + max(abs(a * u), abs(aa), abs(uu))
        if min(abs(den1), abs(den2), abs(den3)) <= TAU_ZERO * scale:
            return None
        arg = (a - u) / den1
        if s == 1 and abs(arg) >= 1.0:
            return None
        angle = arctan_sigma(s, arg)
        try:
            den1_2, den1_3 = den1 ** 2, den1 ** 3
        except OverflowError:
            return None
        p = (uu + s) * aa_s - 4.0 * s * a * u
        q1 = (b - a) * den3 / den2
        q2 = (p / den2_2) * c0 + 2.0 * s * ((a - u) * den1 / den2_2) * s0
        odd = (a - u) * den1_3 / (den3 * den2_3)
        even = p * den1_2 / (den3 * den2_3)
        q3 = 2.0 * odd * c0 + even * s0
        q4 = even * c0 + 2.0 * s * odd * s0
        total = q1 - aa * q2 - s * q3 * q4
        return v - growth * angle * total
    return value


# ---------------------------------------------------------------------------
# the row builder

def _residual_columns(spec, start: StartPoint):
    """The family's closed forms as one function (t, u, v) -> (primary,
    secondary), chosen once per sample with the terms that do not depend on
    the row; None marks an inapplicable column.  They are two-regime and
    shear-pair (both shears only) for two active det-1 double components,
    corrected and circulating line form for a trivial minus component, and
    the literal transcription for det-1 dual."""
    if isinstance(spec, DualSL):
        dual = _dual_orbit(spec, start)
        return lambda t, u, v: (dual(u, v), None)
    if not isinstance(spec, DoubleSL) or spec.sigma_plus is SigmaKind.TRIVIAL:
        return lambda t, u, v: (None, None)
    sp, sm, a = spec.sigma_plus.sigma, spec.sigma_minus.sigma, spec.a
    if sm is None or a == 0.0:
        forms = _line_forms(start.c2)
        return lambda t, u, v: forms(u, v)
    shear = _shear_pair(a, start) if sp == sm == 0 else lambda u, v: None
    regime = _two_regime(sp, sm, a, start)
    # the principal-branch window where arctan inverts the circular tangent
    window = math.pi / 2.0 - 1e-9

    def two_regime(t, u, v):
        primary = None
        if (sp != -1 or abs(t) < window) and (sm != -1 or abs(a * t) < window):
            primary = regime(u, v)
        return primary, shear(u, v)
    return two_regime


def sampled_orbit(spec, start: StartPoint, ts) -> OrbitSample:
    """Orbit rows with their residual columns.

    Per t the subgroup matrix acts on the start point and the image is
    canonicalized: that direct action is the oracle.  An affine row then
    gets the family's closed-form residuals; a non-finite one is None.

    The t values are taken ``STACK_SIZE`` at a time.  One stacked evaluation
    of the family acts on the start point and certifies each affine row; its
    coordinate is the one canonicalize gives, bit for bit.  Every other row is
    made from the one matrix at its t, in t order, so it keeps its class and
    a refusal is raised at the same first t as row by row.
    """
    import numpy as np

    p = start.to_point()
    kind = p.kind
    columns = _residual_columns(spec, start)
    ts = np.fromiter(ts, float)
    rows = []
    for lo in range(0, len(ts), STACK_SIZE):
        chunk = ts[lo:lo + STACK_SIZE]
        for t, certified, u, v in zip(chunk.tolist(), *_stacked_affine(spec, p, chunk)):
            if certified:
                cls = CanonicalClass(ClassTag.AFFINE, affine=Hypercomplex(kind, u, v))
            else:
                cls = canonicalize(image(eval_subgroup(spec, t), p))
                if cls.tag in PR_TAGS:  # an invertible matrix keeps the start admissible
                    raise DomainError(
                        f"the subgroup matrix at t={t!r} loses a component to rounding")
                if cls.tag is not ClassTag.AFFINE:
                    rows.append(OrbitRow(t, cls, None, None))
                    continue
                u, v = cls.affine.a1, cls.affine.a2
            primary, secondary = columns(t, u, v)
            rows.append(OrbitRow(t, cls, u, v, _finite(primary), _finite(secondary)))
    return OrbitSample(spec, start, tuple(rows))


def _finite(r: float | None) -> float | None:
    return r if r is not None and math.isfinite(r) else None


def _stacked_affine(spec, p: ProjPoint, ts: np.ndarray) -> tuple[list, list, list]:
    """Per t, whether one stacked evaluation over ts certifies the row, and
    the two coordinates of the image of p there, as three lists.

    A row is certified when every entry of its matrix is finite (so
    eval_subgroup accepts it) and :func:`projline.certify_affine` certifies
    the image (so canonicalize takes the affine branch, whose value it gives,
    and does not refuse it).  No stack, no row certified, when math raises
    on an element or the family gives no stack of matrices of p's kind.
    """
    import numpy as np

    try:
        g = eval_subgroup(spec, ts)
    except (OverflowError, ValueError):
        g = None
    if not isinstance(g, Mat2) or g.kind is not p.kind:
        uncertified = [False] * len(ts)
        return uncertified, uncertified, uncertified
    with np.errstate(all="ignore"):
        ok, a = certify_affine(*act(g, p.x, p.y))
        for e in g.entries():
            ok = ok & np.isfinite(e.a1) & np.isfinite(e.a2)
    return ok.tolist(), a.a1.tolist(), a.a2.tolist()


@dataclass(frozen=True, slots=True)
class DualOrbitVerdict:
    spec: DualSL
    start: StartPoint
    n_rows: int
    n_applicable: int
    max_abs_residual: float | None
    agrees: bool


def dual_orbit_report(cases) -> list[DualOrbitVerdict]:
    """Evaluate the displayed dual orbit equation on oracle rows, case by case.

    Each verdict records whether the displayed expression vanished (below
    1e-6) on every applicable row of the orbit sampled on [-2, 2] in steps
    of 0.1.
    """
    ts = t_grid(-2.0, 2.0, 0.1)
    out = []
    for spec, start in cases:
        sample = sampled_orbit(spec, start, ts)
        values = [abs(r.residual_primary) for r in sample.rows
                  if r.residual_primary is not None]
        worst = max(values) if values else None
        out.append(DualOrbitVerdict(spec, start, len(sample.rows), len(values),
                                    worst, worst is not None and worst < 1e-6))
    return out


# ---------------------------------------------------------------------------
# export

CSV_HEADER = ["t", "class", "u", "v", "residual_primary", "residual_secondary"]


def _fmt_opt(v: float | None) -> str:
    return "" if v is None else f"{v:.12g}"


def to_csv(sample: OrbitSample) -> str:
    """The rows as CSV, one line each.  Every line is one f-string: no field
    needs quoting, since none can hold a comma, a quote or a newline (they are
    numbers, ``∞``, ``σ1``/``σ2``, ``…ω`` and ``PR±[p:q]``)."""
    lines = [",".join(CSV_HEADER)]
    lines += [f"{row.t:.12g},{row.cls.label()},{_fmt_opt(row.u)},{_fmt_opt(row.v)},"
              f"{_fmt_opt(row.residual_primary)},{_fmt_opt(row.residual_secondary)}"
              for row in sample.rows]
    lines.append("")
    return "\n".join(lines)


def to_json_obj(sample: OrbitSample) -> dict:
    from .subgroups import render_spec

    return {
        "spec": render_spec(sample.spec),
        "start": [sample.start.c1, sample.start.c2],
        "rows": [
            {
                "t": row.t,
                "class": row.cls.label(),
                "u": row.u,
                "v": row.v,
                "residual_primary": row.residual_primary,
                "residual_secondary": row.residual_secondary,
            }
            for row in sample.rows
        ],
    }
