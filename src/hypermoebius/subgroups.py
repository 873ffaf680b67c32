"""Continuous one-parameter matrix subgroups over the three carriers.

The real building block is the rotation family

    H_sigma(t)  = [[cos_sigma t, sigma*sin_sigma t], [sin_sigma t, cos_sigma t]]
    H'_sigma(t) = exp(lam*t) * H_sigma(t)

covering circular (sigma=-1), shear (sigma=0), hyperbolic (sigma=+1) and
trivial (identity) types.  Over the double numbers a subgroup is a pair of
real subgroups riding the two idempotent components, the second one running
at a rescaled time a*t.  Over the dual numbers a subgroup is a real subgroup
plus an eps-deformation t * lam * H(t+t0) driven by a centralizer element.

The double and dual families also evaluate at a float array of t, as a stack
of matrices (``Mat2`` entries whose coordinates are arrays) equal bit for bit
to the matrices at each t: the math library's exp, cos, sin, cosh and sinh
are applied to each element, since numpy's own differ in the last bit, and
the rest is numpy's elementwise arithmetic in the float path's order.

The det-1 dual family deserves a note: normalizing the general-linear form
exp(lam1*t)*H(t) + eps*lam*t*exp(lam1*(t+t0))*H(t+t0) by the square root of
its determinant gives

    H_sigma(t) + eps*lam*t*exp(lam1*t0) * (H_sigma(t+t0) - cos_sigma(t0)*H_sigma(t))

whose determinant is identically one and which satisfies the one-parameter
law exactly; the corresponding determinant of the general-linear form is
exp(2*lam1*t) * (1 + 2*eps*lam*t*exp(lam1*t0)*cos_sigma(t0)).  A variant of
both formulas with cos_sigma(2t+t0) in place of cos_sigma(t0) circulates;
it fails the group law and the determinant identity for sigma != 0, and the
verification suite reproduces that discrepancy numerically (see
``dual_gl_det_printed_form``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .algebra import (
    TAU_ALG,
    TAU_ZERO,
    Hypercomplex,
    Kind,
    cos_sigma,
    sin_sigma,
)
from .errors import (
    DomainError,
    InvalidLiteralError,
    NotInCentralizerError,
    SingularMatrixError,
)
from .matrix2 import (
    Mat2,
    adj_real,
    det,
    double_from_components,
    join_double,
    join_dual,
    mat_exp,
    mat_exp_real,
    split_double,
)


class SigmaKind(Enum):
    """Subgroup regime: circular K, shear N, hyperbolic A, or trivial I."""

    ELLIPTIC = -1
    PARABOLIC = 0
    HYPERBOLIC = 1
    TRIVIAL = "r"

    @property
    def sigma(self) -> int | None:
        return None if self is SigmaKind.TRIVIAL else self.value

    @property
    def letter(self) -> str:
        return _LETTERS[self]

    @classmethod
    def from_letter(cls, letter: str) -> "SigmaKind":
        key = letter.strip().upper()
        for kind, lt in _LETTERS.items():
            if lt == key:
                return kind
        raise InvalidLiteralError(f"unknown subgroup regime {letter!r}: expected K, N, A or I")


_LETTERS = {
    SigmaKind.ELLIPTIC: "K",
    SigmaKind.PARABOLIC: "N",
    SigmaKind.HYPERBOLIC: "A",
    SigmaKind.TRIVIAL: "I",
}


# t of this type asks for a stack; an identity test costs the float path
# less than isinstance
_ARRAY = np.ndarray


def rotation(sigma_kind: SigmaKind, t: float, lam: float = 0.0) -> tuple[float, ...]:
    """H'_sigma(t) as the floats (a, b, c, d) (H_sigma(t) when lam = 0).

    At a 1-d numpy float array of t the entries are arrays, or the float 0.0
    where the entry is zero for every t (see :func:`_rotation_stack`)."""
    if type(t) is _ARRAY:
        return _rotation_stack(sigma_kind, t, lam)
    scale = math.exp(lam * t)
    if sigma_kind is SigmaKind.TRIVIAL:
        return (scale, 0.0, 0.0, scale)
    s = sigma_kind.sigma
    c, sn = cos_sigma(s, t), sin_sigma(s, t)
    return (scale * c, scale * (s * sn), scale * sn, scale * c)


# the math functions of cos_sigma and sin_sigma, by regime
_LIBM = {-1: (math.cos, math.sin), 1: (math.cosh, math.sinh)}


def _each(fn, x: np.ndarray) -> np.ndarray:
    """fn of each element of the 1-d array x, through math: numpy's own exp, cosh and
    sinh differ from math's in the last bit for some arguments.  Raises what
    fn raises (OverflowError, or ValueError at an infinite argument)."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _rotation_stack(sigma_kind: SigmaKind, t: np.ndarray, lam: float) -> tuple:
    """:func:`rotation` at each element of t, bit for bit: math per element,
    then the float path's arithmetic in its order, elementwise."""
    scale = _each(math.exp, lam * t)
    if sigma_kind is SigmaKind.TRIVIAL:
        return (scale, 0.0, 0.0, scale)
    s = sigma_kind.sigma
    if s == 0:
        c, sn = 1.0, t
    else:
        cos, sin = _LIBM[s]
        c, sn = _each(cos, t), _each(sin, t)
    return (scale * c, scale * (s * sn), scale * sn, scale * c)


def rotation_real(sigma_kind: SigmaKind, t: float, lam: float = 0.0) -> np.ndarray:
    """:func:`rotation` as a 2x2 array."""
    return np.reshape(rotation(sigma_kind, t, lam), (2, 2))


@dataclass(frozen=True, slots=True)
class RealGL:
    """t -> exp(lam*t) * H_sigma(t) in the real general linear group."""

    sigma: SigmaKind
    lam: float = 0.0

    family = "real-gl"

    def eval(self, t: float) -> np.ndarray:
        return rotation_real(self.sigma, t, self.lam)


@dataclass(frozen=True, slots=True)
class DoubleGL:
    """Component pair of exp-scaled real subgroups, minus side at time a*t."""

    sigma_plus: SigmaKind
    lam_plus: float
    sigma_minus: SigmaKind
    lam_minus: float
    a: float = 1.0

    family = "double-gl"

    def eval(self, t: float) -> Mat2:
        return join_double(rotation(self.sigma_plus, t, self.lam_plus),
                           rotation(self.sigma_minus, self.a * t, self.lam_minus))


@dataclass(frozen=True, slots=True)
class DoubleSL:
    """t -> H_{sigma+}(t) P+ + H_{sigma-}(a*t) P-, determinant one.

    This is the double-gl family with both exponential rates zero.
    """

    sigma_plus: SigmaKind
    sigma_minus: SigmaKind
    a: float = 1.0

    family = "double-sl"
    lam_plus = lam_minus = 0.0
    eval = DoubleGL.eval


@dataclass(frozen=True, slots=True)
class DualGL:
    """t -> exp(lam1*t) H(t) + eps*lam*t*exp(lam1*(t+t0)) H(t+t0)."""

    sigma: SigmaKind
    lam1: float
    lam: float
    t0: float = 0.0

    family = "dual-gl"

    def __post_init__(self):
        if self.lam == 0.0:
            raise DomainError("the eps-deformation strength lam must be nonzero")

    def eval(self, t: float) -> Mat2:
        k = self.lam * t
        # rotation already carries exp(lam1*(t+t0)) at the shifted time
        return join_dual(rotation(self.sigma, t, self.lam1),
                         [k * v for v in rotation(self.sigma, t + self.t0, self.lam1)])


@dataclass(frozen=True, slots=True)
class DualSL:
    """Determinant-one dual family (see module docstring for the form).

    When sin_sigma(t0) = 0, that is at t0 = 0 and, in the circular regime,
    at t0 = k*pi, H(t+t0) = cos_sigma(t0) H(t) and the eps-part vanishes:
    the family is the undeformed H_sigma(t).  It is accepted and keeps its
    dual-sl label.
    """

    sigma: SigmaKind
    lam: float
    lam1: float = 0.0
    t0: float = 0.0

    family = "dual-sl"

    def __post_init__(self):
        if self.sigma is SigmaKind.TRIVIAL:
            raise DomainError("the det-1 dual family needs a non-trivial regime")
        if self.lam == 0.0:
            raise DomainError("the eps-deformation strength lam must be nonzero")

    def eval(self, t: float) -> Mat2:
        h_t = rotation(self.sigma, t)
        h_shift = rotation(self.sigma, t + self.t0)
        k = self.lam * t * math.exp(self.lam1 * self.t0)
        c0 = cos_sigma(self.sigma.sigma, self.t0)
        return join_dual(h_t, [k * (h - c0 * g) for h, g in zip(h_shift, h_t)])


SubgroupSpec = RealGL | DoubleSL | DoubleGL | DualGL | DualSL


def eval_subgroup(spec, t: float):
    """The subgroup matrix at t (numpy for real, Mat2 otherwise); :class:`DomainError`
    where an entry overflows the float range, by an OverflowError or to inf or nan.

    At a 1-d numpy float array of t a double or dual family gives the stack of its
    matrices with no test: an entry may be inf or nan, without a numpy
    warning, and math's OverflowError or ValueError propagates.  The caller
    tests each matrix of the stack."""
    if type(t) is _ARRAY:
        with np.errstate(all="ignore"):
            return spec.eval(t)
    try:
        m = spec.eval(t)
        coords = m.flat if isinstance(m, np.ndarray) else (
            x for e in m.entries() for x in (e.a1, e.a2))
        if all(map(math.isfinite, coords)):
            return m
    except OverflowError:
        pass
    raise DomainError(f"the subgroup matrix at t={t!r} overflows the float range")


def _magnitude(m) -> float:
    """Max entry magnitude of a real or ring matrix."""
    if isinstance(m, np.ndarray):
        return float(np.max(np.abs(m)))
    return m.max_entry_magnitude()


def _entry_gap(x, y) -> float:
    return _magnitude(x - y)


def group_law_residual(spec, t1: float, t2: float) -> float:
    """Max entry gap between eval(t1+t2) and eval(t1) @ eval(t2)."""
    return group_law_terms(spec, t1, t2)[0]


def group_law_terms(spec, t1: float, t2: float) -> tuple[float, float, float]:
    """:func:`group_law_residual` with the max entry magnitudes of eval(t1)
    and eval(t2), each of the three matrices evaluated once."""
    lhs = eval_subgroup(spec, t1 + t2)
    g1, g2 = eval_subgroup(spec, t1), eval_subgroup(spec, t2)
    return _entry_gap(lhs, g1 @ g2), _magnitude(g1), _magnitude(g2)


def sl_membership_check(spec, t: float) -> Hypercomplex:
    """The determinant of the double or dual subgroup matrix at t.

    Identically one for the det-1 double and dual families; for the dual
    general-linear family it should match ``dual_gl_det_closed_form``.
    """
    m = eval_subgroup(spec, t)
    if isinstance(m, np.ndarray):
        raise DomainError(f"sl_membership_check takes a double or dual spec, not {spec.family}")
    return det(m)


def dual_gl_det_closed_form(spec: DualGL, t: float) -> Hypercomplex:
    """exp(2*lam1*t) + eps * 2*lam*t*exp(lam1*(2t+t0)) * cos_sigma(t0)."""
    return _dual_gl_det(spec, t, spec.t0)


def dual_gl_det_printed_form(spec: DualGL, t: float) -> Hypercomplex:
    """The circulating variant with cos_sigma(2t+t0); wrong for sigma != 0.

    Kept so the verification report can quantify the discrepancy against the
    determinant actually computed from the matrix.
    """
    return _dual_gl_det(spec, t, 2.0 * t + spec.t0)


def _dual_gl_det(spec: DualGL, t: float, angle: float) -> Hypercomplex:
    c = 1.0 if spec.sigma is SigmaKind.TRIVIAL else cos_sigma(spec.sigma.sigma, angle)
    real = math.exp(2.0 * spec.lam1 * t)
    eps = 2.0 * spec.lam * t * math.exp(spec.lam1 * (2.0 * t + spec.t0)) * c
    return Hypercomplex(Kind.DUAL, real, eps)


# ---------------------------------------------------------------------------
# centralizer of a rotation family


@dataclass(frozen=True, slots=True)
class CentralizerFit:
    """Membership witness for the centralizer of H_sigma.

    ``lam``/``s0`` give B = lam * H_sigma(s0) when that parametrization
    exists; matrices with equal diagonal and b = sigma*c always commute with
    the family but fall outside the lam*H_sigma(s0) chart in the shear
    regime (a = 0) and in the hyperbolic regime when |c| >= |a|.
    """

    lam: float | None
    s0: float | None


def centralizer_solve(sigma_kind: SigmaKind, b: np.ndarray,
                      tol: float = TAU_ALG) -> CentralizerFit:
    """Solve B = lam * H_sigma(s0) for a matrix commuting with H_sigma.

    Succeeds exactly when B has equal diagonal entries and its off-diagonal
    entries satisfy b = sigma*c; raises NotInCentralizerError otherwise.
    """
    if sigma_kind is SigmaKind.TRIVIAL:
        raise DomainError("the trivial family has no meaningful centralizer condition")
    s = sigma_kind.sigma
    a, bb = float(b[0, 0]), float(b[0, 1])
    c, d = float(b[1, 0]), float(b[1, 1])
    scale = 1.0 + max(abs(a), abs(bb), abs(c), abs(d))
    if abs(a - d) > tol * scale or abs(bb - s * c) > tol * scale:
        raise NotInCentralizerError(
            "matrix lacks the equal-diagonal / b = sigma*c structure")
    if s == -1:
        if abs(a) > tol:
            return CentralizerFit(math.copysign(math.hypot(a, c), a), math.atan(c / a))
        if abs(c) > tol:
            return CentralizerFit(c, math.pi / 2.0)
        return CentralizerFit(None, None)
    if s == 0:
        if abs(a) > tol:
            return CentralizerFit(a, c / a)
        return CentralizerFit(None, None)
    # hyperbolic: lam*cosh(s0) = a, lam*sinh(s0) = c needs |c| < |a|
    if abs(c) < abs(a):
        return CentralizerFit(math.copysign(math.sqrt(a * a - c * c), a),
                              math.atanh(c / a))
    return CentralizerFit(None, None)


# ---------------------------------------------------------------------------
# conjugation and similarity


@dataclass(frozen=True, slots=True)
class ConjugatedSubgroup:
    """t -> K eval(base, t) K^{-1}; still a one-parameter subgroup."""

    base: object
    k: object          # np.ndarray for real specs, Mat2 for ring specs
    k_inv: object

    def eval(self, t: float):
        return self.k @ eval_subgroup(self.base, t) @ self.k_inv


def conjugate_spec(spec, k) -> ConjugatedSubgroup:
    """Conjugated subgroup; ``k`` may be a real or ring matrix or, for the
    double families, a component pair (K+, K-)."""
    if isinstance(k, tuple):
        k = double_from_components(*k)
    if isinstance(k, np.ndarray):
        d = float(np.linalg.det(k))
        if abs(d) <= TAU_ZERO:
            raise SingularMatrixError(None, "conjugating matrix is singular")
        return ConjugatedSubgroup(spec, k, adj_real(k) / d)
    from .matrix2 import invert_mat

    return ConjugatedSubgroup(spec, k, invert_mat(k))


def similarity_residual(spec_a, spec_b, ts=None) -> float:
    """Max entry gap between the two subgroups over sampled times."""
    if ts is None:
        ts = np.linspace(-2.0, 2.0, 17)
    return max(_entry_gap(eval_subgroup(spec_a, float(t)),
                          eval_subgroup(spec_b, float(t))) for t in ts)


# ---------------------------------------------------------------------------
# type classification and the component-swap homomorphism


def swap_double(spec):
    """Mirror of a double spec under the component-swap homomorphism.

    Returns (mirrored spec, time_scale) with
    eval(mirrored, time_scale * t) == swap-image of eval(spec, t).  A trivial
    minus component (or a = 0) grows at the constant rate lam_minus * a, so
    it mirrors to a trivial plus component at that rate and unit time scale.
    """
    if spec.sigma_minus is SigmaKind.TRIVIAL or spec.a == 0.0:
        plus, rate, a, scale = SigmaKind.TRIVIAL, spec.lam_minus * spec.a, 1.0, 1.0
    else:
        plus, rate, a, scale = spec.sigma_minus, spec.lam_minus, 1.0 / spec.a, spec.a
    mirror = {"sigma_plus": plus, "lam_plus": rate, "sigma_minus": spec.sigma_plus,
              "lam_minus": spec.lam_plus, "a": a}
    return type(spec)(**{f.name: mirror[f.name] for f in fields(spec)}), scale


def swap_image(m: Mat2) -> Mat2:
    """X+ P+ + X- P-  ->  X- P+ + X+ P- (a group homomorphism)."""
    plus, minus = split_double(m)
    return join_double(minus, plus)


_SIGMA_ORDER = {SigmaKind.ELLIPTIC: 0, SigmaKind.PARABOLIC: 1,
                SigmaKind.HYPERBOLIC: 2, SigmaKind.TRIVIAL: 3}


@dataclass(frozen=True, slots=True)
class TypeDescriptor:
    family: str
    sigmas: tuple[SigmaKind, ...]
    rescale: float | None
    rescale_sign: int | None
    lams: tuple[float, ...]
    t0: float | None
    label: str


def _component_name(sig: SigmaKind, time: str) -> str:
    if sig is SigmaKind.TRIVIAL:
        return "I"
    return f"{sig.letter}({time})"


def classify_spec(spec) -> TypeDescriptor:
    """Canonical type of a subgroup description.

    Double components are ordered (K before N before A, trivial last) using
    the component swap, and the rescale is reported as |a| with its sign;
    a trivial second component reports a = 0.
    """
    if spec.family.startswith("double"):
        return _classify_double(spec)
    label = _component_name(spec.sigma, "t")
    if spec.family == "real-gl":
        if spec.lam != 0.0:
            label = f"exp({_fmt(spec.lam)}t){label}"
        return TypeDescriptor(spec.family, (spec.sigma,), None, None, _rates(spec), None, label)
    prime = "'" if spec.family == "dual-gl" else ""
    label = f"{label}{prime} + eps-deformation(lam={_fmt(spec.lam)}, t0={_fmt(spec.t0)})"
    return TypeDescriptor(spec.family, (spec.sigma,), None, None, _rates(spec), spec.t0, label)


def _rates(spec) -> tuple[float, ...]:
    """The exponential-rate parameters (lam*) in field order."""
    return tuple(getattr(spec, f.name) for f in fields(spec) if f.name.startswith("lam"))


def _classify_double(spec) -> TypeDescriptor:
    sp, sm = spec.sigma_plus, spec.sigma_minus
    trivial_minus = sm is SigmaKind.TRIVIAL or spec.a == 0.0
    trivial_plus = sp is SigmaKind.TRIVIAL
    if trivial_plus and not trivial_minus:
        spec, _ = swap_double(spec)
        return _classify_double(spec)
    if not trivial_plus and not trivial_minus \
            and _SIGMA_ORDER[sm] < _SIGMA_ORDER[sp]:
        spec, _ = swap_double(spec)
        return _classify_double(spec)
    a_abs = 0.0 if trivial_minus else abs(spec.a)
    a_sign = None if trivial_minus else (1 if spec.a > 0 else -1)
    minus_name = "I" if trivial_minus else _component_name(sm, "at")
    label = f"{_component_name(sp, 't')}P+ + {minus_name}P-"
    if spec.family == "double-gl":
        label = f"{label} (exp rates {_fmt(spec.lam_plus)}, {_fmt(spec.lam_minus)})"
    return TypeDescriptor(spec.family, (sp, SigmaKind.TRIVIAL if trivial_minus else sm),
                          a_abs, a_sign, _rates(spec), None, label)


def _fmt(v: float) -> str:
    if v == 0.0:
        v = 0.0
    return format(v, ".6g")


# ---------------------------------------------------------------------------
# exponential cross-check


_DIFF_STEP = 1e-5


def generator_of(spec):
    """Central-difference derivative of the subgroup at t = 0."""
    plus = eval_subgroup(spec, _DIFF_STEP)
    minus = eval_subgroup(spec, -_DIFF_STEP)
    if isinstance(plus, np.ndarray):
        return (plus - minus) / (2.0 * _DIFF_STEP)
    return (plus - minus).scale(1.0 / (2.0 * _DIFF_STEP))


def exp_cross_check(spec, ts=None) -> float:
    """Compare the closed form against exp(generator * t) pointwise.

    The generator comes from numerical differentiation at zero, so the
    comparison is an independent check that the closed form really is the
    one-parameter subgroup it claims to be.
    """
    gen = generator_of(spec)
    if ts is None:
        ts = np.linspace(-2.0, 2.0, 9)
    worst = 0.0
    for t in ts:
        t = float(t)
        closed = eval_subgroup(spec, t)
        if isinstance(gen, np.ndarray):
            worst = max(worst, _entry_gap(mat_exp_real(gen, t), closed))
        else:
            worst = max(worst, _entry_gap(mat_exp(gen, t), closed))
    return worst


# ---------------------------------------------------------------------------
# text form


# The literal grammar: per family its class and its fields as (literal key,
# attribute, default), in rendering order.  A None default marks a required
# field.  sigma* attributes take a regime letter K, N, A or I, the others a
# finite real.
_DUAL_FIELDS = (("sigma", "sigma", None), ("lambda", "lam", None),
                ("lambda1", "lam1", 0.0), ("t0", "t0", 0.0))
GRAMMAR = {
    "real-gl": (RealGL, (("sigma", "sigma", None), ("lambda", "lam", 0.0))),
    "double-sl": (DoubleSL, (("sigma+", "sigma_plus", None), ("sigma-", "sigma_minus", None),
                             ("a", "a", 1.0))),
    "double-gl": (DoubleGL, (("sigma+", "sigma_plus", None), ("lambda+", "lam_plus", 0.0),
                             ("sigma-", "sigma_minus", None), ("lambda-", "lam_minus", 0.0),
                             ("a", "a", 1.0))),
    "dual-gl": (DualGL, _DUAL_FIELDS),
    "dual-sl": (DualSL, _DUAL_FIELDS),
}


def parse_spec(text: str):
    """Parse e.g. "double-sl(sigma+=K, sigma-=A, a=2.0)" or
    "dual-sl(sigma=N, lambda=1.0, lambda1=0.5, t0=0.3)"."""
    s = text.strip()
    head, sep, rest = s.partition("(")
    family = head.strip().lower()
    if family not in GRAMMAR or not sep or not rest.rstrip().endswith(")"):
        raise InvalidLiteralError(f"cannot parse subgroup description {text!r}")
    body = rest.rstrip()[:-1]
    given: dict[str, str] = {}
    if body.strip():
        for item in body.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise InvalidLiteralError(f"bad field {item!r} in {text!r}")
            given[key.strip().lower()] = value.strip()
    cls, grammar = GRAMMAR[family]
    values = {}
    for key, attr, default in grammar:
        raw = given.pop(key, None)
        if raw is None:
            if default is None:
                raise InvalidLiteralError(f"missing field {key!r} in {text!r}")
            values[attr] = default
        elif attr.startswith("sigma"):
            values[attr] = SigmaKind.from_letter(raw)
        else:
            values[attr] = _parse_real(key, raw, text)
    spec = cls(**values)
    if given:
        raise InvalidLiteralError(
            f"unknown field(s) {sorted(given)} for {family} in {text!r}")
    return spec


def _parse_real(key: str, raw: str, text: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InvalidLiteralError(f"field {key}={raw!r} is not a finite real in {text!r}")
    return value


def render_spec(spec) -> str:
    _, grammar = GRAMMAR[spec.family]
    body = ", ".join(f"{key}={_render_field(getattr(spec, attr))}" for key, attr, _ in grammar)
    return f"{spec.family}({body})"


def _render_field(value) -> str:
    return value.letter if isinstance(value, SigmaKind) else _fmt(value)
