"""The randomized verification suite behind ``hypermoebius verify``.

Every check draws from one seeded generator, so a fixed seed reproduces the
report byte for byte.  Checks are keyed by what they verify; each line of
the report reads "<key>: PASS|FAIL (<counts / worst residuals>)".

The fixed-draw sweeps (ring laws, unit inverses, the idempotent split, det
multiplicativity, the det component formulas, the adjugate identity, the
exponential law and its component split) run the library's own
``Hypercomplex`` and ``Mat2`` operations on stacks of ``_CHUNK`` samples at
a time; the group law evaluates each subgroup once per spec, at a stack of
t, and the exponential oracle makes one exponential per family over every
spec's stack of t.  The centralizer grid is one stack of matrices.  Each
stack draws from the generator exactly what the scalar loop over the same
samples would draw, in the same order, so the generator reaches every later
check in the same state and the report is the one the scalar loops give.

The square-root, point and map checks (class partition, unit scaling,
admissibility, transitivity, projection equivariance, class-preserving
action, composition) draw ``_CASES`` cases one by one, then test them as
one stack: ``canonicalize``, ``equivalent`` and ``admissible`` take a stack
of points as they take a point and answer row by row, and a stack of
matrices makes a stack of ``MoebiusMap``.  The point and map checks draw
each case as float rows with the row walks of ``sampling``, the walks the
object samplers are built from, and ``_count`` makes each column of a
chunk one stack with one ``numpy.array``.

The family transporters draw their ratios first, then make the transporters,
their maps, the images and the class comparisons as one stack each.  The
fixed-point check finds each map's fixed classes one map at a time, then
re-applies every map to its classes and compares them as one stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, sampling
from .algebra import (
    Hypercomplex,
    Kind,
    decompose,
    invert,
    recompose,
    stacked,
)
from .matrix2 import (
    det,
    det_dual_formula,
    det_split_double,
    hat,
    identity,
    mat_exp,
    mat_exp_real,
    stacked_mat,
)
from .moebius import (
    MapTag,
    MoebiusMap,
    _classify_real_tr2,
    _real_fixed_points,
    apply,
    apply_point,
    compose,
    fixed_points,
    identity_map,
    kernel_labels,
    mob_equal,
    class_point,
)
from .orbits import (
    dual_orbit_report,
    residual_shear_pair,
    residual_trivial_minus,
    residual_two_regime,
    sampled_orbit,
    start_double,
    start_dual,
    t_grid,
)
from .projline import (
    CanonicalClass,
    ClassStack,
    ClassTag,
    ProjPoint,
    admissible,
    bijection_f,
    canonical_ratio,
    canonicalize,
    equivalent,
    real_apply,
    same_class,
    stack,
    stack_rows,
    transporter_nonadmissible,
    transporter_to,
)
from .sampling import NONTRIVIAL, random_regime
from .subgroups import (
    DoubleGL,
    DoubleSL,
    DualSL,
    GRAMMAR,
    SigmaKind,
    dual_gl_det_closed_form,
    dual_gl_det_printed_form,
    eval_subgroup,
    exp_cross_check,
    group_law_terms,
    in_centralizer,
    rotation_real,
    sl_membership_check,
    swap_double,
    swap_image,
)

RING_KINDS = (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.detail})"


def _fmt(v: float) -> str:
    return format(v, ".3e")


@dataclass(slots=True)
class _Tally:
    """Passing samples, samples seen and the worst residual of one sweep."""

    good: int = 0
    total: int = 0
    worst: float = 0.0

    def add(self, ok: bool, residual: float = 0.0) -> None:
        self.good += ok
        self.total += 1
        self.worst = max(self.worst, residual)

    def add_many(self, ok: np.ndarray, residual: np.ndarray | None = None) -> None:
        """``add`` for each sample; like ``max``, ``worst`` passes over NaN."""
        self.good += int(np.count_nonzero(ok))
        self.total += ok.size
        if residual is not None:
            self.worst = float(np.fmax.reduce(residual, initial=self.worst))

    @property
    def full(self) -> bool:
        return self.good == self.total

    def __str__(self) -> str:
        """The counts "<good>/<total>", as a check's detail line gives them."""
        return f"{self.good}/{self.total}"


_DET_TS = t_grid(-2.0, 2.0, 0.25)  # the t grid of the determinant checks
_ORBIT_TS = t_grid(-2.0, 2.0, 0.1)  # the t grid of the orbit checks
_CHUNK = 1_000  # samples per batched step: keeps the sweep arrays near 100 kB
_CASES = 100  # drawn cases per stacked test: a map, a point and a unit take 650 B as rows


def _sweep(name: str, what: str, n: int, draw, residual, bound: float) -> CheckResult:
    """``residual(draw(k)) <= bound`` over n samples, k at a time; the detail
    reads "<passed>/<n> <what> <worst residual>"."""
    tally = _Tally()
    for start in range(0, n, _CHUNK):
        res = residual(draw(min(_CHUNK, n - start)))
        tally.add_many(res <= bound, res)
    return CheckResult(name, tally.full, f"{tally} {what} {_fmt(tally.worst)}")


# ---------------------------------------------------------------------------
# algebra checks


def check_ring_laws(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        def rel(xyz):
            x, y, z = (stacked(kind, v) for v in xyz.swapaxes(0, 1))
            # Python's pow: numpy's vectorised power may differ in the last bit
            cube = [m ** 3 for m in stacked(kind, xyz).magnitude().max(axis=1).tolist()]
            xy = x * y
            gaps = (
                (xy - y * x).magnitude(),
                (xy * z - x * (y * z)).magnitude(),
                (x * (y + z) - (xy + x * z)).magnitude(),
            )
            return np.maximum.reduce(gaps) / (1.0 + np.array(cube))

        out.append(_sweep(f"ring-laws/{kind.name.lower()}", "triples, worst rel", n,
                          lambda k: sampling.random_numbers(rng, (k, 3)), rel, 1e-12))
    return out


def check_generator_squares() -> list[CheckResult]:
    ok = True
    for kind in RING_KINDS:
        u = algebra.generator(kind)
        sq = u * u
        ok = ok and sq.a1 == kind.sigma and sq.a2 == 0.0
    return [CheckResult("generator-squares", ok, "j^2=1, eps^2=0, i^2=-1 exact")]


def check_inverses(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        def gap(units):  # |x * x^-1 - 1|
            x = stacked(kind, units)
            return (x * invert(x) - 1.0).magnitude()

        out.append(_sweep(f"unit-inverse/{kind.name.lower()}", "units, worst", n,
                          lambda k: sampling.random_units(kind, rng, k), gap, 1e-12))
    return out


def check_square_roots(rng, n: int = 10_000) -> list[CheckResult]:
    def double_case(i: int):
        case = i % 4
        if case == 0:
            return recompose(rng.uniform(0.05, 9.0), rng.uniform(0.05, 9.0)), 4
        if case == 1:
            x = recompose(rng.uniform(0.05, 9.0), 0.0) if rng.random() < 0.5 \
                else recompose(0.0, rng.uniform(0.05, 9.0))
            return x, 2
        if case == 2:
            return algebra.zero(Kind.DOUBLE), 1
        return recompose(-rng.uniform(0.05, 9.0), rng.uniform(-9.0, 9.0)), 0

    def dual_case(i: int):
        case = i % 3
        if case == 0:
            return Hypercomplex(Kind.DUAL, rng.uniform(0.05, 9.0), rng.uniform(-9.0, 9.0)), 2
        if case == 1:
            return algebra.zero(Kind.DUAL), 1
        x = Hypercomplex(Kind.DUAL, -rng.uniform(0.05, 9.0), rng.uniform(-9.0, 9.0)) \
            if rng.random() < 0.5 else Hypercomplex(Kind.DUAL, 0.0, rng.uniform(0.2, 9.0))
        return x, 0

    out = []
    for name, draw in (("double", double_case), ("dual", dual_case)):
        counts, identities = _Tally(), _Tally()
        for start in range(0, n, _CASES):
            xs, expected = zip(*map(draw, range(start, min(start + _CASES, n))))
            x = stack(xs)
            roots, kept = algebra.sqrt_all_many(x)
            gaps = np.where(kept, (roots * roots - x).magnitude(), 0.0)
            worst = gaps.max(axis=0)
            counts.add_many(kept.sum(axis=0) == expected, worst)
            identities.add_many((gaps < 1e-9).all(axis=0), worst)
        out.append(CheckResult(
            f"square-roots/{name}", counts.full and identities.full,
            f"{counts} counts, worst s^2-x {_fmt(counts.worst)}"))
    return out


def check_idempotent_census() -> list[CheckResult]:
    expected = {(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)}
    found = set()
    steps = [(-2.0 + 0.25 * k) for k in range(17)]
    for p in steps:
        for m in steps:
            x = recompose(p, m)
            if (x * x - x).is_zero(algebra.TAU_ZERO):
                found.add((p, m))
    ok = found == expected
    return [CheckResult("idempotent-census/double", ok,
                        f"{len(found)} idempotents on a 17x17 component grid")]


def check_split_isomorphism(rng, n: int = 10_000) -> list[CheckResult]:
    def rel(xy):
        x, y = (stacked(Kind.DOUBLE, v) for v in xy.swapaxes(0, 1))
        (xp, xm), (yp, ym) = decompose(x), decompose(y)
        zp, zm = decompose(x * y)
        scale = 1.0 + np.maximum(abs(xp * yp), abs(xm * ym))
        return np.maximum(abs(zp - xp * yp), abs(zm - xm * ym)) / scale

    return [_sweep("split-isomorphism/double", "products, worst rel", n,
                   lambda k: sampling.random_numbers(rng, (k, 2)), rel, 1e-12)]


def check_trig_roundtrip(rng, n: int = 1_000) -> list[CheckResult]:
    tally = _Tally()
    for sigma in (-1, 0, 1):
        for _ in range(n):
            if sigma == -1:
                t = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
            else:
                t = rng.uniform(-3.0, 3.0)
            back = algebra.arctan_sigma(sigma, algebra.tan_sigma(sigma, t))
            gap = abs(back - t)
            tally.add(gap <= 1e-10, gap)
    return [CheckResult("inverse-trig-roundtrip", tally.full,
                        f"{tally} round trips, worst {_fmt(tally.worst)}")]


# ---------------------------------------------------------------------------
# matrix checks


def check_det_multiplicative(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        def rel(xy):
            x, y = (stacked_mat(stacked(kind, v)) for v in xy.swapaxes(0, 1))
            prod = det(x) * det(y)
            return (det(x @ y) - prod).magnitude() / (1.0 + prod.magnitude())

        out.append(_sweep(f"det-multiplicative/{kind.name.lower()}", "pairs, worst rel", n,
                          lambda k: sampling.random_numbers(rng, (k, 2, 2, 2)), rel, 1e-10))
    return out


def check_det_component_formulas(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    for name, build, formula, what in (
            ("det-split/double", recompose, det_split_double, "component pairs"),
            ("det-epsilon-split/dual", lambda a1, a2: Hypercomplex(Kind.DUAL, a1, a2),
             det_dual_formula, "part pairs")):

        def gap(pairs):
            first, second = pairs.swapaxes(0, 1)
            return (det(stacked_mat(build(first, second))) - formula(first, second)).magnitude()

        out.append(_sweep(name, f"{what}, worst", n,
                          lambda k: rng.uniform(-2, 2, size=(k, 2, 2, 2)), gap, 1e-10))
    return out


def check_adjugate_identity(rng, n: int = 2_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        def gap(coords):
            x = stacked_mat(stacked(kind, coords))
            return (x @ hat(x) - identity(kind).scale(det(x))).max_entry_magnitude()

        out.append(_sweep(f"adjugate-identity/{kind.name.lower()}", "matrices, worst", n,
                          lambda k: sampling.random_numbers(rng, (k, 2, 2)), gap, 1e-10))
    return out


def check_exp_law(rng, n: int = 100) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        def rel(u):
            # per sample the scalar draws: uniform(-2, 2) for the 8 coordinates
            # of b, then uniform(-3, 3) for s and t, each as lo + (hi - lo) * u
            b = stacked_mat(stacked(kind, (-2.0 + 4.0 * u[:, :8]).reshape(-1, 2, 2, 2)))
            s, t = (-3.0 + 6.0 * u[:, 8:]).T
            lhs, e_s, e_t = mat_exp(b, s + t), mat_exp(b, s), mat_exp(b, t)
            # exponentials can reach 1e10 here; compare at the problem's scale
            scale = 1.0 + np.maximum(e_s.max_entry_magnitude() * e_t.max_entry_magnitude(),
                                     lhs.max_entry_magnitude())
            return (lhs - e_s @ e_t).max_entry_magnitude() / scale

        out.append(_sweep(f"exp-one-parameter/{kind.name.lower()}", "triples, worst rel", n,
                          lambda k: rng.random((k, 10)), rel, 1e-8))
    return out


def check_exp_split(rng, n: int = 100) -> list[CheckResult]:
    # per sample the scalar draws: uniform(-2, 2) for the 4 entries of A+,
    # the 4 of A-, then t
    u = rng.uniform(-2, 2, size=(n, 9))
    ap, am, t = u[:, :4].reshape(n, 2, 2), u[:, 4:8].reshape(n, 2, 2), u[:, 8]
    ring = mat_exp(stacked_mat(recompose(ap, am)), t)
    split = stacked_mat(recompose(mat_exp_real(ap, t), mat_exp_real(am, t)))
    gap = (ring - split).max_entry_magnitude()
    tally = _Tally()
    tally.add_many(gap <= 1e-8, gap)
    return [CheckResult("exp-component-split/double", tally.full,
                        f"{tally} matrices, worst {_fmt(tally.worst)}")]


# ---------------------------------------------------------------------------
# projective line checks


# the class of a point, or of each point of a stack, by one flag per class:
# numpy bools, so that ~ negates a flag of one point too


def _double_membership_flags(p: ProjPoint, tol: float) -> list:
    (xp, xm), (yp, ym) = decompose(p.x), decompose(p.y)
    zp, zm, wp, wm = (np.abs(v) <= tol for v in (xp, xm, yp, ym))
    x_unit = ~zp & ~zm
    return [
        ~wp & ~wm,                              # affine
        x_unit & wp & wm,                       # infinity
        x_unit & ~wp & wm,                      # omega plus
        x_unit & ~wm & wp,                      # omega minus
        ~zp & zm & ~wm & wp,                    # sigma one
        ~zm & zp & ~wp & wm,                    # sigma two
        zm & wm & ~(zp & wp),                   # PR plus
        zp & wp & ~(zm & wm),                   # PR minus
    ]


_DOUBLE_FLAG_TAGS = [ClassTag.AFFINE, ClassTag.INFINITY, ClassTag.OMEGA_PLUS,
                     ClassTag.OMEGA_MINUS, ClassTag.SIGMA_ONE, ClassTag.SIGMA_TWO,
                     ClassTag.PR_PLUS, ClassTag.PR_MINUS]


def _dual_membership_flags(p: ProjPoint, tol: float) -> list:
    x_unit = np.abs(p.x.a1) > tol
    y_unit = np.abs(p.y.a1) > tol
    y_zero = np.abs(p.y.a2) <= tol
    return [
        y_unit,                                 # affine
        x_unit & ~y_unit & y_zero,              # infinity
        x_unit & ~y_unit & ~y_zero,             # dual omega
        ~x_unit & ~y_unit,                      # PR
    ]


_DUAL_FLAG_TAGS = [ClassTag.AFFINE, ClassTag.INFINITY, ClassTag.DUAL_OMEGA, ClassTag.PR]


def _count(kind: Kind, name: str, what: str, n: int, draw, test) -> CheckResult:
    """n cases over ``kind``, ``_CASES`` at a time: ``draw()`` gives each
    case as a tuple of float rows (2 floats for a number, 4 for a point, 8
    for a matrix), each column of a chunk becomes one stack by one
    ``numpy.array``, and ``test`` gives each case's verdict.  The check is
    "<name>/<kind>" and its detail reads "<passed>/<n> <what>"."""
    good = 0
    for start in range(0, n, _CASES):
        cases = [draw() for _ in range(min(_CASES, n - start))]
        good += int(np.count_nonzero(test(*(stack_rows(kind, c) for c in zip(*cases)))))
    return CheckResult(f"{name}/{kind.name.lower()}", good == n, f"{good}/{n} {what}")


def check_class_partition(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    for kind, flags_of, tags in ((Kind.DOUBLE, _double_membership_flags, _DOUBLE_FLAG_TAGS),
                                 (Kind.DUAL, _dual_membership_flags, _DUAL_FLAG_TAGS)):
        def test(p):
            flags = np.array(flags_of(p, algebra.TAU_ZERO))
            first = flags.argmax(axis=0).tolist()
            return (flags.sum(axis=0) == 1) & np.array(
                [tags[f] is tag for f, tag in zip(first, canonicalize(p).tags())])

        out.append(_count(kind, "class-partition", "points land in exactly one class", n,
                          lambda: (sampling.random_point_mixed_row(kind, rng),), test))
    return out


def check_unit_scaling(rng, n: int = 1_000) -> list[CheckResult]:
    return [_count(kind, "unit-scaling-stability", "scaled points keep their class", n,
                   lambda: (sampling.random_point_mixed_row(kind, rng),
                            sampling.random_unit_row(kind, rng, 0.2, 5.0)),
                   lambda p, u: equivalent(p.scaled(u), p))
            for kind in (Kind.DOUBLE, Kind.DUAL)]


def check_admissibility_invariance(rng, n: int = 1_000) -> list[CheckResult]:
    return [_count(kind, "admissibility-invariance", "images preserve admissibility", n,
                   lambda: (sampling.random_point_mixed_row(kind, rng),
                            sampling.random_gl_row(kind, rng)),
                   lambda p, g: admissible(apply_point(MoebiusMap(g), p)) == admissible(p))
            for kind in (Kind.DOUBLE, Kind.DUAL)]


def check_transitivity(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        # mixed points, redrawn while not admissible, tested as stacks: a
        # round draws as many points as admissible ones are missing, so it
        # draws no point past the last one a point-by-point loop keeps
        rows = []
        while len(rows) < n:
            drawn = [sampling.random_point_mixed_row(kind, rng) for _ in range(n - len(rows))]
            rows += itertools.compress(drawn, admissible(stack_rows(kind, drawn)).tolist())
        cases = iter(rows)
        base = ProjPoint(kind, algebra.one(kind), algebra.zero(kind))
        out.append(_count(kind, "transitivity-witness", "transporters land on target", n,
                          lambda: (next(cases),), lambda p: equivalent(
                              apply_point(MoebiusMap(transporter_to(p)), base), p)))
    return out


def check_family_transporters(rng, n: int = 1_000) -> list[CheckResult]:
    def ratio(i: int) -> tuple[float, float]:
        if i % 10 == 0:
            return canonical_ratio(0.0, sampling._nonzero_real(rng))
        if i % 10 == 1:
            return canonical_ratio(sampling._nonzero_real(rng), 0.0)
        return canonical_ratio(rng.uniform(-3, 3), rng.uniform(-3, 3))

    out = []
    for kind, tag in ((Kind.DOUBLE, ClassTag.PR_PLUS), (Kind.DOUBLE, ClassTag.PR_MINUS),
                      (Kind.DUAL, ClassTag.PR)):
        # the ratios first, then one stack of transporters, maps and images
        ratios = [ratio(i) for i in range(n)]
        m = MoebiusMap(transporter_nonadmissible(
            CanonicalClass(tag, ratio=tuple(np.array(ratios).T))))
        targets = ClassStack.of(kind, [CanonicalClass(tag, ratio=r) for r in ratios])
        tally = _Tally()
        tally.add_many(same_class(apply(m, bijection_f(tag, 1.0, 0.0)), targets))
        out.append(CheckResult(
            f"family-transporter/{tag.value}", tally.full,
            f"{tally} transporters land on target"))
    return out


def check_projection_equivariance(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    for kind, what in ((Kind.DOUBLE, "component actions match"),
                       (Kind.DUAL, "a1-part actions match")):
        signs = itertools.cycle((1.0, -1.0))  # double: even samples P+, odd P-

        def draw():
            g = sampling.random_sl_row(kind, rng)
            v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            if kind is Kind.DOUBLE:  # [x P+- : y P+-] and the P+- component of g
                s = next(signs)
                base, comp = (0.5, 0.5 * s), [e1 + s * e2 for e1, e2 in zip(g[::2], g[1::2])]
            else:  # [eps x : eps y] and the a1-part of g
                base, comp = (0.0, 1.0), g[::2]
            f = lambda x, y: (base[0] * x, base[1] * x, base[0] * y, base[1] * y)
            return g, f(*v), f(*real_apply(comp, v))

        out.append(_count(kind, "sl-projection-equivariance", what, n, draw,
                          lambda g, p, q: equivalent(apply_point(MoebiusMap(g), p), q)))
    return out


# ---------------------------------------------------------------------------
# Moebius map checks


def check_action_class_preserving(rng, n: int = 1_000) -> list[CheckResult]:
    def test(g, p, u):
        m = MoebiusMap(g)
        return equivalent(apply_point(m, p.scaled(u)), apply_point(m, p))

    return [_count(kind, "action-class-preserving", "unit rescalings act identically", n,
                   lambda: (sampling.random_gl_row(kind, rng),
                            sampling.random_point_mixed_row(kind, rng),
                            sampling.random_unit_row(kind, rng, 0.2, 5.0)), test)
            for kind in (Kind.DOUBLE, Kind.DUAL)]


def check_composition(rng, n: int = 1_000) -> list[CheckResult]:
    def test(g1, g2, p):
        m1, m2 = MoebiusMap(g1), MoebiusMap(g2)
        return equivalent(apply_point(compose(m1, m2), p), apply_point(m1, apply_point(m2, p)))

    return [_count(kind, "composition-homomorphism", "compositions agree", n,
                   lambda: (sampling.random_gl_row(kind, rng), sampling.random_gl_row(kind, rng),
                            sampling.random_point_row(rng) if kind is Kind.COMPLEX
                            else sampling.random_point_mixed_row(kind, rng)), test)
            for kind in RING_KINDS]


def check_kernels(seed: int) -> list[CheckResult]:
    expected = {
        "real": ["I", "-I"],
        "complex": ["I", "-I"],
        "double": ["I", "jI", "-jI", "-I"],
        "dual": ["I", "-I"],
    }
    out = []
    for name, want in expected.items():
        got = kernel_labels(name, seed)
        out.append(CheckResult(
            f"kernel-scalars/{name}", sorted(got) == sorted(want),
            f"{{{', '.join(got)}}} on 100 probes"))
    return out


def check_fixed_point_reapply(rng, n: int = 200) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        maps = []  # SL maps, redrawn while the map is the identity
        while len(maps) < n:
            m = MoebiusMap(sampling.random_sl(kind, rng))
            if not mob_equal(m, identity_map(kind)):
                maps.append(m)
        # each fixed class (a point of it) and family representative, with its
        # map's matrix and the class it must keep; then one stack re-applies them
        cases = []
        for m in maps:
            fps = fixed_points(m)
            cases += [(m.rep, class_point(kind, cls), cls) for cls in fps.points]
            cases += [(m.rep, rep, canonicalize(rep))
                      for family in fps.families for rep in family.representatives]
        tally = _Tally()
        if cases:
            reps, points, classes = zip(*cases)
            images = apply(MoebiusMap(stack(reps)), stack(points))
            tally.add_many(same_class(images, ClassStack.of(kind, list(classes))))
        out.append(CheckResult(
            f"fixed-point-reapply/{kind.name.lower()}", tally.full,
            f"{tally} fixed classes re-apply to themselves"))
    return out


def check_class_vs_fixed_count(rng, n: int = 1_000) -> list[CheckResult]:
    expected = {MapTag.ELLIPTIC: 0, MapTag.PARABOLIC: 1, MapTag.HYPERBOLIC: 2}
    tally = _Tally()
    for i in range(n):
        if i % 5 == 0:
            # conjugated shear: parabolic cases are measure zero otherwise
            k = sampling.random_sl_real(rng)
            s = rng.uniform(0.2, 2.0)
            g = k @ rotation_real(SigmaKind.PARABOLIC, s) @ np.linalg.inv(k)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            g = sign * g
        else:
            g = sampling.random_sl_real(rng)
        fps = _real_fixed_points(*g.ravel().tolist())
        if fps is None:
            continue
        tally.add(len(fps) == expected[_classify_real_tr2(float(np.trace(g)) ** 2)])
    return [CheckResult("trace-class-vs-fixed-count/real", tally.full,
                        f"{tally} maps match the count table")]


# ---------------------------------------------------------------------------
# subgroup checks


def check_group_law(rng, n_specs: int = 20, n_pairs: int = 100) -> list[CheckResult]:
    out = []
    for family, specs in sampling.random_specs(rng, n_specs).items():
        tally = _Tally()
        for spec in specs:
            # the doubles of the scalar loop's uniform(-3, 3) calls t1, t2, t1, ...
            t1, t2 = rng.uniform(-3, 3, size=(n_pairs, 2)).T
            r, m1, m2 = group_law_terms(spec, t1, t2)
            # exp-scaled families reach 1e10 at |t1+t2| = 6: relative check
            rel = r / (1.0 + m1 * m2)
            tally.add_many(rel < 1e-8, rel)
        out.append(CheckResult(
            f"one-parameter-law/{family}", tally.full,
            f"{tally} (t1,t2) pairs, worst rel {_fmt(tally.worst)}"))
    return out


def check_det_one(rng, n_specs: int = 20) -> list[CheckResult]:
    out = []
    specs = sampling.random_specs(rng, n_specs)
    for family in ("double-sl", "dual-sl"):
        tally = _Tally()
        for spec in specs[family]:
            for t in _DET_TS:
                d = sl_membership_check(spec, t)
                gap = (d - algebra.one(d.kind)).magnitude()
                tally.add(gap < 1e-8, gap)
        out.append(CheckResult(
            f"determinant-one/{family}", tally.full,
            f"{tally} grid points, worst {_fmt(tally.worst)}"))
    return out


def check_dual_gl_det(rng, n_specs: int = 20) -> list[CheckResult]:
    tally = _Tally()
    printed_gap = 0.0
    for spec in sampling.random_specs(rng, n_specs)["dual-gl"]:
        for t in _DET_TS:
            actual = sl_membership_check(spec, t)
            gap = (actual - dual_gl_det_closed_form(spec, t)).magnitude()
            printed_gap = max(printed_gap,
                              (actual - dual_gl_det_printed_form(spec, t)).magnitude())
            tally.add(gap < 1e-8, gap)
    return [CheckResult(
        "determinant-closed-form/dual-gl", tally.full,
        f"{tally} grid points, worst {_fmt(tally.worst)}; "
        f"cos(2t+t0) variant drifts up to {_fmt(printed_gap)}")]


def check_centralizer_grid() -> list[CheckResult]:
    out = []
    values = [-2.0 + 0.5 * k for k in range(9)]
    # every [[p, q], [r, w]] over the values, w fastest
    p, q, r, w = (g.ravel() for g in np.meshgrid(values, values, values, values, indexing="ij"))
    b = np.stack((p, q, r, w), axis=-1).reshape(-1, 2, 2)
    for sigma_kind in NONTRIVIAL:
        h = rotation_real(sigma_kind, 0.7)
        # in_centralizer is the test that centralizer_solve passes or raises on
        solved = in_centralizer(sigma_kind, b)
        grid, commute = _Tally(), _Tally()
        grid.add_many(solved == ((p == w) & (q == sigma_kind.sigma * r)))
        members = b[solved]
        commute.add_many(np.abs(members @ h - h @ members).max(axis=(1, 2)) < 1e-9)
        out.append(CheckResult(
            f"centralizer-grid/{sigma_kind.letter}", grid.full and commute.full,
            f"{grid} grid matrices, "
            f"{commute} successes commute"))
    return out


def check_exp_cross(rng, n_specs: int = 10) -> list[CheckResult]:
    out = []
    for family, specs in sampling.random_specs(rng, n_specs).items():
        r = exp_cross_check([_clamp_params(spec) for spec in specs])
        tally = _Tally()
        tally.add_many(r < 1e-5, r)
        out.append(CheckResult(
            f"exp-oracle/{family}", tally.full,
            f"{tally} descriptions, worst {_fmt(tally.worst)}"))
    return out


def _clamp_params(spec):
    """The spec with each real parameter of its literal clamped to [-1.5, 1.5]."""
    _, grammar = GRAMMAR[spec.family]
    return replace(spec, **{attr: max(-1.5, min(1.5, getattr(spec, attr)))
                            for _, attr, _ in grammar if not attr.startswith("sigma")})


def check_swap_homomorphism(rng, n: int = 200) -> list[CheckResult]:
    tally = _Tally()
    for i in range(n):
        if i % 2 == 0:
            spec = DoubleSL(random_regime(rng),
                            random_regime(rng),
                            sampling._signed_magnitude(rng, 0.5, 2.0))
        else:
            spec = DoubleGL(random_regime(rng), rng.uniform(-1, 1),
                            random_regime(rng), rng.uniform(-1, 1),
                            sampling._signed_magnitude(rng, 0.5, 2.0))
        mirrored, scale = swap_double(spec)
        t = rng.uniform(-2, 2)
        lhs = eval_subgroup(mirrored, scale * t)
        rhs = swap_image(eval_subgroup(spec, t))
        gap = (lhs - rhs).max_entry_magnitude()
        rel = gap / (1.0 + rhs.max_entry_magnitude())
        tally.add(rel <= 1e-12, rel)
    return [CheckResult("component-swap-homomorphism/double", tally.full,
                        f"{tally} samples, worst rel {_fmt(tally.worst)}")]


# ---------------------------------------------------------------------------
# orbit checks


def check_orbit_two_regime(rng, n_sets: int = 20) -> list[CheckResult]:
    tally = _Tally()
    for _ in range(n_sets):
        spec = DoubleSL(random_regime(rng),
                        random_regime(rng),
                        rng.uniform(0.5, 2.0))
        start = start_double(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        sample = sampled_orbit(spec, start, _ORBIT_TS)
        for row in sample.rows:
            if row.residual_primary is None:
                continue
            tally.add(abs(row.residual_primary) < 1e-8, abs(row.residual_primary))
    return [CheckResult("orbit-equation/two-regime", tally.full,
                        f"{tally} applicable rows, worst {_fmt(tally.worst)}")]


def check_orbit_shear_pair(rng, n_sets: int = 20) -> list[CheckResult]:
    rows, agree = _Tally(), _Tally()
    for _ in range(n_sets):
        spec = DoubleSL(SigmaKind.PARABOLIC, SigmaKind.PARABOLIC, rng.uniform(0.5, 2.0))
        start = start_double(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        sample = sampled_orbit(spec, start, _ORBIT_TS)
        for row in sample.rows:
            if row.residual_secondary is not None:
                # rows near projective poles carry coordinates ~1/dist; the
                # quadratic form is then computable only to ~(u^2+v^2)*eps,
                # so it is compared on that scale everywhere
                scale = 1.0 + row.u * row.u + row.v * row.v
                ok = abs(row.residual_secondary) < 1e-8 * scale
                rows.add(ok, abs(row.residual_secondary) / scale)
                if row.residual_primary is not None:
                    agree.add((abs(row.residual_primary) < 1e-8) == ok)
        # the two forms must also agree off orbit
        for _ in range(5):
            u, v = rng.uniform(-3, 3), rng.uniform(-3, 3)
            r11 = residual_two_regime(0, 0, spec.a, start, u, v)
            r1 = residual_shear_pair(spec.a, start, u, v)
            if r11 is None or r1 is None:
                continue
            agree.add((abs(r11) < 1e-8) == (abs(r1) < 1e-8 * (1.0 + u * u + v * v)))
    return [CheckResult("orbit-equation/shear-pair", rows.full and agree.full,
                        f"{rows} rows, worst {_fmt(rows.worst)}; "
                        f"{agree} vanish together with the general form")]


def check_orbit_line(rng, n_sets: int = 20) -> list[CheckResult]:
    line, pattern = _Tally(), _Tally()
    worst_corr = 0.0
    for i in range(n_sets):
        sigma = random_regime(rng)
        spec = DoubleSL(sigma, SigmaKind.TRIVIAL)
        y_minus = 1.0 if i % 5 == 0 else rng.uniform(0.5, 3.0)
        start = start_double(rng.uniform(0.5, 3.0), y_minus)
        sample = sampled_orbit(spec, start, _ORBIT_TS)
        for row in sample.rows:
            if row.u is None:
                continue
            res = residual_trivial_minus(start, row.u, row.v)
            lin = 1.0 + abs(row.u) + abs(row.v)
            quad = 1.0 + row.u * row.u + row.v * row.v
            worst_corr = max(worst_corr, abs(res.corrected) / quad)
            line.add(abs(res.line) < 1e-10 * lin and abs(res.corrected) < 1e-10 * quad,
                     abs(res.line) / lin)
            # on the orbit the circulating variant reduces to 2v(1 - y-)
            predicted = 2.0 * row.v * (1.0 - y_minus)
            pattern.add(abs(res.printed - predicted) < 1e-9 * quad)
    return [CheckResult("orbit-equation/trivial-minus-line", line.full and pattern.full,
                        f"{line} rows, worst line {_fmt(line.worst)}, "
                        f"corrected {_fmt(worst_corr)}; unmodified variant = 2v(1-y-) "
                        f"on {pattern}")]


def check_orbit_dual_report(rng, n_sets: int = 8) -> list[CheckResult]:
    cases = []
    cases.append((DualSL(SigmaKind.PARABOLIC, 1.0, 0.0, 0.0), start_dual(1.0, 0.0)))
    for _ in range(n_sets - 1):
        spec = DualSL(random_regime(rng),
                      sampling._signed_magnitude(rng, 0.5, 2.0),
                      rng.uniform(-1, 1), rng.uniform(-1, 1))
        cases.append((spec, start_dual(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))))
    verdicts = dual_orbit_report(cases)
    n_agree = sum(1 for v in verdicts if v.agrees)
    complete = len(verdicts) == len(cases) and all(v.n_applicable > 0 for v in verdicts)
    return [CheckResult(
        "orbit-equation/dual-displayed-form", complete,
        f"verdicts for {len(verdicts)} parameter sets: {n_agree} agree with the "
        f"oracle, {len(verdicts) - n_agree} disagree (reported, not asserted)")]


def check_orbit_discrimination(rng, n: int = 500) -> list[CheckResult]:
    tally = _Tally()
    for _ in range(n):
        a = rng.uniform(0.5, 2.0)
        start = start_double(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        u, v = rng.uniform(-3, 3), rng.uniform(-3, 3)
        r = residual_shear_pair(a, start, u, v)
        if r is None:
            continue
        tally.add(abs(r) > 1e-3)
    share = tally.good / max(tally.total, 1)
    return [CheckResult("orbit-equation/off-orbit-discrimination", share > 0.9,
                        f"{tally} random points rejected")]


# ---------------------------------------------------------------------------
# driver


def run_all(seed: int) -> list[CheckResult]:
    rng = sampling.rng_from_seed(seed)
    results: list[CheckResult] = []
    results += check_ring_laws(rng)
    results += check_generator_squares()
    results += check_inverses(rng)
    results += check_square_roots(rng)
    results += check_idempotent_census()
    results += check_split_isomorphism(rng)
    results += check_trig_roundtrip(rng)
    results += check_det_multiplicative(rng)
    results += check_det_component_formulas(rng)
    results += check_adjugate_identity(rng)
    results += check_exp_law(rng)
    results += check_exp_split(rng)
    results += check_class_partition(rng)
    results += check_unit_scaling(rng)
    results += check_admissibility_invariance(rng)
    results += check_transitivity(rng)
    results += check_family_transporters(rng)
    results += check_projection_equivariance(rng)
    results += check_action_class_preserving(rng)
    results += check_composition(rng)
    results += check_kernels(seed)
    results += check_fixed_point_reapply(rng)
    results += check_class_vs_fixed_count(rng)
    results += check_group_law(rng)
    results += check_det_one(rng)
    results += check_dual_gl_det(rng)
    results += check_centralizer_grid()
    results += check_exp_cross(rng)
    results += check_swap_homomorphism(rng)
    results += check_orbit_two_regime(rng)
    results += check_orbit_shear_pair(rng)
    results += check_orbit_line(rng)
    results += check_orbit_dual_report(rng)
    results += check_orbit_discrimination(rng)
    return results


def format_report(results: list[CheckResult], seed: int) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"passed {n_pass}/{len(results)} checks with seed {seed}")
    return "\n".join(lines) + "\n"
