"""The randomized verification suite behind ``hypermoebius verify``.

Every check draws from one seeded generator, so a fixed seed reproduces the
report byte for byte.  Checks are keyed by what they verify; each line of
the report reads "<key>: PASS|FAIL (<counts / worst residuals>)".

The fixed-draw sweeps (ring laws, unit inverses, the idempotent split, det
multiplicativity, the det component formulas and the adjugate identity) run
the library's own ``Hypercomplex`` and ``Mat2`` operations on stacks of
``_CHUNK`` samples at a time.  Each chunk draws from the generator exactly
what the scalar loop over the same samples would draw, in the same order,
so the generator reaches every later check in the same state and the
report is the one the scalar loops give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, sampling
from .algebra import (
    Hypercomplex,
    Kind,
    decompose,
    invert_many,
    magnitude_many,
    recompose,
    stacked,
)
from .errors import NotInCentralizerError
from .matrix2 import (
    Mat2,
    det,
    det_dual_formula_many,
    det_split_double_many,
    double_from_components,
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
    apply,
    apply_point,
    compose,
    fixed_points,
    fixed_points_real,
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
    ClassTag,
    ProjPoint,
    admissible,
    bijection_f,
    canonical_ratio,
    canonicalize,
    equivalent,
    pr_base_point,
    project_sl,
    real_apply,
    same_class,
    transporter_nonadmissible,
    transporter_to,
)
from .sampling import NONTRIVIAL
from .subgroups import (
    DoubleGL,
    DoubleSL,
    DualSL,
    GRAMMAR,
    SigmaKind,
    centralizer_solve,
    dual_gl_det_closed_form,
    dual_gl_det_printed_form,
    eval_subgroup,
    exp_cross_check,
    group_law_terms,
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

    def add_many(self, ok: np.ndarray, residual: np.ndarray) -> None:
        """``add`` for each sample; like ``max``, ``worst`` passes over NaN."""
        self.good += int(np.count_nonzero(ok))
        self.total += ok.size
        self.worst = float(np.fmax.reduce(residual, initial=self.worst))

    @property
    def full(self) -> bool:
        return self.good == self.total


_CHUNK = 1_000  # samples per batched step: keeps the sweep arrays near 100 kB


def _sweep(name: str, what: str, n: int, draw, residual, bound: float) -> CheckResult:
    """``residual(draw(k)) <= bound`` over n samples, k at a time; the detail
    reads "<passed>/<n> <what> <worst residual>"."""
    tally = _Tally()
    for start in range(0, n, _CHUNK):
        res = residual(draw(min(_CHUNK, n - start)))
        tally.add_many(res <= bound, res)
    return CheckResult(name, tally.full, f"{tally.good}/{n} {what} {_fmt(tally.worst)}")


# ---------------------------------------------------------------------------
# algebra checks


def check_ring_laws(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        def rel(xyz):
            x, y, z = (stacked(kind, v) for v in xyz.swapaxes(0, 1))
            # Python's pow: numpy's vectorised power may differ in the last bit
            cube = [m ** 3 for m in magnitude_many(stacked(kind, xyz)).max(axis=1).tolist()]
            xy = x * y
            gaps = (
                magnitude_many(xy - y * x),
                magnitude_many(xy * z - x * (y * z)),
                magnitude_many(x * (y + z) - (xy + x * z)),
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
            return magnitude_many(x * invert_many(x) - 1.0)

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
        for i in range(n):
            x, expected = draw(i)
            roots = algebra.sqrt_all(x)
            gaps = [(r * r - x).magnitude() for r in roots]
            counts.add(len(roots) == expected, max(gaps, default=0.0))
            identities.add(all(g < 1e-9 for g in gaps))
        out.append(CheckResult(
            f"square-roots/{name}", counts.full and identities.full,
            f"{counts.good}/{n} counts, worst s^2-x {_fmt(counts.worst)}"))
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
                        f"{tally.good}/{3 * n} round trips, worst {_fmt(tally.worst)}")]


# ---------------------------------------------------------------------------
# matrix checks


def check_det_multiplicative(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        def rel(xy):
            x, y = (stacked_mat(stacked(kind, v)) for v in xy.swapaxes(0, 1))
            prod = det(x) * det(y)
            gap = magnitude_many(det(x @ y) - prod)
            return gap / (1.0 + magnitude_many(prod))

        out.append(_sweep(f"det-multiplicative/{kind.name.lower()}", "pairs, worst rel", n,
                          lambda k: sampling.random_numbers(rng, (k, 2, 2, 2)), rel, 1e-10))
    return out


def check_det_component_formulas(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    for name, build, formula, what in (
            ("det-split/double", recompose, det_split_double_many, "component pairs"),
            ("det-epsilon-split/dual", lambda a1, a2: Hypercomplex(Kind.DUAL, a1, a2),
             det_dual_formula_many, "part pairs")):

        def gap(pairs):
            first, second = pairs.swapaxes(0, 1)
            return magnitude_many(det(stacked_mat(build(first, second))) - formula(first, second))

        out.append(_sweep(name, f"{what}, worst", n,
                          lambda k: rng.uniform(-2, 2, size=(k, 2, 2, 2)), gap, 1e-10))
    return out


def check_adjugate_identity(rng, n: int = 2_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        def gap(coords):
            x = stacked_mat(stacked(kind, coords))
            entries = (x @ hat(x) - identity(kind).scale(det(x))).entries()
            return np.maximum.reduce([magnitude_many(e) for e in entries])

        out.append(_sweep(f"adjugate-identity/{kind.name.lower()}", "matrices, worst", n,
                          lambda k: sampling.random_numbers(rng, (k, 2, 2)), gap, 1e-10))
    return out


def check_exp_law(rng, n: int = 100) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        tally = _Tally()
        for _ in range(n):
            b = Mat2(kind, *(sampling.random_number(kind, rng) for _ in range(4)))
            s = rng.uniform(-3, 3)
            t = rng.uniform(-3, 3)
            lhs = mat_exp(b, s + t)
            e_s = mat_exp(b, s)
            e_t = mat_exp(b, t)
            gap = (lhs - e_s @ e_t).max_entry_magnitude()
            # exponentials can reach 1e10 here; compare at the problem's scale
            scale = 1.0 + max(e_s.max_entry_magnitude() * e_t.max_entry_magnitude(),
                              lhs.max_entry_magnitude())
            tally.add(gap / scale <= 1e-8, gap / scale)
        out.append(CheckResult(
            f"exp-one-parameter/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} triples, worst rel {_fmt(tally.worst)}"))
    return out


def check_exp_split(rng, n: int = 100) -> list[CheckResult]:
    tally = _Tally()
    for _ in range(n):
        ap = rng.uniform(-2, 2, size=(2, 2))
        am = rng.uniform(-2, 2, size=(2, 2))
        t = rng.uniform(-2, 2)
        ring = mat_exp(double_from_components(ap, am), t)
        split = double_from_components(mat_exp_real(ap, t), mat_exp_real(am, t))
        gap = (ring - split).max_entry_magnitude()
        tally.add(gap <= 1e-8, gap)
    return [CheckResult("exp-component-split/double", tally.full,
                        f"{tally.good}/{n} matrices, worst {_fmt(tally.worst)}")]


# ---------------------------------------------------------------------------
# projective line checks


def _double_membership_flags(p: ProjPoint, tol: float) -> list[bool]:
    xp, xm = decompose(p.x)
    yp, ym = decompose(p.y)
    unit = lambda a, b: abs(a) > tol and abs(b) > tol
    x_unit = unit(xp, xm)
    y_unit = unit(yp, ym)
    y_zero = abs(yp) <= tol and abs(ym) <= tol
    plus_zero = abs(xp) <= tol and abs(yp) <= tol
    minus_zero = abs(xm) <= tol and abs(ym) <= tol
    return [
        y_unit,                                                        # affine
        x_unit and y_zero,                                             # infinity
        x_unit and abs(yp) > tol and abs(ym) <= tol,                   # omega plus
        x_unit and abs(ym) > tol and abs(yp) <= tol,                   # omega minus
        abs(xp) > tol and abs(xm) <= tol and abs(ym) > tol and abs(yp) <= tol,  # sigma one
        abs(xm) > tol and abs(xp) <= tol and abs(yp) > tol and abs(ym) <= tol,  # sigma two
        minus_zero and not plus_zero,                                  # PR plus
        plus_zero and not minus_zero,                                  # PR minus
    ]


_DOUBLE_FLAG_TAGS = [ClassTag.AFFINE, ClassTag.INFINITY, ClassTag.OMEGA_PLUS,
                     ClassTag.OMEGA_MINUS, ClassTag.SIGMA_ONE, ClassTag.SIGMA_TWO,
                     ClassTag.PR_PLUS, ClassTag.PR_MINUS]


def _dual_membership_flags(p: ProjPoint, tol: float) -> list[bool]:
    x_unit = abs(p.x.a1) > tol
    y_unit = abs(p.y.a1) > tol
    return [
        y_unit,                                                # affine
        x_unit and not y_unit and abs(p.y.a2) <= tol,          # infinity
        x_unit and not y_unit and abs(p.y.a2) > tol,           # dual omega
        not x_unit and not y_unit,                             # PR
    ]


_DUAL_FLAG_TAGS = [ClassTag.AFFINE, ClassTag.INFINITY, ClassTag.DUAL_OMEGA, ClassTag.PR]


def check_class_partition(rng, n: int = 10_000) -> list[CheckResult]:
    out = []
    tol = algebra.TAU_ZERO
    for kind, flags_of, tags in ((Kind.DOUBLE, _double_membership_flags, _DOUBLE_FLAG_TAGS),
                                 (Kind.DUAL, _dual_membership_flags, _DUAL_FLAG_TAGS)):
        tally = _Tally()
        for _ in range(n):
            p = sampling.random_point_mixed(kind, rng)
            flags = flags_of(p, tol)
            cls = canonicalize(p, tol)
            tally.add(sum(flags) == 1 and tags[flags.index(True)] is cls.tag)
        out.append(CheckResult(
            f"class-partition/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} points land in exactly one class"))
    return out


def check_unit_scaling(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    for kind in (Kind.DOUBLE, Kind.DUAL):
        tally = _Tally()
        for _ in range(n):
            p = sampling.random_point_mixed(kind, rng)
            u = sampling.random_unit(kind, rng, 0.2, 5.0)
            tally.add(same_class(canonicalize(p.scaled(u)), canonicalize(p)))
        out.append(CheckResult(
            f"unit-scaling-stability/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} scaled points keep their class"))
    return out


def check_admissibility_invariance(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    for kind in (Kind.DOUBLE, Kind.DUAL):
        tally = _Tally()
        for _ in range(n):
            p = sampling.random_point_mixed(kind, rng)
            m = MoebiusMap(sampling.random_gl(kind, rng))
            tally.add(admissible(apply_point(m, p)) == admissible(p))
        out.append(CheckResult(
            f"admissibility-invariance/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} images preserve admissibility"))
    return out


def check_transitivity(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        tally = _Tally()
        while tally.total < n:
            p = sampling.random_point_mixed(kind, rng)
            if not admissible(p):
                continue
            m = MoebiusMap(transporter_to(p))
            base = ProjPoint(kind, algebra.one(kind), algebra.zero(kind))
            tally.add(equivalent(apply_point(m, base), p))
        out.append(CheckResult(
            f"transitivity-witness/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} transporters land on target"))
    return out


def check_family_transporters(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    cases = ((Kind.DOUBLE, ClassTag.PR_PLUS), (Kind.DOUBLE, ClassTag.PR_MINUS),
             (Kind.DUAL, ClassTag.PR))
    for kind, tag in cases:
        tally = _Tally()
        for i in range(n):
            if i % 10 == 0:
                ratio = canonical_ratio(0.0, sampling._nonzero_real(rng))
            elif i % 10 == 1:
                ratio = canonical_ratio(sampling._nonzero_real(rng), 0.0)
            else:
                ratio = canonical_ratio(rng.uniform(-3, 3), rng.uniform(-3, 3))
            target = CanonicalClass(tag, ratio=ratio)
            m = MoebiusMap(transporter_nonadmissible(kind, target))
            image = apply(m, pr_base_point(kind, tag))
            tally.add(same_class(image, target))
        out.append(CheckResult(
            f"family-transporter/{tag.value}", tally.full,
            f"{tally.good}/{n} transporters land on target"))
    return out


def check_projection_equivariance(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    tally = _Tally()
    for i in range(n):
        g = sampling.random_sl(Kind.DOUBLE, rng)
        gp, gm = project_sl(g)
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        family = "+" if i % 2 == 0 else "-"
        comp = gp if family == "+" else gm
        lhs = apply_point(MoebiusMap(g), bijection_f(Kind.DOUBLE, v[0], v[1], family))
        rhs_v = real_apply(comp, v)
        rhs = bijection_f(Kind.DOUBLE, rhs_v[0], rhs_v[1], family)
        tally.add(equivalent(lhs, rhs))
    out.append(CheckResult("sl-projection-equivariance/double", tally.full,
                           f"{tally.good}/{n} component actions match"))
    tally = _Tally()
    for _ in range(n):
        g = sampling.random_sl(Kind.DUAL, rng)
        g1 = project_sl(g)
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = apply_point(MoebiusMap(g), bijection_f(Kind.DUAL, v[0], v[1]))
        rhs_v = real_apply(g1, v)
        rhs = bijection_f(Kind.DUAL, rhs_v[0], rhs_v[1])
        tally.add(equivalent(lhs, rhs))
    out.append(CheckResult("sl-projection-equivariance/dual", tally.full,
                           f"{tally.good}/{n} a1-part actions match"))
    return out


# ---------------------------------------------------------------------------
# Moebius map checks


def check_action_class_preserving(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    for kind in (Kind.DOUBLE, Kind.DUAL):
        tally = _Tally()
        for _ in range(n):
            m = MoebiusMap(sampling.random_gl(kind, rng))
            p = sampling.random_point_mixed(kind, rng)
            u = sampling.random_unit(kind, rng, 0.2, 5.0)
            tally.add(same_class(apply(m, p.scaled(u)), apply(m, p)))
        out.append(CheckResult(
            f"action-class-preserving/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} unit rescalings act identically"))
    return out


def check_composition(rng, n: int = 1_000) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        tally = _Tally()
        for _ in range(n):
            m1 = MoebiusMap(sampling.random_gl(kind, rng))
            m2 = MoebiusMap(sampling.random_gl(kind, rng))
            p = sampling.random_point_mixed(kind, rng) if kind is not Kind.COMPLEX \
                else sampling.random_point(kind, rng)
            lhs = apply(compose(m1, m2), p)
            rhs = apply(m1, apply_point(m2, p))
            tally.add(same_class(lhs, rhs))
        out.append(CheckResult(
            f"composition-homomorphism/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} compositions agree"))
    return out


def check_kernels(seed: int) -> list[CheckResult]:
    expected = {
        "real": ["I", "-I"],
        "complex": ["I", "-I"],
        "double": ["I", "jI", "-jI", "-I"],
        "dual": ["I", "-I"],
    }
    out = []
    for name, want in expected.items():
        got = kernel_labels(name, n_probes=100, seed=seed)
        out.append(CheckResult(
            f"kernel-scalars/{name}", sorted(got) == sorted(want),
            f"{{{', '.join(got)}}} on 100 probes"))
    return out


def check_fixed_point_reapply(rng, n: int = 200) -> list[CheckResult]:
    out = []
    for kind in RING_KINDS:
        tally = _Tally()
        maps = 0
        while maps < n:
            m = MoebiusMap(sampling.random_sl(kind, rng))
            if mob_equal(m, identity_map(kind)):
                continue
            maps += 1
            fps = fixed_points(m)
            for cls in fps.points:
                tally.add(same_class(apply(m, class_point(kind, cls)), cls))
            for family in fps.families:
                for rep in family.representatives:
                    tally.add(same_class(apply(m, rep), canonicalize(rep)))
        out.append(CheckResult(
            f"fixed-point-reapply/{kind.name.lower()}", tally.full,
            f"{tally.good}/{tally.total} fixed classes re-apply to themselves"))
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
        fps = fixed_points_real(g)
        if fps is None:
            continue
        tally.add(len(fps) == expected[_classify_real_tr2(float(np.trace(g)) ** 2)])
    return [CheckResult("trace-class-vs-fixed-count/real", tally.full,
                        f"{tally.good}/{tally.total} maps match the count table")]


# ---------------------------------------------------------------------------
# subgroup checks


def check_group_law(rng, n_specs: int = 20, n_pairs: int = 100) -> list[CheckResult]:
    out = []
    for family, specs in sampling.random_specs(rng, n_specs).items():
        tally = _Tally()
        for spec in specs:
            for _ in range(n_pairs):
                t1 = rng.uniform(-3, 3)
                t2 = rng.uniform(-3, 3)
                r, m1, m2 = group_law_terms(spec, t1, t2)
                # exp-scaled families reach 1e10 at |t1+t2| = 6: relative check
                scale = 1.0 + m1 * m2
                tally.add(r / scale < 1e-8, r / scale)
        out.append(CheckResult(
            f"one-parameter-law/{family}", tally.full,
            f"{tally.good}/{tally.total} (t1,t2) pairs, worst rel {_fmt(tally.worst)}"))
    return out


def check_det_one(rng, n_specs: int = 20) -> list[CheckResult]:
    out = []
    ts = t_grid(-2.0, 2.0, 0.25)
    specs = sampling.random_specs(rng, n_specs)
    for family in ("double-sl", "dual-sl"):
        tally = _Tally()
        for spec in specs[family]:
            for t in ts:
                d = sl_membership_check(spec, t)
                gap = (d - algebra.one(d.kind)).magnitude()
                tally.add(gap < 1e-8, gap)
        out.append(CheckResult(
            f"determinant-one/{family}", tally.full,
            f"{tally.good}/{tally.total} grid points, worst {_fmt(tally.worst)}"))
    return out


def check_dual_gl_det(rng, n_specs: int = 20) -> list[CheckResult]:
    ts = t_grid(-2.0, 2.0, 0.25)
    tally = _Tally()
    printed_gap = 0.0
    for spec in sampling.random_specs(rng, n_specs)["dual-gl"]:
        for t in ts:
            actual = sl_membership_check(spec, t)
            gap = (actual - dual_gl_det_closed_form(spec, t)).magnitude()
            printed_gap = max(printed_gap,
                              (actual - dual_gl_det_printed_form(spec, t)).magnitude())
            tally.add(gap < 1e-8, gap)
    return [CheckResult(
        "determinant-closed-form/dual-gl", tally.full,
        f"{tally.good}/{tally.total} grid points, worst {_fmt(tally.worst)}; "
        f"cos(2t+t0) variant drifts up to {_fmt(printed_gap)}")]


def check_centralizer_grid() -> list[CheckResult]:
    out = []
    values = [-2.0 + 0.5 * k for k in range(9)]
    for sigma_kind in NONTRIVIAL:
        s = sigma_kind.sigma
        grid, commute = _Tally(), _Tally()
        h = rotation_real(sigma_kind, 0.7)
        for p in values:
            for q in values:
                for r in values:
                    for w in values:
                        b = np.array([[p, q], [r, w]])
                        structural = (p == w) and (q == s * r)
                        try:
                            centralizer_solve(sigma_kind, b)
                            solved = True
                        except NotInCentralizerError:
                            solved = False
                        grid.add(solved == structural)
                        if solved:
                            commute.add(float(np.max(np.abs(b @ h - h @ b))) < 1e-9)
        out.append(CheckResult(
            f"centralizer-grid/{sigma_kind.letter}", grid.full and commute.full,
            f"{grid.good}/{grid.total} grid matrices, "
            f"{commute.good}/{commute.total} successes commute"))
    return out


def check_exp_cross(rng, n_specs: int = 10) -> list[CheckResult]:
    out = []
    for family, specs in sampling.random_specs(rng, n_specs).items():
        tally = _Tally()
        for spec in specs:
            r = exp_cross_check(_clamp_params(spec))
            tally.add(r < 1e-5, r)
        out.append(CheckResult(
            f"exp-oracle/{family}", tally.full,
            f"{tally.good}/{len(specs)} descriptions, worst {_fmt(tally.worst)}"))
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
            spec = DoubleSL(NONTRIVIAL[int(rng.integers(0, 3))],
                            NONTRIVIAL[int(rng.integers(0, 3))],
                            sampling._signed_magnitude(rng, 0.5, 2.0))
        else:
            spec = DoubleGL(NONTRIVIAL[int(rng.integers(0, 3))], rng.uniform(-1, 1),
                            NONTRIVIAL[int(rng.integers(0, 3))], rng.uniform(-1, 1),
                            sampling._signed_magnitude(rng, 0.5, 2.0))
        mirrored, scale = swap_double(spec)
        t = rng.uniform(-2, 2)
        lhs = eval_subgroup(mirrored, scale * t)
        rhs = swap_image(eval_subgroup(spec, t))
        gap = (lhs - rhs).max_entry_magnitude()
        rel = gap / (1.0 + rhs.max_entry_magnitude())
        tally.add(rel <= 1e-12, rel)
    return [CheckResult("component-swap-homomorphism/double", tally.full,
                        f"{tally.good}/{n} samples, worst rel {_fmt(tally.worst)}")]


# ---------------------------------------------------------------------------
# orbit checks


def check_orbit_two_regime(rng, n_sets: int = 20) -> list[CheckResult]:
    ts = t_grid(-2.0, 2.0, 0.1)
    tally = _Tally()
    for _ in range(n_sets):
        spec = DoubleSL(NONTRIVIAL[int(rng.integers(0, 3))],
                        NONTRIVIAL[int(rng.integers(0, 3))],
                        rng.uniform(0.5, 2.0))
        start = start_double(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        sample = sampled_orbit(spec, start, ts)
        for row in sample.rows:
            if row.residual_primary is None:
                continue
            tally.add(abs(row.residual_primary) < 1e-8, abs(row.residual_primary))
    return [CheckResult("orbit-equation/two-regime", tally.full,
                        f"{tally.good}/{tally.total} applicable rows, worst {_fmt(tally.worst)}")]


def check_orbit_shear_pair(rng, n_sets: int = 20) -> list[CheckResult]:
    ts = t_grid(-2.0, 2.0, 0.1)
    rows, agree = _Tally(), _Tally()
    for _ in range(n_sets):
        spec = DoubleSL(SigmaKind.PARABOLIC, SigmaKind.PARABOLIC, rng.uniform(0.5, 2.0))
        start = start_double(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        sample = sampled_orbit(spec, start, ts)
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
                        f"{rows.good}/{rows.total} rows, worst {_fmt(rows.worst)}; "
                        f"{agree.good}/{agree.total} vanish together with the general form")]


def check_orbit_line(rng, n_sets: int = 20) -> list[CheckResult]:
    ts = t_grid(-2.0, 2.0, 0.1)
    line, pattern = _Tally(), _Tally()
    worst_corr = 0.0
    for i in range(n_sets):
        sigma = NONTRIVIAL[int(rng.integers(0, 3))]
        spec = DoubleSL(sigma, SigmaKind.TRIVIAL)
        y_minus = 1.0 if i % 5 == 0 else rng.uniform(0.5, 3.0)
        start = start_double(rng.uniform(0.5, 3.0), y_minus)
        sample = sampled_orbit(spec, start, ts)
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
                        f"{line.good}/{line.total} rows, worst line {_fmt(line.worst)}, "
                        f"corrected {_fmt(worst_corr)}; unmodified variant = 2v(1-y-) "
                        f"on {pattern.good}/{line.total}")]


def check_orbit_dual_report(rng, n_sets: int = 8) -> list[CheckResult]:
    cases = []
    cases.append((DualSL(SigmaKind.PARABOLIC, 1.0, 0.0, 0.0), start_dual(1.0, 0.0)))
    for _ in range(n_sets - 1):
        spec = DualSL(NONTRIVIAL[int(rng.integers(0, 3))],
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
                        f"{tally.good}/{tally.total} random points rejected")]


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
