"""Acceptance gate: every contract criterion at its stated scale and
tolerance, one pass line printed per criterion (run with -s to see them)."""

import time

import numpy as np

from hypermoebius import algebra, sampling, verify
from hypermoebius.algebra import Hypercomplex, Kind, recompose
from hypermoebius.errors import NotInCentralizerError
from hypermoebius.matrix2 import (
    det,
    det_dual_formula,
    det_split_double,
    double_from_components,
    dual_from_parts,
)
from hypermoebius.moebius import MoebiusMap, apply, apply_point, kernel_labels
from hypermoebius.orbits import (
    dual_orbit_report,
    residual_trivial_minus,
    sampled_orbit,
    start_double,
    start_dual,
    t_grid,
)
from hypermoebius.projline import (
    CanonicalClass,
    ClassTag,
    ProjPoint,
    admissible,
    bijection_f,
    canonical_ratio,
    canonicalize,
    equivalent,
    same_class,
    transporter_nonadmissible,
    transporter_to,
)
from hypermoebius.subgroups import (
    DoubleGL,
    DoubleSL,
    DualGL,
    DualSL,
    RealGL,
    SigmaKind,
    _magnitude,
    centralizer_solve,
    dual_gl_det_closed_form,
    eval_subgroup,
    exp_cross_check,
    group_law_terms,
    rotation_real,
    sl_membership_check,
)
from hypermoebius.verify import (
    _DOUBLE_FLAG_TAGS,
    _DUAL_FLAG_TAGS,
    _double_membership_flags,
    _dual_membership_flags,
)

RING_KINDS = (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL)


def report(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def test_c01_ring_laws_within_1e12_under_5s():
    rng = sampling.rng_from_seed(101)
    started = time.monotonic()
    for kind in RING_KINDS:
        for _ in range(10_000):
            x = sampling.random_number(kind, rng)
            y = sampling.random_number(kind, rng)
            z = sampling.random_number(kind, rng)
            scale = 1.0 + max(x.magnitude(), y.magnitude(), z.magnitude()) ** 3
            assert ((x * y) - (y * x)).magnitude() <= 1e-12 * scale
            assert ((x * y) * z - x * (y * z)).magnitude() <= 1e-12 * scale
            assert (x * (y + z) - (x * y + x * z)).magnitude() <= 1e-12 * scale
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, f"3x10^4 commutativity/associativity/distributivity triples "
              f"within 1e-12 in {elapsed:.2f}s")


def test_c02_inverse_and_root_identities():
    rng = sampling.rng_from_seed(102)
    for kind in RING_KINDS:
        for _ in range(10_000 // 3 + 1):
            x = sampling.random_unit(kind, rng)
            assert (x * algebra.invert(x) - algebra.one(kind)).magnitude() < 1e-9
    double_counts = {4: 0, 2: 0, 1: 0, 0: 0}
    for i in range(10_000):
        case = i % 4
        if case == 0:
            x = recompose(rng.uniform(0.05, 9), rng.uniform(0.05, 9))
        elif case == 1:
            x = recompose(rng.uniform(0.05, 9), 0.0)
        elif case == 2:
            x = algebra.zero(Kind.DOUBLE)
        else:
            x = recompose(-rng.uniform(0.05, 9), rng.uniform(-9, 9))
        roots = algebra.sqrt_all(x)
        assert len(roots) == {0: 4, 1: 2, 2: 1, 3: 0}[case]
        double_counts[len(roots)] += 1
        for s in roots:
            assert (s * s - x).magnitude() < 1e-9
    dual_counts = {2: 0, 1: 0, 0: 0}
    for i in range(10_000):
        case = i % 3
        if case == 0:
            x = Hypercomplex(Kind.DUAL, rng.uniform(0.05, 9), rng.uniform(-9, 9))
        elif case == 1:
            x = algebra.zero(Kind.DUAL)
        else:
            x = Hypercomplex(Kind.DUAL, 0.0, rng.uniform(0.2, 9))
        roots = algebra.sqrt_all(x)
        assert len(roots) == {0: 2, 1: 1, 2: 0}[case]
        dual_counts[len(roots)] += 1
        for s in roots:
            assert (s * s - x).magnitude() < 1e-9
    report(2, f"10^4 inverses and radicands within 1e-9; root counts "
              f"double {double_counts}, dual {dual_counts}")


def test_c03_idempotent_census():
    grid = [-2.0 + 0.25 * k for k in range(17)]
    found = {(p, m) for p in grid for m in grid
             if ((x := recompose(p, m)) * x - x).is_zero(algebra.TAU_ZERO)}
    assert found == {(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)}
    report(3, "grid scan finds exactly the four double idempotents, "
              "no false positives or negatives")


def test_c04_component_determinant_formulas():
    rng = sampling.rng_from_seed(104)
    worst = 0.0
    for _ in range(10_000):
        ap = rng.uniform(-2, 2, (2, 2))
        am = rng.uniform(-2, 2, (2, 2))
        gap = (det(double_from_components(ap, am)) - det_split_double(ap, am)).magnitude()
        worst = max(worst, gap)
        assert gap < 1e-10
    for _ in range(10_000):
        a1 = rng.uniform(-2, 2, (2, 2))
        a2 = rng.uniform(-2, 2, (2, 2))
        gap = (det(dual_from_parts(a1, a2)) - det_dual_formula(a1, a2)).magnitude()
        worst = max(worst, gap)
        assert gap < 1e-10
    report(4, f"10^4 + 10^4 component determinant splits agree with direct "
              f"expansion, worst {worst:.2e}")


def test_c05_classification_total_exclusive_invariant():
    rng = sampling.rng_from_seed(105)
    for kind, flags_of, tags in ((Kind.DOUBLE, _double_membership_flags, _DOUBLE_FLAG_TAGS),
                                 (Kind.DUAL, _dual_membership_flags, _DUAL_FLAG_TAGS)):
        for _ in range(10_000):
            p = sampling.random_point_mixed(kind, rng)
            flags = flags_of(p, algebra.TAU_ZERO)
            cls = canonicalize(p)
            assert sum(flags) == 1
            assert tags[flags.index(True)] is cls.tag
            u = sampling.random_unit(kind, rng, 0.2, 4.0)
            assert same_class(canonicalize(p.scaled(u)), cls)
    report(5, "2x10^4 mixed points (boundaries included) fall in exactly one "
              "class, stable under unit rescaling")


def test_c06_orbit_transporters_and_invariance():
    rng = sampling.rng_from_seed(106)
    for kind in (Kind.DOUBLE, Kind.DUAL):
        base = ProjPoint(kind, algebra.one(kind), algebra.zero(kind))
        done = 0
        while done < 1000:
            p = sampling.random_point_mixed(kind, rng)
            if not admissible(p):
                continue
            done += 1
            assert equivalent(apply_point(MoebiusMap(transporter_to(p)), base), p)
    for kind, tag in ((Kind.DOUBLE, ClassTag.PR_PLUS), (Kind.DOUBLE, ClassTag.PR_MINUS),
                      (Kind.DUAL, ClassTag.PR)):
        for i in range(1000):
            if i % 7 == 0:
                ratio = canonical_ratio(0.0, 1.0)
            else:
                ratio = canonical_ratio(rng.uniform(-3, 3), rng.uniform(-3, 3))
            target = CanonicalClass(tag, ratio=ratio)
            m = MoebiusMap(transporter_nonadmissible(target))
            assert same_class(apply(m, bijection_f(tag, 1.0, 0.0)), target)
    for kind in (Kind.DOUBLE, Kind.DUAL):
        for _ in range(1000):
            p = sampling.random_point_mixed(kind, rng)
            m = MoebiusMap(sampling.random_gl(kind, rng))
            assert admissible(apply_point(m, p)) == admissible(p)
    report(6, "10^3 transporters per orbit land on target; admissibility is "
              "invariant on 10^3 random (matrix, point) pairs per ring")


def test_c07_kernel_scalars():
    assert sorted(kernel_labels("double", seed=107)) == sorted(["I", "-I", "jI", "-jI"])
    assert sorted(kernel_labels("dual", seed=107)) == ["-I", "I"]
    assert sorted(kernel_labels("real", seed=107)) == ["-I", "I"]
    report(7, "kernel scalars on 100 probes: double {±I, ±jI}, dual {±I}, real {±I}")


def _acceptance_specs(rng):
    specs = []
    for _ in range(8):
        specs.append(RealGL(sampling.random_regime(rng), rng.uniform(-1, 1)))
        specs.append(DoubleSL(sampling.random_regime(rng),
                              sampling.random_regime(rng), rng.uniform(0.5, 2)))
        specs.append(DoubleGL(sampling.random_regime(rng), rng.uniform(-1, 1),
                              sampling.random_regime(rng), rng.uniform(-1, 1),
                              rng.uniform(0.5, 2)))
        specs.append(DualGL(sampling.random_regime(rng), rng.uniform(-1, 1),
                            sampling._signed_magnitude(rng, 0.5, 2), rng.uniform(-1, 1)))
        specs.append(DualSL(sampling.random_regime(rng),
                            sampling._signed_magnitude(rng, 0.5, 2),
                            rng.uniform(-1, 1), rng.uniform(-1, 1)))
    specs.append(RealGL(SigmaKind.TRIVIAL, 0.7))
    specs.append(DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.TRIVIAL))
    specs.append(DualGL(SigmaKind.TRIVIAL, 0.4, 1.0, 0.3))
    return specs


def test_c08_subgroup_laws_and_determinants():
    rng = sampling.rng_from_seed(108)
    specs = _acceptance_specs(rng)
    for spec in specs:
        for _ in range(100):
            t1, t2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
            r = group_law_terms(spec, t1, t2)[0]
            scale = 1.0 + _magnitude(eval_subgroup(spec, t1)) \
                * _magnitude(eval_subgroup(spec, t2))
            assert r < 1e-8 * scale
    ts = t_grid(-2, 2, 0.25)
    for spec in specs:
        if isinstance(spec, (DoubleSL, DualSL)):
            for t in ts:
                d = sl_membership_check(spec, t)
                assert (d - algebra.one(d.kind)).magnitude() < 1e-8
        elif isinstance(spec, DualGL):
            for t in ts:
                gap = (sl_membership_check(spec, t)
                       - dual_gl_det_closed_form(spec, t)).magnitude()
                assert gap < 1e-8
    report(8, f"{len(specs)} subgroup descriptions x 100 (t1,t2) pairs satisfy the "
              f"one-parameter law; det-1 families and the dual det formula hold to 1e-8")


def test_c09_centralizer_grid():
    values = [-2.0 + 0.5 * k for k in range(9)]
    for sigma_kind in sampling.NONTRIVIAL:
        s = sigma_kind.sigma
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
                        assert solved == structural
                        if solved:
                            assert np.max(np.abs(b @ h - h @ b)) < 1e-9
    report(9, "3 x 9^4 grid matrices: centralizer membership is exactly "
              "{equal diagonal, b = sigma*c}; every member commutes within 1e-9")


def test_c10_exponential_oracle():
    rng = sampling.rng_from_seed(110)
    clamp = lambda v: max(-1.5, min(1.5, float(v)))
    worst = 0.0
    specs = [
        RealGL(SigmaKind.ELLIPTIC, clamp(rng.uniform(-1.5, 1.5))),
        RealGL(SigmaKind.HYPERBOLIC, clamp(rng.uniform(-1.5, 1.5))),
        RealGL(SigmaKind.PARABOLIC, clamp(rng.uniform(-1.5, 1.5))),
        RealGL(SigmaKind.TRIVIAL, clamp(rng.uniform(-1.5, 1.5))),
        DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.HYPERBOLIC, clamp(rng.uniform(0.5, 1.5))),
        DoubleSL(SigmaKind.PARABOLIC, SigmaKind.TRIVIAL),
        DoubleGL(SigmaKind.HYPERBOLIC, clamp(rng.uniform(-1.5, 1.5)),
                 SigmaKind.PARABOLIC, clamp(rng.uniform(-1.5, 1.5)),
                 clamp(rng.uniform(0.5, 1.5))),
        DualGL(SigmaKind.ELLIPTIC, clamp(rng.uniform(-1.5, 1.5)), 1.2,
               clamp(rng.uniform(-1.5, 1.5))),
        DualGL(SigmaKind.TRIVIAL, 0.3, 1.0, 0.2),
        DualSL(SigmaKind.PARABOLIC, 1.4, clamp(rng.uniform(-1.5, 1.5)),
               clamp(rng.uniform(-1.5, 1.5))),
        DualSL(SigmaKind.HYPERBOLIC, 0.8, 0.5, 1.1),
        DualSL(SigmaKind.ELLIPTIC, -1.1, -0.4, 0.9),
    ]
    for spec in specs:
        r = exp_cross_check(spec)
        worst = max(worst, r)
        assert r < 1e-5
    report(10, f"exp(generator*t) matches the closed forms for every variant, "
               f"worst residual {worst:.2e}")


def test_c11_orbit_equations_and_runtime():
    rng = sampling.rng_from_seed(111)
    ts = t_grid(-2, 2, 0.1)
    assert len(ts) == 41
    # general two-regime equation
    checked = 0
    for _ in range(20):
        spec = DoubleSL(sampling.random_regime(rng),
                        sampling.random_regime(rng), rng.uniform(0.5, 2))
        start = start_double(rng.uniform(0.5, 3), rng.uniform(0.5, 3))
        for row in sampled_orbit(spec, start, ts).rows:
            if row.residual_primary is not None:
                checked += 1
                assert abs(row.residual_primary) < 1e-8
    assert checked > 300
    # shear-shear polynomial form (thresholds scale with the row's
    # coordinates: near-pole rows are computable only to ~(u^2+v^2)*eps)
    checked_pair = 0
    for _ in range(20):
        spec = DoubleSL(SigmaKind.PARABOLIC, SigmaKind.PARABOLIC, rng.uniform(0.5, 2))
        start = start_double(rng.uniform(0.5, 3), rng.uniform(0.5, 3))
        for row in sampled_orbit(spec, start, ts).rows:
            if row.residual_secondary is not None:
                checked_pair += 1
                quad = 1.0 + row.u * row.u + row.v * row.v
                assert abs(row.residual_secondary) < 1e-8 * quad
    assert checked_pair > 300
    # trivial-minus line: corrected form to 1e-10, unmodified variant reproduced
    discrepancy_seen = False
    for i in range(20):
        spec = DoubleSL(sampling.random_regime(rng), SigmaKind.TRIVIAL)
        y_minus = 1.0 if i % 5 == 0 else rng.uniform(0.5, 3)
        start = start_double(rng.uniform(0.5, 3), y_minus)
        for row in sampled_orbit(spec, start, ts).rows:
            if row.u is None:
                continue
            res = residual_trivial_minus(start, row.u, row.v)
            lin = 1.0 + abs(row.u) + abs(row.v)
            quad = 1.0 + row.u * row.u + row.v * row.v
            assert abs(res.line) < 1e-10 * lin
            assert abs(res.corrected) < 1e-10 * quad
            assert abs(res.printed - 2 * row.v * (1 - y_minus)) < 1e-9 * quad
            if abs(res.printed) > 1e-3:
                discrepancy_seen = True
    assert discrepancy_seen  # the unmodified variant visibly fails off y- = 1
    # dual family: verdict report against the oracle
    cases = [(DualSL(SigmaKind.PARABOLIC, 1.0, 0.0, 0.0), start_dual(1.0, 0.0))]
    for _ in range(7):
        cases.append((DualSL(sampling.random_regime(rng),
                             sampling._signed_magnitude(rng, 0.5, 2),
                             rng.uniform(-1, 1), rng.uniform(-1, 1)),
                      start_dual(rng.uniform(0.5, 3), rng.uniform(0.5, 3))))
    verdicts = dual_orbit_report(cases)
    assert len(verdicts) == len(cases)
    assert all(v.n_applicable > 0 and v.max_abs_residual is not None for v in verdicts)
    # the full randomized suite stays inside the runtime budget
    started = time.monotonic()
    results = verify.run_all(7)
    elapsed = time.monotonic() - started
    assert all(r.passed for r in results)
    assert elapsed < 60.0
    agree = sum(v.agrees for v in verdicts)
    report(11, f"orbit equations hold on oracle rows ({checked} two-regime, "
               f"{checked_pair} shear-pair); line family corrected to 1e-10 with the "
               f"unmodified variant's discrepancy reproduced; dual displayed form: "
               f"{agree}/{len(verdicts)} parameter sets agree (reported); "
               f"full verify suite passed in {elapsed:.1f}s")
