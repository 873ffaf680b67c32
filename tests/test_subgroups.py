import math

import numpy as np
import pytest

from hypermoebius.algebra import Kind, cos_sigma, number, one
from hypermoebius.errors import DomainError, InvalidLiteralError, NotInCentralizerError
from hypermoebius.matrix2 import det, identity, mat_exp_real
from hypermoebius.subgroups import (
    DoubleGL,
    DoubleSL,
    DualGL,
    DualSL,
    RealGL,
    SigmaKind,
    centralizer_solve,
    classify_spec,
    conjugate_spec,
    dual_gl_det_closed_form,
    dual_gl_det_printed_form,
    eval_subgroup,
    exp_cross_check,
    generator_of,
    group_law_residual,
    parse_spec,
    render_spec,
    rotation_real,
    similarity_residual,
    sl_membership_check,
    swap_double,
    swap_image,
)
from hypermoebius.sampling import random_specs, rng_from_seed

NONTRIVIAL = (SigmaKind.ELLIPTIC, SigmaKind.PARABOLIC, SigmaKind.HYPERBOLIC)


class TestEval:
    def test_shear_matrix(self):
        m = eval_subgroup(RealGL(SigmaKind.PARABOLIC), 1.5)
        assert np.allclose(m, [[1, 0], [1.5, 1]])

    def test_double_with_trivial_minus(self):
        m = eval_subgroup(DoubleSL(SigmaKind.HYPERBOLIC, SigmaKind.TRIVIAL), 0.8)
        from hypermoebius.matrix2 import components_double

        plus, minus = components_double(m)
        assert np.allclose(plus, [[math.cosh(0.8), math.sinh(0.8)],
                                  [math.sinh(0.8), math.cosh(0.8)]])
        assert np.allclose(minus, np.eye(2))

    def test_zero_gives_identity(self):
        specs = [RealGL(SigmaKind.ELLIPTIC, 0.3),
                 DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.HYPERBOLIC, 2.0),
                 DualGL(SigmaKind.PARABOLIC, 0.1, 1.0, 0.5),
                 DualSL(SigmaKind.ELLIPTIC, 1.0, 0.2, 0.4)]
        for spec in specs:
            m = eval_subgroup(spec, 0.0)
            if isinstance(m, np.ndarray):
                assert np.allclose(m, np.eye(2))
            else:
                assert m.close_to(identity(m.kind), 1e-12)

    def test_dual_lam_zero_rejected(self):
        with pytest.raises(DomainError):
            DualGL(SigmaKind.ELLIPTIC, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            DualSL(SigmaKind.ELLIPTIC, 0.0)

    def test_dual_sl_undeformed_when_t0_zero(self):
        # sin_sigma(t0) = 0 removes the eps-deformation; the spec stays valid
        from hypermoebius.matrix2 import parts_dual

        for sigma in NONTRIVIAL:
            spec = DualSL(sigma, 1.0, 0.5, 0.0)
            assert classify_spec(spec).family == "dual-sl"
            for t in (-1.3, 0.4, 2.0):
                a1, a2 = parts_dual(eval_subgroup(spec, t))
                assert np.array_equal(a2, np.zeros((2, 2)))
                assert np.array_equal(a1, rotation_real(sigma, t))

    def test_dual_sl_needs_active_regime(self):
        with pytest.raises(DomainError):
            DualSL(SigmaKind.TRIVIAL, 1.0)

    def test_overflow_is_domain_error(self):
        double = parse_spec("double-gl(sigma+=A,lambda+=800,sigma-=K,lambda-=0)")
        dual = parse_spec("dual-sl(sigma=A,lambda=1,t0=1)")
        for spec, t in ((double, 1.0), (dual, 800.0),
                        (conjugate_spec(double, identity(Kind.DOUBLE)), 1.0)):
            with pytest.raises(DomainError, match="overflows"):
                eval_subgroup(spec, t)
        eval_subgroup(double, 0.5)  # exp(400) is still a float

    def test_nonfinite_entry_is_domain_error(self):
        # lam*t*H overflows to inf in float arithmetic, which raises nothing
        spec = parse_spec("dual-sl(sigma=K,lambda=1e308,t0=1)")
        with pytest.raises(DomainError, match="overflows"):
            eval_subgroup(spec, 3.0)
        assert all(math.isfinite(x) for e in eval_subgroup(spec, 0.5).entries()
                   for x in (e.a1, e.a2))

    def test_stacked_eval_matches_each_t(self):
        # math per element: np.exp, np.cosh and np.sinh differ in the last bit
        ts = rng_from_seed(13).uniform(-6.0, 6.0, 500)
        specs = [DoubleGL(sp, 0.7, sm, -0.4, 1.3) for sp in SigmaKind for sm in SigmaKind]
        specs += [DoubleSL(SigmaKind.HYPERBOLIC, SigmaKind.ELLIPTIC, -0.6)]
        specs += [DualGL(sigma, -0.3, 1.1, 0.4) for sigma in SigmaKind]
        specs += [DualSL(sigma, -0.8, 0.5, -0.7) for sigma in NONTRIVIAL]
        for spec in specs:
            stack = [np.broadcast_to(x, ts.shape)
                     for e in eval_subgroup(spec, ts).entries() for x in (e.a1, e.a2)]
            for i, t in enumerate(ts.tolist()):
                one = [x for e in eval_subgroup(spec, t).entries() for x in (e.a1, e.a2)]
                assert [x[i] for x in stack] == one, (spec, t)

    def test_stacked_eval_raises_what_math_raises(self):
        with pytest.raises(OverflowError):
            eval_subgroup(parse_spec("double-gl(sigma+=A,lambda+=800,sigma-=K,lambda-=0)"),
                          np.array([0.0, 1.0]))
        with pytest.raises(ValueError):  # math.cos(inf): a*t overflows
            eval_subgroup(parse_spec("double-sl(sigma+=K,sigma-=K,a=1e308)"), np.array([10.0]))

    def test_ring_families_match_array_builders(self):
        # the float-tuple builders give the bits of the numpy expressions
        from hypermoebius.matrix2 import double_from_components, dual_from_parts

        rng = rng_from_seed(12)
        for _ in range(50):
            sp, sm = (list(SigmaKind)[int(rng.integers(4))] for _ in range(2))
            lp, lm, a, t, t0 = rng.uniform(-1.5, 1.5, 5).tolist()
            got = eval_subgroup(DoubleGL(sp, lp, sm, lm, a), t)
            want = double_from_components(rotation_real(sp, t, lp), rotation_real(sm, a * t, lm))
            assert got == want
            got = eval_subgroup(DualGL(sp, lm, lp, t0), t)
            want = dual_from_parts(rotation_real(sp, t, lm),
                                   lp * t * rotation_real(sp, t + t0, lm))
            assert got == want
            sl = NONTRIVIAL[int(rng.integers(3))]
            got = eval_subgroup(DualSL(sl, lp, lm, t0), t)
            h_t = rotation_real(sl, t)
            shift = rotation_real(sl, t + t0) - cos_sigma(sl.sigma, t0) * h_t
            want = dual_from_parts(h_t, lp * t * math.exp(lm * t0) * shift)
            assert got == want


class TestGroupLaw:
    def test_zero_pair(self):
        assert group_law_residual(DualSL(SigmaKind.ELLIPTIC, 1.0, 0.5, 0.3), 0.0, 0.0) == 0.0

    def test_dual_gl_shear(self):
        spec = DualGL(SigmaKind.PARABOLIC, 0.0, 1.0, 0.0)
        assert group_law_residual(spec, 1.0, 2.0) < 1e-10

    def test_double_mixed_regimes(self):
        rng = rng_from_seed(59)
        spec = DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.HYPERBOLIC, 2.0)
        for _ in range(50):
            assert group_law_residual(spec, rng.uniform(-2, 2), rng.uniform(-2, 2)) < 1e-10

    def test_dual_sl_nonzero_shift(self):
        rng = rng_from_seed(61)
        for sigma in NONTRIVIAL:
            spec = DualSL(sigma, 1.3, 0.4, 0.9)
            for _ in range(50):
                assert group_law_residual(spec, rng.uniform(-2, 2), rng.uniform(-2, 2)) < 1e-9


    def test_verify_evaluates_each_factor_once(self, monkeypatch):
        from hypermoebius import subgroups, verify

        calls = []

        def counted(spec, t):
            calls.append(t)
            return eval_subgroup(spec, t)

        monkeypatch.setattr(subgroups, "eval_subgroup", counted)
        monkeypatch.setattr(verify, "eval_subgroup", counted)
        results = verify.check_group_law(rng_from_seed(3), n_specs=2, n_pairs=4)
        assert all(r.passed for r in results)
        n_specs = sum(map(len, random_specs(rng_from_seed(3), 2).values()))
        # t1 + t2, t1 and t2 for each of the 4 pairs of each spec
        assert len(calls) == 3 * 4 * n_specs
        assert calls[::3] == [t1 + t2 for t1, t2 in zip(calls[1::3], calls[2::3])]


class TestDeterminants:
    def test_double_sl_unit_det(self):
        spec = DoubleSL(SigmaKind.PARABOLIC, SigmaKind.ELLIPTIC, 1.3)
        for t in (-1.5, -0.2, 0.7, 2.0):
            assert sl_membership_check(spec, t).close_to(one(Kind.DOUBLE), 1e-9)

    def test_dual_sl_unit_det(self):
        spec = DualSL(SigmaKind.HYPERBOLIC, 1.0, 0.5, 0.3)
        assert sl_membership_check(spec, 0.7).close_to(one(Kind.DUAL), 1e-9)

    def test_real_family_has_no_ring_determinant(self):
        with pytest.raises(DomainError):
            sl_membership_check(RealGL(SigmaKind.ELLIPTIC, 0.3), 0.5)

    def test_dual_gl_det_matches_closed_form(self):
        rng = rng_from_seed(67)
        for sigma in (*NONTRIVIAL, SigmaKind.TRIVIAL):
            spec = DualGL(sigma, rng.uniform(-1, 1), 1.5, rng.uniform(-1, 1))
            for t in (-1.2, 0.4, 0.9):
                actual = sl_membership_check(spec, t)
                assert actual.close_to(dual_gl_det_closed_form(spec, t), 1e-9)

    def test_printed_det_variant_disagrees_off_shear(self):
        spec = DualGL(SigmaKind.ELLIPTIC, 1.0, 2.0, 0.0)
        actual = sl_membership_check(spec, 0.5)
        assert actual.close_to(dual_gl_det_closed_form(spec, 0.5), 1e-10)
        gap = (actual - dual_gl_det_printed_form(spec, 0.5)).magnitude()
        assert gap > 1e-2  # the cos(2t+t0) variant is measurably wrong

    def test_printed_det_variant_agrees_for_shear(self):
        spec = DualGL(SigmaKind.PARABOLIC, 0.3, 1.0, 0.8)
        actual = sl_membership_check(spec, 0.6)
        assert actual.close_to(dual_gl_det_printed_form(spec, 0.6), 1e-10)


class TestCentralizer:
    def test_circular_example(self):
        fit = centralizer_solve(SigmaKind.ELLIPTIC, np.array([[3.0, -4.0], [4.0, 3.0]]))
        assert fit.lam == pytest.approx(5.0)
        assert fit.s0 == pytest.approx(math.atan(4 / 3))

    def test_shear_mismatch_rejected(self):
        with pytest.raises(NotInCentralizerError):
            centralizer_solve(SigmaKind.ELLIPTIC, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_identity_fit(self):
        for sigma in NONTRIVIAL:
            fit = centralizer_solve(sigma, np.eye(2))
            assert fit.lam == pytest.approx(1.0) and fit.s0 == pytest.approx(0.0)

    def test_structure_iff_success_on_grid(self):
        values = [-1.0, 0.0, 1.5]
        for sigma in NONTRIVIAL:
            s = sigma.sigma
            h = rotation_real(sigma, 0.7)
            for p in values:
                for q in values:
                    for r in values:
                        for w in values:
                            b = np.array([[p, q], [r, w]])
                            structural = p == w and q == s * r
                            try:
                                centralizer_solve(sigma, b)
                                solved = True
                            except NotInCentralizerError:
                                solved = False
                            assert solved == structural
                            if solved:
                                assert np.max(np.abs(b @ h - h @ b)) < 1e-9

    def test_hyperbolic_off_chart_members_still_succeed(self):
        # equal diagonal with b = c but |c| > |a|: commutes, no lam*H(s0) chart
        fit = centralizer_solve(SigmaKind.HYPERBOLIC, np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert fit.lam is None and fit.s0 is None

    def test_parametrized_fit_reproduces_matrix(self):
        rng = rng_from_seed(71)
        for sigma in NONTRIVIAL:
            for _ in range(50):
                lam = rng.uniform(0.3, 2.0) * (1 if rng.random() < 0.5 else -1)
                s0 = rng.uniform(-1.2, 1.2)
                b = lam * rotation_real(sigma, s0)
                fit = centralizer_solve(sigma, b)
                assert fit.lam == pytest.approx(lam, abs=1e-9)
                assert fit.s0 == pytest.approx(s0, abs=1e-9)


class TestConjugation:
    def test_identity_conjugation_residual_zero(self):
        spec = DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.PARABOLIC, 1.2)
        conj = conjugate_spec(spec, identity(Kind.DOUBLE))
        assert similarity_residual(spec, conj) < 1e-12

    def test_componentwise_conjugation(self):
        from hypermoebius.matrix2 import components_double

        spec = DoubleSL(SigmaKind.HYPERBOLIC, SigmaKind.ELLIPTIC, 0.8)
        kp = np.array([[1.0, 1.0], [0.0, 1.0]])
        km = np.array([[2.0, 0.0], [0.5, 1.0]])
        conj = conjugate_spec(spec, (kp, km))
        t = 0.9
        plus, minus = components_double(conj.eval(t))
        want_plus = kp @ rotation_real(SigmaKind.HYPERBOLIC, t) @ np.linalg.inv(kp)
        want_minus = km @ rotation_real(SigmaKind.ELLIPTIC, 0.8 * t) @ np.linalg.inv(km)
        assert np.allclose(plus, want_plus) and np.allclose(minus, want_minus)

    def test_conjugated_shear_still_a_subgroup(self):
        conj = conjugate_spec(RealGL(SigmaKind.PARABOLIC), np.array([[1.0, 1.0], [0.0, 1.0]]))
        rng = rng_from_seed(73)
        for _ in range(30):
            assert group_law_residual(conj, rng.uniform(-2, 2), rng.uniform(-2, 2)) < 1e-10


class TestSwap:
    def test_image_matches_reparametrized_mirror(self):
        specs = [DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.HYPERBOLIC, 2.0),
                 # a trivial or frozen minus component keeps its rate lam- * a
                 DoubleGL(SigmaKind.ELLIPTIC, 0.5, SigmaKind.TRIVIAL, 0.7, a=2.0),
                 DoubleGL(SigmaKind.ELLIPTIC, 0.5, SigmaKind.HYPERBOLIC, 0.7, a=0.0)]
        for spec in specs:
            mirrored, scale = swap_double(spec)
            for t in (0.77, 0.9):
                lhs = eval_subgroup(mirrored, scale * t)
                rhs = swap_image(eval_subgroup(spec, t))
                assert (lhs - rhs).max_entry_magnitude() < 1e-12

    def test_trivial_minus_swaps_to_trivial_plus(self):
        mirrored, scale = swap_double(DoubleSL(SigmaKind.PARABOLIC, SigmaKind.TRIVIAL))
        assert mirrored.sigma_plus is SigmaKind.TRIVIAL
        assert scale == 1.0


class TestClassifySpec:
    def test_trivial_minus_label(self):
        d = classify_spec(DoubleSL(SigmaKind.PARABOLIC, SigmaKind.TRIVIAL))
        assert d.label == "N(t)P+ + IP-"
        assert d.rescale == 0.0

    def test_orders_components(self):
        d = classify_spec(DoubleSL(SigmaKind.HYPERBOLIC, SigmaKind.ELLIPTIC, 2.0))
        assert d.sigmas == (SigmaKind.ELLIPTIC, SigmaKind.HYPERBOLIC)
        assert d.rescale == pytest.approx(0.5)

    def test_dual_gl_label(self):
        d = classify_spec(DualGL(SigmaKind.ELLIPTIC, 0.5, 2.0, 0.25))
        assert d.family == "dual-gl"
        assert "K(t)" in d.label

    def test_trivial_spec(self):
        d = classify_spec(RealGL(SigmaKind.TRIVIAL, 0.0))
        assert d.label == "I"


class TestExpOracle:
    def test_hyperbolic_generator(self):
        gen = generator_of(RealGL(SigmaKind.HYPERBOLIC))
        assert np.allclose(gen, [[0, 1], [1, 0]], atol=1e-9)
        assert exp_cross_check(RealGL(SigmaKind.HYPERBOLIC)) < 1e-6

    def test_dual_shear_generator(self):
        spec = DualGL(SigmaKind.PARABOLIC, 0.0, 1.0, 0.0)
        gen = generator_of(spec)
        a1, a2 = np.empty((2, 2)), np.empty((2, 2))
        for idx, e in zip(((0, 0), (0, 1), (1, 0), (1, 1)), gen.entries()):
            a1[idx], a2[idx] = e.a1, e.a2
        assert np.allclose(a1, [[0, 0], [1, 0]], atol=1e-9)
        assert np.allclose(a2, np.eye(2), atol=1e-9)
        assert exp_cross_check(spec) < 1e-5

    def test_trivial_generator(self):
        assert exp_cross_check(RealGL(SigmaKind.TRIVIAL, 0.0)) == 0.0

    def test_all_variants_small(self):
        specs = [DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.PARABOLIC, 1.4),
                 DoubleGL(SigmaKind.HYPERBOLIC, 0.5, SigmaKind.ELLIPTIC, -0.5, 0.9),
                 DualSL(SigmaKind.HYPERBOLIC, 1.0, 0.5, 0.7),
                 DualGL(SigmaKind.ELLIPTIC, 0.4, 1.0, -0.6)]
        for spec in specs:
            assert exp_cross_check(spec) < 1e-5


class TestTextForm:
    def test_parse_examples(self):
        spec = parse_spec("double-sl(sigma+=K, sigma-=A, a=2.0)")
        assert spec == DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.HYPERBOLIC, 2.0)
        spec = parse_spec("dual-sl(sigma=N, lambda=1.0, lambda1=0.5, t0=0.3)")
        assert spec == DualSL(SigmaKind.PARABOLIC, 1.0, 0.5, 0.3)

    def test_round_trip(self):
        specs = [RealGL(SigmaKind.ELLIPTIC, 0.25),
                 DoubleSL(SigmaKind.PARABOLIC, SigmaKind.TRIVIAL, 1.0),
                 DoubleGL(SigmaKind.HYPERBOLIC, 0.5, SigmaKind.ELLIPTIC, -0.25, 2.0),
                 DualGL(SigmaKind.ELLIPTIC, 0.5, 2.0, 0.25),
                 DualSL(SigmaKind.HYPERBOLIC, 1.5, -0.5, 0.125)]
        for spec in specs:
            assert parse_spec(render_spec(spec)) == spec

    def test_bad_fields_rejected(self):
        with pytest.raises(InvalidLiteralError):
            parse_spec("double-sl(sigma+=K)")
        with pytest.raises(InvalidLiteralError):
            parse_spec("dual-sl(sigma=N, lambda=1, bogus=2)")
        with pytest.raises(InvalidLiteralError):
            parse_spec("unheard-of(x=1)")
        for text in ("real-gl(sigma=K, lambda=abc)",
                     "double-sl(sigma+=K, sigma-=A, a=nan)",
                     "dual-sl(sigma=K, lambda=inf)"):
            with pytest.raises(InvalidLiteralError):
                parse_spec(text)
