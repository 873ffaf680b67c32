import math

import numpy as np
import pytest

from hypermoebius import algebra
from hypermoebius.algebra import Kind, P_PLUS, generator, number, one, zero
from hypermoebius.errors import FixesEverythingError, NotNormalizableError, SingularMatrixError
from hypermoebius.matrix2 import Mat2, double_from_components, identity, mat2
from hypermoebius.moebius import (
    MapTag,
    MoebiusMap,
    _real_fixed_points,
    apply,
    apply_point,
    class_point,
    classify_map,
    compose,
    fixed_points,
    identity_map,
    kernel_check,
    kernel_labels,
    mob_equal,
)
from hypermoebius.projline import ClassTag, canonicalize, parse_point, point, same_class
from hypermoebius.sampling import (
    random_gl,
    random_point_mixed,
    random_sl,
    random_sl_real,
    random_unit,
    rng_from_seed,
)
from hypermoebius.subgroups import SigmaKind, rotation_real


def K(t):
    return rotation_real(SigmaKind.ELLIPTIC, t)


def A(t):
    return rotation_real(SigmaKind.HYPERBOLIC, t)


class TestApply:
    def test_identity_returns_same_class(self):
        p = parse_point(Kind.DOUBLE, "[1+2j : 3]")
        assert same_class(apply(identity_map(Kind.DOUBLE), p), canonicalize(p))

    def test_upper_triangular_fixes_infinity(self):
        m = MoebiusMap(Mat2(one(Kind.DOUBLE), P_PLUS * 0.7,
                            zero(Kind.DOUBLE), one(Kind.DOUBLE)))
        assert apply(m, point(Kind.DOUBLE, 1, 0)).tag is ClassTag.INFINITY

    def test_dual_lower_shear(self):
        t = 0.4
        x = number(Kind.DUAL, 1.5, 0.0)
        m = MoebiusMap(mat2(Kind.DUAL, [[1, 0], [t, 1]]))
        cls = apply(m, point(Kind.DUAL, x, one(Kind.DUAL)))
        assert cls.tag is ClassTag.AFFINE
        assert abs(cls.affine.a1 - 1.5 / (t * 1.5 + 1)) < 1e-12

    def test_requires_invertible_matrix(self):
        with pytest.raises(SingularMatrixError,
                           match="^a Moebius map needs an invertible representative matrix$") as exc:
            MoebiusMap(Mat2(P_PLUS, zero(Kind.DOUBLE),
                            zero(Kind.DOUBLE), one(Kind.DOUBLE)))
        assert exc.value.det_class is algebra.ElementClass.ZERO_DIVISOR_PLUS


class TestMobEqual:
    def test_generator_scalar_same_map(self):
        a = mat2(Kind.DOUBLE, [[1, 2], [3, 5]])
        assert mob_equal(MoebiusMap(a), MoebiusMap(a.scale(generator(Kind.DOUBLE))))

    def test_real_scalar_same_map(self):
        b = mat2(Kind.DUAL, [[1, 2], [3, 5]])
        assert mob_equal(MoebiusMap(b), MoebiusMap(b.scale(2.0)))

    def test_shear_differs_from_identity(self):
        m = MoebiusMap(mat2(Kind.COMPLEX, [[1, 1], [0, 1]]))
        assert not mob_equal(m, identity_map(Kind.COMPLEX))

    def test_eps_perturbed_not_equal(self):
        m1 = MoebiusMap(mat2(Kind.DUAL, [[1, 0], [0, 1]]))
        m2 = MoebiusMap(Mat2(one(Kind.DUAL), zero(Kind.DUAL),
                             generator(Kind.DUAL), one(Kind.DUAL)))
        assert not mob_equal(m1, m2)

    def test_unit_with_eps_part_same_map(self):
        b = mat2(Kind.DUAL, [[1, 2], [3, 5]])
        u = number(Kind.DUAL, 2.0, 0.7)
        assert mob_equal(MoebiusMap(b), MoebiusMap(b.scale(u)))


class TestMobEqualIdentity:
    """``mob_equal`` against the shared identity map (the closed form) and
    against a fresh identity map (the general scalar solve)."""

    KINDS = (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL)

    @staticmethod
    def _scalars(kind):
        roots = [u for u in algebra.sqrt_all(one(kind)) if algebra.is_unit(u)]
        return roots + [number(kind, 2.0), number(kind, 2.0, 0.5), number(kind, 3.0, -1.0),
                        number(kind, 0.25)]  # below 1, where the tolerance floor holds

    @staticmethod
    def _is_identity(m) -> bool:
        closed = mob_equal(m, identity_map(m.kind))
        assert closed == mob_equal(m, MoebiusMap(identity(m.kind)))
        return closed

    def test_identity_map_is_shared(self):
        for kind in self.KINDS:
            assert identity_map(kind) is identity_map(kind)
            assert identity_map(kind).rep == identity(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_scalars(self, kind):
        for u in self._scalars(kind):
            assert self._is_identity(MoebiusMap(identity(kind).scale(u)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_perturbed_scalars(self, kind):
        for u in self._scalars(kind):
            scalar = identity(kind).scale(u)
            tt = algebra.TAU_ALG * (1.0 + max(scalar.max_entry_magnitude(), 1.0))
            for i in range(4):
                for coord in ((1.0, 0.0), (0.0, 1.0)):
                    for size, expected in ((0.5, True), (0.9, True), (1.1, False), (2.0, False)):
                        entries = list(scalar.entries())
                        entries[i] = entries[i] + number(kind, *(size * tt * c for c in coord))
                        assert self._is_identity(MoebiusMap(Mat2(*entries))) is expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_draws(self, kind):
        rng = rng_from_seed(211)
        for draw in (random_sl, random_gl) * 150:
            self._is_identity(MoebiusMap(draw(kind, rng)))


class TestComposition:
    def test_homomorphism_sweep(self):
        rng = rng_from_seed(41)
        for kind in (Kind.DOUBLE, Kind.DUAL):
            for _ in range(100):
                m1 = MoebiusMap(random_gl(kind, rng))
                m2 = MoebiusMap(random_gl(kind, rng))
                p = random_point_mixed(kind, rng)
                assert same_class(apply(compose(m1, m2), p),
                                  apply(m1, apply_point(m2, p)))

    def test_class_preserving_under_unit(self):
        rng = rng_from_seed(43)
        for _ in range(100):
            m = MoebiusMap(random_gl(Kind.DOUBLE, rng))
            p = random_point_mixed(Kind.DOUBLE, rng)
            u = random_unit(Kind.DOUBLE, rng, 0.2, 4.0)
            assert same_class(apply(m, p.scaled(u)), apply(m, p))


class TestKernel:
    def test_double(self):
        assert sorted(kernel_labels("double")) == sorted(["I", "-I", "jI", "-jI"])

    def test_dual_and_real(self):
        assert sorted(kernel_labels("dual")) == ["-I", "I"]
        assert sorted(kernel_labels("real")) == ["-I", "I"]

    def test_real_kernel_returns_arrays(self):
        mats = kernel_check("real")
        assert all(isinstance(m, np.ndarray) for m in mats)

    def test_members_have_det_one(self):
        from hypermoebius.matrix2 import det

        for m in kernel_check("double"):
            assert det(m).close_to(one(Kind.DOUBLE), 1e-12)


class TestClassification:
    def test_shear_is_parabolic(self):
        m = MoebiusMap(mat2(Kind.COMPLEX, [[1, 1], [0, 1]]))
        record = classify_map(m)
        assert record.tags == (MapTag.PARABOLIC,)
        assert record.tr2.close_to(number(Kind.COMPLEX, 4, 0), 1e-12)

    def test_diagonal_is_hyperbolic(self):
        m = MoebiusMap(mat2(Kind.COMPLEX, [[2, 0], [0, 0.5]]))
        record = classify_map(m)
        assert record.tags == (MapTag.HYPERBOLIC,)
        assert record.tr2.close_to(number(Kind.COMPLEX, 6.25, 0), 1e-12)

    def test_rotation_is_elliptic(self):
        m = MoebiusMap(mat2(Kind.COMPLEX, [[math.cos(1), -math.sin(1)],
                                           [math.sin(1), math.cos(1)]]))
        assert classify_map(m).tags == (MapTag.ELLIPTIC,)

    def test_complex_rotation_scalars_are_loxodromic(self):
        m = MoebiusMap(mat2(Kind.COMPLEX, [[number(Kind.COMPLEX, 1, 1), zero(Kind.COMPLEX)],
                                           [zero(Kind.COMPLEX), number(Kind.COMPLEX, 0.5, -0.5)]]))
        assert classify_map(m).tags == (MapTag.STRICTLY_LOXODROMIC,)

    def test_double_component_pair(self):
        m = MoebiusMap(double_from_components(K(1.0), A(1.0)))
        record = classify_map(m)
        assert record.tags == (MapTag.ELLIPTIC, MapTag.HYPERBOLIC)
        p_tr2, m_tr2 = algebra.decompose(record.tr2)
        assert abs(p_tr2 - 4 * math.cos(1) ** 2) < 1e-9
        assert abs(m_tr2 - 4 * math.cosh(1) ** 2) < 1e-9

    def test_dual_uses_projection(self):
        from hypermoebius.matrix2 import dual_from_parts

        m = MoebiusMap(dual_from_parts(K(0.8), 0.4 * K(1.1)))
        assert classify_map(m).tags == (MapTag.ELLIPTIC,)

    def test_normalizes_once(self, monkeypatch):
        from hypermoebius import moebius

        calls = []
        real = moebius.normalize_to_sl
        monkeypatch.setattr(moebius, "normalize_to_sl",
                            lambda x, *tol: calls.append(x) or real(x, *tol))
        for kind in (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL):
            calls.clear()
            m = MoebiusMap(mat2(kind, [[2, 1], [1, 1.5]]))
            apply(m, point(kind, 1.0, 1.0))
            assert calls == []  # construction and apply leave the slot empty
            classify_map(m)
            fixed_points(m)
            assert len(calls) == 1
            assert m == MoebiusMap(m.rep) and "_sl" not in repr(m)

    @pytest.mark.parametrize("kind, literal", [
        (Kind.DOUBLE, [[1, 0], [0, number(Kind.DOUBLE, -1, 2)]]),  # det components 1, -3
        (Kind.DUAL, [[1, 0], [0, -1]])])                            # det -1
    def test_gl_without_det_root_not_normalizable(self, kind, literal):
        m = MoebiusMap(mat2(kind, literal))
        for _ in range(2):  # a failed normalization fills no slot
            with pytest.raises(NotNormalizableError):
                classify_map(m)
            with pytest.raises(NotNormalizableError):
                fixed_points(m)

    def test_identity_detected(self):
        record = classify_map(MoebiusMap(identity(Kind.DOUBLE).scale(generator(Kind.DOUBLE))))
        assert record.is_identity


def real_fixed(g):
    """The fixed points of a real 2x2 array, as verify asks for them."""
    return _real_fixed_points(*g.ravel().tolist())


class TestRealFixedPoints:
    def test_parabolic_single_point(self):
        assert real_fixed(np.array([[1.0, 1.0], [0.0, 1.0]])) == [(1.0, 0.0)]

    def test_hyperbolic_two_points(self):
        fps = real_fixed(np.array([[2.0, 0.0], [0.0, 0.5]]))
        assert len(fps) == 2

    def test_elliptic_none(self):
        assert real_fixed(K(1.0)) == []

    def test_scalar_returns_none(self):
        assert real_fixed(-np.eye(2)) is None

    def test_near_parabolic_double_root(self):
        # disc is zero up to rounding and c ~ 1e-10: one root, at 1e5, not
        # infinity plus a second root
        (x, y), = real_fixed(np.array([[1.00001, -1.0], [1e-10, 0.99999]]))
        assert y == 1.0 and abs(x - 1e5) < 1e-4

    @pytest.mark.parametrize("d", [1.00002, 1.00005])
    def test_upper_triangular_near_identity_keeps_both_roots(self, d):
        # disc = (d-1)^2 is tiny in absolute terms, but the roots infinity
        # and 1/(d-1) are far apart: no double root
        g = np.array([[1.0, 1.0], [0.0, d]])
        (x0, y0), (x1, y1) = real_fixed(g)
        assert (x0, y0) == (1.0, 0.0) and y1 == 1.0
        assert abs(x1 - 1.0 / (d - 1.0)) <= 1e-9 * x1
        assert abs((x1 + 1.0) / d - x1) <= 1e-9 * x1

    def test_small_lower_left_entry_keeps_both_roots_accurate(self):
        # c above the structural zero: the finite root must not lose digits
        # to cancellation in (a - d - sqrt(disc)) / 2c
        g = np.array([[2.0, 1.0], [1e-8, 0.5]])
        fps = real_fixed(g)
        assert len(fps) == 2
        for x, _ in fps:
            assert abs((g[0, 0] * x + g[0, 1]) / (g[1, 0] * x + g[1, 1]) - x) <= 1e-9 * abs(x)

    def test_count_matches_class(self):
        rng = rng_from_seed(47)
        for _ in range(300):
            g = random_sl_real(rng)
            t2 = float(np.trace(g)) ** 2
            fps = real_fixed(g)
            if fps is None or abs(t2 - 4) < 1e-9:
                continue
            assert len(fps) == (0 if t2 < 4 else 2)


class TestRingFixedPoints:
    def test_identity_raises(self):
        with pytest.raises(FixesEverythingError):
            fixed_points(identity_map(Kind.DUAL))

    def test_complex_parabolic(self):
        fps = fixed_points(MoebiusMap(mat2(Kind.COMPLEX, [[1, 1], [0, 1]])))
        assert [c.tag for c in fps.points] == [ClassTag.INFINITY]

    def test_complex_diagonal(self):
        fps = fixed_points(MoebiusMap(mat2(Kind.COMPLEX, [[2, 0], [0, 0.5]])))
        tags = sorted(c.tag.value for c in fps.points)
        assert tags == ["Affine", "Infinity"]

    def test_dual_eps_shear_family(self):
        m = MoebiusMap(Mat2(one(Kind.DUAL), zero(Kind.DUAL),
                            generator(Kind.DUAL), one(Kind.DUAL)))
        fps = fixed_points(m)
        assert fps.points == ()
        assert len(fps.families) == 1
        for rep in fps.families[0].representatives:
            assert same_class(apply(m, rep), canonicalize(rep))

    def test_dual_translation_fixes_omegas(self):
        m = MoebiusMap(mat2(Kind.DUAL, [[1, 1], [0, 1]]))
        fps = fixed_points(m)
        assert any(c.tag is ClassTag.INFINITY for c in fps.points)
        assert any("omega" in f.description for f in fps.families)
        for f in fps.families:
            for rep in f.representatives:
                assert same_class(apply(m, rep), canonicalize(rep))

    def test_double_product_structure(self):
        m = MoebiusMap(double_from_components(np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])))
        fps = fixed_points(m)
        affine = [c for c in fps.points if c.tag is ClassTag.AFFINE]
        others = [c.tag for c in fps.points if c.tag is not ClassTag.AFFINE]
        # component fixed sets are {0, inf} each; the four combinations are
        # 0, the two sigma classes (0 against inf), and infinity
        assert len(affine) == 1 and affine[0].affine.is_zero(1e-12)
        assert ClassTag.INFINITY in others
        assert ClassTag.SIGMA_ONE in others and ClassTag.SIGMA_TWO in others
        # plus the PR-family fixed classes from each component
        assert sum(1 for c in fps.points if c.tag is ClassTag.PR_PLUS) == 2
        assert sum(1 for c in fps.points if c.tag is ClassTag.PR_MINUS) == 2

    def test_double_scalar_component_family(self):
        m = MoebiusMap(double_from_components(np.eye(2), A(1.0)))
        fps = fixed_points(m)
        assert fps.families  # free plus-component families
        for f in fps.families:
            for rep in f.representatives:
                assert same_class(apply(m, rep), canonicalize(rep))

    def test_reapply_sweep(self):
        rng = rng_from_seed(53)
        for kind in (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL):
            checked = 0
            while checked < 60:
                m = MoebiusMap(random_sl(kind, rng))
                if mob_equal(m, identity_map(kind)):
                    continue
                checked += 1
                fps = fixed_points(m)
                for cls in fps.points:
                    p = class_point(kind, cls)
                    assert same_class(apply(m, p), cls)


NEAR_PARABOLIC = "[[1.00001,-1],[0.0000000001,0.99999]]"
DUAL_PARABOLIC = "[[1.1+0.3e,-0.0025+0.2e],[4+0.1e,0.9-0.5e]]"


def _reapplies(m, fps) -> bool:
    return (all(same_class(apply(m, class_point(m.kind, c)), c) for c in fps.points)
            and all(same_class(apply(m, rep), canonicalize(rep))
                    for family in fps.families for rep in family.representatives))


class TestParabolicFixedPoints:
    @pytest.mark.parametrize("literal, kind", [
        (NEAR_PARABOLIC, Kind.COMPLEX), (NEAR_PARABOLIC, Kind.DOUBLE),
        (NEAR_PARABOLIC, Kind.DUAL), (DUAL_PARABOLIC, Kind.DUAL)])
    def test_literal_points_and_families_reapply(self, literal, kind):
        from hypermoebius.matrix2 import parse_mat
        from hypermoebius.projline import parse_entry

        m = MoebiusMap(parse_mat(kind, literal, lambda raw: parse_entry(kind, raw)))
        assert "Parabolic" in classify_map(m).label()
        fps = fixed_points(m)
        assert _reapplies(m, fps)
        assert sum(c.tag is ClassTag.AFFINE for c in fps.points) <= 1

    def test_near_parabolic_complex_single_point(self):
        m = MoebiusMap(mat2(Kind.COMPLEX, [[1.00001, -1], [1e-10, 0.99999]]))
        (cls,) = fixed_points(m).points
        assert cls.affine.close_to(number(Kind.COMPLEX, 1e5, 0), 1e-4)

    def test_dual_parabolic_literal_has_no_fixed_class(self):
        # A1 has the double root 0.025, where the eps-level equation reads
        # 0 * s = rhs with rhs != 0
        from hypermoebius.matrix2 import dual_from_parts

        a1 = np.array([[1.1, -0.0025], [4.0, 0.9]])
        a2 = np.array([[0.3, 0.2], [0.1, -0.5]])
        fps = fixed_points(MoebiusMap(dual_from_parts(a1, a2)))
        assert fps.points == () and fps.families == ()

    def test_conjugated_shears_reapply(self):
        from hypermoebius.matrix2 import dual_from_parts

        rng = rng_from_seed(101)

        def shear():
            k = random_sl_real(rng)
            return k @ rotation_real(SigmaKind.PARABOLIC, rng.uniform(0.2, 2.0)) @ np.linalg.inv(k)

        for i in range(150):
            kind = (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL)[i % 3]
            if kind is Kind.COMPLEX:
                m = MoebiusMap(mat2(kind, shear().tolist()))
            elif kind is Kind.DOUBLE:
                m = MoebiusMap(double_from_components(shear(), shear()))
            else:
                m = MoebiusMap(dual_from_parts(shear(), rng.uniform(-2, 2, size=(2, 2))))
            assert "Parabolic" in classify_map(m).label()
            fps = fixed_points(m)
            assert _reapplies(m, fps)
            assert sum(c.tag is ClassTag.AFFINE for c in fps.points) <= 1

    @pytest.mark.parametrize("kind", [Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL])
    @pytest.mark.parametrize("d", [1.00002, 1.00005])
    def test_upper_triangular_near_identity_keeps_both_roots(self, kind, d):
        m = MoebiusMap(mat2(kind, [[1.0, 1.0], [0.0, d]]))
        fps = fixed_points(m)
        assert _reapplies(m, fps)
        assert any(c.tag is ClassTag.INFINITY for c in fps.points)
        x = 1.0 / (d - 1.0)
        assert any(c.tag is ClassTag.AFFINE and c.affine.close_to(number(kind, x, 0), 1e-9 * x)
                   for c in fps.points)
