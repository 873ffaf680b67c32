import math

import pytest

from hypermoebius import algebra
from hypermoebius.algebra import Kind, P_MINUS, P_PLUS, is_unit, number, one, zero, generator
from hypermoebius.errors import (
    DomainError,
    InvalidPointError,
    KindMismatchError,
    NotAdmissibleError,
)
from hypermoebius.matrix2 import det, identity, split_dual
from hypermoebius.moebius import MoebiusMap, apply_point
from hypermoebius.projline import (
    CanonicalClass,
    ClassTag,
    OrbitLabel,
    ProjPoint,
    admissible,
    bijection_f,
    canonical_ratio,
    canonicalize,
    equivalent,
    orbit_label,
    parse_point,
    point,
    real_apply,
    real_projective_equal,
    render_point,
    same_class,
    stack,
    transporter_nonadmissible,
    transporter_to,
)
from hypermoebius.sampling import (
    random_gl,
    random_point_mixed,
    random_sl,
    random_unit,
    rng_from_seed,
)


class TestAdmissible:
    def test_idempotent_cross_pair(self):
        assert admissible(point(Kind.DOUBLE, P_PLUS, P_MINUS))

    def test_same_family_pair(self):
        assert not admissible(point(Kind.DOUBLE, P_PLUS, P_PLUS * 2))

    def test_dual_nilpotent_pair(self):
        eps = generator(Kind.DUAL)
        assert not admissible(point(Kind.DUAL, eps, eps * 3))

    def test_complex_always(self):
        assert admissible(point(Kind.COMPLEX, number(Kind.COMPLEX, 0, 1), zero(Kind.COMPLEX)))

    def test_zero_point_rejected(self):
        with pytest.raises(InvalidPointError):
            point(Kind.DOUBLE, 0, 0)

    @pytest.mark.parametrize("kind", [Kind.DOUBLE, Kind.DUAL])
    def test_nan_counts_alike_in_x_and_y(self, kind):
        nan_first, nan_second = point(kind, math.nan, 5.0), point(kind, 5.0, math.nan)
        assert admissible(nan_first) is admissible(nan_second) is True


class TestCanonicalize:
    def test_affine_by_unit_division(self):
        cls = canonicalize(parse_point(Kind.DOUBLE, "[5+3j : 2]"))
        assert cls.tag is ClassTag.AFFINE
        assert cls.affine.close_to(number(Kind.DOUBLE, 2.5, 1.5), 1e-12)

    def test_omega_plus_payload_and_label(self):
        cls = canonicalize(parse_point(Kind.DOUBLE, "[3 : 2P+]"))
        assert cls.tag is ClassTag.OMEGA_PLUS
        assert abs(cls.lam - 2 / 3) < 1e-12
        assert cls.label() == "1.5ω2"

    def test_omega_minus_label(self):
        cls = canonicalize(point(Kind.DOUBLE, one(Kind.DOUBLE), P_MINUS * 4))
        assert cls.tag is ClassTag.OMEGA_MINUS
        assert cls.label() == "0.25ω1"

    def test_sigma_classes(self):
        assert canonicalize(point(Kind.DOUBLE, P_PLUS, P_MINUS)).tag is ClassTag.SIGMA_ONE
        assert canonicalize(point(Kind.DOUBLE, P_MINUS * 3, P_PLUS)).tag is ClassTag.SIGMA_TWO

    def test_infinity(self):
        assert canonicalize(parse_point(Kind.DUAL, "[1+1e : 0]")).tag is ClassTag.INFINITY

    def test_dual_omega(self):
        cls = canonicalize(parse_point(Kind.DUAL, "[2 : 3e]"))
        assert cls.tag is ClassTag.DUAL_OMEGA
        assert abs(cls.lam - 1.5) < 1e-12

    @pytest.mark.parametrize("p", [
        point(Kind.DOUBLE, algebra.Hypercomplex(Kind.DOUBLE, math.inf, 0.0), P_PLUS),  # lam 0
        point(Kind.DOUBLE, 1.0, algebra.recompose(0.0, math.inf)),  # lam inf
        point(Kind.DUAL, math.inf, generator(Kind.DUAL)),  # lam 0
        point(Kind.DUAL, 1.0, number(Kind.DUAL, 0.0, math.inf)),  # [1 : inf eps]
    ])
    def test_omega_parameter_zero_or_not_finite_refused(self, p):
        with pytest.raises(DomainError):
            canonicalize(p)

    def test_stack_at_another_tolerance_refused(self):
        p = stack([point(Kind.DUAL, 2.0, 1.0), point(Kind.DUAL, 1.0, 0.0)])
        assert canonicalize(p).tags() == [ClassTag.AFFINE, ClassTag.INFINITY]
        with pytest.raises(DomainError):
            canonicalize(p, tol=1e-6)

    def test_pr_families(self):
        cls = canonicalize(point(Kind.DOUBLE, P_PLUS * 3, P_PLUS * 5))
        assert cls.tag is ClassTag.PR_PLUS
        assert real_projective_equal(cls.ratio, (3, 5))
        cls = canonicalize(parse_point(Kind.DUAL, "[2e : 7e]"))
        assert cls.tag is ClassTag.PR
        assert real_projective_equal(cls.ratio, (2, 7))

    def test_partition_is_exclusive_and_stable(self):
        rng = rng_from_seed(17)
        tags_double = {ClassTag.AFFINE, ClassTag.INFINITY, ClassTag.OMEGA_PLUS,
                       ClassTag.OMEGA_MINUS, ClassTag.SIGMA_ONE, ClassTag.SIGMA_TWO,
                       ClassTag.PR_PLUS, ClassTag.PR_MINUS}
        tags_dual = {ClassTag.AFFINE, ClassTag.INFINITY, ClassTag.DUAL_OMEGA, ClassTag.PR}
        for kind, allowed in ((Kind.DOUBLE, tags_double), (Kind.DUAL, tags_dual)):
            for _ in range(400):
                p = random_point_mixed(kind, rng)
                cls = canonicalize(p)
                assert cls.tag in allowed
                u = random_unit(kind, rng, 0.2, 4.0)
                assert same_class(canonicalize(p.scaled(u)), cls)


class TestEquivalent:
    def test_unit_scaling(self):
        u = number(Kind.DOUBLE, 3, 1)
        p = point(Kind.DOUBLE, number(Kind.DOUBLE, 1, 1), number(Kind.DOUBLE, 2, 0))
        assert equivalent(p, p.scaled(u))

    def test_distinct_points_in_one_orbit(self):
        p = point(Kind.DOUBLE, P_PLUS, zero(Kind.DOUBLE))
        q = point(Kind.DOUBLE, P_PLUS * 3, P_PLUS * 5)
        assert not equivalent(p, q)
        assert orbit_label(p) == orbit_label(q) == OrbitLabel.PR_PLUS

    def test_reflexive(self):
        p = parse_point(Kind.DUAL, "[1+2e : 3]")
        assert equivalent(p, p)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            equivalent(point(Kind.DUAL, 1, 1), point(Kind.DOUBLE, 1, 1))
        with pytest.raises(KindMismatchError):
            equivalent(stack([point(Kind.DUAL, 1, 1)]), stack([point(Kind.DOUBLE, 1, 1)]))


class TestOrbitLabels:
    def test_projective_line(self):
        assert orbit_label(point(Kind.DOUBLE, one(Kind.DOUBLE), P_PLUS * 0.5)) \
            is OrbitLabel.PROJECTIVE_LINE

    def test_pr_minus(self):
        assert orbit_label(point(Kind.DOUBLE, P_MINUS * 3, zero(Kind.DOUBLE))) \
            is OrbitLabel.PR_MINUS

    def test_pr_dual(self):
        eps = generator(Kind.DUAL)
        assert orbit_label(point(Kind.DUAL, eps, eps * 2)) is OrbitLabel.PR


class TestTransporters:
    def test_cross_idempotent_point(self):
        p = point(Kind.DOUBLE, P_PLUS, P_MINUS)
        m = transporter_to(p)
        assert det(m).close_to(one(Kind.DOUBLE), 1e-12)
        base = point(Kind.DOUBLE, 1, 0)
        assert equivalent(apply_point(MoebiusMap(m), base), p)

    def test_base_point_fixed(self):
        p = point(Kind.DOUBLE, 1, 0)
        m = transporter_to(p)
        assert m.close_to(identity(Kind.DOUBLE), 0)

    def test_dual_with_nilpotent_part(self):
        p = parse_point(Kind.DUAL, "[1 : 3e]")
        d = det(transporter_to(p))
        assert abs(d.a1 - 1.0) < 1e-12  # eps^2 vanishes

    def test_not_admissible_rejected(self):
        with pytest.raises(NotAdmissibleError):
            transporter_to(point(Kind.DOUBLE, P_PLUS, P_PLUS * 2))

    def test_random_sweep(self):
        rng = rng_from_seed(23)
        for kind in (Kind.DOUBLE, Kind.DUAL, Kind.COMPLEX):
            base = ProjPoint(kind, one(kind), zero(kind))
            done = 0
            while done < 150:
                p = random_point_mixed(kind, rng) if kind is not Kind.COMPLEX \
                    else point(kind, number(kind, rng.uniform(-2, 2), rng.uniform(-2, 2)),
                               number(kind, rng.uniform(-2, 2), rng.uniform(-2, 2)))
                if not admissible(p):
                    continue
                done += 1
                m = transporter_to(p)
                assert is_unit(det(m))
                assert equivalent(apply_point(MoebiusMap(m), base), p)


class TestFamilyTransporters:
    def test_plus_family_example(self):
        target = canonicalize(point(Kind.DOUBLE, P_PLUS * 3, P_PLUS * 5))
        m = transporter_nonadmissible(target)
        image = apply_point(MoebiusMap(m), bijection_f(ClassTag.PR_PLUS, 1.0, 0.0))
        assert same_class(canonicalize(image), target)

    def test_zero_leading_ratio_uses_alternate_matrix(self):
        target = CanonicalClass(ClassTag.PR_PLUS, ratio=canonical_ratio(0.0, 1.0))
        m = transporter_nonadmissible(target)
        assert is_unit(det(m))
        image = apply_point(MoebiusMap(m), bijection_f(ClassTag.PR_PLUS, 1.0, 0.0))
        assert same_class(canonicalize(image), target)

    def test_dual_example(self):
        target = canonicalize(parse_point(Kind.DUAL, "[2e : 7e]"))
        m = transporter_nonadmissible(target)
        assert is_unit(det(m))
        image = apply_point(MoebiusMap(m), bijection_f(ClassTag.PR, 1.0, 0.0))
        assert same_class(canonicalize(image), target)

    def test_minus_family_sweep(self):
        rng = rng_from_seed(29)
        for _ in range(100):
            target = CanonicalClass(
                ClassTag.PR_MINUS,
                ratio=canonical_ratio(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            m = transporter_nonadmissible(target)
            image = apply_point(MoebiusMap(m), bijection_f(ClassTag.PR_MINUS, 1.0, 0.0))
            assert same_class(canonicalize(image), target)


class TestAdmissibilityInvariance:
    def test_sweep(self):
        rng = rng_from_seed(31)
        for kind in (Kind.DOUBLE, Kind.DUAL):
            for _ in range(200):
                p = random_point_mixed(kind, rng)
                m = MoebiusMap(random_gl(kind, rng))
                assert admissible(apply_point(m, p)) == admissible(p)


class TestProjection:
    def test_embedding_example(self):
        p = bijection_f(ClassTag.PR_PLUS, 1.0, 0.0)
        assert same_class(canonicalize(p),
                          canonicalize(point(Kind.DOUBLE, P_PLUS, zero(Kind.DOUBLE))))

    def test_equivariance_sweep(self):
        rng = rng_from_seed(37)
        for _ in range(150):
            g = random_sl(Kind.DUAL, rng)
            g1 = split_dual(g)[0]
            v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = apply_point(MoebiusMap(g), bijection_f(ClassTag.PR, *v))
            w = real_apply(g1, v)
            assert equivalent(lhs, bijection_f(ClassTag.PR, *w))


def test_point_text_round_trip():
    p = parse_point(Kind.DOUBLE, "[1+2j : -0.5P-]")
    assert "j" in render_point(p)
    q = parse_point(Kind.DOUBLE, render_point(p))
    assert equivalent(p, q)


def test_canonical_ratio_orientation():
    assert canonical_ratio(-3.0, -4.0) == pytest.approx((0.6, 0.8))
    x, y = canonical_ratio(0.0, -2.0)
    assert x == pytest.approx(0.0) and y == pytest.approx(1.0)


@pytest.mark.parametrize("x, y", [(0.0, math.inf), (-math.inf, 2.0), (math.nan, 1.0),
                                  (1.7e308, 1.7e308)])
def test_canonical_ratio_refuses_a_non_finite_norm(x, y):
    with pytest.raises(DomainError):
        canonical_ratio(x, y)


class TestNonFiniteFamilyPoints:
    """Points whose class the float coordinates cannot decide are refused
    with a typed error."""

    INFINITE_RATIO = point(Kind.DUAL, 0.0, number(Kind.DUAL, 0.0, math.inf))  # [0 : inf eps]
    # [0 : inf eps] rescaled by 0.75 + 0.25 eps: y = nan + inf eps
    NAN_A1 = INFINITE_RATIO.scaled(algebra.Hypercomplex(Kind.DUAL, 0.75, 0.25))

    def test_infinite_family_ratio(self):
        with pytest.raises(DomainError):
            canonicalize(self.INFINITE_RATIO)

    def test_nan_a1_part(self):
        assert math.isnan(self.NAN_A1.y.a1) and self.NAN_A1.x.a1 == 0.0
        with pytest.raises(DomainError):
            canonicalize(self.NAN_A1)
        with pytest.raises(DomainError):
            canonicalize(ProjPoint(Kind.DUAL, number(Kind.DUAL, math.nan, 1.0), zero(Kind.DUAL)))

    def test_nan_idempotent_component(self):
        # a NaN pair counts as zero in admissible, so this point is in PR+
        p = point(Kind.DOUBLE, algebra.recompose(1.0, math.nan), algebra.recompose(1.0, 0.0))
        with pytest.raises(DomainError):
            canonicalize(p)
        assert not admissible(p) and orbit_label(p) is OrbitLabel.PR_PLUS
