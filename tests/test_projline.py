import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermoebius import algebra
from hypermoebius.algebra import Kind, P_MINUS, P_PLUS, number, one, zero, generator
from hypermoebius.errors import (
    DomainError,
    HypermoebiusError,
    InvalidPointError,
    KindMismatchError,
    NotAdmissibleError,
    SingularMatrixError,
)
from hypermoebius.matrix2 import Mat2, det, identity, membership, split_dual
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
    pr_base_point,
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
        assert admissible(stack([nan_first, nan_second])).tolist() == [True, True]


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
        with pytest.raises(DomainError) as scalar:
            canonicalize(p)
        good = point(p.kind, 2.0, 1.0)
        with pytest.raises(DomainError) as stacked:
            canonicalize(stack([good, p, good]))
        assert str(stacked.value) == str(scalar.value)

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
        good = point(Kind.DOUBLE, P_PLUS, P_MINUS)
        with pytest.raises(NotAdmissibleError):
            transporter_to(stack([good, point(Kind.DOUBLE, P_PLUS, P_PLUS * 2), good]))

    def test_stack_of_points(self):
        rng = rng_from_seed(5)
        for kind in (Kind.DOUBLE, Kind.DUAL, Kind.COMPLEX):
            points = [p for p in (random_point_mixed(kind, rng) for _ in range(60))
                      if admissible(p)]
            got = transporter_to(stack(points)).entries()
            want = stack([transporter_to(p) for p in points]).entries()
            assert all(np.array_equal(g.a1, w.a1) and np.array_equal(g.a2, w.a2)
                       for g, w in zip(got, want))

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
                assert membership(m).in_gl
                assert equivalent(apply_point(MoebiusMap(m), base), p)


class TestFamilyTransporters:
    def test_plus_family_example(self):
        target = canonicalize(point(Kind.DOUBLE, P_PLUS * 3, P_PLUS * 5))
        m = transporter_nonadmissible(Kind.DOUBLE, target)
        image = apply_point(MoebiusMap(m), pr_base_point(Kind.DOUBLE, ClassTag.PR_PLUS))
        assert same_class(canonicalize(image), target)

    def test_zero_leading_ratio_uses_alternate_matrix(self):
        target = CanonicalClass(ClassTag.PR_PLUS, ratio=canonical_ratio(0.0, 1.0))
        m = transporter_nonadmissible(Kind.DOUBLE, target)
        assert membership(m).in_gl
        image = apply_point(MoebiusMap(m), pr_base_point(Kind.DOUBLE, ClassTag.PR_PLUS))
        assert same_class(canonicalize(image), target)

    def test_dual_example(self):
        target = canonicalize(parse_point(Kind.DUAL, "[2e : 7e]"))
        m = transporter_nonadmissible(Kind.DUAL, target)
        assert membership(m).in_gl
        image = apply_point(MoebiusMap(m), pr_base_point(Kind.DUAL, ClassTag.PR))
        assert same_class(canonicalize(image), target)

    def test_minus_family_sweep(self):
        rng = rng_from_seed(29)
        for _ in range(100):
            target = CanonicalClass(
                ClassTag.PR_MINUS,
                ratio=canonical_ratio(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            m = transporter_nonadmissible(Kind.DOUBLE, target)
            image = apply_point(MoebiusMap(m), pr_base_point(Kind.DOUBLE, ClassTag.PR_MINUS))
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
        p = bijection_f(Kind.DOUBLE, 1.0, 0.0, "+")
        assert same_class(canonicalize(p),
                          canonicalize(point(Kind.DOUBLE, P_PLUS, zero(Kind.DOUBLE))))

    def test_equivariance_sweep(self):
        rng = rng_from_seed(37)
        for _ in range(150):
            g = random_sl(Kind.DUAL, rng)
            g1 = split_dual(g)[0]
            v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = apply_point(MoebiusMap(g), bijection_f(Kind.DUAL, *v))
            w = real_apply(g1, v)
            assert equivalent(lhs, bijection_f(Kind.DUAL, *w))


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
    with a typed error, by the stacked canonicalizer at the same first row."""

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

    def test_stack_raises_at_the_first_refused_row(self):
        good = point(Kind.DUAL, generator(Kind.DUAL) * 2.0, generator(Kind.DUAL))
        rows = [good, point(Kind.DUAL, 2.0, 1.0), self.NAN_A1, self.INFINITE_RATIO, good]
        with pytest.raises(DomainError) as scalar:
            canonicalize(self.NAN_A1)
        with pytest.raises(DomainError) as stacked:
            canonicalize(stack(rows))
        assert str(stacked.value) == str(scalar.value)
        with pytest.raises(DomainError) as scalar:
            canonicalize(self.INFINITE_RATIO)
        with pytest.raises(DomainError) as stacked:
            canonicalize(stack([good, self.INFINITE_RATIO, self.NAN_A1]))
        assert str(stacked.value) == str(scalar.value)


# ---------------------------------------------------------------------------
# canonicalize, same_class, equivalent, admissible and invert on a stack
# against the same function on each point or number, row by row


def pack(v):
    """The exact bits of a float, any NaN as one value."""
    return None if v is None else "nan" if math.isnan(v) else struct.pack("<d", v)


def bits(cls):
    """A canonical class as its tag and the exact bits of its payload."""
    affine = cls.affine and (pack(cls.affine.a1), pack(cls.affine.a2))
    return cls.tag, affine, pack(cls.lam), cls.ratio and tuple(map(pack, cls.ratio))


def outcome(fn, *args):
    """fn(*args), or the type and text of the typed error it raises."""
    try:
        return fn(*args)
    except HypermoebiusError as exc:
        return type(exc), str(exc)


E = generator(Kind.DUAL)
ONE_OF_EACH_TAG = {  # a point of every class tag of the kind
    Kind.DOUBLE: [(2.0, 1.0), (1.0, 0.0), (1.0, P_PLUS * 2), (1.0, P_MINUS * 2),
                  (P_PLUS, P_MINUS), (P_MINUS, P_PLUS), (P_PLUS, P_PLUS * 2),
                  (P_MINUS, P_MINUS * -2)],
    Kind.DUAL: [(2.0, 1.0), (1.0, 0.0), (1.0, E * 3), (E, E * -2)],
    Kind.COMPLEX: [(2.0, 1.0), (1.0, 0.0)],
}
# zeros, values at and around the structural-zero tolerance, values whose
# squares overflow, and non-finite values
SPECIAL = [0.0, -0.0, 1e-13, -3e-13, 1e-12, -1e-12, 2e-12, 1.0, -1.5, 1e300, -1e300,
           math.inf, -math.inf, math.nan]
COORDINATE = st.one_of(st.sampled_from(SPECIAL), st.floats(-5.0, 5.0))
# a flag, then two floats: the idempotent components of a number (a double
# number with the flag set) or its coordinates
NUMBER = st.tuples(st.booleans(), COORDINATE, COORDINATE)
ROW = st.tuples(NUMBER, NUMBER)  # the numbers x and y of a point
KINDS = [Kind.DOUBLE, Kind.DUAL, Kind.COMPLEX]


def number_of(kind, flagged):
    components, v1, v2 = flagged
    if kind is Kind.DOUBLE and components:
        return algebra.recompose(v1, v2)
    return algebra.Hypercomplex(kind, v1, v2)


def row_coordinates(kind, row):
    return tuple(number_of(kind, v) for v in row)


def test_fixed_rows_cover_every_tag():
    tags = {canonicalize(point(kind, x, y)).tag
            for kind, rows in ONE_OF_EACH_TAG.items() for x, y in rows}
    assert tags == set(ClassTag)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), rows=st.lists(ROW, max_size=12), data=st.data())
def test_stacked_canonicalizer_matches_scalar_row_by_row(kind, rows, data):
    pairs = [row_coordinates(kind, row) for row in rows]
    pairs += [(point(kind, x, y).x, point(kind, x, y).y) for x, y in ONE_OF_EACH_TAG[kind]]
    pairs = data.draw(st.permutations(pairs))
    points = [outcome(ProjPoint, kind, x, y) for x, y in pairs]
    # a stack of points is refused as its first refused point is
    first_bad = next((p for p in points if not isinstance(p, ProjPoint)), None)
    got = outcome(ProjPoint, kind, stack([x for x, _ in pairs]), stack([y for _, y in pairs]))
    if first_bad is not None:
        assert got == first_bad
    points = [p for p in points if isinstance(p, ProjPoint)]
    p = stack(points)
    assert admissible(p).tolist() == [admissible(q) for q in points]

    classes = [outcome(canonicalize, q) for q in points]
    first_bad = next((c for c in classes if not isinstance(c, CanonicalClass)), None)
    if first_bad is not None:
        assert outcome(canonicalize, p) == first_bad
    kept = [q for q, c in zip(points, classes) if isinstance(c, CanonicalClass)]
    classes = [c for c in classes if isinstance(c, CanonicalClass)]
    if not kept:
        return
    many = canonicalize(stack(kept))
    assert [bits(many[i]) for i in range(len(kept))] == [bits(c) for c in classes]
    assert [many[i].label() for i in range(len(kept))] == [c.label() for c in classes]
    assert many.tags() == [c.tag for c in classes]
    # certified rows are affine ones
    assert all(c.tag is ClassTag.AFFINE for c, ok in zip(classes, many.ok.tolist()) if ok)

    order = data.draw(st.permutations(range(len(kept))))
    other = canonicalize(stack([kept[i] for i in order]))
    assert same_class(many, other).tolist() == [
        same_class(c, classes[i]) for c, i in zip(classes, order)]
    assert same_class(many, many).tolist() == [same_class(c, c) for c in classes]
    assert equivalent(stack(kept), stack([kept[i] for i in order])).tolist() == [
        equivalent(q, kept[i]) for q, i in zip(kept, order)]
    # the classes of the points rescaled by a unit: equal up to rounding,
    # which the tolerance scales with the coordinates
    u = algebra.Hypercomplex(kind, 0.75, 0.25)
    rescaled = [outcome(lambda q: canonicalize(q.scaled(u)), q) for q in kept]
    rows = [i for i, c in enumerate(rescaled) if isinstance(c, CanonicalClass)]
    if rows:
        got = equivalent(stack([kept[i] for i in rows]), stack([kept[i].scaled(u) for i in rows]))
        assert got.tolist() == [equivalent(kept[i], kept[i].scaled(u)) for i in rows]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), values=st.lists(NUMBER, min_size=1, max_size=12))
def test_stacked_invert_matches_scalar_row_by_row(kind, values):
    xs = [number_of(kind, v) for v in values]
    inverses = [outcome(algebra.invert, x) for x in xs]
    got = outcome(algebra.invert, stack(xs))
    first_bad = next((w for w in inverses if not isinstance(w, algebra.Hypercomplex)), None)
    if first_bad is not None:
        assert got == first_bad
        return
    assert [(pack(a1), pack(a2)) for a1, a2 in zip(got.a1.tolist(), got.a2.tolist())] == [
        (pack(w.a1), pack(w.a2)) for w in inverses]


class TestStackedPoints:
    def test_image_and_scaling_point_by_point(self):
        rng = rng_from_seed(3)
        for kind in (Kind.DOUBLE, Kind.DUAL, Kind.COMPLEX):
            points = [random_point_mixed(kind, rng) for _ in range(50)]
            maps = [random_gl(kind, rng) for _ in range(50)]
            units = [random_unit(kind, rng) for _ in range(50)]
            got = apply_point(MoebiusMap(stack(maps)), stack(points).scaled(stack(units)))
            want = [apply_point(MoebiusMap(g), q.scaled(u))
                    for g, q, u in zip(maps, points, units)]
            assert (stack([q.x for q in want]).a1 == got.x.a1).all()
            assert (stack([q.y for q in want]).a2 == got.y.a2).all()
            assert equivalent(got, stack(want)).all()

    def test_singular_map_in_a_stack(self):
        good = identity(Kind.DUAL)
        bad = Mat2(Kind.DUAL, E, zero(Kind.DUAL), zero(Kind.DUAL), one(Kind.DUAL))
        zero_det = Mat2(Kind.DUAL, *[zero(Kind.DUAL)] * 3, one(Kind.DUAL))
        with pytest.raises(SingularMatrixError) as info:
            MoebiusMap(stack([good, bad, zero_det, good]))
        with pytest.raises(SingularMatrixError) as scalar:
            MoebiusMap(bad)
        assert str(info.value) == str(scalar.value)
        assert str(info.value.det_class) == "NilpotentNonzero"  # the first singular matrix

    def test_kinds_must_match(self):
        p = stack([point(Kind.DUAL, 1.0, 2.0)])
        q = stack([point(Kind.DOUBLE, 1.0, 2.0)])
        with pytest.raises(KindMismatchError):
            equivalent(p, q)
