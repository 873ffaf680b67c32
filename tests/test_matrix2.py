import math

import numpy as np
import pytest

from hypermoebius import algebra
from hypermoebius.algebra import ElementClass, Kind, P_MINUS, P_PLUS, number, one, zero
from hypermoebius.errors import KindMismatchError, NotNormalizableError, SingularMatrixError
from hypermoebius.matrix2 import (
    Mat2,
    det,
    det_dual_formula,
    det_split_double,
    double_from_components,
    dual_from_parts,
    hat,
    identity,
    invert_mat,
    join_double,
    join_dual,
    mat2,
    mat_exp,
    mat_exp_real,
    normalize_to_sl,
    parse_mat,
    render_mat,
    split_double,
    split_dual,
    trace,
)
from hypermoebius.moebius import MoebiusMap
from hypermoebius.sampling import random_number, rng_from_seed


def test_det_identity():
    for kind in Kind:
        assert det(identity(kind)).close_to(one(kind), 0)


def test_det_idempotent_columns_is_generator():
    m = Mat2(P_PLUS, P_MINUS, one(Kind.DOUBLE), one(Kind.DOUBLE))
    assert det(m).close_to(algebra.generator(Kind.DOUBLE), 1e-15)


def test_det_dual_shear_is_one():
    m = mat2(Kind.DUAL, [[one(Kind.DUAL), algebra.generator(Kind.DUAL)],
                         [zero(Kind.DUAL), one(Kind.DUAL)]])
    assert det(m).close_to(one(Kind.DUAL), 0)


def test_det_multiplicative_sweep():
    rng = rng_from_seed(11)
    for kind in Kind:
        for _ in range(300):
            x = Mat2(*(random_number(kind, rng) for _ in range(4)))
            y = Mat2(*(random_number(kind, rng) for _ in range(4)))
            assert (det(x @ y) - det(x) * det(y)).magnitude() < 1e-10


def test_hat_substitution():
    m = mat2(Kind.COMPLEX, [[1, 2], [3, 4]])
    assert render_mat(hat(m)) == "[[4+0i,-2+0i],[-3+0i,1+0i]]"
    assert hat(identity(Kind.DUAL)).close_to(identity(Kind.DUAL), 0)


def test_hat_gives_determinant():
    m = mat2(Kind.COMPLEX, [[1, 2], [3, 4]])
    assert (m @ hat(m)).close_to(identity(Kind.COMPLEX).scale(-2.0), 1e-12)


def test_mixed_kind_entries_raise_at_first_operation():
    m = Mat2(one(Kind.DOUBLE), zero(Kind.DUAL), zero(Kind.DOUBLE), one(Kind.DOUBLE))
    for operation in (det, lambda x: x @ identity(Kind.DOUBLE), MoebiusMap):
        with pytest.raises(KindMismatchError):
            operation(m)


def test_invert_identity():
    assert invert_mat(identity(Kind.DOUBLE)).close_to(identity(Kind.DOUBLE), 0)


def test_invert_dual_shear():
    eps = algebra.generator(Kind.DUAL)
    m = Mat2(one(Kind.DUAL), eps, zero(Kind.DUAL), one(Kind.DUAL))
    inv = invert_mat(m)
    assert inv.b.close_to(-eps, 1e-12)
    assert (m @ inv).close_to(identity(Kind.DUAL), 1e-12)


def test_invert_zero_divisor_entries():
    m = Mat2(P_PLUS, P_MINUS, one(Kind.DOUBLE), one(Kind.DOUBLE))
    assert (m @ invert_mat(m)).close_to(identity(Kind.DOUBLE), 1e-12)


def test_invert_singular_carries_class():
    m = Mat2(P_PLUS, zero(Kind.DOUBLE), zero(Kind.DOUBLE), one(Kind.DOUBLE))
    with pytest.raises(SingularMatrixError) as err:
        invert_mat(m)
    assert err.value.det_class is ElementClass.ZERO_DIVISOR_PLUS


class TestComponentTuples:
    def test_join_inverts_split(self):
        rng = rng_from_seed(13)
        for _ in range(100):
            plus, minus, part1, part2 = (tuple(rng.uniform(-2, 2, 4).tolist()) for _ in range(4))
            assert split_dual(join_dual(part1, part2)) == (part1, part2)
            # the idempotent split rounds: (p+m)/2 + (p-m)/2 is p to an ulp
            back = split_double(join_double(plus, minus))
            assert np.allclose(back, (plus, minus), rtol=0, atol=1e-15)

    def test_array_adapters(self):
        a, b = np.array([[1.5, -2.0], [0.25, 3.0]]), np.array([[0, 1], [2, 3]])
        assert double_from_components(a, b) == join_double((1.5, -2.0, 0.25, 3.0), (0, 1, 2, 3))
        m = dual_from_parts(a, b)
        assert m == join_dual((1.5, -2.0, 0.25, 3.0), (0.0, 1.0, 2.0, 3.0))
        assert all(type(x) is float for e in m.entries() for x in (e.a1, e.a2))


class TestComponentDeterminants:
    def test_split_identity_pair(self):
        assert det_split_double(np.eye(2), np.eye(2)).close_to(one(Kind.DOUBLE), 1e-12)

    def test_split_example(self):
        d = det_split_double(np.array([[1., 2.], [3., 4.]]), np.diag([2., 3.]))
        p, m = algebra.decompose(d)
        assert abs(p + 2) < 1e-12 and abs(m - 6) < 1e-12

    def test_split_agrees_with_direct(self):
        rng = rng_from_seed(5)
        for _ in range(500):
            ap = rng.uniform(-2, 2, (2, 2))
            am = rng.uniform(-2, 2, (2, 2))
            direct = det(double_from_components(ap, am))
            assert (direct - det_split_double(ap, am)).magnitude() < 1e-10

    def test_sl_pairs_have_det_one(self):
        from hypermoebius.sampling import random_sl_real

        rng = rng_from_seed(6)
        for _ in range(50):
            d = det_split_double(random_sl_real(rng), random_sl_real(rng))
            assert d.close_to(one(Kind.DOUBLE), 1e-10)

    def test_dual_formula_example(self):
        d = det_dual_formula(np.array([[1., 2.], [3., 4.]]), np.array([[0., 1.], [1., 0.]]))
        assert d.close_to(number(Kind.DUAL, -2, -5), 1e-12)

    def test_dual_formula_eps_free_part(self):
        a1 = np.array([[1., 2.], [3., 4.]])
        assert det_dual_formula(a1, np.zeros((2, 2))).close_to(number(Kind.DUAL, -2, 0), 1e-12)

    def test_dual_trace_term_vanishes(self):
        d = det_dual_formula(np.eye(2), np.diag([1., -1.]))
        assert d.close_to(one(Kind.DUAL), 1e-12)

    def test_dual_agrees_with_direct(self):
        rng = rng_from_seed(8)
        for _ in range(500):
            a1 = rng.uniform(-2, 2, (2, 2))
            a2 = rng.uniform(-2, 2, (2, 2))
            direct = det(dual_from_parts(a1, a2))
            assert (direct - det_dual_formula(a1, a2)).magnitude() < 1e-10


class TestNormalize:
    def test_scalar_double(self):
        m = identity(Kind.DOUBLE).scale(2.0)
        assert normalize_to_sl(m).close_to(identity(Kind.DOUBLE), 1e-12)

    def test_dual_with_eps_determinant(self):
        x = identity(Kind.DUAL).scale(number(Kind.DUAL, 2, 1))
        n = normalize_to_sl(x)
        assert det(n).close_to(one(Kind.DUAL), 1e-12)

    def test_negative_determinant_unnormalizable(self):
        m = mat2(Kind.DOUBLE, [[1, 0], [0, -1]])
        with pytest.raises(NotNormalizableError):
            normalize_to_sl(m)


class TestMatExp:
    def test_zero_gives_identity(self):
        b = mat2(Kind.DUAL, [[0, 0], [0, 0]])
        assert mat_exp(b, 1.7).close_to(identity(Kind.DUAL), 1e-15)

    def test_symmetric_generator(self):
        b = mat2(Kind.COMPLEX, [[0, 1], [1, 0]])
        e = mat_exp(b, 0.9)
        assert abs(e.a.a1 - math.cosh(0.9)) < 1e-12
        assert abs(e.b.a1 - math.sinh(0.9)) < 1e-12

    def test_nilpotent_generator(self):
        e = mat_exp_real(np.array([[0., 0.], [1., 0.]]), 1.3)
        assert np.allclose(e, [[1, 0], [1.3, 1]], atol=1e-14)

    def test_one_parameter_law(self):
        rng = rng_from_seed(3)
        for kind in Kind:
            for _ in range(25):
                b = Mat2(*(random_number(kind, rng) for _ in range(4)))
                s, t = rng.uniform(-3, 3, 2)
                lhs = mat_exp(b, s + t)
                rhs = mat_exp(b, s) @ mat_exp(b, t)
                scale = 1 + lhs.max_entry_magnitude() \
                    + mat_exp(b, s).max_entry_magnitude() * mat_exp(b, t).max_entry_magnitude()
                assert (lhs - rhs).max_entry_magnitude() < 1e-8 * scale

    def test_double_exp_splits(self):
        rng = rng_from_seed(4)
        for _ in range(25):
            ap = rng.uniform(-2, 2, (2, 2))
            am = rng.uniform(-2, 2, (2, 2))
            t = rng.uniform(-2, 2)
            ring = mat_exp(double_from_components(ap, am), t)
            split = double_from_components(mat_exp_real(ap, t), mat_exp_real(am, t))
            assert (ring - split).max_entry_magnitude() < 1e-8


def test_parse_render_round_trip():
    m = mat2(Kind.DOUBLE, [[number(Kind.DOUBLE, 1, 2), number(Kind.DOUBLE, -0.5, 0)],
                           [zero(Kind.DOUBLE), one(Kind.DOUBLE)]])
    again = parse_mat(Kind.DOUBLE, render_mat(m))
    assert again.close_to(m, 1e-9)


def test_trace():
    m = mat2(Kind.DUAL, [[1, 5], [7, 2]])
    assert trace(m).close_to(number(Kind.DUAL, 3, 0), 0)
