"""Batched kernels against their scalar twins, compared with ``==``.

The fixed-draw sweeps of ``verify`` run on the batched kernels; these tests
keep them a check of the scalar library by demanding bit-identical results
on the same draws, and identical generator use.
"""

import numpy as np
import pytest

from hypermoebius import algebra, sampling, verify
from hypermoebius.algebra import Hypercomplex, Kind, invert_many, magnitude_many, mul_many
from hypermoebius.errors import NotInvertibleError
from hypermoebius.matrix2 import (
    Mat2,
    adj_real,
    as_array,
    det,
    det_dual_formula,
    det_dual_formula_many,
    det_many,
    det_split_double,
    det_split_double_many,
    double_from_components,
    double_from_components_many,
    dual_from_parts,
    dual_from_parts_many,
    hat,
    hat_many,
    matmul_many,
)

KINDS = (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL)
N = 1_537  # not a multiple of verify._CHUNK


def numbers(kind, arr):
    return [Hypercomplex(kind, a1, a2) for a1, a2 in arr.tolist()]


def matrices(kind, arr):
    return [Mat2(kind, *numbers(kind, m)) for m in arr]


def stack(values):
    """Scalar results as a stack: numbers (n, 2), matrices (n, 4, 2)."""
    if isinstance(values[0], Mat2):
        return np.array([as_array(m) for m in values])
    return np.array([(x.a1, x.a2) for x in values])


def same(batched, scalar) -> bool:
    return batched.shape == scalar.shape and np.array_equal(batched, scalar)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.mark.parametrize("kind", KINDS)
class TestNumberKernels:
    def test_mul(self, kind, rng):
        x, y = sampling.random_numbers(rng, (N,)), sampling.random_numbers(rng, (N,))
        want = stack([p * q for p, q in zip(numbers(kind, x), numbers(kind, y))])
        assert same(mul_many(kind.sigma, x, y), want)

    def test_magnitude(self, kind, rng):
        x = sampling.random_numbers(rng, (N,))
        assert same(magnitude_many(x), np.array([v.magnitude() for v in numbers(kind, x)]))

    def test_invert(self, kind, rng):
        x = sampling.random_units(kind, rng, N)
        assert same(invert_many(kind, x), stack([algebra.invert(v) for v in numbers(kind, x)]))

    def test_invert_rejects_non_units(self, kind):
        x = np.array([[1.0, 0.5], [0.0, 0.0], [2.0, 0.0]])
        with pytest.raises(NotInvertibleError) as info:
            invert_many(kind, x)
        assert str(info.value.element_class) == "Zero"


@pytest.mark.parametrize("kind", KINDS)
class TestMatrixKernels:
    def test_det(self, kind, rng):
        x = sampling.random_numbers(rng, (N, 4))
        assert same(det_many(kind.sigma, x), stack([det(m) for m in matrices(kind, x)]))

    def test_matmul(self, kind, rng):
        x, y = sampling.random_numbers(rng, (N, 4)), sampling.random_numbers(rng, (N, 4))
        want = stack([p @ q for p, q in zip(matrices(kind, x), matrices(kind, y))])
        assert same(matmul_many(kind.sigma, x, y), want)

    def test_hat(self, kind, rng):
        x = sampling.random_numbers(rng, (N, 4))
        assert same(hat_many(x), stack([hat(m) for m in matrices(kind, x)]))


class TestComponentFormulas:
    def test_matrices_from_real_parts(self, rng):
        first, second = rng.uniform(-2, 2, size=(2, N, 2, 2))
        assert same(double_from_components_many(first, second),
                    stack([double_from_components(p, m) for p, m in zip(first, second)]))
        assert same(dual_from_parts_many(first, second),
                    stack([dual_from_parts(p, m) for p, m in zip(first, second)]))

    def test_split_double_stacked_matches_one_at_a_time(self, rng):
        plus, minus = rng.uniform(-2, 2, size=(2, N, 2, 2))
        want = stack([algebra.recompose(float(np.linalg.det(p)), float(np.linalg.det(m)))
                      for p, m in zip(plus, minus)])
        assert same(det_split_double_many(plus, minus), want)
        assert same(stack([det_split_double(p, m) for p, m in zip(plus, minus)]), want)

    def test_dual_formula_stacked_matches_one_at_a_time(self, rng):
        a1, a2 = rng.uniform(-2, 2, size=(2, N, 2, 2))
        want = np.array([(float(np.linalg.det(p)), float(np.trace(p @ adj_real(q))))
                         for p, q in zip(a1, a2)])
        assert same(det_dual_formula_many(a1, a2), want)
        assert same(stack([det_dual_formula(p, q) for p, q in zip(a1, a2)]), want)

    def test_adj_real_stack(self, rng):
        m = rng.uniform(-2, 2, size=(N, 2, 2))
        assert same(adj_real(m), np.array([[[q[1, 1], -q[0, 1]], [-q[1, 0], q[0, 0]]]
                                           for q in m]))


class TestDraws:
    def test_numbers_follow_scalar_stream(self):
        batch_rng, scalar_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = sampling.random_numbers(batch_rng, (N, 3))
        want = stack([sampling.random_number(Kind.DUAL, scalar_rng) for _ in range(3 * N)])
        assert same(got, want.reshape(N, 3, 2))
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("kind", KINDS)
    def test_units_follow_scalar_stream(self, kind):
        batch_rng, scalar_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = sampling.random_units(kind, batch_rng, N)
        want = stack([sampling.random_unit(kind, scalar_rng) for _ in range(N)])
        assert same(got, want)
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_double_units_redraw_rejects(self):
        # about 4% of double attempts are rejected, so several redraw rounds run
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        sampling.random_units(Kind.DOUBLE, rng, N)
        ref.random(4 * N)
        assert rng.bit_generator.state != ref.bit_generator.state


# doubles each ported check draws from the generator for n samples
FIXED_DRAWS = {
    "check_ring_laws": lambda n: 3 * n * 6,
    "check_split_isomorphism": lambda n: n * 4,
    "check_det_multiplicative": lambda n: 3 * n * 16,
    "check_det_component_formulas": lambda n: 2 * n * 8,
    "check_adjugate_identity": lambda n: 3 * n * 8,
}


class TestSweepDraws:
    @pytest.mark.parametrize("name", sorted(FIXED_DRAWS))
    def test_fixed_draw_count(self, name):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        getattr(verify, name)(rng, n=N)
        ref.random(FIXED_DRAWS[name](N))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_inverses_draw_like_the_scalar_loop(self):
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        verify.check_inverses(rng, n=N)
        ref.random(N * 4)                              # complex: sign, magnitude, sign, magnitude
        for _ in range(N):                             # double: rejection sampling
            sampling.random_unit(Kind.DOUBLE, ref)
        ref.random(N * 4)                              # dual
        assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# the scalar loops the batched sweeps replaced, as an oracle for their reports


def scalar_ring_laws(kind, rng, n):
    tally = verify._Tally()
    for _ in range(n):
        x, y, z = (sampling.random_number(kind, rng) for _ in range(3))
        scale = 1.0 + max(x.magnitude(), y.magnitude(), z.magnitude()) ** 3
        gaps = (((x * y) - (y * x)).magnitude(),
                ((x * y) * z - x * (y * z)).magnitude(),
                (x * (y + z) - (x * y + x * z)).magnitude())
        tally.add(max(gaps) / scale <= 1e-12, max(gaps) / scale)
    return tally


def scalar_inverses(kind, rng, n):
    tally = verify._Tally()
    for _ in range(n):
        x = sampling.random_unit(kind, rng)
        gap = (x * algebra.invert(x) - algebra.one(kind)).magnitude()
        tally.add(gap <= 1e-12, gap)
    return tally


def scalar_det_multiplicative(kind, rng, n):
    tally = verify._Tally()
    for _ in range(n):
        x = Mat2(kind, *(sampling.random_number(kind, rng) for _ in range(4)))
        y = Mat2(kind, *(sampling.random_number(kind, rng) for _ in range(4)))
        gap = (det(x @ y) - det(x) * det(y)).magnitude()
        scale = 1.0 + (det(x) * det(y)).magnitude()
        tally.add(gap / scale <= 1e-10, gap / scale)
    return tally


def scalar_adjugate(kind, rng, n):
    tally = verify._Tally()
    for _ in range(n):
        x = Mat2(kind, *(sampling.random_number(kind, rng) for _ in range(4)))
        rhs = Mat2(kind, *(algebra.number(kind, v) for v in (1, 0, 0, 1))).scale(det(x))
        gap = (x @ hat(x) - rhs).max_entry_magnitude()
        tally.add(gap <= 1e-10, gap)
    return tally


def scalar_det_components(build, formula, rng, n):
    tally = verify._Tally()
    for _ in range(n):
        first = rng.uniform(-2, 2, size=(2, 2))
        second = rng.uniform(-2, 2, size=(2, 2))
        gap = (det(build(first, second)) - formula(first, second)).magnitude()
        tally.add(gap <= 1e-10, gap)
    return tally


def scalar_split_isomorphism(rng, n):
    tally = verify._Tally()
    for _ in range(n):
        x = sampling.random_number(Kind.DOUBLE, rng)
        y = sampling.random_number(Kind.DOUBLE, rng)
        (xp, xm), (yp, ym) = algebra.decompose(x), algebra.decompose(y)
        zp, zm = algebra.decompose(x * y)
        scale = 1.0 + max(abs(xp * yp), abs(xm * ym))
        rel = max(abs(zp - xp * yp), abs(zm - xm * ym)) / scale
        tally.add(rel <= 1e-12, rel)
    return tally


def per_kind(sweep):
    return lambda rng, n: [sweep(kind, rng, n) for kind in verify.RING_KINDS]


SCALAR_SWEEPS = {
    "check_ring_laws": per_kind(scalar_ring_laws),
    "check_inverses": per_kind(scalar_inverses),
    "check_split_isomorphism": lambda rng, n: [scalar_split_isomorphism(rng, n)],
    "check_det_multiplicative": per_kind(scalar_det_multiplicative),
    "check_det_component_formulas": lambda rng, n: [
        scalar_det_components(double_from_components, det_split_double, rng, n),
        scalar_det_components(dual_from_parts, det_dual_formula, rng, n)],
    "check_adjugate_identity": per_kind(scalar_adjugate),
}


class TestSweepsMatchScalarLoops:
    @pytest.mark.parametrize("name", sorted(SCALAR_SWEEPS))
    def test_same_counts_and_worst(self, name):
        n = 1_234
        for seed in (0, 1):
            results = getattr(verify, name)(np.random.default_rng(seed), n=n)
            tallies = SCALAR_SWEEPS[name](np.random.default_rng(seed), n)
            assert len(results) == len(tallies)
            for result, tally in zip(results, tallies):
                assert result.passed == tally.full
                assert result.detail.startswith(f"{tally.good}/{n} ")
                assert result.detail.endswith(verify._fmt(tally.worst))
