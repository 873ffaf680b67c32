import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypermoebius import algebra
from hypermoebius.algebra import (
    ElementClass,
    Hypercomplex,
    Kind,
    P_MINUS,
    P_PLUS,
    arctan_sigma,
    classify_element,
    cos_sigma,
    decompose,
    generator,
    invert,
    number,
    one,
    parse_number,
    recompose,
    render,
    render_components,
    sin_sigma,
    sqrt_all,
    tan_sigma,
    zero,
)
from hypermoebius.errors import (
    DomainError,
    InvalidLiteralError,
    KindMismatchError,
    NotInvertibleError,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def close(x: Hypercomplex, a1: float, a2: float, tol: float = 1e-12) -> bool:
    return abs(x.a1 - a1) <= tol and abs(x.a2 - a2) <= tol


class TestRingOps:
    def test_zero_divisor_product(self):
        x = number(Kind.DOUBLE, 1, 1) * number(Kind.DOUBLE, 1, -1)
        assert x.is_zero()

    def test_dual_product_drops_eps_squared(self):
        assert close(number(Kind.DUAL, 2, 3) * number(Kind.DUAL, 4, 5), 8, 22)

    def test_unity(self):
        for kind in Kind:
            x = number(kind, -1.25, 0.5)
            assert (x * one(kind)).close_to(x, 0)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            number(Kind.DUAL, 1, 0) * number(Kind.DOUBLE, 1, 0)

    def test_numpy_real_scalars(self):
        import numpy as np

        x = number(Kind.DUAL, 2, 3)
        for two in (np.int64(2), np.float32(2.0), np.float64(2.0)):
            assert (x * two).close_to(number(Kind.DUAL, 4, 6), 0)
            assert (two * x).close_to(number(Kind.DUAL, 4, 6), 0)
            assert (x / two).close_to(number(Kind.DUAL, 1, 1.5), 0)
        assert type((x * np.int64(2)).a1) is float
        # integer or numpy scalar coordinates take the float path of magnitude
        for coord in (-2, np.int64(-2), np.float64(-2.0)):
            size = Hypercomplex(Kind.DUAL, 1, coord).magnitude()
            assert size == 2.0 and type(size) is float

    def test_numpy_scalar_products_hold_plain_floats(self):
        import numpy as np

        x = number(Kind.DUAL, 2, 3)
        for two in (np.float64(2.0), np.int64(2)):
            assert repr(x * two) == "Hypercomplex(DUAL, 4.0, 6.0)"
            assert repr(two * x) == "Hypercomplex(DUAL, 4.0, 6.0)"
            assert repr(x / two) == "Hypercomplex(DUAL, 1.0, 1.5)"

    def test_reciprocal(self):
        for kind in Kind:
            x = number(kind, 3, 1)
            assert (1 / x).close_to(invert(x), 0)
            assert (2 / x).close_to(invert(x) * 2, 0)
        with pytest.raises(NotInvertibleError):
            1 / number(Kind.DUAL, 0, 1)

    def test_non_number_operand_is_type_error(self):
        x = number(Kind.DOUBLE, 1, 2)
        for bad in (lambda: x * "a", lambda: x / "a", lambda: "a" / x):
            with pytest.raises(TypeError):
                bad()

    def test_float_array_operand_is_a_stack(self):
        # as for *, each element of the array is the real number it names
        x, v = number(Kind.DOUBLE, 1, 2), np.array([1.0, 2.0])
        for got, a1, a2 in ((x + v, [2, 3], [2, 2]), (v + x, [2, 3], [2, 2]),
                            (x - v, [0, -1], [2, 2]), (v - x, [0, 1], [-2, -2])):
            assert got.kind is Kind.DOUBLE
            assert np.array_equal(got.a1, a1) and np.array_equal(got.a2, a2)

    def test_generator_squares_exact(self):
        for kind, want in ((Kind.COMPLEX, -1.0), (Kind.DUAL, 0.0), (Kind.DOUBLE, 1.0)):
            sq = generator(kind) * generator(kind)
            assert sq.a1 == want and sq.a2 == 0.0

    @given(finite, finite, finite, finite)
    def test_commutative(self, a, b, c, d):
        for kind in Kind:
            x, y = number(kind, a, b), number(kind, c, d)
            assert (x * y).close_to(y * x, 1e-9 * (1 + x.magnitude() * y.magnitude()))

    @given(finite, finite, finite, finite, finite, finite)
    def test_distributive(self, a, b, c, d, e, f):
        for kind in Kind:
            x, y, z = number(kind, a, b), number(kind, c, d), number(kind, e, f)
            lhs = x * (y + z)
            rhs = x * y + x * z
            scale = 1 + x.magnitude() * (y.magnitude() + z.magnitude())
            assert lhs.close_to(rhs, 1e-9 * scale)


class TestValueType:
    def test_fields_are_frozen(self):
        x = number(Kind.DUAL, 1, 2)
        for field in ("kind", "a1", "a2"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, field, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, field)
        assert (x.kind, x.a1, x.a2) == (Kind.DUAL, 1.0, 2.0)

    def test_equality_and_hash_follow_the_fields(self):
        x = Hypercomplex(Kind.DUAL, 1.0, 2.0)
        assert x == Hypercomplex(kind=Kind.DUAL, a1=1.0, a2=2.0)
        assert x != Hypercomplex(Kind.DOUBLE, 1.0, 2.0)
        assert x != Hypercomplex(Kind.DUAL, 1.0, 3.0)
        assert hash(x) == hash((Kind.DUAL, 1.0, 2.0))
        assert len({x, number(Kind.DUAL, 1, 2)}) == 1
        assert dataclasses.replace(x, a2=5.0) == Hypercomplex(Kind.DUAL, 1.0, 5.0)


class TestDecompose:
    def test_components(self):
        assert decompose(number(Kind.DOUBLE, 5, 3)) == (8, 2)

    def test_unity_maps_to_ones(self):
        assert decompose(one(Kind.DOUBLE)) == (1, 1)

    def test_p_plus_is_first_component_unit(self):
        assert decompose(P_PLUS) == (1, 0)
        assert (P_PLUS * P_MINUS).is_zero()

    def test_round_trip(self):
        x = number(Kind.DOUBLE, -1.7, 0.4)
        assert recompose(*decompose(x)).close_to(x, 1e-15)

    def test_multiplication_is_componentwise(self):
        x, y = number(Kind.DOUBLE, 1.5, -0.5), number(Kind.DOUBLE, 2, 3)
        xp, xm = decompose(x)
        yp, ym = decompose(y)
        zp, zm = decompose(x * y)
        assert abs(zp - xp * yp) < 1e-12 and abs(zm - xm * ym) < 1e-12

    def test_wrong_kind(self):
        with pytest.raises(KindMismatchError):
            decompose(number(Kind.DUAL, 1, 1))


class TestInvert:
    def test_double(self):
        x = number(Kind.DOUBLE, 3, 1)
        inv = invert(x)
        assert close(inv, 0.375, -0.125)
        assert (x * inv).close_to(one(Kind.DOUBLE), 1e-12)

    def test_dual(self):
        x = number(Kind.DUAL, 2, 3)
        inv = invert(x)
        assert close(inv, 0.5, -0.75)
        assert (x * inv).close_to(one(Kind.DUAL), 1e-12)

    def test_complex(self):
        x = number(Kind.COMPLEX, 1, 1)
        assert (x * invert(x)).close_to(one(Kind.COMPLEX), 1e-12)

    def test_complex_past_the_squares_overflow(self):
        # a1**2 + a2**2 overflows from about 1e154; the inverse is still finite
        for a1, a2 in ((1e-11, 1e307), (3e200, 4e200), (1.5e308, -1.5e308)):
            x = number(Kind.COMPLEX, a1, a2)
            inv = invert(x)
            assert inv.a2 != 0.0
            assert (x * inv).close_to(one(Kind.COMPLEX), 1e-12)

    def test_complex_in_range_keeps_its_expression(self):
        assert invert(number(Kind.COMPLEX, 3, 4)) == number(Kind.COMPLEX, 3 / 25, -4 / 25)

    def test_zero_divisor_rejected_with_class(self):
        with pytest.raises(NotInvertibleError) as err:
            invert(P_PLUS)
        assert err.value.element_class is ElementClass.ZERO_DIVISOR_PLUS

    def test_nilpotent_rejected(self):
        with pytest.raises(NotInvertibleError) as err:
            invert(number(Kind.DUAL, 0, 5))
        assert err.value.element_class is ElementClass.NILPOTENT_NONZERO

    def test_integer_coordinates_take_the_float_path(self):
        # in a fresh interpreter, as the test process has numpy loaded already
        code = ("import sys; from hypermoebius.algebra import Hypercomplex, Kind, invert; "
                "print(invert(Hypercomplex(Kind.DUAL, 2, 1)), "
                "invert(Hypercomplex(Kind.COMPLEX, 2, 1)), 'numpy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(algebra.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "0.5-0.25e 0.4-0.2i False\n"


class TestSqrtAll:
    def test_double_four_roots(self):
        x = number(Kind.DOUBLE, 5, 3)
        roots = sqrt_all(x)
        assert len(roots) == 4
        r = math.sqrt(2)
        values = sorted((round(s.a1, 9), round(s.a2, 9)) for s in roots)
        expect = sorted((round(a, 9), round(b, 9)) for a, b in
                        [(3 * r / 2, r / 2), (r / 2, 3 * r / 2),
                         (-3 * r / 2, -r / 2), (-r / 2, -3 * r / 2)])
        assert values == expect
        for s in roots:
            assert (s * s).close_to(x, 1e-9)

    def test_double_two_roots_on_component_axis(self):
        roots = sqrt_all(P_PLUS * 4)
        assert len(roots) == 2
        for s in roots:
            assert (s * s).close_to(P_PLUS * 4, 1e-9)

    def test_double_zero(self):
        assert sqrt_all(zero(Kind.DOUBLE)) == [zero(Kind.DOUBLE)]

    def test_double_negative_component_undefined(self):
        assert sqrt_all(number(Kind.DOUBLE, -1, 0)) == []

    def test_dual_pair(self):
        x = number(Kind.DUAL, 4, 4)
        roots = sqrt_all(x)
        assert len(roots) == 2
        assert any(close(s, 2, 1) for s in roots)
        assert any(close(s, -2, -1) for s in roots)

    def test_dual_zero_single_root(self):
        assert sqrt_all(zero(Kind.DUAL)) == [zero(Kind.DUAL)]

    def test_dual_nilpotent_undefined(self):
        assert sqrt_all(number(Kind.DUAL, 0, 2)) == []
        assert sqrt_all(number(Kind.DUAL, -1, 2)) == []

    def test_complex_pair(self):
        roots = sqrt_all(number(Kind.COMPLEX, 0, 2))
        assert len(roots) == 2
        for s in roots:
            assert (s * s).close_to(number(Kind.COMPLEX, 0, 2), 1e-9)

    def test_complex_stack_is_refused(self):
        with pytest.raises(KindMismatchError):
            algebra.sqrt_all_many(algebra.stacked(Kind.COMPLEX, np.ones((3, 2))))


class TestClassify:
    def test_double_zero_divisors(self):
        assert classify_element(P_PLUS * 2) is ElementClass.ZERO_DIVISOR_PLUS
        assert classify_element(P_MINUS * -3) is ElementClass.ZERO_DIVISOR_MINUS

    def test_dual_nilpotent(self):
        assert classify_element(number(Kind.DUAL, 0, 5)) is ElementClass.NILPOTENT_NONZERO

    def test_units_and_zero(self):
        for kind in Kind:
            assert classify_element(one(kind)) is ElementClass.UNIT
            assert classify_element(zero(kind)) is ElementClass.ZERO

    def test_idempotent_census(self):
        grid = [-2 + 0.25 * k for k in range(17)]
        hits = {(p, m) for p in grid for m in grid
                if ((x := recompose(p, m)) * x - x).is_zero()}
        assert hits == {(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)}


class TestSigmaTrig:
    def test_shear_table(self):
        assert (cos_sigma(0, 2.5), sin_sigma(0, 2.5), tan_sigma(0, 2.5)) == (1.0, 2.5, 2.5)

    def test_hyperbolic_at_zero(self):
        assert (cos_sigma(1, 0.0), sin_sigma(1, 0.0), tan_sigma(1, 0.0)) == (1.0, 0.0, 0.0)

    def test_arctan_circular(self):
        assert abs(arctan_sigma(-1, 1.0) - math.pi / 4) < 1e-15

    def test_quotient_identity(self):
        for sigma in (-1, 0, 1):
            t = 0.35
            c, s, tn = cos_sigma(sigma, t), sin_sigma(sigma, t), tan_sigma(sigma, t)
            assert abs(tn - s / c) < 1e-15

    def test_tangent_pole_rejected(self):
        with pytest.raises(DomainError):
            tan_sigma(-1, math.pi / 2)

    def test_hyperbolic_arctan_domain(self):
        with pytest.raises(DomainError):
            arctan_sigma(1, 1.0)

    @given(st.floats(min_value=-3, max_value=3))
    def test_round_trip(self, t):
        for sigma in (0, 1):
            assert abs(arctan_sigma(sigma, tan_sigma(sigma, t)) - t) < 1e-10

    @given(st.floats(min_value=-1.4, max_value=1.4))
    def test_round_trip_circular(self, t):
        assert abs(arctan_sigma(-1, tan_sigma(-1, t)) - t) < 1e-10


class TestTextForm:
    def test_render(self):
        assert render(number(Kind.DOUBLE, 2.5, -1.5)) == "2.5-1.5j"
        assert render(number(Kind.DUAL, 0, 1)) == "0+1e"
        assert render_components(number(Kind.DOUBLE, 5, 3)) == "(8|2)"

    def test_positional_text_matches_numpy(self):
        # the repr-based formatter gives np.format_float_positional's text
        rng = np.random.default_rng(41)
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e16, -1e16,
                  9999999999999998.0, 1e15, 1e-4, 1e-5, 0.1, 100.0, -2.0,
                  math.inf, -math.inf]
        for exponent in range(-324, 308):
            values += (rng.uniform(-10.0, 10.0, 30) * 10.0 ** exponent).tolist()
        for v in values:
            want = np.format_float_positional(0.0 if v == 0.0 else v, trim="-")
            assert algebra._fmt(v) == want, v

    def test_parse_forms(self):
        assert close(parse_number(Kind.DOUBLE, "1+2j"), 1, 2)
        assert close(parse_number(Kind.DOUBLE, "-1.5-0.25j"), -1.5, -0.25)
        assert close(parse_number(Kind.DUAL, "2e"), 0, 2)
        assert close(parse_number(Kind.COMPLEX, "3"), 3, 0)
        assert close(parse_number(Kind.DOUBLE, "(8|2)"), 5, 3)
        assert close(parse_number(Kind.DOUBLE, "−1.5+2j"), -1.5, 2)

    def test_parse_rejects_wrong_generator(self):
        with pytest.raises(InvalidLiteralError):
            parse_number(Kind.DUAL, "1+2j")
        with pytest.raises(InvalidLiteralError):
            parse_number(Kind.DOUBLE, "nonsense")

    @given(finite, finite)
    def test_round_trip(self, a, b):
        for kind in Kind:
            x = number(kind, a, b)
            back = parse_number(kind, render(x))
            assert back.a1 == x.a1 and (back.a2 == x.a2 or (x.a2 == 0 and back.a2 == 0))
