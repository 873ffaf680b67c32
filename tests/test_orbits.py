import hashlib
import json
import math

import numpy as np
import pytest

from hypermoebius import orbits
from hypermoebius.algebra import Hypercomplex, Kind
from hypermoebius.errors import DomainError, InvalidPointError
from hypermoebius.matrix2 import Mat2, mat2
from hypermoebius.orbits import (
    CSV_HEADER,
    MAX_GRID_STEPS,
    STACK_SIZE,
    dual_orbit_report,
    residual_dual_orbit,
    residual_shear_pair,
    residual_trivial_minus,
    residual_two_regime,
    sampled_orbit,
    start_double,
    start_dual,
    t_grid,
    to_csv,
    to_json_obj,
)
from hypermoebius.projline import ClassTag
from hypermoebius.sampling import rng_from_seed
from hypermoebius.subgroups import (
    DoubleGL,
    DoubleSL,
    DualSL,
    SigmaKind,
    conjugate_spec,
    parse_spec,
)
from hypermoebius.verify import check_orbit_shear_pair

SHEAR_PAIR = DoubleSL(SigmaKind.PARABOLIC, SigmaKind.PARABOLIC, 1.0)


class TestGrid:
    def test_inclusive_endpoints(self):
        ts = t_grid(-2.0, 2.0, 0.1)
        assert len(ts) == 41
        assert ts[0] == pytest.approx(-2.0) and ts[-1] == pytest.approx(2.0)
        assert t_grid(-2, 2, 0.01) == [-2 + k * 0.01 for k in range(401)]

    def test_grid_length_is_bounded(self):
        assert len(t_grid(0, MAX_GRID_STEPS, 1)) == MAX_GRID_STEPS + 1
        for bad in ((0, 2e6, 1), (0, 1e6, 1e-9), (-1e308, 1e308, 1.0)):
            with pytest.raises(DomainError, match="more than"):
                t_grid(*bad)

    def test_bad_step(self):
        with pytest.raises(DomainError):
            t_grid(0, 1, 0)
        with pytest.raises(DomainError, match="before its start"):
            t_grid(2, -2, 0.1)
        assert t_grid(1.5, 1.5, 0.1) == [1.5]
        for bad in ((0, math.inf, 1), (0, 1, math.nan), (math.nan, 1, 0.5)):
            with pytest.raises(DomainError):
                t_grid(*bad)


class TestOracle:
    def test_t_zero_returns_start(self):
        sample = sampled_orbit(SHEAR_PAIR, start_double(1.0, 2.0), [0.0])
        row = sample.rows[0]
        assert (row.u, row.v) == (pytest.approx(1.5), pytest.approx(-0.5))

    def test_shear_pair_coordinates(self):
        sample = sampled_orbit(SHEAR_PAIR, start_double(1.0, 2.0), [1.0])
        row = sample.rows[0]
        assert row.u == pytest.approx(7 / 12)
        assert row.v == pytest.approx(-1 / 12)

    def test_circular_pole_leaves_chart(self):
        spec = DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.PARABOLIC, 1.0)
        # plus component pole: cos t + y+ sin t = 0 at t = atan(-1/y+) + pi
        y = 1.0
        t_pole = math.pi - math.atan(1 / y)
        sample = sampled_orbit(spec, start_double(y, 2.0), [t_pole])
        assert sample.rows[0].u is None
        assert sample.rows[0].cls.tag is not ClassTag.AFFINE


    def test_fast_decaying_component_is_not_refused(self):
        # exp(-10 t) on the plus side: at t = 2 the plus component's
        # determinant is e^-40, far below the unit tolerance, yet the map
        # still acts as the rotation H_K(2) on each component.  Entries
        # hold the e^-20 plus component next to an O(1) minus component,
        # so it is known only to about 1e-16 / e^-20 = 5e-8 relative.
        spec = DoubleGL(SigmaKind.ELLIPTIC, -10.0, SigmaKind.ELLIPTIC, 0.0)
        row = sampled_orbit(spec, start_double(1.0, 2.0), [2.0]).rows[0]
        c, s = math.cos(2.0), math.sin(2.0)
        plus, minus = ((c * y - s) / (s * y + c) for y in (1.0, 2.0))
        assert row.u == pytest.approx((plus + minus) / 2.0, rel=1e-6)
        assert row.v == pytest.approx((plus - minus) / 2.0, rel=1e-6)
        # at t = 3 the e^-30 component is lost to rounding, and the image
        # would read non-admissible
        with pytest.raises(DomainError, match="rounding"):
            sampled_orbit(spec, start_double(1.0, 2.0), [3.0])


def _start(text: str, c1: float, c2: float):
    return (start_double if text.startswith("double") else start_dual)(c1, c2)


def _row_by_row(spec, start, ts):
    """sampled_orbit with no row certified by the stacked evaluation: every
    row from its own matrix, the reference for the stacked rows."""
    stacked = orbits._stacked_affine
    orbits._stacked_affine = lambda spec, p, ts: [None] * len(ts)
    try:
        return sampled_orbit(spec, start, ts)
    finally:
        orbits._stacked_affine = stacked


def _outcome(sample_fn, spec, start, ts):
    """The repr of each row (bit for bit, nan and -0.0 included), or the
    error's type and text."""
    try:
        return [repr(row) for row in sample_fn(spec, start, ts).rows]
    except Exception as exc:  # compared by type and text
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.filterwarnings("error")
class TestStackedRows:
    """Rows certified by one stacked evaluation against rows made one t at a
    time: field by field, and refusals with their type, text and first t."""

    # all five families, the K, N and A regimes and trivial components
    PINNED = (
        ("double-sl(sigma+=K, sigma-=A, a=1.3)", 0.8, 1.7),
        ("double-sl(sigma+=N, sigma-=N, a=0.7)", 1.0, 2.0),
        ("double-sl(sigma+=A, sigma-=K, a=-1.2)", 2.5, 0.6),
        ("double-sl(sigma+=K, sigma-=I)", 1.5, 2.5),
        ("double-gl(sigma+=A, lambda+=0.4, sigma-=N, lambda-=-0.7, a=1.1)", 1.2, 0.9),
        ("double-gl(sigma+=K, lambda+=-0.3, sigma-=I, lambda-=0.5)", 0.7, 2.2),
        ("dual-gl(sigma=K, lambda=1.2, lambda1=0.3, t0=-0.5)", 1.1, 0.4),
        ("dual-gl(sigma=I, lambda=-0.8, lambda1=-0.6, t0=0.2)", 2.0, -1.0),
        ("dual-sl(sigma=A, lambda=0.9, lambda1=0.5, t0=0.7)", 0.6, 1.4),
        ("dual-sl(sigma=N, lambda=-1.1, lambda1=0.2, t0=-0.3)", 1.3, 0.2),
    )
    # recorded with every row built from its own matrix
    PINNED_SHA256 = "a5a6db491ccf8c10938ee727208b25899a24300cbac4d75e4554e90bd5d9800b"

    def test_pinned_csv_digest(self):
        ts = t_grid(-2, 2, 0.01)
        digest = hashlib.sha256()
        for text, c1, c2 in self.PINNED:
            digest.update(to_csv(sampled_orbit(parse_spec(text), _start(text, c1, c2), ts))
                          .encode())
        assert digest.hexdigest() == self.PINNED_SHA256

    def assert_same(self, spec, start, ts):
        ts = list(ts)
        want = _outcome(_row_by_row, spec, start, ts)
        assert _outcome(sampled_orbit, spec, start, ts) == want
        if isinstance(want, str):
            # the refusal comes at the first t that refuses on its own
            k = next(i for i, t in enumerate(ts)
                     if isinstance(_outcome(_row_by_row, spec, start, [t]), str))
            assert _outcome(sampled_orbit, spec, start, ts[:k]) \
                == _outcome(_row_by_row, spec, start, ts[:k])
            assert _outcome(sampled_orbit, spec, start, ts[:k + 1]) == want
        return want

    def test_families_on_the_grid(self):
        for text, c1, c2 in self.PINNED:
            self.assert_same(parse_spec(text), _start(text, c1, c2), t_grid(-2, 2, 0.05))

    def test_conjugated_family(self):
        k = mat2(Kind.DOUBLE, [[2.0, 1.0], [1.0, 1.0]])
        spec = conjugate_spec(DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.HYPERBOLIC, 0.8), k)
        self.assert_same(spec, start_double(0.9, 1.6), t_grid(-2, 2, 0.1))

    def test_exact_circular_pole(self):
        spec = DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.PARABOLIC, 1.0)
        t_pole = math.pi - math.atan(1.0)
        ts = [1.0, t_pole, 2.5]
        self.assert_same(spec, start_double(1.0, 2.0), ts)
        tags = [row.cls.tag for row in sampled_orbit(spec, start_double(1.0, 2.0), ts).rows]
        assert tags[0] is tags[2] is ClassTag.AFFINE and tags[1] is not ClassTag.AFFINE

    @pytest.mark.parametrize("text, ts, error", [
        # entries overflow to inf in float arithmetic, without an OverflowError
        ("dual-sl(sigma=K,lambda=1e308,t0=1)", [0.0, 1.0, 2.0, 3.0], "overflows"),
        # math.exp(800) raises OverflowError on the stack
        ("double-gl(sigma+=A,lambda+=800,sigma-=K,lambda-=0)", [0.0, 1.0, 2.0], "overflows"),
        # the e^-30 plus component is lost next to the O(1) minus component
        ("double-gl(sigma+=K,lambda+=-10,sigma-=K,lambda-=0)", [0.0, 1.0, 2.0, 3.0, 4.0],
         "rounding"),
        # the whole matrix decays below the zero tolerance
        ("dual-gl(sigma=K,lambda=1,lambda1=-20)", [0.0, 1.0, 2.0, 3.0],
         "both homogeneous coordinates vanish"),
    ])
    def test_refusals(self, text, ts, error):
        outcome = self.assert_same(parse_spec(text), _start(text, 1.0, 2.0), ts)
        assert error in outcome

    def test_any_nonfinite_entry_refuses(self):
        class TopLeftOverflow:
            """The circular pair with an infinite top-left entry at t = 1 only,
            which leaves the image's y coordinate affine."""

            def eval(self, t):
                m = DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.ELLIPTIC).eval(t)
                a1 = np.where(t == 1.0, math.inf, m.a.a1) if isinstance(t, np.ndarray) \
                    else math.inf if t == 1.0 else m.a.a1
                return Mat2(Kind.DOUBLE, Hypercomplex(Kind.DOUBLE, a1, m.a.a2), m.b, m.c, m.d)

        outcome = self.assert_same(TopLeftOverflow(), start_double(1.0, 2.0), [0.0, 1.0])
        assert "overflows" in outcome

    def test_refusal_in_a_later_stack(self, monkeypatch):
        monkeypatch.setattr(orbits, "STACK_SIZE", 3)
        spec = parse_spec("dual-gl(sigma=K,lambda=1,lambda1=-20)")
        with pytest.raises(InvalidPointError):
            sampled_orbit(spec, start_dual(1.0, 2.0), t_grid(0, 3, 0.25))
        self.assert_same(spec, start_dual(1.0, 2.0), t_grid(0, 3, 0.25))

    def test_empty_single_and_more_than_one_stack(self):
        spec = DoubleSL(SigmaKind.HYPERBOLIC, SigmaKind.ELLIPTIC, 1.4)
        start = start_double(1.1, 0.7)
        assert sampled_orbit(spec, start, []).rows == ()
        self.assert_same(spec, start, [0.3])
        ts = np.linspace(-3.0, 3.0, STACK_SIZE + 7)
        sample = sampled_orbit(spec, start, ts)
        assert len(sample.rows) == len(ts)
        assert list(map(repr, sample.rows)) == list(map(repr, _row_by_row(spec, start, ts).rows))


class TestShearPairEquation:
    def test_derived_row_satisfies_equation(self):
        r = residual_shear_pair(1.0, start_double(1.0, 2.0), 7 / 12, -1 / 12)
        assert abs(r) < 1e-12

    def test_t_zero_row(self):
        assert residual_shear_pair(1.0, start_double(1.0, 2.0), 1.5, -0.5) == pytest.approx(0.0)

    def test_degenerate_denominator_inapplicable(self):
        assert residual_shear_pair(0.5, start_double(1.0, 2.0), 0.3, 0.1) is None

    def test_off_orbit_discrimination(self):
        rng = rng_from_seed(79)
        hits = 0
        for _ in range(200):
            r = residual_shear_pair(1.0, start_double(1.0, 2.0),
                                    rng.uniform(-3, 3), rng.uniform(-3, 3))
            hits += abs(r) > 1e-3
        assert hits > 180

    def test_sweep_on_oracle_rows(self):
        rng = rng_from_seed(83)
        for _ in range(5):
            a = rng.uniform(0.5, 2.0)
            start = start_double(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
            spec = DoubleSL(SigmaKind.PARABOLIC, SigmaKind.PARABOLIC, a)
            sample = sampled_orbit(spec, start, t_grid(-2, 2, 0.1))
            seen = 0
            for row in sample.rows:
                if row.residual_secondary is not None:
                    seen += 1
                    assert abs(row.residual_secondary) < 1e-8
            assert seen > 30


class TestTwoRegimeEquation:
    def test_matches_shear_pair_verdicts(self):
        rng = rng_from_seed(89)
        start = start_double(1.0, 2.0)
        for _ in range(100):
            u, v = rng.uniform(-3, 3), rng.uniform(-3, 3)
            r11 = residual_two_regime(0, 0, 1.0, start, u, v)
            r1 = residual_shear_pair(1.0, start, u, v)
            if r11 is None or r1 is None:
                continue
            assert (abs(r11) < 1e-8) == (abs(r1) < 1e-8)

    def test_mixed_regimes_on_oracle_rows(self):
        spec = DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.HYPERBOLIC, 2.0)
        start = start_double(0.8, 1.7)
        sample = sampled_orbit(spec, start, t_grid(-2, 2, 0.1))
        applicable = [r for r in sample.rows if r.residual_primary is not None]
        assert len(applicable) > 20
        for row in applicable:
            assert abs(row.residual_primary) < 1e-8

    def test_branch_window_rows_are_skipped(self):
        spec = DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.ELLIPTIC, 1.0)
        start = start_double(0.8, 1.7)
        sample = sampled_orbit(spec, start, [1.9])  # beyond pi/2
        row = sample.rows[0]
        if row.u is not None:
            assert row.residual_primary is None

    def test_hyperbolic_argument_domain(self):
        # start at the hyperbolic fixed point: arguments collapse to 0/0
        r = residual_two_regime(1, 1, 1.0, start_double(1.0, 2.0), 1.5, -0.5)
        assert r is None


class TestTrivialMinusEquation:
    def test_derived_row_values(self):
        res = residual_trivial_minus(start_double(1.0, 2.0), 1.25, -0.75)
        assert res.line == pytest.approx(0.0)
        assert res.corrected == pytest.approx(0.0)
        assert res.printed == pytest.approx(1.5)

    def test_unit_y_minus_makes_printed_vanish(self):
        spec = DoubleSL(SigmaKind.PARABOLIC, SigmaKind.TRIVIAL)
        sample = sampled_orbit(spec, start_double(2.0, 1.0), t_grid(-1, 1, 0.25))
        for row in sample.rows:
            if row.u is None:
                continue
            assert abs(row.residual_primary) < 1e-10   # corrected form
            assert abs(row.residual_secondary) < 1e-10  # printed form, y- = 1

    def test_printed_reduces_to_2v_times_one_minus_y(self):
        spec = DoubleSL(SigmaKind.HYPERBOLIC, SigmaKind.TRIVIAL)
        y_minus = 2.5
        sample = sampled_orbit(spec, start_double(1.5, y_minus), t_grid(-1, 1, 0.25))
        for row in sample.rows:
            if row.u is None:
                continue
            assert row.residual_secondary == pytest.approx(
                2 * row.v * (1 - y_minus), abs=1e-9)


class TestDualOrbitEquation:
    def test_t_zero_row_value_is_eps_coordinate(self):
        spec = DualSL(SigmaKind.PARABOLIC, 1.0, 0.0, 0.0)
        assert residual_dual_orbit(spec, start_dual(1.0, 0.6), 1.0, 0.6) \
            == pytest.approx(0.6)
        assert residual_dual_orbit(spec, start_dual(1.0, 0.0), 1.0, 0.0) \
            == pytest.approx(0.0)

    def test_precondition_guard(self):
        spec = DualSL(SigmaKind.HYPERBOLIC, 1.0, 0.0, 0.0)
        # a*u = sigma on the guard locus
        assert residual_dual_orbit(spec, start_dual(1.0, 0.5), 1.0, 0.2) is None

    def test_report_structure(self):
        cases = [(DualSL(SigmaKind.PARABOLIC, 1.0, 0.0, 0.0), start_dual(1.0, 0.0)),
                 (DualSL(SigmaKind.ELLIPTIC, 1.0, 0.5, 0.7), start_dual(1.2, 0.6))]
        verdicts = dual_orbit_report(cases)
        assert len(verdicts) == 2
        for v in verdicts:
            assert v.n_rows == 41
            assert v.n_applicable > 0
            assert v.max_abs_residual is not None
            assert isinstance(v.agrees, bool)

    def test_generic_off_orbit_nonzero(self):
        spec = DualSL(SigmaKind.PARABOLIC, 1.0, 0.0, 0.5)
        rng = rng_from_seed(97)
        hits = 0
        total = 0
        for _ in range(100):
            r = residual_dual_orbit(spec, start_dual(1.0, 0.5),
                                    rng.uniform(-3, 3), rng.uniform(-3, 3))
            if r is None:
                continue
            total += 1
            hits += abs(r) > 1e-3
        assert hits > 0.8 * total


class TestExport:
    def test_csv_header_and_blanks(self):
        spec = DoubleSL(SigmaKind.ELLIPTIC, SigmaKind.PARABOLIC, 1.0)
        sample = sampled_orbit(spec, start_double(1.0, 2.0), t_grid(-2, 2, 0.1))
        text = to_csv(sample)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 42
        non_affine = [ln for ln in lines[1:] if ln.endswith(",,,,")]
        assert non_affine  # pole rows carry empty u,v and residuals

    def test_json_mirrors_rows(self):
        sample = sampled_orbit(SHEAR_PAIR, start_double(1.0, 2.0), [0.0, 0.5])
        obj = to_json_obj(sample)
        assert obj["start"] == [1.0, 2.0]
        assert len(obj["rows"]) == 2
        assert obj["rows"][0]["u"] == pytest.approx(1.5)
        json.dumps(obj)  # serializable


class TestShearPairCheck:
    """``verify.check_orbit_shear_pair`` alone, from the generator states that
    ``run_all`` reaches at that check for seeds 10 and 905.  Both seeds have a
    row near a projective pole, where the polynomial residual is small only
    relative to 1 + u^2 + v^2, so every tally of the check must compare it on
    that scale."""

    STATES = {
        10: {"bit_generator": "PCG64",
             "state": {"state": 247902803917799780294406469919654730884,
                       "inc": 155168332176707774904512248224851075529},
             "has_uint32": 0, "uinteger": 1998485525},
        905: {"bit_generator": "PCG64",
              "state": {"state": 11211235866211695504660782046081738277,
                        "inc": 186851982319507023527387055156090427031},
              "has_uint32": 1, "uinteger": 455994309},
    }

    @pytest.mark.parametrize("seed", sorted(STATES))
    def test_passes_from_stored_state(self, seed):
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.STATES[seed]
        [result] = check_orbit_shear_pair(rng)
        assert result.passed, result.detail
