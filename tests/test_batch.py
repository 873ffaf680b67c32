"""The draws of ``verify`` and its checks against the scalar loops they
replaced.

verify draws its cases as float rows from one seeded stream and runs its
sweeps and checks on stacks.  The draw tests demand that the rows stack,
bit for bit, to the objects the scalar samplers draw, with identical
generator use; the check-level oracles demand the report each check gave
as a loop over one sample at a time.  Each stacked function is held to its
scalar path by ``tests/test_stacks.py``.
"""

import numpy as np
import pytest

from hypermoebius import algebra, matrix2, moebius, projline, sampling, subgroups, verify
from hypermoebius.algebra import Hypercomplex, Kind
from hypermoebius.errors import NotInCentralizerError
from hypermoebius.matrix2 import (
    Mat2,
    adj_real,
    det,
    det_dual_formula,
    det_split_double,
    double_from_components,
    dual_from_parts,
    hat,
    mat_exp,
    mat_exp_real,
)
from hypermoebius.moebius import kernel_labels
from hypermoebius.projline import ClassTag
from hypermoebius.subgroups import eval_subgroup, exp_cross_check, generator_of, group_law_terms

KINDS = (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL)
N = 1_537  # not a multiple of verify._CHUNK


def stack(values):
    """Scalar results as a coordinate array: numbers (n, 2), matrices (n, 4, 2)."""
    if isinstance(values[0], Mat2):
        return np.array([[(e.a1, e.a2) for e in m.entries()] for m in values])
    return np.array([(x.a1, x.a2) for x in values])


def same(batched, scalar) -> bool:
    return batched.shape == scalar.shape and np.array_equal(batched, scalar)


# the object samplers the row walks of ``sampling`` replaced, built of ring
# operations: an oracle for the bits of each row, signed zeros included


def ring_unit(kind, rng, lo=0.1, hi=10.0):
    while True:
        x = Hypercomplex(kind, sampling._signed_magnitude(rng, lo, hi),
                         sampling._signed_magnitude(rng, lo, hi))
        if kind is not Kind.DOUBLE or min(map(abs, algebra.decompose(x))) >= lo / 2.0:
            return x


def ring_point(kind, rng):
    while True:
        x, y = sampling.random_number(kind, rng), sampling.random_number(kind, rng)
        if not (x.is_zero(1e-6) and y.is_zero(1e-6)):
            return projline.ProjPoint(kind, x, y)


def ring_family_point(base, rng):
    r = rng.random()
    if r < 0.25:
        return base * sampling._nonzero_real(rng), algebra.zero(base.kind)
    if r < 0.5:
        return algebra.zero(base.kind), base * sampling._nonzero_real(rng)
    return base * sampling._nonzero_real(rng), base * sampling._nonzero_real(rng)


def ring_double_mixed(rng):
    plus, minus = algebra.P_PLUS, algebra.P_MINUS
    unit = lambda: ring_unit(Kind.DOUBLE, rng, 0.2, 3.0)
    which = rng.integers(0, 9)
    if which == 0:
        return ring_point(Kind.DOUBLE, rng)
    if which == 1:
        return projline.point(Kind.DOUBLE, sampling.random_number(Kind.DOUBLE, rng), 1.0)
    if which == 2:
        coords = unit(), algebra.zero(Kind.DOUBLE)
    elif which in (3, 4):
        coords = unit(), (plus if which == 3 else minus) * sampling._nonzero_real(rng)
    elif which == 5:
        x, y = (plus, minus) if rng.random() < 0.5 else (minus, plus)
        coords = x * sampling._nonzero_real(rng), y * sampling._nonzero_real(rng)
    elif which in (6, 7):
        coords = ring_family_point(plus if which == 6 else minus, rng)
    else:
        coords = (plus if rng.random() < 0.5 else minus) * sampling._nonzero_real(rng), unit()
    return projline.ProjPoint(Kind.DOUBLE, *coords)


def ring_dual_mixed(rng):
    eps, unit = algebra.generator(Kind.DUAL), lambda: ring_unit(Kind.DUAL, rng, 0.2, 3.0)
    which = rng.integers(0, 6)
    if which == 0:
        return ring_point(Kind.DUAL, rng)
    if which == 1:
        return projline.point(Kind.DUAL, sampling.random_number(Kind.DUAL, rng), 1.0)
    if which == 2:
        coords = unit(), algebra.zero(Kind.DUAL)
    elif which == 3:
        coords = unit(), eps * sampling._nonzero_real(rng)
    elif which == 4:
        coords = ring_family_point(eps, rng)
    else:
        coords = eps * sampling._nonzero_real(rng), unit()
    return projline.ProjPoint(Kind.DUAL, *coords)


def ring_point_mixed(kind, rng):
    if kind is Kind.DOUBLE:
        p = ring_double_mixed(rng)
    elif kind is Kind.DUAL:
        p = ring_dual_mixed(rng)
    else:
        x = sampling.random_number(kind, rng)
        y = algebra.zero(kind) if rng.random() < 0.2 else sampling.random_number(kind, rng)
        if x.is_zero(1e-6) and y.is_zero(1e-6):
            x = algebra.one(kind)
        p = projline.ProjPoint(kind, x, y)
    if rng.random() < 0.5:
        p = p.scaled(ring_unit(kind, rng, 0.2, 3.0))
    return p


def ring_gl(kind, rng):
    while True:
        m = Mat2(*(sampling.random_number(kind, rng) for _ in range(4)))
        d = det(m)
        if kind is Kind.DOUBLE:
            size = min(map(abs, algebra.decompose(d)))
        else:
            size = abs(d.a1) if kind is Kind.DUAL else d.magnitude()
        if size >= 0.1:
            return m


def ring_sl(kind, rng):
    if kind is Kind.DOUBLE:
        return double_from_components(sampling.random_sl_real(rng), sampling.random_sl_real(rng))
    if kind is Kind.DUAL:
        a1 = sampling.random_sl_real(rng)
        a2 = rng.uniform(-2.0, 2.0, size=(2, 2))
        return dual_from_parts(a1, a2 - (float(np.trace(a1 @ adj_real(a2))) / 2.0) * a1)
    return matrix2.normalize_to_sl(ring_gl(kind, rng))


def admissible_point_row(kind, rng):
    while not projline.admissible(
            projline.from_row(kind, p := sampling.random_point_mixed_row(kind, rng))):
        pass
    return p


def admissible_object(kind, rng):
    while not projline.admissible(p := ring_point_mixed(kind, rng)):
        pass
    return p


ROW_WALKS = {  # each row walk, the sampler built from it and its ring-operation oracle
    "point-mixed": (sampling.random_point_mixed_row, sampling.random_point_mixed,
                    ring_point_mixed),
    "gl": (sampling.random_gl_row, sampling.random_gl, ring_gl),
    "sl": (sampling.random_sl_row, sampling.random_sl, ring_sl),
    "point": (lambda kind, rng: sampling.random_point_row(rng), sampling.random_point,
              ring_point),
    "unit": (lambda kind, rng: sampling.random_unit_row(kind, rng, 0.2, 5.0),
             lambda kind, rng: sampling.random_unit(kind, rng, 0.2, 5.0),
             lambda kind, rng: ring_unit(kind, rng, 0.2, 5.0)),
    # double: about 44% of attempts fall within 0.5 of a zero-divisor line
    "unit-rejection-heavy": (lambda kind, rng: sampling.random_unit_row(kind, rng, 1.0, 3.0),
                             lambda kind, rng: sampling.random_unit(kind, rng, 1.0, 3.0),
                             lambda kind, rng: ring_unit(kind, rng, 1.0, 3.0)),
    # transitivity's draw: mixed points, redrawn while not admissible
    "admissible-point": (admissible_point_row, admissible_object, admissible_object),
}


def flat_coords(x):
    """The coordinate arrays of a stacked number, point or matrix, in row order."""
    if isinstance(x, projline.ProjPoint):
        return flat_coords(x.x) + flat_coords(x.y)
    if isinstance(x, Mat2):
        return [v for e in x.entries() for v in flat_coords(e)]
    return [np.asarray(x.a1), np.asarray(x.a2)]


def next_draws(rng) -> list:
    """An integer, which takes a pending 32-bit half first, then a double."""
    return [int(rng.integers(0, 9)), rng.random()]


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, 905])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("walk", sorted(ROW_WALKS))
    def test_rows_stack_to_object_draws(self, walk, kind, seed):
        """Rows walked from a Draws stack bit for bit to the sampler's objects
        and to the ring-operation oracle's, each drawn from a Generator, and
        all three streams end in the same state."""
        row_walk, sampler, oracle = ROW_WALKS[walk]
        draws = sampling.rng_from_seed(seed)
        gens = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = projline.stack_rows(kind, [row_walk(kind, draws) for _ in range(200)])
        want = [b"".join(v.tobytes() for v in flat_coords(rows))]
        for draw, gen in zip((sampler, oracle), gens):
            objects = projline.stack([draw(kind, gen) for _ in range(200)])
            want.append(b"".join(v.tobytes() for v in flat_coords(objects)))
        assert want[0] == want[1] == want[2]
        assert next_draws(draws) == next_draws(gens[0]) == next_draws(gens[1])

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

    # Draws against numpy's Generator: a numpy release that changes how a
    # Generator turns words into doubles or bounded integers fails these
    # tests instead of silently changing what verify draws

    @pytest.mark.parametrize("seed", [0, 1, 7, 905])
    def test_draws_reproduce_default_rng(self, seed):
        draws, ref = sampling.rng_from_seed(seed), np.random.default_rng(seed)
        for method, args, kwargs in draw_plan(seed):
            got = getattr(draws, method)(*args, **kwargs)
            want = getattr(ref, method)(*args, **kwargs)
            assert np.shape(got) == np.shape(want), (method, args, kwargs)
            assert np.array_equal(got, want), (method, args, kwargs)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sampling_functions_draw_as_default_rng(self, seed):
        got = sampling_draws(sampling.rng_from_seed(seed))
        want = sampling_draws(np.random.default_rng(seed))
        for a, b in zip(got, want, strict=True):
            if isinstance(a, np.ndarray):
                assert same(a, b)
            else:
                assert a == b

    @pytest.mark.parametrize("name", ["real", "complex", "double", "dual"])
    def test_kernel_labels_draw_as_default_rng(self, name, monkeypatch):
        want = kernel_labels(name, 5)
        monkeypatch.setattr(sampling, "rng_from_seed", np.random.default_rng)
        assert kernel_labels(name, 5) == want


def draw_plan(seed: int, n: int = 4_000) -> list:
    """Seeded calls of every Generator method the package uses: scalar and
    bulk, int and float bounds, bulk sizes past the 1,024-word block, and
    integers whose leftover 32-bit half the next integers call takes, with
    the bounds the package uses and three that take numpy's other branches."""
    plan = np.random.default_rng(10_000 + seed)
    calls = []
    for _ in range(n):
        which = int(plan.integers(8))
        # 1 draws nothing; 3 * 2**30 rejects a quarter of its first draws
        bound = int(plan.choice([1, 2, 3, 4, 6, 9, 3 << 30, 1 << 32]))
        if which == 0:
            calls.append(("random", (), {}))
        elif which == 1:
            shape = tuple(plan.integers(1, 5, size=int(plan.integers(1, 4))).tolist())
            calls.append(("random", (shape,), {}))
        elif which == 2:
            calls.append(("uniform", (-2, 2), {}))
        elif which == 3:
            calls.append(("uniform", (0.05, 9.0), {}))
        elif which == 4:
            size = (2, 2) if plan.random() < 0.7 else int(plan.choice([3, 9, 200, 1_023,
                                                                      1_024, 1_025, 2_500]))
            calls.append(("uniform", (-3.0, 3.0), {"size": size}))
        elif which == 5:
            calls.append(("integers", (bound,), {}))
        else:
            calls.append(("integers", (0, bound), {}))
    return calls


def sampling_draws(rng) -> list:
    """What each sampling function draws from rng, in one fixed order."""
    out = []
    for kind in (Kind.DOUBLE, Kind.DUAL):
        out += [sampling.random_point_mixed(kind, rng) for _ in range(300)]
    for kind in KINDS:
        out += [sampling.random_gl(kind, rng) for _ in range(40)]
        out += [sampling.random_sl(kind, rng) for _ in range(40)]
        out.append(sampling.random_units(kind, rng, 200))
    out += list(sampling.random_specs(rng).values())
    out.append(sampling.random_numbers(rng, (300, 2)))
    return out


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
        x = Mat2(*(sampling.random_number(kind, rng) for _ in range(4)))
        y = Mat2(*(sampling.random_number(kind, rng) for _ in range(4)))
        gap = (det(x @ y) - det(x) * det(y)).magnitude()
        scale = 1.0 + (det(x) * det(y)).magnitude()
        tally.add(gap / scale <= 1e-10, gap / scale)
    return tally


def scalar_adjugate(kind, rng, n):
    tally = verify._Tally()
    for _ in range(n):
        x = Mat2(*(sampling.random_number(kind, rng) for _ in range(4)))
        rhs = Mat2(*(algebra.number(kind, v) for v in (1, 0, 0, 1))).scale(det(x))
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


# ---------------------------------------------------------------------------
# the scalar loops of the subgroup checks, as an oracle for the stacked ones


def scalar_exp_law(kind, rng, n):
    residuals = []
    for _ in range(n):
        b = Mat2(*(sampling.random_number(kind, rng) for _ in range(4)))
        s = rng.uniform(-3, 3)
        t = rng.uniform(-3, 3)
        lhs, e_s, e_t = mat_exp(b, s + t), mat_exp(b, s), mat_exp(b, t)
        gap = (lhs - e_s @ e_t).max_entry_magnitude()
        scale = 1.0 + max(e_s.max_entry_magnitude() * e_t.max_entry_magnitude(),
                          lhs.max_entry_magnitude())
        residuals.append(gap / scale)
    return residuals


def scalar_group_law(rng, n_specs, n_pairs):
    residuals = {}
    for family, specs in sampling.random_specs(rng, n_specs).items():
        residuals[family] = []
        for spec in specs:
            for _ in range(n_pairs):
                t1 = rng.uniform(-3, 3)
                t2 = rng.uniform(-3, 3)
                r, m1, m2 = group_law_terms(spec, t1, t2)
                residuals[family].append(r / (1.0 + m1 * m2))
    return residuals


def scalar_exp_cross(spec):
    gen = generator_of(spec)
    exp = mat_exp if isinstance(gen, Mat2) else mat_exp_real
    worst = 0.0
    for t in np.linspace(-2.0, 2.0, 9).tolist():
        worst = max(worst, subgroups._magnitude(exp(gen, t) - eval_subgroup(spec, t)))
    return worst


@pytest.fixture
def recorded(monkeypatch):
    """The residual arrays the checks hand to ``_Tally.add_many``, in order."""
    seen = []
    add_many = verify._Tally.add_many

    def recording(self, ok, residual):
        seen.append(residual.copy())
        add_many(self, ok, residual)

    monkeypatch.setattr(verify._Tally, "add_many", recording)
    return seen


def tally_of(residuals, passes):
    tally = verify._Tally()
    for r in residuals:
        tally.add(passes(r), r)
    return tally


class TestSubgroupChecksMatchScalarLoops:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_exp_law(self, seed, recorded):
        n = 150
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        results = verify.check_exp_law(rng, n=n)
        for kind, result, got in zip(verify.RING_KINDS, results, recorded, strict=True):
            want = scalar_exp_law(kind, ref, n)
            assert same(got, np.array(want))
            tally = tally_of(want, lambda r: r <= 1e-8)
            assert result.passed == tally.full
            assert result.detail == f"{tally.good}/{n} triples, worst rel {verify._fmt(tally.worst)}"
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1])
    def test_group_law(self, seed, recorded):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        results = verify.check_group_law(rng, n_specs=3, n_pairs=40)
        want = scalar_group_law(ref, 3, 40)
        assert same(np.concatenate(recorded), np.concatenate(list(want.values())))
        for result, (family, residuals) in zip(results, want.items(), strict=True):
            tally = tally_of(residuals, lambda r: r < 1e-8)
            assert result.name == f"one-parameter-law/{family}"
            assert result.passed == tally.full
            assert result.detail == (f"{tally.good}/{tally.total} (t1,t2) pairs, "
                                     f"worst rel {verify._fmt(tally.worst)}")
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exp_cross(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        results = verify.check_exp_cross(rng, n_specs=4)
        specs = sampling.random_specs(ref, 4)
        for result, (family, family_specs) in zip(results, specs.items(), strict=True):
            residuals = [scalar_exp_cross(verify._clamp_params(spec)) for spec in family_specs]
            assert [exp_cross_check(verify._clamp_params(spec))
                    for spec in family_specs] == residuals
            tally = tally_of(residuals, lambda r: r < 1e-5)
            assert result.detail == (f"{tally.good}/{len(family_specs)} descriptions, "
                                     f"worst {verify._fmt(tally.worst)}")
        assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# the scalar loops of the square-root, point and map checks, as an oracle
# for the stacked ones: the point, map and root classes one sample at a time


def scalar_square_roots(rng, n):
    def double_case(i: int):
        case = i % 4
        if case == 0:
            return algebra.recompose(rng.uniform(0.05, 9.0), rng.uniform(0.05, 9.0)), 4
        if case == 1:
            x = algebra.recompose(rng.uniform(0.05, 9.0), 0.0) if rng.random() < 0.5 \
                else algebra.recompose(0.0, rng.uniform(0.05, 9.0))
            return x, 2
        if case == 2:
            return algebra.zero(Kind.DOUBLE), 1
        return algebra.recompose(-rng.uniform(0.05, 9.0), rng.uniform(-9.0, 9.0)), 0

    def dual_case(i: int):
        case = i % 3
        if case == 0:
            return Hypercomplex(Kind.DUAL, rng.uniform(0.05, 9.0), rng.uniform(-9.0, 9.0)), 2
        if case == 1:
            return algebra.zero(Kind.DUAL), 1
        x = Hypercomplex(Kind.DUAL, -rng.uniform(0.05, 9.0), rng.uniform(-9.0, 9.0)) \
            if rng.random() < 0.5 else Hypercomplex(Kind.DUAL, 0.0, rng.uniform(0.2, 9.0))
        return x, 0

    out, residuals = [], []
    for name, draw in (("double", double_case), ("dual", dual_case)):
        counts, identities = verify._Tally(), verify._Tally()
        for i in range(n):
            x, expected = draw(i)
            roots = algebra.sqrt_all(x)
            gaps = [(r * r - x).magnitude() for r in roots]
            residuals.append(max(gaps, default=0.0))
            counts.add(len(roots) == expected, max(gaps, default=0.0))
            identities.add(all(g < 1e-9 for g in gaps))
        out.append(verify.CheckResult(
            f"square-roots/{name}", counts.full and identities.full,
            f"{counts.good}/{n} counts, worst s^2-x {verify._fmt(counts.worst)}"))
    return out, residuals


def scalar_double_flags(p, tol):
    xp, xm = algebra.decompose(p.x)
    yp, ym = algebra.decompose(p.y)
    unit = lambda a, b: abs(a) > tol and abs(b) > tol
    x_unit = unit(xp, xm)
    y_unit = unit(yp, ym)
    y_zero = abs(yp) <= tol and abs(ym) <= tol
    plus_zero = abs(xp) <= tol and abs(yp) <= tol
    minus_zero = abs(xm) <= tol and abs(ym) <= tol
    return [
        y_unit,
        x_unit and y_zero,
        x_unit and abs(yp) > tol and abs(ym) <= tol,
        x_unit and abs(ym) > tol and abs(yp) <= tol,
        abs(xp) > tol and abs(xm) <= tol and abs(ym) > tol and abs(yp) <= tol,
        abs(xm) > tol and abs(xp) <= tol and abs(yp) > tol and abs(ym) <= tol,
        minus_zero and not plus_zero,
        plus_zero and not minus_zero,
    ]


def scalar_dual_flags(p, tol):
    x_unit = abs(p.x.a1) > tol
    y_unit = abs(p.y.a1) > tol
    return [
        y_unit,
        x_unit and not y_unit and abs(p.y.a2) <= tol,
        x_unit and not y_unit and abs(p.y.a2) > tol,
        not x_unit and not y_unit,
    ]


def scalar_class_partition(rng, n):
    out = []
    tol = algebra.TAU_ZERO
    for kind, flags_of, tags in ((Kind.DOUBLE, scalar_double_flags, verify._DOUBLE_FLAG_TAGS),
                                 (Kind.DUAL, scalar_dual_flags, verify._DUAL_FLAG_TAGS)):
        tally = verify._Tally()
        for _ in range(n):
            p = sampling.random_point_mixed(kind, rng)
            flags = flags_of(p, tol)
            cls = projline.canonicalize(p, tol)
            tally.add(sum(flags) == 1 and tags[flags.index(True)] is cls.tag)
        out.append(verify.CheckResult(
            f"class-partition/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} points land in exactly one class"))
    return out


def scalar_unit_scaling(rng, n):
    out = []
    for kind in (Kind.DOUBLE, Kind.DUAL):
        tally = verify._Tally()
        for _ in range(n):
            p = sampling.random_point_mixed(kind, rng)
            u = sampling.random_unit(kind, rng, 0.2, 5.0)
            tally.add(projline.same_class(projline.canonicalize(p.scaled(u)),
                                          projline.canonicalize(p)))
        out.append(verify.CheckResult(
            f"unit-scaling-stability/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} scaled points keep their class"))
    return out


def scalar_admissibility_invariance(rng, n):
    out = []
    for kind in (Kind.DOUBLE, Kind.DUAL):
        tally = verify._Tally()
        for _ in range(n):
            p = sampling.random_point_mixed(kind, rng)
            m = moebius.MoebiusMap(sampling.random_gl(kind, rng))
            tally.add(projline.admissible(moebius.apply_point(m, p)) == projline.admissible(p))
        out.append(verify.CheckResult(
            f"admissibility-invariance/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} images preserve admissibility"))
    return out


def scalar_transitivity(rng, n):
    out = []
    for kind in KINDS:
        tally = verify._Tally()
        while tally.total < n:
            p = sampling.random_point_mixed(kind, rng)
            if not projline.admissible(p):
                continue
            m = moebius.MoebiusMap(projline.transporter_to(p))
            base = projline.ProjPoint(kind, algebra.one(kind), algebra.zero(kind))
            tally.add(projline.equivalent(moebius.apply_point(m, base), p))
        out.append(verify.CheckResult(
            f"transitivity-witness/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} transporters land on target"))
    return out


def scalar_projection_equivariance(rng, n):
    out = []
    tally = verify._Tally()
    for i in range(n):
        g = sampling.random_sl(Kind.DOUBLE, rng)
        gp, gm = matrix2.split_double(g)
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        tag, comp = (ClassTag.PR_PLUS, gp) if i % 2 == 0 else (ClassTag.PR_MINUS, gm)
        lhs = moebius.apply_point(moebius.MoebiusMap(g), projline.bijection_f(tag, *v))
        rhs = projline.bijection_f(tag, *projline.real_apply(comp, v))
        tally.add(projline.equivalent(lhs, rhs))
    out.append(verify.CheckResult("sl-projection-equivariance/double", tally.full,
                                  f"{tally.good}/{n} component actions match"))
    tally = verify._Tally()
    for _ in range(n):
        g = sampling.random_sl(Kind.DUAL, rng)
        g1 = matrix2.split_dual(g)[0]
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = moebius.apply_point(moebius.MoebiusMap(g), projline.bijection_f(ClassTag.PR, *v))
        rhs = projline.bijection_f(ClassTag.PR, *projline.real_apply(g1, v))
        tally.add(projline.equivalent(lhs, rhs))
    out.append(verify.CheckResult("sl-projection-equivariance/dual", tally.full,
                                  f"{tally.good}/{n} a1-part actions match"))
    return out


def scalar_action_class_preserving(rng, n):
    out = []
    for kind in (Kind.DOUBLE, Kind.DUAL):
        tally = verify._Tally()
        for _ in range(n):
            m = moebius.MoebiusMap(sampling.random_gl(kind, rng))
            p = sampling.random_point_mixed(kind, rng)
            u = sampling.random_unit(kind, rng, 0.2, 5.0)
            tally.add(projline.same_class(moebius.apply(m, p.scaled(u)), moebius.apply(m, p)))
        out.append(verify.CheckResult(
            f"action-class-preserving/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} unit rescalings act identically"))
    return out


def scalar_composition(rng, n):
    out = []
    for kind in KINDS:
        tally = verify._Tally()
        for _ in range(n):
            m1 = moebius.MoebiusMap(sampling.random_gl(kind, rng))
            m2 = moebius.MoebiusMap(sampling.random_gl(kind, rng))
            p = sampling.random_point_mixed(kind, rng) if kind is not Kind.COMPLEX \
                else sampling.random_point(kind, rng)
            lhs = moebius.apply(moebius.compose(m1, m2), p)
            rhs = moebius.apply(m1, moebius.apply_point(m2, p))
            tally.add(projline.same_class(lhs, rhs))
        out.append(verify.CheckResult(
            f"composition-homomorphism/{kind.name.lower()}", tally.full,
            f"{tally.good}/{n} compositions agree"))
    return out


SCALAR_CHECKS = {
    "check_class_partition": scalar_class_partition,
    "check_unit_scaling": scalar_unit_scaling,
    "check_admissibility_invariance": scalar_admissibility_invariance,
    "check_transitivity": scalar_transitivity,
    "check_projection_equivariance": scalar_projection_equivariance,
    "check_action_class_preserving": scalar_action_class_preserving,
    "check_composition": scalar_composition,
}


class TestPointAndMapChecksMatchScalarLoops:
    """Each stacked check against its scalar loop: the same report lines
    (counts, and the worst residual where the line has one), at two seeds,
    over several stacks and a partial one, and the generator left in the
    same state."""

    N = 5 * verify._CASES + 34

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(SCALAR_CHECKS))
    def test_same_report(self, name, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert getattr(verify, name)(rng, n=self.N) == SCALAR_CHECKS[name](ref, self.N)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1])
    def test_square_roots(self, seed, recorded):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        results = verify.check_square_roots(rng, n=self.N)
        want, residuals = scalar_square_roots(ref, self.N)
        assert results == want
        # the counts tally gets each chunk's worst residuals first, then the
        # identities tally the same array
        assert same(np.concatenate(recorded[0::2]), np.array(residuals))
        assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# the scalar loops of the subgroup and fixed-point checks, as an oracle for
# the stacked ones: each loop body as it was, one matrix at a time


def scalar_exp_split(rng, n):
    tally = verify._Tally()
    for _ in range(n):
        ap = rng.uniform(-2, 2, size=(2, 2))
        am = rng.uniform(-2, 2, size=(2, 2))
        t = rng.uniform(-2, 2)
        ring = mat_exp(double_from_components(ap, am), t)
        split = double_from_components(mat_exp_real(ap, t), mat_exp_real(am, t))
        gap = (ring - split).max_entry_magnitude()
        tally.add(gap <= 1e-8, gap)
    return [verify.CheckResult("exp-component-split/double", tally.full,
                               f"{tally} matrices, worst {verify._fmt(tally.worst)}")]


def scalar_centralizer_grid():
    out = []
    values = [-2.0 + 0.5 * k for k in range(9)]
    for sigma_kind in sampling.NONTRIVIAL:
        s = sigma_kind.sigma
        grid, commute = verify._Tally(), verify._Tally()
        h = subgroups.rotation_real(sigma_kind, 0.7)
        for p in values:
            for q in values:
                for r in values:
                    for w in values:
                        b = np.array([[p, q], [r, w]])
                        structural = (p == w) and (q == s * r)
                        try:
                            subgroups.centralizer_solve(sigma_kind, b)
                            solved = True
                        except NotInCentralizerError:
                            solved = False
                        grid.add(solved == structural)
                        if solved:
                            commute.add(float(np.max(np.abs(b @ h - h @ b))) < 1e-9)
        out.append(verify.CheckResult(
            f"centralizer-grid/{sigma_kind.letter}", grid.full and commute.full,
            f"{grid} grid matrices, "
            f"{commute} successes commute"))
    return out


def scalar_exp_oracle(rng, n_specs):
    out = []
    for family, specs in sampling.random_specs(rng, n_specs).items():
        tally = verify._Tally()
        for spec in specs:
            r = exp_cross_check(verify._clamp_params(spec))
            tally.add(r < 1e-5, r)
        out.append(verify.CheckResult(
            f"exp-oracle/{family}", tally.full,
            f"{tally} descriptions, worst {verify._fmt(tally.worst)}"))
    return out


def scalar_family_transporters(rng, n):
    out = []
    cases = ((Kind.DOUBLE, ClassTag.PR_PLUS), (Kind.DOUBLE, ClassTag.PR_MINUS),
             (Kind.DUAL, ClassTag.PR))
    for kind, tag in cases:
        tally = verify._Tally()
        for i in range(n):
            if i % 10 == 0:
                ratio = projline.canonical_ratio(0.0, sampling._nonzero_real(rng))
            elif i % 10 == 1:
                ratio = projline.canonical_ratio(sampling._nonzero_real(rng), 0.0)
            else:
                ratio = projline.canonical_ratio(rng.uniform(-3, 3), rng.uniform(-3, 3))
            target = projline.CanonicalClass(tag, ratio=ratio)
            m = moebius.MoebiusMap(projline.transporter_nonadmissible(target))
            image = moebius.apply(m, projline.bijection_f(tag, 1.0, 0.0))
            tally.add(projline.same_class(image, target))
        out.append(verify.CheckResult(
            f"family-transporter/{tag.value}", tally.full,
            f"{tally} transporters land on target"))
    return out


def scalar_fixed_point_reapply(rng, n):
    out = []
    for kind in verify.RING_KINDS:
        tally = verify._Tally()
        maps = 0
        while maps < n:
            m = moebius.MoebiusMap(sampling.random_sl(kind, rng))
            if moebius.mob_equal(m, moebius.identity_map(kind)):
                continue
            maps += 1
            fps = moebius.fixed_points(m)
            for cls in fps.points:
                tally.add(projline.same_class(moebius.apply(m, moebius.class_point(kind, cls)), cls))
            for family in fps.families:
                for rep in family.representatives:
                    tally.add(projline.same_class(moebius.apply(m, rep), projline.canonicalize(rep)))
        out.append(verify.CheckResult(
            f"fixed-point-reapply/{kind.name.lower()}", tally.full,
            f"{tally} fixed classes re-apply to themselves"))
    return out


# each check by name: its scalar loop, its size argument, a size for the
# tests that is not a multiple of a stack's, and the battery's size
SCALAR_SUBGROUP_CHECKS = {
    "check_exp_split": (scalar_exp_split, "n", 37, 100),
    "check_exp_cross": (scalar_exp_oracle, "n_specs", 7, 10),
    "check_family_transporters": (scalar_family_transporters, "n", 137, 1_000),
    "check_fixed_point_reapply": (scalar_fixed_point_reapply, "n", 37, 200),
}


class TestSubgroupActionChecksMatchScalarLoops:
    """Each check that stacks its subgroups, transporters or re-applied maps
    against its scalar loop: the same report lines, at two seeds, and the
    generator left in the same state."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(SCALAR_SUBGROUP_CHECKS))
    def test_same_report(self, name, seed):
        scalar, arg, size, _ = SCALAR_SUBGROUP_CHECKS[name]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert getattr(verify, name)(rng, **{arg: size}) == scalar(ref, size)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(SCALAR_SUBGROUP_CHECKS))
    def test_battery_size_on_verify_draws(self, name, seed):
        # 700 doubles first: exp-split's block of 900 then crosses a refill
        scalar, _, _, size = SCALAR_SUBGROUP_CHECKS[name]
        rng, ref = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
        rng.random(700), ref.random(700)
        assert getattr(verify, name)(rng) == scalar(ref, size)
        assert next_draws(rng) == next_draws(ref)

    def test_centralizer_grid(self):
        assert verify.check_centralizer_grid() == scalar_centralizer_grid()
