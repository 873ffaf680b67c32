"""The three workloads: seeded inputs, the timed operation and its gate.

verify    ``verify.run_all(seed)``, the full battery, per operation.  Most of
          its time goes to scalar sweeps in ``algebra``, ``matrix2`` and
          ``sampling``.
orbit     ``parse_spec`` -> ``sampled_orbit`` on the 401-point grid
          ``t_grid(-2, 2, 0.01)`` -> ``to_csv``, across the double-sl
          (two-regime and trivial-minus), dual-sl, double-gl and dual-gl
          families.  Its time goes to ``subgroups``, ``projline`` and
          ``orbits``; it runs no ring sweeps.
classify  ``parse_mat`` -> ``MoebiusMap`` -> ``classify_map`` ->
          ``fixed_points`` on complex, double and dual matrix literals.
          Every other map has determinant one; the rest have unconstrained
          entries away from singular, so the general-linear error path is
          taken beside the det-one path.  Its time goes to ``moebius`` and
          ``matrix2.normalize_to_sl``: few calls per input, unlike verify.

Each workload is one caller in a closed loop: the next operation starts when
the previous one has returned.  Every input is made from the workload seed,
with numpy generators of the benchmark's own, never with
``hypermoebius.sampling``, which is itself a measured layer.  Gates run outside the timed region and return the
names of the checks an output missed.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from hypermoebius.algebra import Kind
from hypermoebius.errors import HypermoebiusError
from hypermoebius.matrix2 import parse_mat
from hypermoebius.moebius import MoebiusMap, apply, class_point, classify_map, fixed_points
from hypermoebius.orbits import sampled_orbit, start_double, start_dual, t_grid, to_csv
from hypermoebius.projline import canonicalize, same_class
from hypermoebius.subgroups import DoubleSL, SigmaKind, exp_cross_check, parse_spec
from hypermoebius.verify import run_all


class Workload(NamedTuple):
    inputs: Callable        # seed -> endless iterator of cases
    op: Callable            # case -> output (the timed part)
    gate: Callable          # (case, output) -> list of missed check names
    items: Callable         # output -> units of work done
    outcomes: Callable      # output -> gated outcomes in it: check results, an orbit, a map
    may_refuse: Callable    # case -> True when a typed error is a correct answer


def dec(v: float) -> str:
    """Plain decimal notation: the literal grammar has no exponent form."""
    return np.format_float_positional(float(v), unique=True, trim="-")


# ---------------------------------------------------------------------------
# verify


def _verify_inputs(seed: int):
    # every battery is run_all(seed): the same work in each iteration
    return itertools.repeat(seed)


def _verify_op(battery_seed: int):
    # looked up at call time, so the tracer's wrapped binding is the one called
    return run_all(battery_seed)


def verify_gate(battery_seed: int, results) -> list[str]:
    return [r.name for r in results if not r.passed]


# ---------------------------------------------------------------------------
# orbit

_REGIMES = ("K", "N", "A")
ORBIT_GRID = (-2.0, 2.0, 0.01)


def _orbit_case(rng: np.random.Generator, family: int, ts: list[float]):
    """One subgroup literal of the given family (0-4) and a start point.

    Parameter ranges follow ``verify._random_specs`` with every parameter
    in [-1.5, 1.5]; starts lie in [0.5, 3]^2 like the verify orbit checks.
    """
    def regime() -> str:
        return _REGIMES[int(rng.integers(3))]

    def uniform(lo: float, hi: float) -> str:
        return dec(rng.uniform(lo, hi))

    def signed() -> str:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return dec(sign * rng.uniform(0.5, 1.5))

    if family == 0:
        text = f"double-sl(sigma+={regime()}, sigma-={regime()}, a={uniform(0.5, 1.5)})"
    elif family == 1:
        text = f"double-sl(sigma+={regime()}, sigma-=I)"
    elif family == 2:
        text = (f"double-gl(sigma+={regime()}, lambda+={uniform(-1, 1)}, "
                f"sigma-={regime()}, lambda-={uniform(-1, 1)}, a={uniform(0.5, 1.5)})")
    elif family == 3:
        text = (f"dual-gl(sigma={regime()}, lambda={signed()}, "
                f"lambda1={uniform(-1, 1)}, t0={uniform(-1, 1)})")
    else:
        text = (f"dual-sl(sigma={regime()}, lambda={signed()}, "
                f"lambda1={uniform(-1, 1)}, t0={uniform(-1, 1)})")
    return text, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), ts


def _orbit_inputs(seed: int):
    rng = np.random.default_rng(seed)
    ts = t_grid(*ORBIT_GRID)
    # families in turn, so every run holds the same mix
    for i in itertools.count():
        yield _orbit_case(rng, i % 5, ts)


def _orbit_op(case):
    text, c1, c2, ts = case
    spec = parse_spec(text)
    start = start_double(c1, c2) if text.startswith("double") else start_dual(c1, c2)
    sample = sampled_orbit(spec, start, ts)
    return sample, to_csv(sample)


def orbit_gate(case, out) -> list[str]:
    """Exp-oracle agreement and the asserted orbit equations.

    The dual displayed form stays reported, not asserted, as in the README;
    rows outside a branch window carry no residual and are not failures.
    """
    sample, csv_text = out
    spec = sample.spec
    misses = []
    if not exp_cross_check(spec) < 1e-5:
        misses.append("exp-oracle")
    if csv_text.count("\n") != len(sample.rows) + 1:
        misses.append("csv-rows")
    if isinstance(spec, DoubleSL) and spec.sigma_minus is SigmaKind.TRIVIAL:
        if any(row.u is not None
               and not abs(row.residual_primary) < 1e-10 * (1.0 + row.u ** 2 + row.v ** 2)
               for row in sample.rows):
            misses.append("trivial-minus-residual")
    elif isinstance(spec, DoubleSL):
        if any(row.residual_primary is not None and not abs(row.residual_primary) < 1e-8
               for row in sample.rows):
            misses.append("two-regime-residual")
    return misses


# ---------------------------------------------------------------------------
# classify

_KINDS = (Kind.COMPLEX, Kind.DOUBLE, Kind.DUAL)


def _det(m: np.ndarray):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _real_det_one(rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        d = _det(m)
        if d >= 0.1:
            return m / math.sqrt(d)


def det_one_coords(kind: Kind, rng: np.random.Generator) -> np.ndarray:
    """Entry coordinates (a1, a2), shape (2, 2, 2), of a det-one matrix."""
    if kind is Kind.DOUBLE:
        plus, minus = _real_det_one(rng), _real_det_one(rng)
        return np.stack(((plus + minus) / 2.0, (plus - minus) / 2.0), axis=-1)
    if kind is Kind.DUAL:
        a1 = _real_det_one(rng)
        a2 = rng.uniform(-2.0, 2.0, size=(2, 2))
        # det(A1 + eps A2) = det A1 + eps tr(A1 adj A2); tr(A1 adj A1) = 2,
        # so removing half the drift along A1 zeroes the eps part
        drift = a1[0, 0] * a2[1, 1] - a1[0, 1] * a2[1, 0] - a1[1, 0] * a2[0, 1] + a1[1, 1] * a2[0, 0]
        return np.stack((a1, a2 - (drift / 2.0) * a1), axis=-1)
    while True:
        z = rng.uniform(-2.0, 2.0, size=(2, 2)) + 1j * rng.uniform(-2.0, 2.0, size=(2, 2))
        d = _det(z)
        if abs(d) >= 0.1:
            z = z / np.sqrt(d)
            return np.stack((z.real, z.imag), axis=-1)


def _general_coords(kind: Kind, rng: np.random.Generator) -> np.ndarray:
    """Unconstrained entries in [-2, 2], redrawn while the determinant is
    near singular, as ``sampling.random_gl`` draws them: its idempotent
    components (double), real part (dual) or modulus (complex) stay >= 0.1.
    Nearer to singular, fixed points of dual maps can miss the 1e-9
    re-apply tolerance of the gate.
    """
    while True:
        coords = rng.uniform(-2.0, 2.0, size=(2, 2, 2))
        a1, a2 = coords[..., 0], coords[..., 1]
        if kind is Kind.DOUBLE:
            size = min(abs(_det(a1 + a2)), abs(_det(a1 - a2)))
        elif kind is Kind.DUAL:
            size = abs(_det(a1))
        else:
            size = abs(_det(a1 + 1j * a2))
        if size >= 0.1:
            return coords


def mat_literal(kind: Kind, coords: np.ndarray) -> str:
    def entry(a1: float, a2: float) -> str:
        sign = "-" if a2 < 0 else "+"
        return f"{dec(a1)}{sign}{dec(abs(a2))}{kind.symbol}"

    rows = (f"[{entry(*coords[i, 0])},{entry(*coords[i, 1])}]" for i in (0, 1))
    return f"[{','.join(rows)}]"


def _classify_inputs(seed: int):
    rng = np.random.default_rng(seed)
    det_one = True
    while True:
        kind = _KINDS[int(rng.integers(3))]
        coords = det_one_coords(kind, rng) if det_one else _general_coords(kind, rng)
        yield kind, mat_literal(kind, coords), det_one
        det_one = not det_one


def _classify_op(case):
    kind, text, _ = case
    m = MoebiusMap(parse_mat(kind, text))
    return m, classify_map(m), fixed_points(m)


def classify_gate(case, out) -> list[str]:
    """Every fixed class and family representative re-applies to itself."""
    kind = case[0]
    m, _, fps = out
    misses = []
    if not all(same_class(apply(m, class_point(kind, cls)), cls) for cls in fps.points):
        misses.append("fixed-point-reapply")
    if not all(same_class(apply(m, rep), canonicalize(rep))
               for family in fps.families for rep in family.representatives):
        misses.append("family-reapply")
    return misses


WORKLOADS = {
    "verify": Workload(_verify_inputs, _verify_op, verify_gate, len, len, lambda case: False),
    "orbit": Workload(_orbit_inputs, _orbit_op, orbit_gate, lambda out: len(out[0].rows),
                      lambda out: 1, lambda case: False),
    # general-linear maps outside the det-one half may be refused with a
    # typed error; any error on a det-one map is a wrong answer
    "classify": Workload(_classify_inputs, _classify_op, classify_gate, lambda out: 1,
                         lambda out: 1, lambda case: not case[2]),
}


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class Tally:
    attempted: int = 0                # gated outcomes, plus operations that raised
    failed: int = 0                   # raised, or missed the gate
    wrong: int = 0                    # failed, less typed refusals that are correct answers
    busy_s: float = 0.0               # timed time of every attempt, failed ones too
    items: int = 0                    # units of work in completed operations
    # seconds per completed operation, packed so that the harness adds little
    # to the peak memory measured
    durations: array = field(default_factory=lambda: array("d"))
    failures: Counter = field(default_factory=Counter)     # by exception type or gate check

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted


def drive(workload: Workload, seed: int, seconds: float | None = None,
          count: int | None = None, untimed=nullcontext) -> Tally:
    """Run operations until ``seconds`` have passed (at least one) or
    ``count`` operations were attempted.  ``untimed`` wraps input generation
    and gates, which stay outside the timed region."""
    tally = Tally()
    cases = workload.inputs(seed)
    clock = time.perf_counter
    ops = 0
    start = clock()
    while ops < count if count is not None else ops == 0 or clock() - start < seconds:
        with untimed():
            case = next(cases)
        ops += 1
        t0 = clock()
        try:
            out = workload.op(case)
        except Exception as exc:  # counted by type; the loop must go on
            tally.busy_s += clock() - t0
            tally.attempted += 1
            tally.failed += 1
            tally.failures[type(exc).__name__] += 1
            if not (isinstance(exc, HypermoebiusError) and workload.may_refuse(case)):
                tally.wrong += 1
            continue
        dt = clock() - t0
        tally.busy_s += dt
        tally.durations.append(dt)
        tally.items += workload.items(out)
        outcomes = workload.outcomes(out)
        tally.attempted += outcomes
        with untimed():
            try:
                misses = workload.gate(case, out)
            except Exception as exc:  # a gate that cannot re-check is a miss
                misses = [f"raised-{type(exc).__name__}"]
        if misses:
            missed = min(len(set(misses)), outcomes)
            tally.failed += missed
            tally.wrong += missed
            tally.failures.update(f"gate:{name}" for name in set(misses))
    return tally
