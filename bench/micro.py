"""Warmed per-call timings of single operations, layer by layer.

One row per line of the ROADMAP baseline table.  Inputs are a small fixed
pool drawn from the seed, over the double numbers; each operation is warmed
on the whole pool, then timed in loops long enough to read, and the median
of five loops is reported in microseconds per call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from hypermoebius.algebra import Hypercomplex, Kind
from hypermoebius.matrix2 import det, mat_exp, normalize_to_sl, parse_mat
from hypermoebius.moebius import MoebiusMap, apply, classify_map, fixed_points
from hypermoebius.orbits import sampled_orbit, start_double, t_grid
from hypermoebius.projline import ProjPoint, canonicalize
from hypermoebius.sampling import random_number
from hypermoebius.subgroups import eval_subgroup, parse_spec

from workloads import dec, det_one_coords, mat_literal

POOL = 32
_MIN_LOOP_S = 0.05
_REPEATS = 5


def _loop_s(fn, cases, loops: int) -> float:
    t0 = time.perf_counter()
    for _ in range(loops):
        for case in cases:
            fn(*case)
    return time.perf_counter() - t0


def per_call_us(fn, cases) -> float:
    _loop_s(fn, cases, 1)
    loops = 1
    while (first := _loop_s(fn, cases, loops)) < _MIN_LOOP_S:
        loops *= 2
    runs = [first] + [_loop_s(fn, cases, loops) for _ in range(_REPEATS - 1)]
    return statistics.median(runs) / (loops * len(cases)) * 1e6


def _cases(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    kind = Kind.DOUBLE

    def number():
        return Hypercomplex(kind, *rng.uniform(-2.0, 2.0, size=2))

    mats = [parse_mat(kind, mat_literal(kind, det_one_coords(kind, rng))) for _ in range(POOL)]
    maps = [MoebiusMap(m) for m in mats]
    points = [ProjPoint(kind, number(), number()) for _ in range(POOL)]
    texts = [f"double-sl(sigma+={'KNA'[rng.integers(3)]}, sigma-={'KNA'[rng.integers(3)]}, "
             f"a={dec(rng.uniform(0.5, 1.5))})" for _ in range(POOL)]
    specs = [parse_spec(text) for text in texts]
    ts41 = t_grid(-2.0, 2.0, 0.1)
    starts = [start_double(*rng.uniform(0.5, 3.0, size=2)) for _ in range(POOL)]
    return {
        "algebra.mul": (lambda x, y: x * y, [(number(), number()) for _ in range(POOL)]),
        "matrix2.matmul": (lambda a, b: a @ b, list(zip(mats, mats[1:] + mats[:1]))),
        "matrix2.det": (det, [(m,) for m in mats]),
        "matrix2.normalize_to_sl": (normalize_to_sl, [(m.scale(1.5),) for m in mats]),
        "matrix2.mat_exp": (mat_exp, [(m, 0.7) for m in mats]),
        "projline.canonicalize": (canonicalize, [(p,) for p in points]),
        "moebius.map_init": (MoebiusMap, [(m,) for m in mats]),
        "moebius.apply": (apply, list(zip(maps, points))),
        "moebius.classify_map": (classify_map, [(m,) for m in maps]),
        "moebius.fixed_points": (fixed_points, [(m,) for m in maps]),
        "subgroups.eval_subgroup": (eval_subgroup, [(s, rng.uniform(-2.0, 2.0)) for s in specs]),
        "subgroups.parse_spec": (parse_spec, [(text,) for text in texts]),
        "orbits.sampled_orbit_41": (sampled_orbit, [(s, p, ts41) for s, p in zip(specs, starts)]),
        "sampling.random_number": (random_number, [(kind, rng)] * POOL),
    }


def run_micro(seed: int) -> dict[str, float]:
    """Microseconds per call, keyed ``micro.<module>.<op>_us``."""
    return {f"micro.{name}_us": per_call_us(fn, cases)
            for name, (fn, cases) in _cases(seed).items()}
