"""Benchmark of hypermoebius: three workloads, timed end to end and per layer.

    python3 bench/run.py --workload verify|orbit|classify --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``
as it stands, so there is nothing to build.

``--trace 0`` runs the chosen workload untraced for S seconds, one caller in
a closed loop, and reports its end-to-end metrics:

    setup_s      median time, over several fresh interpreters, to import
                 ``hypermoebius.cli`` and call ``build_parser()``
    peak_rss_mb  peak resident memory of the workload process
    done_share   gated outcomes that passed, over those attempted
                 (1 - fail_share): check results (verify), orbits, maps
    items_per_s  units of work per second of timed time: check results
                 (verify), orbit rows sampled and exported (orbit), maps
                 through classify_map and fixed_points (classify)

Every workload reports the same metrics.  The line before the result gives
them under the workload's own names with the per-operation percentiles:
verify_s (median battery), orbit_rows_per_s, orbit_p50_ms, orbit_p90_ms,
classify_maps_per_s, classify_p50_us, classify_p99_us, and fail_share,
with failures by exception type or gate check, the environment and the
``src/`` line count.  For one caller in a closed loop the median time per
operation carries the same information as items_per_s, so only the rate is
in the result.

``--trace 1`` reports per-layer metrics whatever the workload: after the
microbenchmarks of ``micro.py``, a fixed amount of each workload (one
battery, 100 orbits, 1000 maps) runs untraced, then again with the tracer
of ``tracer.py`` installed.  Counts repeat exactly for a seed.  The
per-function table goes to ``bench/out/trace-seed<N>.json``.

The last line of standard output is the JSON result.  Its ``failed`` counts
wrong answers: gate misses and errors, less the typed errors that refuse a
general-linear map outside the documented domain, which only fail_share
counts.  The exit code is 2, with no result, when the package sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

WORKLOAD_NAMES = ("verify", "orbit", "classify")
LAYERS = ("algebra", "matrix2", "projline", "moebius", "subgroups", "orbits", "sampling")
TRACE_COUNTS = {"verify": 1, "orbit": 100, "classify": 1000}
# metric -> (workload, layer, function); all but the dunder are also wrapped
# at their own module, so these count every call, not only cross-module ones
HOT_PATHS = {
    "verify.algebra.mul.calls": ("verify", "algebra", "Hypercomplex.__mul__"),
    "verify.matrix2.det.calls": ("verify", "matrix2", "det"),
    "verify.sampling.random_number.calls": ("verify", "sampling", "random_number"),
    "orbit.subgroups.eval_subgroup.calls": ("orbit", "subgroups", "eval_subgroup"),
    "orbit.projline.canonicalize.calls": ("orbit", "projline", "canonicalize"),
    "classify.matrix2.normalize_to_sl.calls": ("classify", "matrix2", "normalize_to_sl"),
    "classify.moebius.mob_equal.calls": ("classify", "moebius", "mob_equal"),
}

SETUP_RUNS = 11
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
              "import hypermoebius.cli as cli; cli.build_parser(); "
              "print(time.perf_counter() - t0)")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpus": os.cpu_count()}


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def setup_seconds() -> float:
    cmd = [sys.executable, "-c", SETUP_CODE, SRC]

    def once() -> float:
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        return float(done.stdout)

    once()  # the first import may compile bytecode
    return statistics.median(once() for _ in range(SETUP_RUNS))


def end_to_end(workload: str, seed: int, seconds: float):
    from workloads import WORKLOADS, drive

    setup_s = setup_seconds()
    tally = drive(WORKLOADS[workload], seed, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    durations = sorted(tally.durations) or [tally.busy_s / tally.attempted]
    p50_s = statistics.median(durations)
    per_s = tally.items / tally.busy_s
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "done_share": metric(1.0 - tally.fail_share, "ratio"),
        "items_per_s": metric(per_s, "1/s"),
    }
    named = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "fail_share": metric(tally.fail_share, "ratio"),
    }
    if workload == "verify":
        named["verify_s"] = metric(p50_s, "s")
    elif workload == "orbit":
        named["orbit_rows_per_s"] = metric(per_s, "rows/s")
        named["orbit_p50_ms"] = metric(p50_s * 1e3, "ms")
        named["orbit_p90_ms"] = metric(percentile(durations, 0.90) * 1e3, "ms")
    else:
        named["classify_maps_per_s"] = metric(per_s, "maps/s")
        named["classify_p50_us"] = metric(p50_s * 1e6, "us")
        named["classify_p99_us"] = metric(percentile(durations, 0.99) * 1e6, "us")
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "samples": len(tally.durations), "metrics": named,
            "failures_by_type": dict(tally.failures)}
    return tally.attempted, tally.wrong, metrics, info


def full_tracer():
    """A tracer over every package module and the workloads' own bindings."""
    import workloads
    from hypermoebius import (algebra, cli, matrix2, moebius, orbits, projline,
                              sampling, subgroups, verify)
    from tracer import Tracer

    modules = {m.__name__.rpartition(".")[2]: m for m in
               (algebra, matrix2, projline, moebius, subgroups, orbits, sampling, verify, cli,
                workloads)}
    tracer = Tracer()
    tracer.wrap_bindings(modules.values())
    tracer.wrap_dunders((algebra.Hypercomplex, matrix2.Mat2))
    for _, layer, name in HOT_PATHS.values():
        if not name.startswith("Hypercomplex."):
            tracer.wrap_home(modules[layer], [name])
    return tracer


def per_layer(seed: int):
    import workloads
    from hypermoebius import verify
    from micro import run_micro
    from tracer import Tracer

    metrics = {name: metric(us, "us") for name, us in run_micro(seed).items()}
    tables = {}
    attempted = wrong = 0
    for name, count in TRACE_COUNTS.items():
        workload = workloads.WORKLOADS[name]
        # untraced but for the check functions of verify: 34 wrapped calls
        with Tracer() as checks:
            if name == "verify":
                checks.wrap_home(verify, [n for n in vars(verify) if n.startswith("check_")])
            base = workloads.drive(workload, seed, count=count)
        tracer = full_tracer()
        with tracer:
            traced = workloads.drive(workload, seed, count=count, untimed=tracer.paused)
        attempted += base.attempted + traced.attempted
        wrong += base.wrong + traced.wrong
        layers = tracer.by_layer()
        for layer in LAYERS:
            calls, self_s = layers.get(layer, (0, 0.0))
            metrics[f"{name}.{layer}.calls"] = metric(calls, "count")
            metrics[f"{name}.{layer}.self_s"] = metric(self_s, "s")
        for key, (wl, layer, fn) in HOT_PATHS.items():
            if wl == name:
                metrics[key] = metric(tracer.calls(layer, fn), "count")
        if name == "verify":
            for (_, fn), (_, total_s, _) in checks.stats.items():
                metrics[f"verify.check.{fn.removeprefix('check_')}_s"] = metric(total_s, "s")
        metrics[f"{name}.trace_overhead_s"] = metric(traced.busy_s - base.busy_s, "s")
        tables[name] = {"untraced_s": base.busy_s, "traced_s": traced.busy_s,
                        "functions": tracer.table()}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "environment": environment(), "src_lines": src_lines(),
                   "metrics": metrics, "workloads": tables}, fh, indent=1)
    return attempted, wrong, metrics, {"trace_file": os.path.relpath(path, ROOT)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypermoebius", "__init__.py")):
        print(f"bench: no hypermoebius package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.trace:
        attempted, wrong, metrics, info = per_layer(args.seed)
    else:
        attempted, wrong, metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    info.update(environment=environment(), src_lines=src_lines())
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": wrong,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
