"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_smoke.py -q

Runs each workload at a tiny size and checks that every metric named in
BENCHMARK.json is printed with its unit, that the gates count deliberately
wrong answers, and that the benchmark refuses to run without the sources.
Takes about a minute, most of it the traced run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import workloads  # noqa: E402
from hypermoebius.algebra import Kind  # noqa: E402
from hypermoebius.orbits import OrbitSample  # noqa: E402
from hypermoebius.verify import CheckResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    metrics = _result(done)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    info = json.loads(done.stdout.strip().splitlines()[-2])["info"]
    assert {"fail_share", "setup_s", "peak_rss_mb"} <= set(info["metrics"])
    assert all(m["unit"] for m in info["metrics"].values())
    assert info["src_lines"] > 0 and info["environment"]["python"]


def test_trace_prints_every_per_layer_metric():
    metrics = _result(_run("--workload", "orbit", "--seed", "3", "--seconds", "1",
                           "--trace", "1"))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_trace_counts_repeat():
    def counts():
        tracer = run.full_tracer()
        with tracer:
            for name, count in (("orbit", 3), ("classify", 50)):
                workloads.drive(workloads.WORKLOADS[name], 5, count=count,
                                untimed=tracer.paused)
        return {key: stat[0] for key, stat in tracer.stats.items()}

    first = counts()
    assert first[("moebius", "mob_equal")] > 0
    assert first[("algebra", "Hypercomplex.__mul__")] > 0
    assert counts() == first


def test_classify_gate_counts_a_perturbed_fixed_point():
    def perturbed(case):
        m, cls, fps = workloads.WORKLOADS["classify"].op(case)
        moved = tuple(dataclasses.replace(p, affine=p.affine + 1e-3) if p.affine else p
                      for p in fps.points)
        return m, cls, dataclasses.replace(fps, points=moved)

    wrong = workloads.WORKLOADS["classify"]._replace(
        inputs=lambda seed: (c for c in workloads.WORKLOADS["classify"].inputs(seed)
                             if c[0] is Kind.COMPLEX),
        op=perturbed)
    tally = workloads.drive(wrong, 1, count=20)
    assert tally.failures["gate:fixed-point-reapply"] == tally.wrong == 20
    honest = workloads.drive(workloads.WORKLOADS["classify"], 1, count=200)
    assert honest.wrong == 0 and honest.failures["NotNormalizableError"] > 0


def test_orbit_gate_counts_a_perturbed_residual():
    rng = workloads.np.random.default_rng(0)
    case = ("double-sl(sigma+=K, sigma-=A, a=1.2)", *rng.uniform(0.5, 3.0, size=2),
            workloads.t_grid(*workloads.ORBIT_GRID))
    sample, csv_text = workloads.WORKLOADS["orbit"].op(case)
    assert workloads.orbit_gate(case, (sample, csv_text)) == []
    rows = list(sample.rows)
    i = next(i for i, row in enumerate(rows) if row.residual_primary is not None)
    rows[i] = dataclasses.replace(rows[i], residual_primary=1e-6)
    bad = OrbitSample(sample.spec, sample.start, tuple(rows))
    assert workloads.orbit_gate(case, (bad, csv_text)) == ["two-regime-residual"]


def test_verify_counts_each_failed_check():
    results = [CheckResult("a", True, ""), CheckResult("b", False, ""), CheckResult("c", True, "")]
    stub = workloads.WORKLOADS["verify"]._replace(op=lambda seed: results)
    tally = workloads.drive(stub, 7, count=2)
    assert (tally.attempted, tally.failed, tally.wrong) == (6, 2, 2)
    assert tally.failures == {"gate:b": 2}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
