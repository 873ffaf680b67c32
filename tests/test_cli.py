import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypermoebius import cli, verify


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommands:
    def test_point_example(self, capsys):
        code, out, _ = run(["classify-point", "--algebra", "double", "[3 : 2P+]"], capsys)
        assert code == 0
        assert "OmegaPlus" in out
        assert "1.5ω2" in out
        assert "ProjectiveLine" in out

    def test_element_unit_shows_inverse(self, capsys):
        code, out, _ = run(["classify-element", "--algebra", "dual", "2+3e"], capsys)
        assert code == 0
        assert "Unit" in out
        assert "0.5-0.75e" in out

    def test_element_zero_divisor(self, capsys):
        code, out, _ = run(["classify-element", "--algebra", "double", "P+"], capsys)
        assert code == 0
        assert "ZeroDivisorPlus" in out

    def test_map_classification(self, capsys):
        code, out, _ = run(["classify-map", "--algebra", "complex", "[[1,1],[0,1]]"], capsys)
        assert code == 0
        assert "Parabolic" in out
        assert "∞" in out


HUGE_DUAL = "dual-sl(sigma=K,lambda=1e308,t0=1)"


class TestSubgroupCommands:
    def test_eval_matrix(self, capsys):
        code, out, _ = run(["subgroup-eval", "--spec", "real-gl(sigma=N,lambda=0)",
                            "--t", "1.5"], capsys)
        assert code == 0
        assert "[[1,0],[1.5,1]]" in out

    def test_orbit_csv(self, capsys):
        code, out, _ = run(["orbit", "--spec", "double-sl(sigma+=N,sigma-=N,a=1)",
                            "--start", "1,2", "--t", "-2:2:0.1", "--output", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,class,u,v,residual_primary,residual_secondary"
        assert len(lines) == 42
        for line in lines[1:]:
            fields = line.split(",")
            if fields[4]:
                assert abs(float(fields[4])) < 1e-8

    def test_orbit_json(self, capsys):
        code, out, _ = run(["orbit", "--spec", "dual-sl(sigma=N,lambda=1)",
                            "--start", "1,0", "--t", "0:1:0.5", "--output", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 3

    def test_orbit_nonfinite_residual_is_blank(self, capsys):
        # at t = 1 the dual residual overflows to -inf
        argv = ["orbit", "--spec", HUGE_DUAL, "--start", "1,2", "--t", "0:1:0.5"]
        code, out, _ = run(argv + ["--output", "json"], capsys)
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        rows = json.loads(out, parse_constant=refuse)["rows"]
        assert [row["residual_primary"] is None for row in rows] == [False, False, True]
        code, out, _ = run(argv + ["--output", "csv"], capsys)
        assert code == 0
        assert out.strip().split("\n")[3].split(",")[4] == ""
        code, out, _ = run(argv + ["--output", "text"], capsys)
        assert code == 0
        assert "inf" not in out and out.count("residual=") == 2

    def test_orbit_near_attracting_fixed_point(self, capsys):
        # at t = 20 cosh^2 - sinh^2 cancels in floats; the orbit still
        # reaches the attracting fixed point [1 : 1] of both components
        code, out, _ = run(["orbit", "--spec", "double-sl(sigma+=A,sigma-=A,a=1)",
                            "--start", "1,2", "--t", "20", "--output", "json"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["u"] == pytest.approx(1.0, abs=1e-12)
        assert row["v"] == pytest.approx(0.0, abs=1e-12)

    def test_orbit_out_file(self, capsys, tmp_path):
        target = tmp_path / "orbit.csv"
        code, out, _ = run(["orbit", "--spec", "double-sl(sigma+=N,sigma-=N,a=1)",
                            "--start", "1,2", "--t", "0:1:0.5",
                            "--output", "csv", "--out-file", str(target)], capsys)
        assert code == 0
        assert target.read_text().startswith("t,class")


class TestKernelCommand:
    def test_double(self, capsys):
        code, out, _ = run(["kernel", "--algebra", "double"], capsys)
        assert code == 0
        assert "±I" in out and "±jI" in out

    def test_real(self, capsys):
        code, out, _ = run(["kernel", "--algebra", "real"], capsys)
        assert code == 0
        assert "±I" in out and "jI" not in out


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        assert run(["--bogus"], capsys)[0] == 64
        assert run(["orbit", "--spec", "x"], capsys)[0] == 64  # missing required flags

    def test_domain_error_is_2(self, capsys, tmp_path):
        shear = "double-sl(sigma+=N,sigma-=N,a=1)"
        cases = [
            ["classify-element", "--algebra", "dual", "zzz"],
            ["subgroup-eval", "--spec", "real-gl(sigma=K, lambda=abc)", "--t", "1"],
            ["subgroup-eval", "--spec", "double-sl(sigma+=K, sigma-=A, a=nan)", "--t", "1"],
            ["subgroup-eval", "--spec", "dual-sl(sigma=K, lambda=inf)", "--t", "1"],
            ["subgroup-eval", "--spec", shear, "--t", "abc"],
            ["subgroup-eval", "--spec", shear, "--t", "0:inf:1"],
            ["subgroup-eval", "--spec", shear, "--t", "0:1:nan"],
            ["subgroup-eval", "--spec", shear, "--t", "0:1e6:1e-9"],
            ["subgroup-eval", "--spec", "double-gl(sigma+=A,lambda+=800,sigma-=K,lambda-=0)",
             "--t", "1"],
            ["orbit", "--spec", "dual-sl(sigma=A,lambda=1,t0=1)", "--start", "1,2", "--t", "800"],
            ["orbit", "--spec", shear, "--start", "1,2", "--t", "0:1e6:1e-9"],
            ["orbit", "--spec", shear, "--start", "1,2", "--t", "2:-2:0.1"],
            ["orbit", "--spec", "real-gl(sigma=K, lambda=0.5)", "--start", "1,2", "--t", "0"],
            ["orbit", "--spec", shear, "--start", "1,2", "--t", "0",
             "--out-file", str(tmp_path / "missing" / "orbit.csv")],
            # entries overflow to inf without an OverflowError
            ["subgroup-eval", "--spec", HUGE_DUAL, "--t", "3"],
            ["orbit", "--spec", HUGE_DUAL, "--start", "1,2", "--t", "0:3:1"],
        ]
        for argv in cases:
            code, _, err = run(argv, capsys)
            assert code == 2, argv
            assert err.startswith("error: "), argv

    def test_nonpositive_tolerance_is_usage_error(self, capsys):
        code, _, _ = run(["classify-element", "--algebra", "dual",
                          "--tol-zero", "-1", "1+2e"], capsys)
        assert code == 64

    def test_point_takes_no_identity_tolerance(self, capsys):
        code, _, err = run(["classify-point", "--algebra", "double",
                            "--tol-alg", "1e-6", "[3 : 2P+]"], capsys)
        assert code == 64
        assert "--tol-alg" in err

    def test_map_takes_no_zero_tolerance(self, capsys):
        code, _, err = run(["classify-map", "--algebra", "complex",
                            "--tol-zero", "1e-6", "[[1,1],[0,1]]"], capsys)
        assert code == 64
        assert "--tol-zero" in err

    def test_non_invertible_literal_ok(self, capsys):
        # classification itself succeeds for non-units
        code, out, _ = run(["classify-element", "--algebra", "dual", "3e"], capsys)
        assert code == 0
        assert "Nilpotent" in out

    def test_verify_failure_is_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "run_all",
            lambda seed: [verify.CheckResult("stub", False, "forced")])
        assert run(["verify", "--seed", "1"], capsys)[0] == 3

    def test_hm_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HM_SEED", "123")
        monkeypatch.setattr(
            verify, "run_all",
            lambda seed: [verify.CheckResult("stub", True, f"seed={seed}")])
        code, out, _ = run(["verify"], capsys)
        assert code == 0
        assert "seed=123" in out
        assert "seed 123" in out


def test_start_imports_no_verify_suite():
    code = "import sys, hypermoebius.cli; print(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "'hypermoebius.verify'" not in out and "'hypermoebius.sampling'" not in out


# the seed-5 report byte for byte, as the scalar sweeps printed it.  Generated
# with Python 3.11.7 and numpy 2.4.6 on x86_64: the last digits of residuals
# near 1e-15 may differ under another numpy or BLAS build.
VERIFY_GOLDEN = Path(__file__).with_name("verify_golden_seed5.txt")


class TestVerifyDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        code1, out1, _ = run(["verify", "--seed", "5"], capsys)
        code2, out2, _ = run(["verify", "--seed", "5"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1 == VERIFY_GOLDEN.read_text(encoding="utf-8")
