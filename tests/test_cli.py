import contextlib
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_element_inverse_past_the_squares_overflow(self, capsys):
        # 1e-11 + 1e307 i: the sum of squares overflows, the inverse does not
        code, out, _ = run(["classify-element", "--algebra", "complex",
                            "0.00000000001+1" + "0" * 307 + "i"], capsys)
        assert code == 0
        inverse = out.splitlines()[1]
        assert inverse.startswith("inverse 0-0.") and inverse.endswith("i")
        assert float(inverse[len("inverse 0-"):-1]) == pytest.approx(1e-307, rel=1e-15)

    @pytest.mark.parametrize("algebra, literal, line", [
        ("double", "[0 : -2P+]", "NonAdmissiblePRPlus ratio=[0:1], label PR+[0:1], orbit PRPlus"),
        ("dual", "[0 : -2e]", "NonAdmissiblePR ratio=[0:1], label PR[0:1], orbit PR"),
    ], ids=["double", "dual"])
    def test_zero_ratio_entry_prints_unsigned(self, algebra, literal, line, capsys):
        code, out, _ = run(["classify-point", "--algebra", algebra, literal], capsys)
        assert (code, out) == (0, line + "\n")


HUGE_DUAL = "dual-sl(sigma=K,lambda=1e308,t0=1)"
HUGE_RESCALE = "double-sl(sigma+=K,sigma-=K,a=1e308)"
PAST_FLOAT = "1" + "0" * 400  # a decimal literal past the float range
BIG, TINY = "1" + "0" * 200, "0." + "0" * 199 + "1"  # 1e200 and 1e-200
NEAR_MAX = "17" + "0" * 307  # 1.7e308, within the float range


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
            # a*t overflows to inf, where math.cos raises ValueError
            ["subgroup-eval", "--spec", HUGE_RESCALE, "--t", "10"],
            ["orbit", "--spec", HUGE_RESCALE, "--start", "1,2", "--t", "10"],
            # a step below the float spacing of t never moves it
            ["subgroup-eval", "--spec", shear, "--t", "1e300:1e300:1"],
            # negative seeds, which numpy refuses
            ["verify", "--seed", "-1"],
            ["kernel", "--algebra", "real", "--seed", "-1"],
            # non-finite starts and literals past the float range
            ["orbit", "--spec", "double-sl(sigma+=K,sigma-=A)", "--start", "nan,1",
             "--t", "0:1:0.5"],
            ["orbit", "--spec", "dual-sl(sigma=K,lambda=1)", "--start", "1,nan",
             "--t", "0:1:0.5", "--output", "json"],
            ["classify-point", "--algebra", "dual", f"[{PAST_FLOAT}:1]"],
            ["classify-element", "--algebra", "double", f"({PAST_FLOAT}|1)"],
            ["classify-point", "--algebra", "double", f"[{PAST_FLOAT}P+ : 1]"],
            # ** raises OverflowError where * would give inf
            ["classify-map", "--algebra", "complex", f"[[{BIG},1],[1,1]]"],
            ["classify-map", "--algebra", "double", f"[[{BIG},0],[0,{TINY}]]"],
        ]
        for argv in cases:
            code, _, err = run(argv, capsys)
            assert code == 2, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv

    @pytest.mark.parametrize("argv", [
        # the affine coordinate 1e309 is past the float range
        *(["classify-point", "--algebra", kind, "[1" + "0" * 307 + " : 0.01]"]
          for kind in ("complex", "dual", "double")),
        # the fixed points overflow after the class is known
        ["classify-map", "--algebra", "complex", f"[[{BIG},1],[1,1]]"],
        # abs(a - d) of the complex entries a = 1.7e308i, d = 1.7e308 raises
        # OverflowError, a traceback and exit 1 before it was a DomainError
        ["classify-map", "--algebra", "complex", "--", f"[[{NEAR_MAX}i,1],[0,{NEAR_MAX}]]"],
        # finite matrices whose images of a start near 1e300 have no finite
        # affine coordinate, which the stacked rows left as nan
        ["orbit", "--spec", "dual-gl(sigma=K,lambda=1.5,lambda1=-10)",
         "--start", "1" + "0" * 300 + ",2", "--t", "-5:-4:0.5"],
    ])
    def test_domain_error_prints_nothing_on_stdout(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_dual_residual_past_the_float_range_is_blank(self, capsys):
        # den2 ** 2 of a start near 1e150 raises OverflowError, a traceback
        # and exit 1 before the residual was made None there
        argv = ["orbit", "--spec", "dual-sl(sigma=K,lambda=1,t0=0.5)",
                "--start", "1" + "0" * 150 + ",2", "--t", "0:1:0.5", "--output", "csv"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[4] for row in rows] == ["", "", ""]
        assert rows[0][2] == "1e+150"

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

    def test_negative_env_seed_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("HM_SEED", "-3")
        code, _, err = run(["kernel", "--algebra", "double"], capsys)
        assert code == 2 and err == "error: seed must be non-negative, got -3\n"

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


PARSER_STEP = 8_192  # CPython 3.11's parser doubles its token array at this count


def test_modules_stay_under_the_parser_token_step():
    # the workloads compile the package on every start; a module past the
    # step costs about 0.5 MB of peak RSS
    over = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        with path.open(encoding="utf-8") as fh:
            n = sum(1 for _ in tokenize.generate_tokens(fh.readline))
        if n >= PARSER_STEP:
            over[path.name] = n
    assert not over, (f"{over} tokens, at or past the {PARSER_STEP}-token parser step: "
                      "split the module by layer first (ROADMAP item 10)")


def run_fresh(argvs) -> tuple[list[int], bool]:
    """cli.main on each argv in turn, after build_parser, in one fresh
    interpreter: the exit codes, and whether numpy was imported by the end.
    The test process has numpy loaded already."""
    code = ("import json, sys, hypermoebius.cli as cli; cli.build_parser(); "
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, 'numpy' in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return tuple(json.loads(out.splitlines()[-1]))


def test_scalar_commands_import_no_numpy():
    argvs = [["classify-element", "--algebra", "dual", "2+3e"],
             ["classify-element", "--algebra", "double", "2P+"],
             ["classify-point", "--algebra", "double", "[3 : 2P+]"]]
    argvs += [["classify-map", "--algebra", kind, "[[2,1],[1,1]]"]
              for kind in ("complex", "double", "dual")]
    argvs += [["subgroup-eval", "--spec", spec, "--t", "-1:1:0.5"]
              for spec in ("double-sl(sigma+=K,sigma-=A,a=2)",
                           "double-gl(sigma+=N,lambda+=0.5,sigma-=I,lambda-=1)",
                           "dual-sl(sigma=K,lambda=1,t0=0.3)",
                           "dual-gl(sigma=A,lambda1=0.5,lambda=2)")]
    assert run_fresh(argvs) == ([0] * len(argvs), False)


@pytest.mark.parametrize("argv", [
    ["orbit", "--spec", "double-sl(sigma+=K,sigma-=A,a=2)", "--start", "1,2", "--t", "0:1:0.5"],
    ["kernel", "--algebra", "real"],
    ["subgroup-eval", "--spec", "real-gl(sigma=K,lambda=0.5)", "--t", "1"],
])
def test_stacking_and_real_commands_import_numpy(argv):
    assert run_fresh([argv]) == ([0], True)


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


# Literals for the exit-code property: grammar fragments, most of them finite
# and small, then the non-finite spellings and decimals of 200 to 400 digits,
# on both sides of the float range.
SMALL = st.one_of(st.sampled_from(["0", "1", "-2", "0.5", "-.25", "3."]),
                  st.floats(-5.0, 5.0).map(lambda v: format(v, ".6f")))
ODD = st.one_of(
    st.sampled_from(["", "1e-3", "nan", "inf", "-inf"]),
    st.integers(200, 400).map(lambda n: "9" * n),
    st.integers(200, 400).map(lambda n: "0." + "0" * n + "1"),
)
REAL = st.one_of(SMALL, SMALL, ODD)
NUMBER = st.one_of(
    REAL,
    st.tuples(REAL, st.sampled_from(["+", "-"]), REAL, st.sampled_from("jei")).map("".join),
    st.tuples(REAL, st.sampled_from("jei")).map("".join),
    st.tuples(REAL, REAL).map(lambda pm: f"({pm[0]}|{pm[1]})"),
    st.tuples(REAL, st.sampled_from(["P+", "P-"])).map("".join),
)
ALGEBRA = st.sampled_from(["complex", "double", "dual"])
SIGMA = st.sampled_from("KNAKNAIX")
SPEC = st.one_of(
    st.builds("real-gl(sigma={},lambda={})".format, SIGMA, REAL),
    st.builds("double-sl(sigma+={},sigma-={},a={})".format, SIGMA, SIGMA, REAL),
    st.builds("double-gl(sigma+={},lambda+={},sigma-={},lambda-={},a={})".format,
              SIGMA, REAL, SIGMA, REAL, REAL),
    st.builds("dual-gl(sigma={},lambda={},lambda1={},t0={})".format, SIGMA, REAL, REAL, REAL),
    st.builds("dual-sl(sigma={},lambda={},lambda1={},t0={})".format, SIGMA, REAL, REAL, REAL),
)
# one t, a grid of at most 50 steps, or a grid with an odd or reversed part
T = st.one_of(
    REAL,
    st.builds(lambda lo, n, step: f"{lo!r}:{lo + n * step!r}:{step!r}",
              st.floats(-5.0, 5.0), st.integers(0, 50), st.floats(0.01, 1.0)),
    st.builds("{}:{}:{}".format, REAL, REAL, REAL),
)
SEED = st.one_of(st.integers(-5, 50), st.integers(200, 400).map(lambda n: -(10 ** n)))
# "=" and "--" keep a value that starts with "-" from reading as an option
ARGV = st.one_of(
    st.builds(lambda a, x: ["classify-element", "--algebra", a, "--", x], ALGEBRA, NUMBER),
    st.builds(lambda a, x, y: ["classify-point", "--algebra", a, "--", f"[{x}:{y}]"],
              ALGEBRA, NUMBER, NUMBER),
    st.builds(lambda a, e: ["classify-map", "--algebra", a, "--", "[[{},{}],[{},{}]]".format(*e)],
              ALGEBRA, st.tuples(NUMBER, NUMBER, NUMBER, NUMBER)),
    st.builds(lambda s, t: ["subgroup-eval", "--spec", s, f"--t={t}"], SPEC, T),
    st.builds(lambda s, c1, c2, t, out: ["orbit", "--spec", s, f"--start={c1},{c2}",
                                         f"--t={t}", "--output", out],
              SPEC, REAL, REAL, T, st.sampled_from(["csv", "json", "text"])),
    st.builds(lambda a, s: ["kernel", "--algebra", a, f"--seed={s}"],
              st.sampled_from(["real", "complex", "double", "dual"]), SEED),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(ARGV)
def test_every_argv_exits_with_a_documented_code(argv):
    # no exception may escape main: a traceback is exit 1
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3, 64), argv
