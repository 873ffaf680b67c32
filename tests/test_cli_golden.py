"""CLI output pinned byte for byte against ``cli_golden.txt``.

Each case runs ``hypermoebius`` in-process and compares its stdout and exit
code with the recorded transcript.  Regenerate the transcript from a trusted
tree with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.txt
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

import pytest

from hypermoebius import cli

GOLDEN = Path(__file__).with_name("cli_golden.txt")
PROMPT = "$ hypermoebius "

_DOUBLE = "double-sl(sigma+=N, sigma-=K, a=1.5)"
_DUAL = "dual-sl(sigma=K, lambda=1, lambda1=0.5, t0=0.3)"

CASES = [
    ["subgroup-eval", "--spec", "real-gl(sigma=K, lambda=0.3)", "--t", "-1:1:0.5"],
    ["subgroup-eval", "--spec", "double-sl(sigma+=K, sigma-=A, a=2)", "--t", "0.5"],
    ["subgroup-eval", "--spec",
     "double-gl(sigma+=A, lambda+=0.5, sigma-=I, lambda-=0.7, a=2)", "--t", "0:1:0.5"],
    ["subgroup-eval", "--spec", "dual-gl(sigma=N, lambda=1.5, lambda1=-0.25, t0=0.4)",
     "--t", "-0.5:0.5:0.5"],
    ["subgroup-eval", "--spec", "dual-sl(sigma=A, lambda=-1, lambda1=0.5, t0=0.3)",
     "--t", "0.75"],
    *(["orbit", "--spec", spec, "--start", start, "--t", "-2:2:0.25", "--output", fmt]
      for spec, start in ((_DOUBLE, "1,2"), (_DUAL, "1.5,0.5"))
      for fmt in ("csv", "json", "text")),
    *(["kernel", "--algebra", name, "--seed", "7"]
      for name in ("real", "complex", "double", "dual")),
    # identity class, one scalar double component, a dual omega class, a
    # loxodromic map, and a double determinant with no square root (exit 2)
    ["classify-map", "--algebra", "complex", "[[2,0],[0,2]]"],
    ["classify-map", "--algebra", "double", "[[1,1+1j],[0,1]]"],
    ["classify-map", "--algebra", "dual", "[[2+1e,1],[1e,0.5]]"],
    ["classify-map", "--algebra", "complex", "[[2+1i,1],[1,1]]"],
    ["classify-map", "--algebra", "double", "[[1,0],[0,-1+2j]]"],
]


def transcript(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return f"{PROMPT}{shlex.join(args)}\n{out.getvalue()}[exit {code}]\n"


def _golden_blocks() -> dict[str, str]:
    text = GOLDEN.read_text(encoding="utf-8")
    blocks = {}
    for chunk in text.split(PROMPT)[1:]:
        command = chunk.partition("\n")[0]
        blocks[command] = PROMPT + chunk
    return blocks


@pytest.mark.parametrize("args", CASES, ids=lambda args: " ".join(args[:3]))
def test_matches_golden(args):
    assert transcript(args) == _golden_blocks()[shlex.join(args)]


if __name__ == "__main__":
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stdout.write("".join(transcript(args) for args in CASES))
