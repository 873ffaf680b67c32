"""Command-line front end.

Subcommands: classify-element, classify-point, classify-map, subgroup-eval,
orbit, verify, kernel.  Exit codes: 0 success, 2 domain error (non-unit
inversion, bad literal, ...), 3 verification-suite failure, 64 usage error.
The HM_SEED environment variable supplies the default seed for randomized
sweeps.

No module on this import path loads numpy at import time: each imports it
inside the functions that build or read an array.  classify-element,
classify-point, classify-map and subgroup-eval on a double or dual spec are
plain float work and run without it.  orbit (its stacked evaluation),
verify, kernel and real-gl specs load it on first use.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import algebra, orbits
from .algebra import Kind, TAU_ALG, TAU_ZERO
from .errors import DomainError, FixesEverythingError, HypermoebiusError, InvalidLiteralError
from .matrix2 import Mat2, parse_mat, render_mat
from .moebius import MoebiusMap, classify_map, fixed_points, kernel_labels
from .projline import (
    ClassTag,
    canonicalize,
    orbit_label,
    parse_entry,
    parse_point,
)
from .subgroups import classify_spec, eval_subgroup, parse_spec, render_spec

USAGE_EXIT = 64
DOMAIN_EXIT = 2
VERIFY_FAIL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let grid values like -2:2:0.1 pass as arguments, not options
        import re

        self._negative_number_matcher = re.compile(r"^-\d[\d.:e+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _default_seed() -> int:
    raw = os.environ.get("HM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hypermoebius",
                     description="Moebius geometry over split-complex and dual numbers")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def positive(raw: str) -> float:
        value = float(raw)
        if value <= 0:
            raise argparse.ArgumentTypeError("tolerance must be positive")
        return value

    # each subcommand takes only the tolerances it reads
    def add_tol_zero(p):
        p.add_argument("--tol-zero", type=positive, default=TAU_ZERO,
                       help="structural-zero tolerance (default 1e-12)")

    def add_tol_alg(p):
        p.add_argument("--tol-alg", type=positive, default=TAU_ALG,
                       help="identity tolerance (default 1e-9)")

    p = sub.add_parser("classify-element", help="classify an algebra element")
    p.add_argument("--algebra", required=True, choices=["complex", "double", "dual"])
    p.add_argument("literal", help="element literal, e.g. '2+3j' or '2P+'")
    add_tol_zero(p)
    add_tol_alg(p)

    p = sub.add_parser("classify-point", help="canonical class of a point [x : y]")
    p.add_argument("--algebra", required=True, choices=["complex", "double", "dual"])
    p.add_argument("literal", help="point literal, e.g. '[3 : 2P+]'")
    add_tol_zero(p)

    p = sub.add_parser("classify-map", help="trace-squared class and fixed points")
    p.add_argument("--algebra", required=True, choices=["complex", "double", "dual"])
    p.add_argument("literal", help="matrix literal [[a,b],[c,d]]")
    add_tol_alg(p)

    p = sub.add_parser("subgroup-eval", help="evaluate a one-parameter subgroup")
    p.add_argument("--spec", required=True, help="e.g. 'double-sl(sigma+=K,sigma-=A,a=2)'")
    p.add_argument("--t", required=True, help="a value or a start:end:step grid")

    p = sub.add_parser("orbit", help="sample an orbit and its equation residuals")
    p.add_argument("--spec", required=True)
    p.add_argument("--start", required=True, help="start coordinates, e.g. '1,2'")
    p.add_argument("--t", required=True, help="start:end:step grid (or one value)")
    p.add_argument("--output", choices=["csv", "json", "text"], default="csv")
    p.add_argument("--out-file", default=None)

    p = sub.add_parser("verify", help="run the randomized verification suite")
    p.add_argument("--seed", type=int, default=None,
                   help="suite seed (default: HM_SEED env var, then 0)")

    p = sub.add_parser("kernel", help="scalar matrices acting as the identity map")
    p.add_argument("--algebra", required=True,
                   choices=["real", "complex", "double", "dual"])
    p.add_argument("--seed", type=int, default=None)
    return parser


def _parse_t(arg: str) -> list[float]:
    try:
        values = [float(part) for part in arg.split(":")]
    except ValueError:
        raise InvalidLiteralError(
            f"t must be a real or a start:end:step grid, got {arg!r}") from None
    if len(values) == 3:
        return orbits.t_grid(*values)
    if len(values) != 1:
        raise HypermoebiusError(f"grid must be start:end:step, got {arg!r}")
    if not math.isfinite(values[0]):
        raise DomainError(f"t must be finite, got {arg!r}")
    return values


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _cmd_classify_element(args) -> int:
    kind = Kind.from_name(args.algebra)
    x = parse_entry(kind, args.literal)
    cls = algebra.classify_element(x, args.tol_zero)
    extra = f", components {algebra.render_components(x)}" if kind is Kind.DOUBLE else ""
    print(f"{algebra.render(x)}: {cls}{extra}")
    if cls is algebra.ElementClass.UNIT:
        print(f"inverse {algebra.render(algebra.invert(x, args.tol_zero))}")
    roots = algebra.sqrt_all(x, args.tol_zero, args.tol_alg)
    if roots:
        print("square roots " + ", ".join(algebra.render(r) for r in roots))
    else:
        print("square roots none")
    return 0


def _cmd_classify_point(args) -> int:
    kind = Kind.from_name(args.algebra)
    p = parse_point(kind, args.literal)
    cls = canonicalize(p, args.tol_zero)
    orbit = orbit_label(p, args.tol_zero)
    payload = ""
    if cls.tag is ClassTag.AFFINE:
        payload = f" a={algebra.render(cls.affine)}"
    elif cls.lam is not None:
        payload = f" λ={_fmt(cls.lam)}"
    elif cls.ratio is not None:
        payload = f" ratio=[{_fmt(cls.ratio[0])}:{_fmt(cls.ratio[1])}]"
    print(f"{cls.tag}{payload}, label {cls.label()}, orbit {orbit}")
    return 0


def _cmd_classify_map(args) -> int:
    kind = Kind.from_name(args.algebra)
    mat = parse_mat(kind, args.literal, lambda raw: parse_entry(kind, raw))
    m = MoebiusMap(mat)
    record = classify_map(m)
    # the fixed points first, so that an error leaves stdout empty
    try:
        fps = fixed_points(m, args.tol_alg)
        labels = [c.label() for c in fps.points]
        fixed = ["fixed: " + (", ".join(labels) if labels else "none")]
        fixed += [f"fixed family: {fam.description}" for fam in fps.families]
    except FixesEverythingError:
        fixed = ["fixed: every class (identity map)"]
    print(f"kind: {kind.name.lower()}")
    print(f"tr2: {algebra.render(record.tr2)}")
    scope = {Kind.DOUBLE: " (component pair)", Kind.DUAL: " (a1-projection)"}.get(kind, "")
    if record.is_identity:
        print("class: Identity")
    else:
        print(f"class: {record.label()}{scope}")
    print("\n".join(fixed))
    return 0


def _cmd_subgroup_eval(args) -> int:
    spec = parse_spec(args.spec)
    ts = _parse_t(args.t)
    descriptor = classify_spec(spec)
    print(f"type: {descriptor.label}")
    for t in ts:
        m = eval_subgroup(spec, t)
        if isinstance(m, Mat2):
            body = render_mat(m)
        else:  # a real-gl spec gives a numpy array
            body = f"[[{_fmt(m[0, 0])},{_fmt(m[0, 1])}],[{_fmt(m[1, 0])},{_fmt(m[1, 1])}]]"
        print(f"t={_fmt(t)}: {body}")
    return 0


def _cmd_orbit(args) -> int:
    spec = parse_spec(args.spec)
    starts = {"double": orbits.start_double, "dual": orbits.start_dual}
    make_start = starts.get(spec.family.partition("-")[0])
    if make_start is None:
        raise DomainError(f"orbits are sampled over the double or dual numbers, not {spec.family}")
    try:
        c1, c2 = (float(v) for v in args.start.split(","))
    except ValueError:
        raise HypermoebiusError(f"start must be two comma-separated reals, got {args.start!r}")
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise DomainError(f"start coordinates must be finite, got {args.start!r}")
    sample = orbits.sampled_orbit(spec, make_start(c1, c2), _parse_t(args.t))
    if args.output == "csv":
        text = orbits.to_csv(sample)
    elif args.output == "json":
        text = json.dumps(orbits.to_json_obj(sample), indent=2) + "\n"
    else:
        lines = [f"orbit of {render_spec(spec)} from ({_fmt(c1)}, {_fmt(c2)})"]
        for row in sample.rows:
            uv = "" if row.u is None else f" u={_fmt(row.u)} v={_fmt(row.v)}"
            res = "" if row.residual_primary is None \
                else f" residual={row.residual_primary:.3e}"
            lines.append(f"t={_fmt(row.t)}: {row.cls.label()}{uv}{res}")
        text = "\n".join(lines) + "\n"
    if args.out_file:
        try:
            with open(args.out_file, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise HypermoebiusError(
                f"cannot write {args.out_file}: {exc.strerror or exc}") from None
        print(f"wrote {args.out_file}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # only this command needs the suite and its sampling
    seed = args.seed if args.seed is not None else _default_seed()
    results = verify.run_all(seed)
    sys.stdout.write(verify.format_report(results, seed))
    return 0 if all(r.passed for r in results) else VERIFY_FAIL_EXIT


def _cmd_kernel(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    labels = kernel_labels(args.algebra, seed)
    # fold u and -u into one +- entry
    folded = []
    seen = set()
    for lab in labels:
        base = lab.lstrip("-")
        if base not in seen:
            seen.add(base)
            folded.append(f"±{base}" if f"-{base}" in labels and base in labels else lab)
    print("kernel: {" + ", ".join(folded) + "}"
          + f" ({len(labels)} det-1 scalar matrices fix all 100 probes)")
    return 0


_COMMANDS = {
    "classify-element": _cmd_classify_element,
    "classify-point": _cmd_classify_point,
    "classify-map": _cmd_classify_map,
    "subgroup-eval": _cmd_subgroup_eval,
    "orbit": _cmd_orbit,
    "verify": _cmd_verify,
    "kernel": _cmd_kernel,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except HypermoebiusError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
