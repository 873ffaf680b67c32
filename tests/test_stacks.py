"""Every function that takes a stack, held to its scalar path row by row.

A stack is a number, matrix, point or map whose coordinates are float arrays
of one shape, a float array of t, or an (n, 2, 2) array of real matrices.
Each case of ``CASES`` draws rows, mixed with fixed special rows, and
evaluates them once as one stack and once row by row, in stages: each
argument built, then prepared, then the function called.  Where rows raise
at a stage, the stack raises there the typed error of the first such row
(math's OverflowError or ValueError, in the subgroup functions: one that
such a row raises); that row (for math's errors, each such row) is dropped
and the rest stacked again.  The rows left agree bit for bit, signed zeros
exactly and any NaN as one value, and every coordinate of their stacked
result is an ndarray of the stack's shape.  The functions that promise no
numpy warning on non-finite rows run with warnings as errors; the rest
under ``np.errstate(all="ignore")``, as numpy warns on ``inf - inf`` where
float arithmetic is silent.
"""

import contextlib
import math
import operator
import struct
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermoebius import algebra, matrix2, moebius, projline, subgroups
from hypermoebius.algebra import P_MINUS, P_PLUS, Hypercomplex, Kind
from hypermoebius.errors import DomainError, HypermoebiusError
from hypermoebius.matrix2 import Mat2
from hypermoebius.moebius import MoebiusMap
from hypermoebius.projline import ClassStack, ClassTag, OrbitLabel, ProjPoint, canonicalize
from hypermoebius.subgroups import DoubleGL, DoubleSL, DualGL, DualSL, RealGL, SigmaKind

KINDS = (Kind.COMPLEX, Kind.DUAL, Kind.DOUBLE)
REAL = ("real",)  # the one kind of the cases of real matrices and floats

# zeros, values at and around the structural-zero tolerance, values whose
# squares overflow, and non-finite values
SPECIAL = [0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12, 1.0, -1.5, 1e300, -1e300,
           math.inf, -math.inf, math.nan]
# mat_exp halves a norm of 1e300 about 1,000 times, and a stack squares all
# its matrices that often: ±40 takes the halving loop past the fixed rows'
# seven halvings at a thousandth of the cost
MODERATE = [v for v in SPECIAL if abs(v) != 1e300] + [40.0, -40.0]

# the argument letters of a case: "k" is the case's kind and "S" a spec of
# its family; of the others, a lower-case letter is stacked, one value per
# row, and an upper-case one is one value for every row
# number, point, matrix, float, real 2x2, and a spec of the case's regimes by
# its real parameters in literal order (a stack of them is a list of specs)
WIDTH = {"n": 2, "p": 4, "m": 8, "t": 1, "r": 4, "s": 3}
# each family with each of its regime combinations, by SigmaKind letter;
# a trivial regime makes some entries zero for every t
REGIMES = ([f"real-gl({s})" for s in "KNAI"] + [f"dual-gl({s})" for s in "KNAI"]
           + [f"dual-sl({s})" for s in "KNA"]
           + [f"double-{g}({s},{r})" for g in ("gl", "sl") for s in "KNAI" for r in "KNAI"])


def draw_rows(rng, kind, letter, special, n):
    """n values of the argument letter, as the rows of an (n, width) array.
    Each coordinate is one of special or uniform on (-2, 2), at even odds;
    a pair of a double number is its coordinates or, at even odds, its
    idempotent components."""
    width = WIDTH[letter.lower()]
    x = np.where(rng.random((n, width)) < 0.5, rng.choice(special, (n, width)),
                 rng.uniform(-2.0, 2.0, (n, width)))
    if kind is Kind.DOUBLE and letter.lower() in "npm":
        p, m = x[:, 0::2], x[:, 1::2]
        with np.errstate(all="ignore"):  # inf - inf
            a1, a2 = (p + m) / 2.0, (p - m) / 2.0  # as algebra.recompose
        flag = rng.random(p.shape) < 0.5
        x[:, 0::2], x[:, 1::2] = np.where(flag, a1, p), np.where(flag, a2, m)
    return x


def draw_spec(regimes, rng):
    """A subgroup spec of the family and regimes named, e.g. "double-gl(K,I)",
    with parameters from rng."""
    family, letters = regimes.rstrip(")").split("(")
    s = [SigmaKind.from_letter(v) for v in letters.split(",")]
    param = lambda: float(rng.uniform(-2.0, 2.0))
    strength = lambda: float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))  # nonzero
    return {"real-gl": lambda: RealGL(s[0], param()),
            "double-gl": lambda: DoubleGL(s[0], param(), s[1], param(), param()),
            "double-sl": lambda: DoubleSL(s[0], s[1], param()),
            "dual-gl": lambda: DualGL(s[0], param(), strength(), param()),
            "dual-sl": lambda: DualSL(s[0], strength(), param(), param())}[family]()


def spec_of(regimes, x):
    """The spec of the family and regimes named, e.g. "double-gl(K,I)",
    with its real parameters, in literal order, from the floats x."""
    family, letters = regimes.rstrip(")").split("(")
    sigmas, reals = (SigmaKind.from_letter(v) for v in letters.split(",")), iter(x)
    cls, grammar = subgroups.GRAMMAR[family]
    return cls(**{attr: next(sigmas) if attr.startswith("sigma") else next(reals)
                  for _, attr, _ in grammar})


def paired(rng, kind, p, q):
    """The rows of the second point of a pair: each row q's, p's, or p's
    rescaled by a unit (where that is a point), one in three each."""
    u = Hypercomplex(kind, 0.75, 0.25)
    with np.errstate(all="ignore"):
        rows = [(b, a, outcome(lambda: flat(projline.from_row(kind, a).scaled(u))))
                for a, b in zip(p.tolist(), q.tolist())]
    return np.array([r[1] if isinstance(r[k], Raised) else r[k]
                     for r, k in zip(rows, rng.integers(3, size=len(p)).tolist())])


def build(kind, letter, floats):
    """The argument from floats: one row's list, or a stack's (n, width) array."""
    if letter == "s":
        return spec_of(kind, floats) if isinstance(floats, list) else \
            [spec_of(kind, row) for row in floats.tolist()]
    cols = floats if isinstance(floats, list) else floats.T
    if letter.lower() == "t":
        return cols[0]
    if letter.lower() == "r":
        return np.reshape(floats, np.shape(floats)[:-1] + (2, 2))
    return projline.from_row(kind, cols)


def flat(x):
    """The floats of a number, point or matrix, in ``from_row`` order."""
    if isinstance(x, ProjPoint):
        return flat(x.x) + flat(x.y)
    if isinstance(x, Mat2):
        return [v for e in x.entries() for v in flat(e)]
    return [x.a1, x.a2]


# ---------------------------------------------------------------------------
# fixed rows: each a list with the floats of every stacked argument

E = algebra.generator(Kind.DUAL)
TAG_POINTS = {  # a point of every class tag of the kind
    Kind.DOUBLE: [(2.0, 1.0), (1.0, 0.0), (1.0, P_PLUS * 2), (1.0, P_MINUS * 2),
                  (P_PLUS, P_MINUS), (P_MINUS, P_PLUS), (P_PLUS, P_PLUS * 2),
                  (P_MINUS, P_MINUS * -2)],
    Kind.DUAL: [(2.0, 1.0), (1.0, 0.0), (1.0, E * 3), (E, E * -2)],
    Kind.COMPLEX: [(2.0, 1.0), (1.0, 0.0)],
}
INF, NAN, R, H = math.inf, math.nan, algebra.recompose, Hypercomplex
REFUSED = {  # points canonicalize refuses with DomainError: NaN idempotent
    # components or a1-parts, an omega parameter of 0 or inf, an infinite ratio
    Kind.DOUBLE: [(R(1.0, NAN), R(1.0, 0.0)), (R(NAN, 1.0), R(0.0, 1.0)),
                  (R(2.0, 1.0), R(NAN, 1e-13)), (H(Kind.DOUBLE, INF, 0.0), P_PLUS),
                  (1.0, R(0.0, INF))],
    Kind.DUAL: [(INF, E), (1.0, H(Kind.DUAL, 0.0, INF)), (0.0, H(Kind.DUAL, 0.0, INF)),
                (0.0, H(Kind.DUAL, NAN, INF)), (H(Kind.DUAL, NAN, 1.0), 0.0)],
    Kind.COMPLEX: [],
}
NON_UNITS = {  # one number of each non-unit class of the kind
    Kind.COMPLEX: [[0.0, -0.0]],
    Kind.DOUBLE: [[0.0, 0.0], [1.5, 1.5], [1.5, -1.5]],
    Kind.DUAL: [[0.0, 1e-13], [0.0, 2.0]],
}
ROOT_VALUES = [0.0, -0.0, 1e-13, -1e-13, 2e-12, -2e-12, 0.01, 0.3, 1.0, -1.0, 2.25, -4.0]
# at t = 0.4 * 2**k a matrix of max entry magnitude 1 takes k halvings
HALVING_TS = [0.4 * 2.0 ** k for k in range(8)]
# at a largest entry of 2, the centralizer test's tolerance
CENTRALIZER_TOL = algebra.TAU_ALG * 3.0
UNIT, ZERO, INFINITE = ([1.0, -0.5, 0.25, 0.0, -0.75, 0.5, -1.0, 0.125], [0.0] * 8,
                        [0.0, 1.0, math.inf, 0.0, 0.5, 0.0, 1.0, 0.0])


def points(kind):
    """A point of every class tag of the kind, and the refused points."""
    return [flat(projline.point(kind, x, y)) for x, y in TAG_POINTS[kind] + REFUSED[kind]]


FIXED = {
    "points": lambda kind: [[p] for p in points(kind)],
    # each with the next ("paired" makes a third of them each with itself or rescaled)
    "pairs": lambda kind: [[p, q] for p, q in zip(points(kind),
                                                  points(kind)[1:] + points(kind)[:1])],
    # the coordinates x and y of the tag and refused points and of two vanishing points
    "vanishing": lambda kind: [[r[:2], r[2:]] for r in points(kind)
                               + [[1e-13, -0.0, 0.0, 1e-12], [0.0, 0.0, -1e-12, 0.0]]],
    "non-units": lambda kind: [[v] for v in NON_UNITS[kind] + [[2.0, 1.0]]],
    # a matrix [[x, 0], [0, 1]] of determinant x for each non-unit x, and I
    "singular": lambda kind: [[flat(matrix2.identity(kind))]] + [
        [v + [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]] for v in NON_UNITS[kind]],
    # every pair of ROOT_VALUES, as the components of a double number
    "root grid": lambda kind: [[flat(algebra.recompose(p, m)) if kind is Kind.DOUBLE
                                else [p, m]] for p in ROOT_VALUES for m in ROOT_VALUES],
    "halvings": lambda kind: ([[UNIT, [t]] for t in HALVING_TS]
                              + [[ZERO, [1.0]], [INFINITE, [1.0]]]),
    "halving ts": lambda kind: [[[t]] for t in HALVING_TS],
    "exp matrices": lambda kind: [[UNIT], [ZERO], [INFINITE]],
    "real halvings": lambda kind: ([[UNIT[::2], [t]] for t in HALVING_TS]
                                   + [[ZERO[:4], [1.0]], [INFINITE[::2], [1.0]]]),
    # [[2, s c], [c, 2]] for c = 1.5 and the regime's s, with d or b moved off
    # the structure just inside and just past the tolerance
    "near centralizer": lambda kind: [
        [[2.0, (kind.sigma or 0) * 1.5 + db, 1.5, 2.0 - dd]]
        for move in (0.0, 0.999 * CENTRALIZER_TOL, 1.001 * CENTRALIZER_TOL)
        for db, dd in ((move, 0.0), (0.0, move), (-move, move))],
    # first entries on both sides of the transporter's TAU_ZERO branch
    "ratios": lambda kind: [[[lam], [mu]] for lam in (0.0, -0.0, 1e-12, -1e-12, 1.1e-12, 0.6)
                            for mu in (1.0, -0.8)],
}


# ---------------------------------------------------------------------------
# the cases


def scalar_mat_exp_real(b, t):
    """The one-matrix real exponential as it was written before it stacked; a
    norm that halving cannot bring down (inf) gets no halvings."""
    m = np.asarray(b, dtype=float) * float(t)
    k, norm = 0, float(np.max(np.abs(m)))
    while 0.5 < norm < math.inf:
        norm /= 2.0
        k += 1
    m = m * 0.5 ** k
    term = acc = np.eye(2)
    for n in range(1, 21):
        term = term @ m / n
        acc = acc + term
    for _ in range(k):
        acc = acc @ acc
    return acc


class Rows(list):
    """A stacked result given as the list of its rows."""


def sqrt_rows(x):
    """``sqrt_all_many`` of the stack x as each number's list of kept roots."""
    roots, kept = algebra.sqrt_all_many(x)
    assert roots.a1.shape == roots.a2.shape == kept.shape == kept.shape[:1] + x.a1.shape
    return Rows([[Hypercomplex(x.kind, r1, r2) for r1, r2, k in zip(*col) if k]
                 for col in zip(roots.a1.T.tolist(), roots.a2.T.tolist(), kept.T.tolist())])


FAMILY = {ClassTag.PR_PLUS: OrbitLabel.PR_PLUS, ClassTag.PR_MINUS: OrbitLabel.PR_MINUS,
          ClassTag.PR: OrbitLabel.PR}


def admissible_checked(p):
    """admissible(p), after checking it and orbit_label against the class
    canonicalize gives, where it gives one."""
    answer = projline.admissible(p)
    try:
        tag = canonicalize(p).tag
    except HypermoebiusError:
        return answer
    assert answer == (tag not in projline.PR_TAGS)
    assert projline.orbit_label(p) is FAMILY.get(tag, OrbitLabel.PROJECTIVE_LINE)
    return answer


def evaluated(spec, t):
    """eval_subgroup(spec, t) at a float t, or where that raises DomainError, what
    the family gives unchecked, as a stack does: math's error or a non-finite entry."""
    try:
        return subgroups.eval_subgroup(spec, t)
    except HypermoebiusError:
        m = spec.eval(t)  # raises math's error, or:
        assert not all(map(math.isfinite, np.ravel(m) if isinstance(m, np.ndarray) else flat(m)))
        return m


class Case(NamedTuple):
    args: str  # one letter per argument (see WIDTH)
    fn: Callable  # the function, called on the stack
    kinds: tuple = KINDS
    scalar: Callable | None = None  # the function on one row, where it is not fn
    prepare: tuple = ()  # a stage for each leading argument, or None
    fixed: str | None = None  # the FIXED rows mixed into half of the examples
    quiet: bool = False  # promises no numpy warning on non-finite rows
    special: list = SPECIAL


def with_reals(x, r):
    return x + r, r + x, x - r, r - x, x * r, r * x


def scaled(m, n, t, one_n, one_m, one_t):
    return m.scale(n), m.scale(t), m.scale(one_n), m.scale(one_t), one_m.scale(n), one_m.scale(t)


def real_exps(b, t):
    """mat_exp_real(b, t) and the reference: the stacked result is held to both."""
    return matrix2.mat_exp_real(b, t), scalar_mat_exp_real(b, t)


def real_exp_twice(b, t):
    return (matrix2.mat_exp_real(b, t),) * 2


CASES = {}
for name, op in [("add", operator.add), ("sub", operator.sub), ("mul", operator.mul),
                 ("truediv", operator.truediv)]:
    CASES[name] = Case("nn", op)
    CASES[f"{name}(number,stack)"] = Case("Nn", op)
    CASES[f"{name}(stack,number)"] = Case("nN", op)
CASES.update({
    "with a real": Case("nT", with_reals),
    "number with a float array": Case("Nt", with_reals),
    "neg": Case("n", operator.neg),
    "conjugate": Case("n", Hypercomplex.conjugate),
    "magnitude": Case("n", Hypercomplex.magnitude),
    "invert": Case("n", algebra.invert, fixed="non-units", quiet=True),
    "decompose": Case("n", algebra.decompose, kinds=(Kind.DOUBLE,)),
    "recompose": Case("tt", algebra.recompose, kinds=REAL),
    "sqrt_all_many": Case("n", sqrt_rows, kinds=(Kind.DOUBLE, Kind.DUAL),
                          scalar=algebra.sqrt_all, fixed="root grid"),
    "matrix add": Case("mm", operator.add),
    "matrix sub": Case("mm", operator.sub),
    "matmul": Case("mm", operator.matmul),
    "scale": Case("mntNMT", scaled),
    "max_entry_magnitude": Case("m", Mat2.max_entry_magnitude),
    "det": Case("m", matrix2.det),
    "hat": Case("m", matrix2.hat),
    "trace": Case("m", matrix2.trace),
    "mat_exp": Case("mt", matrix2.mat_exp, fixed="halvings", special=MODERATE),
    "mat_exp(matrix,stack of t)": Case("Mt", matrix2.mat_exp, fixed="halving ts", special=MODERATE),
    "mat_exp(stack,t)": Case("mT", matrix2.mat_exp, fixed="exp matrices", special=MODERATE),
    "mat_exp_real": Case("rt", real_exp_twice, kinds=REAL, scalar=real_exps,
                         fixed="real halvings", special=MODERATE),
    "mat_exp_real(matrix,stack of t)": Case("Rt", real_exp_twice, kinds=REAL, scalar=real_exps,
                                            fixed="halving ts", special=MODERATE),
    "det_split_double": Case("rr", matrix2.det_split_double, kinds=REAL),
    "det_dual_formula": Case("rr", matrix2.det_dual_formula, kinds=REAL),
    "adj_real": Case("r", matrix2.adj_real, kinds=REAL),
    "double_from_components": Case("rr", lambda p, m: matrix2.stacked_mat(R(p, m)), kinds=REAL,
                                   scalar=matrix2.double_from_components),
    "dual_from_parts": Case("rr", lambda p, m: matrix2.stacked_mat(Hypercomplex(Kind.DUAL, p, m)),
                            kinds=REAL, scalar=matrix2.dual_from_parts),
    "ProjPoint": Case("knn", ProjPoint, fixed="vanishing"),
    "image": Case("mp", projline.image),
    "image(matrix,stack)": Case("Mp", projline.image),
    "scaled": Case("pn", ProjPoint.scaled),
    "scaled(stack,number)": Case("pN", ProjPoint.scaled),
    "canonicalize": Case("p", canonicalize, fixed="points", quiet=True),
    "same_class": Case("pp", projline.same_class, prepare=(canonicalize, canonicalize),
                       fixed="pairs", quiet=True),
    # equivalent canonicalizes p, then q: stages that raise its errors in that order
    "equivalent": Case("pp", projline.equivalent, prepare=(lambda p: (canonicalize(p), p)[1],) * 2,
                       fixed="pairs", quiet=True),
    "admissible": Case("p", projline.admissible, scalar=admissible_checked,
                       fixed="points", quiet=True),
    "transporter_to": Case("p", projline.transporter_to, fixed="points"),
    "MoebiusMap": Case("m", MoebiusMap, fixed="singular"),
    "apply_point": Case("mp", moebius.apply_point, prepare=(MoebiusMap,)),
    "compose": Case("mm", moebius.compose, prepare=(MoebiusMap, MoebiusMap)),
    "rotation": Case("ktT", subgroups.rotation, kinds=tuple(SigmaKind)),
    "rotation_real": Case("ktT", subgroups.rotation_real, kinds=tuple(SigmaKind)),
    "eval_subgroup": Case("St", subgroups.eval_subgroup, kinds=REGIMES, scalar=evaluated,
                          quiet=True),
    "in_centralizer": Case("kr", subgroups.in_centralizer, kinds=tuple(SigmaKind),
                           fixed="near centralizer"),
    "exp_cross_check(specs)": Case("s", subgroups.exp_cross_check, kinds=REGIMES,
                                   special=MODERATE),
    "transporter_nonadmissible": Case(
        "ktt", lambda tag, lam, mu: projline.transporter_nonadmissible(
            projline.CanonicalClass(tag, ratio=(lam, mu))),
        kinds=(ClassTag.PR_PLUS, ClassTag.PR_MINUS, ClassTag.PR), fixed="ratios"),
})


# ---------------------------------------------------------------------------
# the harness


class Raised(NamedTuple):
    type: type
    text: str


def outcome(fn, *args):
    """fn(*args), or the typed error, or math's error, that it raises."""
    try:
        return fn(*args)
    except HypermoebiusError as exc:
        return Raised(type(exc), str(exc))
    except (OverflowError, ValueError) as exc:  # math's, in the subgroup functions
        return Raised(type(exc), "")


def stages(case, kind, ones, floats, fn):
    """The outcome of each stage of the case: each argument built (stacked
    argument j from floats[j]: one row's list, or the stack's array), then
    prepared, in argument order, then fn called."""
    args, j = [], 0
    for a in case.args:
        if a.islower() and a != "k":
            args.append(outcome(build, kind, a, floats[j]))
            j += 1
            yield args[-1]
        else:
            args.append(kind if a == "k" else ones[a] if a == "S" else build(kind, a, ones[a]))
    for i, prepare in enumerate(case.prepare):
        if prepare is not None:
            args[i] = outcome(prepare, args[i])
            yield args[i]
    yield outcome(fn, *args)


def settle(outcomes):
    """The index and outcome of the first stage that raises, or of the last."""
    for stage, got in enumerate(outcomes):
        if isinstance(got, Raised):
            break
    return stage, got


def pack(v):
    """The exact bits of a float, any NaN as one value."""
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def parts(x):
    """The parts of a matrix, point, map or class stack."""
    if isinstance(x, Mat2):
        return x.entries()
    if isinstance(x, ProjPoint):
        return x.x, x.y
    if isinstance(x, MoebiusMap):
        return (x.rep,)
    return x.ok, x.affine


def bits(x, i=None):
    """A result as nested tuples of exact float bits; of a stacked result, row i's."""
    if isinstance(x, Hypercomplex):
        return x.kind, bits(x.a1, i), bits(x.a2, i)
    if isinstance(x, (Mat2, ProjPoint, MoebiusMap)):
        return bits(parts(x), i)
    if isinstance(x, (ClassStack, Rows)):
        return bits(x[i])
    if isinstance(x, projline.CanonicalClass):
        return x.tag, x.label(), bits(x.affine), bits(x.lam), bits(x.ratio)
    if isinstance(x, (tuple, list)):
        return tuple(bits(v, i) for v in x)
    if x is None:
        return None
    if i is not None:
        x = x[i]
    if isinstance(x, (np.ndarray, np.generic)):
        return bits(x.tolist())
    return x if isinstance(x, bool) else pack(x)


def assert_stacked(x, n):
    """Every coordinate of the stacked result x is an ndarray of n rows, a
    number's of shape (n,)."""
    if isinstance(x, Hypercomplex):
        assert type(x.a1) is type(x.a2) is np.ndarray and x.a1.shape == x.a2.shape == (n,)
    elif isinstance(x, (Mat2, ProjPoint, MoebiusMap, ClassStack, tuple)):
        for part in x if isinstance(x, tuple) else parts(x):
            assert_stacked(part, n)
    elif isinstance(x, Rows):
        assert len(x) == n
    else:
        assert type(x) is np.ndarray and x.shape[:1] == (n,)


@contextlib.contextmanager
def warning_rule(quiet):
    """Warnings as errors for a function that promises none; numpy's off for the rest."""
    with warnings.catch_warnings(), np.errstate(**({} if quiet else {"all": "ignore"})):
        if quiet:
            warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("name, kind", [(name, kind) for name, case in CASES.items()
                                        for kind in case.kinds],
                         ids=lambda v: getattr(v, "name", v))
@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 2**64 - 1), size=st.integers(1, 8), fixed=st.booleans())
def test_stack_matches_rows(name, kind, seed, size, fixed):
    """size drawn rows, and the case's fixed rows when fixed is set, in an
    order drawn from seed, as one stack and row by row."""
    case = CASES[name]
    rng = np.random.default_rng(seed)
    columns = [draw_rows(rng, kind, a, case.special, size)
               for a in case.args if a.islower() and a != "k"]
    if fixed and case.fixed:
        extra = FIXED[case.fixed](kind)
        columns = [np.concatenate((c, np.array([row[j] for row in extra])))
                   for j, c in enumerate(columns)]
    if case.args == "pp":
        columns[1] = paired(rng, kind, *columns)
    order = rng.permutation(len(columns[0]))
    columns = [c[order] for c in columns]
    ones = {a: draw_spec(kind, rng) if a == "S"
            else draw_rows(rng, kind, a, case.special, 1)[0].tolist()
            for a in case.args if a.isupper()}

    with warning_rule(case.quiet):
        want = [settle(stages(case, kind, ones, [c[i].tolist() for c in columns],
                              case.scalar or case.fn)) for i in range(len(order))]
        keep = list(range(len(order)))
        while keep:
            stage, got = settle(stages(case, kind, ones, [c[keep] for c in columns], case.fn))
            refused = [i for i in keep if isinstance(want[i][1], Raised)]
            if not refused:
                assert not isinstance(got, Raised), got
                assert_stacked(got, len(keep))
                assert [bits(got, r) for r in range(len(keep))] == [bits(want[i][1]) for i in keep]
                return
            first = min(want[i][0] for i in refused)
            refused = [i for i in refused if want[i][0] == first]
            assert stage == first, (got, want[refused[0]])
            if issubclass(want[refused[0]][1].type, HypermoebiusError):
                assert got == want[refused[0]][1]  # the error of the first refused row
                refused = refused[:1]
            else:  # math's error, from the first pass over the stack that meets one
                assert isinstance(got, Raised) and got.type in {want[i][1].type for i in refused}
            keep = [i for i in keep if i not in refused]


def test_fixed_rows_cover_every_tag():
    assert {canonicalize(projline.point(kind, x, y)).tag for kind, pairs in TAG_POINTS.items()
            for x, y in pairs} == set(ClassTag)
    assert all(outcome(canonicalize, projline.point(kind, x, y)).type is DomainError
               for kind, pairs in REFUSED.items() for x, y in pairs)
