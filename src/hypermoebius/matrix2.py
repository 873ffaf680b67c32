"""2x2 matrices with entries in one of the three algebras.

Provides ring matrix arithmetic, the adjugate ("hat") operator, determinant
formulas that reduce a double or dual matrix to real component matrices,
rescaling to determinant one, and a matrix exponential used as an
independent oracle for one-parameter subgroups.

Real 2x2 matrices appear as float 4-tuples (a, b, c, d) in the split_* and
join_* component maps, and as (2, 2) numpy arrays elsewhere; numpy is
imported inside the functions that take or give an array.  A ``Mat2``
whose entries are stacks of numbers is a stack of matrices, on which ``+``,
``-``, ``@``, ``scale``, ``max_entry_magnitude``, ``det``, ``hat`` and
``mat_exp`` act matrix by matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import algebra
from .algebra import (
    TAU_ALG,
    ElementClass,
    Hypercomplex,
    Kind,
    classify_element,
    invert,
    is_stack,
    is_unit,
    sqrt_all,
)
from .errors import (
    InvalidLiteralError,
    NotNormalizableError,
    SingularMatrixError,
)


@dataclass(frozen=True, slots=True)
class Mat2:
    """Row-major matrix [[a, b], [c, d]]; its kind is the kind its entries
    share, and entries that mix kinds raise :class:`KindMismatchError` in
    ``det`` and ``@``."""

    a: Hypercomplex
    b: Hypercomplex
    c: Hypercomplex
    d: Hypercomplex

    @property
    def kind(self) -> Kind:
        return self.a.kind

    def entries(self) -> tuple[Hypercomplex, Hypercomplex, Hypercomplex, Hypercomplex]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b,
                    self.c - other.c, self.d - other.d)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def scale(self, s: "Hypercomplex | float") -> "Mat2":
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)

    def max_entry_magnitude(self) -> float:
        """The largest entry magnitude, NaN when one is NaN; for a stack, the
        array of each matrix's."""
        a, b, c, d = (self.a.magnitude(), self.b.magnitude(),
                      self.c.magnitude(), self.d.magnitude())
        if type(a) is float:  # every entry of a stack is a stack
            # pairwise as the stack below, a NaN in either place, as np.maximum
            ab = a if a > b or a != a else b
            cd = c if c > d or c != c else d
            return ab if ab > cd or ab != ab else cd
        import numpy as np

        return np.maximum(np.maximum(a, b), np.maximum(c, d))

    def close_to(self, other: "Mat2", tol: float = TAU_ALG) -> bool:
        return all(p.close_to(q, tol) for p, q in zip(self.entries(), other.entries()))

    def __str__(self) -> str:
        return render_mat(self)


def mat2(kind: Kind, rows) -> Mat2:
    """Build a matrix from a nested 2x2 of Hypercomplex values or reals."""
    (a, b), (c, d) = rows
    conv = lambda v: v if isinstance(v, Hypercomplex) else algebra.number(kind, v)
    return Mat2(conv(a), conv(b), conv(c), conv(d))


def identity(kind: Kind) -> Mat2:
    return mat2(kind, [[1.0, 0.0], [0.0, 1.0]])


def det(x: Mat2) -> Hypercomplex:
    return x.a * x.d - x.b * x.c


def trace(x: Mat2) -> Hypercomplex:
    return x.a + x.d


def hat(x: Mat2) -> Mat2:
    """Adjugate [[d, -b], [-c, a]]; satisfies X @ hat(X) = det(X) * I."""
    return Mat2(x.d, -x.b, -x.c, x.a)


def invert_mat(x: Mat2) -> Mat2:
    d = det(x)
    cls = classify_element(d)
    if cls is not ElementClass.UNIT:
        raise SingularMatrixError(cls)
    return hat(x).scale(invert(d))


def normalize_to_sl(x: Mat2) -> Mat2:
    """Rescale by an invertible square root of det to reach determinant one.

    Root choice is deterministic: the root whose leading coordinate
    (idempotent plus-component for double, a1 otherwise) is largest, with
    the second coordinate breaking ties.
    """
    d = det(x)
    roots = [r for r in sqrt_all(d) if is_unit(r)]
    if not roots:
        raise NotNormalizableError(
            f"determinant {d} has no invertible square root"
        )
    if x.kind is Kind.DOUBLE:
        key = lambda r: algebra.decompose(r)
    else:
        key = lambda r: (r.a1, r.a2)
    u = max(roots, key=key)
    return x.scale(invert(u))


# ---------------------------------------------------------------------------
# component reductions (real 2x2 matrices as float 4-tuples or numpy arrays)


def join_double(plus, minus) -> Mat2:
    """The double matrix A+ P+ + A- P- from its component matrices, each
    given as the floats (a, b, c, d), or as arrays of one shape for a stack;
    the inverse of :func:`split_double`."""
    return Mat2(*map(algebra.recompose, plus, minus))


def double_from_components(a_plus: np.ndarray, a_minus: np.ndarray) -> Mat2:
    """:func:`join_double` from 2x2 arrays."""
    import numpy as np

    return join_double(map(float, np.ravel(a_plus)), map(float, np.ravel(a_minus)))


def split_double(x: Mat2) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The plus and minus component matrices of a double matrix, each as the
    floats (a, b, c, d)."""
    return tuple(zip(*(algebra.decompose(e) for e in x.entries())))


def join_dual(part1, part2) -> Mat2:
    """The dual matrix A1 + eps*A2 from its real part A1 and eps-part A2, each
    given as the floats (a, b, c, d), or as arrays of one shape for a stack;
    the inverse of :func:`split_dual`."""
    return Mat2(*(Hypercomplex(Kind.DUAL, x, y) for x, y in zip(part1, part2)))


def dual_from_parts(a1: np.ndarray, a2: np.ndarray) -> Mat2:
    """:func:`join_dual` from 2x2 arrays."""
    import numpy as np

    return join_dual(map(float, np.ravel(a1)), map(float, np.ravel(a2)))


def split_dual(x: Mat2) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The real part A1 and eps-part A2 of a dual matrix, each as the floats
    (a, b, c, d)."""
    a, b, c, d = x.entries()
    return (a.a1, b.a1, c.a1, d.a1), (a.a2, b.a2, c.a2, d.a2)


def adj_real(m: np.ndarray) -> np.ndarray:
    """Adjugate [[d, -b], [-c, a]] of a real 2x2 matrix, or of each in a stack."""
    import numpy as np

    out = np.empty_like(m)
    out[..., 0, 0], out[..., 0, 1] = m[..., 1, 1], -m[..., 0, 1]
    out[..., 1, 0], out[..., 1, 1] = -m[..., 1, 0], m[..., 0, 0]
    return out


def stacked_mat(x: Hypercomplex) -> Mat2:
    """The stack of matrices whose entry (i, j) is x[..., i, j], for a stack of
    numbers x with coordinate arrays of shape (..., 2, 2)."""
    return Mat2(*(Hypercomplex(x.kind, x.a1[..., i, j], x.a2[..., i, j])
                  for i in (0, 1) for j in (0, 1)))


def det_split_double(a_plus: np.ndarray, a_minus: np.ndarray) -> Hypercomplex:
    """det(A+ P+ + A- P-) = det(A+) P+ + det(A-) P- for one pair of 2x2
    component matrices, or for each pair of two (..., 2, 2) stacks as a
    stack of double numbers."""
    import numpy as np

    return algebra.recompose(np.linalg.det(a_plus), np.linalg.det(a_minus))


def det_dual_formula(a1: np.ndarray, a2: np.ndarray) -> Hypercomplex:
    """det(A1 + eps*A2) = det(A1) + eps * tr(A1 @ adj(A2)) for one pair of
    2x2 parts, or for each pair of two (..., 2, 2) stacks as a stack of dual
    numbers."""
    import numpy as np

    eps_part = np.trace(a1 @ adj_real(a2), axis1=-2, axis2=-1)
    return Hypercomplex(Kind.DUAL, np.linalg.det(a1), eps_part)


# ---------------------------------------------------------------------------
# matrix exponential oracle

_EXP_TERMS = 20
_EXP_SCALE_LIMIT = 0.5


def mat_exp(b: Mat2, t: float) -> Mat2:
    """exp(b*t) by Taylor series with scaling and squaring.

    The argument is halved until its max entry magnitude drops below 0.5,
    the series is summed to 20 terms, and the result squared back up; the
    truncation error is far below the tolerances this oracle is checked
    against.

    At a 1-d float array of t, or for a stack b, the result is the stack of
    exponentials.  Each matrix is halved and squared its own number of
    times, so it is the matrix the scalar call gives, bit for bit.
    """
    m = b.scale(t if is_stack(t) else float(t))
    k, factor = _halvings(m.max_entry_magnitude())
    m = m.scale(factor)
    term = identity(b.kind)
    acc = term
    for n in range(1, _EXP_TERMS + 1):
        term = (term @ m).scale(1.0 / n)
        acc = acc + term
    if type(k) is not int:
        return _squared(acc, k, _select)
    for _ in range(k):
        acc = acc @ acc
    return acc


def mat_exp_real(b: np.ndarray, t: float) -> np.ndarray:
    """Real-matrix twin of :func:`mat_exp` (same algorithm over floats), for
    one matrix or an (n, 2, 2) stack, at one t or a 1-d array of t."""
    import numpy as np

    m = np.asarray(b, dtype=float) * np.asarray(t, dtype=float)[..., None, None]
    k, factor = _halvings(np.max(np.abs(m), axis=(-2, -1)))
    m = m * factor[..., None, None]
    term = np.eye(2)
    acc = np.eye(2)
    for n in range(1, _EXP_TERMS + 1):
        term = term @ m / n
        acc = acc + term
    return _squared(acc, k, lambda keep, x, y: np.where(keep[..., None, None], x, y))


def _halvings(norm):
    """The number k of halvings that take norm to 0.5 or below, and 2**-k;
    for an array of norms, arrays of each norm's.  An infinite norm, which
    no halving brings down, gets k = 0."""
    if type(norm) is float:
        k = 0
        while _EXP_SCALE_LIMIT < norm < math.inf:
            norm /= 2.0
            k += 1
        return k, 0.5 ** k
    import numpy as np

    k = np.zeros(np.shape(norm), dtype=int)
    while (big := (_EXP_SCALE_LIMIT < norm) & (norm < np.inf)).any():
        norm = np.where(big, norm / 2.0, norm)
        k += big
    return k, np.ldexp(1.0, -k)


def _squared(acc, k, select):
    """The stack acc with each matrix squared k times, its own k.  All are
    squared max(k) times and ``select(keep, squares, acc)`` keeps the squares
    where keep holds: an overflow in a square past a matrix's k is dropped."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(int(np.max(k, initial=0))):
            acc = select(i < k, acc @ acc, acc)
    return acc


def _select(keep, x: Mat2, y: Mat2) -> Mat2:
    """The stack of x's matrices where keep holds and y's elsewhere."""
    import numpy as np

    return Mat2(*(Hypercomplex(x.kind, np.where(keep, p.a1, q.a1),
                               np.where(keep, p.a2, q.a2))
                  for p, q in zip(x.entries(), y.entries())))


# ---------------------------------------------------------------------------
# text form

_ENTRY = r"[^,\[\]]+"
_MAT_RE = re.compile(
    rf"^\[\[({_ENTRY}),({_ENTRY})\],\[({_ENTRY}),({_ENTRY})\]\]$"
)


def parse_mat(kind: Kind, text: str, entry_parser=None) -> Mat2:
    """Parse "[[a,b],[c,d]]" with entries in the algebra grammar."""
    s = text.replace(" ", "")
    m = _MAT_RE.match(s)
    if not m:
        raise InvalidLiteralError(f"cannot parse {text!r} as a 2x2 matrix")
    parse_entry = entry_parser or (lambda raw: algebra.parse_number(kind, raw))
    a, b, c, d = (parse_entry(m.group(i)) for i in (1, 2, 3, 4))
    return Mat2(a, b, c, d)


def render_mat(x: Mat2) -> str:
    a, b, c, d = (algebra.render(entry) for entry in x.entries())
    return f"[[{a},{b}],[{c},{d}]]"
