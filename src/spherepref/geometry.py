"""Vector kernels over exact rationals or binary floats.

Vectors are plain tuples. Entries are ``int``/``fractions.Fraction`` in exact
mode or ``float`` in float mode; arithmetic follows the entry types, so one
set of functions serves both modes. Comparisons that feed yes/no decisions
(rationalizability) are run in exact mode so no tolerance is involved.

:func:`dot` is the plain left-to-right loop for every entry type. Two kernels
clear denominators once (:func:`clear_denominators`) and work in ``int``.
:func:`project_out` on rational vectors runs :func:`project_ints`, integer
Gram-Schmidt without division, and builds one ``Fraction`` per entry; on a
basis with a float entry it runs :func:`project_floats`, the one float
Gram-Schmidt kernel, two passes with each u.u computed once, which drops a
basis vector only when its part left by the earlier ones is at most 1e-13
of its own length. The trials of ``axioms`` call both kernels directly.
:func:`pair_ints` gives the integer row (L, Q, V) of an observation (x, y),
the one kernel for the sign of c*(x.x - y.y) + d.(x - y):
``preference.compare``, the LP rows of ``rationalize`` and both of its
verifiers read it. The values and result types are those of plain
entry-by-entry arithmetic; floats keep that arithmetic, in the same order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, float]
Vec = tuple

EXACT = "exact"
FLOAT = "float"

# Float-mode projection residual target: |dot(result, b)| <= PROJ_TOL*|v||b|.
PROJ_TOL = 1e-12


@lru_cache(maxsize=1024)
def _sixteenths(k: int) -> Fraction:
    """Fraction(k, 16), memoized: the sampling grids draw few distinct k."""
    return Fraction(k, 16)


class DimensionMismatch(ValueError):
    """Two vectors of different lengths were combined."""


def _same_dim(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")


def finite_param(name: str, value: Scalar, positive: bool = False) -> Scalar:
    """``value`` if it is a finite number >= 0 (> 0 when ``positive``), else a
    ValueError naming the parameter: the rule for every tolerance (>= 0) and
    radius (> 0) a caller passes in."""
    if not ((0 < value if positive else 0 <= value) and value < math.inf):
        raise ValueError(f"{name} must be a finite number {'>' if positive else '>='} 0, not {value!r}")
    return value


def box_radius(radius: Scalar, width: int) -> float:
    """The rule for every sampling radius: ``radius`` as a float, if it is
    finite and > 0 and a box ``width`` >= 2 radii wide has a finite float width."""
    finite_param("radius", radius, positive=True)
    try:
        hi = float(radius)
    except OverflowError:  # a huge int or Fraction
        hi = math.inf
    if not math.isfinite(hi * width):
        raise ValueError(f"radius {radius} is too large")
    return hi


def _rational(v: Sequence) -> bool:
    """True when every entry is exactly an ``int`` or a ``Fraction``."""
    return {int, Fraction}.issuperset(map(type, v))


def dot(a: Vec, b: Vec) -> Scalar:
    """Inner product sum(a_i * b_i), left to right; exact when entries are rational."""
    n = len(a)
    if n != len(b):
        raise DimensionMismatch(f"dimension mismatch: {n} vs {len(b)}")
    s = 0
    for i in range(n):
        s += a[i] * b[i]
    return s


def sq_norm(a: Vec) -> Scalar:
    """Squared Euclidean norm dot(a, a); no square root is taken."""
    return dot(a, a)


def add(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(map(operator.add, a, b))


def sub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(map(operator.sub, a, b))


def scale(alpha: Scalar, a: Vec) -> Vec:
    return tuple(alpha * x for x in a)


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def zeros(n: int) -> Vec:
    return (0,) * n


def basis_vector(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def is_exact(a: Iterable[Scalar]) -> bool:
    """True when no entry is a binary float."""
    return all(not isinstance(x, float) for x in a)


def to_exact(a: Vec) -> Vec:
    """Convert entries to rationals; floats convert verbatim (dyadic)."""
    return tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in a)


def to_float(a: Vec) -> Vec:
    return tuple(float(x) for x in a)


def norm(a: Vec) -> float:
    """Euclidean length as a float (float-mode helper)."""
    return math.sqrt(float(sq_norm(a)))


def normalize(a: Vec) -> Vec:
    """Unit vector along a, in float arithmetic."""
    n = norm(a)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(float(x) / n for x in a)


def clear_denominators(values: Iterable[Scalar]) -> tuple:
    """(L, [L * v for v in values]) in integers, with L the lcm of the values'
    denominators; a float is taken verbatim (dyadic)."""
    ratios = [v.as_integer_ratio() for v in values]
    L = math.lcm(*[d for _, d in ratios])
    return L, [a * (L // d) for a, d in ratios]


def pair_ints(x: Vec, y: Vec) -> tuple:
    """(L, Q, V) in integers with (x.x - y.y, x - y) = (Q / L^2, V / L): L is
    the lcm of the coordinates' denominators, a float taken verbatim."""
    L, ints = clear_denominators((*x, *y))
    X, Y = ints[: len(x)], ints[len(x) :]
    return L, sum(map(operator.mul, X, X)) - sum(map(operator.mul, Y, Y)), tuple(a - b for a, b in zip(X, Y))


def _gs_ints(W: Sequence[int], U: Sequence[int]) -> tuple:
    """(W*(U.U) - (W.U)*U, U.U): (U.U) times W minus its component along U."""
    uu = sum(map(operator.mul, U, U))
    wu = sum(map(operator.mul, W, U))
    return tuple(x * uu - wu * y for x, y in zip(W, U)), uu


def project_ints(V: Sequence[int], basis: Sequence[Sequence[int]]) -> tuple:
    """(R, S) in integers with project_out(V, basis) = R / S for int vectors:
    classical Gram-Schmidt without division; S is 1 for an all-zero basis."""
    ortho, S = [], 1
    for b in basis:
        for u in ortho:
            b = _gs_ints(b, u)[0]
        if any(b):  # V is reduced along each u as it comes: the u are orthogonal
            ortho.append(b)
            V, uu = _gs_ints(V, b)
            S *= uu
    return V, S


def _reduce(w: Vec, ortho: Sequence[Vec]) -> Vec:
    """w minus its component along each u in turn; an int-by-int coefficient
    is a ``Fraction``."""
    for u in ortho:
        coeff, uu = dot(w, u), dot(u, u)
        coeff = Fraction(coeff, uu) if type(coeff) is int and type(uu) is int else coeff / uu
        w = tuple(w[i] - coeff * u[i] for i in range(len(w)))
    return w


def _sum_sq(w: Sequence) -> Scalar:
    """dot(w, w) without its checks."""
    s = 0
    for x in w:
        s += x * x
    return s


def _float_norm(w: Sequence) -> float:
    """|w| as a float: sqrt(w.w), or, when w.w underflows to 0 or overflows to
    inf for a nonzero finite w, the norm of w scaled by its largest |entry|."""
    s = float(_sum_sq(w))
    if s == 0.0 or s == math.inf:
        m = max(map(abs, w))
        if 0 < m < math.inf:
            return m * math.sqrt(_sum_sq([x / m for x in w]))
    return math.sqrt(s)


def _sweep(w: Sequence, ortho: Iterable[tuple]) -> list:
    """w minus (w.u / uu)*u for each (u, uu) in turn, w.u summed as dot sums."""
    for u, uu in ortho:
        s = 0
        for x, y in zip(w, u):
            s += x * y
        s /= uu
        w = [x - s * y for x, y in zip(w, u)]
    return w


def project_floats(v: Vec, basis: Sequence[Vec]) -> Vec:
    """project_out for a basis with a float entry, without its checks: every
    vector has v's length, and a zero basis vector drops out by itself.

    Modified Gram-Schmidt, normalized and run twice ("twice is enough",
    Giraud, Langou and Rozloznik 2005), each u.u computed once. A basis
    vector is dependent, and dropped, when the part of it that the earlier
    ones leave is at most 1e-13 of its length.
    """
    ortho = []  # (u, u.u): u is a float unit vector, u.u is near 1
    for b in basis:
        if ortho:
            # the second pass removes what rounding left, taking u.u as 1 (x / 1.0 is x)
            w = _sweep(b, ortho + [(u, 1.0) for u, _ in ortho])
            wn, bn = _float_norm(w), _float_norm(b)
        else:
            w, wn = b, _float_norm(b)
            bn = wn
        if wn > 1e-13 * bn:
            u = [x / wn for x in w]
            ortho.append((u, _sum_sq(u)))
    return tuple(_sweep(v, ortho + ortho)) if ortho else v


def project_out(v: Vec, basis: Sequence[Vec]) -> Vec:
    """Remove from v its orthogonal projection onto span(basis).

    Gram-Schmidt drops zero and dependent basis vectors. For an exact basis
    it is classical and unnormalized, so entries stay rational: for
    all-``int``/``Fraction`` input one ``Fraction`` per entry, through
    project_ints. A basis with a float entry runs project_floats, where a
    basis vector is dependent when at most 1e-13 of its length is left.
    The result is orthogonal to every basis vector: exactly in exact mode,
    within PROJ_TOL*|v||b| in float mode.
    """
    for b in basis:
        _same_dim(v, b)
    basis = [b for b in basis if not is_zero(b)]
    if not all(map(is_exact, basis)):
        return project_floats(v, basis)
    if basis and _rational(v) and all(map(_rational, basis)):
        L, V = clear_denominators(v)
        R, S = project_ints(V, [clear_denominators(b)[1] for b in basis])
        return tuple(Fraction(r, L * S) for r in R)
    ortho: list[Vec] = []
    for b in basis:
        w = _reduce(b, ortho)
        if not is_zero(w):
            ortho.append(w)
    r = _reduce(v, ortho)
    if not is_exact(v):
        r = _reduce(r, ortho)
    return r
