"""Vector kernels over exact rationals or binary floats.

Vectors are plain tuples. Entries are ``int``/``fractions.Fraction`` in exact
mode or ``float`` in float mode; arithmetic follows the entry types, so one
set of functions serves both modes. Comparisons that feed yes/no decisions
(rationalizability) are run in exact mode so no tolerance is involved.

:func:`dot` is the plain left-to-right loop for every entry type. Two kernels
clear denominators once (:func:`clear_denominators`) and work in ``int``.
:func:`project_out` runs :func:`project_ints`, integer Gram-Schmidt without
division, on exact vectors, and :func:`project_floats`, the one float
Gram-Schmidt kernel (two passes, each u.u computed once, a basis vector
dropped when at most 1e-13 of its length is left), on a basis with a float
entry; a float vector against an exact basis is swept twice in floats over
the basis's exact orthogonal vectors. The trials of ``axioms`` call both
kernels directly.
:func:`pair_ints` gives the integer row (L, Q, V) of an observation (x, y),
the one kernel for the sign of c*(x.x - y.y) + d.(x - y):
``preference.compare``, the LP rows of ``rationalize`` and both of its
verifiers read it. The values and result types are those of plain
entry-by-entry arithmetic; floats keep that arithmetic, in the same order.
The rules for arguments (finite_param, count_param, dim_param, mode_param,
box_radius) and the one seeded draw (box_draw, grid_point) live here too.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

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


def finite_param(name: str, value: Optional[Scalar], positive: bool = False, default: Optional[float] = None) -> Scalar:
    """``value`` if it is a finite number >= 0 (> 0 when ``positive``), else a
    ValueError naming the parameter: the rule for every tolerance (>= 0) and
    radius (> 0) a caller passes in. None gives a tolerance its ``default``."""
    if value is None and default is not None:
        return default
    try:
        if (0 < value if positive else 0 <= value) and value < math.inf:
            return value
    except TypeError:  # None, a str, a complex: no order with 0
        pass
    raise ValueError(f"{name} must be a finite number {'>' if positive else '>='} 0, not {value!r}")


def count_param(name: str, value: int, least: int = 1) -> int:
    """``value`` if it is an int (not a bool) >= ``least``, else a ValueError
    naming the parameter: the rule for every trial and sample count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


def dim_param(name: str, value: int) -> int:
    """``value`` if it is an int (not a bool) from 1 to sys.maxsize, else a ValueError naming it."""
    if type(value) is not int or not 1 <= value <= sys.maxsize:
        raise ValueError(f"{name} must be an integer from 1 to {sys.maxsize}, not {value!r}")
    return value


def mode_param(mode: str) -> str:
    """``mode`` if it is EXACT or FLOAT, else a ValueError: the one mode check."""
    if mode != EXACT and mode != FLOAT:
        raise ValueError(f"unknown arithmetic mode: {mode!r}")
    return mode


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


def box_draw(mode: str, radius: Scalar, grid: int) -> Callable:
    """draw(rng, n), the one draw of every seeded sampler from [-radius, radius]^n.

    Exact mode gives (numerators, 16) for grid_point: each coordinate is
    k/grid, grid 16 (the checkers) or 8 (``generate_dataset``, the probes of
    ``decompose``), k = rng.randint(-span, span) for span = max(1, round(grid
    * radius)), so a radius under 1/(2 grid) still samples -1/grid, 0 and
    1/grid. Float mode draws as rng.uniform(-radius, radius) would, as lo +
    (hi - lo)*random() with hi - lo = hi + hi. The radius is checked here,
    once: one that box_radius refuses is a ValueError.
    """
    if mode == EXACT:
        step, span = {16: 1, 8: 2}[grid], max(1, round(box_radius(radius, grid) * grid))
        return lambda rng, n: (tuple([step * rng.randint(-span, span) for _ in range(n)]), 16)
    hi = box_radius(radius, 2)
    lo, width = -hi, hi + hi

    def draw(rng, n: int) -> Vec:
        unit = rng.random
        return tuple([lo + width * unit() for _ in range(n)])

    return draw


def grid_point(v: tuple) -> Vec:
    """The point of an exact (numerators, denominator) vector: one Fraction per entry."""
    nums, den = v
    if den == 16:
        return tuple(map(_sixteenths, nums))
    return tuple(Fraction(x, den) for x in nums)


def _rational(v: Sequence) -> bool:
    """True when every entry is exactly an ``int`` or a ``Fraction``."""
    return {int, Fraction}.issuperset(map(type, v))


def dot(a: Vec, b: Vec) -> Scalar:
    """Inner product sum(a_i * b_i), left to right; exact when entries are rational."""
    n = len(a)
    if n != len(b):  # not _same_dim: the call would cost this hottest float kernel 11-16%
        raise DimensionMismatch(f"dimension mismatch: {n} vs {len(b)}")
    s = 0
    for i in range(n):
        s += a[i] * b[i]
    return s


def sq_norm(a: Vec) -> Scalar:
    """Squared Euclidean norm dot(a, a); no square root is taken."""
    return dot(a, a)


def add(a: Vec, b: Vec) -> Vec:
    _same_dim(a, b)
    return tuple(map(operator.add, a, b))


def sub(a: Vec, b: Vec) -> Vec:
    _same_dim(a, b)
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
    """Convert entries to floats; one beyond the float range is a ValueError."""
    try:
        return tuple(float(x) for x in a)
    except OverflowError as exc:  # a huge int or Fraction
        raise ValueError(f"an entry overflows a float: {exc}") from None


def norm(a: Sequence) -> float:
    """Euclidean length as a float: sqrt(a.a), or, when a.a underflows to 0
    or overflows for a nonzero finite a, m * norm(a / m) for m the largest
    |entry|, a / m exact when a is rational. A norm beyond the float range
    is a ValueError, unless every entry is a float (then it is inf)."""
    try:
        s = float(_sum_sq(a))
    except OverflowError:  # an int or Fraction a.a beyond the float range
        s = math.inf
    if s == 0.0 or s == math.inf:
        m = max(map(abs, a), default=0)
        if 0 < m < math.inf:
            exact = _rational(a)
            try:
                s = m * math.sqrt(_sum_sq([Fraction(x, m) if exact else x / m for x in a]))
            except OverflowError:  # float(m), or a float meeting a huge int
                s = math.inf
            if s == math.inf and not all(isinstance(x, float) for x in a):
                raise ValueError(f"the norm of a vector of length {len(a)} overflows a float")
            return s
    return math.sqrt(s)


def normalize(a: Vec) -> Vec:
    """Unit vector along a, in float arithmetic; a rational a is divided
    exactly by its largest |entry| first, so every nonzero one has one."""
    if _rational(a) and not is_zero(a):
        m = max(map(abs, a))
        a = tuple(Fraction(x, m) for x in a)
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


def _sum_sq(w: Sequence) -> Scalar:
    """dot(w, w) without its checks."""
    s = 0
    for x in w:
        s += x * x
    return s


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
            wn, bn = norm(w), norm(b)
        else:
            w, wn = b, norm(b)
            bn = wn
        if wn > 1e-13 * bn:
            u = [x / wn for x in w]
            ortho.append((u, _sum_sq(u)))
    return tuple(_sweep(v, ortho + ortho)) if ortho else v


def project_out(v: Vec, basis: Sequence[Vec]) -> Vec:
    """Remove from v its orthogonal projection onto span(basis).

    Gram-Schmidt drops zero and dependent basis vectors. Exact v and basis
    run project_ints, one ``Fraction`` per entry; a basis with a float entry
    runs project_floats; a float v against an exact basis is swept twice, in
    floats, over the basis's exact orthogonal vectors. The result is
    orthogonal to every basis vector: exactly in exact mode, within
    PROJ_TOL*|v||b| in float mode.
    """
    for b in basis:
        _same_dim(v, b)
    basis = [b for b in basis if not is_zero(b)]
    if not all(map(is_exact, basis)):
        return project_floats(v, basis)
    if basis and is_exact(v):
        L, V = clear_denominators(v)
        R, S = project_ints(V, [clear_denominators(b)[1] for b in basis])
        return tuple(Fraction(r, L * S) for r in R)
    ortho = [(u, _sum_sq(u)) for u in (project_out(b, basis[:k]) for k, b in enumerate(basis)) if not is_zero(u)]
    return tuple(_sweep(v, ortho + ortho))  # v itself for an empty basis
