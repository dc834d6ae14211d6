"""Quadratic + linear decomposition of a utility with endogenous orthogonality.

A continuous utility U with U(0) = 0 that is status-quo independent and
eventually linear splits uniquely as U = f + g with f(x) = S(x, x) for a
symmetric bilinear form S and g linear. The even part is recovered through

    f(x) = (U(z + x) - U(z))/2 + (U(z - x) - U(z))/2,

which is independent of the status quo z inside the family; polarization on
the coordinate basis then yields S entrywise, and g falls out as U - f on
the axes. A reconstruction residual over a probe grid guards against
utilities outside the family, which are reported instead of silently fitted.

S induces the endogenous orthogonality: x and z count as orthogonal for U
when S(x, z) = 0, and on such pairs U is additive.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Optional, Sequence

from .axioms import AxiomReport, _run_trials, _trial_ops, cubic_function
from .formats import scalar_to_json, vec_parser, vec_to_json
from .geometry import (EXACT, FLOAT, DimensionMismatch, Scalar, Vec, _rational, _same_dim, add, basis_vector,
                       box_draw, clear_denominators, count_param, dot, finite_param, grid_point, neg, scale, sub,
                       zeros)
from .preference import _not_finite, tie_cuts

# Reconstruction residual above RESIDUAL_REL*(1 + max |U|) rejects the oracle.
RESIDUAL_REL = 1e-6
_PROBE_SEED = 20230 * 2 + 1  # fixed; decompose must be deterministic
_N_RANDOM_PROBES = 32


class NotQuadraticLinear(ValueError):
    """The oracle's reconstruction residual exceeds the acceptance threshold."""

    def __init__(self, residual, threshold):
        super().__init__(
            f"utility is not quadratic + linear: residual {residual} exceeds {threshold}"
        )
        self.residual = residual
        self.threshold = threshold


@dataclass(frozen=True)
class UtilityOracle:
    """A utility function on R^n with U(0) = 0."""

    dim: int
    fn: Callable[[Vec], Scalar]
    name: str = "utility"

    def __call__(self, x: Vec) -> Scalar:
        if len(x) != self.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.dim} vs {len(x)}")
        return self.fn(x)


def utility_oracle(fn: Callable[[Vec], Scalar], dim: int, auto_shift: bool = False, name: str = "utility") -> UtilityOracle:
    """Wrap a function as a UtilityOracle, enforcing U(0) = 0.

    With auto_shift the constant fn(0) is subtracted; otherwise a nonzero
    value at the origin is an error. A float U(0) that is not finite is an
    error either way.
    """
    v0 = fn(zeros(dim))
    if isinstance(v0, float) and not math.isfinite(v0):
        raise ValueError(f"utility at the origin is {v0}, not 0")
    if auto_shift and v0 != 0:
        base = fn
        return UtilityOracle(dim, lambda x: base(x) - v0, name=name)
    if isinstance(v0, float):
        if abs(v0) > 1e-12:
            raise ValueError(f"utility at the origin is {v0}, not 0")
    elif v0 != 0:
        raise ValueError(f"utility at the origin is {v0}, not 0")
    return UtilityOracle(dim, fn, name=name)


def coefficient_oracle(matrix: Sequence[Sequence[Scalar]], linear: Vec, name: str = "coefficient") -> UtilityOracle:
    """Oracle for U(x) = x^T A x + b.x; exact whenever the data is exact."""
    a = tuple(tuple(row) for row in matrix)
    b = tuple(linear)
    n = len(b)
    if len(a) != n or any(len(row) != n for row in a):
        raise DimensionMismatch("coefficient matrix shape does not match the linear part")

    return UtilityOracle(n, _QuadLin(a, b).value, name=name)


class _QuadLin:
    """The kernel ``value``: x -> x^T A x + b.x for x of b's length.

    When b or x holds a ``Fraction`` and A, b and x are all ``int`` or
    ``Fraction``, the value is (X^T A' X + M*B'.X) / (K*M^2) over A, b cleared
    to (K, A', B') on the first such call and x cleared to (M, X): one
    ``Fraction``. Other input takes _bilinear(a, x, x) + dot(b, x), so floats
    keep their bits and all-``int`` values stay ``int``. A huge int or
    ``Fraction`` that meets a float there is a ValueError naming x and the
    entries of A and b beyond the float range. A slotted instance and its
    bound method are two GC-tracked objects, where a closure over A, b and
    this state takes seven: building many oracles triggers fewer full
    collections.
    """

    __slots__ = ("a", "b", "b_exact", "ints")

    def __init__(self, a: tuple, b: Vec):
        self.a, self.b = a, b
        self.b_exact = Fraction in map(type, b)
        # (K, rows of A', B') once cleared; False if A or b is not all int/Fraction
        self.ints = None if _rational(b) else False

    def value(self, x: Vec) -> Scalar:
        a, b, ints = self.a, self.b, self.ints
        if x and type(x[0]) is not float and ints is not False and (self.b_exact or Fraction in map(type, x)):
            if ints is None:
                flat = [v for row in a for v in row] + list(b)
                ints = False
                if _rational(flat):
                    n = len(b)
                    K, cleared = clear_denominators(flat)
                    ints = K, [cleared[i * n : i * n + n] for i in range(n)], cleared[n * n :]
                self.ints = ints
            if ints and _rational(x):
                K, rows, B = ints
                M, X = clear_denominators(x)
                quad = 0
                for xi, row in zip(X, rows):
                    if xi:
                        quad += xi * sum(map(mul, row, X))
                return Fraction(quad + M * sum(map(mul, B, X)), K * M * M)
        try:
            return _bilinear(a, x, x) + dot(b, x)
        except OverflowError as exc:
            named = [(f"A[{i}][{j}]", v) for i, row in enumerate(a) for j, v in enumerate(row)]
            huge = [k for k, v in named + [(f"b[{i}]", v) for i, v in enumerate(b)] if abs(v) > sys.float_info.max]
            raise ValueError(f"U{list(x)} overflows a float ({exc}); beyond the float range: {huge}") from None


def _bilinear(a: tuple, x: Vec, z: Vec) -> Scalar:
    """x^T A z, row by row, skipping the rows where x_i is zero."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            total += xi * dot(a[i], z)
    return total


def coefficient_oracle_from_dict(doc: dict) -> UtilityOracle:
    """:func:`coefficient_oracle` of a utility document {"A": [[...], ...], "b": [...]}."""
    a, b = doc.get("A"), doc.get("b")
    if not isinstance(a, list) or not a or not all(isinstance(row, list) for row in a):
        raise ValueError(f'"A" must be a non-empty list of lists of scalars, not {a!r}')
    if not isinstance(b, list):
        raise ValueError(f'"b" must be a list of scalars, not {b!r}')
    vec = vec_parser()
    return coefficient_oracle([vec(row) for row in a], vec(b))


def cubic_utility(dim: int) -> UtilityOracle:
    """Built-in rejection fixture: U(x) = x1^3 + x2 (x1^3 alone when n = 1)."""
    return UtilityOracle(dim, cubic_function(dim), name="cubic1")


BUILTIN_UTILITIES = {"cubic1": cubic_utility}


@dataclass(frozen=True)
class QuadLinDecomposition:
    """Symmetric bilinear matrix, linear coefficients, and the residual."""

    bilinear: tuple  # n x n, symmetric by construction
    linear: Vec
    residual: Scalar

    @property
    def dim(self) -> int:
        return len(self.linear)

    def quadratic_form(self, x: Vec, z: Vec) -> Scalar:
        """Evaluate x^T S z."""
        _same_dim(self.linear, x)
        _same_dim(self.linear, z)
        return _bilinear(self.bilinear, x, z)

    @cached_property
    def _value(self) -> Callable[[Vec], Scalar]:
        return _QuadLin(self.bilinear, self.linear).value

    def evaluate(self, x: Vec) -> Scalar:
        """x^T S x + g.x."""
        _same_dim(self.linear, x)
        return self._value(x)

    def to_dict(self) -> dict:
        return {
            "S": [vec_to_json(row) for row in self.bilinear],
            "g": vec_to_json(self.linear),
            "residual": scalar_to_json(self.residual),
        }


def _div(v: Scalar, k: int) -> Scalar:
    return v / k if isinstance(v, float) else Fraction(v, k)


def _require_finite(name: str, v: Scalar) -> None:
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{name} is {v}: the utility overflows a float")


def extract_f(u: UtilityOracle, x: Vec, z: Vec) -> Scalar:
    """Even part of U around z: (U(z+x) - U(z))/2 + (U(z-x) - U(z))/2."""
    return _div(u(add(z, x)) + u(sub(z, x)) - 2 * u(z), 2)


def _probe_grid(dim: int, probe_z: Sequence[Vec]) -> list:
    points = [tuple(p) for p in probe_z]
    points.append(zeros(dim))
    for i in range(dim):
        ei = basis_vector(dim, i)
        points += [ei, neg(ei), scale(2, ei)]
        for j in range(i + 1, dim):
            ej = basis_vector(dim, j)
            points += [add(ei, ej), sub(ei, ej)]
    rng, draw = random.Random(_PROBE_SEED), box_draw(EXACT, 2, 8)
    return points + [grid_point(draw(rng, dim)) for _ in range(_N_RANDOM_PROBES)]


def decompose(
    u: UtilityOracle,
    probe_z: Optional[Sequence[Vec]] = None,
    residual_rel: float = RESIDUAL_REL,
) -> QuadLinDecomposition:
    """Recover (S, g) from the oracle, or reject it as NotQuadraticLinear.

    The first probe is the reference status quo for the even part; S comes
    from polarization on the coordinate axes, S[i][j] = (f(e_i + e_j) -
    f(e_i - e_j))/4, and g[i] = U(e_i) - f(e_i). The residual is the largest
    reconstruction error |U(x) - (x^T S x + g.x)| over the probe grid and
    must stay within residual_rel*(1 + max |U|) for the oracle to be inside
    the family. Probe points are rational, so exact oracles decompose with
    residual exactly zero. A float S entry, g entry, probed value or residual
    that is not finite (the utility overflowed) is a ValueError naming it.
    """
    finite_param("residual_rel", residual_rel)
    n = u.dim
    if probe_z is None or len(probe_z) == 0:
        probe_z = [zeros(n)]
    z0 = tuple(probe_z[0])

    def f(x: Vec) -> Scalar:
        return extract_f(u, x, z0)

    s_rows = [[0] * n for _ in range(n)]
    for i in range(n):
        ei = basis_vector(n, i)
        s_rows[i][i] = _div(f(scale(2, ei)), 4)
        for j in range(i + 1, n):
            ej = basis_vector(n, j)
            sij = _div(f(add(ei, ej)) - f(sub(ei, ej)), 4)
            s_rows[i][j] = sij
            s_rows[j][i] = sij
    bilinear = tuple(tuple(row) for row in s_rows)
    linear = tuple(u(basis_vector(n, i)) - f(basis_vector(n, i)) for i in range(n))
    for i in range(n):
        for j in range(n):
            _require_finite(f"S[{i}][{j}]", bilinear[i][j])
        _require_finite(f"g[{i}]", linear[i])
    dec = QuadLinDecomposition(bilinear, linear, 0)

    residual: Scalar = 0
    peak: Scalar = 0
    for x in _probe_grid(n, probe_z):
        value = u(x)
        _require_finite(f"U{list(x)}", value)
        err = abs(value - dec.evaluate(x))
        if err > residual:
            residual = err
        if abs(value) > peak:
            peak = abs(value)
    _require_finite("the residual", residual)
    try:
        threshold = residual_rel * (1 + peak)
    except OverflowError:  # an exact peak beyond the float range: compare exactly
        threshold = Fraction(residual_rel) * (1 + peak)
    if residual > threshold:
        raise NotQuadraticLinear(residual, threshold)
    return QuadLinDecomposition(bilinear, linear, residual)


def check_status_quo_independence(
    u: UtilityOracle,
    trials: int,
    rng_seed: int = 0,
    tol: float = 1e-9,
    mode: str = FLOAT,
    radius: float = 1.0,
) -> AxiomReport:
    """Verify that the even part does not depend on the status quo.

    Per trial: one direction x and several status quos; the spread of
    extract_f across the status quos must stay within tol relative to the
    largest value (exactly zero in exact mode). A float trial whose values,
    spread or cut are not finite is a ValueError.
    """
    count_param("trials", trials, 2)
    finite_param("tol", tol)
    rng, draw, *_, point = _trial_ops(trials, mode, radius, rng_seed)

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        x = point(draw(rng, u.dim))
        quos = [zeros(u.dim)] + [point(draw(rng, u.dim)) for _ in range(3)]
        values = [extract_f(u, x, z) for z in quos]
        spread = max(values) - min(values)
        (cut,) = tie_cuts(values, mode, tol)
        gap = spread if mode == EXACT else float(spread)
        if mode != EXACT and not all(map(math.isfinite, (*values, gap, cut))):
            raise _not_finite(values)
        if gap > cut:
            hi = values.index(max(values))
            lo = values.index(min(values))
            return {"x": x, "w": quos[hi], "w2": quos[lo], "spread": spread}
        return None

    return _run_trials("status_quo_independence", trials, rng, trial)


@dataclass(frozen=True)
class LineSearch:
    """Budget for the eventual-linearity root search."""

    directions: int = 16
    max_radius: float = 1024.0
    bisect_steps: int = 80
    tol: float = 1e-9
    seed: int = 0


def check_eventual_linearity(
    u: UtilityOracle,
    x: Vec,
    y: Vec,
    search: LineSearch = LineSearch(),
) -> Optional[Vec]:
    """Search for a status quo where symmetric differences add up.

    The defect h(w) = [U(w+x+y) - U(w-x-y)] - [U(w+x) - U(w-x)] -
    [U(w+y) - U(w-y)] is evaluated at the origin and along random lines
    with doubling radii; a sign change is refined by bisection. Returns a
    root within tolerance, or None when the budget is exhausted (which is
    a report of failure to find one, not a proof of absence). The budget's
    tol must be a finite number >= 0 and its max_radius a finite number > 0.
    """
    finite_param("tol", search.tol)
    finite_param("max_radius", search.max_radius, positive=True)
    n = u.dim
    sx, sy, sxy = tuple(x), tuple(y), add(x, y)

    def defect(w: Vec) -> tuple:
        values = (
            u(add(w, sxy)),
            u(sub(w, sxy)),
            u(add(w, sx)),
            u(sub(w, sx)),
            u(add(w, sy)),
            u(sub(w, sy)),
        )
        h = (values[0] - values[1]) - (values[2] - values[3]) - (values[4] - values[5])
        # the relative term only absorbs float cancellation noise; it must
        # never grow fast enough to wave through a genuinely nonzero defect
        cut = search.tol + 1e-12 * max(abs(float(v)) for v in values)
        return h, cut

    origin = zeros(n)
    h0, cut = defect(origin)
    if abs(float(h0)) <= cut:
        return origin

    rng = random.Random(search.seed)
    for _ in range(search.directions):
        direction = tuple(rng.gauss(0.0, 1.0) for _ in range(n))
        for sign in (1.0, -1.0):
            prev_t, prev_h = 0.0, h0
            t = 1.0
            while t <= search.max_radius:
                w = scale(sign * t, direction)
                h, cut = defect(w)
                if abs(float(h)) <= cut:
                    return w
                if float(prev_h) * float(h) < 0:
                    root = _bisect_defect(defect, direction, sign, prev_t, float(prev_h), t, search.bisect_steps)
                    if root is not None:
                        return root
                prev_t, prev_h = t, h
                t *= 2.0
    return None


def _bisect_defect(defect, direction: Vec, sign: float, lo: float, h_lo: float, hi: float, steps: int) -> Optional[Vec]:
    """Bisect the defect's sign change on [lo, hi] along the ray; h_lo is its value at lo."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        w = scale(sign * mid, direction)
        h, cut = defect(w)
        if abs(float(h)) <= cut:
            return w
        if h_lo * float(h) < 0:
            hi = mid
        else:
            lo, h_lo = mid, float(h)
    return None


def u_orthogonal(dec: QuadLinDecomposition, x: Vec, z: Vec, tol: float = 1e-9) -> bool:
    """Endogenous orthogonality: |x^T S z| within tol, a finite number >= 0."""
    return abs(dec.quadratic_form(x, z)) <= finite_param("tol", tol)
