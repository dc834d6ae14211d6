"""Executable checkers for the axioms of the spherical family.

Each checker draws seeded samples, builds the orthogonality hypotheses
constructively (projection, never rejection sampling), queries a comparison
oracle, and reports violations with the first counterexample found. One
driver, _run_trials, owns the seeded loop and the report for every checker.
Each checker has one trial body over the trial operations of its call
(_trial_ops), built once per call with its generator, the radius checked
there once, after the trial count, mode and seed. Every trial draws
through geometry.box_draw, on the 1/16 grid in exact mode. Float trials
run map(operator.add), geometry.project_floats and scale on float tuples.
Exact trials run on integer numerators over one denominator; each point
the oracle sees, and each counterexample entry, is built once by
geometry.grid_point.

Two kinds of oracle are supported. A bare comparison oracle is a black box
(x, y) -> ordering. An oracle that also exposes its utility lets a checker
classify all the orderings inside one trial under one tie rule: the cuts of
preference.tie_cuts, TIE_REL wide for ties and STRICT_REL wide for strict
claims, shared by the whole trial, which removes spurious boundary flips in
float mode; exact mode uses the true sign. Pairwise comparisons (the oracles
built here and preference.compare) follow preference.rank, which refuses a
float gap that is not finite, as the per-trial checks do. For black-box
oracles the absence of violations is reported as "no violation found in N
trials", never as the axiom holding.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .formats import to_json
from .geometry import (EXACT, FLOAT, Scalar, Vec, _sixteenths, add, box_draw, count_param, dot, finite_param,
                       grid_point, is_zero, mode_param, normalize, project_floats, project_ints, project_out, scale,
                       sub, to_float)
from .preference import (TIE_REL, Ordering, SphericalParams, _not_finite, classify, compare, ordering_from_diff,
                         rank, sphere_normal, tie_cuts, utility)

# Margin a float comparison must clear before a strict-preference claim is
# made of it; ties and near-ties only support weak conclusions.
STRICT_REL = 1e-7


@dataclass(frozen=True)
class ComparisonOracle:
    """A deterministic pairwise ranking over R^n.

    ``compare`` is required; ``utility`` is optional and, when present,
    must represent the same ranking (it unlocks margin-aware checking).
    """

    dim: int
    compare: Callable[[Vec, Vec], Ordering]
    utility: Optional[Callable[[Vec], Scalar]] = None
    name: str = "oracle"


def params_oracle(params: SphericalParams) -> ComparisonOracle:
    """Oracle backed by spherical parameters: it ranks as preference.compare does."""
    return utility_comparison_oracle(lambda x: utility(params, x), params.dim, "spherical")


def utility_comparison_oracle(fn: Callable[[Vec], Scalar], dim: int, name: str = "utility") -> ComparisonOracle:
    """Oracle that ranks by an arbitrary utility function."""
    return ComparisonOracle(dim=dim, compare=lambda x, y: rank(fn(x), fn(y)), utility=fn, name=name)


def cubic_function(dim: int) -> Callable[[Vec], Scalar]:
    """The built-in non-spherical fixture x1^3 + x2 on R^dim (x1^3 alone when n = 1)."""
    if dim < 1:
        raise ValueError("the cubic fixture needs dimension >= 1")
    if dim == 1:
        return lambda x: x[0] ** 3
    return lambda x: x[0] ** 3 + x[1]


def cubic_oracle(dim: int) -> ComparisonOracle:
    """Built-in non-spherical test oracle ranking by x1^3 + x2."""
    if dim < 2:
        raise ValueError("the cubic oracle needs dimension >= 2")
    return utility_comparison_oracle(cubic_function(dim), dim, name="cubic1")


BUILTIN_ORACLES = {"cubic1": cubic_oracle}


@dataclass(frozen=True)
class AxiomReport:
    """A checker's result. ``evaluated`` counts the trials that reached the
    oracle (None when not recorded); it stays out of equality, repr and
    to_dict, so that no report byte depends on it."""

    axiom: str
    trials: int
    violations: int
    counterexample: Optional[dict] = None
    evaluated: Optional[int] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {"axiom": self.axiom, "trials": self.trials, "violations": self.violations,
                "counterexample": to_json(self.counterexample)}


# A trial returns this when it is skipped before it reaches the oracle.
_SKIPPED = object()


def _run_trials(axiom: str, trials: int, rng: random.Random, trial: Callable) -> AxiomReport:
    """The trial loop of every checker, on the generator of _trial_ops.

    ``trial(rng, t)`` runs trial number t on that generator and returns its
    counterexample dict, None when the trial finds no violation, or _SKIPPED
    when it is skipped before reaching the oracle. A trial whose arithmetic
    overflows a float is a ValueError.
    """
    violations = skipped = 0
    first = None
    for t in range(trials):
        try:
            found = trial(rng, t)
        except OverflowError as exc:  # a huge int or Fraction meets a float
            raise ValueError(f"trial {t} overflows a float: {exc}") from None
        if found is _SKIPPED:
            skipped += 1
        elif found is not None:
            violations += 1
            if first is None:
                first = found
    return AxiomReport(axiom, trials, violations, first, trials - skipped)


def sample_vector(rng: random.Random, dim: int, mode: str = FLOAT, radius: float = 1.0) -> Vec:
    """One random point of the checking box: geometry.box_draw's, on the 1/16 grid."""
    v = box_draw(mode_param(mode), radius, 16)(rng, dim)
    return grid_point(v) if mode == EXACT else v


def _trial_ops(trials: int, mode: str, radius: Scalar, rng_seed) -> tuple:
    """One checker call's generator and trial operations (rng, draw, plus,
    perp, scaled, point). The arguments are checked in this order: a trial
    count that is not an int >= 1 and an unknown ``mode`` are each a
    ValueError, a seed that random.Random refuses is its TypeError, and then
    box_draw checks the radius. An exact vector is (numerators, denominator)
    in integers; its point is the Fraction tuple that the float operations
    give on Fraction tuples. A float vector is its own point, and has the
    oracle's dimension, so plus checks no length."""
    count_param("trials", trials)
    mode_param(mode)
    rng = random.Random(rng_seed)
    draw = box_draw(mode, radius, 16)
    if mode == EXACT:
        return rng, draw, _grid_plus, _grid_perp, _grid_scaled, grid_point
    return rng, draw, lambda a, b: tuple(map(operator.add, a, b)), project_floats, scale, lambda v: v


def _grid_plus(a: tuple, b: tuple) -> tuple:
    den = math.lcm(a[1], b[1])
    ka, kb = den // a[1], den // b[1]
    return tuple(x * ka + y * kb for x, y in zip(a[0], b[0])), den


def _grid_perp(v: tuple, basis: list) -> tuple:
    """project_out in integers; the basis vectors' denominators cancel."""
    R, S = project_ints(v[0], [b[0] for b in basis])
    return R, v[1] * S


def _grid_scaled(alpha: Scalar, a: tuple) -> tuple:
    """alpha * a for an int or Fraction alpha."""
    return tuple(alpha.numerator * x for x in a[0]), alpha.denominator * a[1]


def random_orthonormal_plane(rng: random.Random, dim: int) -> tuple:
    """Two float unit vectors spanning a random 2-plane (needs dim >= 2)."""
    if dim < 2:
        raise ValueError("a plane needs dimension >= 2")
    while True:
        e1 = tuple(rng.gauss(0.0, 1.0) for _ in range(dim))
        if not is_zero(e1):
            e1 = normalize(e1)
            break
    while True:
        raw = tuple(rng.gauss(0.0, 1.0) for _ in range(dim))
        e2 = project_out(raw, [e1])
        if math.sqrt(float(dot(e2, e2))) > 1e-8:
            return e1, normalize(e2)


def _ranks_alike(oracle: ComparisonOracle, mode: str, rel: float, a: Vec, b: Vec, c: Vec, d: Vec) -> bool:
    """Whether a vs b ranks like c vs d.

    With a utility both differences are ranked under the trial's one tie
    cut; a bare oracle answers each comparison itself. Float utilities that
    are not finite, or whose differences overflow, are a ValueError.
    """
    u = oracle.utility
    if u is None:
        return oracle.compare(a, b) == oracle.compare(c, d)
    vals = (u(a), u(b), u(c), u(d))
    (cut,) = tie_cuts(vals, mode, rel)
    m1, m2 = vals[0] - vals[1], vals[2] - vals[3]
    if mode != EXACT:
        m1, m2 = float(m1), float(m2)
        if not math.isfinite(m1 + m2 + cut):
            raise _not_finite(vals)
    return ordering_from_diff(m1, cut) == ordering_from_diff(m2, cut)


def check_oioi(
    oracle: ComparisonOracle,
    trials: int,
    rng_seed: int = 0,
    mode: str = FLOAT,
    radius: float = 1.0,
    tie_rel: Optional[float] = None,
) -> AxiomReport:
    """Shifting two alternatives by a direction orthogonal to both marginal
    changes must not alter their ranking.

    Per trial: sample w, x, y and a raw z, replace z by its component
    orthogonal to x and y, and require the ranking of w+x vs w+y to equal
    the ranking of w+x+z vs w+y+z.
    """
    n, rel = oracle.dim, finite_param("tie_rel", tie_rel, default=TIE_REL)
    rng, draw, plus, perp, _, point = _trial_ops(trials, mode, radius, rng_seed)

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        w = draw(rng, n)
        x = draw(rng, n)
        y = draw(rng, n)
        z = perp(draw(rng, n), [x, y])
        wx, wy = plus(w, x), plus(w, y)
        if _ranks_alike(oracle, mode, rel, point(wx), point(wy), point(plus(wx, z)), point(plus(wy, z))):
            return None
        return {"w": point(w), "x": point(x), "y": point(y), "z": point(z)}

    return _run_trials("oioi", trials, rng, trial)


def check_perp_diff(
    oracle: ComparisonOracle,
    trials: int,
    rng_seed: int = 0,
    mode: str = FLOAT,
    radius: float = 1.0,
    tie_rel: Optional[float] = None,
) -> AxiomReport:
    """A common shift orthogonal to the difference of two alternatives must
    not alter their ranking: for d orthogonal to x - y, x vs y ranks like
    x + d vs y + d.
    """
    n, rel = oracle.dim, finite_param("tie_rel", tie_rel, default=TIE_REL)
    rng, draw, plus, perp, scaled, point = _trial_ops(trials, mode, radius, rng_seed)

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        x = draw(rng, n)
        y = draw(rng, n)
        d = perp(draw(rng, n), [plus(x, scaled(-1, y))])  # x - y, the same bits
        if _ranks_alike(oracle, mode, rel, point(x), point(y), point(plus(x, d)), point(plus(y, d))):
            return None
        return {"x": point(x), "y": point(y), "d": point(d)}

    return _run_trials("perp_diff", trials, rng, trial)


def check_soioi(
    oracle: ComparisonOracle,
    trials: int,
    rng_seed: int = 0,
    mode: str = FLOAT,
    radius: float = 1.0,
    tie_rel: Optional[float] = None,
) -> AxiomReport:
    """Two orthogonal-pair comparisons must combine into their sums.

    Per trial: sample w, then x with y forced orthogonal to x and a with b
    forced orthogonal to a. Whenever w+x is at least as good as w+a and
    w+y at least as good as w+b, w+x+y must be at least as good as w+a+b,
    strictly when either antecedent is strict. In float mode an antecedent
    only counts as strict when its margin clears STRICT_REL.
    """
    n, rel = oracle.dim, finite_param("tie_rel", tie_rel, default=TIE_REL)
    rng, draw, plus, perp, _, point = _trial_ops(trials, mode, radius, rng_seed)

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        w = draw(rng, n)
        x = draw(rng, n)
        y = perp(draw(rng, n), [x])
        a = draw(rng, n)
        b = perp(draw(rng, n), [a])
        wx, wa, wy, wb = plus(w, x), plus(w, a), plus(w, y), plus(w, b)
        wxy, wab = plus(wx, y), plus(wa, b)
        if oracle.utility is not None:
            vals = [oracle.utility(point(v)) for v in (wx, wa, wy, wb, wxy, wab)]
            m1, m2, m3 = vals[0] - vals[1], vals[2] - vals[3], vals[4] - vals[5]
            weak_cut, strict_cut = tie_cuts(vals, mode, rel, STRICT_REL)
            if mode != EXACT and not math.isfinite(m1 + m2 + m3 + strict_cut):
                raise _not_finite(vals)
            o1 = 1 if m1 > strict_cut else 0 if m1 >= -weak_cut else -1
            o2 = 1 if m2 > strict_cut else 0 if m2 >= -weak_cut else -1
        else:
            o1, o2 = oracle.compare(point(wx), point(wa)), oracle.compare(point(wy), point(wb))
        if o1 < 0 or o2 < 0:
            return None
        # a bare oracle is asked for the consequent only when both antecedents hold
        o3 = ordering_from_diff(m3, weak_cut) if oracle.utility is not None else oracle.compare(point(wxy), point(wab))
        if o3 < 0 or ((o1 > 0 or o2 > 0) and o3 <= 0):
            return {"w": point(w), "x": point(x), "y": point(y), "a": point(a), "b": point(b)}
        return None

    return _run_trials("soioi", trials, rng, trial)


def _equal_norm_partner(rng: random.Random, x, mode: str):
    """A random vector with the same norm as x, in x's mode (see _trial_ops).

    Exact mode permutes coordinates and flips signs, which preserves the
    squared norm exactly; float mode applies a chain of plane rotations,
    drawn as rng.sample(range(n), 2) and rng.uniform(0, 2*pi) would draw them.
    """
    nums = x[0] if mode == EXACT else x
    n = len(nums)
    if mode == EXACT or n == 1:
        order = list(range(n))
        rng.shuffle(order)
        y = tuple(nums[order[i]] * rng.choice((1, -1)) for i in range(n))
        return (y, x[1]) if mode == EXACT else y
    y = [float(v) for v in x]
    below, unit = rng.randrange, rng.random
    for _ in range(2 * n):
        # sample's draws for k = 2: from a pool up to n = 21, else redrawn until distinct
        i = below(n)
        if n <= 21:
            j = below(n - 1)
            if j == i:
                j = n - 1
        else:
            j = below(n)
            while j == i:
                j = below(n)
        theta = math.tau * unit()  # uniform(0.0, tau): 0.0 + (tau - 0.0)*random()
        ci, sj = math.cos(theta), math.sin(theta)
        y[i], y[j] = ci * y[i] - sj * y[j], sj * y[i] + ci * y[j]
    return tuple(y)


def check_homotheticity(
    oracle: ComparisonOracle,
    trials: int,
    rng_seed: int = 0,
    mode: str = FLOAT,
    radius: float = 1.0,
    tie_rel: Optional[float] = None,
) -> AxiomReport:
    """Equal-norm marginal changes must rank the same at every scale.

    Per trial: sample w and x, build y with the same norm as x, sample a
    scale beta in (0, 10], and require w+x vs w+y to rank like
    w+beta*x vs w+beta*y.
    """
    n, rel = oracle.dim, finite_param("tie_rel", tie_rel, default=TIE_REL)
    rng, draw, plus, _, scaled, point = _trial_ops(trials, mode, radius, rng_seed)

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        w = draw(rng, n)
        x = draw(rng, n)
        y = _equal_norm_partner(rng, x, mode)
        if mode == EXACT:
            beta = _sixteenths(rng.randint(1, 160))
        else:
            beta = 10.0 * rng.random() or 10.0  # uniform(0.0, 10.0), never 0
        wx, wy, bx, by = plus(w, x), plus(w, y), plus(w, scaled(beta, x)), plus(w, scaled(beta, y))
        if _ranks_alike(oracle, mode, rel, point(wx), point(wy), point(bx), point(by)):
            return None
        return {"w": point(w), "x": point(x), "y": point(y), "beta": beta}

    return _run_trials("homotheticity", trials, rng, trial)


def find_monotone_direction(params: SphericalParams) -> Optional[Vec]:
    """A shift z with x + z always at least as good as x, if one exists.

    Only the linear members of the family admit one (z = d works, since the
    utility gain of the shift is d.d >= 0 everywhere); with a quadratic term
    the gain depends on x, so None is returned. Total indifference returns
    the zero vector.
    """
    if params.c == 0:
        return params.d
    return None


def check_strict_convexity(
    params: SphericalParams,
    trials: int,
    rng_seed: int = 0,
    mode: str = FLOAT,
    radius: float = 1.0,
) -> AxiomReport:
    """Midpoints of weakly ranked distinct pairs must strictly beat the
    worse point; holds without violation only for the Euclidean class.

    Even trials sample a free pair and orient it; odd trials construct an
    indifferent pair from the class geometry (reflection through the center
    when c != 0, a shift orthogonal to the gradient when c = 0), which is
    where the linear and anti-Euclidean classes fail. The report's
    ``trials`` counts the requested trials, the skipped ones included (a
    zero shift, or x == y), and its ``evaluated`` leaves them out. A float
    trial whose utilities, or the gap between two of them, overflow is a
    ValueError (preference.rank's).
    """
    n = params.dim
    half = Fraction(1, 2) if params.is_exact and mode == EXACT else 0.5
    center = classify(params).center
    rng, draw, *_, point = _trial_ops(trials, mode, radius, rng_seed)

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        if t % 2 == 0:
            x = point(draw(rng, n))
            y = point(draw(rng, n))
            if compare(params, x, y) is Ordering.WORSE:
                x, y = y, x
        else:
            s = point(draw(rng, n))
            if is_zero(s):
                return _SKIPPED
            if params.c != 0:
                x, y = add(center, s), sub(center, s)
            elif not is_zero(params.d):
                x = point(draw(rng, n))
                y = add(x, project_out(s, [params.d]))
            else:
                x = point(draw(rng, n))
                y = point(draw(rng, n))
        if x == y:
            return _SKIPPED
        mid = tuple(half * (x[i] + y[i]) for i in range(n))
        # an even trial's pair is oriented already: rank is antisymmetric
        weakly_better = t % 2 == 0 or compare(params, x, y) is not Ordering.WORSE
        if weakly_better and compare(params, mid, y) is not Ordering.BETTER:
            return {"x": x, "y": y}
        return None

    return _run_trials("strict_convexity", trials, rng, trial)


def antipodal_indifference(params: SphericalParams, w: Vec, r: float, plane: tuple) -> tuple:
    """Find an indifferent antipodal pair on a circle around w.

    The circle is w + r*(cos t * e1 + sin t * e2) for the orthonormal plane
    (e1, e2). Its points lie on one sphere around w, where u(x) - u(y) =
    n.(x - y) with n = sphere_normal(params, w), so the gap between point(t)
    and its antipode is 2r(a cos t + b sin t) with a = n.e1 and b = n.e2,
    and t = atan2(-a, b) makes it zero. No tolerance is involved. Float
    arithmetic only; a radius r that is not finite and > 0, an entry of
    params, w or the plane beyond the float range, or a point that is not
    finite (NaN parameters, an overflow), is a ValueError.
    """
    finite_param("r", r, positive=True)
    e1, e2 = (to_float(e) for e in plane)
    for e in (e1, e2):
        if abs(float(dot(e, e)) - 1.0) > 1e-9:
            raise ValueError("plane vectors must be unit length")
    if abs(float(dot(e1, e2))) > 1e-9:
        raise ValueError("plane vectors must be orthogonal")
    wf, (c, *d) = to_float(w), to_float((params.c, *params.d))
    normal = sphere_normal(SphericalParams(c, tuple(d)), wf)
    t = math.atan2(-dot(normal, e1), dot(normal, e2))
    ct, st = r * math.cos(t), r * math.sin(t)
    v = tuple(ct * a + st * b for a, b in zip(e1, e2))
    x, y = add(wf, v), sub(wf, v)
    if not all(map(math.isfinite, x + y)):
        raise ValueError(f"the antipodal pair {list(x)}, {list(y)} is not finite")
    return x, y
