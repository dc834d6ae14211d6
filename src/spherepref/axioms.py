"""Executable checkers for the axioms of the spherical family.

Each checker draws seeded samples, builds the orthogonality hypotheses
constructively (projection, never rejection sampling), queries a comparison
oracle, and reports violations with the first counterexample found. One
driver, _run_trials, owns the seeded loop and the report for every checker.

Two kinds of oracle are supported. A bare comparison oracle is a black box
(x, y) -> ordering. An oracle that also exposes its utility lets a checker
classify all the orderings inside one trial under one tie rule: the cuts of
preference.tie_cuts, TIE_REL wide for ties and STRICT_REL wide for strict
claims, shared by the whole trial, which removes spurious boundary flips in
float mode; exact mode uses the true sign. Pairwise comparisons (the oracles
built here and preference.compare) follow preference.rank. For black-box
oracles the absence of violations is reported as "no violation found in N
trials", never as the axiom holding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .formats import scalar_to_json, vec_to_json
from .geometry import (
    EXACT,
    FLOAT,
    Scalar,
    Vec,
    add,
    dot,
    is_zero,
    normalize,
    project_out,
    scale,
    sub,
    to_float,
)
from .preference import (
    TIE_REL,
    Ordering,
    SphericalParams,
    classify,
    compare,
    ordering_from_diff,
    rank,
    tie_cuts,
    utility,
)

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
    """Oracle backed by spherical parameters, with utility access."""
    return ComparisonOracle(
        dim=params.dim,
        compare=lambda x, y: compare(params, x, y),
        utility=lambda x: utility(params, x),
        name="spherical",
    )


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
    axiom: str
    trials: int
    violations: int
    counterexample: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = {
                k: (vec_to_json(v) if isinstance(v, tuple) else scalar_to_json(v))
                for k, v in self.counterexample.items()
            }
        return {
            "axiom": self.axiom,
            "trials": self.trials,
            "violations": self.violations,
            "counterexample": ce,
        }


def _run_trials(axiom: str, trials: int, rng_seed: int, trial: Callable) -> AxiomReport:
    """The seeded trial loop of every checker.

    ``trial(rng, t)`` runs trial number t on the shared generator and returns
    its counterexample dict, or None when the trial finds no violation.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(rng_seed)
    violations = 0
    first = None
    for t in range(trials):
        found = trial(rng, t)
        if found is not None:
            violations += 1
            if first is None:
                first = found
    return AxiomReport(axiom, trials, violations, first)


def sample_vector(rng: random.Random, dim: int, mode: str = FLOAT, radius: float = 1.0) -> Vec:
    """One random point of the checking box, rational in exact mode."""
    if mode == EXACT:
        span = max(1, round(float(radius) * 16))
        return tuple(Fraction(rng.randint(-span, span), 16) for _ in range(dim))
    # random.uniform(lo, hi)'s formula lo + (hi - lo)*random(), hi - lo = hi + hi
    lo, hi = -float(radius), float(radius)
    width, draw = hi + hi, rng.random
    return tuple(lo + width * draw() for _ in range(dim))


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
    cut; a bare oracle answers each comparison itself.
    """
    u = oracle.utility
    if u is None:
        return oracle.compare(a, b) == oracle.compare(c, d)
    vals = (u(a), u(b), u(c), u(d))
    (cut,) = tie_cuts(vals, mode, rel)
    m1, m2 = vals[0] - vals[1], vals[2] - vals[3]
    if mode != EXACT:
        m1, m2 = float(m1), float(m2)
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
    n, rel = oracle.dim, TIE_REL if tie_rel is None else tie_rel

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        w = sample_vector(rng, n, mode, radius)
        x = sample_vector(rng, n, mode, radius)
        y = sample_vector(rng, n, mode, radius)
        z = project_out(sample_vector(rng, n, mode, radius), [x, y])
        wx, wy = add(w, x), add(w, y)
        if _ranks_alike(oracle, mode, rel, wx, wy, add(wx, z), add(wy, z)):
            return None
        return {"w": w, "x": x, "y": y, "z": z}

    return _run_trials("oioi", trials, rng_seed, trial)


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
    n, rel = oracle.dim, TIE_REL if tie_rel is None else tie_rel

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        x = sample_vector(rng, n, mode, radius)
        y = sample_vector(rng, n, mode, radius)
        d = project_out(sample_vector(rng, n, mode, radius), [sub(x, y)])
        if _ranks_alike(oracle, mode, rel, x, y, add(x, d), add(y, d)):
            return None
        return {"x": x, "y": y, "d": d}

    return _run_trials("perp_diff", trials, rng_seed, trial)


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
    n, rel = oracle.dim, TIE_REL if tie_rel is None else tie_rel

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        w = sample_vector(rng, n, mode, radius)
        x = sample_vector(rng, n, mode, radius)
        y = project_out(sample_vector(rng, n, mode, radius), [x])
        a = sample_vector(rng, n, mode, radius)
        b = project_out(sample_vector(rng, n, mode, radius), [a])
        wx, wa, wy, wb = add(w, x), add(w, a), add(w, y), add(w, b)
        wxy, wab = add(wx, y), add(wa, b)
        bad = False
        if oracle.utility is not None:
            vals = [oracle.utility(v) for v in (wx, wa, wy, wb, wxy, wab)]
            m1, m2, m3 = vals[0] - vals[1], vals[2] - vals[3], vals[4] - vals[5]
            weak_cut, strict_cut = tie_cuts(vals, mode, rel, STRICT_REL)
            if m1 >= -weak_cut and m2 >= -weak_cut:
                if m3 < -weak_cut:
                    bad = True
                elif (m1 > strict_cut or m2 > strict_cut) and not m3 > weak_cut:
                    bad = True
        else:
            o1, o2 = oracle.compare(wx, wa), oracle.compare(wy, wb)
            if o1 >= 0 and o2 >= 0:
                o3 = oracle.compare(wxy, wab)
                if o3 < 0 or ((o1 > 0 or o2 > 0) and o3 <= 0):
                    bad = True
        return {"w": w, "x": x, "y": y, "a": a, "b": b} if bad else None

    return _run_trials("soioi", trials, rng_seed, trial)


def _equal_norm_partner(rng: random.Random, x: Vec, mode: str) -> Vec:
    """A random vector with the same norm as x.

    Exact mode permutes coordinates and flips signs, which preserves the
    squared norm exactly; float mode applies a chain of plane rotations.
    """
    n = len(x)
    if mode == EXACT or n == 1:
        order = list(range(n))
        rng.shuffle(order)
        return tuple(x[order[i]] * rng.choice((1, -1)) for i in range(n))
    y = [float(v) for v in x]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
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
    n, rel = oracle.dim, TIE_REL if tie_rel is None else tie_rel

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        w = sample_vector(rng, n, mode, radius)
        x = sample_vector(rng, n, mode, radius)
        y = _equal_norm_partner(rng, x, mode)
        if mode == EXACT:
            beta = Fraction(rng.randint(1, 160), 16)
        else:
            beta = rng.uniform(0.0, 10.0) or 10.0
        if _ranks_alike(oracle, mode, rel, add(w, x), add(w, y), add(w, scale(beta, x)), add(w, scale(beta, y))):
            return None
        return {"w": w, "x": x, "y": y, "beta": beta}

    return _run_trials("homotheticity", trials, rng_seed, trial)


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
    where the linear and anti-Euclidean classes fail.
    """
    n = params.dim
    half = Fraction(1, 2) if params.is_exact and mode == EXACT else 0.5
    center = classify(params).center

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        if t % 2 == 0:
            x = sample_vector(rng, n, mode, radius)
            y = sample_vector(rng, n, mode, radius)
            if compare(params, x, y) is Ordering.WORSE:
                x, y = y, x
        else:
            s = sample_vector(rng, n, mode, radius)
            if is_zero(s):
                return None
            if params.c != 0:
                x, y = add(center, s), sub(center, s)
            elif not is_zero(params.d):
                x = sample_vector(rng, n, mode, radius)
                y = add(x, project_out(s, [params.d]))
            else:
                x = sample_vector(rng, n, mode, radius)
                y = sample_vector(rng, n, mode, radius)
        if x == y:
            return None
        mid = tuple(half * (x[i] + y[i]) for i in range(n))
        # an even trial's pair is oriented already: rank is antisymmetric
        weakly_better = t % 2 == 0 or compare(params, x, y) is not Ordering.WORSE
        if weakly_better and compare(params, mid, y) is not Ordering.BETTER:
            return {"x": x, "y": y}
        return None

    return _run_trials("strict_convexity", trials, rng_seed, trial)


def antipodal_indifference(
    params: SphericalParams,
    w: Vec,
    r: float,
    plane: tuple,
    tol: Optional[float] = None,
) -> tuple:
    """Find an indifferent antipodal pair on a circle around w.

    The circle is w + r*(cos t * e1 + sin t * e2) for the orthonormal plane
    (e1, e2). The gap g(t) = u(point(t)) - u(point(t + pi)) satisfies
    g(t + pi) = -g(t), so it either vanishes at t = 0 or changes sign on
    [0, pi]; bisection then drives it below tol = 1e-9 * (1 + r^2).
    Float arithmetic only.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    e1, e2 = (to_float(e) for e in plane)
    for e in (e1, e2):
        if abs(float(dot(e, e)) - 1.0) > 1e-9:
            raise ValueError("plane vectors must be unit length")
    if abs(float(dot(e1, e2))) > 1e-9:
        raise ValueError("plane vectors must be orthogonal")
    p = SphericalParams(float(params.c), to_float(params.d))
    wf = to_float(w)
    r = float(r)
    if tol is None:
        tol = 1e-9 * (1.0 + r * r)

    def point(t: float) -> Vec:
        ct, st = r * math.cos(t), r * math.sin(t)
        return tuple(wf[i] + ct * e1[i] + st * e2[i] for i in range(len(wf)))

    def gap(t: float) -> float:
        return utility(p, point(t)) - utility(p, point(t + math.pi))

    lo, glo = 0.0, gap(0.0)
    if abs(glo) <= tol:
        return point(lo), point(lo + math.pi)
    hi, ghi = math.pi, gap(math.pi)
    if glo * ghi > 0:  # pragma: no cover - contradicts g(t+pi) = -g(t)
        raise RuntimeError("no sign change on the half circle; numerical mode bug")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = gap(mid)
        if abs(gmid) <= tol:
            return point(mid), point(mid + math.pi)
        if glo * gmid < 0:
            hi = mid
        else:
            lo, glo = mid, gmid
    raise RuntimeError("bisection failed to meet the indifference tolerance")  # pragma: no cover
