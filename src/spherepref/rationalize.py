"""Rationalizability of finite comparison data by a spherical preference.

The data is a pair of finite relations over points of R^n: ``weak`` pairs
(x, y) meaning x is at least as good as y, and ``strict`` pairs meaning x is
better. A spherical utility c*(x.x) + d.x rationalizes the data exactly when

    c*(x.x - y.y) + d.(x - y) >= 0   for every weak pair,
    c*(x.x - y.y) + d.(x - y) >  0   for every strict pair.

Strictness is decided by an epsilon-maximization: the system is positively
homogeneous in (c, d), so after boxing the coefficients into [-1, 1] a strict
solution exists iff the optimal common margin is positive. The converse
route is :func:`certificate_lp`: nonnegative weights on the observations
summing to one whose weighted quadratic terms and weighted difference
vectors both cancel, with positive mass on the strict side, certify that no
spherical preference fits. The two routes are exact-arithmetic LPs and must
agree on every dataset; each negative verdict carries its certificate.

Class-restricted variants force the sign of c: zero for linear (c = 0, no
quadratic cancellation), negative for Euclidean, positive for anti-Euclidean.
A signed restriction is one more strict observation (L, Q, V) = (1, sign, 0),
c*sign > 0, whose certificate weight is ``restriction_weight``.

Rows are built in integers once per pair by ``geometry.pair_ints``: with L
the lcm of the pair's coordinate denominators (floats taken verbatim),
X = L*x and Y = L*y, the row is (Q / L^2, V / L) for Q = X.X - Y.Y and
V = X - Y. The exact margin LP gets its primitive integer multiple; float
mode rounds each entry once. The verifiers read the same rows.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite
from operator import truediv
from typing import Optional

from . import lp
from .formats import required, scalar_to_json, vec_parser, vec_to_json
from .geometry import (EXACT, DimensionMismatch, Scalar, Vec, box_draw, clear_denominators, count_param, dot,
                       finite_param, grid_point, mode_param, pair_ints, sub, to_exact)
from .preference import Ordering, SphericalParams, compare

RESTRICT_LINEAR = "linear"
RESTRICT_EUCLIDEAN = "euclidean"
RESTRICT_ANTI_EUCLIDEAN = "anti_euclidean"
_SIGN = {RESTRICT_LINEAR: 0, RESTRICT_EUCLIDEAN: -1, RESTRICT_ANTI_EUCLIDEAN: 1}

_SMALL_DIM_NOTE = (
    "dimension < 3: the axiomatic characterization of spherical preferences "
    "requires n >= 3; this verdict tests the parametric family directly"
)

# Float-mode margin below which an epsilon optimum counts as zero.
_FLOAT_MARGIN = 1e-9

# Above this many observation rows the margin LP is solved by row
# generation: solve on a subset, add violated rows, repeat. The verdict and
# margin are those of the full program (a point feasible for every row at
# the subset's optimal margin is optimal for the whole program, since adding
# rows can only lower the optimum); only the solve order changes.
_ROWGEN_THRESHOLD = 120
_ROWGEN_INITIAL = 80
_ROWGEN_BATCH = 60


class FloatUndecided(ValueError):
    """Float arithmetic could not decide the data (overflow or rounding)."""


def _undecided(mode: str, what: str) -> Exception:
    """The error for an LP outcome that exact duality rules out."""
    if mode == EXACT:  # pragma: no cover - exact duality rules it out
        return RuntimeError(what)
    return FloatUndecided(f"float arithmetic could not decide these data ({what}); use exact mode (--exact)")


@dataclass(frozen=True)
class ObservationSet:
    """Finite weak and strict comparison data over points of R^n."""

    dimension: int
    weak: tuple
    strict: tuple

    def __post_init__(self):
        object.__setattr__(self, "weak", tuple((tuple(x), tuple(y)) for x, y in self.weak))
        object.__setattr__(self, "strict", tuple((tuple(x), tuple(y)) for x, y in self.strict))
        for x, y in self.weak + self.strict:
            if len(x) != self.dimension or len(y) != self.dimension:
                raise DimensionMismatch(
                    f"observation of dimension {len(x)}x{len(y)} in data of dimension {self.dimension}"
                )

    def __len__(self) -> int:
        return len(self.weak) + len(self.strict)

    def to_exact(self) -> "ObservationSet":
        return ObservationSet(
            self.dimension,
            tuple((to_exact(x), to_exact(y)) for x, y in self.weak),
            tuple((to_exact(x), to_exact(y)) for x, y in self.strict),
        )

    def labels(self) -> list:
        return [f"weak:{i}" for i in range(len(self.weak))] + [
            f"strict:{i}" for i in range(len(self.strict))
        ]

    def pairs(self) -> list:
        return list(self.weak) + list(self.strict)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "weak": [{"better": vec_to_json(x), "worse": vec_to_json(y)} for x, y in self.weak],
            "strict": [{"better": vec_to_json(x), "worse": vec_to_json(y)} for x, y in self.strict],
        }

    @staticmethod
    def from_dict(doc: dict) -> "ObservationSet":
        vec = vec_parser()

        def pairs(key):
            items = doc.get(key, [])
            if not isinstance(items, list) or not all(isinstance(p, dict) for p in items):
                raise ValueError(f'"{key}" must be a list of {{"better": ..., "worse": ...}} objects')
            return tuple((vec(required(p, "better")), vec(required(p, "worse"))) for p in items)

        n = required(doc, "dimension")
        if type(n) is not int or not 1 <= n <= sys.maxsize:
            raise ValueError(f'"dimension" must be an integer from 1 to {sys.maxsize}, not {n!r}')
        return ObservationSet(n, pairs("weak"), pairs("strict"))


@dataclass(frozen=True)
class CertificateSearch:
    """Outcome of the dual search: maximal strict mass and an optimizer.

    ``p_mass`` is the largest total weight placeable on the strict side
    (plus the restriction weight, for restricted searches) subject to the
    cancellation equalities; the data is rationalizable iff it is zero.
    """

    p_mass: Scalar
    weights: Optional[dict]  # label -> weight, when p_mass > 0 is achievable
    restriction_weight: Optional[Scalar] = None


@dataclass(frozen=True)
class RationalizabilityVerdict:
    rationalizable: bool
    witness: Optional[SphericalParams] = None
    epsilon: Optional[Scalar] = None
    certificate: Optional[dict] = None
    p_mass: Optional[Scalar] = None
    restriction: Optional[str] = None
    restriction_weight: Optional[Scalar] = None
    note: Optional[str] = None

    def to_dict(self) -> dict:
        doc = {"rationalizable": self.rationalizable}
        if self.witness is not None:
            doc["witness"] = self.witness.to_dict()
        if self.epsilon is not None:
            doc["epsilon"] = scalar_to_json(self.epsilon)
        if self.certificate is not None:
            doc["certificate"] = {k: scalar_to_json(v) for k, v in self.certificate.items()}
        if self.p_mass is not None:
            doc["p_mass"] = scalar_to_json(self.p_mass)
        if self.restriction is not None:
            doc["restriction"] = self.restriction
        if self.restriction_weight is not None:
            doc["restriction_weight"] = scalar_to_json(self.restriction_weight)
        if self.note is not None:
            doc["note"] = self.note
        return doc


def _pair_row(x: Vec, y: Vec):
    """Coefficients (x.x - y.y, x - y) of one observation's inequality."""
    return dot(x, x) - dot(y, y), sub(x, y)


def _observation_rows(data: ObservationSet, mode: str) -> list:
    """:func:`pair_ints` of each pair; float mode rounds each entry once, as (1, q, v),
    except that a pair with a float coordinate keeps :func:`_pair_row`'s arithmetic."""
    if mode == EXACT:
        return [pair_ints(x, y) for x, y in data.pairs()]
    rows = []
    try:
        for x, y in data.pairs():
            if any(isinstance(c, float) for c in x + y):
                q, v = _pair_row(x, y)
            else:
                L, Q, V = pair_ints(x, y)
                q, v = Q / (L * L), [c / L for c in V]
            q, v = float(q), tuple(map(float, v))
            if not all(map(isfinite, (q, *v))):  # a float square or difference overflows to inf or nan
                raise OverflowError
            rows.append((1, q, v))
    except OverflowError:
        raise _undecided(mode, "a coordinate or its square overflows a float") from None
    return rows


def _moved_rows(data: ObservationSet, mode: str) -> tuple:
    """:func:`_observation_rows` with each V cut down to the coordinates some
    pair moves, and those coordinates. Another coordinate would only add box
    rows and split columns to the margin LP and zero rows to the certificate LP."""
    rows = _observation_rows(data, mode)
    used = [j for j, col in enumerate(zip(*(V for _, _, V in rows))) if any(col)]
    return [(L, Q, tuple([V[j] for j in used])) for L, Q, V in rows], used


def _margin_row(row: tuple, strict: bool, exact: bool) -> tuple:
    """The margin LP's row (x.x - y.y, x - y, -1 if strict else 0) from the pair's
    (L, Q, V); exact mode makes it a primitive integer row, a positive multiple."""
    L, Q, V = row
    coeffs = (Q,) + tuple(L * v for v in V) + (-L * L if strict else 0,)
    g = gcd(*coeffs) if exact else 1
    return tuple(v // g for v in coeffs) if g > 1 else coeffs


def _sign(restriction: Optional[str]) -> Optional[int]:
    """The sign a restriction forces on c; None for no restriction."""
    if restriction is not None and restriction not in _SIGN:
        raise ValueError(f"unknown restriction {restriction!r}")
    return _SIGN.get(restriction)


def _sign_row(sign: int, n: int) -> tuple:
    """The strict observation (L, Q, V) = (1, sign, 0): c*sign > 0."""
    return 1, sign, (0,) * n


def rationalize(
    data: ObservationSet,
    restriction: Optional[str] = None,
    mode: str = EXACT,
    float_margin: float = _FLOAT_MARGIN,
) -> RationalizabilityVerdict:
    """Decide rationalizability, returning a witness or a certificate.

    Builds the margin LP over variables (c, u_1..u_n, eps): maximize eps
    subject to weak rows >= 0, strict rows >= eps, the box |c|, |u_i| <= 1,
    0 <= eps <= 1, and the class restriction if any. The data is
    rationalizable (within the class) iff the optimum is positive; then the
    optimal (c, u) is returned as a witness. Otherwise the certificate
    search runs and its optimizer is attached. Both LPs cover only the
    coordinates some pair moves; the others are zero in the witness. In
    float mode an optimum below ``float_margin`` counts as zero; exact mode
    ignores it, but a ``float_margin`` that is negative or not finite raises
    ValueError in both modes. Float mode raises :class:`FloatUndecided` when
    rounding or overflow leaves neither a witness nor a certificate.
    """
    finite_param("float_margin", float_margin)
    sign = _sign(restriction)
    exact = mode_param(mode) == EXACT
    rows, used = _moved_rows(data, mode)
    n = len(used)
    ncoef = n + 1  # c plus u
    eps_col = ncoef

    nweak = len(data.weak)
    pair_rows = [_margin_row(row, i >= nweak, exact) for i, row in enumerate(rows)]

    # c*sign >= eps, after the data rows; row generation keeps it active
    always = (lp.Constraint(_margin_row(_sign_row(sign, n), True, exact), lp.GE, 0),) if sign else ()
    bounds = ((0, 0) if sign == 0 else (-1, 1),) + ((-1, 1),) * n + ((0, 1),)
    objective = (0,) * ncoef + (1,)

    # one round with every row, or row generation from a subset above the threshold
    total = len(pair_rows)
    active = list(range(total if total <= _ROWGEN_THRESHOLD else _ROWGEN_INITIAL))
    in_active = set(active)
    while True:
        cons = tuple(lp.Constraint(pair_rows[i], lp.GE, 0) for i in active) + always
        outcome = lp.solve(lp.LinearProgram(objective, cons, bounds), mode=mode)
        if outcome.status != lp.OPTIMAL:  # 0 is feasible and the box bounds it
            raise _undecided(mode, f"margin LP terminated with status {outcome.status}")
        sol = clear_denominators(outcome.primal)[1] if exact else outcome.primal  # exact: a positive multiple
        violated = [i for i in range(total) if i not in in_active and dot(pair_rows[i], sol) < 0]
        if not violated:
            break
        active += violated[:_ROWGEN_BATCH]
        in_active.update(violated[:_ROWGEN_BATCH])

    eps = outcome.primal[eps_col]
    margin_cut = 0 if exact else float_margin
    note = _SMALL_DIM_NOTE if data.dimension < 3 else None
    if eps > margin_cut:
        d = [Fraction(0) if exact else 0.0] * data.dimension  # what lp.solve gives a never-basic variable
        for j, v in zip(used, outcome.primal[1:eps_col]):
            d[j] = v
        return RationalizabilityVerdict(
            True,
            witness=SphericalParams(outcome.primal[0], d),
            epsilon=eps,
            restriction=restriction,
            note=note,
        )
    search = _certificate_search(data, rows, restriction, mode, float_margin)
    if search.weights is None:  # duality guarantees a witness or a certificate
        raise _undecided(mode, "margin LP found no strict solution but no certificate exists")
    return RationalizabilityVerdict(
        False,
        epsilon=eps,
        certificate=search.weights,
        p_mass=search.p_mass,
        restriction=restriction,
        restriction_weight=search.restriction_weight,
        note=note,
    )


def certificate_lp(data: ObservationSet, mode: str = EXACT) -> CertificateSearch:
    """Maximize strict mass over cancelling observation weights.

    Independent converse route to :func:`rationalize`: over nonnegative
    weights lambda on the observations with total mass one, subject to
    sum(lambda * (x.x - y.y)) = 0 and sum(lambda * (x - y)) = 0, maximize
    the mass on strict observations. The data is rationalizable iff the
    optimum is zero (an infeasible search counts as zero).
    """
    return _certificate_search(data, _moved_rows(data, mode_param(mode))[0], None, mode)


def _certificate_search(
    data: ObservationSet,
    rows: list,
    restriction: Optional[str],
    mode: str,
    float_margin: float = _FLOAT_MARGIN,
) -> CertificateSearch:
    """The certificate LP over ``rows``, the (L, Q, V) of :func:`_observation_rows`
    or :func:`_moved_rows`; its weights are the output, so each entry is the
    true Q / L^2 or V / L. A signed restriction's row is the last strict column."""
    n = len(rows[0][2]) if rows else 0
    sign = _sign(restriction)
    ratio = Fraction if mode == EXACT else truediv
    if sign:
        rows = rows + [_sign_row(sign, n)]
    k = len(rows)

    constraints = [lp.Constraint((1,) * k, lp.EQ, 1)]
    if sign != 0:
        constraints.append(lp.Constraint([ratio(Q, L * L) for L, Q, _ in rows], lp.EQ, 0))
    for i in range(n):
        constraints.append(lp.Constraint([ratio(V[i], L) for L, _, V in rows], lp.EQ, 0))

    objective = (0,) * len(data.weak) + (1,) * (k - len(data.weak))
    program = lp.LinearProgram(
        objective=objective,
        constraints=tuple(constraints),
        bounds=((0, None),) * k,
    )
    outcome = lp.solve(program, mode=mode)
    if outcome.status == lp.INFEASIBLE:
        return CertificateSearch(p_mass=0, weights=None)
    if outcome.status != lp.OPTIMAL:  # the total mass bounds the weights
        raise _undecided(mode, f"certificate LP terminated with status {outcome.status}")
    zero_cut = 0 if mode == EXACT else float_margin
    if outcome.objective_value <= zero_cut:
        return CertificateSearch(p_mass=outcome.objective_value, weights=None)
    weights = {lbl: w for lbl, w in zip(data.labels(), outcome.primal) if w != 0}
    mu = outcome.primal[-1] if sign else None
    return CertificateSearch(
        p_mass=outcome.objective_value,
        weights=weights,
        restriction_weight=mu,
    )


def verify_witness(data: ObservationSet, params: SphericalParams) -> bool:
    """Exact re-check: weak pairs weakly higher utility, strict pairs strictly.

    The witness and the points count verbatim as rationals (floats are
    dyadic), and each pair is ranked by :func:`preference.compare`: its sign
    is that of C*Q + L*D.V over the pair's row :func:`pair_ints` and the
    witness's integer form (C, D). A NaN or infinite coefficient fails.
    """
    try:
        c, *d = to_exact((params.c, *params.d))
    except (ValueError, OverflowError):  # Fraction of a NaN or an infinity
        return False
    p = SphericalParams(c, d)
    if not all(compare(p, to_exact(x), to_exact(y)) >= Ordering.INDIFFERENT for x, y in data.weak):
        return False
    return all(compare(p, to_exact(x), to_exact(y)) is Ordering.BETTER for x, y in data.strict)


def verify_certificate(
    data: ObservationSet,
    weights: dict,
    restriction: Optional[str] = None,
    restriction_weight: Optional[Scalar] = None,
) -> bool:
    """Exact re-check of a negative verdict's certificate.

    Weights lie in the simplex over the observations, place positive mass
    on the strict side, and cancel both the quadratic terms and the
    difference vectors; a signed restriction's row is one more strict
    observation, weighted by ``restriction_weight`` (which the other
    searches lack), and the linear search drops the quadratic cancellation.
    Each pair's terms are Q / L^2 and V / L over its row :func:`pair_ints`
    (floats verbatim). A weight whose label names no observation, or that is
    a NaN or an infinity, is rejected.
    """
    sign = _sign(restriction)
    labels = data.labels()
    if not set(weights) <= set(labels) or (restriction_weight and not sign):
        return False
    lam = [weights.get(lbl, 0) for lbl in labels]
    rows = [pair_ints(x, y) for x, y in data.pairs()]
    if sign:
        lam.append(restriction_weight or 0)
        rows.append(_sign_row(sign, data.dimension))
    try:
        lam = [Fraction(w) for w in lam]
    except (ValueError, OverflowError):  # Fraction of a NaN or an infinity
        return False
    if any(w < 0 for w in lam) or sum(lam) != 1 or sum(lam[len(data.weak) :]) <= 0:
        return False
    if any(sum(w * Fraction(V[i], L) for w, (L, _, V) in zip(lam, rows)) for i in range(data.dimension)):
        return False
    return sign == 0 or sum(w * Fraction(Q, L * L) for w, (L, Q, _) in zip(lam, rows)) == 0


def generate_dataset(
    params: SphericalParams,
    count: int,
    rng_seed: int,
    radius: Scalar = 2,
) -> ObservationSet:
    """Sample comparison data consistent with the given parameters.

    Pairs are drawn by geometry.box_draw on the 1/8 grid. Strict
    comparisons enter the strict relation oriented by the preference, exact
    ties enter the weak relation in both orientations. The output is
    rationalizable by construction.
    """
    count_param("count", count)
    draw = box_draw(EXACT, radius, 8)
    rng = random.Random(rng_seed)
    n = params.dim
    p = SphericalParams(Fraction(params.c), tuple(Fraction(v) for v in params.d))
    weak = []
    strict = []
    for _ in range(count):
        x, y = grid_point(draw(rng, n)), grid_point(draw(rng, n))
        order = compare(p, x, y)
        if order is Ordering.BETTER:
            strict.append((x, y))
        elif order is Ordering.WORSE:
            strict.append((y, x))
        else:
            weak.append((x, y))
            weak.append((y, x))
    return ObservationSet(n, tuple(weak), tuple(strict))
