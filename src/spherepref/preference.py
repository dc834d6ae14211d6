"""Spherical preference parameters and their ordinal behavior.

A preference in the spherical family is represented by a scalar ``c`` and a
vector ``d`` through the utility ``u(x) = c*(x.x) + d.x``. The sign of ``c``
splits the family into three classes plus total indifference:

* ``c < 0``  Euclidean: ideal point ``x* = -d/(2c)``, closer is better.
* ``c > 0``  anti-Euclidean: worst point ``x* = -d/(2c)``, farther is better.
* ``c = 0, d != 0``  linear with gradient ``d``.
* ``c = 0, d = 0``  total indifference.

Parameters are identified up to positive scaling; :func:`canonicalize` picks
the sphere representative (float mode) or the max-abs-entry representative
(exact mode, no square roots).

Exact parameters with a ``Fraction`` entry are compiled, once and on first
use, into an integer form (L, C, D) with (c, d) = (C, D)/L. An exact point x,
cleared to X/M, then has u(x) = (C*X.X + M*D.X)/(L*M^2): :func:`utility`
builds that one ``Fraction``. :func:`compare` takes the sign of C*Q + M*D.V
over the pair's integer row (M, Q, V) = ``geometry.pair_ints(x, y)`` and
builds none. Values, orderings and result types are those of plain
entry-by-entry arithmetic; float, ``bool`` and mixed points, and parameters
without a ``Fraction``, keep that arithmetic.

The tie rule :func:`rank` raises ValueError on a float utility gap that is
not finite (an overflow, never a tie), so every pairwise comparison does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

from .formats import required, scalar_from_json, to_json, vec_parser
from .geometry import (EXACT, FLOAT, Scalar, Vec, _rational, _same_dim, box_draw, clear_denominators, count_param, dot,
                       is_exact, mode_param, pair_ints, scale, to_float)

# Relative tie tolerance for float-mode comparisons.
TIE_REL = 1e-9

LINEAR = "linear"
EUCLIDEAN = "euclidean"
ANTI_EUCLIDEAN = "anti_euclidean"
INDIFFERENCE = "indifference"
# The payload fields of each class, as PreferenceClass.to_dict writes them.
_PAYLOAD = {LINEAR: ["u"], EUCLIDEAN: ["center"], ANTI_EUCLIDEAN: ["center"], INDIFFERENCE: []}


class Ordering(IntEnum):
    BETTER = 1
    INDIFFERENT = 0
    WORSE = -1


@dataclass(frozen=True)
class SphericalParams:
    """Utility coefficients (c, d) for u(x) = c*(x.x) + d.x."""

    c: Scalar
    d: Vec

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))

    @property
    def dim(self) -> int:
        return len(self.d)

    @property
    def is_zero(self) -> bool:
        return self.c == 0 and all(x == 0 for x in self.d)

    @property
    def is_exact(self) -> bool:
        return is_exact((self.c,) + self.d)

    @cached_property
    def _ints(self) -> Optional[tuple]:
        """(L, C, D) in integers with (c, d) = (C, D)/L, computed on first use;
        None unless every entry is an ``int`` or a ``Fraction`` and one is a
        ``Fraction``. Not a field: equality, hash and repr ignore it."""
        v = (self.c,) + self.d
        if Fraction not in map(type, v) or not _rational(v):
            return None
        L, ints = clear_denominators(v)
        return L, ints[0], tuple(ints[1:])

    def to_exact(self) -> "SphericalParams":
        """The same preference, every entry a ``Fraction`` (floats verbatim); an infinity or a NaN is a ValueError."""
        try:
            return SphericalParams(Fraction(self.c), tuple(map(Fraction, self.d)))
        except (OverflowError, ValueError):  # an infinity or a NaN has no integer ratio
            raise ValueError(f"exact parameters must be finite, not {[self.c, *self.d]}") from None

    def to_dict(self) -> dict:
        return {"c": to_json(self.c), "d": to_json(self.d)}

    @staticmethod
    def from_dict(doc: dict) -> "SphericalParams":
        c, d = scalar_from_json(required(doc, "c")), vec_parser()(required(doc, "d"))
        if not d:
            raise ValueError('"d" must be a non-empty list of scalars')
        return SphericalParams(c, d)


@dataclass(frozen=True)
class PreferenceClass:
    """Tagged classification of a parameter pair.

    ``u`` is set for the linear tag, ``center`` for the Euclidean and
    anti-Euclidean tags; indifference carries no payload.
    """

    tag: str
    u: Optional[Vec] = None
    center: Optional[Vec] = None

    def to_dict(self) -> dict:
        payload = {"u": self.u, "center": self.center}
        return {"class": self.tag, **{k: to_json(v) for k, v in payload.items() if v is not None}}

    @staticmethod
    def from_dict(doc: dict) -> "PreferenceClass":
        """The class to_dict wrote: one of the four tags with exactly its payload, else a ValueError."""
        tag, fields = required(doc, "class"), [k for k in ("u", "center") if k in doc]
        if not isinstance(tag, str) or fields != _PAYLOAD.get(tag):
            raise ValueError(f"class {tag!r} with the fields {fields}; the classes and their fields are {_PAYLOAD}")
        vec = vec_parser()
        return PreferenceClass(tag, **{k: vec(doc[k]) for k in fields})


def utility(p: SphericalParams, x: Vec) -> Scalar:
    """Evaluate c*(x.x) + d.x; one ``Fraction`` through p's integer form.

    A float x pays for one type test before the float arithmetic.
    """
    if x and type(x[0]) is not float:
        ints = p._ints
        if ints is not None and len(x) == len(ints[2]) and _rational(x):
            L, C, D = ints
            M, X = clear_denominators(x)
            return Fraction(C * sum(map(mul, X, X)) + M * sum(map(mul, D, X)), L * M * M)
    try:
        return p.c * dot(x, x) + dot(p.d, x)
    except OverflowError as exc:  # a huge int or Fraction meets a float
        raise ValueError(f"a parameter or coordinate overflows a float: {exc}") from None


def ordering_from_diff(diff: Scalar, tol: Scalar = 0) -> Ordering:
    """Sign of a utility difference; |diff| <= tol counts as a tie."""
    if diff > tol:
        return Ordering.BETTER
    if diff < -tol:
        return Ordering.WORSE
    return Ordering.INDIFFERENT


def _not_finite(vals) -> ValueError:
    """The error for float utilities whose gaps (and tie cut) do not sum to
    a finite float: inf or nan in any of them propagates to the sum."""
    return ValueError(f"the float utilities {list(vals)} or their differences are not finite; "
                      "use exact mode (--exact)")


def rank(ux: Scalar, uy: Scalar) -> Ordering:
    """The pairwise tie rule: utility ux against utility uy.

    An exact difference gives the true sign; a float one ties within the
    relative band TIE_REL*(1+|ux|+|uy|), or is a ValueError if that sum
    or the gap is not finite.
    """
    diff = ux - uy
    if isinstance(diff, float):
        if not math.isfinite(diff + abs(ux) + abs(uy)):
            raise _not_finite((ux, uy))
        return ordering_from_diff(diff, TIE_REL * (1.0 + abs(ux) + abs(uy)))
    return ordering_from_diff(diff)


def tie_cuts(values, mode: str, *rels: float) -> list:
    """The per-trial tie rule: one cut for each relative width in rels.

    Exact mode cuts at 0 (the true sign); float mode at
    rel*(1 + max |v|) over all the utility values of the trial, so every
    comparison inside one trial shares the same band.
    """
    if mode == EXACT:
        return [0] * len(rels)
    scale_ = 1.0 + max(map(abs, map(float, values)))
    return [rel * scale_ for rel in rels]


def compare(p: SphericalParams, x: Vec, y: Vec) -> Ordering:
    """Rank x against y under p: rank(u(x), u(y)).

    rank is the pairwise half of the package's one tie rule (the true sign
    when exact, a TIE_REL*(1+|u(x)|+|u(y)|) band in floats). The axiom
    checkers, which see all the utilities of a trial, use its per-trial
    half, tie_cuts, with TIE_REL for ties and axioms.STRICT_REL for strict
    claims. Two exact points under p's integer form are ranked by the sign
    of C*Q + M*D.V over their row (M, Q, V) = pair_ints(x, y), the kernel
    of the LP rows and of both verifiers in ``rationalize``.
    """
    if x and type(x[0]) is not float:
        ints = p._ints
        if ints is not None and len(x) == len(y) == len(ints[2]) and _rational((*x, *y)):
            _, C, D = ints
            M, Q, V = pair_ints(x, y)
            return ordering_from_diff(C * Q + M * sum(map(mul, D, V)))
    return rank(utility(p, x), utility(p, y))


def classify(p: SphericalParams) -> PreferenceClass:
    """Classify (c, d) by the sign of c; center is -d/(2c) when c != 0.

    A float center that overflows (or is NaN) is a ValueError.
    """
    if p.c == 0:
        if all(x == 0 for x in p.d):
            return PreferenceClass(INDIFFERENCE)
        return PreferenceClass(LINEAR, u=p.d)
    if isinstance(p.c, float):
        # one rounding of -1/(2c), as -1.0/(2.0*c), but 2c cannot overflow
        factor: Scalar = -0.5 / p.c
    else:
        factor = Fraction(-1, 2) / Fraction(p.c)
    try:
        center = scale(factor, p.d)
    except OverflowError as exc:  # a huge int or Fraction meets a float
        raise ValueError(f"the center -d/(2c) overflows a float: {exc}") from None
    if any(isinstance(x, float) and not math.isfinite(x) for x in center):
        raise ValueError(f"the center -d/(2c) is not finite in floats: {list(center)}")
    tag = EUCLIDEAN if p.c < 0 else ANTI_EUCLIDEAN
    return PreferenceClass(tag, center=center)


def canonicalize(p: SphericalParams, mode: str | None = None) -> SphericalParams:
    """Positively rescale (c, d) to its canonical representative.

    Float mode divides by the Euclidean length of (c, d), landing on the unit
    sphere (by the largest absolute entry first if that length overflows or
    underflows). Exact mode divides by the largest absolute entry instead,
    keeping every coordinate rational. Both represent the same preference.
    The zero pair (total indifference), or one with an infinity or a NaN,
    has no canonical form and raises ValueError.
    """
    if p.is_zero:
        raise ValueError("the indifference preference has no canonical parameters")
    if mode is None:
        mode = EXACT if p.is_exact else FLOAT
    if mode_param(mode) == EXACT:
        q = p.to_exact()
        m = max(abs(q.c), *(abs(x) for x in q.d)) if q.d else abs(q.c)
        return SphericalParams(q.c / m, tuple(x / m for x in q.d))
    c, *d = to_float((p.c, *p.d))
    length = math.sqrt(c * c + dot(d, d))  # left to right: the same bits on every Python
    if not 0 < length < math.inf:
        m = max(map(abs, (c, *d)))  # NaN in c makes m NaN
        if not (0 < m < math.inf and all(map(math.isfinite, d))):
            raise ValueError(f"float parameters must be finite and not all zero, not {[c, *d]}")
        c, d = c / m, tuple(x / m for x in d)
        length = math.sqrt(c * c + dot(d, d))
    return SphericalParams(c / length, tuple(x / length for x in d))


def sphere_normal(p: SphericalParams, w: Vec) -> Vec:
    """Gradient 2c*w + d of the utility at w.

    Points x, y on a common sphere around w are indifferent exactly when
    this vector is orthogonal to x - y, since on that sphere
    u(x) - u(y) = (2c*w + d).(x - y).
    """
    _same_dim(p.d, w)
    return tuple(2 * p.c * w[i] + p.d[i] for i in range(p.dim))


def preference_distance(p1: SphericalParams, p2: SphericalParams) -> float:
    """Geodesic distance in [0, pi] between unit-sphere representatives."""
    _same_dim(p1.d, p2.d)
    a = canonicalize(p1, FLOAT)
    b = canonicalize(p2, FLOAT)
    inner = a.c * b.c + dot(a.d, b.d)
    return math.acos(max(-1.0, min(1.0, inner)))


def distinguishing_pair(
    p1: SphericalParams,
    p2: SphericalParams,
    rng,
    probes: int = 1000,
    radius: float = 1.0,
) -> Optional[tuple[Vec, Vec]]:
    """Search for (x, y) ranked differently by p1 and p2.

    Float draws from geometry.box_draw; returns the first pair on which the
    two comparisons disagree, or None when the probe budget is exhausted.
    """
    count_param("probes", probes)
    n, draw = p1.dim, box_draw(FLOAT, radius, 16)
    for _ in range(probes):
        x, y = draw(rng, n), draw(rng, n)
        if compare(p1, x, y) != compare(p2, x, y):
            return (x, y)
    return None
