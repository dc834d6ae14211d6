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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Optional

from .formats import scalar_from_json, scalar_to_json, vec_from_json, vec_to_json
from .geometry import (
    EXACT,
    FLOAT,
    DimensionMismatch,
    Scalar,
    Vec,
    dot,
    is_exact,
    scale,
    to_float,
)

# Relative tie tolerance for float-mode comparisons.
TIE_REL = 1e-9

LINEAR = "linear"
EUCLIDEAN = "euclidean"
ANTI_EUCLIDEAN = "anti_euclidean"
INDIFFERENCE = "indifference"


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

    def to_dict(self) -> dict:
        return {"c": scalar_to_json(self.c), "d": vec_to_json(self.d)}

    @staticmethod
    def from_dict(doc: dict) -> "SphericalParams":
        c, d = scalar_from_json(doc["c"]), vec_from_json(doc["d"])
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
        doc = {"class": self.tag}
        if self.u is not None:
            doc["u"] = vec_to_json(self.u)
        if self.center is not None:
            doc["center"] = vec_to_json(self.center)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "PreferenceClass":
        return PreferenceClass(
            doc["class"],
            u=vec_from_json(doc["u"]) if "u" in doc else None,
            center=vec_from_json(doc["center"]) if "center" in doc else None,
        )


def utility(p: SphericalParams, x: Vec) -> Scalar:
    """Evaluate c*(x.x) + d.x."""
    return p.c * dot(x, x) + dot(p.d, x)


def ordering_from_diff(diff: Scalar, tol: Scalar = 0) -> Ordering:
    """Sign of a utility difference; |diff| <= tol counts as a tie."""
    if diff > tol:
        return Ordering.BETTER
    if diff < -tol:
        return Ordering.WORSE
    return Ordering.INDIFFERENT


def rank(ux: Scalar, uy: Scalar) -> Ordering:
    """The pairwise tie rule: utility ux against utility uy.

    An exact difference gives the true sign; a float one ties within the
    relative band TIE_REL*(1+|ux|+|uy|).
    """
    diff = ux - uy
    if isinstance(diff, float):
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
    claims.
    """
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
    sphere. Exact mode divides by the largest absolute entry instead, keeping
    every coordinate rational. Both represent the same preference. The zero
    pair (total indifference) has no canonical form and raises ValueError.
    """
    if p.is_zero:
        raise ValueError("the indifference preference has no canonical parameters")
    if mode is None:
        mode = EXACT if p.is_exact else FLOAT
    if mode == EXACT:
        c = Fraction(p.c)
        d = tuple(Fraction(x) for x in p.d)
        m = max(abs(c), *(abs(x) for x in d)) if d else abs(c)
        return SphericalParams(c / m, tuple(x / m for x in d))
    if mode == FLOAT:
        c = float(p.c)
        d = to_float(p.d)
        length = math.sqrt(c * c + sum(x * x for x in d))
        return SphericalParams(c / length, tuple(x / length for x in d))
    raise ValueError(f"unknown arithmetic mode: {mode!r}")


def sphere_normal(p: SphericalParams, w: Vec) -> Vec:
    """Gradient 2c*w + d of the utility at w.

    Points x, y on a common sphere around w are indifferent exactly when
    this vector is orthogonal to x - y, since on that sphere
    u(x) - u(y) = (2c*w + d).(x - y).
    """
    if len(w) != p.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {len(w)}")
    return tuple(2 * p.c * w[i] + p.d[i] for i in range(p.dim))


def preference_distance(p1: SphericalParams, p2: SphericalParams) -> float:
    """Geodesic distance in [0, pi] between unit-sphere representatives."""
    if p1.dim != p2.dim:
        raise DimensionMismatch(f"dimension mismatch: {p1.dim} vs {p2.dim}")
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

    Random sampling over a box; returns the first pair on which the two
    comparisons disagree, or None when the probe budget is exhausted.
    """
    n = p1.dim
    for _ in range(probes):
        x = tuple(rng.uniform(-radius, radius) for _ in range(n))
        y = tuple(rng.uniform(-radius, radius) for _ in range(n))
        if compare(p1, x, y) != compare(p2, x, y):
            return (x, y)
    return None
