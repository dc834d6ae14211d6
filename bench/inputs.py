"""Seeded inputs and their ground truth, built without the code under test.

Points lie on the 1/8 grid of [-2, 2]^n and are stored as integer
numerators X (the point is X/8). Spherical parameters are stored as integer
numerators (C, D) over 20 (c = C/20, d = D/20). A pair (x, y) is labelled by
the exact sign of

    c*(x.x - y.y) + d.(x - y)  =  (C*(X.X - Y.Y) + 8*D.(X - Y)) / (20*64),

so labels, verdicts and re-checks are integer arithmetic that never calls
spherepref. Each observation keeps its integer row (Q, V) with
Q = X.X - Y.Y and V = X - Y for the exact re-check in ``recheck``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

SPAN = 16  # grid numerators run over [-SPAN, SPAN]
PARAM_DEN = 20

ANY = "any"
LINEAR = "linear"
EUCLIDEAN = "euclidean"
ANTI_EUCLIDEAN = "anti_euclidean"
CLASSES = (LINEAR, EUCLIDEAN, ANTI_EUCLIDEAN)

_COORD_JSON = {k: (k // 8 if k % 8 == 0 else f"{Fraction(k, 8).numerator}/{Fraction(k, 8).denominator}")
               for k in range(-SPAN, SPAN + 1)}


@dataclass(frozen=True)
class Case:
    """One rationalize input document and everything needed to judge the answer."""

    doc: str  # the JSON dataset, as a user would pass it to `spherepref rationalize`
    dimension: int
    weak: tuple  # integer rows (Q, V), in document order
    strict: tuple
    restriction: Optional[str]  # LINEAR, EUCLIDEAN, ANTI_EUCLIDEAN or None
    truth: bool  # rationalizable under that restriction

    @property
    def observations(self) -> int:
        return len(self.weak) + len(self.strict)


def random_params(rng: random.Random, n: int, cls: str = ANY) -> tuple:
    """Integer numerators (C, D) of a nonzero spherical parameter pair."""
    if cls == ANY:
        cls = rng.choice(CLASSES)
    while True:
        d = tuple(rng.randint(-PARAM_DEN, PARAM_DEN) for _ in range(n))
        if cls == LINEAR:
            c = 0
        elif cls == EUCLIDEAN:
            c = -rng.randint(1, PARAM_DEN)
        else:
            c = rng.randint(1, PARAM_DEN)
        if c or any(d):
            return c, d


def random_point(rng: random.Random, n: int) -> tuple:
    return tuple(rng.randint(-SPAN, SPAN) for _ in range(n))


def row(x: tuple, y: tuple) -> tuple:
    return (sum(v * v for v in x) - sum(v * v for v in y), tuple(a - b for a, b in zip(x, y)))


def utility_gap(params: tuple, r: tuple) -> int:
    """Sign-exact multiple of u(x) - u(y) for the row r of the pair (x, y)."""
    c, d = params
    q, v = r
    return c * q + 8 * sum(a * b for a, b in zip(d, v))


def labelled_pairs(rng: random.Random, params: tuple, n: int, count: int) -> tuple:
    """``count`` random pairs oriented by the parameters; ties enter both ways."""
    weak, strict = [], []
    for _ in range(count):
        x, y = random_point(rng, n), random_point(rng, n)
        gap = utility_gap(params, row(x, y))
        if gap > 0:
            strict.append((x, y))
        elif gap < 0:
            strict.append((y, x))
        else:
            weak += [(x, y), (y, x)]
    return weak, strict


def reverse_one(rng: random.Random, strict: list) -> list:
    """Add the reverse of one strict pair: no utility can rank both ways."""
    x, y = strict[rng.randrange(len(strict))]
    return strict + [(y, x)]


def strict_cycle(rng: random.Random, strict: list, n: int) -> list:
    """Add a strict 3-cycle a > b > c > a: its utility gaps sum to zero."""
    a, b, c = (random_point(rng, n) for _ in range(3))
    return strict + [(a, b), (b, c), (c, a)]


def _pair_doc(pairs: list) -> list:
    return [{"better": [_COORD_JSON[v] for v in x], "worse": [_COORD_JSON[v] for v in y]} for x, y in pairs]


def make_case(n: int, weak: list, strict: list, restriction: Optional[str], truth: bool) -> Case:
    doc = json.dumps({"dimension": n, "weak": _pair_doc(weak), "strict": _pair_doc(strict)})
    return Case(
        doc,
        n,
        tuple(row(x, y) for x, y in weak),
        tuple(row(x, y) for x, y in strict),
        restriction,
        truth,
    )


def float_params(rng: random.Random, n: int) -> tuple:
    """A float (c, d) on the unit sphere, away from the degenerate origin."""
    while True:
        c = rng.uniform(-1.0, 1.0)
        d = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        norm = (c * c + sum(v * v for v in d)) ** 0.5
        if norm > 1e-3:
            return c / norm, tuple(v / norm for v in d)


def exact_params(rng: random.Random, n: int) -> tuple:
    """A nonzero rational (c, d) on the 1/20 grid."""
    c, d = random_params(rng, n, rng.choice(CLASSES))
    return Fraction(c, PARAM_DEN), tuple(Fraction(v, PARAM_DEN) for v in d)


def symmetric_coefficients(rng: random.Random, n: int, exact: bool) -> tuple:
    """A random symmetric matrix A and vector b for U(x) = x^T A x + b.x."""
    entry = (lambda: Fraction(rng.randint(-12, 12), 4)) if exact else (lambda: rng.uniform(-2.0, 2.0))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = entry()
    return tuple(tuple(r) for r in a), tuple(entry() for _ in range(n))
