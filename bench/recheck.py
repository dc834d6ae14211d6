"""Exact re-check of rationalize outputs, independent of spherepref.

A witness (c, d) must rank every weak pair weakly and every strict pair
strictly in exact arithmetic, and carry the sign its restriction demands
(c = 0 linear, c < 0 euclidean, c > 0 anti-euclidean).

A certificate is nonnegative weights on the observations plus, for the
euclidean and anti-euclidean restrictions, a nonnegative restriction weight
mu. Together they lie in the simplex, put positive mass on the strict side
(mu counts as strict), cancel the difference vectors, and cancel the
quadratic terms exactly (no restriction), up to +mu (euclidean) or -mu
(anti-euclidean), or not at all (linear).

Run this file to self-test the re-check: it must accept known-good objects
and reject a nudged witness and shifted certificate weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from inputs import ANTI_EUCLIDEAN, EUCLIDEAN, LINEAR, Case, make_case


def scalar(v) -> Fraction:
    """A JSON scalar as an exact rational: ints, "p/q" strings, floats verbatim."""
    if isinstance(v, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(v, (int, float)):
        return Fraction(v)
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    raise ValueError(f"not a scalar: {v!r}")


def witness_ok(case: Case, witness: dict, restriction: Optional[str]) -> bool:
    c = scalar(witness["c"])
    d = [scalar(v) for v in witness["d"]]
    if len(d) != case.dimension:
        return False
    if restriction == LINEAR and c != 0:
        return False
    if restriction == EUCLIDEAN and not c < 0:
        return False
    if restriction == ANTI_EUCLIDEAN and not c > 0:
        return False
    scale = math.lcm(c.denominator, *(v.denominator for v in d))
    ci = int(c * scale)
    di = [int(v * scale) for v in d]

    def gap(r):
        q, vec = r
        return ci * q + 8 * sum(a * b for a, b in zip(di, vec))

    return all(gap(r) >= 0 for r in case.weak) and all(gap(r) > 0 for r in case.strict)


def certificate_ok(case: Case, weights: dict, mu, restriction: Optional[str]) -> bool:
    has_mu = restriction in (EUCLIDEAN, ANTI_EUCLIDEAN)
    mu = scalar(mu) if mu is not None else Fraction(0)
    if mu < 0 or (mu and not has_mu):
        return False
    groups = {"weak": case.weak, "strict": case.strict}
    total = strict_mass = mu
    quad = Fraction(0)
    vec = [Fraction(0)] * case.dimension
    for label, w in weights.items():
        kind, _, idx = label.partition(":")
        rows = groups.get(kind)
        if rows is None or not idx.isdigit() or int(idx) >= len(rows):
            return False
        w = scalar(w)
        if w < 0:
            return False
        q, v = rows[int(idx)]
        total += w
        if kind == "strict":
            strict_mass += w
        quad += w * q
        for i, vi in enumerate(v):
            vec[i] += w * vi
    if total != 1 or strict_mass <= 0 or any(vec):
        return False
    # rows are scaled by 64 (points are X/8), mu is not
    if restriction is None:
        return quad == 0
    if restriction == EUCLIDEAN:
        return quad == 64 * mu
    if restriction == ANTI_EUCLIDEAN:
        return quad == -64 * mu
    return True


def verdict_ok(case: Case, doc: dict) -> bool:
    """Whether a rendered verdict carries an answer object that re-checks exactly."""
    if doc["rationalizable"]:
        return witness_ok(case, doc["witness"], case.restriction)
    return certificate_ok(case, doc["certificate"], doc.get("restriction_weight"), case.restriction)


def selftest() -> list:
    """Failures of the re-check on hand-made objects; empty when it works."""
    e = lambda *v: tuple(8 * x for x in v)  # noqa: E731 - grid numerators of a point
    failures = []

    def expect(name, got, want):
        if got is not want:
            failures.append(f"{name}: got {got}, want {want}")

    # u = -x.x + 2*x1: ideal point (1, 0, 0); 0 ~ (2, 0, 0) is a tie with x.x != y.y
    tie = make_case(3, [(e(0, 0, 0), e(2, 0, 0)), (e(2, 0, 0), e(0, 0, 0))], [(e(1, 0, 0), e(0, 0, 0))], None, True)
    good = {"c": -1, "d": [2, 0, 0]}
    expect("witness", witness_ok(tie, good, None), True)
    expect("float witness", witness_ok(tie, {"c": -1.0, "d": [2.0, 0.0, 0.0]}, None), True)
    expect("euclidean witness", witness_ok(tie, good, EUCLIDEAN), True)
    expect("witness of the wrong class", witness_ok(tie, good, ANTI_EUCLIDEAN), False)
    expect("linear witness with c != 0", witness_ok(tie, good, LINEAR), False)
    for nudge in ("-1000001/1000000", "-999999/1000000"):
        expect(f"witness with c = {nudge}", witness_ok(tie, {"c": nudge, "d": [2, 0, 0]}, None), False)

    # a strict pair and its reverse
    rev = make_case(3, [], [(e(1, 0, 0), e(0, 0, 0)), (e(0, 0, 0), e(1, 0, 0))], None, False)
    expect("certificate", certificate_ok(rev, {"strict:0": "1/2", "strict:1": "1/2"}, None, None), True)
    shifted = {"strict:0": "500001/1000000", "strict:1": "499999/1000000"}
    expect("certificate with a shifted weight", certificate_ok(rev, shifted, None, None), False)
    expect("certificate off the simplex", certificate_ok(rev, {"strict:0": "1/2", "strict:1": "500001/1000000"}, None, None), False)
    expect("certificate with a negative weight", certificate_ok(rev, {"strict:0": "3/2", "strict:1": "-1/2"}, None, None), False)
    expect("certificate with an unknown label", certificate_ok(rev, {"strict:0": "1/2", "strict:2": "1/2"}, None, None), False)

    # the bliss point 0 > +-e1, +-e2 admits no anti-euclidean utility:
    # weights 1/8 each and mu = 1/2 cancel quad = -mu, since each row has q = -1
    bliss = make_case(3, [], [(e(0, 0, 0), p) for p in (e(1, 0, 0), e(-1, 0, 0), e(0, 1, 0), e(0, -1, 0))], ANTI_EUCLIDEAN, False)
    eighths = {f"strict:{i}": "1/8" for i in range(4)}
    expect("anti-euclidean certificate", certificate_ok(bliss, eighths, "1/2", ANTI_EUCLIDEAN), True)
    expect("same certificate, euclidean sign", certificate_ok(bliss, eighths, "1/2", EUCLIDEAN), False)
    expect("same certificate, no restriction", certificate_ok(bliss, eighths, "1/2", None), False)
    # shift mass from the +-e1 pair to mu: still balanced and on the simplex, but quad != -mu
    moved = dict(eighths, **{"strict:0": "124999/1000000", "strict:1": "124999/1000000"})
    expect("certificate with mu shifted", certificate_ok(bliss, moved, "500002/1000000", ANTI_EUCLIDEAN), False)
    return failures


if __name__ == "__main__":
    problems = selftest()
    for p in problems:
        print("FAIL", p)
    print("re-check self-test:", "FAILED" if problems else "ok")
    raise SystemExit(1 if problems else 0)
