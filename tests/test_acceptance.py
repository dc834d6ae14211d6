"""Acceptance suite.

One test per criterion; each runs at its stated tolerance and prints one
pass line (visible with ``pytest -s`` or in the captured output). Criteria
with a stated runtime target assert it.
"""

import hashlib
import random
import time
from fractions import Fraction as F

import pytest

from spherepref.axioms import (
    antipodal_indifference,
    check_homotheticity,
    check_oioi,
    check_perp_diff,
    check_soioi,
    params_oracle,
    random_orthonormal_plane,
)
from spherepref.cardinal import (
    NotQuadraticLinear,
    coefficient_oracle,
    cubic_utility,
    decompose,
    extract_f,
)
from spherepref.formats import dumps
from spherepref.geometry import EXACT, FLOAT, add, dot, normalize, sub, zeros
from spherepref.preference import (
    Ordering,
    SphericalParams,
    canonicalize,
    classify,
    compare,
    distinguishing_pair,
    preference_distance,
    sphere_normal,
    utility,
)
from spherepref.rationalize import (
    RESTRICT_EUCLIDEAN,
    RESTRICT_LINEAR,
    ObservationSet,
    certificate_lp,
    generate_dataset,
    rationalize,
    verify_certificate,
    verify_witness,
)

NECESSITY_CHECKERS = (check_oioi, check_perp_diff, check_soioi, check_homotheticity)

BLISS = ObservationSet(
    3,
    (),
    (((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (-1, 0, 0)), ((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, -1, 0))),
)


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): PASS{suffix}")


def random_float_params(rng, n):
    while True:
        p = SphericalParams(rng.uniform(-1, 1), tuple(rng.uniform(-1, 1) for _ in range(n)))
        if abs(p.c) + sum(abs(v) for v in p.d) > 1e-3:
            return canonicalize(p, mode=FLOAT)


def random_exact_params(rng, n):
    while True:
        p = SphericalParams(
            F(rng.randint(-20, 20), 20), tuple(F(rng.randint(-20, 20), 20) for _ in range(n))
        )
        if not p.is_zero:
            return p


def random_symmetric(rng, n, exact):
    entry = (lambda: F(rng.randint(-12, 12), 4)) if exact else (lambda: rng.uniform(-2, 2))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = entry()
    return tuple(tuple(row) for row in a), tuple(entry() for _ in range(n))


def corrupt(rng, data):
    if data.strict and rng.random() < 0.5:
        x, y = data.strict[rng.randrange(len(data.strict))]
        return ObservationSet(data.dimension, data.weak, data.strict + ((y, x),))
    n = data.dimension
    pts = [tuple(F(rng.randint(-8, 8), 4) for _ in range(n)) for _ in range(3)]
    return ObservationSet(
        n, data.weak, data.strict + ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[0]))
    )


def test_criterion_1_necessity_suite():
    start = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    for n in (3, 4, 5, 6):
        for k in range(50):
            p = random_float_params(rng, n)
            oracle = params_oracle(p)
            for checker in NECESSITY_CHECKERS:
                rep = checker(oracle, 1000, rng_seed=1000 * n + k)
                assert rep.violations == 0, (checker.__name__, n, k, p, rep.counterexample)
            checked += 1
    assert checked == 200
    # exact-arithmetic subsample: the zero count is literal, no margins
    exact_rng = random.Random(202)
    for n in (3, 4, 5, 6):
        for k in range(4):
            p = canonicalize(random_exact_params(exact_rng, n))
            oracle = params_oracle(p)
            for checker in NECESSITY_CHECKERS:
                rep = checker(oracle, 150, rng_seed=k, mode=EXACT)
                assert rep.violations == 0, (checker.__name__, n, k, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"necessity suite took {elapsed:.1f}s"
    report(1, "necessity suite", f"200 float + 16 exact parameter sets, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def dual_route_results():
    rng = random.Random(404)
    results = []
    start = time.perf_counter()
    for trial in range(250):
        n = rng.choice([3, 4, 5])
        p = random_exact_params(rng, n)
        clean = generate_dataset(p, rng.randint(8, 14), rng_seed=trial)
        bad = corrupt(rng, generate_dataset(p, rng.randint(6, 12), rng_seed=trial + 10_000))
        for data in (clean, bad):
            results.append((data, rationalize(data), certificate_lp(data)))
    return results, time.perf_counter() - start


def test_criterion_2_primal_dual_agreement(dual_route_results):
    results, elapsed = dual_route_results
    assert len(results) == 500
    agree = sum(
        1 for _, verdict, search in results if verdict.rationalizable == (search.p_mass == 0)
    )
    assert agree == 500
    positives = sum(1 for _, v, _ in results if v.rationalizable)
    assert 200 <= positives <= 300  # both outcomes are exercised heavily
    assert elapsed < 120.0, f"dual-route suite took {elapsed:.1f}s"
    report(2, "primal/dual agreement", f"500/500 datasets agree, {elapsed:.1f}s")


def test_criterion_3_witness_and_certificate_validity(dual_route_results):
    results, _ = dual_route_results
    for data, verdict, search in results:
        if verdict.rationalizable:
            assert verify_witness(data, verdict.witness)
        else:
            assert verify_certificate(data, verdict.certificate)
            assert verify_certificate(data, search.weights)
    report(3, "witness and certificate validity", "exact re-check of all 500 verdicts")


def test_criterion_4_class_restriction_coverage():
    start = time.perf_counter()
    plain = rationalize(BLISS)
    assert plain.rationalizable and plain.witness.c < 0
    linear = rationalize(BLISS, RESTRICT_LINEAR)
    assert not linear.rationalizable
    euclid = rationalize(BLISS, RESTRICT_EUCLIDEAN)
    assert euclid.rationalizable and classify(euclid.witness).tag == "euclidean"
    again = rationalize(BLISS, RESTRICT_LINEAR)
    assert again.to_dict() == linear.to_dict()  # deterministic
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"bliss-point trio took {elapsed:.3f}s"
    report(4, "class restriction coverage", f"{elapsed * 1000:.0f}ms")


def test_criterion_5_cardinal_decomposition():
    start = time.perf_counter()
    rng = random.Random(505)
    for trial in range(100):
        n = rng.choice([2, 3, 4, 5, 6])
        exact = trial % 2 == 0
        a, b = random_symmetric(rng, n, exact)
        dec = decompose(coefficient_oracle(a, b))
        for i in range(n):
            if exact:
                assert dec.linear[i] == b[i]
            else:
                assert abs(dec.linear[i] - b[i]) <= 1e-9
            for j in range(n):
                if exact:
                    assert dec.bilinear[i][j] == a[i][j]
                else:
                    assert abs(dec.bilinear[i][j] - a[i][j]) <= 1e-9
        if trial < 10:  # status-quo invariance, ten probes each
            for _ in range(10):
                z0 = tuple(rng.uniform(-3, 3) for _ in range(n))
                other = decompose(coefficient_oracle(a, b), probe_z=[z0])
                for i in range(n):
                    assert abs(float(other.linear[i] - dec.linear[i])) <= 1e-9
                    for j in range(n):
                        assert abs(float(other.bilinear[i][j] - dec.bilinear[i][j])) <= 1e-9
    with pytest.raises(NotQuadraticLinear):
        decompose(cubic_utility(3))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"cardinal suite took {elapsed:.1f}s"
    report(5, "cardinal decomposition", f"100 oracles, cubic rejected, {elapsed:.1f}s")


def test_criterion_6_lemma_suite():
    rng = random.Random(606)
    oracles = [coefficient_oracle(*random_symmetric(rng, rng.choice([2, 3, 4]), exact=False)) for _ in range(6)]
    oracles += [coefficient_oracle(*random_symmetric(rng, 3, exact=True)) for _ in range(2)]
    oracles.append(coefficient_oracle(((1, 0), (0, 1)), (0, 0)))
    for u in oracles:
        n = u.dim
        z0 = zeros(n)
        f = lambda x: extract_f(u, x, z0)  # noqa: E731
        g = lambda x: u(x) - f(x)  # noqa: E731
        for _ in range(1000):
            x = tuple(rng.uniform(-2, 2) for _ in range(n))
            y = tuple(rng.uniform(-2, 2) for _ in range(n))
            parallelogram = f(add(x, y)) + f(sub(x, y)) - 2 * f(x) - 2 * f(y)
            additivity = g(add(x, y)) - g(x) - g(y)
            scale = 1 + abs(f(x)) + abs(f(y)) + abs(g(x)) + abs(g(y))
            assert abs(parallelogram) <= 1e-9 * scale
            assert abs(additivity) <= 1e-9 * scale
    report(6, "lemma suite", f"{len(oracles)} oracles x 1000 pairs")


def test_criterion_7_indifference_geometry():
    rng = random.Random(707)
    for trial in range(100):
        n = rng.choice([3, 4, 5, 6])
        p = random_float_params(rng, n)
        w = tuple(rng.uniform(-2, 2) for _ in range(n))
        r = rng.uniform(0.2, 2.0)
        plane = random_orthonormal_plane(rng, n)
        x, y = antipodal_indifference(p, w, r, plane)
        assert abs(utility(p, x) - utility(p, y)) <= 1e-9 * (1 + r * r)
        assert abs(dot(sphere_normal(p, w), sub(x, y))) <= 1e-8
    # Euclidean parameters, status quo at the ideal point: spheres are flat
    for trial in range(10):
        n = rng.choice([3, 4])
        p = SphericalParams(-abs(rng.uniform(0.2, 1.0)), tuple(rng.uniform(-1, 1) for _ in range(n)))
        center = classify(p).center
        r = rng.uniform(0.3, 2.0)
        for _ in range(10):
            u1 = normalize(tuple(rng.gauss(0, 1) for _ in range(n)))
            u2 = normalize(tuple(rng.gauss(0, 1) for _ in range(n)))
            x = add(center, tuple(r * v for v in u1))
            y = add(center, tuple(r * v for v in u2))
            assert compare(p, x, y) is Ordering.INDIFFERENT
    report(7, "indifference geometry", "100 antipodal pairs + 100 center-sphere pairs")


def test_criterion_8_injectivity_probe():
    rng = random.Random(808)
    distinguished = 0
    while distinguished < 100:
        n = rng.choice([3, 4, 5])
        p1 = random_float_params(rng, n)
        p2 = random_float_params(rng, n)
        if preference_distance(p1, p2) <= 1e-6:
            continue
        pair = distinguishing_pair(p1, p2, rng, probes=1000)
        assert pair is not None, (p1, p2)
        x, y = pair
        assert compare(p1, x, y) != compare(p2, x, y)
        distinguished += 1
    report(8, "injectivity probe", "100 parameter pairs distinguished")


def test_criterion_9_round_trip():
    start = time.perf_counter()
    rng = random.Random(909)
    worst = 1.0
    digest = hashlib.sha256()
    for trial in range(100):
        n = 3 + trial % 2
        count = 1000 if n == 3 else 1200
        p = canonicalize(random_exact_params(rng, n))
        data = generate_dataset(p, count, rng_seed=trial)
        verdict = rationalize(data)
        digest.update(dumps(verdict.to_dict()).encode())
        assert verdict.rationalizable
        assert verify_witness(data, verdict.witness)
        holdout = random.Random(trial + 31_000)
        agree = total = 0
        while total < 1000:
            x = tuple(F(holdout.randint(-16, 16), 8) for _ in range(n))
            y = tuple(F(holdout.randint(-16, 16), 8) for _ in range(n))
            generator_view = compare(p, x, y)
            if generator_view is Ordering.INDIFFERENT:
                continue
            total += 1
            if compare(verdict.witness, x, y) == generator_view:
                agree += 1
        rate = agree / total
        worst = min(worst, rate)
        assert rate >= 0.99, (trial, n, rate, p)
    # the 100 verdict documents, byte for byte: witnesses and margins included
    assert digest.hexdigest() == "78c98a2ddfc61cdf3635e3a0a0e7575440c8a7df65d9f735f95015667d8d1b40"
    elapsed = time.perf_counter() - start
    report(9, "round trip", f"100 parameter sets, worst agreement {worst:.3f}, {elapsed:.0f}s")
