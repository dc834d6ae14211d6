import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spherepref.geometry import FLOAT, dot, sq_norm, sub
from spherepref.preference import (
    ANTI_EUCLIDEAN,
    EUCLIDEAN,
    INDIFFERENCE,
    LINEAR,
    Ordering,
    PreferenceClass,
    SphericalParams,
    canonicalize,
    classify,
    compare,
    distinguishing_pair,
    preference_distance,
    sphere_normal,
    utility,
)


def random_params(rng, n, exact=False):
    while True:
        if exact:
            c = F(rng.randint(-20, 20), 20)
            d = tuple(F(rng.randint(-20, 20), 20) for _ in range(n))
        else:
            c = rng.uniform(-1, 1)
            d = tuple(rng.uniform(-1, 1) for _ in range(n))
        p = SphericalParams(c, d)
        if not p.is_zero:
            return p


def test_utility_examples():
    assert utility(SphericalParams(-1, (0, 0, 0)), (1, 1, 1)) == -3
    assert utility(SphericalParams(0, (1, 2, 3)), (1, 1, 1)) == 6
    p = SphericalParams(-1, (2, 0, 0))
    assert utility(p, (1, 0, 0)) == 1
    # equals -(distance to the ideal point)^2 + constant, with center (1,0,0)
    center = classify(p).center
    x = (F(1, 3), F(-2, 5), F(4, 7))
    assert utility(p, x) == -sq_norm(sub(x, center)) + sq_norm(center)


def test_compare_examples():
    euclid = SphericalParams(-1, (0, 0, 0))  # center at origin
    assert compare(euclid, (1, 0, 0), (2, 0, 0)) is Ordering.BETTER
    anti = SphericalParams(1, (0, 0, 0))
    assert compare(anti, (1, 0, 0), (2, 0, 0)) is Ordering.WORSE
    lin = SphericalParams(0, (1, 0, 0))
    assert compare(lin, (5, 9, -2), (5, -4, 7)) is Ordering.INDIFFERENT


def test_classify_examples():
    assert classify(SphericalParams(0, (1, 0, 0))) == PreferenceClass(LINEAR, u=(1, 0, 0))
    got = classify(SphericalParams(1, (0, 0, 0)))
    assert got.tag == ANTI_EUCLIDEAN and got.center == (0, 0, 0)
    got = classify(SphericalParams(-1, (2, 0, 0)))
    assert got.tag == EUCLIDEAN and got.center == (1, 0, 0)
    assert classify(SphericalParams(0, (0, 0, 0))).tag == INDIFFERENCE


def test_classify_center_is_grid_argmax():
    # independent check: utility of the Euclidean example is maximized at
    # the reported center over a grid containing it
    p = SphericalParams(-1, (2, 0, 0))
    center = classify(p).center
    grid = [F(k, 2) for k in range(-6, 7)]
    best = max(
        (tuple(pt) for pt in itertools.product(grid, repeat=3)),
        key=lambda pt: utility(p, pt),
    )
    assert best == center


def test_canonicalize_float():
    p = canonicalize(SphericalParams(-2, (4, 0, 0)), mode=FLOAT)
    s = math.sqrt(20)
    assert p.c == pytest.approx(-2 / s)
    assert p.d[0] == pytest.approx(4 / s)
    assert p.c**2 + sum(x * x for x in p.d) == pytest.approx(1.0)


def test_canonicalize_exact():
    assert canonicalize(SphericalParams(0, (0, 3, 0))) == SphericalParams(0, (0, 1, 0))
    assert canonicalize(SphericalParams(3, (0, 0, 0))) == SphericalParams(1, (0, 0, 0))
    p = canonicalize(SphericalParams(F(-1, 3), (F(2, 5), F(-4, 5), F(1, 7))))
    assert max(abs(p.c), *(abs(x) for x in p.d)) == 1


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize(SphericalParams(0, (0, 0, 0)))


def test_sphere_normal_examples():
    lin = SphericalParams(0, (3, 1, 4))
    assert sphere_normal(lin, (9, 9, 9)) == (3, 1, 4)
    p = SphericalParams(-1, (2, 0, 0))
    assert sphere_normal(p, classify(p).center) == (0, 0, 0)
    assert sphere_normal(p, (0, 1, 0)) == (2, -2, 0)


def test_sphere_normal_matches_utility_difference_on_spheres():
    # u(x) - u(y) equals normal.(x - y) for x, y on a sphere around w
    rng = random.Random(11)
    p = SphericalParams(F(-1, 2), (F(1, 4), F(3, 5), F(-2, 7)))
    w = (F(1, 2), F(-1, 3), F(2, 5))
    normal = sphere_normal(p, w)
    for _ in range(100):
        s = tuple(F(rng.randint(-12, 12), 8) for _ in range(3))
        t = tuple(F(rng.randint(-12, 12), 8) for _ in range(3))
        if sq_norm(s) != sq_norm(t):
            # scale t to the same squared norm is not rational in general;
            # instead use a signed permutation, which preserves it exactly
            perm = [0, 1, 2]
            rng.shuffle(perm)
            t = tuple(s[perm[i]] * rng.choice((1, -1)) for i in range(3))
        x, y = tuple(w[i] + s[i] for i in range(3)), tuple(w[i] + t[i] for i in range(3))
        assert utility(p, x) - utility(p, y) == dot(normal, sub(x, y))
        indifferent = compare(p, x, y) is Ordering.INDIFFERENT
        assert indifferent == (dot(normal, sub(x, y)) == 0)


def test_preference_distance_examples():
    p = SphericalParams(-0.5, (0.25, 0.5, 0.0))
    assert preference_distance(p, p) == pytest.approx(0.0)
    a = SphericalParams(0, (1, 0, 0))
    b = SphericalParams(0, (-1, 0, 0))
    assert preference_distance(a, b) == pytest.approx(math.pi)
    c = SphericalParams(1, (0, 0, 0))
    assert preference_distance(c, a) == pytest.approx(math.pi / 2)


def test_scale_invariance_and_reversal():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([2, 3, 5])
        p = random_params(rng, n, exact=True)
        lam = F(rng.randint(1, 40), rng.randint(1, 7))
        scaled = SphericalParams(lam * p.c, tuple(lam * v for v in p.d))
        flipped = SphericalParams(-p.c, tuple(-v for v in p.d))
        x = tuple(F(rng.randint(-16, 16), 8) for _ in range(n))
        y = tuple(F(rng.randint(-16, 16), 8) for _ in range(n))
        base = compare(p, x, y)
        assert compare(scaled, x, y) == base
        assert compare(flipped, x, y) == Ordering(-base)


def test_classify_commutes_with_canonicalize():
    rng = random.Random(5)
    for _ in range(100):
        p = random_params(rng, 4, exact=True)
        assert classify(canonicalize(p)).tag == classify(p).tag


def test_euclidean_compare_is_distance_comparison():
    rng = random.Random(9)
    for _ in range(100):
        p = random_params(rng, 3, exact=True)
        cls = classify(p)
        if cls.tag not in (EUCLIDEAN, ANTI_EUCLIDEAN):
            continue
        x = tuple(F(rng.randint(-16, 16), 8) for _ in range(3))
        y = tuple(F(rng.randint(-16, 16), 8) for _ in range(3))
        closer = sq_norm(sub(x, cls.center)) < sq_norm(sub(y, cls.center))
        if cls.tag == EUCLIDEAN:
            assert (compare(p, x, y) is Ordering.BETTER) == closer
        else:
            farther = sq_norm(sub(x, cls.center)) > sq_norm(sub(y, cls.center))
            assert (compare(p, x, y) is Ordering.BETTER) == farther


def test_distinguishing_pair_found_for_distinct_params():
    rng = random.Random(21)
    found = 0
    for _ in range(20):
        p1 = canonicalize(random_params(rng, 3), mode=FLOAT)
        p2 = canonicalize(random_params(rng, 3), mode=FLOAT)
        if preference_distance(p1, p2) <= 1e-6:
            continue
        pair = distinguishing_pair(p1, p2, rng, probes=1000)
        assert pair is not None
        x, y = pair
        assert compare(p1, x, y) != compare(p2, x, y)
        found += 1
    assert found >= 15


def test_params_json_round_trip():
    p = SphericalParams(F(-1, 3), (F(2, 7), 1, F(0)))
    doc = p.to_dict()
    assert doc == {"c": "-1/3", "d": ["2/7", 1, 0]}
    assert SphericalParams.from_dict(doc) == p
    q = SphericalParams(-0.25, (0.5, 0.125))
    assert SphericalParams.from_dict(q.to_dict()) == q


def test_class_json_round_trip():
    cls = classify(SphericalParams(-1, (2, 0, 0)))
    doc = cls.to_dict()
    assert doc == {"class": "euclidean", "center": [1, 0, 0]}
    assert PreferenceClass.from_dict(doc) == cls
    assert classify(SphericalParams(0, (0, 0))).to_dict() == {"class": "indifference"}


@given(
    # 2c finite, and a center that stays finite too
    st.floats(-1e307, 1e307).filter(lambda c: abs(c) >= 1e-300),
    st.tuples(*[st.one_of(st.floats(-1e6, 1e6), st.integers(-9, 9))] * 3),
)
def test_float_center_matches_the_two_c_formula_while_two_c_is_finite(c, d):
    center = classify(SphericalParams(c, d)).center
    assert repr(center) == repr(tuple(-1.0 / (2.0 * c) * x for x in d))
