import hashlib
import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from spherepref.axioms import antipodal_indifference
from spherepref.geometry import EXACT, FLOAT, DimensionMismatch, dot, sq_norm, sub
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
    rank,
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


def test_float_canonicalize_sums_left_to_right():
    # the built-in sum of floats is compensated from Python 3.12; the length
    # must be the plain left-to-right sum on every version
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randint(1, 8)
        c = rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
        d = tuple(rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(n))
        squares = 0.0
        for x in d:
            squares += x * x
        length = math.sqrt(c * c + squares)
        got = canonicalize(SphericalParams(c, d), mode=FLOAT)
        assert repr((got.c, got.d)) == repr((c / length, tuple(x / length for x in d)))


def test_canonicalize_exact():
    assert canonicalize(SphericalParams(0, (0, 3, 0))) == SphericalParams(0, (0, 1, 0))
    assert canonicalize(SphericalParams(3, (0, 0, 0))) == SphericalParams(1, (0, 0, 0))
    p = canonicalize(SphericalParams(F(-1, 3), (F(2, 5), F(-4, 5), F(1, 7))))
    assert max(abs(p.c), *(abs(x) for x in p.d)) == 1


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize(SphericalParams(0, (0, 0, 0)))


def test_canonicalize_names_an_infinity_or_a_nan_in_both_modes():
    # no integer ratio in exact mode, no length in float mode: one ValueError each
    bad = [SphericalParams(c, d) for c in (math.inf, -math.inf, math.nan) for d in ((1.0,), ())]
    bad += [SphericalParams(1.0, (0.0, v)) for v in (math.inf, math.nan)] + [SphericalParams(0, (math.nan,))]
    for p in bad:
        with pytest.raises(ValueError, match="exact parameters must be finite, not"):
            canonicalize(p, EXACT)
        with pytest.raises(ValueError, match="float parameters must be finite"):
            canonicalize(p, FLOAT)


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


@pytest.mark.parametrize("doc, field", [({"d": [1]}, "c"), ({"c": 1}, "d"), ({}, "c")])
def test_a_missing_parameter_field_is_named(doc, field):
    # these were KeyErrors, printed by the CLI as error: 'c'
    with pytest.raises(ValueError, match=re.escape(f'missing field "{field}"')):
        SphericalParams.from_dict(doc)


def test_a_missing_class_field_is_named():
    with pytest.raises(ValueError, match=re.escape('missing field "class"')):
        PreferenceClass.from_dict({"u": [1, 0]})
    assert PreferenceClass.from_dict({"class": "linear", "u": [1, 0]}) == PreferenceClass(LINEAR, u=(1, 0))


def test_distinguishing_pair_returns_none_when_its_budget_runs_out():
    p = SphericalParams(-1, (F(1, 2), 0))
    rng = random.Random(4)
    assert distinguishing_pair(p, p, rng, probes=7) is None
    draws = random.Random(4)
    for _ in range(28):  # seven probes, two points of two coordinates each
        draws.random()
    assert rng.getstate() == draws.getstate()


DISTINGUISHING_PAIRS_DIGEST = "514d84df0c60092e24fab69610ed20d92901a277795360d7b189dd2475ef3f8e"


def test_distinguishing_pairs_are_pinned():
    # the pairs found, and the Nones of a spent budget, by repr
    rng = random.Random(29)
    lines = []
    for k in range(48):
        n = 1 + k % 5
        p1 = random_params(rng, n, exact=k % 3 == 0)
        p2 = p1 if k % 8 == 0 else random_params(rng, n, exact=k % 2 == 0)
        radius = (1.0, 2, F(3, 8), 0.01, 7.3)[k % 5]
        lines.append(repr(distinguishing_pair(p1, p2, random.Random(k), probes=1 + k % 4, radius=radius)))
    assert lines[0] == "None"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DISTINGUISHING_PAIRS_DIGEST


@pytest.mark.parametrize("probes, message", [(2.5, "must be an int"), (True, "must be an int"),
                                             (0, "must be at least 1"), (-3, "must be at least 1")])
def test_distinguishing_pair_rejects_a_probe_count_that_is_not_an_int_from_one(probes, message):
    # 2.5 raised a bare TypeError, True ran one probe, -3 returned None as a spent budget
    p1, p2 = SphericalParams(-1, (0, 0)), SphericalParams(1, (0, 0))
    with pytest.raises(ValueError, match=f"probes {message}"):
        distinguishing_pair(p1, p2, random.Random(0), probes=probes)


@pytest.mark.parametrize("radius", [math.inf, math.nan, 0, -1.0])
def test_distinguishing_pair_rejects_a_radius_that_is_not_finite_and_positive(radius):
    # inf drew nan coordinates and nan drew nan: both ranked everything indifferent
    # and returned None; 0 and -1 searched a point or a reversed box
    p1, p2 = SphericalParams(-1.0, (0.0, 0.0)), SphericalParams(1.0, (0.0, 0.0))
    with pytest.raises(ValueError, match="radius"):
        distinguishing_pair(p1, p2, random.Random(0), radius=radius)


def test_the_tie_rule_refuses_float_gaps_that_are_not_finite():
    # (1e200)^2 overflows: u(x) = -inf against u(y) = 0 ranked INDIFFERENT
    p = SphericalParams(-1.0, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="not finite"):
        compare(p, (1e200, 0.0, 0.0), (0.0, 0.0, 0.0))
    # an infinite or NaN utility, an overflowing gap, or a tie band |ux| + |uy| that overflows
    for ux, uy in ((math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (1e308, -1e308), (1e308, 1e308)):
        with pytest.raises(ValueError, match="not finite"):
            rank(ux, uy)
    assert rank(1e307, 1e307) is Ordering.INDIFFERENT and rank(1e307, -1e307) is Ordering.BETTER
    with pytest.raises(ValueError, match="not finite"):
        distinguishing_pair(p, SphericalParams(1.0, (0.0, 0.0, 0.0)), random.Random(0), radius=1e200)


@pytest.mark.parametrize("scale_", [1e200, 1e-200, 5e-324])
def test_float_canonicalize_survives_squares_that_overflow_or_underflow(scale_):
    # 1e200 gave the zero pair (an infinite length); 1e-200 divided by zero
    p = SphericalParams(scale_, (scale_, 0.0, -scale_))
    want = canonicalize(SphericalParams(1.0, (1.0, 0.0, -1.0)), mode=FLOAT)
    assert canonicalize(p, mode=FLOAT) == want
    assert preference_distance(p, SphericalParams(1.0, (1.0, 0.0, -1.0))) == 0.0
    assert preference_distance(p, SphericalParams(-1.0, (-1.0, 0.0, 1.0))) == pytest.approx(math.pi)


@pytest.mark.parametrize("p", [SphericalParams(10**400, (1,)), SphericalParams(-1, (F(10**400, 3),)), SphericalParams(F(-1, 2), (F(-(10**400), 7),))])
def test_float_calls_refuse_parameters_too_large_for_a_float(p):
    # each raised OverflowError from the int or Fraction -> float conversion
    x, y, other = (0.5,), (0.25,), SphericalParams(1.0, (0.0,))
    calls = [
        lambda: compare(p, x, y),
        lambda: utility(p, x),
        lambda: canonicalize(p, FLOAT),
        lambda: preference_distance(p, other),
        lambda: preference_distance(other, p),
        lambda: distinguishing_pair(p, other, random.Random(0)),
        lambda: antipodal_indifference(p, x, 1.0, ((1.0, 0.0), (0.0, 1.0))),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="overflows a float"):
            call()
    assert compare(p, (F(1, 2),), (F(1, 4),)) in (Ordering.BETTER, Ordering.WORSE)  # exact points still rank


@pytest.mark.parametrize("c, d", [(math.inf, (1.0,)), (1.0, (math.nan,)), (math.nan, (1.0,)), (F(1, 10**400), (0,))])
def test_float_canonicalize_rejects_parameters_without_a_finite_direction(c, d):
    with pytest.raises(ValueError, match="finite"):
        canonicalize(SphericalParams(c, d), mode=FLOAT)


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
    for p in (SphericalParams(0, (1, F(-1, 2))), SphericalParams(0.5, (1.0, -2.0)), SphericalParams(0, (0, 0))):
        assert PreferenceClass.from_dict(classify(p).to_dict()) == classify(p)


@pytest.mark.parametrize("doc", [
    {"class": "bogus", "u": [1]},
    {"class": "bogus"},
    {"class": ["linear"], "u": [1]},
    {"class": "linear"},
    {"class": "linear", "center": [1]},
    {"class": "linear", "u": [1], "center": [1]},
    {"class": "euclidean", "u": [1]},
    {"class": "anti_euclidean"},
    {"class": "indifference", "u": [0]},
])
def test_class_from_dict_refuses_what_to_dict_never_writes(doc):
    # {"class": "bogus", "u": [1]} was PreferenceClass(tag='bogus', u=(1,), center=None)
    with pytest.raises(ValueError, match="class .* with the fields"):
        PreferenceClass.from_dict(doc)


def test_to_exact_makes_every_entry_a_fraction():
    p = SphericalParams(-1, (0.1, F(1, 3), True))
    q = p.to_exact()
    assert q == SphericalParams(F(-1), (F(0.1), F(1, 3), F(1)))
    assert {type(v) for v in (q.c, *q.d)} == {F}
    for bad in (SphericalParams(math.nan, (1.0,)), SphericalParams(1, (2, -math.inf))):
        with pytest.raises(ValueError, match=r"exact parameters must be finite, not \["):
            bad.to_exact()


@given(
    # 2c finite, and a center that stays finite too
    st.floats(-1e307, 1e307).filter(lambda c: abs(c) >= 1e-300),
    st.tuples(*[st.one_of(st.floats(-1e6, 1e6), st.integers(-9, 9))] * 3),
)
def test_float_center_matches_the_two_c_formula_while_two_c_is_finite(c, d):
    center = classify(SphericalParams(c, d)).center
    assert repr(center) == repr(tuple(-1.0 / (2.0 * c) * x for x in d))


# utility and compare before the integer form, kept verbatim as the reference
def reference_utility(p, x):
    return p.c * dot(x, x) + dot(p.d, x)


def reference_compare(p, x, y):
    return rank(reference_utility(p, x), reference_utility(p, y))


form_entries = {
    "int": st.integers(-10**6, 10**6),
    "fraction": st.fractions(-100, 100, max_denominator=1000),
    "float": st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
    "bool": st.booleans(),
    "zero": st.just(0),
}
form_entries["exact"] = st.one_of(form_entries["int"], form_entries["fraction"])
form_entries["mixed"] = st.one_of(*form_entries.values())


@st.composite
def params_and_points(draw):
    """Parameters and two points of one length 1-6, each vector all of one
    kind (int, Fraction, float, bool, zero, int and Fraction) or of every kind."""
    n = draw(st.integers(1, 6))
    kinds = sorted(form_entries)
    c, *d = draw(st.tuples(*[form_entries[draw(st.sampled_from(kinds))]] * (n + 1)))
    x, y = (draw(st.tuples(*[form_entries[draw(st.sampled_from(kinds))]] * n)) for _ in range(2))
    return SphericalParams(c, d), x, y


@settings(max_examples=500)
@given(params_and_points())
@example((SphericalParams(F(1, 2), (0, 0)), (0, 0), (0, 0)))  # Fraction(0), not int 0
@example((SphericalParams(-0.3, (0.1, 0.7)), (F(1, 16), F(-3, 8)), (F(1, 4), 0)))
@example((SphericalParams(F(-3, 10), (F(1, 10), 1)), (0.25, 0.5), (F(1, 4), 0)))
@example((SphericalParams(F(1, 3), (True, 2)), (1, 2), (False, F(1, 2))))
def test_utility_and_compare_match_the_entrywise_reference(case):
    # repr tells an int from an equal Fraction or float, and 0.0 from -0.0
    p, x, y = case
    for v in (x, y):
        assert repr(utility(p, v)) == repr(reference_utility(p, v))
    assert compare(p, x, y) is reference_compare(p, x, y)
    assert compare(p, y, x) is reference_compare(p, y, x)


def test_utility_and_compare_keep_the_dimension_check():
    p = SphericalParams(F(1, 2), (F(1, 3), 1))
    for fn in (lambda: utility(p, (1, 2, 3)), lambda: compare(p, (1, 2, 3), (1, 2, 3)),
               lambda: compare(p, (1, 2), (F(1, 2), 1, 0))):
        with pytest.raises(DimensionMismatch):
            fn()


def test_integer_form_is_invisible_to_equality_hash_and_json():
    p = SphericalParams(F(-1, 3), (F(1, 2), 2))
    q = SphericalParams(F(-1, 3), (F(1, 2), 2))
    before = (repr(p), hash(p), p.to_dict())
    assert utility(p, (F(1, 4), 1)) == reference_utility(p, (F(1, 4), 1))
    assert "_ints" in vars(p) and "_ints" not in vars(q)
    assert p._ints == (6, -2, (3, 12))
    assert p == q and hash(p) == hash(q)
    assert (repr(p), hash(p), p.to_dict()) == before
    assert {p: 1}[q] == 1
    # no form without a Fraction, or with a float or a bool
    for other in (SphericalParams(1, (2, 3)), SphericalParams(0.5, (F(1, 2),)), SphericalParams(F(1, 2), (True,))):
        assert other._ints is None
