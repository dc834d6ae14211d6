import hashlib
import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import spherepref.axioms as ax
from spherepref.axioms import (
    AxiomReport,
    ComparisonOracle,
    antipodal_indifference,
    check_homotheticity,
    check_oioi,
    check_perp_diff,
    check_soioi,
    check_strict_convexity,
    cubic_function,
    cubic_oracle,
    find_monotone_direction,
    params_oracle,
    random_orthonormal_plane,
    sample_vector,
    utility_comparison_oracle,
)
from spherepref.cardinal import check_status_quo_independence, coefficient_oracle, cubic_utility
from spherepref.formats import dumps
from spherepref.geometry import EXACT, FLOAT, add, dot, project_out, scale, sub
from spherepref.preference import (
    TIE_REL,
    Ordering,
    SphericalParams,
    canonicalize,
    classify,
    compare,
    sphere_normal,
    tie_cuts,
    utility,
)

NECESSITY_CHECKERS = (check_oioi, check_perp_diff, check_soioi, check_homotheticity)


def cubic_value(x):
    return x[0] ** 3 + x[1]


def random_exact_params(rng, n):
    while True:
        p = SphericalParams(
            F(rng.randint(-20, 20), 20),
            tuple(F(rng.randint(-20, 20), 20) for _ in range(n)),
        )
        if not p.is_zero:
            return p


def test_spherical_oracles_pass_all_checkers_float():
    rng = random.Random(2)
    for _ in range(6):
        n = rng.choice([3, 4, 5])
        p = canonicalize(
            SphericalParams(rng.uniform(-1, 1), tuple(rng.uniform(-1, 1) for _ in range(n))),
            mode=FLOAT,
        )
        oracle = params_oracle(p)
        for checker in NECESSITY_CHECKERS:
            report = checker(oracle, 400, rng_seed=11)
            assert report.violations == 0, (checker.__name__, p)
            assert report.counterexample is None


def test_spherical_oracles_pass_all_checkers_exact():
    rng = random.Random(3)
    for _ in range(3):
        p = canonicalize(random_exact_params(rng, 4))
        oracle = params_oracle(p)
        for checker in NECESSITY_CHECKERS:
            report = checker(oracle, 150, rng_seed=5, mode=EXACT)
            assert report.violations == 0


def test_compare_only_oracle_path():
    # drop the utility channel; the checkers must fall back to compare calls
    p = SphericalParams(F(-1, 2), (F(1, 3), F(2, 5), F(-1, 4)))
    blind = ComparisonOracle(dim=3, compare=lambda x, y: compare(p, x, y))
    for checker in NECESSITY_CHECKERS:
        assert checker(blind, 120, rng_seed=8, mode=EXACT).violations == 0


def test_cubic_oracle_fails_every_checker():
    oracle = cubic_oracle(3)
    for checker, seed in (
        (check_oioi, 0),
        (check_perp_diff, 0),
        (check_soioi, 1),
        (check_homotheticity, 0),
    ):
        report = checker(oracle, 400, rng_seed=seed, mode=EXACT)
        assert report.violations >= 1, checker.__name__
        assert report.counterexample is not None


def test_cubic_oioi_regression_tuple():
    # frozen by hand: w = 0, x, y span a plane whose normal has a first
    # coordinate, so a shift along it flips the cubic's comparison
    w, x, y, z = (0, 0, 0), (1, -1, 0), (0, 1, -1), (1, 1, 1)
    assert dot(z, x) == 0 and dot(z, y) == 0
    before = cubic_value(add(w, x)) - cubic_value(add(w, y))
    after = cubic_value(add(add(w, x), z)) - cubic_value(add(add(w, y), z))
    assert before < 0 < after


def test_cubic_perp_diff_regression_tuple():
    x, y, d = (1, -1, 0), (0, 1, -1), (1, 1, 1)
    assert dot(d, sub(x, y)) == 0
    assert cubic_value(x) - cubic_value(y) < 0
    assert cubic_value(add(x, d)) - cubic_value(add(y, d)) > 0


def test_cubic_soioi_regression_tuple():
    w, x, y = (0, 0, 0), (0, 0, 0), (0, 2, 0)
    a, b = (1, -1, 0), (1, 1, 0)
    assert dot(x, y) == 0 and dot(a, b) == 0
    assert cubic_value(add(w, x)) == cubic_value(add(w, a))  # tie
    assert cubic_value(add(w, y)) == cubic_value(add(w, b))  # tie
    # both antecedents weakly hold, yet the combined comparison reverses
    assert cubic_value(add(w, add(x, y))) < cubic_value(add(w, add(a, b)))


# One SOIOI trial on scripted utilities of w+x, w+a, w+y, w+b, w+x+y, w+a+b.
# The largest |value| is 1, so ties are within 2*TIE_REL and strict claims
# need more than 2*STRICT_REL.
@pytest.mark.parametrize("values, violated", [
    ([0.0, 0.0, 1.0, 1.0, 0.5, 0.5], False),  # all tied
    ([1e-8, 0.0, 1.0, 1.0, 0.5, 0.5], False),  # better, but not strictly: a tie may follow
    ([1.0, 1.0, 1e-8, 0.0, 0.5, 0.5], False),  # the same for the second antecedent
    ([1e-6, 0.0, 1.0, 1.0, 0.5, 0.5], True),  # strictly better, then a tie
    ([1e-6, 0.0, 1.0, 1.0, 0.5 + 1e-6, 0.5], False),  # strictly better twice
    ([0.0, 2 * TIE_REL, 1.0, 1.0, 0.0, 1e-6], True),  # an antecedent on the tie edge holds
    ([0.0, 1e-8, 1.0, 1.0, 0.0, 1e-6], False),  # an antecedent past the tie edge fails
    ([0.0, 0.0, 1.0, 1.0, 0.5, 0.5 + 1e-9], False),  # a consequent inside the tie band
])
def test_soioi_decision_rule_on_utility_margins(values, violated):
    script = iter(values)
    oracle = ComparisonOracle(dim=3, compare=None, utility=lambda x: next(script))
    assert check_soioi(oracle, 1, mode=FLOAT).violations == violated


@pytest.mark.parametrize("orderings, asked, violated", [
    ((-1, 1), 2, False),
    ((1, -1), 2, False),
    ((0, 0, -1), 3, True),
    ((0, 0, 0), 3, False),
    ((1, 0, 0), 3, True),
    ((0, 1, 1), 3, False),
])
def test_soioi_asks_a_bare_oracle_for_the_consequent_only_when_it_matters(orderings, asked, violated):
    calls = []

    def scripted(x, y):
        calls.append((x, y))
        return Ordering(orderings[len(calls) - 1])

    assert check_soioi(ComparisonOracle(dim=3, compare=scripted), 1).violations == violated
    assert len(calls) == asked


def test_cubic_homotheticity_regression_tuple():
    x, y = (1, 0, 0), (0, 1, 0)  # equal norm
    assert cubic_value(x) == cubic_value(y)
    assert cubic_value((2, 0, 0)) > cubic_value((0, 2, 0))  # beta = 2 flips the tie


def test_oioi_vacuous_in_dimension_two():
    # in R^2 the projection of z onto the complement of span{x, y} is
    # (generically) zero, so the checked instances are vacuous even for an
    # arbitrary deterministic oracle
    def arbitrary(x, y):
        return Ordering((hash((round(float(x[0]), 6), round(float(y[1]), 6))) % 3) - 1)

    oracle = ComparisonOracle(dim=2, compare=arbitrary)
    assert check_oioi(oracle, 200, rng_seed=1).violations == 0


def test_checkers_are_deterministic():
    oracle = cubic_oracle(3)
    a = check_oioi(oracle, 300, rng_seed=9)
    b = check_oioi(oracle, 300, rng_seed=9)
    assert a == b
    assert check_oioi(oracle, 300, rng_seed=10) != a or a.violations == 0


def test_trials_validation():
    oracle = cubic_oracle(3)
    with pytest.raises(ValueError):
        check_oioi(oracle, 0)


TRIAL_CHECKERS = NECESSITY_CHECKERS + (check_strict_convexity, check_status_quo_independence)


def trial_subject(checker):
    """What each trial checker checks: an oracle, parameters or a utility."""
    if checker is check_strict_convexity:
        return SphericalParams(-1, (0, 0, 0))
    if checker is check_status_quo_independence:
        return cubic_utility(3)
    return cubic_oracle(3)


@pytest.mark.parametrize("mode", ["EXACT", "exakt", None])
@pytest.mark.parametrize("checker", TRIAL_CHECKERS)
def test_trial_checkers_reject_an_unknown_mode(checker, mode):
    # an unknown mode once ran float trials: check_oioi gave 4 float violations for "EXACT"
    with pytest.raises(ValueError, match="unknown arithmetic mode"):
        checker(trial_subject(checker), 20, rng_seed=1, mode=mode)


@pytest.mark.parametrize("radius", [0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("checker", TRIAL_CHECKERS)
def test_trial_checkers_reject_a_radius_that_is_not_finite_and_positive(checker, mode, radius):
    # a zero radius once let the cubic pass all four necessity checkers
    with pytest.raises(ValueError, match="radius must be a finite number > 0"):
        checker(trial_subject(checker), 20, rng_seed=1, mode=mode, radius=radius)


@pytest.mark.parametrize("tie_rel", [-1e-9, math.nan, math.inf])
@pytest.mark.parametrize("checker", NECESSITY_CHECKERS)
def test_necessity_checkers_reject_a_tie_rel_that_is_not_finite_and_nonnegative(checker, tie_rel):
    # nan once made finite utilities "not finite"; inf once gave soioi 224 violations
    oracle = cubic_oracle(3)
    with pytest.raises(ValueError, match="tie_rel must be a finite number >= 0"):
        checker(oracle, 20, rng_seed=4, tie_rel=tie_rel)
    assert checker(oracle, 20, rng_seed=4, tie_rel=None) == checker(oracle, 20, rng_seed=4, tie_rel=TIE_REL)
    assert checker(oracle, 20, rng_seed=4, tie_rel=0).trials == 20


def test_find_monotone_direction():
    assert find_monotone_direction(SphericalParams(0, (1, 0, 0))) == (1, 0, 0)
    assert find_monotone_direction(SphericalParams(-1, (0, 0, 0))) is None
    assert find_monotone_direction(SphericalParams(1, (2, 0, 0))) is None
    assert find_monotone_direction(SphericalParams(0, (0, 0, 0))) == (0, 0, 0)
    # the returned shift never hurts: utility(x + z) >= utility(x)
    p = SphericalParams(0, (F(1, 2), F(-1, 3), F(2, 7)))
    z = find_monotone_direction(p)
    rng = random.Random(0)
    for _ in range(50):
        x = tuple(F(rng.randint(-16, 16), 8) for _ in range(3))
        assert utility(p, add(x, z)) >= utility(p, x)


def test_monotone_direction_iff_linear_or_indifferent():
    rng = random.Random(14)
    for _ in range(60):
        p = random_exact_params(rng, 3)
        has_direction = find_monotone_direction(p) is not None
        assert has_direction == (classify(p).tag in ("linear", "indifference"))


def test_strict_convexity_examples():
    euclid = SphericalParams(-1, (0, 0, 0))
    x, y = (1, 0, 0), (-1, 0, 0)
    mid = (0, 0, 0)
    assert compare(euclid, mid, y) is Ordering.BETTER
    linear = SphericalParams(0, (1, 0, 0))
    assert compare(linear, (1, 5, 0), (1, 0, 0)) is Ordering.INDIFFERENT
    assert compare(linear, (1, F(5, 2), 0), (1, 0, 0)) is Ordering.INDIFFERENT  # midpoint ties too
    anti = SphericalParams(1, (0, 0, 0))
    assert compare(anti, mid, y) is Ordering.WORSE


def test_strict_convexity_zero_violations_iff_euclidean():
    rng = random.Random(6)
    seen = set()
    for _ in range(40):
        p = random_exact_params(rng, 3)
        tag = classify(p).tag
        report = check_strict_convexity(p, 1000, rng_seed=2, mode=EXACT)
        assert (report.violations == 0) == (tag == "euclidean"), (p, tag, report.violations)
        seen.add(tag)
    assert {"euclidean", "anti_euclidean"} <= seen


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("params", [SphericalParams(0, (0, 2, 0)), SphericalParams(0, (0, 0, 0))],
                         ids=["linear", "indifference"])
def test_strict_convexity_fails_at_c_zero(params, mode):
    # c = 0: an odd trial shifts x orthogonally to d, or draws a free pair when
    # d = 0, and the midpoint of that indifferent pair only ties y
    assert check_strict_convexity(params, 20, rng_seed=5, mode=mode).violations >= 1


def test_strict_convexity_linear_odd_trial_shifts_orthogonally_to_d():
    p = SphericalParams(0, (1, -2, 3))
    assert check_strict_convexity(p, 1, rng_seed=0, mode=EXACT).violations == 0  # the even trial
    report = check_strict_convexity(p, 2, rng_seed=0, mode=EXACT)
    assert report.violations == 1
    x, y = report.counterexample["x"], report.counterexample["y"]
    assert x != y and dot(sub(y, x), p.d) == 0


def test_strict_convexity_orients_each_even_pair_once(monkeypatch):
    # an even trial's pair is oriented by one compare call; asking again in
    # the test cannot return WORSE, so each trial costs at most two calls
    import spherepref.axioms as ax

    calls = []

    def counting(params, x, y):
        calls.append(1)
        return compare(params, x, y)

    monkeypatch.setattr(ax, "compare", counting)
    report = check_strict_convexity(SphericalParams(-1, (0, 0, 0)), 200, rng_seed=0, mode=EXACT, radius=0.01)
    assert report.violations == 0
    assert len(calls) <= 400


def test_antipodal_indifference_linear_case():
    p = SphericalParams(0.0, (1.0, 0.0, 0.0))
    plane = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    x, y = antipodal_indifference(p, (0.0, 0.0, 0.0), 1.0, plane)
    assert x[0] == pytest.approx(0.0, abs=1e-9)
    assert abs(x[1]) == pytest.approx(1.0, abs=1e-9)
    assert y[1] == pytest.approx(-x[1], abs=1e-9)


def test_antipodal_indifference_euclidean_center():
    p = SphericalParams(-1.0, (2.0, 0.0, 0.0))  # center (1, 0, 0)
    plane = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    x, y = antipodal_indifference(p, (1.0, 0.0, 0.0), 2.0, plane)
    # every antipodal pair around the center ties, so the t = 0 pair returns
    assert x == pytest.approx((1.0, 2.0, 0.0))
    assert abs(utility(p, x) - utility(p, y)) <= 1e-9 * 5


def test_antipodal_indifference_generic_params():
    rng = random.Random(10)
    for trial in range(25):
        n = rng.choice([3, 4, 5])
        p = canonicalize(
            SphericalParams(rng.uniform(-1, 1), tuple(rng.uniform(-1, 1) for _ in range(n))),
            mode=FLOAT,
        )
        w = tuple(rng.uniform(-2, 2) for _ in range(n))
        r = rng.uniform(0.2, 2.0)
        plane = random_orthonormal_plane(rng, n)
        x, y = antipodal_indifference(p, w, r, plane)
        assert abs(utility(p, x) - utility(p, y)) <= 1e-9 * (1 + r * r)
        # consistent with the sphere gradient: the normal separates ties
        assert abs(dot(sphere_normal(p, w), sub(x, y))) <= 1e-8


def test_antipodal_indifference_is_exact_up_to_rounding_far_from_the_origin():
    # the pair is judged in exact arithmetic, floats taken verbatim as rationals
    def exact_gap(pe, centre, v):
        return utility(pe, add(centre, v)) - utility(pe, sub(centre, v))

    rng = random.Random(18)
    crossings = 0
    for trial in range(200):
        n = rng.choice([3, 4, 5, 6])
        p = SphericalParams(rng.uniform(-1, 1), tuple(rng.uniform(-1, 1) for _ in range(n)))
        w = tuple(10.0 ** rng.randint(0, 6) * rng.uniform(-1, 1) for _ in range(n))
        r = rng.uniform(0.2, 2.0)
        e1, e2 = random_orthonormal_plane(rng, n)
        x, y = antipodal_indifference(p, w, r, (e1, e2))
        pe = SphericalParams(F(p.c), tuple(map(F, p.d)))
        ux = utility(pe, tuple(map(F, x)))
        assert abs(ux - utility(pe, tuple(map(F, y)))) <= F(1e-12) * (1 + abs(ux))
        # the gap of the exactly antipodal pair at angle s: 2r(a cos s + b sin s)
        we = tuple(map(F, w))
        grad = [2 * pe.c * wi + di for wi, di in zip(we, pe.d)]
        a, b = dot(grad, tuple(map(F, e1))), dot(grad, tuple(map(F, e2)))
        if a * a + b * b < F(1e-12) * dot(grad, grad):
            continue  # the circle is nearly level: every angle ties
        t = math.atan2(dot(sub(x, w), e2), dot(sub(x, w), e1))
        signs = set()
        for s in (t - 1e-6, t + 1e-6):
            v = tuple(F(r * math.cos(s)) * F(p1) + F(r * math.sin(s)) * F(p2) for p1, p2 in zip(e1, e2))
            gap = exact_gap(pe, we, v)
            signs.add((gap > 0) - (gap < 0))
        assert signs == {-1, 1}
        crossings += 1
    assert crossings >= 190
    plane = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        antipodal_indifference(SphericalParams(math.nan, (1.0, 0.0, 0.0)), (0.0, 0.0, 0.0), 1.0, plane)
    with pytest.raises(ValueError, match="finite"):
        antipodal_indifference(SphericalParams(-1.0, (1.0, 0.0, 0.0)), (0.0, 0.0, 0.0), math.inf, plane)


def test_antipodal_indifference_validates_plane():
    p = SphericalParams(-1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        antipodal_indifference(p, (0.0, 0.0, 0.0), 1.0, ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        antipodal_indifference(p, (0.0, 0.0, 0.0), 0.0, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))


def test_report_json_shape():
    report = check_oioi(cubic_oracle(3), 200, rng_seed=0)
    doc = report.to_dict()
    assert set(doc) == {"axiom", "trials", "violations", "counterexample"}
    assert doc["axiom"] == "oioi"
    json.dumps(doc)  # must be serializable as is
    clean = AxiomReport("oioi", 10, 0, None).to_dict()
    assert clean["counterexample"] is None


def test_utility_comparison_oracle_tie_handling():
    oracle = utility_comparison_oracle(lambda x: x[0], 2)
    assert oracle.compare((1.0, 0.0), (1.0, 5.0)) is Ordering.INDIFFERENT
    assert oracle.compare((2.0, 0.0), (1.0, 0.0)) is Ordering.BETTER
    assert oracle.compare((F(1), 0), (F(1), 5)) is Ordering.INDIFFERENT


# Seeded reports captured before the checkers shared one trial driver and one
# tie rule; any change to the RNG draw order or to a tie band shows up here.
GOLDEN_EXACT_CUBIC = {
    check_oioi: (60, {
        "axiom": "oioi", "trials": 60, "violations": 3,
        "counterexample": {"w": ["3/16", "11/16", 1], "x": ["3/8", "1/4", -1], "y": ["-9/16", "3/4", "3/4"],
                           "z": ["1095/2068", "657/4136", "1971/8272"]},
    }),
    check_perp_diff: (60, {
        "axiom": "perp_diff", "trials": 60, "violations": 9,
        "counterexample": {"x": ["1/8", "-15/16", "5/8"], "y": ["-5/8", "-5/16", "1/8"],
                           "d": ["-603/1232", "155/616", "323/308"]},
    }),
    check_soioi: (400, {
        "axiom": "soioi", "trials": 400, "violations": 4,
        "counterexample": {"w": ["3/4", "13/16", -1], "x": ["9/16", "5/16", "-3/8"],
                           "y": ["-1485/2272", "1305/2272", "-285/568"], "a": ["5/8", "-15/16", "-13/16"],
                           "b": ["31/1976", "77/1976", "-5/152"]},
    }),
    check_homotheticity: (60, {
        "axiom": "homotheticity", "trials": 60, "violations": 10,
        "counterexample": {"w": ["1/16", "-1/16", "1/16"], "x": ["-9/16", "-5/16", "3/8"],
                           "y": ["3/8", "-9/16", "5/16"], "beta": "17/2"},
    }),
}


def golden_exact_reports():
    """The reports test_golden_exact_reports pins, in its order; also run by
    tests/lp_golden_digests.py."""
    cubic = cubic_oracle(3)
    blind = ComparisonOracle(dim=3, compare=cubic.compare)
    reports = [checker(oracle, trials, rng_seed=1, mode=EXACT)
               for checker, (trials, _) in GOLDEN_EXACT_CUBIC.items() for oracle in (cubic, blind)]
    anti = SphericalParams(F(1, 2), (F(1, 3), F(-1, 4), 0))
    reports.append(check_strict_convexity(anti, 40, rng_seed=3, mode=EXACT))
    reports.append(check_status_quo_independence(cubic_utility(3), 10, rng_seed=1))
    return reports


def test_golden_exact_reports():
    reports = [r.to_dict() for r in golden_exact_reports()]
    assert reports[:8] == [expected for _, expected in GOLDEN_EXACT_CUBIC.values() for _ in range(2)]
    assert reports[8] == {
        "axiom": "strict_convexity", "trials": 40, "violations": 31,
        "counterexample": {"x": ["13/24", "1/4", "-1/8"], "y": ["-29/24", "1/4", "1/8"]},
    }
    assert reports[9] == {
        "axiom": "status_quo_independence", "trials": 10, "violations": 10,
        "counterexample": {
            "x": [-0.7312715117751976, 0.6948674738744653, 0.5275492379532281],
            "w": [0.3031859454455259, 0.5774467022710263, -0.8122808264515302],
            "w2": [-0.9433050469559874, 0.6715302078397394, -0.13446586418989326],
            "spread": 1.9997131798444276,
        },
    }


def golden_float_reports():
    """The reports test_golden_float_reports pins, in its order; also run by
    tests/lp_golden_digests.py."""
    cubic = cubic_oracle(3)
    sphere = SphericalParams(-0.6, (0.3, -0.5, 0.55))
    oracles = (
        (cubic, {}),
        (ComparisonOracle(dim=3, compare=cubic.compare), {}),
        (cubic, {"tie_rel": 1e-6}),
        (params_oracle(sphere), {}),
        (ComparisonOracle(dim=3, compare=params_oracle(sphere).compare), {}),
    )
    reports = [checker(oracle, 300, rng_seed=4, **kw) for oracle, kw in oracles for checker in NECESSITY_CHECKERS]
    reports.append(check_strict_convexity(sphere, 200, rng_seed=4))
    reports.append(check_strict_convexity(SphericalParams(0.5, (0.25, 0.0, -1.0)), 200, rng_seed=4))
    reports.append(check_status_quo_independence(cubic_utility(3), 50, rng_seed=4))
    quad = coefficient_oracle(((1.0, 0.5, 0.0), (0.5, -2.0, 0.0), (0.0, 0.0, 0.25)), (1.0, 0.0, -3.0))
    reports.append(check_status_quo_independence(quad, 50, rng_seed=4))
    return reports


def reports_digest(reports):
    return hashlib.sha256(dumps([r.to_dict() for r in reports]).encode()).hexdigest()


def test_golden_float_reports():
    reports = golden_float_reports()
    assert [r.violations for r in reports] == [15, 40, 3, 51] * 3 + [0] * 9 + [133, 50, 0]
    assert reports_digest(reports) == "0126841164f06c0d7cc04531fd690ac9a37208c8ec89425d2451bf876999fcd7"


@given(
    st.integers(0, 2**32),
    st.integers(0, 7),
    st.one_of(st.floats(1e-6, 1e6), st.integers(1, 9), st.fractions(F(1, 8), 8)),
)
def test_float_sample_vector_draws_like_uniform(seed, dim, radius):
    # the same values and the same generator state as rng.uniform(-r, r)
    mine, ref = random.Random(seed), random.Random(seed)
    drawn = sample_vector(mine, dim, FLOAT, radius)
    expected = tuple(ref.uniform(-float(radius), float(radius)) for _ in range(dim))
    assert repr(drawn) == repr(expected)
    assert mine.getstate() == ref.getstate()


@given(
    st.integers(0, 2**32),
    st.integers(0, 7),
    st.one_of(st.floats(1e-6, 1e6), st.integers(1, 9), st.fractions(F(1, 8), 8)),
)
def test_exact_sample_vector_draws_sixteenths_like_fraction(seed, dim, radius):
    # the same values and the same generator state as building each Fraction
    mine, ref = random.Random(seed), random.Random(seed)
    drawn = sample_vector(mine, dim, EXACT, radius)
    span = max(1, round(float(radius) * 16))
    expected = tuple(F(ref.randint(-span, span), 16) for _ in range(dim))
    assert repr(drawn) == repr(expected)
    assert mine.getstate() == ref.getstate()


@pytest.mark.parametrize("checker", [check_oioi, check_perp_diff, check_soioi, check_homotheticity])
def test_float_checkers_reject_overflowing_utilities(checker):
    # inf/nan utilities are unusable input, never a verdict
    with pytest.raises(ValueError, match="not finite"):
        checker(params_oracle(SphericalParams(-1, (1e308, 1e308, 0))), 20, mode=FLOAT)
    # a huge int meeting float points overflows inside the trial
    with pytest.raises(ValueError, match="overflows a float"):
        checker(params_oracle(SphericalParams(10**400, (1, 0, 0))), 20, mode=FLOAT)


# The exact trials before they ran on integer numerators, kept verbatim as the
# reference the integer trials are compared against: Fraction tuples from
# sample_vector, project_out and add, one Fraction addition per entry.
def reference_equal_norm_partner(rng, x, mode):
    n = len(x)
    if mode == EXACT or n == 1:
        order = list(range(n))
        rng.shuffle(order)
        return tuple(x[order[i]] * rng.choice((1, -1)) for i in range(n))
    return ax._equal_norm_partner(rng, x, mode)


def reference_oioi(oracle, trials, rng_seed=0, mode=FLOAT, radius=1.0):
    n = oracle.dim

    def trial(rng, t):
        w = sample_vector(rng, n, mode, radius)
        x = sample_vector(rng, n, mode, radius)
        y = sample_vector(rng, n, mode, radius)
        z = project_out(sample_vector(rng, n, mode, radius), [x, y])
        wx, wy = add(w, x), add(w, y)
        if ax._ranks_alike(oracle, mode, ax.TIE_REL, wx, wy, add(wx, z), add(wy, z)):
            return None
        return {"w": w, "x": x, "y": y, "z": z}

    return ax._run_trials("oioi", trials, random.Random(rng_seed), trial)


def reference_perp_diff(oracle, trials, rng_seed=0, mode=FLOAT, radius=1.0):
    n = oracle.dim

    def trial(rng, t):
        x = sample_vector(rng, n, mode, radius)
        y = sample_vector(rng, n, mode, radius)
        d = project_out(sample_vector(rng, n, mode, radius), [sub(x, y)])
        if ax._ranks_alike(oracle, mode, ax.TIE_REL, x, y, add(x, d), add(y, d)):
            return None
        return {"x": x, "y": y, "d": d}

    return ax._run_trials("perp_diff", trials, random.Random(rng_seed), trial)


def reference_soioi(oracle, trials, rng_seed=0, mode=FLOAT, radius=1.0):
    n = oracle.dim

    def trial(rng, t):
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
            weak_cut, strict_cut = tie_cuts(vals, mode, ax.TIE_REL, ax.STRICT_REL)
            if mode != EXACT and not math.isfinite(m1 + m2 + m3 + strict_cut):
                raise ax._not_finite(vals)
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

    return ax._run_trials("soioi", trials, random.Random(rng_seed), trial)


def reference_homotheticity(oracle, trials, rng_seed=0, mode=FLOAT, radius=1.0):
    n = oracle.dim

    def trial(rng, t):
        w = sample_vector(rng, n, mode, radius)
        x = sample_vector(rng, n, mode, radius)
        y = reference_equal_norm_partner(rng, x, mode)
        if mode == EXACT:
            beta = F(rng.randint(1, 160), 16)
        else:
            beta = rng.uniform(0.0, 10.0) or 10.0
        if ax._ranks_alike(oracle, mode, ax.TIE_REL, add(w, x), add(w, y), add(w, scale(beta, x)),
                           add(w, scale(beta, y))):
            return None
        return {"w": w, "x": x, "y": y, "beta": beta}

    return ax._run_trials("homotheticity", trials, random.Random(rng_seed), trial)


REFERENCE_CHECKERS = {
    check_oioi: reference_oioi,
    check_perp_diff: reference_perp_diff,
    check_soioi: reference_soioi,
    check_homotheticity: reference_homotheticity,
}


def recording(oracle):
    """The oracle with every call logged, arguments by repr (types included)."""
    calls = []

    def cmp(x, y):
        calls.append(("compare", repr(x), repr(y)))
        return oracle.compare(x, y)

    def util(x):
        calls.append(("utility", repr(x)))
        return oracle.utility(x)

    return ComparisonOracle(oracle.dim, cmp, util if oracle.utility else None, oracle.name), calls


def _entry_types(counterexample):
    if counterexample is None:
        return None
    return {k: tuple(map(type, v)) if isinstance(v, tuple) else type(v) for k, v in counterexample.items()}


def differential_oracle(kind, rng, n):
    exact = SphericalParams(F(rng.randint(-20, 20), 20), tuple(F(rng.randint(-20, 20), 20) for _ in range(n)))
    if kind == "params":
        return params_oracle(exact)
    if kind == "int_params":  # no Fraction: the plain-arithmetic utility
        return params_oracle(SphericalParams(rng.randint(-3, 3), tuple(rng.randint(-3, 3) for _ in range(n))))
    if kind == "compare_only":
        return ComparisonOracle(n, lambda x, y: compare(exact, x, y), name="compare_only")
    if kind == "cubic":
        return cubic_oracle(n) if n >= 2 else utility_comparison_oracle(cubic_function(1), 1)
    return utility_comparison_oracle(lambda x: x[0] * abs(x[-1]) - x[-1], n)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(REFERENCE_CHECKERS, key=lambda c: c.__name__)),
    st.sampled_from(["params", "int_params", "compare_only", "cubic", "utility"]),
    st.sampled_from([EXACT, FLOAT]),
    st.integers(0, 2**32),
    st.integers(1, 6),
    st.one_of(st.integers(1, 4), st.floats(0.05, 4.0), st.fractions(F(1, 8), 4), st.just(0.01)),
    st.integers(1, 12),
)
def test_checker_trials_match_the_fraction_reference(checker, kind, mode, seed, dim, radius, trials):
    # same report, same counterexample types, same oracle calls with equal arguments
    oracle = differential_oracle(kind, random.Random(seed), dim)
    mine, mine_calls = recording(oracle)
    ref, ref_calls = recording(oracle)
    got = checker(mine, trials, rng_seed=seed, mode=mode, radius=radius)
    want = REFERENCE_CHECKERS[checker](ref, trials, rng_seed=seed, mode=mode, radius=radius)
    assert got.to_dict() == want.to_dict()
    assert _entry_types(got.counterexample) == _entry_types(want.counterexample)
    assert mine_calls == ref_calls


@pytest.mark.parametrize("checker", NECESSITY_CHECKERS)
def test_exact_checkers_reject_an_infinite_radius_like_the_reference(checker):
    oracle = params_oracle(SphericalParams(F(-1, 2), (F(1, 3), 0, 0)))
    errors = []
    for fn in (checker, REFERENCE_CHECKERS[checker]):
        with pytest.raises(ValueError) as info:
            fn(oracle, 5, rng_seed=1, mode=EXACT, radius=float("inf"))
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_exact_checkers_make_no_fraction_additions(monkeypatch):
    # the exact trials add integer numerators; Fractions are built, never added
    added = []
    plain = F.__add__

    def counting(a, b):
        added.append((a, b))
        return plain(a, b)

    monkeypatch.setattr(F, "__add__", counting)
    assert F(1, 2) + F(1, 3) == F(5, 6) and len(added) == 1  # the patch counts
    added.clear()
    oracle = params_oracle(SphericalParams(F(-1, 2), (F(1, 3), F(2, 5), F(-1, 4))))
    for checker in NECESSITY_CHECKERS:
        assert checker(oracle, 40, rng_seed=3, mode=EXACT).violations == 0
    assert added == []


def test_float_strict_convexity_rejects_utilities_that_overflow():
    # a Euclidean preference has no violations; once x.x overflows, inf - inf
    # must not rank as a tie (a tie counts as a violation)
    euclid = SphericalParams(-1.0, (1.0, 0.0, 0.0))
    assert check_strict_convexity(euclid, 20, radius=1e150).violations == 0
    for radius in (1e154, 1e155, 1e307):
        with pytest.raises(ValueError, match=r"float utilities \[-inf, -inf\] or their differences are not finite"):
            check_strict_convexity(euclid, 20, radius=radius)
    # a gap that overflows between finite utilities is not a tie either
    linear = SphericalParams(0.0, (1e308, 1e308, 0.0))
    with pytest.raises(ValueError, match="not finite"):
        check_strict_convexity(linear, 20, radius=1.0)


def test_both_oracle_kinds_refuse_float_gaps_that_are_not_finite():
    # both ranked an overflowing pair INDIFFERENT; the tie rule now refuses it
    euclid = SphericalParams(-1.0, (1.0, 0.0, 0.0))
    oracles = (params_oracle(euclid), utility_comparison_oracle(lambda x: -dot(x, x) + x[0], 3))
    for oracle in oracles:
        assert oracle.compare((1e150, 0.0, 0.0), (0.0, 0.0, 0.0)) is Ordering.WORSE
        with pytest.raises(ValueError, match="not finite"):
            oracle.compare((1e200, 0.0, 0.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "mode, radius",
    [(FLOAT, 1e308), (FLOAT, 10**400), (EXACT, 2e307), (EXACT, F(10**400, 3))],
    ids=["float-1e308", "float-int", "exact-2e307", "exact-fraction"],
)
def test_a_radius_too_large_for_the_box_is_named(mode, radius):
    # the box's width is 2 * radius, and 16 grid steps per radius in exact mode
    message = f"radius {radius} is too large"
    with pytest.raises(ValueError) as info:
        sample_vector(random.Random(0), 3, mode, radius)
    assert str(info.value) == message
    euclid = SphericalParams(-1.0, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError) as info:
        check_strict_convexity(euclid, 4, mode=mode, radius=radius)
    assert str(info.value) == message
    for checker in NECESSITY_CHECKERS:
        with pytest.raises(ValueError) as info:
            checker(params_oracle(euclid), 4, mode=mode, radius=radius)
        assert str(info.value) == message


def test_the_largest_radii_still_draw():
    # just under each limit every coordinate is finite
    rng = random.Random(0)
    assert all(math.isfinite(v) for v in sample_vector(rng, 3, FLOAT, 8.98e307))
    assert all(math.isfinite(v) for v in sample_vector(rng, 3, EXACT, 1.12e307))


@pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, "3", None, F(3)])
@pytest.mark.parametrize("checker", TRIAL_CHECKERS)
def test_trial_checkers_refuse_a_trial_count_that_is_not_an_int(checker, trials):
    # True once ran one trial and reported "trials": true; 2.5 raised a bare TypeError
    with pytest.raises(ValueError, match=re.escape(f"trials must be an int, not {trials!r}")):
        checker(trial_subject(checker), trials, rng_seed=1)


def test_several_bad_arguments_raise_the_first_check_s_error():
    # tie_rel, then the trial count, then the mode, then the seed, then the radius
    oracle = cubic_oracle(3)
    with pytest.raises(ValueError, match="tie_rel"):
        check_oioi(oracle, 0, mode="x", radius=-1, tie_rel=-1)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        check_oioi(oracle, 0, mode="x", radius=-1)
    with pytest.raises(ValueError, match="unknown arithmetic mode"):
        check_oioi(oracle, 5, mode="x", radius=-1)
    with pytest.raises(TypeError):  # the seed, as random.Random refuses it
        check_oioi(oracle, 5, rng_seed=[1], radius=-1)
    with pytest.raises(TypeError):
        check_strict_convexity(SphericalParams(-1, (0, 0, 0)), 5, rng_seed=[1], mode=EXACT, radius=-1)
    with pytest.raises(ValueError, match="trials must be at least 2"):
        check_status_quo_independence(cubic_utility(3), 1, tol=-1, mode="x", radius=-1)
    with pytest.raises(ValueError, match="tol must be"):
        check_status_quo_independence(cubic_utility(3), 5, tol=-1, mode="x", radius=-1)
    with pytest.raises(TypeError):
        check_status_quo_independence(cubic_utility(3), 5, rng_seed=[1], radius=-1)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("checker", TRIAL_CHECKERS)
def test_every_trial_of_a_checker_that_skips_none_is_evaluated(checker, mode):
    report = checker(trial_subject(checker), 30, rng_seed=2, mode=mode)
    assert report.evaluated == report.trials == 30
    # evaluated is no part of a report's equality, repr or document
    assert report == replace(report, evaluated=0)
    assert "evaluated" not in repr(report) and "evaluated" not in report.to_dict()


@pytest.mark.parametrize("seed", range(4))
def test_strict_convexity_evaluates_the_trials_it_does_not_skip(seed):
    # under total indifference every trial that is not skipped is a violation;
    # on the 1/16 grid with one step per radius, skipped trials are common
    report = check_strict_convexity(SphericalParams(0, (0,)), 300, rng_seed=seed, mode=EXACT, radius=F(1, 16))
    assert report.evaluated == report.violations
    assert 100 < report.evaluated < report.trials == 300


# The float rotations of the equal-norm partner as the checkers drew them
# before they drew indices and angles with randrange and random directly.
def reference_float_partner(rng, x):
    n = len(x)
    y = [float(v) for v in x]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ci, sj = math.cos(theta), math.sin(theta)
        y[i], y[j] = ci * y[i] - sj * y[j], sj * y[i] + ci * y[j]
    return tuple(y)


@pytest.mark.parametrize("n", range(2, 31))
def test_the_float_partner_draws_like_sample_and_uniform(n):
    # both of sample's paths: a pool up to n = 21, a set with redraws above
    x = tuple(float(k + 1) for k in range(n))  # distinct entries show every pair
    for seed in range(60):
        mine, ref = random.Random(seed), random.Random(seed)
        assert repr(ax._equal_norm_partner(mine, x, FLOAT)) == repr(reference_float_partner(ref, x))
        assert mine.getstate() == ref.getstate()


# The float trial operations before the checkers built them once per call,
# kept verbatim: sample_vector checked the radius on every draw, add checked
# lengths, and project_out ran the generic dispatch with the absolute floor
# 1e-13 * max(1.0, norm(b)) on its float dependence test.
def reference_sample_vector(rng, dim, mode=FLOAT, radius=1.0):
    hi = ax.box_radius(radius, 2)
    lo = -hi
    width, draw = hi + hi, rng.random
    return tuple(lo + width * draw() for _ in range(dim))


def reference_reduce(w, ortho, unit=False):
    for u in ortho:
        coeff = dot(w, u)
        if not unit:
            uu = dot(u, u)
            coeff = F(coeff, uu) if type(coeff) is int and type(uu) is int else coeff / uu
        w = tuple(w[i] - coeff * u[i] for i in range(len(w)))
    return w


def reference_float_project_out(v, basis):
    from spherepref.geometry import _same_dim, is_exact, is_zero, norm

    for b in basis:
        _same_dim(v, b)
    basis = [b for b in basis if not is_zero(b)]
    exact = all(is_exact(b) for b in basis)
    ortho = []
    for b in basis:
        w = reference_reduce(b, ortho)
        if exact:
            if not is_zero(w):
                ortho.append(w)
            continue
        w = reference_reduce(w, ortho, unit=True)
        wn = norm(w)
        if wn > 1e-13 * max(1.0, norm(b)):
            ortho.append(tuple(x / wn for x in w))
    r = reference_reduce(v, ortho)
    if not is_exact(v) or any(not is_exact(u) for u in ortho):
        r = reference_reduce(r, ortho)
    return r


def reference_float_trial_ops(trials, mode, radius, rng_seed):
    assert mode == FLOAT
    draw = lambda rng, n: reference_sample_vector(rng, n, mode, radius)  # noqa: E731
    return random.Random(rng_seed), draw, add, reference_float_project_out, scale, lambda v: v


def float_trial_subjects(checker, n, rng):
    """Subjects with and without violations for each float trial checker."""
    if checker is check_strict_convexity:
        d = tuple(rng.uniform(-1, 1) for _ in range(n))
        return [SphericalParams(c, d) for c in (-0.7, 0.0, 0.4)] + [SphericalParams(0.0, (0.0,) * n)]
    if checker is check_status_quo_independence:
        a = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        sym = tuple(tuple((a[i][j] + a[j][i]) / 2 for j in range(n)) for i in range(n))
        return [cubic_utility(n), coefficient_oracle(sym, tuple(rng.uniform(-1, 1) for _ in range(n)))]
    sphere = params_oracle(SphericalParams(rng.uniform(-1, 1), tuple(rng.uniform(-1, 1) for _ in range(n))))
    cubic = cubic_oracle(n) if n >= 2 else utility_comparison_oracle(cubic_function(1), 1)
    return [sphere, ComparisonOracle(n, sphere.compare), cubic, ComparisonOracle(n, cubic.compare)]


@pytest.mark.parametrize("checker", TRIAL_CHECKERS)
def test_float_trials_match_the_reference_float_trial_ops(checker, monkeypatch):
    import spherepref.cardinal as cardinal

    rng = random.Random(27)
    cases = [(n, subject, radius, seed) for n in range(1, 8) for subject in float_trial_subjects(checker, n, rng)
             for radius in (1, 0.3, F(5, 2)) for seed in (rng.randrange(2**32) for _ in range(2))]
    trials = 2 if checker is check_status_quo_independence else 40
    got = [dumps(checker(s, trials, rng_seed=seed, radius=r).to_dict()) for n, s, r, seed in cases]
    monkeypatch.setattr(ax, "_trial_ops", reference_float_trial_ops)
    monkeypatch.setattr(cardinal, "_trial_ops", reference_float_trial_ops)
    partner = ax._equal_norm_partner  # the same rule for n = 1 before and after
    monkeypatch.setattr(ax, "_equal_norm_partner",
                        lambda rng, x, mode: reference_float_partner(rng, x) if len(x) > 1 else partner(rng, x, mode))
    want = [dumps(checker(s, trials, rng_seed=seed, radius=r).to_dict()) for n, s, r, seed in cases]
    assert got == want
    assert sum('"violations": 0' not in doc for doc in got) >= len(got) // 10  # counterexamples compared too
