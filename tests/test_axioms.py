import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spherepref.axioms import (
    AxiomReport,
    ComparisonOracle,
    antipodal_indifference,
    check_homotheticity,
    check_oioi,
    check_perp_diff,
    check_soioi,
    check_strict_convexity,
    cubic_oracle,
    find_monotone_direction,
    params_oracle,
    random_orthonormal_plane,
    sample_vector,
    utility_comparison_oracle,
)
from spherepref.cardinal import check_status_quo_independence, coefficient_oracle, cubic_utility
from spherepref.formats import dumps
from spherepref.geometry import EXACT, FLOAT, add, dot, sub
from spherepref.preference import (
    Ordering,
    SphericalParams,
    canonicalize,
    classify,
    compare,
    sphere_normal,
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


def test_golden_exact_reports():
    cubic = cubic_oracle(3)
    blind = ComparisonOracle(dim=3, compare=cubic.compare)
    for checker, (trials, expected) in GOLDEN_EXACT_CUBIC.items():
        for oracle in (cubic, blind):
            assert checker(oracle, trials, rng_seed=1, mode=EXACT).to_dict() == expected, checker.__name__
    anti = SphericalParams(F(1, 2), (F(1, 3), F(-1, 4), 0))
    assert check_strict_convexity(anti, 40, rng_seed=3, mode=EXACT).to_dict() == {
        "axiom": "strict_convexity", "trials": 40, "violations": 31,
        "counterexample": {"x": ["13/24", "1/4", "-1/8"], "y": ["-29/24", "1/4", "1/8"]},
    }
    assert check_status_quo_independence(cubic_utility(3), 10, rng_seed=1).to_dict() == {
        "axiom": "status_quo_independence", "trials": 10, "violations": 10,
        "counterexample": {
            "x": [-0.7312715117751976, 0.6948674738744653, 0.5275492379532281],
            "w": [0.3031859454455259, 0.5774467022710263, -0.8122808264515302],
            "w2": [-0.9433050469559874, 0.6715302078397394, -0.13446586418989326],
            "spread": 1.9997131798444276,
        },
    }


def test_golden_float_reports():
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
    assert [r.violations for r in reports] == [15, 40, 3, 51] * 3 + [0] * 9 + [133, 50, 0]
    digest = hashlib.sha256(dumps([r.to_dict() for r in reports]).encode()).hexdigest()
    assert digest == "0126841164f06c0d7cc04531fd690ac9a37208c8ec89425d2451bf876999fcd7"


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
