import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from spherepref.cardinal import (
    LineSearch,
    NotQuadraticLinear,
    QuadLinDecomposition,
    UtilityOracle,
    _bilinear,
    _QuadLin,
    check_eventual_linearity,
    check_status_quo_independence,
    coefficient_oracle,
    cubic_utility,
    decompose,
    extract_f,
    u_orthogonal,
    utility_oracle,
)
from spherepref.geometry import EXACT, add, basis_vector, dot, zeros
from spherepref.preference import SphericalParams, utility as spherical_utility

IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def random_symmetric(rng, n, exact=False):
    entries = lambda: (F(rng.randint(-12, 12), 4) if exact else rng.uniform(-2, 2))  # noqa: E731
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = entries()
    b = tuple(entries() for _ in range(n))
    return tuple(tuple(row) for row in a), b


def test_extract_f_examples():
    u = coefficient_oracle(IDENTITY3, (5, -1, 2))
    e1 = basis_vector(3, 1)
    assert extract_f(u, (1, 0, 0), zeros(3)) == 1
    assert extract_f(u, (1, 0, 0), (1, 1, 1)) == 1  # status quo drops out
    assert extract_f(u, zeros(3), (1, 1, 1)) == 0
    assert extract_f(u, e1, (9, 9, 9)) == 1


def test_decompose_identity_plus_linear():
    dec = decompose(coefficient_oracle(IDENTITY3, (1, 2, 3)))
    assert dec.bilinear == IDENTITY3
    assert dec.linear == (1, 2, 3)
    assert dec.residual == 0


def test_decompose_cross_term_polarization():
    # U(x) = x1*x2: the symmetric form splits the cross coefficient
    u = coefficient_oracle(((0, 1, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0))
    dec = decompose(u)
    assert dec.bilinear[0][1] == F(1, 2)
    assert dec.bilinear[1][0] == F(1, 2)
    assert dec.linear == (0, 0, 0)
    # matrix identity oracle: x^T S x reproduces x1*x2 on a grid
    for x1 in range(-3, 4):
        for x2 in range(-3, 4):
            x = (x1, x2, 1)
            assert dec.quadratic_form(x, x) + dot(dec.linear, x) == x1 * x2


def test_decompose_rejects_cubic():
    with pytest.raises(NotQuadraticLinear) as exc:
        decompose(cubic_utility(3))
    assert exc.value.residual > exc.value.threshold


def test_cubic_reconstruction_residual_grows_with_radius():
    # the cubic's even part around any status quo is a legitimate quadratic,
    # so the rejection evidence is the reconstruction defect, which grows
    # with the probe radius
    u = cubic_utility(3)
    z0 = zeros(3)
    f = lambda x: extract_f(u, x, z0)  # noqa: E731
    s_e1 = f((2, 0, 0)) / 4
    g = tuple(u(basis_vector(3, i)) - f(basis_vector(3, i)) for i in range(3))
    residuals = []
    for t in (1, 2, 4):
        x = (t, 0, 0)
        residuals.append(abs(u(x) - (s_e1 * t * t + dot(g, x))))
    assert residuals[2] > residuals[1] > residuals[0] >= 0


def test_decompose_float_recovers_symmetric_part():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.choice([2, 3, 4, 6])
        a, b = random_symmetric(rng, n)
        dec = decompose(coefficient_oracle(a, b))
        for i in range(n):
            assert dec.linear[i] == pytest.approx(b[i], abs=1e-9)
            for j in range(n):
                assert dec.bilinear[i][j] == pytest.approx(a[i][j], abs=1e-9)


def test_decompose_invariant_to_status_quo():
    rng = random.Random(13)
    a, b = random_symmetric(rng, 4)
    u = coefficient_oracle(a, b)
    base = decompose(u)
    for trial in range(10):
        z0 = tuple(rng.uniform(-3, 3) for _ in range(4))
        other = decompose(u, probe_z=[z0])
        for i in range(4):
            assert other.linear[i] == pytest.approx(base.linear[i], abs=1e-9)
            for j in range(4):
                assert other.bilinear[i][j] == pytest.approx(base.bilinear[i][j], abs=1e-9)


def test_parallelogram_and_additivity_laws():
    rng = random.Random(14)
    for exact in (False, True):
        a, b = random_symmetric(rng, 3, exact=exact)
        u = coefficient_oracle(a, b)
        z0 = zeros(3)

        def f(x):
            return extract_f(u, x, z0)

        def g(x):
            return u(x) - f(x)

        for _ in range(300):
            if exact:
                x = tuple(F(rng.randint(-16, 16), 8) for _ in range(3))
                y = tuple(F(rng.randint(-16, 16), 8) for _ in range(3))
            else:
                x = tuple(rng.uniform(-2, 2) for _ in range(3))
                y = tuple(rng.uniform(-2, 2) for _ in range(3))
            par = f(add(x, y)) + f(tuple(x[i] - y[i] for i in range(3))) - 2 * f(x) - 2 * f(y)
            addv = g(add(x, y)) - g(x) - g(y)
            if exact:
                assert par == 0 and addv == 0
            else:
                scale = 1 + abs(f(x)) + abs(f(y)) + abs(g(x)) + abs(g(y))
                assert abs(par) <= 1e-9 * scale
                assert abs(addv) <= 1e-9 * scale


def test_status_quo_independence_reports():
    u = coefficient_oracle(IDENTITY3, (1, 0, 0))
    assert check_status_quo_independence(u, 100, rng_seed=1).violations == 0
    assert check_status_quo_independence(u, 50, rng_seed=1, mode=EXACT).violations == 0
    bad = check_status_quo_independence(cubic_utility(3), 100, rng_seed=1)
    assert bad.violations > 0
    assert bad.counterexample is not None and "spread" in bad.counterexample
    with pytest.raises(ValueError):
        check_status_quo_independence(u, 1)


def test_status_quo_independence_rejects_non_finite_float_trials():
    # the cubic violates every trial; scaled by 1e308 most even parts overflow
    cubic = utility_oracle(lambda x: x[0] ** 3 + x[1], 2)
    assert check_status_quo_independence(cubic, 50, rng_seed=1).violations == 50
    huge = utility_oracle(lambda x: 1e308 * x[0] ** 3 + x[1], 2)
    with pytest.raises(ValueError, match="not finite"):
        check_status_quo_independence(huge, 50, rng_seed=1)
    # a nan that max and min would step over
    holed = utility_oracle(lambda x: float("nan") if x[0] > 1 else x[0] * x[0], 2)
    with pytest.raises(ValueError, match="not finite"):
        check_status_quo_independence(holed, 50, rng_seed=1)


def test_cubic_status_quo_spread_is_visible_by_hand():
    # f at x = e1 differs by 6 between status quos 0 and e1 for U = x1^3 + x2
    u = cubic_utility(3)
    e1 = basis_vector(3, 0)
    assert extract_f(u, e1, zeros(3)) == 0
    assert extract_f(u, e1, e1) == 3
    assert extract_f(u, (2, 0, 0), e1) - extract_f(u, (2, 0, 0), zeros(3)) == 12


def test_eventual_linearity_quad_lin_holds_everywhere():
    u = coefficient_oracle(IDENTITY3, (1, 2, 3))
    w = check_eventual_linearity(u, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert w == zeros(3)


def test_eventual_linearity_antisymmetric_pair_trivial():
    u = cubic_utility(3)
    assert check_eventual_linearity(u, (1, 2, 3), (-1, -2, -3)) == zeros(3)


def test_eventual_linearity_cubic():
    u = cubic_utility(3)
    # x = y = e1 gives a constant nonzero defect: no root can exist
    assert check_eventual_linearity(u, (1, 0, 0), (1, 0, 0), LineSearch(directions=8)) is None
    # orthogonal-in-first-coordinate pair: defect vanishes identically
    assert check_eventual_linearity(u, (1, 0, 0), (0, 1, 0)) == zeros(3)


def test_eventual_linearity_evaluates_the_origin_once():
    # x = y = e1 on a cubic: the defect is 12 everywhere, so no direction finds
    # a root; the defect at the origin, the only place U(x + y) is read, is
    # evaluated once and reused as the start of every ray
    sxy_calls = []

    def cubic(p):
        if p == (2, 0, 0):
            sxy_calls.append(p)
        return p[0] ** 3

    u = utility_oracle(cubic, 3)
    assert check_eventual_linearity(u, (1, 0, 0), (1, 0, 0), LineSearch(directions=2, max_radius=4.0)) is None
    assert len(sxy_calls) == 1


def test_eventual_linearity_finds_interior_root():
    # U = x1^4 + x1^3 with x = y = e1: the defect is 48*w1 + 12, a genuine
    # sign change away from the origin that bisection must localize
    u = utility_oracle(lambda x: x[0] ** 4 + x[0] ** 3, 2)
    x = y = (1.0, 0.0)
    w = check_eventual_linearity(u, x, y)
    assert w is not None
    assert w[0] == pytest.approx(-0.25, abs=1e-6)
    sxy = add(x, y)
    lhs = u(add(w, sxy)) - u(tuple(w[i] - sxy[i] for i in range(2)))
    rhs = 2 * (u(add(w, x)) - u(tuple(w[i] - x[i] for i in range(2))))
    assert lhs == pytest.approx(rhs, abs=1e-6)


def banded_cubic(levels, calls):
    """x1^3 times levels(|x2|): with x = y = e1 the six points of a defect all
    share w's x2, and the defect is 12 * levels(|w2|)."""
    def fn(p):
        calls.append(p)
        return p[0] ** 3 * levels(abs(p[1]))
    return utility_oracle(fn, 3)


def first_direction(seed=0, n=3):
    rng = random.Random(seed)
    return tuple(rng.gauss(0.0, 1.0) for _ in range(n))


def test_eventual_linearity_root_at_a_doubling_radius():
    # defect 12 out to radius 1, 0 from radius 2 on: no sign change, the
    # root is the radius-2 point itself
    direction = first_direction()
    band = 1.5 * abs(direction[1])
    calls = []
    u = banded_cubic(lambda a: 1 if a < band else 0, calls)
    calls.clear()
    w = check_eventual_linearity(u, (1, 0, 0), (1, 0, 0), LineSearch(directions=1))
    assert w == tuple(2.0 * v for v in direction)
    assert len(calls) == 3 * 6  # the origin, radius 1, radius 2


def test_eventual_linearity_moves_on_when_bisection_runs_out():
    # defect 12, then -12 past radius 1.5, then 0 past radius 3: the sign
    # change between radii 1 and 2 is a jump with no root, so bisection uses
    # all its steps and the search goes on to the root at radius 4
    direction = first_direction()
    d1 = abs(direction[1])
    calls = []
    u = banded_cubic(lambda a: 1 if a < 1.5 * d1 else -1 if a < 3 * d1 else 0, calls)
    calls.clear()
    w = check_eventual_linearity(u, (1, 0, 0), (1, 0, 0), LineSearch(directions=1, bisect_steps=5))
    assert w == tuple(4.0 * v for v in direction)
    assert len(calls) == (3 + 5 + 1) * 6  # the origin, radii 1 and 2, 5 bisection steps, radius 4


@pytest.mark.parametrize("budget, message", [
    ({"directions": 2.5}, "directions must be an int"),
    ({"directions": True}, "directions must be an int"),
    ({"directions": 0}, "directions must be at least 1"),
    ({"bisect_steps": 1.5}, "bisect_steps must be an int"),
    ({"bisect_steps": -1}, "bisect_steps must be at least 0"),
])
def test_eventual_linearity_rejects_counts_that_are_not_ints_in_range(budget, message):
    # the budget went unchecked: here the origin answers first; later, directions=2.5 raised a bare TypeError
    with pytest.raises(ValueError, match=message):
        check_eventual_linearity(cubic_utility(3), (1, 0, 0), (0, 1, 0), LineSearch(**budget))


def test_eventual_linearity_without_bisection():
    # bisect_steps=0 skips the jump between radii 1 and 2 and goes on to the root at radius 4
    direction = first_direction()
    d1 = abs(direction[1])
    calls = []
    u = banded_cubic(lambda a: 1 if a < 1.5 * d1 else -1 if a < 3 * d1 else 0, calls)
    calls.clear()
    w = check_eventual_linearity(u, (1, 0, 0), (1, 0, 0), LineSearch(directions=1, bisect_steps=0))
    assert w == tuple(4.0 * v for v in direction)
    assert len(calls) == (3 + 1) * 6


def test_eventual_linearity_refuses_values_beyond_the_float_range():
    # the cut took float() of each value: a bare OverflowError
    with pytest.raises(ValueError, match="overflows a float"):
        check_eventual_linearity(UtilityOracle(2, lambda x: 10**400 * x[0] ** 3), (1, 0), (0, 1))


@pytest.mark.parametrize("residual_rel", [-1, math.nan, math.inf])
def test_decompose_rejects_a_residual_rel_that_is_not_finite_and_nonnegative(residual_rel):
    # nan once accepted the cubic (residual 6); -1 once rejected an exact fit
    for u in (cubic_utility(3), coefficient_oracle(IDENTITY3, (1, 0, 0))):
        with pytest.raises(ValueError, match="residual_rel must be a finite number >= 0"):
            decompose(u, residual_rel=residual_rel)
    assert decompose(coefficient_oracle(IDENTITY3, (1, 0, 0)), residual_rel=0).residual == 0


@pytest.mark.parametrize("tol", [-1, math.nan, math.inf])
def test_status_quo_independence_rejects_a_tol_that_is_not_finite_and_nonnegative(tol):
    # -1 once reported 20 of 20 violations on the exact quadratic x.x
    u = coefficient_oracle(IDENTITY3, (0, 0, 0))
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        check_status_quo_independence(u, 20, tol=tol)
    assert check_status_quo_independence(u, 20, tol=1e-9).violations == 0


@pytest.mark.parametrize("budget", [{"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
                                    {"max_radius": 0.0}, {"max_radius": math.nan}, {"max_radius": math.inf},
                                    {"max_radius": None}, {"tol": "x"}])
def test_eventual_linearity_rejects_a_budget_that_is_not_finite(budget):
    # a nan or negative tol once reported no root for x.x + (1, 2, 3).x, whose defect is 0 everywhere
    u = coefficient_oracle(IDENTITY3, (1, 2, 3))
    name = next(iter(budget))
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        check_eventual_linearity(u, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), LineSearch(**budget))


@pytest.mark.parametrize("tol", [-1, math.nan, math.inf])
def test_u_orthogonal_rejects_a_tol_that_is_not_finite_and_nonnegative(tol):
    # nan once called e1 and e2 non-orthogonal
    dec = decompose(coefficient_oracle(IDENTITY3, (0, 0, 0)))
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        u_orthogonal(dec, (1, 0, 0), (0, 1, 0), tol=tol)
    assert u_orthogonal(dec, (1, 0, 0), (0, 1, 0), tol=0)


def test_u_orthogonal():
    dec = decompose(coefficient_oracle(IDENTITY3, (0, 0, 0)))
    assert u_orthogonal(dec, (1, 0, 0), (0, 1, 0))
    assert not u_orthogonal(dec, (1, 0, 0), (1, 0, 0))
    cross = decompose(coefficient_oracle(((0, 1, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0)))
    assert not u_orthogonal(cross, (1, 0, 0), (0, 1, 0))  # form value 1/2


def test_conditional_additivity_on_u_orthogonal_pairs():
    rng = random.Random(15)
    a, b = random_symmetric(rng, 3, exact=True)
    u = coefficient_oracle(a, b)
    dec = decompose(u)
    found = 0
    for _ in range(200):
        x = tuple(F(rng.randint(-8, 8), 4) for _ in range(3))
        z = tuple(F(rng.randint(-8, 8), 4) for _ in range(3))
        sxx = dec.quadratic_form(x, x)
        if sxx == 0:
            continue
        # project z to be S-orthogonal to x
        coeff = dec.quadratic_form(x, z) / sxx
        z = tuple(z[i] - coeff * x[i] for i in range(3))
        assert u_orthogonal(dec, x, z, tol=0)
        assert u(add(x, z)) - u(x) - u(z) == 0
        found += 1
    assert found > 100


def test_bridge_to_spherical_parameters():
    p = SphericalParams(F(-2, 3), (F(1, 5), F(0), F(3, 7)))
    u = utility_oracle(lambda x: spherical_utility(p, x), 3)
    dec = decompose(u)
    for i in range(3):
        for j in range(3):
            assert dec.bilinear[i][j] == (p.c if i == j else 0)
    assert dec.linear == p.d
    rng = random.Random(16)
    for _ in range(100):
        x = tuple(F(rng.randint(-8, 8), 4) for _ in range(3))
        z = tuple(F(rng.randint(-8, 8), 4) for _ in range(3))
        assert u_orthogonal(dec, x, z, tol=0) == (dot(x, z) == 0)


def test_utility_oracle_origin_validation():
    with pytest.raises(ValueError):
        utility_oracle(lambda x: x[0] + 1, 2)
    shifted = utility_oracle(lambda x: x[0] + 1, 2, auto_shift=True)
    assert shifted(zeros(2)) == 0
    assert shifted((3, 0)) == 3
    # a non-finite float at the origin is rejected, never compared or shifted by
    for bad in (float("nan"), float("inf"), -float("inf")):
        for auto_shift in (False, True):
            with pytest.raises(ValueError, match="utility at the origin is"):
                utility_oracle(lambda x, bad=bad: bad if x == (0, 0) else x[0], 2, auto_shift=auto_shift)


def test_decomposition_json():
    dec = decompose(coefficient_oracle(IDENTITY3, (1, 2, 3)))
    doc = dec.to_dict()
    assert doc == {"S": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "g": [1, 2, 3], "residual": 0}


def test_decomposition_symmetry_always():
    rng = random.Random(17)
    a = tuple(tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(3))  # asymmetric
    dec = decompose(coefficient_oracle(a, (0.0, 0.0, 0.0)))
    for i in range(3):
        for j in range(3):
            assert dec.bilinear[i][j] == dec.bilinear[j][i]
            assert dec.bilinear[i][j] == pytest.approx((a[i][j] + a[j][i]) / 2, abs=1e-9)


# _bilinear before it called dot, kept verbatim as the reference
def reference_bilinear(a, x, z):
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = a[i]
            total += xi * sum(row[j] * z[j] for j in range(len(z)))
    return total


# from Python 3.12 on, sum() compensates float additions, so the reference
# itself no longer adds left to right; the exact cases hold on every version
FLOAT_SUM_IS_LEFT_TO_RIGHT = sys.version_info < (3, 12)
bilinear_entries = {
    "exact": st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=12)),
    "float": st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
}


@st.composite
def bilinear_cases(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["exact", "float"] if FLOAT_SUM_IS_LEFT_TO_RIGHT else ["exact"]))
    entry = bilinear_entries[kind]
    a = tuple(draw(st.tuples(*[entry] * n)) for _ in range(n))
    x, z = (draw(st.tuples(*[st.one_of(entry, st.just(0))] * n)) for _ in range(2))
    return a, x, z


@given(bilinear_cases())
def test_bilinear_matches_the_sum_reference_bit_for_bit(case):
    a, x, z = case
    assert repr(_bilinear(a, x, z)) == repr(reference_bilinear(a, x, z))


# coefficient_oracle's and QuadLinDecomposition.evaluate's formula before
# _QuadLin, kept verbatim as the reference
def reference_quadlin(a, b, x):
    return _bilinear(a, x, x) + dot(b, x)


quadlin_entries = {
    "int": st.integers(-10**6, 10**6),
    "fraction": st.fractions(-100, 100, max_denominator=1000),
    "float": st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
    "bool": st.booleans(),
    "zero": st.just(0),
}
quadlin_entries["exact"] = st.one_of(quadlin_entries["int"], quadlin_entries["fraction"])
quadlin_entries["mixed"] = st.one_of(*quadlin_entries.values())


@st.composite
def quadlin_cases(draw):
    """A, b and 1-4 points x, each of one kind or mixed; the points share one
    kernel, so its integer form is computed once and reused."""
    n = draw(st.integers(1, 5))
    kinds = sorted(quadlin_entries)

    def vec():
        return draw(st.tuples(*[quadlin_entries[draw(st.sampled_from(kinds))]] * n))

    a = tuple(vec() for _ in range(n))
    b = vec()
    return a, b, [vec() for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300)
@given(quadlin_cases())
@example((((F(1, 2),),), (1,), [(0,)]))  # all-int b at x = 0: int 0
@example((((F(1, 2),),), (F(1, 3),), [(0,), (F(1, 2),), (0.5,)]))
@example((((1.5,),), (F(1, 3),), [(F(1, 2),), (2,)]))
@example((((1, 2), (3, 4)), (1, 2), [(F(1, 2), 1), (1, 1), (0.5, 1)]))
def test_quadlin_matches_the_bilinear_reference(case):
    # value and type: repr tells int 0 from Fraction(0) and 0.0 from -0.0
    a, b, points = case
    fns = (_QuadLin(a, b).value, coefficient_oracle(a, b), QuadLinDecomposition(a, b, 0).evaluate)
    for x in points:
        want = repr(reference_quadlin(a, b, x))
        for fn in fns:
            assert repr(fn(x)) == want
