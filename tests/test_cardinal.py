import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spherepref.cardinal import (
    LineSearch,
    NotQuadraticLinear,
    _bilinear,
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
