import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from spherepref.formats import scalar_from_json
from spherepref.geometry import (
    PROJ_TOL,
    DimensionMismatch,
    _same_dim,
    add,
    clear_denominators,
    dot,
    is_exact,
    is_zero,
    norm,
    normalize,
    project_floats,
    project_out,
    sq_norm,
    sub,
    to_exact,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)


def vec3(draw_from=rationals):
    return st.tuples(draw_from, draw_from, draw_from)


def test_dot_examples():
    assert dot((1, 0, 0), (0, 1, 0)) == 0
    assert dot((1, 1, 1), (1, 1, 1)) == 3
    assert dot((2, -1, 3), (1, 4, -2)) == -8


def test_dot_dimension_mismatch():
    for fn in (dot, add, sub):
        with pytest.raises(DimensionMismatch):
            fn((1, 2), (1, 2, 3))


def test_sq_norm_examples():
    assert sq_norm((0, 0, 0)) == 0
    assert sq_norm((3, 4, 0)) == 25
    assert sq_norm((F(1, 2), F(1, 3), 0)) == F(13, 36)


def test_norm_scales_a_sum_of_squares_that_underflows_or_overflows():
    # w.w rounds to 0 or to inf for these nonzero finite vectors: norm scales
    # by the largest |entry|, so normalize gives a unit vector
    assert norm((1e-320, 0.0)) == 1e-320 and normalize((1e-320, 0.0)) == (1.0, 0.0)
    assert norm((3e200, 4e200)) == pytest.approx(5e200)
    assert normalize((1e200, 1e200)) == pytest.approx((0.5**0.5, 0.5**0.5))
    # every other vector keeps sqrt(w.w), summed left to right
    rng = random.Random(3)
    for _ in range(200):
        v = tuple(rng.uniform(-8, 8) for _ in range(rng.randint(1, 5)))
        assert norm(v) == math.sqrt(float(dot(v, v)))
    assert norm(()) == 0.0 and norm((3, 4)) == 5.0 and norm((math.inf, 1.0)) == math.inf
    assert math.isnan(norm((math.nan, 1e-320)))
    with pytest.raises(ValueError, match="zero vector"):
        normalize((0.0, -0.0))


def test_norm_and_normalize_of_exact_vectors_beyond_the_float_range():
    # norm raised a bare OverflowError, and normalize called a nonzero vector zero
    for v in [(10**400,), (10**400, 1), (F(10**400, 3), -1), (int(1.7e308), int(1.7e308)), (10**400, 1.0)]:
        with pytest.raises(ValueError, match=f"the norm of a vector of length {len(v)} overflows a float"):
            norm(v)
    assert normalize((10**400, 1)) == (1.0, 0.0) and normalize((-(10**400),)) == (-1.0,)
    assert normalize((F(1, 10**400), 0)) == (1.0, 0.0)
    assert normalize((0, F(-1, 10**400), F(1, 10**400))) == (0.0, -1 / 2**0.5, 1 / 2**0.5)
    # in range an exact vector is scaled exactly before it is rounded
    assert norm((int(1e200), int(1e200))) == pytest.approx(2**0.5 * 1e200)
    assert norm((F(1, 10**400), 0)) == 0.0 and norm((3, 4)) == 5.0
    with pytest.raises(ValueError, match="zero vector"):
        normalize((0, F(0)))


def test_project_out_examples():
    assert project_out((1, 1, 0), [(1, 0, 0)]) == (0, 1, 0)
    assert project_out((1, 0, 0), [(1, 0, 0)]) == (0, 0, 0)
    assert project_out((1, 2, 3), [(1, 0, 0), (0, 1, 0)]) == (0, 0, 3)


def test_project_out_skips_zero_basis_vectors():
    assert project_out((1, 2, 3), [(0, 0, 0)]) == (1, 2, 3)


def test_project_out_dependent_basis_exact():
    v = (F(3, 7), F(-2, 5), F(1, 2))
    basis = [(1, 1, 0), (2, 2, 0), (0, 1, 1)]  # second is dependent
    r = project_out(v, basis)
    for b in basis:
        assert dot(r, b) == 0


@given(vec3(), vec3(), vec3(), rationals, rationals)
def test_dot_symmetric_bilinear(a, b, c, s, t):
    assert dot(a, b) == dot(b, a)
    lhs = dot(tuple(s * a[i] + t * b[i] for i in range(3)), c)
    assert lhs == s * dot(a, c) + t * dot(b, c)


@given(vec3(), st.lists(vec3(), min_size=1, max_size=3))
def test_project_out_orthogonal_exact(v, basis):
    r = project_out(v, basis)
    for b in basis:
        assert dot(r, b) == 0


@given(vec3(), vec3())
def test_pythagoras_for_orthogonal_parts(a, b):
    # make b orthogonal to a, then the squares add
    b = project_out(b, [a])
    assert dot(a, b) == 0
    assert sq_norm(add(a, b)) == sq_norm(a) + sq_norm(b)


def test_project_out_float_residual_bound():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([3, 4, 6])
        v = tuple(rng.uniform(-1, 1) for _ in range(n))
        basis = [tuple(rng.uniform(-1, 1) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        r = project_out(v, basis)
        for b in basis:
            assert abs(dot(r, b)) <= PROJ_TOL * max(1e-30, norm(v) * norm(b))


def test_project_out_float_near_dependent_basis():
    # nearly parallel basis vectors must not wreck the residual bound
    x = (1.0, 0.5, -0.25, 0.125)
    y = tuple(xi + 1e-10 * zi for xi, zi in zip(x, (0.3, -0.7, 0.2, 0.9)))
    v = (0.2, -0.4, 0.6, 0.8)
    r = project_out(v, [x, y])
    for b in (x, y):
        assert abs(dot(r, b)) <= PROJ_TOL * norm(v) * norm(b)


@pytest.mark.parametrize("b", [(1e-20, 1e-20), (3e-14, 0.0), (1e200, 1e200)])
def test_float_project_out_keeps_small_and_huge_basis_vectors(b):
    # an absolute floor on the dependence test dropped the first two, and the
    # third's square overflowed, so each came back as (1.0, 1.0)
    v = (1.0, 1.0)
    r = project_out(v, [b])
    assert r != v
    assert abs(r[0] * b[0] + r[1] * b[1]) <= PROJ_TOL * math.hypot(*v) * math.hypot(*b)


def test_exactness_helpers():
    assert is_exact((1, F(1, 2)))
    assert not is_exact((1, 0.5))
    assert to_exact((0.5, 1)) == (F(1, 2), 1)
    assert sub((1, 2, 3), (3, 2, 1)) == (-2, 0, 2)


# The two-function Gram-Schmidt that project_out folds, kept verbatim as the
# reference its bits are compared against, except that an int-by-int
# coefficient is a Fraction (project_out is exact on all-int input) and that
# a float basis vector is dependent when at most 1e-13 of its length is left
# (reference_norm): the floor 1e-13 * max(1.0, norm(b)) dropped small basis
# vectors, and norm(b) overflowed for huge ones.
def _coeff(num, den):
    return F(num, den) if type(num) is int and type(den) is int else num / den


def reference_norm(w):
    ww = float(dot(w, w))
    m = max(map(abs, w))
    if ww in (0.0, math.inf) and 0 < m < math.inf:
        scaled = tuple(x / m for x in w)
        return m * math.sqrt(float(dot(scaled, scaled)))
    return math.sqrt(ww)


def reference_orthogonalize(basis):
    exact = all(is_exact(b) for b in basis)
    ortho = []
    for b in basis:
        if len(basis) > 1:
            _same_dim(b, basis[0])
        w = b
        for u in ortho:
            uu = dot(u, u)
            coeff = _coeff(dot(w, u), uu)
            w = tuple(w[i] - coeff * u[i] for i in range(len(w)))
        if exact:
            if not is_zero(w):
                ortho.append(w)
            continue
        # Second pass kills the residual components left by rounding.
        for u in ortho:
            coeff = dot(w, u)
            w = tuple(w[i] - coeff * u[i] for i in range(len(w)))
        wn = reference_norm(w)
        if wn > 1e-13 * reference_norm(b):
            ortho.append(tuple(x / wn for x in w))
    return ortho


def reference_project_out(v, basis):
    for b in basis:
        _same_dim(v, b)
    ortho = reference_orthogonalize([b for b in basis if not is_zero(b)])
    r = v
    for u in ortho:
        coeff = _coeff(dot(r, u), dot(u, u))
        r = tuple(r[i] - coeff * u[i] for i in range(len(r)))
    if not is_exact(v) or any(not is_exact(u) for u in ortho):
        for u in ortho:
            coeff = _coeff(dot(r, u), dot(u, u))
            r = tuple(r[i] - coeff * u[i] for i in range(len(r)))
    return r


exact_entries = st.one_of(st.integers(-4, 4), rationals)
float_entries = st.floats(-8, 8)
entry_kinds = {
    "exact": exact_entries,
    "float": float_entries,
    "mixed": st.one_of(exact_entries, float_entries),
}


@st.composite
def projection_cases(draw):
    """(v, basis): float, exact or mixed entries, 0-3 basis vectors among
    which zero vectors and multiples or sums of earlier ones."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(sorted(entry_kinds)))

    def vector():
        # a mixed case mixes whole vectors too, not only entries
        k = draw(st.sampled_from(sorted(entry_kinds))) if kind == "mixed" else kind
        return draw(st.tuples(*[entry_kinds[k]] * n))

    basis = []
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["fresh", "zero", "multiple", "sum"]))
        if how == "zero":
            basis.append(draw(st.sampled_from([(0,) * n, (0.0,) * n, (-0.0,) * n])))
        elif how == "multiple" and basis:
            s = draw(entry_kinds[kind])
            basis.append(tuple(s * x for x in draw(st.sampled_from(basis))))
        elif how == "sum" and basis:
            a, b = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
            basis.append(tuple(x + y for x, y in zip(a, b)))
        else:
            basis.append(vector())
    return vector(), basis


def _outcome(fn, v, basis):
    try:
        return repr(fn(v, basis))
    except ArithmeticError as exc:
        return type(exc).__name__


@settings(max_examples=400)
@given(projection_cases())
# the float re-orthogonalization pass takes dot(u, u) as 1; here it is not
@example(((1.0, 0.0, 0.0), [(0.0, 1.0, 2.0), (1.0, 1.0, 2.0)]))
# small and huge basis vectors, squares that underflow or overflow, first and after another vector
@example(((1.0, 1.0), [(1e-20, 1e-20)]))
@example(((1.0, 1.0), [(1e200, 1e200)]))
@example(((1.0, 2.0, 3.0), [(1.0, 0.0, 0.0), (1e-200, 1e-170, 0.0)]))
@example(((1.0, 2.0, 3.0), [(0.0, 1.0, 0.0), (1e200, 1e200, -1e190)]))
@example(((1, 2), [(F(1, 3), 0), (0.0, 1e-300)]))
def test_project_out_matches_two_pass_reference_bit_for_bit(case):
    # repr tells 0.0 from -0.0 and an int from an equal Fraction or float
    v, basis = case
    expected = _outcome(reference_project_out, v, basis)
    assert _outcome(project_out, v, basis) == expected
    if not all(is_exact(b) for b in basis if not is_zero(b)):
        # the float kernel the float trials call, zero basis vectors included
        assert _outcome(project_floats, v, basis) == expected


p_over_q = st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-10**6, 10**6), st.integers(1, 10**6)
).map(scalar_from_json)
cleared = st.one_of(st.integers(-10**9, 10**9), p_over_q, st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(cleared, max_size=6))
def test_clear_denominators_matches_fraction_reference(values):
    fracs = [F(v) for v in values]  # a float converts verbatim
    lcd = math.lcm(*[f.denominator for f in fracs])
    L, ints = clear_denominators(values)
    assert L == lcd
    assert ints == [f * lcd for f in fracs]
    assert all(type(a) is int for a in ints)


def test_clear_denominators_examples():
    assert clear_denominators([]) == (1, [])
    assert clear_denominators([3, F(1, 6), 0.25, F(-2, 3)]) == (12, [36, 2, 3, -8])
    assert clear_denominators([0.1]) == (2**55, [3602879701896397])


def test_project_out_exact_on_int_input():
    # int-by-int coefficients used to divide into floats: (-0.5, 0.5)
    r = project_out((1, 2), [(1, 1)])
    assert r == (F(-1, 2), F(1, 2))
    assert all(type(x) is F for x in r)
    r = project_out((1, 2, 3), [(1, 1, 0), (0, 1, 1)])
    assert r == (F(2, 3), F(-2, 3), F(2, 3))
    assert all(type(x) is F for x in r)


# dot, add and sub before the integer kernel, kept verbatim as references
def reference_dot(a, b):
    _same_dim(a, b)
    s = 0
    for i in range(len(a)):
        s += a[i] * b[i]
    return s


def reference_add(a, b):
    _same_dim(a, b)
    return tuple(a[i] + b[i] for i in range(len(a)))


def reference_sub(a, b):
    _same_dim(a, b)
    return tuple(a[i] - b[i] for i in range(len(a)))


signed_zeros = st.sampled_from([0.0, -0.0])
kernel_entries = {
    "int": st.integers(-10**12, 10**12),
    "fraction": rationals,
    "float": st.one_of(st.floats(-1e6, 1e6), signed_zeros),
}
kernel_entries["exact"] = st.one_of(kernel_entries["int"], kernel_entries["fraction"])
kernel_entries["mixed"] = st.one_of(*kernel_entries.values())


@st.composite
def vector_pairs(draw):
    """Two vectors of one length 0-6, each all int, all Fraction, all float,
    int and Fraction, or entries of every kind (±0.0 included)."""
    n = draw(st.integers(0, 6))
    kinds = sorted(kernel_entries)
    return tuple(draw(st.tuples(*[kernel_entries[draw(st.sampled_from(kinds))]] * n)) for _ in range(2))


def _kernel_outcome(fn, a, b):
    try:
        return repr(fn(a, b))
    except ArithmeticError as exc:
        return type(exc).__name__


@settings(max_examples=500)
@given(vector_pairs())
@example(((F(1, 2), 3), (4, F(-1, 6))))
@example(((2, F(1, 3)), (-0.0, 0.0)))
@example(((-0.0,), (0.0,)))
def test_dot_add_sub_match_the_entrywise_reference_bit_for_bit(pair):
    # repr tells 0.0 from -0.0 and an int from an equal Fraction or float
    a, b = pair
    for fn, ref in ((dot, reference_dot), (add, reference_add), (sub, reference_sub)):
        assert _kernel_outcome(fn, a, b) == _kernel_outcome(ref, a, b), fn.__name__
    assert repr(dot(a, a)) == repr(reference_dot(a, a))


def _fraction_dot(a, b):
    return sum((F(x) * F(y) for x, y in zip(a, b)), F(0))


def fraction_project_out(v, basis):
    """Classical Gram-Schmidt, every operation on Fractions."""
    ortho = []
    for b in basis:
        w = tuple(map(F, b))
        for u in ortho:
            coeff = _fraction_dot(w, u) / _fraction_dot(u, u)
            w = tuple(x - coeff * y for x, y in zip(w, u))
        if any(w):
            ortho.append(w)
    r = v
    for u in ortho:
        coeff = _fraction_dot(r, u) / _fraction_dot(u, u)
        r = tuple(F(x) - coeff * y for x, y in zip(r, u))
    return r


@settings(max_examples=300)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.tuples(*[exact_entries] * n),
    st.lists(st.tuples(*[exact_entries] * n), max_size=3),
)))
@example(((1, 2), [(1, 1)]))
@example(((1, 2, 3), [(1, 1, 0), (0, 1, 1)]))
@example(((1, 2), [(0, 0)]))
def test_exact_project_out_matches_the_fraction_reference(case):
    # same values and same types: Fractions once a basis vector is nonzero
    v, basis = case
    assert repr(project_out(v, basis)) == repr(fraction_project_out(v, basis))
