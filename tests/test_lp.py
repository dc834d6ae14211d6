import hashlib
import random
from fractions import Fraction as F

import pytest

from spherepref.geometry import EXACT, FLOAT
from spherepref.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    Constraint,
    LinearProgram,
    solve,
)


def activity(coeffs, x):
    return sum(a * v for a, v in zip(coeffs, x))


def assert_primal_feasible(lp, out):
    for con in lp.constraints:
        act = activity(con.coeffs, out.primal)
        if con.relation == LE:
            assert act <= con.rhs
        elif con.relation == GE:
            assert act >= con.rhs
        else:
            assert act == con.rhs
    if lp.bounds:
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                assert out.primal[j] >= lo
            if hi is not None:
                assert out.primal[j] <= hi


def _rows(lp):
    """The LP restated as rows over free variables: its constraints, then
    one row per bound, each as (coeffs, relation, rhs)."""
    n = len(lp.objective)
    rows = [(con.coeffs, con.relation, con.rhs) for con in lp.constraints]
    for j, (lo, hi) in enumerate(lp.bounds or ()):
        e = tuple(int(k == j) for k in range(n))
        if lo is not None:
            rows.append((e, GE, lo))
        if hi is not None:
            rows.append((e, LE, hi))
    return rows


_SIGN = {LE: (0, None), GE: (None, 0), EQ: (None, None)}


def _alternative(lp, farkas=False):
    """The dual of ``lp`` (maximize -b.y subject to A^T y = c, y >= 0 on
    ``<=`` rows, <= 0 on ``>=`` rows, free on ``=`` rows), or with
    ``farkas`` its Farkas system: A^T y = 0, the same signs, -b.y <= 1,
    maximize -b.y."""
    rows = _rows(lp)
    neg_b = tuple(-b for _, _, b in rows)
    cons = [
        Constraint(tuple(a[j] for a, _, _ in rows), EQ, 0 if farkas else c)
        for j, c in enumerate(lp.objective)
    ]
    if farkas:
        cons.append(Constraint(neg_b, LE, 1))
    return LinearProgram(neg_b, tuple(cons), tuple(_SIGN[rel] for _, rel, _ in rows))


def assert_infeasible(lp):
    """An exact Farkas proof: weights with the rows' signs that cancel every
    variable and leave -b.y > 0. Returns the Farkas system's outcome."""
    system = _alternative(lp, farkas=True)
    out = solve(system)
    assert out.status == OPTIMAL and out.objective_value > 0
    assert_primal_feasible(system, out)
    return out


def _ray(lp):
    """Maximize c.d over the recession directions d of ``lp``'s rows, with
    c.d <= 1: optimal with value 1 exactly when the dual is infeasible."""
    cons = [Constraint(a, rel, 0) for a, rel, _ in _rows(lp)]
    cons.append(Constraint(lp.objective, LE, 1))
    return LinearProgram(lp.objective, tuple(cons))


def assert_certified(lp, out):
    """Prove ``out.status`` exactly with alternative programs: an optimum
    by a feasible dual point of equal value, infeasibility by a Farkas point,
    unboundedness by a feasible point, an infeasible dual and an improving
    recession direction (the dual's Farkas point)."""
    dual = _alternative(lp)
    if out.status == OPTIMAL:
        assert_primal_feasible(lp, out)
        d = solve(dual)
        assert d.status == OPTIMAL and -d.objective_value == out.objective_value
        assert_primal_feasible(dual, d)
    elif out.status == INFEASIBLE:
        assert_infeasible(lp)
    else:
        assert out.status == UNBOUNDED
        zero = LinearProgram((0,) * len(lp.objective), lp.constraints, lp.bounds)
        z = solve(zero)
        assert z.status == OPTIMAL
        assert_primal_feasible(lp, z)
        assert solve(dual).status == INFEASIBLE
        ray = _ray(lp)
        r = solve(ray)
        assert r.status == OPTIMAL and r.objective_value > 0
        assert_primal_feasible(ray, r)


def test_maximize_margin_unit_box():
    lp = LinearProgram((1,), (Constraint((1,), LE, 1),), bounds=((0, None),))
    out = solve(lp)
    assert out.status == OPTIMAL
    assert out.primal == (1,)
    assert out.objective_value == 1


def test_contradictory_rows_certificate():
    lp = LinearProgram((1,), (Constraint((1,), LE, 1), Constraint((1,), GE, 2)))
    out = solve(lp)
    assert out.status == INFEASIBLE
    # the certificate must combine both rows
    weights = assert_infeasible(lp).primal
    assert weights[0] > 0 and weights[1] < 0


def test_small_polytope_optimum():
    lp = LinearProgram(
        (1, 1),
        (Constraint((1, 1), LE, 3),),
        bounds=((0, 2), (0, 2)),
    )
    out = solve(lp)
    assert out.status == OPTIMAL
    assert out.objective_value == 3
    # oracle: enumerate the polytope's vertices
    vertices = [(0, 0), (2, 0), (0, 2), (2, 1), (1, 2)]
    assert max(x + y for x, y in vertices) == 3
    assert_certified(lp, out)


def test_unbounded():
    assert solve(LinearProgram((1,), ())).status == UNBOUNDED
    lp = LinearProgram((1, 0), (Constraint((0, 1), LE, 1),), bounds=((0, None), (None, None)))
    assert solve(lp).status == UNBOUNDED


def test_contradictory_bounds_rejected():
    with pytest.raises(ValueError):
        LinearProgram((1,), (), bounds=(((2, 1)),))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram((1, 2), (Constraint((1,), LE, 1),))


def test_determinism():
    rng = random.Random(0)
    cons = tuple(
        Constraint(tuple(F(rng.randint(-5, 5)) for _ in range(3)), rng.choice([LE, GE, EQ]), F(rng.randint(-3, 5)))
        for _ in range(6)
    )
    lp = LinearProgram((F(1), F(-2), F(3)), cons, bounds=((-2, 2), (-2, 2), (-2, 2)))
    runs = [solve(lp) for _ in range(3)]
    assert all(r == runs[0] for r in runs)


def _random_lp(rng):
    nv = rng.randint(1, 4)
    nc = rng.randint(1, 5)
    obj = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(nv))
    cons = tuple(
        Constraint(
            tuple(F(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(nv)),
            rng.choice([LE, LE, GE, EQ]),
            F(rng.randint(-6, 6)),
        )
        for _ in range(nc)
    )
    bounds = []
    for _ in range(nv):
        r = rng.random()
        if r < 0.3:
            bounds.append((0, None))
        elif r < 0.5:
            bounds.append((rng.randint(-3, 0), rng.randint(0, 3)))
        elif r < 0.7:
            bounds.append((None, rng.randint(0, 3)))
        else:
            bounds.append((None, None))
    return LinearProgram(obj, cons, tuple(bounds))


def test_random_instances_exact_certificates():
    rng = random.Random(20240)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(150):
        lp = _random_lp(rng)
        out = solve(lp)
        seen[out.status] += 1
        assert_certified(lp, out)
    # the generator must exercise all three outcomes
    assert all(v > 0 for v in seen.values()), seen


def test_random_instances_agree_with_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    import numpy as np

    rng = random.Random(77)
    status_map = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    for _ in range(100):
        lp = _random_lp(rng)
        out = solve(lp)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for con in lp.constraints:
            row = [float(v) for v in con.coeffs]
            if con.relation == LE:
                a_ub.append(row)
                b_ub.append(float(con.rhs))
            elif con.relation == GE:
                a_ub.append([-v for v in row])
                b_ub.append(-float(con.rhs))
            else:
                a_eq.append(row)
                b_eq.append(float(con.rhs))
        res = scipy_opt.linprog(
            [-float(v) for v in lp.objective],
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[
                (None if lo is None else float(lo), None if hi is None else float(hi))
                for lo, hi in lp.bounds
            ],
            method="highs",
        )
        ref = status_map.get(res.status)
        if ref is None:
            continue
        assert out.status == ref
        if ref == OPTIMAL:
            assert float(out.objective_value) == pytest.approx(-res.fun, abs=1e-7, rel=1e-7)


def test_float_mode_agrees_on_separated_instances():
    rng = random.Random(43)
    for _ in range(60):
        lp = _random_lp(rng)
        exact = solve(lp, mode=EXACT)
        if exact.status == OPTIMAL and abs(exact.objective_value) < F(1, 10**6):
            continue  # only separated instances are promised to agree
        approx = solve(lp, mode=FLOAT)
        assert approx.status == exact.status
        if exact.status == OPTIMAL:
            assert float(approx.objective_value) == pytest.approx(float(exact.objective_value), rel=1e-6, abs=1e-6)


def _golden_lp(rng):
    """Random LPs with fractional data, nonzero and fractional bounds, and
    EQ / GE rows whose right-hand sides may be negative."""

    def frac(lo, hi):
        return F(rng.randint(lo, hi), rng.choice([1, 2, 3, 7]))

    nv = rng.randint(1, 5)
    nc = rng.randint(1, 6)
    obj = tuple(frac(-6, 6) for _ in range(nv))
    cons = tuple(
        Constraint(tuple(frac(-6, 6) for _ in range(nv)), rng.choice([LE, GE, EQ]), frac(-6, 6))
        for _ in range(nc)
    )
    bounds = []
    for _ in range(nv):
        lo = frac(-6, 2)
        hi = lo + F(rng.randint(0, 6), rng.choice([1, 2, 5]))
        bounds.append(rng.choice([(0, None), (0, hi - lo), (lo, hi), (lo, None), (None, hi), (None, None)]))
    return LinearProgram(obj, cons, tuple(bounds))


def _digest(outcomes):
    # every field of each outcome, spelled out so the pin reads the same
    # however LpOutcome's repr is laid out
    lines = (repr((o.status, o.primal, o.objective_value)) for o in outcomes)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_golden_outcomes():
    # pinned outcomes (every field, in both modes): any change to the pivot
    # sequence or the float arithmetic shows here
    rng = random.Random(5)
    lps = [_golden_lp(rng) for _ in range(400)]
    exact = [solve(lp) for lp in lps]
    statuses = [out.status for out in exact]
    assert [statuses.count(s) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)] == [100, 215, 85]
    assert _digest(exact) == "e9ffa4e66c411cf5b606171195de929fcc65cc344de7dc0402cf1a4caba6661c"
    approx = [solve(lp, mode=FLOAT) for lp in lps]
    assert _digest(approx) == "b61c5bcbc1ad31da530ea0029d2de89bc96cac14b938b27ea97a212731e529e7"
    for lp, out in zip(lps, exact):
        assert_certified(lp, out)


def _exact_twin(lp):
    """The same LP with every datum converted verbatim to a Fraction."""
    conv = lambda v: None if v is None else F(v)  # noqa: E731
    return LinearProgram(
        tuple(map(conv, lp.objective)),
        tuple(Constraint(tuple(map(conv, c.coeffs)), c.relation, conv(c.rhs)) for c in lp.constraints),
        None if lp.bounds is None else tuple((conv(lo), conv(hi)) for lo, hi in lp.bounds),
    )


def test_row_scaling_on_awkward_rationals():
    # floats such as 0.1 (a 2**55 denominator), denominators 3 and 7,
    # 10**30-sized numerators and all-zero rows, solved exactly
    big = 10**30
    pool = [0.1, -0.3, 2.5, F(1, 3), F(-2, 7), F(big + 1, 7), F(-big, 3), F(5, 21), 0, 1, -1]
    bound_pool = [(0, None), (-0.1, F(big, 3)), (None, 0.7), (F(-1, 7), F(2, 3)), (0, 0.1), (None, None)]
    rng = random.Random(12)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(150):
        nv = rng.randint(1, 4)
        cons = [
            Constraint(tuple(rng.choice(pool) for _ in range(nv)), rng.choice([LE, GE, EQ]), rng.choice(pool))
            for _ in range(rng.randint(1, 5))
        ]
        cons.insert(rng.randint(0, len(cons)), Constraint((0,) * nv, rng.choice([LE, GE, EQ]), rng.choice([0, 0.0, 0.1, F(-1, 3)])))
        lp = LinearProgram(
            tuple(rng.choice(pool) for _ in range(nv)),
            tuple(cons),
            tuple(rng.choice(bound_pool) for _ in range(nv)),
        )
        twin = _exact_twin(lp)
        out = solve(lp)
        assert out == solve(twin)
        seen[out.status] += 1
        assert_certified(twin, out)
    assert all(v > 0 for v in seen.values()), seen


def _tall_lp(rng):
    """30-150 rows over 2-6 variables, with fractional and nonzero bounds:
    random rows (mostly infeasible), rows around a feasible point with a
    redundant pair of equality rows (leftover artificials), and rows that
    leave a recession direction of the objective open (unbounded)."""

    def frac(lo, hi):
        return F(rng.randint(lo, hi), rng.choice([1, 2, 3, 5]))

    nv = rng.randint(2, 6)
    x0 = [frac(-4, 4) for _ in range(nv)]
    kind = rng.random()
    feasible = kind < 0.8
    d = [rng.choice([-1, 0, 1, 2]) for _ in range(nv)] if kind < 0.2 else None
    rows = []
    for _ in range(rng.randint(30, 150)):
        a = tuple(frac(-6, 6) for _ in range(nv))
        rel = rng.choice([LE, LE, GE, GE] if feasible else [LE, LE, GE, GE, EQ])
        if d is not None:
            rel = GE if activity(a, d) > 0 else LE
        if feasible:
            rhs = activity(a, x0) + frac(0, 6) if rel == LE else activity(a, x0) - frac(0, 6)
        else:
            rhs = frac(-6, 6)
        rows.append(Constraint(a, rel, rhs))
    if feasible and d is None:
        for _ in range(rng.randint(0, nv - 1)):
            a = tuple(frac(-6, 6) for _ in range(nv))
            rows.insert(rng.randrange(len(rows) + 1), Constraint(a, EQ, activity(a, x0)))
            k = rng.choice([1, -2, F(1, 3)])
            rows.insert(rng.randrange(len(rows) + 1), Constraint(tuple(k * u for u in a), EQ, k * activity(a, x0)))
    bounds = []
    for v in x0:
        lo, hi = v - frac(0, 6), v + frac(0, 6)
        bounds.append(rng.choice([(0, None), (lo, hi), (lo, None), (None, hi), (None, None), (None, None)]))
    if d is not None:
        bounds = [(None, b[1]) if dj < 0 else (b[0], None) if dj > 0 else b for b, dj in zip(bounds, d)]
    obj = tuple(frac(-6, 6) for _ in range(nv)) if d is None else tuple(d)
    return LinearProgram(obj, tuple(rows), tuple(bounds))


def test_golden_tall_outcomes():
    # pinned outcomes of tall programs: phase 1 with many artificials,
    # leftover artificials pivoted out, and negative pivots in exact mode
    rng = random.Random(11)
    lps = [_tall_lp(rng) for _ in range(40)]
    exact = [solve(lp) for lp in lps]
    statuses = [out.status for out in exact]
    assert [statuses.count(s) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)] == [18, 14, 8]
    assert _digest(exact) == "f8eeaf33db68b3a1d41b3a20125dcfe004e303fe96e110fac6c363bc31ec14d9"
    approx = [solve(lp, mode=FLOAT) for lp in lps]
    assert _digest(approx) == "a04ac95457d53140f7304b1e822c9fe6681de1ca97e80b111ce4a6855e23935d"
    for lp, out in zip(lps, exact):
        assert_certified(lp, out)
