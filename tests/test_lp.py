import hashlib
import random
from collections import defaultdict
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest

import spherepref.lp as lp_module
from spherepref.geometry import EXACT, FLOAT, dot
from spherepref.preference import SphericalParams
from spherepref.rationalize import certificate_lp, generate_dataset, rationalize
from spherepref.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    Constraint,
    LinearProgram,
    LpOutcome,
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
        # the value read off the objective row, over den and the objective's
        # lcm, is the objective at the primal point, split variables and all
        assert out.objective_value == dot(lp.objective, out.primal)
        assert d.objective_value == dot(dual.objective, d.primal)
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


def _pivots(outcomes):
    return sum(o.stats.phase1_pivots + o.stats.phase2_pivots for o in outcomes)


# The pins of test_golden_outcomes and test_golden_tall_outcomes, by mode:
# the digest of every outcome and the pivot total; tests/lp_golden_digests.py
# --check compares with them too.
GOLDEN_DIGESTS = {
    EXACT: "e9ffa4e66c411cf5b606171195de929fcc65cc344de7dc0402cf1a4caba6661c",
    FLOAT: "b61c5bcbc1ad31da530ea0029d2de89bc96cac14b938b27ea97a212731e529e7",
}
GOLDEN_PIVOTS = {EXACT: 1410, FLOAT: 1409}
TALL_DIGESTS = {
    EXACT: "f8eeaf33db68b3a1d41b3a20125dcfe004e303fe96e110fac6c363bc31ec14d9",
    FLOAT: "a04ac95457d53140f7304b1e822c9fe6681de1ca97e80b111ce4a6855e23935d",
}
TALL_PIVOTS = {EXACT: 1708, FLOAT: 1663}


def test_golden_outcomes():
    # pinned outcomes (every field, in both modes) and pivot totals: any
    # change to the pivot sequence or the float arithmetic shows here
    rng = random.Random(5)
    lps = [_golden_lp(rng) for _ in range(400)]
    exact = [solve(lp) for lp in lps]
    statuses = [out.status for out in exact]
    assert [statuses.count(s) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)] == [100, 215, 85]
    assert _digest(exact) == GOLDEN_DIGESTS[EXACT] and _pivots(exact) == GOLDEN_PIVOTS[EXACT]
    approx = [solve(lp, mode=FLOAT) for lp in lps]
    assert _digest(approx) == GOLDEN_DIGESTS[FLOAT] and _pivots(approx) == GOLDEN_PIVOTS[FLOAT]
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
    assert _digest(exact) == TALL_DIGESTS[EXACT] and _pivots(exact) == TALL_PIVOTS[EXACT]
    approx = [solve(lp, mode=FLOAT) for lp in lps]
    assert _digest(approx) == TALL_DIGESTS[FLOAT] and _pivots(approx) == TALL_PIVOTS[FLOAT]
    for lp, out in zip(lps, exact):
        assert_certified(lp, out)


# -- the row-major tableau -----------------------------------------------------
#
# `lp._Tableau` as it was when it always stored one list per row, copied so
# that the references below share no code with the tableau under test, which
# stores [D | rhs] by column in float mode and along its longer side in exact
# mode: the lock-step test checks every entry after every pivot against it.


class _RowTableau:
    """The current basis as a dictionary: only the nonbasic columns.

    ``T[i][k]`` is row i's entry in the column of variable ``nonbasic[k]``;
    the basic variable ``basis[i]`` has an implied unit column. In exact
    mode every entry is an integer and the true tableau is ``T / den`` for
    one common denominator ``den > 0``; in float mode the entries are floats
    and ``den`` stays 1. Only :meth:`pivot` and :meth:`leaving_row` depend on
    the mode.

    ``twin`` maps each half of a split free variable to the other. A pair
    stores one column while both halves are nonbasic (the other half's is
    its negation, see :meth:`flip`) and none while one is basic, so no pivot
    changes the number of stored columns.
    """

    def __init__(self, T: list, rhs: list, basis: list, nonbasic: list, twin: dict, exact: bool):
        self.T = T
        self.rhs = rhs
        self.basis = basis
        self.nonbasic = nonbasic
        self.twin = twin
        self.exact = exact
        self.den = 1
        self.pivots = 0

    def flip(self, k: int) -> None:
        """Store the twin of ``nonbasic[k]`` in column k: its column is the
        negated one."""
        for row in self.T:
            row[k] = -row[k]
        self.nonbasic[k] = self.twin[self.nonbasic[k]]

    def pivot(self, r: int, k: int) -> None:
        """Swap ``basis[r]`` and ``nonbasic[k]``. Column k is read, then
        overwritten with the leaving variable's unit column, which the row
        operations turn into that variable's new column."""
        T, rhs = self.T, self.rhs
        col = [row[k] for row in T]
        one, zero = (self.den, 0) if self.exact else (1.0, 0.0)
        for i, row in enumerate(T):
            row[k] = one if i == r else zero
        row = T[r]
        if self.exact:
            # Edmonds' integer pivot: row r keeps its integers and its pivot
            # becomes the common denominator; every other row i becomes
            # (T[i] * p - f_i * T[r]) / den, an exact division because each
            # entry is a minor of the integral start.
            p = col[r]
            if p < 0:  # keep den positive; T[r] / p is unchanged
                row = T[r] = [-v for v in row]
                rhs[r] = -rhs[r]
                p = -p
            den, b = self.den, rhs[r]
            for i, ri in enumerate(T):
                if i == r:
                    continue
                f = col[i]
                if f:
                    T[i] = [(a * p - f * w) // den for a, w in zip(ri, row)]
                else:
                    T[i] = [a * p // den for a in ri]
                rhs[i] = (rhs[i] * p - f * b) // den
            self.den = p
        else:
            piv = col[r]
            if piv != 1:
                for j in range(len(row)):
                    if row[j]:
                        row[j] = row[j] / piv
                rhs[r] = rhs[r] / piv
            for i, ri in enumerate(T):
                f = col[i]
                if i != r and f:
                    for j in range(len(row)):
                        if row[j]:
                            ri[j] = ri[j] - f * row[j]
                    rhs[i] = rhs[i] - f * rhs[r]
        self.basis[r], self.nonbasic[k] = self.nonbasic[k], self.basis[r]
        self.pivots += 1

    def leaving_row(self, k: int, tol) -> int:
        """Ratio test on column k: the row minimizing rhs_i / a_i over
        a_i > tol, ties broken by the lower basis index; -1 when no entry
        qualifies."""
        T, rhs, basis = self.T, self.rhs, self.basis
        best = -1
        if self.exact:
            # den cancels from rhs_i / a_i; compare by cross-multiplication
            for i, row in enumerate(T):
                a = row[k]
                if a > 0:
                    if best >= 0:
                        diff = rhs[i] * best_a - best_b * a
                        if diff > 0 or (diff == 0 and basis[i] > basis[best]):
                            continue
                    best, best_a, best_b = i, a, rhs[i]
        else:
            best_key = None
            for i, row in enumerate(T):
                a = row[k]
                if a > tol:
                    key = (rhs[i] / a, basis[i])
                    if best_key is None or key < best_key:
                        best_key, best = key, i
        return best

    def reduced_costs(self, costs: list) -> list:
        """den times the reduced cost of each stored column (just the
        reduced costs in float mode); ``costs`` is indexed by variable."""
        rc = [self.den * costs[v] for v in self.nonbasic]
        for i, b in enumerate(self.basis):
            cb = costs[b]
            if cb:
                row = self.T[i]
                for k in range(len(rc)):
                    if row[k]:
                        rc[k] = rc[k] - cb * row[k]
        return rc


# -- the split-column reference ---------------------------------------------
#
# `solve` as it was when every free variable stored two columns, x+ and x-,
# with `_run_simplex` to match: the differential test below checks that
# storing one column per split pair changes no outcome and no pivot.


def _ref_run_simplex(tab, costs, limit, tol):
    for _ in range(lp_module._MAX_ITER):
        rc = tab.reduced_costs(costs)
        entering = [(v, k) for k, v in enumerate(tab.nonbasic) if v < limit and rc[k] > tol]
        if not entering:
            return OPTIMAL
        k = min(entering)[1]
        r = tab.leaving_row(k, tol)
        if r < 0:
            return UNBOUNDED
        tab.pivot(r, k)
    raise RuntimeError("simplex iteration limit exceeded")


def reference_solve(lp, mode=EXACT, leftovers=None):
    """The split-column solve; appends (entering, row) of each pivot that
    takes a leftover artificial out of the basis to ``leftovers``."""
    if mode == EXACT:
        conv, cell = F, int
        tol = 0
    else:
        conv, cell = float, float
        tol = lp_module._FLOAT_TOL
    exact = mode == EXACT

    nvars = len(lp.objective)
    objective = [conv(v) for v in lp.objective]
    bounds = lp.bounds if lp.bounds is not None else ((None, None),) * nvars
    nonneg = [b[0] is not None and b[0] == 0 for b in bounds]
    cons = [(con.coeffs, con.relation, con.rhs) for con in lp.constraints]
    for j, (lo, hi) in enumerate(bounds):
        ej = (0,) * j + (1,) + (0,) * (nvars - j - 1)
        if lo is not None and not nonneg[j]:
            cons.append((ej, GE, lo))
        if hi is not None:
            cons.append((ej, LE, hi))
    rows = []
    for coeffs, rel, b in cons:
        k, vals = lp_module._scaled(coeffs + (b,), exact, "a row")
        rows.append((k, vals[:-1], rel, vals[-1]))

    struct = []
    for j in range(nvars):
        struct.append((j, 1))
        if not nonneg[j]:
            struct.append((j, -1))
    ns = len(struct)

    m = len(rows)
    art0, nvar = ns + m, ns + 2 * m
    T, rhs, basis = [], [], []
    nonbasic = list(range(ns))
    for i, (_, coeffs, rel, b) in enumerate(rows):
        sign = -1 if rel == GE else 1
        if sign * b < 0:
            sign = -sign
        slack = 0 if rel == EQ else (sign if rel == LE else -sign)
        T.append([sign * s * coeffs[j] for j, s in struct])
        rhs.append(sign * b)
        basis.append(ns + i if slack > 0 else art0 + i)
        if slack < 0:
            nonbasic.append(ns + i)
    for i, row in enumerate(T):
        row += [cell(-1 if v == ns + i else 0) for v in nonbasic[ns:]]

    tab = _RowTableau(T, rhs, basis, nonbasic, {}, exact)

    art_rows = [i for i in range(m) if basis[i] >= art0]
    if art_rows:
        art_lcm = lcm(*[rows[i][0] for i in art_rows])
        costs1 = [cell(0)] * nvar
        for i in art_rows:
            costs1[art0 + i] = cell(-(art_lcm // rows[i][0]))
        assert _ref_run_simplex(tab, costs1, nvar, tol) == OPTIMAL
        value1 = sum(costs1[basis[i]] * rhs[i] for i in range(m))
        infeas_cut = 0 if exact else -lp_module._FEAS_TOL * (1 + max(map(abs, rhs), default=0))
        if value1 < infeas_cut:
            return LpOutcome(INFEASIBLE)
        for i in range(m):
            if basis[i] >= art0:
                row = tab.T[i]
                nonzero = [k for k, a in enumerate(row) if (a if exact else abs(a) > tol)]
                cands = [(nonbasic[k], k) for k in nonzero if nonbasic[k] < art0]
                if cands:
                    if leftovers is not None:
                        leftovers.append((min(cands)[0], i))
                    tab.pivot(i, min(cands)[1])

    _, costs = lp_module._scaled(lp.objective, exact, "the objective")
    costs2 = [cell(0)] * nvar
    for k, (j, s) in enumerate(struct):
        costs2[k] = costs[j] if s > 0 else -costs[j]
    if _ref_run_simplex(tab, costs2, art0, tol) == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    values = [conv(0)] * ns
    for i, b in enumerate(basis):
        if b < ns:
            values[b] = F(rhs[i], tab.den) if exact else rhs[i]
    primal = [conv(0)] * nvars
    for k, (j, s) in enumerate(struct):
        primal[j] = primal[j] + (values[k] if s > 0 else -values[k])
    return LpOutcome(OPTIMAL, primal=tuple(primal), objective_value=dot(tuple(objective), tuple(primal)))


def _mixed_lp(rng):
    """Free, boxed, half-bounded, fixed and nonnegative variables; LE, GE and
    EQ rows, sometimes with a redundant multiple of an EQ row (a leftover
    artificial) and sometimes with no rows at all (unbounded)."""

    def frac(lo, hi):
        return F(rng.randint(lo, hi), rng.choice([1, 2, 3, 7]))

    nv = rng.randint(1, 5)
    x0 = [frac(-3, 3) for _ in range(nv)]
    bounds = []
    for v in x0:
        lo, hi = v - frac(0, 4), v + frac(0, 4)
        bounds.append(rng.choice([(None, None), (None, None), (lo, hi), (lo, None), (None, hi), (v, v), (0, None)]))
    cons = []
    for _ in range(rng.randint(0, 7)):
        a = tuple(rng.choice([0, 0, frac(-6, 6)]) for _ in range(nv))
        rel = rng.choice([LE, GE, EQ])
        rhs = activity(a, x0) if rng.random() < 0.6 else frac(-6, 6)
        cons.append(Constraint(a, rel, rhs))
        if rel == EQ and rng.random() < 0.5:
            k = rng.choice([-1, 2, F(1, 3)])
            cons.append(Constraint(tuple(k * u for u in a), EQ, k * rhs))
    obj = tuple(rng.choice([0, frac(-6, 6)]) for _ in range(nv))
    return LinearProgram(obj, tuple(cons), tuple(bounds))


def test_one_column_per_split_pair_matches_the_split_reference(monkeypatch):
    # the same outcome, bit for bit (a float -0.0 would show in the repr), and the
    # same (entering, leaving) pivot sequence as the split-column reference
    trace = []

    def recording(pivot):
        def wrapped(tab, r, k):
            trace.append((tab.nonbasic[k], tab.basis[r]))
            pivot(tab, r, k)

        return wrapped

    flips = []
    flip = lp_module._Tableau.flip

    def counting(tab, k):
        flips.append(k)
        flip(tab, k)

    for cls in (lp_module._Tableau, _RowTableau):
        monkeypatch.setattr(cls, "pivot", recording(cls.pivot))
    monkeypatch.setattr(lp_module._Tableau, "flip", counting)
    leftovers = []
    rng = random.Random(1717)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(300):
        lp = _mixed_lp(rng)
        for mode in (EXACT, FLOAT):
            trace.clear()
            want = reference_solve(lp, mode, leftovers)
            want_trace = list(trace)
            trace.clear()
            got = solve(lp, mode)
            assert repr(got) == repr(want)
            assert trace == want_trace
            assert got.stats.phase1_pivots + got.stats.phase2_pivots == len(trace)
            seen[want.status] += 1
    assert all(v > 0 for v in seen.values()), seen
    assert flips and leftovers  # x- entered, and leftover artificials were pivoted out


def test_stats_record_the_solve():
    # x1 free and x2 >= 0: two stored columns, where the split stored three
    lp = LinearProgram((1, 1), (Constraint((1, 2), LE, 4), Constraint((1, -1), GE, -1)), ((-3, 2), (0, None)))
    exact, approx = solve(lp), solve(lp, FLOAT)
    assert exact.primal == (2, 1) and approx.primal == (2.0, 1.0)
    for out in (exact, approx):
        s = out.stats
        assert (s.rows, s.columns) == (4, 2)
        assert s.phase1_pivots + s.phase2_pivots > 0 and s.seconds >= 0
    assert exact.stats.bits > 0 and approx.stats.bits == 0
    # stats describe the run, not the outcome: equality and repr ignore them
    bare = LpOutcome(exact.status, exact.primal, exact.objective_value)
    assert exact == bare and repr(exact) == repr(bare)
    infeasible = solve(LinearProgram((1,), (Constraint((1,), LE, 1), Constraint((1,), GE, 2))))
    assert infeasible.status == INFEASIBLE and infeasible.stats.phase2_pivots == 0
    assert solve(LinearProgram((1,), ())).stats.columns == 1


def test_both_modes_read_their_prices_off_the_carried_rows(monkeypatch):
    # both modes run both phases, each reading its prices off the objective
    # row it carries, once per pivot and once more to stop; the tableau has
    # no way to price from scratch
    assert not hasattr(lp_module._Tableau, "reduced_costs")
    runs = []
    run = lp_module._run_simplex

    def counting_run(tab, obj, limit, tol):
        reads, row = [], tab.row

        def reading(i):
            reads.append(i)
            return row(i)

        before, tab.row = tab.pivots, reading
        status = run(tab, obj, limit, tol)
        tab.row = row
        runs.append((tab.exact, obj - len(tab.basis), tab.pivots - before))
        assert reads == [obj] * (tab.pivots - before + 1)
        return status

    monkeypatch.setattr(lp_module, "_run_simplex", counting_run)
    rng = random.Random(11)
    lps = [_tall_lp(rng) for _ in range(40)]
    for mode in (EXACT, FLOAT):
        for lp in lps:
            solve(lp, mode)
    for exact in (True, False):
        rows = [row for is_exact, row, _ in runs if is_exact == exact]  # 1: phase 1's row m + 1, 0: phase 2's row m
        pivots = sum(p for is_exact, _, p in runs if is_exact == exact)
        assert rows.count(1) == 40 and 20 < rows.count(0) < 40 and pivots > 10 * len(rows)


class _LockStep(lp_module._Tableau):
    """The tableau under test, run against a row-major :class:`_RowTableau`
    built from copies of the same start: every call goes to both, and after
    each pivot and flip every entry, rhs, ``den``, ``basis`` and ``nonbasic``
    must agree, floats by repr (so -0.0 shows).

    Each carried objective row must also equal the reference's reduced
    costs, priced from scratch, negated, and den * z: exactly in exact mode,
    and in float mode within ``FLOAT_ROW_GAP`` of the size of the priced row
    (``gap`` keeps the largest relative gap seen). The costs priced are read
    off the start row: minus its entry on each stored column, its entry on
    the unstored twin, nothing on the start basis. They differ from the
    phase's own costs by a combination of the constraint rows, so they give
    every basis the same reduced costs and move z by the start value only.
    """

    FLOAT_ROW_GAP = 1e-10  # a hundredth of the pricing tolerance, lp._FLOAT_TOL
    gap = 0.0
    events = set()  # (64-bit words per field, stored by column, "pivot" | "flip") in exact mode
    built = []  # every tableau built, the last one the current solve's

    def __init__(self, rows, basis, nonbasic, twin, exact):
        m = len(basis)
        T, rhs = [row[:-1] for row in rows[:m]], [row[-1] for row in rows[:m]]
        self.ref = _RowTableau(T, rhs, list(basis), list(nonbasic), twin, exact)
        self.starts = []  # (costs by variable, start z) of each objective row
        for row in rows[m:]:
            costs = defaultdict(int if exact else float)
            for v, a in zip(nonbasic, row):
                costs[v] = -a
                if v in twin:
                    costs[twin[v]] = a
            self.starts.append((costs, row[-1]))
        super().__init__(rows, basis, nonbasic, twin, exact)
        _LockStep.built.append(self)
        self.tested = False  # a ratio test ran since the last pivot
        self.kinds = []  # per pivot: (after a ratio test, the reference's rhs_r is 0)
        self.check()

    def check(self):
        ref = self.ref
        want = [row + [b] for row, b in zip(ref.T, ref.rhs)]
        assert repr([self.row(i) for i in range(len(self.basis))]) == repr(want)
        cols = [[row[k] for row in want] for k in range(len(self.nonbasic) + 1)]
        assert repr([self.column(k) for k in range(len(cols))]) == repr(cols)
        assert (self.den, self.basis, self.nonbasic) == (ref.den, ref.basis, ref.nonbasic)
        for obj, (costs, z0) in enumerate(self.starts, len(self.basis)):
            z = sum(costs[b] * v for b, v in zip(ref.basis, ref.rhs)) + ref.den * z0
            want = [-v for v in ref.reduced_costs(costs)] + [z]
            got = self.row(obj)
            if self.exact:
                assert got == want
            else:
                gap = max(abs(g - w) for g, w in zip(got, want)) / max(1.0, *map(abs, want))
                _LockStep.gap = max(_LockStep.gap, gap)
                assert gap <= self.FLOAT_ROW_GAP

    def pivot(self, r, k):
        self.kinds.append((self.tested, not self.ref.rhs[r]))
        self.tested = False
        super().pivot(r, k)
        self.ref.pivot(r, k)
        self.check()
        self.record("pivot")

    def flip(self, k):
        super().flip(k)
        self.ref.flip(k)
        self.check()
        self.record("flip")

    def record(self, kind):
        if self.exact:
            _LockStep.events.add((self.words, self.by_col, kind))

    def leaving_row(self, k, tol):
        got = super().leaving_row(k, tol)
        assert got == self.ref.leaving_row(k, tol)
        self.tested = True
        return got


def _lock_step(monkeypatch):
    """Build every tableau as a :class:`_LockStep`."""
    monkeypatch.setattr(lp_module, "_Tableau", _LockStep)
    monkeypatch.setattr(_LockStep, "built", [])


@pytest.fixture(scope="module")
def lock_step_run():
    """Wide, square and tall programs in both modes, then the margin LPs
    (tall) and certificate LPs (wide) of generated data, all solved in lock
    step once for the tests below: the (outcome, tableau) of each solve, and
    the largest float row gap seen."""
    with pytest.MonkeyPatch.context() as mp:
        _lock_step(mp)
        mp.setattr(_LockStep, "gap", 0.0)
        solves = []
        real = lp_module.solve

        def recording(lp, mode=EXACT):
            out = real(lp, mode)
            solves.append((out, _LockStep.built[-1]))
            return out

        mp.setattr(lp_module, "solve", recording)  # rationalize's solves too
        rng = random.Random(2020)
        lps = [_mixed_lp(rng) for _ in range(150)] + [_tall_lp(rng) for _ in range(6)]
        for lp in lps:
            for mode in (EXACT, FLOAT):
                recording(lp, mode)
        rng = random.Random(2021)
        for t in range(16):
            n = 2 + t % 4
            params = SphericalParams(F(rng.choice([-2, -1, 1])), tuple(F(rng.randint(-4, 4), 2) for _ in range(n)))
            data = generate_dataset(params, 8 + 2 * t, rng_seed=t)
            for mode in (EXACT, FLOAT):
                rationalize(data, restriction=("euclidean", "anti_euclidean")[t % 2], mode=mode)
                certificate_lp(data, mode)
        return solves, _LockStep.gap


def test_line_storage_pivots_in_lock_step_with_the_row_tableau(lock_step_run):
    # exact mode stores tall programs by column and wide and square ones by
    # row, float mode stores every program by column; either way every number
    # after every pivot is the row-major tableau's, in both modes
    solves, gap = lock_step_run
    for exact in (True, False):
        shapes = [(len(tab.basis), len(tab.nonbasic), tab.by_col) for _, tab in solves if tab.exact == exact]
        assert all(by_col == (m > n or not exact) for m, n, by_col in shapes)  # exact: by column exactly when taller
        assert any(m > n for m, n, _ in shapes) and any(m < n for m, n, _ in shapes) and any(m == n for m, n, _ in shapes)
    assert gap > 0  # the float rows were checked, and carrying rounds otherwise than pricing


def test_degenerate_pivots_count_the_pivots_on_a_zero_rhs(lock_step_run):
    # LpStats.degenerate_pivots counts the pivots whose row has rhs 0 in the
    # reference tableau, in both modes and every layout: exact by row and by
    # column, float by column
    seen = set()
    for out, tab in lock_step_run[0]:
        assert out.stats.degenerate_pivots == sum(zero for _, zero in tab.kinds) <= tab.pivots
        if 0 < out.stats.degenerate_pivots < tab.pivots:
            seen.add((tab.exact, tab.by_col))
    assert seen == {(True, False), (True, True), (False, True)}


def test_the_zero_rhs_rows_of_the_ratio_test_follow_every_pivot(lock_step_run):
    # exact mode keeps the rows with rhs 0 across degenerate pivots (a
    # leftover artificial's pivot is one, whatever the sign of its entry) and
    # reads them anew after a nondegenerate one; the lock step checked every
    # ratio test against the reference's full one, by row and by column
    seen = set()
    for _, tab in lock_step_run[0]:
        if tab.exact:
            for (_, zero), (tested, next_zero) in zip(tab.kinds, tab.kinds[1:]):
                if zero and tested and not next_zero:
                    seen.add((tab.by_col, "nondegenerate after degenerate"))
            for (tested, _), (next_tested, _) in zip(tab.kinds, tab.kinds[1:]):
                if not tested and next_tested:
                    seen.add((tab.by_col, "ratio test after a leftover artificial"))
    kinds = ("nondegenerate after degenerate", "ratio test after a leftover artificial")
    assert seen == {(by_col, kind) for by_col in (True, False) for kind in kinds}


def _scaled_lp(lp, row, obj):
    """``lp`` with every constraint times ``row`` and the objective times
    ``obj``: the same feasible set and optimal value times ``obj``, over
    larger integers."""
    cons = tuple(Constraint(tuple(row * a for a in c.coeffs), c.relation, row * c.rhs) for c in lp.constraints)
    return LinearProgram(tuple(obj * v for v in lp.objective), cons, lp.bounds)


def test_packed_lines_pivot_in_lock_step_at_every_field_width(monkeypatch):
    # constraints times 2**40, 2**70 or 2**200 need fields of one, two, three
    # and more 64-bit words, and objectives times 2**70 or 2**200 give wide
    # objective rows beside narrow constraint rows; every pivot and flip, by
    # row and by column, still gives the row-major tableau's integers and its
    # reduced costs in the carried objective row
    _lock_step(monkeypatch)
    _LockStep.events = set()
    rng = random.Random(2222)
    for row, obj in ((1, 1), (2**40, 1), (2**70, 1), (1, 2**70), (2**200, 1), (1, 2**200), (2**70, 2**200)):
        for _ in range(40):
            lp = _mixed_lp(rng)
            big = _scaled_lp(lp, row, obj)
            want, got = solve(lp), solve(big)
            assert got.status == want.status
            if got.status == OPTIMAL:
                assert got.objective_value == obj * want.objective_value
                assert_primal_feasible(big, got)
    huge = 2**200
    edges = [
        LinearProgram((huge,), ()),  # no rows: unbounded, and optimal at 0
        LinearProgram((-huge,), (), ((0, None),)),
        LinearProgram((), (Constraint((), LE, huge),)),  # no columns: feasible, infeasible
        LinearProgram((), (Constraint((), GE, huge),)),
        LinearProgram((huge, -1), (), ((None, huge), (0, None))),  # bound rows only
    ]
    assert [solve(lp).status for lp in edges] == [UNBOUNDED, OPTIMAL, OPTIMAL, INFEASIBLE, OPTIMAL]
    assert solve(edges[-1]).objective_value == huge * huge
    seen = {(min(words, 3), by_col, kind) for words, by_col, kind in _LockStep.events}
    assert seen == {(w, by_col, kind) for w in (1, 2, 3) for by_col in (False, True) for kind in ("pivot", "flip")}


def _det(M):
    """The determinant of a square integer matrix, by Laplace expansion
    along its first row."""
    if not M:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1 :] for row in M[1:]]) for j, a in enumerate(M[0]) if a)


def test_minor_bits_bounds_every_minor():
    # the field width holds the bit length of every |minor|, whether the
    # lines it is given are the rows or the columns
    rng = random.Random(2424)
    shapes = [(1, k) for k in range(1, 6)] + [(k, 1) for k in range(2, 5)] + [(r, c) for r in range(2, 5) for c in range(2, 6)]
    for r, c in shapes:
        for _ in range(15):
            top = rng.choice([1, 3, 100, 2**40])
            M = [[rng.choice([0, rng.randint(-top, top)]) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.3:
                M[rng.randrange(r)] = [0] * c
            if rng.random() < 0.3:
                j = rng.randrange(c)
                for row in M:
                    row[j] = 0
            worst = max(
                abs(_det([[M[i][j] for j in cols] for i in rows])).bit_length()
                for t in range(1, min(r, c) + 1)
                for rows in combinations(range(r), t)
                for cols in combinations(range(c), t)
            )
            assert lp_module._minor_bits(M) >= worst
            assert lp_module._minor_bits([list(col) for col in zip(*M)]) >= worst
    hadamard = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    assert lp_module._minor_bits(hadamard) == abs(_det(hadamard)).bit_length() == 5  # the bound is tight
    assert lp_module._minor_bits([[0, 0], [0, 0]]) == 1


@pytest.mark.parametrize(
    "lp, want, shape, pivots",
    [
        (LinearProgram((), (Constraint((), LE, 1),)), (OPTIMAL, (), 0), (1, 0), 0),
        (LinearProgram((), (Constraint((), GE, 1),)), (INFEASIBLE, None, None), (1, 1), 0),
        (LinearProgram((), (Constraint((), EQ, 0),)), (OPTIMAL, (), 0), (1, 0), 0),
        (LinearProgram((1,), ()), (UNBOUNDED, None, None), (0, 1), 0),
        (LinearProgram((-1,), (), ((0, None),)), (OPTIMAL, (0,), 0), (0, 1), 0),
        (LinearProgram((1, 2, -1), (Constraint((1, 1, 1), LE, 4),), ((0, None),) * 3), (OPTIMAL, (0, 4, 0), 8), (1, 3), 2),
        (
            LinearProgram((1, -2, 3, 1), (Constraint((2, 1, F(1, 2), 1), EQ, 3),), ((0, None),) * 4),
            (OPTIMAL, (0, 0, 6, 0), 18),
            (1, 4),
            2,
        ),
        (
            LinearProgram((1, 1), (Constraint((1, 2), LE, 4), Constraint((3, 1), LE, 6)), ((0, None), (0, None))),
            (OPTIMAL, (F(8, 5), F(6, 5)), F(14, 5)),
            (2, 2),
            2,
        ),
        (
            LinearProgram((1, -1), (Constraint((1, 1), LE, 2), Constraint((1, -1), GE, -1)), ((None, None), (0, None))),
            (OPTIMAL, (2, 0), 2),
            (2, 2),
            1,
        ),
    ],
)
def test_edge_shapes(lp, want, shape, pivots):
    # no column, no row, one row and square programs, in both modes
    status, primal, value = want
    for mode in (EXACT, FLOAT):
        out = solve(lp, mode)
        if mode == FLOAT and primal is not None:
            primal, value = tuple(map(float, primal)), float(value)
            assert {type(v) for v in out.primal} <= {float}
            assert type(out.objective_value) is float  # the program with no variables gave the int 0
        assert (out.status, out.primal, out.objective_value) == (status, primal, value)
        assert (out.stats.rows, out.stats.columns) == shape
        assert out.stats.phase1_pivots + out.stats.phase2_pivots == pivots


def _with(bad, where):
    """max x + y subject to x + 2y <= 4, 0 <= x <= 3, y >= 0, with ``bad`` put in ``where``."""
    coeffs, rhs, objective, upper = (1, 2), 4, (1, 1), 3
    if where == "coefficient":
        coeffs = (bad, 2)
    elif where == "rhs":
        rhs = bad
    elif where == "objective":
        objective = (bad, 1)
    else:
        upper = bad
    return LinearProgram(objective, (Constraint(coeffs, LE, rhs),), ((0, upper), (0, None)))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("where, name", [
    ("coefficient", "constraint 0"),
    ("rhs", "constraint 0"),
    ("objective", "the objective"),
    ("bound", "the upper bound of variable 0"),
])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_data_that_are_not_finite_raise_one_value_error(bad, where, name, mode):
    # float mode would pivot on them, exact mode cannot make them integers:
    # one ValueError in both modes, naming the datum
    assert solve(_with(1, where), mode).status == OPTIMAL
    with pytest.raises(ValueError, match=f"^{name} is not finite"):
        solve(_with(bad, where), mode)


@pytest.mark.parametrize("where, name", [
    ("coefficient", "constraint 0"),
    ("rhs", "constraint 0"),
    ("objective", "the objective"),
    ("bound", "the upper bound of variable 0"),
])
@pytest.mark.parametrize("big", [10**400, F(10**400, 3)], ids=["10**400", "10**400/3"])
def test_data_beyond_the_float_range_raise_the_same_value_error(big, where, name):
    # float() of such a datum overflows: float mode names it like an
    # infinity, and exact mode solves the program
    with pytest.raises(ValueError, match=f"^{name} is not finite"):
        solve(_with(big, where), FLOAT)
    assert solve(_with(big, where)).status in (OPTIMAL, UNBOUNDED, INFEASIBLE)
