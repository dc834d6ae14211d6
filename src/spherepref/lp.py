"""Self-contained simplex solver over exact rationals, with a float fallback.

Problems are maximizations of a linear objective subject to ``<=``, ``=`` and
``>=`` rows plus optional per-variable bounds. The solver is a two-phase
dense-tableau primal simplex with Bland's anti-cycling rule, so identical
inputs always produce identical outcomes. Exact verdicts carry no tolerance
at all.

Exact mode pivots fraction-free (Edmonds 1967, Bareiss 1968). Each row is
scaled once by the lcm of its denominators, so the tableau starts integral,
and it stays integral over one common positive denominator ``den``: the
true tableau is ``T / den``. A pivot on p = T[r][c] maps every other row to
(T[i] * p - T[i][c] * T[r]) / den, a division that is always exact, and p
becomes the new ``den``; no gcd is ever taken inside the simplex. Row
scaling multiplies each row of the true tableau, each ratio of one ratio
test and each reduced cost by a positive factor, so every entering and
leaving choice is the one a Fraction tableau would make: the pivots, and so
the outputs, are the same. The multipliers are unscaled on the way out.
Float mode keeps plain Gauss-Jordan pivots on floats with small tolerances.

Conventions on the reported multipliers (for a maximization):

* ``duals[i]`` is the multiplier of constraint i at the optimum. It is >= 0
  for a ``<=`` row, <= 0 for a ``>=`` row, and free for ``=``. Together with
  the bound multipliers it satisfies strong duality and complementary
  slackness, exactly in exact mode.
* ``farkas[i]`` (present when infeasible) are weights with the same sign
  conventions such that the weighted combination of all rows cancels every
  variable that is free, is >= 0 on variables bounded below by zero, and has
  a strictly negative combined right-hand side: a proof that no feasible
  point exists.

A lower bound of exactly zero is handled natively (nonnegative column);
any other bound is materialized as an explicit row and participates in the
multiplier accounting through ``bound_duals`` / ``farkas_bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .geometry import EXACT, FLOAT, DimensionMismatch, Scalar, Vec, dot

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_ITER = 100_000
_FLOAT_TOL = 1e-9
_FEAS_TOL = 1e-7


@dataclass(frozen=True)
class Constraint:
    coeffs: Vec
    relation: str
    rhs: Scalar

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.relation not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to constraints and optional bounds."""

    objective: Vec
    constraints: tuple
    bounds: Optional[tuple] = None  # per variable: (lower | None, upper | None)

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = len(self.objective)
        for con in self.constraints:
            if len(con.coeffs) != n:
                raise DimensionMismatch(
                    f"constraint has {len(con.coeffs)} coefficients, expected {n}"
                )
        if self.bounds is not None:
            object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
            if len(self.bounds) != n:
                raise DimensionMismatch(
                    f"{len(self.bounds)} bounds for {n} variables"
                )
            for lo, hi in self.bounds:
                if lo is not None and hi is not None and lo > hi:
                    raise ValueError(f"contradictory bounds: {lo} > {hi}")


@dataclass(frozen=True)
class LpOutcome:
    status: str
    primal: Optional[Vec] = None
    objective_value: Optional[Scalar] = None
    duals: Optional[Vec] = None
    bound_duals: Optional[tuple] = None  # per variable: (lower dual, upper dual)
    farkas: Optional[Vec] = None
    farkas_bounds: Optional[tuple] = None


class _Tableau:
    """The rows ``T`` and right-hand sides ``rhs`` of the current basis.

    In exact mode every entry is an integer and the true tableau is
    ``T / den`` for one common denominator ``den > 0``; in float mode the
    entries are floats and ``den`` stays 1. Only :meth:`pivot` and
    :meth:`leaving_row` depend on the mode.
    """

    def __init__(self, T: list, rhs: list, basis: list, exact: bool):
        self.T = T
        self.rhs = rhs
        self.basis = basis
        self.exact = exact
        self.den = 1

    def pivot(self, r: int, c: int) -> None:
        T, rhs = self.T, self.rhs
        if self.exact:
            # Edmonds' integer pivot: row r keeps its integers and its pivot
            # becomes the common denominator; every other row i becomes
            # (T[i] * p - T[i][c] * T[r]) / den, an exact division because
            # each entry is a minor of the integral start.
            row = T[r]
            p = row[c]
            if p < 0:  # keep den positive; T[r] / p is unchanged
                row = T[r] = [-v for v in row]
                rhs[r] = -rhs[r]
                p = -p
            den, b = self.den, rhs[r]
            nonzero = [(j, w) for j, w in enumerate(row) if w]
            for i, ri in enumerate(T):
                if i == r:
                    continue
                f = ri[c]
                new = [v and v * p // den for v in ri]
                if f:
                    for j, w in nonzero:
                        new[j] = (ri[j] * p - f * w) // den
                T[i] = new
                rhs[i] = (rhs[i] * p - f * b) // den
            self.den = p
        else:
            row = T[r]
            piv = row[c]
            if piv != 1:
                for j in range(len(row)):
                    if row[j]:
                        row[j] = row[j] / piv
                rhs[r] = rhs[r] / piv
                row[c] = piv / piv  # exact one of the right type
            for i in range(len(T)):
                if i == r:
                    continue
                f = T[i][c]
                if f:
                    ri = T[i]
                    for j in range(len(row)):
                        if row[j]:
                            ri[j] = ri[j] - f * row[j]
                    ri[c] = 0 * f  # kill rounding residue in float mode
                    rhs[i] = rhs[i] - f * rhs[r]
        self.basis[r] = c

    def leaving_row(self, enter: int, tol) -> int:
        """Ratio test: the row minimizing rhs_i / a_i over a_i > tol, ties
        broken by the lower basis index; -1 when no entry qualifies."""
        T, rhs, basis = self.T, self.rhs, self.basis
        best = -1
        if self.exact:
            # den cancels from rhs_i / a_i; compare by cross-multiplication
            for i, row in enumerate(T):
                a = row[enter]
                if a > 0:
                    if best >= 0:
                        diff = rhs[i] * best_a - best_b * a
                        if diff > 0 or (diff == 0 and basis[i] > basis[best]):
                            continue
                    best, best_a, best_b = i, a, rhs[i]
        else:
            best_key = None
            for i, row in enumerate(T):
                a = row[enter]
                if a > tol:
                    key = (rhs[i] / a, basis[i])
                    if best_key is None or key < best_key:
                        best_key, best = key, i
        return best

    def reduced_costs(self, costs: list) -> list:
        """den times the reduced costs of ``costs`` (just them in float mode)."""
        rc = list(costs) if self.den == 1 else [self.den * v for v in costs]
        for i, b in enumerate(self.basis):
            cb = costs[b]
            if cb:
                row = self.T[i]
                for j in range(len(rc)):
                    if row[j]:
                        rc[j] = rc[j] - cb * row[j]
        return rc

    def dump(self, fh, label: str) -> None:
        fh.write(f"# {label} (den {self.den})\n")
        for i, row in enumerate(self.T):
            cells = [str(self.basis[i])] + [str(v) for v in row] + [str(self.rhs[i])]
            fh.write("\t".join(cells) + "\n")


def _scaled(values, exact: bool) -> tuple:
    """(k, [k * v for v in values]) with k the least positive integer making
    every entry an integer in exact mode; (1, the values as floats) else."""
    if not exact:
        return 1, [float(v) for v in values]
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    k = lcm(*[v.denominator for v in fracs])
    return k, [v.numerator * (k // v.denominator) for v in fracs]


def _run_simplex(tab: _Tableau, costs, banned, tol, debug, label) -> str:
    """Bland-rule pivoting until optimal or unbounded."""
    ncols = len(costs)
    for _ in range(_MAX_ITER):
        rc = tab.reduced_costs(costs)
        enter = -1
        for j in range(ncols):
            if not banned[j] and rc[j] > tol:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        r = tab.leaving_row(enter, tol)
        if r < 0:
            return UNBOUNDED
        tab.pivot(r, enter)
        if debug is not None:
            tab.dump(debug, f"{label} pivot -> col {enter}")
    raise RuntimeError("simplex iteration limit exceeded")


def solve(lp: LinearProgram, mode: str = EXACT, debug=None) -> LpOutcome:
    """Solve a LinearProgram; see the module docstring for the contract.

    ``mode`` selects the arithmetic: EXACT converts every datum to Fraction
    (floats convert verbatim) and pivots an integer tableau over a common
    denominator, which makes the same choices a Fraction tableau would;
    FLOAT converts to float and uses small pivot tolerances. ``debug`` may
    be a writable text stream receiving one TSV tableau snapshot per pivot
    (in exact mode the integer rows, with the denominator in the header).
    """
    if mode == EXACT:
        conv, cell = Fraction, int
        tol = 0
    elif mode == FLOAT:
        conv, cell = float, float
        tol = _FLOAT_TOL
    else:
        raise ValueError(f"unknown arithmetic mode: {mode!r}")
    exact = mode == EXACT

    nvars = len(lp.objective)
    objective = [conv(v) for v in lp.objective]
    bounds = lp.bounds if lp.bounds is not None else ((None, None),) * nvars

    # Variable kinds: a zero lower bound becomes a plain nonnegative column;
    # everything else stays a free (split) variable with bound rows.
    nonneg = [b[0] is not None and b[0] == 0 for b in bounds]

    # Row list: user constraints first, then materialized bound rows, each
    # as (k, k * coeffs over original vars, relation, k * rhs, origin).
    rows: list = []
    for i, con in enumerate(lp.constraints):
        k, vals = _scaled(con.coeffs + (con.rhs,), exact)
        rows.append((k, vals[:-1], con.relation, vals[-1], ("con", i)))
    for j, (lo, hi) in enumerate(bounds):
        ej = [0] * nvars
        ej[j] = 1
        if lo is not None and not nonneg[j]:
            k, vals = _scaled(ej + [lo], exact)
            rows.append((k, vals[:-1], GE, vals[-1], ("lo", j)))
        if hi is not None:
            k, vals = _scaled(ej + [hi], exact)
            rows.append((k, vals[:-1], LE, vals[-1], ("hi", j)))

    # Structural columns: one per nonnegative variable, two per free one.
    struct: list = []  # (var index, +1 | -1)
    for j in range(nvars):
        struct.append((j, 1))
        if not nonneg[j]:
            struct.append((j, -1))
    ns = len(struct)

    # Orient to <= / = and normalize right-hand sides to be nonnegative.
    m = len(rows)
    oriented: list = []  # (k, structvec, rhs, slack sign, needs artificial, row sign, origin)
    for k, coeffs, rel, rhs_v, origin in rows:
        sign = 1
        if rel == GE:
            coeffs = [-v for v in coeffs]
            rhs_v = -rhs_v
            rel = LE
            sign = -sign
        if rhs_v < 0:
            coeffs = [-v for v in coeffs]
            rhs_v = -rhs_v
            sign = -sign
            rel = GE if rel == LE else EQ
        svec = [coeffs[j] if s > 0 else -coeffs[j] for j, s in struct]
        slack = 1 if rel == LE else (-1 if rel == GE else 0)
        oriented.append((k, svec, rhs_v, slack, rel != LE, sign, origin))

    n_slack = sum(1 for o in oriented if o[3] != 0)
    n_art = sum(1 for o in oriented if o[4])
    ncols = ns + n_slack + n_art

    # Row i's slack or artificial column is a unit column, so in exact mode
    # it stands for k_i times the slack or artificial of the unscaled row.
    T: list = []
    rhs: list = []
    basis: list = []
    idcol: list = []
    artificial = [False] * ncols
    s_at = ns
    a_at = ns + n_slack
    for k, svec, b, slack, needs_art, sign, origin in oriented:
        row = svec + [cell(0)] * (ncols - ns)
        if slack != 0:
            row[s_at] = cell(slack)
            s_col = s_at
            s_at += 1
        if needs_art:
            row[a_at] = cell(1)
            artificial[a_at] = True
            basis.append(a_at)
            idcol.append(a_at)
            a_at += 1
        else:
            basis.append(s_col)
            idcol.append(s_col)
        T.append(row)
        rhs.append(b)

    tab = _Tableau(T, rhs, basis, exact)
    scale = [o[0] for o in oriented]
    row_sign = [o[5] for o in oriented]
    origins = [o[6] for o in oriented]
    never = [False] * ncols

    def _extract_multipliers(costs: list, cost_scale: int) -> list:
        # Row i's multiplier is that of its unit column (true value
        # (den * cost - rc) / den), times k_i for the row scaling, over the
        # positive factor the costs were scaled by.
        rc = tab.reduced_costs(costs)
        if exact:
            den = tab.den
            return [
                Fraction(row_sign[i] * scale[i] * (den * costs[idcol[i]] - rc[idcol[i]]), den * cost_scale)
                for i in range(m)
            ]
        return [row_sign[i] * (costs[idcol[i]] - rc[idcol[i]]) for i in range(m)]

    def _split_multipliers(y: list):
        con_part = [conv(0)] * len(lp.constraints)
        lo_part = [conv(0)] * nvars
        hi_part = [conv(0)] * nvars
        for i, (kind, idx) in enumerate(origins):
            if kind == "con":
                con_part[idx] = y[i]
            elif kind == "lo":
                lo_part[idx] = y[i]
            else:
                hi_part[idx] = y[i]
        return tuple(con_part), tuple(zip(lo_part, hi_part))

    # Phase 1: drive the artificial columns to zero. Artificial i costs
    # -L / k_i with L the lcm of those k_i: L times the unscaled objective,
    # in integers.
    if n_art:
        art_rows = [i for i in range(m) if artificial[idcol[i]]]
        art_lcm = lcm(*[scale[i] for i in art_rows])
        costs1 = [cell(0)] * ncols
        for i in art_rows:
            costs1[idcol[i]] = cell(-(art_lcm // scale[i]))
        status = _run_simplex(tab, costs1, never, tol, debug, "phase1")
        if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("phase 1 terminated abnormally")
        value1 = sum(costs1[basis[i]] * rhs[i] for i in range(m))
        infeas_cut = 0 if exact else -_FEAS_TOL * (1 + max(map(abs, rhs), default=0))
        if value1 < infeas_cut:
            w = _extract_multipliers(costs1, art_lcm)
            farkas, farkas_bounds = _split_multipliers(w)
            return LpOutcome(INFEASIBLE, farkas=farkas, farkas_bounds=farkas_bounds)
        # Pivot leftover artificials out of the basis where possible.
        for i in range(m):
            if artificial[basis[i]]:
                for j in range(ncols):
                    if not artificial[j] and (T[i][j] if exact else abs(T[i][j]) > tol):
                        tab.pivot(i, j)
                        break

    # Phase 2: the real objective over structural columns, times the lcm of
    # its denominators in exact mode.
    obj_scale, costs = _scaled(lp.objective, exact)
    costs2 = [cell(0)] * ncols
    for k, (j, s) in enumerate(struct):
        costs2[k] = costs[j] if s > 0 else -costs[j]
    banned = list(artificial)
    status = _run_simplex(tab, costs2, banned, tol, debug, "phase2")
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    values = [conv(0)] * ns
    for i, b in enumerate(basis):
        if b < ns:
            values[b] = Fraction(rhs[i], tab.den) if exact else rhs[i]
    primal = [conv(0)] * nvars
    for k, (j, s) in enumerate(struct):
        primal[j] = primal[j] + (values[k] if s > 0 else -values[k])
    y = _extract_multipliers(costs2, obj_scale)
    duals, bound_duals = _split_multipliers(y)
    return LpOutcome(
        OPTIMAL,
        primal=tuple(primal),
        objective_value=dot(tuple(objective), tuple(primal)),
        duals=duals,
        bound_duals=bound_duals,
    )
