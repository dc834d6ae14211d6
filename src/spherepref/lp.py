"""Self-contained simplex solver over exact rationals, with a float fallback.

Problems are maximizations of a linear objective subject to ``<=``, ``=`` and
``>=`` rows plus optional per-variable bounds. The solver is a two-phase
primal simplex with Bland's anti-cycling rule, so identical inputs always
produce identical outcomes. Exact verdicts carry no tolerance at all.

The tableau is kept as a dictionary (as in Avis's lrs): only the columns of
the nonbasic variables are stored, since each basic column is a unit column
the basis implies. Row i's slack is variable ns + i and its artificial
ns + m + i, after the ns structural columns, so the variables are numbered
as the columns of the full dense tableau are ordered: Bland's rule, the
ratio test's tie-break and the choice of pivot for a leftover artificial
pick what they would pick there, and a pivot on a stored column computes the
same numbers the dense pivot does on the columns it keeps.

A free variable is split into x+ - x-, two variables numbered next to each
other (twins), but a pair stores at most one column. While both twins are
nonbasic, one's column and reduced cost are the exact negatives of the
other's (pivots are linear, and IEEE negation and rounding are symmetric in
sign, so this holds bit for bit in float mode too): Bland's rule and the
leftover-artificial step are offered both, and choosing the unstored one
negates the stored column in place. While one twin is basic in row r, the
other's column is -den * e_r with a reduced cost of exactly 0: it can never
enter and is not stored. So every pivot, and every stored number, is what
the tableau with both columns has.

The augmented dictionary [D | rhs] is stored as a list of lines. Float mode
stores one line per column. Exact mode stores it along its longer side,
chosen once per solve from its shape: by column when there are more rows
than stored columns (the margin LP of ``rationalize``, about 37 rows by
n + 2 columns), by row otherwise (its certificate LP, n + 2 rows by one
column per observation), so a pivot rebuilds a few long packed lines instead
of many short ones. One exact update serves both layouts because the dual
dictionary is the negative transpose of the primal one (Vanderbei, *Linear
Programming*, ch. 5): along a column the cross entry only changes sign. In
either mode every number is the one the row-major tableau computes.

Exact mode pivots fraction-free (Edmonds 1967, Bareiss 1968). Each row is
scaled once by the lcm of its denominators (integer rows enter as they are),
so the tableau starts integral, and it stays integral over one common
positive denominator ``den``: the true tableau is A / den with A = [D | rhs]
and the objective rows below it. A pivot on p = A[r][c] maps each entry
A[i][j] off row r to (A[i][j] * p - A[i][c] * A[r][j]) / den, a division
that is always exact, and p becomes the new ``den``; no gcd is ever taken
inside the simplex. Each line of A is one integer that packs its entries
into fixed-width fields (Kronecker substitution), so a pivot updates a line
with three big-int operations, whatever its length. Row scaling multiplies
each row of the true tableau, each ratio of one ratio test and each reduced
cost by a positive factor, so every entering and leaving choice is the one a
Fraction tableau would make: the pivots, and so the outputs, are the same.
Float mode keeps plain Gauss-Jordan pivots on floats, one column at a time,
with small tolerances.

The exact ratio test reads the rhs only when it has to. Every rhs entry is
>= 0, so a row with rhs 0 and a positive entry in the entering column has
the least ratio there is, 0, and Bland's tie-break takes the one with the
lowest basis index: the full test would pick the same row. Exact mode keeps
the list of rows whose rhs is 0 and looks there first. A pivot on a row
with rhs 0 (a degenerate pivot: every data row of ``rationalize``'s margin
LP starts at rhs 0) maps each rhs entry b to b * p / den with p > 0, so the
list stays as it is; only a pivot on a nonzero rhs has it read anew. Float
mode always runs the full test: its rhs entries may round below 0.

In both modes the pivots carry the objective rows of both phases like any
other row, since a dictionary's objective row is a row whose basic variable
is z (Vanderbei, ch. 2): -den times each reduced cost, then den times the
objective value, with ``den`` 1 in float mode. So no mode prices from
scratch: the prices and the phase 1 verdict are read off these rows, and so
is the exact optimal value.

An outcome reports the status and, when optimal, the primal point and the
objective value, plus an :class:`LpStats` record of the solve. A lower
bound of exactly zero is handled natively (nonnegative column); any other
bound is materialized as an explicit row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, isfinite, lcm, prod
from operator import mul
from struct import Struct
from time import perf_counter
from typing import Optional

from .geometry import EXACT, DimensionMismatch, Scalar, Vec, clear_denominators, dot, mode_param

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
class LpStats:
    """What one solve did. ``phase1_pivots`` counts the pivots that take
    leftover artificials out of the basis; ``columns`` is the number of
    stored columns, which no pivot changes; ``bits`` is the largest bit
    length among the final ``den`` and right-hand side (0 in float mode);
    ``degenerate_pivots`` counts the pivots, of either phase, whose row had
    a right-hand side of exactly 0."""

    phase1_pivots: int
    phase2_pivots: int
    rows: int
    columns: int
    bits: int
    seconds: float
    degenerate_pivots: int


@dataclass(frozen=True)
class LpOutcome:
    status: str
    primal: Optional[Vec] = None
    objective_value: Optional[Scalar] = None
    # how the outcome was reached, not what it is: equality and repr ignore it
    stats: Optional[LpStats] = field(default=None, compare=False, repr=False)


class _Tableau:
    """The current basis as a dictionary: only the nonbasic columns.

    The augmented dictionary [D | rhs] has row i for the basic variable
    ``basis[i]`` (whose unit column is implied), column k for the nonbasic
    variable ``nonbasic[k]``, and the right-hand side as its last column,
    number ``len(nonbasic)``. It is stored as ``lines``: one line per
    column, the rhs line last, when ``by_col``, else one line per row, each
    ending with its rhs entry. Float mode is always ``by_col``; exact mode is
    when there are more rows than stored columns, so that it stores the
    longer side. Phase 2's objective is row m = ``len(basis)`` and, given
    artificials, phase 1's is row m + 1: entries of every line by column,
    lines by row. ``column(k)`` and ``row(i)`` read either way (``row(m)``
    reads an objective row; ``column(k)`` and ``rhs`` leave them out); what
    they return is read only. In float mode a line is a list of floats and
    ``den`` stays 1.

    In exact mode the true tableau is ``[D | rhs] / den``, objective rows
    included, for one common denominator ``den > 0``, and a line is one int,
    sum(entry_i * 2**(b*i)): entry i is the signed field at bits
    [b*i, b*(i+1)), and a linear combination of lines is the same
    combination of their entries. The width b = 64 * ``words`` is fixed per
    solve. Every entry (``den`` too) is, up to sign, a minor of the integral
    start, objective rows included, which Hadamard's inequality bounds
    (:func:`_minor_bits`), and one bit more holds the sign. Only entries
    read back must fit their fields: packed arithmetic is exact integer
    arithmetic on the whole line, so an intermediate field that overflows
    (the pivot line's temporary entry p +- den, or a numerator
    L[i] * p - f * W[i]) carries into the next one and the carry cancels
    when the update is complete.

    ``twin`` maps each half of a split free variable to the other. A pair
    stores one column while both halves are nonbasic (the other half's is
    its negation, see :meth:`flip`) and none while one is basic, so no pivot
    changes the number of stored columns.
    """

    def __init__(self, rows: list, basis: list, nonbasic: list, twin: dict, exact: bool):
        """``rows`` are the rows of [D | rhs], then the objective rows."""
        m = len(basis)
        self.by_col = not exact or m > len(nonbasic)
        lines = self.lines = [list(c) for c in zip(*rows)] if self.by_col else rows
        if exact:
            w = self.words = -(-(_minor_bits(lines) + 1) // 64)
            b, fields = 64 * w, len(rows) if self.by_col else len(nonbasic) + 1
            self.b, self.mask, self.half = b, (1 << b) - 1, 1 << (b - 1)
            self.bias = self.half * ((1 << (b * fields)) - 1) // self.mask  # the top bit of every field
            self.size = 8 * w * fields  # unpack reads no column's objective fields
            self.struct = Struct("<" + ("Q" * (w - 1) + "q") * (m if self.by_col else fields))  # a field's top word is signed
            lines[:] = [sum(v << (b * i) for i, v in enumerate(line)) for line in lines]

            def stored(j: int) -> list:
                return self.unpack(lines[j])

            def across(j: int) -> list:
                bias, shift, mask, half = self.bias, self.b * j, self.mask, self.half
                return [((L + bias) >> shift & mask) - half for L in lines]
        else:

            def stored(j: int) -> list:
                return lines[j][:m]

            def across(j: int) -> list:
                return [line[j] for line in lines]

        # entry j of every line: a row when stored by column, a column and
        # its objective entries when stored by row
        self.across = across
        self.column, self.row = (stored, across) if self.by_col else (lambda k: across(k)[:m], stored)
        self.basis = basis
        self.nonbasic = nonbasic
        self.twin = twin
        self.exact = exact
        self.den = 1
        self.pivots = 0
        self.degenerate = 0
        self.zero = None  # exact mode: the rows whose rhs is 0, None until read

    def unpack(self, line: int) -> list:
        """The entries of a packed line: adding ``bias`` makes every field
        nonnegative and the xor makes it two's complement, read by 64-bit words."""
        words, w = self.struct.unpack_from(((line + self.bias) ^ self.bias).to_bytes(self.size, "little")), self.words
        values = list(words[w - 1 :: w])
        for t in range(w - 2, -1, -1):
            values = [(v << 64) + low for v, low in zip(values, words[t::w])]
        return values

    @property
    def rhs(self) -> list:
        """The last column of [D | rhs]."""
        return self.column(len(self.nonbasic))

    def zero_rows(self) -> list:
        """The rows whose rhs is 0 (exact mode), kept from one read of the
        rhs to the next pivot on a row with a nonzero rhs."""
        if self.zero is None:
            self.zero = [i for i, b in enumerate(self.rhs) if not b]
        return self.zero

    def orient(self, v: int, k: int) -> None:
        """Store variable v, ``nonbasic[k]`` or its twin, in column k."""
        if v != self.nonbasic[k]:
            self.flip(k)

    def flip(self, k: int) -> None:
        """Store the twin of ``nonbasic[k]`` in column k: its column is the
        negated one."""
        if self.by_col:
            self.lines[k] = -self.lines[k] if self.exact else [-v for v in self.lines[k]]
        else:
            shift = self.b * k + 1
            self.lines[:] = [L - (f << shift) for L, f in zip(self.lines, self.across(k))]
        self.nonbasic[k] = self.twin[self.nonbasic[k]]

    def pivot(self, r: int, k: int) -> None:
        """Swap ``basis[r]`` and ``nonbasic[k]``: column k becomes the
        leaving variable's column, and every line is updated in one pass.

        Float mode stores by column and runs Gauss-Jordan column by column,
        each number as the row-major tableau computes it. Exact mode's pivot
        line P is row r, or column k when stored by column, and every other
        line L meets it at the cross entry f = L[pos] (pos = k along a row,
        r along a column). The dual dictionary is the negative transpose of
        the primal one, so one update serves both layouts; only the sign of
        ``cross`` differs.
        """
        lines = self.lines
        if self.exact:
            x, pos, cross = (k, r, -1) if self.by_col else (r, k, 1)
            P = lines[x]
            # with rhs_r = 0 every rhs entry is scaled by p / den > 0, so the
            # rows whose rhs is 0 stay the same
            degenerate = r in self.zero_rows()
            if not degenerate:
                self.zero = None
            # Edmonds' integer pivot on p = |P[pos]|: row r keeps its integers
            # (times the sign s of the pivot) and p becomes the common
            # denominator; every other line L becomes (L * p - f * W) / den
            # with f = L[pos], a floor division that is exact because every
            # field of the numerator is a multiple of den (each new entry is a
            # minor of the integral start). With W[pos] = p + cross*s*den the
            # same formula gives L's entry in the leaving column (-s*f along a
            # row) or in row r (s*f along a column).
            den, shift = self.den, self.b * pos
            F = self.across(pos)  # every line's entry at pos
            s = 1 if F[x] > 0 else -1
            p, W = s * F[x], (P if s > 0 else -P) + (cross * s * den << shift)
            for j, (L, f) in enumerate(zip(lines, F)):
                if j != x:
                    lines[j] = (L * p - f * W) // den if f else L * p // den
            lines[x] = cross * W - (cross * p << shift)  # W[pos] = s * den
            self.den = p
        else:
            # Row r's entry in each column is divided by the pivot where it
            # is nonzero, its rhs entry always; column k becomes e_r, and each
            # row i with an entry c in column k subtracts c times each nonzero
            # quotient, which turns e_r into the leaving column.
            C, rhs = lines[k], lines[-1]
            degenerate = not rhs[r]
            piv, C[r] = C[r], 0.0  # row r is divided, not reduced
            lines[k] = [0.0] * len(C)
            lines[k][r] = 1.0
            rows = [i for i, c in enumerate(C) if c]
            for L in lines:
                q = L[r]
                if q or L is rhs:
                    L[r] = q = q / piv
                    if q or L is rhs:
                        for i in rows:
                            L[i] = L[i] - C[i] * q
        self.basis[r], self.nonbasic[k] = self.nonbasic[k], self.basis[r]
        self.pivots += 1
        self.degenerate += degenerate

    def leaving_row(self, k: int, tol) -> int:
        """Ratio test on column k: the row minimizing rhs_i / a_i over
        a_i > tol, ties broken by the lower basis index; -1 when no entry
        qualifies. In exact mode a row with rhs 0 and a_i > 0 has the least
        ratio, 0 (every rhs is >= 0), so Bland's choice is the lowest basis
        index among such :meth:`zero_rows`; the rhs is read only without one."""
        col, basis = self.column(k), self.basis
        best = -1
        if self.exact:
            for i in self.zero_rows():
                if col[i] > 0 and (best < 0 or basis[i] < basis[best]):
                    best = i
            if best >= 0:
                return best
            # den cancels from rhs_i / a_i; compare by cross-multiplication
            rhs = self.rhs
            for i, a in enumerate(col):
                if a > 0:
                    if best >= 0:
                        diff = rhs[i] * best_a - best_b * a
                        if diff > 0 or (diff == 0 and basis[i] > basis[best]):
                            continue
                    best, best_a, best_b = i, a, rhs[i]
        else:
            rhs, best_key = self.rhs, None
            for i, a in enumerate(col):
                if a > tol:
                    key = (rhs[i] / a, basis[i])
                    if best_key is None or key < best_key:
                        best_key, best = key, i
        return best


def _minor_bits(lines: list) -> int:
    """A bit length above every |minor| of the integer matrix with these
    lines as its rows, or as its columns: by Hadamard's inequality a minor
    is at most the product of the Euclidean norms of its lines (each counted
    as >= 1)."""
    return (prod(max(1, sum(map(mul, v, v))) for v in lines).bit_length() + 1) // 2


def _scaled(values: tuple, exact: bool, name: str) -> tuple:
    """(k, [k * v for v in values]) with k the least positive integer making
    every entry an integer in exact mode (all-int values as they are); (1,
    the values as floats) else. A NaN or an infinity among the values, or in
    float mode a number beyond the float range, raises ValueError naming
    ``name``, the datum they come from."""
    if not exact:
        try:
            floats = [float(v) for v in values]
        except OverflowError:  # an int or a Fraction beyond the float range
            floats = [inf]
        if all(map(isfinite, floats)):
            return 1, floats
    elif {int}.issuperset(map(type, values)):
        return 1, values
    else:
        try:
            return clear_denominators(values)
        except (OverflowError, ValueError):  # as_integer_ratio of an infinity or a NaN
            pass
    raise ValueError(f"{name} is not finite: {values}")


def _stats(tab: _Tableau, phase1: int, start: float) -> LpStats:
    bits = max(v.bit_length() for v in (tab.den, *tab.rhs)) if tab.exact else 0
    return LpStats(phase1, tab.pivots - phase1, len(tab.basis), len(tab.nonbasic), bits, perf_counter() - start,
                   tab.degenerate)


def _run_simplex(tab: _Tableau, obj: int, limit: int, tol) -> str:
    """Bland-rule pivoting until optimal or unbounded; only variables
    numbered below ``limit`` may enter. The prices are read off objective
    row ``obj``; the unstored twin of a column is offered with the negated
    reduced cost."""
    twin, neg = tab.twin, -tol
    for _ in range(_MAX_ITER):
        # the entry a of column k in the row is minus its reduced cost; every
        # candidate is numbered below limit, and a pair offers one of its twins
        best, k = limit, -1
        for j, (v, a) in enumerate(zip(tab.nonbasic, tab.row(obj))):  # stops before the rhs entry
            if a < neg:
                if v < best:
                    best, k = v, j
            elif a > tol and v in twin and twin[v] < best:
                best, k = twin[v], j
        if k < 0:
            return OPTIMAL
        tab.orient(best, k)
        r = tab.leaving_row(k, tol)
        if r < 0:
            return UNBOUNDED
        tab.pivot(r, k)
    raise RuntimeError("simplex iteration limit exceeded")


def solve(lp: LinearProgram, mode: str = EXACT) -> LpOutcome:
    """Solve a LinearProgram; see the module docstring for the contract.

    ``mode`` selects the arithmetic: EXACT converts every datum to Fraction
    (floats convert verbatim) and pivots an integer tableau over a common
    denominator, which makes the same choices a Fraction tableau would;
    FLOAT converts to float and uses small pivot tolerances.
    """
    start = perf_counter()
    exact = mode_param(mode) == EXACT
    cell, tol = (int, 0) if exact else (float, _FLOAT_TOL)

    nvars = len(lp.objective)
    bounds = lp.bounds if lp.bounds is not None else ((None, None),) * nvars

    # Variable kinds: a zero lower bound becomes a plain nonnegative column;
    # everything else stays a free (split) variable with bound rows.
    nonneg = [b[0] is not None and b[0] == 0 for b in bounds]

    # Row list: user constraints first, then materialized bound rows, each
    # scaled to (k, k * coeffs over original vars, relation, k * rhs).
    cons = [(con.coeffs, con.relation, con.rhs, f"constraint {i}") for i, con in enumerate(lp.constraints)]
    for j, (lo, hi) in enumerate(bounds):
        ej = (0,) * j + (1,) + (0,) * (nvars - j - 1)
        if lo is not None and not nonneg[j]:
            cons.append((ej, GE, lo, f"the lower bound of variable {j}"))
        if hi is not None:
            cons.append((ej, LE, hi, f"the upper bound of variable {j}"))
    rows: list = []
    for coeffs, rel, b, name in cons:
        k, vals = _scaled(coeffs + (b,), exact, name)
        rows.append((k, vals[:-1], rel, vals[-1]))

    # Structural variables: one per nonnegative variable, two per free one,
    # x+ then x-, twins of each other. Only x+ starts as a stored column.
    struct: list = []  # (var index, +1 | -1)
    twin: dict = {}
    nonbasic: list = []
    for j in range(nvars):
        nonbasic.append(len(struct))
        struct.append((j, 1))
        if not nonneg[j]:
            v = len(struct)
            twin[v - 1], twin[v] = v, v - 1
            struct.append((j, -1))
    ns = len(struct)

    # Row i's slack is variable ns + i and its artificial ns + m + i, so
    # structural < slack < artificial. Each row is oriented to a nonnegative
    # right-hand side; it starts with its slack basic if the slack enters
    # with +1, else with its artificial, and a slack entering with -1 starts
    # as a nonbasic column. In exact mode either stands for k_i times the
    # slack or artificial of the unscaled row.
    m = len(rows)
    art0 = ns + m
    T: list = []
    rhs: list = []
    basis: list = []
    for i, (_, coeffs, rel, b) in enumerate(rows):
        sign = -1 if rel == GE else 1
        if sign * b < 0:
            sign = -sign
        slack = 0 if rel == EQ else (sign if rel == LE else -sign)
        T.append([sign * a for a in coeffs])
        rhs.append(sign * b)
        basis.append(ns + i if slack > 0 else art0 + i)
        if slack < 0:
            nonbasic.append(ns + i)
    for i, row in enumerate(T):
        row += [cell(-1 if v == ns + i else 0) for v in nonbasic[nvars:]]
        row.append(rhs[i])

    # The objective rows over the start basis, appended below [D | rhs]:
    # phase 2 costs the real objective, times the lcm k_obj of its
    # denominators in exact mode, and the start basis costs nothing, so its
    # row is minus the costs of the stored x+ columns (slacks cost nothing).
    # Phase 1 costs artificial i -L / k_i with L the lcm of those k_i: L
    # times the unscaled objective, in integers; its row is the costed sum
    # of the artificials' rows.
    art_rows = [i for i in range(m) if basis[i] >= art0]
    k_obj, costs = _scaled(lp.objective, exact, "the objective")
    T.append([-c for c in costs] + [cell(0)] * (len(nonbasic) - nvars + 1))
    if art_rows:
        art_lcm = lcm(*[rows[i][0] for i in art_rows])
        weights = [(cell(-(art_lcm // rows[i][0])), T[i]) for i in art_rows]
        T.append([sum(c * row[k] for c, row in weights) for k in range(len(nonbasic) + 1)])
    tab = _Tableau(T, basis, nonbasic, twin, exact)

    if art_rows:
        status = _run_simplex(tab, m + 1, art0 + m, tol)
        if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("phase 1 terminated abnormally")
        infeas_cut = 0 if exact else -_FEAS_TOL * (1 + max(map(abs, tab.rhs), default=0))
        if tab.row(m + 1)[-1] < infeas_cut:  # den * z
            return LpOutcome(INFEASIBLE, stats=_stats(tab, tab.pivots, start))
        # Pivot each leftover artificial out of the basis on the lowest
        # numbered non-artificial column with a nonzero entry, if any.
        for i in range(m):
            if basis[i] >= art0:
                row = zip(nonbasic, tab.row(i))  # stops before the rhs entry
                cands = [(v, k) for k, (v, a) in enumerate(row) if v < art0 and abs(a) > tol]
                cands = [(min(v, twin.get(v, v)), k) for v, k in cands]
                if cands:
                    v, k = min(cands)
                    tab.orient(v, k)
                    tab.pivot(i, k)

    phase1 = tab.pivots
    if _run_simplex(tab, m, art0, tol) == UNBOUNDED:
        return LpOutcome(UNBOUNDED, stats=_stats(tab, phase1, start))

    rhs, nums = tab.rhs, [cell(0)] * nvars
    for i, b in enumerate(basis):
        if b < ns:
            j, s = struct[b]
            nums[j] += s * rhs[i]
    primal = tuple(Fraction(v, tab.den) for v in nums) if exact else tuple(nums)  # exact: integers over den
    value = Fraction(tab.row(m)[-1], tab.den * k_obj) if exact else float(dot(costs, primal))  # dot of no entries is the int 0
    return LpOutcome(OPTIMAL, primal=primal, objective_value=value, stats=_stats(tab, phase1, start))
