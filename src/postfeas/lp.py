"""Dense linear programming core.

Problems are stated as: maximize c'x subject to row constraints with
senses <=, >=, = and box bounds on x (either side may be infinite).
The solver is a bounded-variable simplex on a kept dense tableau
B^-1 A and its reduced-cost row, so a pivot is one rank-1 update and
pricing and the ratio tests read a row or a column.  It starts every
program at its row logicals: a dual simplex on shifted costs reaches a
feasible basis, and a primal simplex (Dantzig pricing, Bland's rule as
the anti-cycling fallback) reaches the optimum.  One row-generation loop
on top of it serves every program with more rows than it needs at the
optimum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _reader as rd
from .errors import (
    DimensionMismatch,
    DomainError,
    MaxRoundsExceeded,
    NumericalBreakdown,
)

__all__ = [
    "SENSES",
    "LpProblem",
    "LpSolution",
    "solve_lp",
    "RhsSequence",
    "CutLog",
    "solve_cutting_planes",
    "max_violation",
    "problem_from_json",
    "solution_to_json",
    "solution_from_json",
]

SENSES = ("<=", ">=", "=")

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

# Consecutive degenerate pivots before switching to Bland's rule.
_K_DEGENERATE = 50

# Feasibility tolerance, relative to max(1, |rhs|).
FEAS_TOL = 1e-8
# Smallest pivot magnitude the ratio test and the basis updates accept.
_PIVOT_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _constraint_arrays(constraints, n: int):
    """Rows (k, n), senses and rhs (k,) of (row, sense, rhs) triples.

    An item that is not such a triple, an rhs that is not a number and
    a row that is not n numbers raise DomainError, or DimensionMismatch
    for a row of another shape.  The rows are stacked and checked as one
    array; only when that fails is each row checked, to name the first
    bad one.
    """
    rows, senses, rhs = [], [], []
    for i, item in enumerate(constraints):
        try:
            row, sense, value = item
        except (TypeError, ValueError):
            raise DomainError(
                f"constraint {i} is not a (row, sense, rhs) triple") from None
        if sense not in SENSES:
            raise DomainError(f"sense must be one of {SENSES}, got {sense!r}")
        try:
            rhs.append(float(value))
        except (TypeError, ValueError, OverflowError):
            raise DomainError(
                f"constraint {i}: rhs must be a number, got {value!r}") from None
        rows.append(row)
        senses.append(sense)
    if not rows:
        return np.zeros((0, n)), (), np.zeros(0)
    try:
        stacked = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        stacked = None
    if stacked is None or stacked.shape != (len(rows), n):
        stacked = np.array([_constraint_row(i, row, n) for i, row in enumerate(rows)])
    return stacked, tuple(senses), np.array(rhs)


def _constraint_row(i: int, row, n: int) -> np.ndarray:
    """Constraint i's row as n floats."""
    try:
        row = np.asarray(row, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"constraint {i}: row must be numbers, got {row!r}") from None
    if row.shape != (n,):
        raise DimensionMismatch(f"constraint row has shape {row.shape}, expected ({n},)")
    return row


def _peak(a: np.ndarray) -> float:
    """The largest entry of a, NaN if a holds one, -inf if a is empty.

    Found by argmax, which on the short arrays of a simplex costs a
    fraction of a max reduction.
    """
    a = a.ravel()
    return float(a[a.argmax()]) if a.size else -math.inf


def _tolerance(a: np.ndarray) -> float:
    """1e-9 relative to max(1, |a|)."""
    return 1e-9 * max(1.0, _peak(np.abs(a)))


def _check_finite(*arrays: np.ndarray):
    for a in arrays:
        # False for an inf, and for a NaN, which the peak then is
        if not _peak(np.abs(a)) < math.inf:
            break
    else:
        return
    if any(np.isnan(a).any() for a in arrays):
        raise DomainError("objective, rows, and rhs must be free of NaN")
    raise DomainError("objective, rows, and rhs must be finite")


# Row i's residual r = rows[i] @ x - rhs[i] is violated by
# max(signs[i, 0] * r, signs[i, 1] * r), which is r, -r or |r|.
_VIOLATION_SIGNS = {"<=": (1.0, 1.0), ">=": (-1.0, -1.0), "=": (1.0, -1.0)}


class LpProblem:
    """Immutable LP: maximize objective'x under row constraints and bounds.

    constraints: iterable of (row, sense, rhs) with sense in {"<=", ">=", "="}.
    bounds: one (lo, hi) pair per variable; None means unbounded on that side.
    """

    __slots__ = ("objective", "rows", "senses", "rhs", "lower", "upper",
                 "_signs")

    def __init__(self, objective, constraints, bounds):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise DimensionMismatch("objective must be a nonempty vector")
        n = c.size
        rows, senses, rhs = _constraint_arrays(constraints, n)
        bounds = list(bounds)
        if len(bounds) != n:
            raise DimensionMismatch(f"expected {n} bound pairs, got {len(bounds)}")
        lower = np.empty(n)
        upper = np.empty(n)
        for j, (lo, hi) in enumerate(bounds):
            lower[j] = -math.inf if lo is None else float(lo)
            upper[j] = math.inf if hi is None else float(hi)
        _check_finite(c, rows, rhs)
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise DomainError("bounds must not be NaN")
        if (lower == math.inf).any() or (upper == -math.inf).any():
            raise DomainError("lower bounds must be below +inf, upper bounds above -inf")
        if np.any(lower > upper):
            raise DomainError("each lower bound must be <= its upper bound")
        self.objective = _readonly(c)
        self.rows = _readonly(rows)
        self.senses = senses
        self.rhs = _readonly(rhs)
        self.lower = _readonly(lower)
        self.upper = _readonly(upper)
        self._signs = _readonly(np.array(
            [_VIOLATION_SIGNS[s] for s in senses], dtype=float).reshape(-1, 2))

    @property
    def n(self) -> int:
        return self.objective.size

    @property
    def m(self) -> int:
        return self.rhs.size

    def constraints(self):
        """Constraint triples (row, sense, rhs) as a list."""
        return [
            (self.rows[i].copy(), self.senses[i], float(self.rhs[i]))
            for i in range(self.m)
        ]

    def bounds(self):
        return [(float(self.lower[j]), float(self.upper[j])) for j in range(self.n)]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    x: np.ndarray | None
    objective_value: float | None
    iterations: int


def max_violation(problem: LpProblem, x) -> float:
    """Largest constraint or bound violation of x (0 when feasible).

    inf when x or a residual is NaN, so a NaN never reads as feasible.
    An infinite bound is never violated.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({problem.n},)")
    with np.errstate(invalid="ignore"):
        return _violation(x, problem.rows, problem.rhs, problem._signs,
                          problem.lower, problem.upper)


def _violation(x, rows, rhs, signs, lower, upper) -> float:
    """max_violation of x for rows with their rhs and violation signs
    and the box [lower, upper].

    Callers ignore invalid operations: an infinite x gives NaN from
    0 * inf in a row and from inf - inf against an infinite bound of its
    own sign; fmax drops the latter.
    """
    box_worst = _peak(np.fmax(lower - x, x - upper))
    if math.isnan(box_worst):
        return math.inf
    return max(_row_violation(x, rows, rhs, signs), box_worst)


def _row_violation(x, rows, rhs, signs) -> float:
    """The largest violation of x of rows with their rhs and violation
    signs (0 when there is none), inf when a residual is NaN.  Callers
    ignore invalid operations, as for _violation."""
    worst = _peak((rows @ x - rhs)[:, np.newaxis] * signs)
    if math.isnan(worst):
        return math.inf
    return worst if worst > 0.0 else 0.0


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def problem_from_json(text: str) -> LpProblem:
    doc = rd.obj(rd.load(text, "problem"), "problem",
                 ("maximize", "constraints", "bounds"))
    c = rd.array(doc["maximize"], "problem.maximize")
    constraints = []
    # a bounds-only LP has no constraints
    for path, con in rd.entries(doc["constraints"], "problem.constraints",
                                allow_empty=True):
        rd.obj(con, path, ("row", "sense", "rhs"))
        constraints.append((rd.array(con["row"], f"{path}.row", c.shape),
                            rd.one_of(con["sense"], f"{path}.sense", SENSES),
                            rd.number(con["rhs"], f"{path}.rhs")))
    bounds = [[None if v is None else rd.number(v, where)
               for where, v in rd.entries(pair, path, 2)]
              for path, pair in rd.entries(doc["bounds"], "problem.bounds", c.size)]
    return LpProblem(c, constraints, bounds)


def solution_to_json(sol: LpSolution) -> str:
    doc = {
        "status": sol.status,
        "x": None if sol.x is None else np.asarray(sol.x).tolist(),
        # a hand-built non-Optimal solution may carry NaN, which JSON and
        # solution_from_json reject
        "objective_value": sol.objective_value if sol.status == "Optimal" else None,
        "iterations": sol.iterations,
    }
    return json.dumps(doc)


def solution_from_json(text: str) -> LpSolution:
    doc = rd.obj(rd.load(text, "solution"), "solution",
                 ("status", "x", "objective_value", "iterations"))
    x, value = doc["x"], doc["objective_value"]
    return LpSolution(
        rd.one_of(doc["status"], "solution.status",
                  ("Optimal", "Infeasible", "Unbounded")),
        None if x is None else rd.array(x, "solution.x"),
        None if value is None else rd.number(value, "solution.objective_value"),
        rd.number(doc["iterations"], "solution.iterations", integer=True))


# ---------------------------------------------------------------------------
# Bounded-variable revised simplex
# ---------------------------------------------------------------------------


# A column's kind, a multiple of 3 so that kind + status indexes the
# tables below: a column with room between its bounds (at least one of
# them finite), a fixed column (lower bound = upper bound) and a free
# column.
_ROOM = 0
_FIXED = 3
_FREE = 6

# By kind + status (at lower, at upper, basic): 1.0 where a nonbasic
# column may rise from where it stands, and where it may fall.  A free
# column may do both, a fixed or basic one neither.
_RISES = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
_FALLS = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
# By sense: a row's violation signs, then the coefficient, upper bound
# and kind of its logical.
_ROW_ENTRIES = {sense: (*_VIOLATION_SIGNS[sense], *logical) for sense, logical in (
    ("<=", (1.0, math.inf, _ROOM)), (">=", (-1.0, math.inf, _ROOM)),
    ("=", (1.0, 0.0, _FIXED)))}


# Rows the simplex's buffers hold at first, unless its problem has
# more; they double when an append fills them.
_INITIAL_CAPACITY = 16

# The per-row and per-column vectors of the workspace share buffers, one
# vector a row: rhs, xb, lower_b and upper_b in _rowvals; c, lower,
# upper, at_bound, rises and falls in _cols; kind and status in _codes.
# Each buffer's entries beyond those in use hold what a "<=" row and its
# logical column take when appended: the logical costs nothing, has
# bounds [0, inf) and room above 0, and enters basic.
_ROW_FILL = np.array([[0.0], [0.0], [0.0], [math.inf]])
_COLUMN_FILL = np.array([[0.0], [0.0], [math.inf], [0.0], [0.0], [0.0]])
_CODE_FILL = np.array([[_ROOM], [_BASIC]], dtype=np.int8)


class _BoundedSimplex:
    """Bounded-variable simplex on the kept tableau of one LpProblem's
    logical form.  Maximizes.  Mutable workspace; one instance per solve.

    Columns j < n are the problem's variables, each between its own
    bounds lower[j] and upper[j] (Maros 2003, Computational Techniques of
    the Simplex Method), so x is z[:n], with no change of variables.  A
    nonbasic column stands at its lower or its upper bound: it starts at
    its lower bound, at its upper bound when that is its only finite
    one, and at 0 when it is free.  Each row then gains one logical
    column: +1 in [0, inf) for "<=", -1 in [0, inf) for ">=" and +1 in
    [0, 0] for "=".  A row enters with its logical basic, so a fresh
    instance is every row appended to an empty basis, and rows appended
    later (append_rows) are added the same way.

    problem, the LpProblem the simplex was built from, is never replaced:
    its objective and box are the solve's, and rows appended and rhs
    replaced since live in the workspace alone.

    The workspace grows in place.  table (d above T), xb, basis, the
    column data and the rows' rhs and violation signs are leading views
    of buffers with spare rows and columns, which double when an append
    fills them; A, the one copy of the rows, is sliced from its buffer
    when read, and rows, its structural block A[:m, :n], is what
    solution()'s residual check reads.  The spare entries already hold a
    "<=" row's logical, its coefficient 1 in A and its 1 in T included,
    so an append writes only its rows' own entries, and those of a
    logical of another sense, and rebinds the views; every other update
    writes through them.  So does the upkeep of what pricing and the
    ratio tests read: rises and falls (1.0 where a column may rise, or
    fall, from where it stands) and at_bound (the value a nonbasic column
    stands at, 0 for a basic one) follow status through _set_status, and
    the basic variables' bounds lower_b and upper_b follow basis through
    _pivot.  The tolerances an append can only raise are running maxima:
    rhs_peak (max |rhs|, for run_dual and solution()) and cost_tol, which
    zero-cost logicals never change.

    The tableau T = B^-1 A, the basic values xb and the reduced costs
    d = costs - costs_B T are kept up to date, where costs are the true
    costs c, or the shifted ones while solve() runs its dual simplex on
    them.  Pricing reads d, the dual ratio test reads the row T[r] and
    the primal one the column T[:, q].  d is kept as the row above T,
    so a pivot is one rank-1 update of both; an append writes the new
    rows of T alone (_add_rows), and a bound flip moves xb alone.  B^-1
    is T's logical columns up to their signs.  T, xb and d are rebuilt
    from A (_refactor) only after 128 pivots, on a pivot below
    _PIVOT_TOL, and once when solution()'s residual check fails after
    pivots.
    """

    def __init__(self, problem: LpProblem):
        n = problem.n
        lower, upper = problem.lower, problem.upper
        free = np.isinf(lower) & np.isinf(upper)
        upper_only = np.isinf(lower) & ~free
        kind = np.where(free, _FREE, np.where(lower == upper, _FIXED, _ROOM))
        status = np.where(upper_only, _AT_UPPER, _AT_LOWER)
        code = kind + status
        c = problem.objective  # logicals cost nothing
        self.problem = problem
        self.n = n
        # the workspace of no rows, which _grow moves into its buffers:
        # d above an empty T (at the logical basis y = 0, so d = c), and
        # the columns where they start
        self._capacity = 0
        self._A = np.zeros((0, n))
        self._T = c[np.newaxis]
        self._signs = np.zeros((0, 2))
        self._rowvals = np.zeros((4, 0))
        self._basis = np.zeros(0, dtype=np.intp)
        self._cols = np.array([c, lower, upper,
                               np.where(upper_only, upper, np.where(free, 0.0, lower)),
                               _RISES.take(code), _FALLS.take(code)])
        self._codes = np.array([kind, status], dtype=np.int8)
        self._grow(max(problem.m, _INITIAL_CAPACITY))
        self.cost_tol = _tolerance(c)
        self.rhs_peak = -math.inf
        self.m = 0
        self._bind_views()
        self._z = None
        self.optimal = False
        self.pivots_since_refactor = 0
        self.iterations = 0
        if problem.m:
            self._add_rows(problem.rows, problem.senses, problem.rhs)

    # -- rows and linear algebra upkeep -----------------------------------

    def append_rows(self, constraints):
        """Append (row, sense, rhs) triples, each with a basic logical.

        The rows are validated as LpProblem validates its constraints
        before anything is written, and only they are written to the
        workspace (_add_rows).  The logicals cost nothing, so the reduced
        costs, and with them dual feasibility, are unchanged; only the
        new basic values can leave their bounds.
        """
        self._add_rows(*_constraint_arrays(constraints, self.n))

    def replace_rhs(self, rhs):
        """Put rhs in place of the rows' right-hand sides, checked as
        LpProblem checks its rhs before anything is written.

        The basis, the tableau and the reduced costs stay, so a basis
        that was optimal is still dual feasible; only the basic values
        move, read through B^-1 in T's logical columns.  The iteration
        count restarts at 0.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.m,):
            raise DimensionMismatch(f"rhs has shape {rhs.shape}, expected ({self.m},)")
        _check_finite(rhs)
        self.rhs[:] = rhs
        self.rhs_peak = _peak(np.abs(self.rhs))
        self.iterations = 0
        self.xb[:] = self._basic_values()
        self._z = None

    def _add_rows(self, rows: np.ndarray, senses: tuple, rhs: np.ndarray):
        """Append rows, each with a basic logical column, without an
        inversion, writing only the new rows into the buffers.  Raises
        DomainError, before anything is written, when a row or rhs is
        not finite.

        With the new rows' entries F in the old columns, F_B in the basic
        ones, and their logicals' coefficients D = diag(+-1) = D^-1, the
        new basis is [[B, 0], [F_B, D]], whose inverse is
        [[B^-1, 0], [-D F_B B^-1, D]].  So the new rows of T are
        D (F - F_B T) in the old columns and the identity in the new
        logical ones, and their basic values are D (rhs - F z), with z
        the current values of the old columns (those extract() kept, when
        it read them at this basis).  On an empty basis this is exactly
        T = D F and xb = D (rhs - F z), z the columns' starting values.
        The new logicals cost nothing and are basic, so d is unchanged
        and their entries of it are 0.

        The buffers' spare entries already hold the rest of a "<=" row
        (_grow): zeros where the new rows meet the old logical columns
        and the old rows the new ones, and for the new logicals' costs,
        reduced costs, lower bounds, rises and falls; D = 1 and T's
        identity; the violation signs (1, 1); and each logical's upper
        bound inf, kind, basic status and basis entry.  So only a row of
        another sense writes its D, signs, upper bound and kind.
        """
        m, k = self.m, len(senses)
        end = m + k
        n = self.n
        width = n + m
        rhs_peak = _peak(np.abs(rhs))
        if not (rhs_peak < math.inf and _peak(np.abs(rows)) < math.inf):
            _check_finite(rows, rhs)
        if end > self._capacity:
            self._grow(max(end, 2 * self._capacity))
        f = self._A[m:end, :width]
        f[:, :n] = rows
        t_new = self._T[m + 1:end + 1, :width]  # below d
        np.subtract(f, np.einsum("ij,jk->ik", f.take(self.basis, axis=1), self.T),
                    out=t_new)
        z = self._values() if self._z is None else self._z
        self.m = end
        self._bind_views()
        xb_new = self.xb[m:]
        np.subtract(rhs, np.einsum("ij,j->i", f, z), out=xb_new)
        if senses.count("<=") < k:
            entries = np.array([_ROW_ENTRIES[s] for s in senses],
                               dtype=float).reshape(k, 5)
            coef, upper = entries[:, 2], entries[:, 3]
            self._A[m:end, width:width + k].flat[::k + 1] = coef
            t_new *= coef[:, np.newaxis]
            xb_new *= coef
            self.signs[m:] = entries[:, :2]
            self.upper_b[m:] = upper
            self.upper[width:] = upper
            self.kind[width:] = entries[:, 4]
        self.rhs[m:] = rhs
        self.rhs_peak = max(self.rhs_peak, rhs_peak)
        self._z = None

    @property
    def A(self) -> np.ndarray:
        """The logical form's rows, [rows | D]."""
        return self._A[:self.m, :self.n + self.m]

    def _bind_views(self):
        """Point the workspace's names at the leading m rows and n + m
        columns of the buffers."""
        m, n = self.m, self.n
        width = n + m
        rowvals, cols, codes = self._rowvals, self._cols, self._codes
        self.table = self._T[:m + 1, :width]
        self.d = self.table[0]
        self.T = self.table[1:]
        self.rows = self._A[:m, :n]
        self.signs = self._signs[:m]
        self.basis = self._basis[:m]
        self.rhs = rowvals[0, :m]
        self.xb = rowvals[1, :m]
        self.lower_b = rowvals[2, :m]
        self.upper_b = rowvals[3, :m]
        self.c = cols[0, :width]
        self.lower = cols[1, :width]
        self.upper = cols[2, :width]
        self.at_bound = cols[3, :width]
        self.rises = cols[4, :width]
        self.falls = cols[5, :width]
        self.kind = codes[0, :width]
        self.status = codes[1, :width]
        self.max_iterations = 2000 + 200 * (width + m)

    def _grow(self, capacity: int):
        """Move each buffer into one for capacity rows (and their
        logical columns), keeping its entries; the entries beyond them
        hold a "<=" row's and its logical's, as _add_rows finds them."""
        n = self.n
        width = n + capacity
        A = np.zeros((capacity, width))
        A.reshape(-1)[n::width + 1] = 1.0  # A[i, n + i], the logicals' 1
        table = np.zeros((capacity + 1, width))
        table.reshape(-1)[width + n::width + 1] = 1.0  # T's identity below d
        grown = {
            "_A": A,
            "_T": table,
            "_signs": np.ones((capacity, 2)),
            "_rowvals": np.full((4, capacity), _ROW_FILL),
            "_basis": np.arange(n, width),
            "_cols": np.full((6, width), _COLUMN_FILL),
            "_codes": np.full((2, width), _CODE_FILL, dtype=np.int8),
        }
        for name, buffer in grown.items():
            old = getattr(self, name)
            buffer[tuple(map(slice, old.shape))] = old
            setattr(self, name, buffer)
        self._capacity = capacity

    def _values(self) -> np.ndarray:
        """z: each column's value, where it stands when nonbasic."""
        z = self.at_bound.copy()
        z[self.basis] = self.xb
        return z

    def _nonbasic_rhs(self) -> np.ndarray:
        """rhs minus the contribution of the columns that stand at a
        nonzero bound (rhs itself when there are none; callers do not
        write to it)."""
        stands = self.at_bound != 0.0
        if not stands.any():
            return self.rhs
        return self.rhs - np.einsum("ij,j->i", self.A[:, stands], self.at_bound[stands])

    def _basic_values(self) -> np.ndarray:
        """B^-1 times _nonbasic_rhs(), with B^-1 read from T's logical
        columns: row i's logical column is A[i, n + i] e_i, and that
        entry is +-1, so B^-1[:, i] = A[i, n + i] T[:, n + i]."""
        n = self.n
        logical = self.A[:, n:].diagonal()
        return np.einsum("ij,j->i", self.T[:, n:], logical * self._nonbasic_rhs())

    def _price(self, costs: np.ndarray):
        """d = costs - costs_B T afresh; NumericalBreakdown when an entry
        overflows."""
        self.optimal = False
        try:
            with np.errstate(over="raise", invalid="raise"):
                self.d[:] = costs - np.einsum("i,ij->j", costs[self.basis], self.T)
        except FloatingPointError as exc:
            raise NumericalBreakdown("reduced costs are not finite") from exc

    def _refactor(self, costs: np.ndarray):
        """Invert A[:, basis] afresh and rebuild T, xb and d, the reduced
        costs of costs, from it: after 128 pivots, on a pivot too small
        to trust, and when solution()'s residual check fails after
        pivots."""
        try:
            inverse = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("basis matrix is singular") from exc
        self.T[:] = inverse @ self.A
        self.xb[:] = self._basic_values()
        self._z = None
        self._price(costs)
        self.pivots_since_refactor = 0

    def _pivot(self, r: int, j: int, col: np.ndarray):
        """Column j enters at basis row r; col is a copy of table[:, j],
        d[j] above T[:, j].

        One rank-1 update of the table: the pivot row of T is scaled, and
        its multiples are taken from the other rows and from d, which
        zeroes d[j].  NumericalBreakdown when an entry overflows.  The
        caller has already moved xb and the leaving variable's status.
        """
        # _set_status(j, _BASIC): a basic column moves neither way
        self.status[j] = _BASIC
        self._z = None
        self.rises[j] = self.falls[j] = self.at_bound[j] = 0.0
        self.basis[r] = j
        self.lower_b[r] = self.lower[j]
        self.upper_b[r] = self.upper[j]
        table = self.table
        try:
            with np.errstate(over="raise", invalid="raise"):
                row = table[r + 1] / col[r + 1]
                table -= col[:, np.newaxis] * row
        except FloatingPointError as exc:
            raise NumericalBreakdown(
                "a reduced cost or tableau entry is not finite") from exc
        table[r + 1] = row
        self.pivots_since_refactor += 1

    def _cost_tolerance(self, costs: np.ndarray) -> float:
        """_tolerance(costs), read from cost_tol for the true costs."""
        return self.cost_tol if costs is self.c else _tolerance(costs)

    def _set_status(self, j: int, status: int):
        """Nonbasic column j now stands at status, at its lower or its
        upper bound; rises, falls and at_bound follow it.  A free column
        never flips or leaves the basis: its room is infinite both ways."""
        self.status[j] = status
        self._z = None
        self.at_bound[j] = self.upper[j] if status == _AT_UPPER else self.lower[j]
        code = self.kind[j] + status
        self.rises[j] = _RISES[code]
        self.falls[j] = _FALLS[code]

    def _gains(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(up, gain) for the reduced costs d: up is d where a column may
        rise and a signed zero elsewhere; gain is the larger of up and of
        -d where the column may fall.  So gain > 0 exactly where moving a
        column the way it may move raises c'z, and is then that rate."""
        up = self.rises * d
        return up, np.maximum(up, self.falls * -d)

    # -- entry ----------------------------------------------------------------

    def solve(self) -> str:
        """"Optimal", "Infeasible" or "Unbounded" from the current basis.

        Nonbasic columns whose reduced cost has the wrong sign for their
        bound get their cost shifted until it is zero, which makes the
        basis dual feasible (cost modification; Koberstein 2005, The dual
        simplex method, ch. 4).  The dual simplex on those costs reaches
        a primal feasible basis or proves the rows infeasible, and the
        primal simplex on the true costs then undoes the shift.  At a
        fresh start y = 0, so d = c; after append_rows or replace_rhs the
        last optimal basis is still dual feasible and needs no shift.
        The kept d prices the shifted costs through the dual simplex and
        is priced afresh for the true costs after it.
        """
        c, d = self.c, self.d
        # an optimal d needs no shift: the primal simplex found no gain
        # above cost_tol in it, and appends and new rhs keep it
        shift = None if self.optimal else self._gains(d)[1] > self.cost_tol
        self.optimal = False
        if shift is None or not shift.any():
            feasible = self.run_dual(c)
        else:
            # the shifted costs' reduced costs are d, zeroed where shifted
            costs = np.where(shift, c - d, c)
            d[shift] = 0.0
            try:
                feasible = self.run_dual(costs)
            finally:
                self._price(c)
        if not feasible:
            return "Infeasible"
        status = self.run_phase(c)
        self.optimal = status == "Optimal"
        return status

    # -- primal simplex -----------------------------------------------------

    def run_phase(self, c: np.ndarray) -> str:
        """Primal simplex from a primal feasible basis, for the costs c.

        Returns "Optimal" or "Unbounded".  Raises NumericalBreakdown on
        irrecoverable pivots or iteration explosion.
        """
        price_tol = self._cost_tolerance(c)
        bland = False
        degenerate_streak = 0
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown("simplex iteration limit exceeded")
            up, gain = self._gains(self.d)
            improving = gain > price_tol
            j = int(improving.argmax())
            if not improving[j]:
                return "Optimal"
            if not bland:
                j = int(np.where(improving, gain, 0.0).argmax())
            direction = 1.0 if up[j] > price_tol else -1.0
            col = self.table[:, j].copy()
            w = col[1:]
            # inf for a column with an infinite bound
            flip_step = self.upper[j] - self.lower[j]
            basic_step = math.inf  # with no rows, a bound flip or a ray
            if self.m:
                g = direction * w
                mag = np.abs(w)
                # room of each basic variable before the bound it moves to
                room = np.where(g > 0.0, self.xb - self.lower_b,
                                self.upper_b - self.xb)
                cand_step = np.maximum(
                    np.where(mag > _PIVOT_TOL, room, math.inf)
                    / np.maximum(mag, _PIVOT_TOL), 0.0)
                basic_step = cand_step[cand_step.argmin()]
            step = min(basic_step, flip_step)
            if not math.isfinite(step):
                return "Unbounded"
            if step <= 1e-11:
                degenerate_streak += 1
                if degenerate_streak >= _K_DEGENERATE:
                    bland = True
            else:
                degenerate_streak = 0
                if bland and step > 1e-9:
                    bland = False
            if flip_step <= basic_step:
                # the entering variable runs to its opposite bound
                self.xb -= direction * step * w
                self._set_status(
                    j, _AT_UPPER if self.status[j] == _AT_LOWER else _AT_LOWER)
                continue
            ties = cand_step <= step + 1e-12
            if bland:
                ties = ties.nonzero()[0]
                r = int(ties[np.argmin(self.basis[ties])])
            else:
                r = int(np.where(ties, mag, -1.0).argmax())
            pivot = w[r]
            if abs(pivot) < _PIVOT_TOL:
                if self.pivots_since_refactor > 0:
                    self._refactor(c)
                    continue
                raise NumericalBreakdown(
                    f"pivot magnitude {abs(pivot):.3e} below tolerance"
                )
            leaving = int(self.basis[r])
            enter_from = self.at_bound[j]
            self.xb -= direction * step * w
            self.xb[r] = enter_from + direction * step
            self._set_status(leaving, _AT_UPPER if g[r] < 0 else _AT_LOWER)
            self._pivot(r, j, col)
            if self.pivots_since_refactor >= 128:
                self._refactor(c)

    # -- dual simplex ---------------------------------------------------------

    def run_dual(self, costs: np.ndarray) -> bool:
        """Bounded dual simplex from a basis dual feasible for costs.

        Each pivot takes the basic variable farthest outside its bounds
        to the bound it violates, and picks the entering column by a
        two-pass (Harris) ratio test that keeps the reduced costs of
        their bound's sign.  True once every basic variable is within
        its bounds; False when the leaving row has no entering column,
        which proves the rows infeasible whatever the costs (Koberstein
        2005).
        """
        if not self.m:
            return True
        primal_tol = 1e-9 * max(1.0, self.rhs_peak)
        dual_tol = self._cost_tolerance(costs)
        table, T, d, xb = self.table, self.T, self.d, self.xb
        lower_b, upper_b = self.lower_b, self.upper_b
        rises, falls = self.rises, self.falls
        while True:
            below = lower_b - xb
            excess = np.maximum(below, xb - upper_b)
            r = int(excess.argmax())
            if excess[r] <= primal_tol:
                return True
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown("simplex iteration limit exceeded")
            # rise = +1: x_B[r] must rise to its lower bound
            rise = 1.0 if below[r] > 0.0 else -1.0
            # moving column j by t moves x_B[r] by -T[r, j] * t: |T[r, j]|
            # where that takes x_B[r] towards its bound, 0 or less elsewhere
            s_alpha = T[r] if rise > 0.0 else -T[r]
            toward = np.maximum(rises * -s_alpha, falls * s_alpha)
            cand = (toward > _PIVOT_TOL).nonzero()[0]
            if not cand.size:
                if self.pivots_since_refactor > 0:
                    self._refactor(costs)
                    continue
                return False
            # distance of each reduced cost from the wrong sign
            room = np.maximum((falls - rises) * d, 0.0)[cand]
            mag = toward[cand]
            ratio = (room + dual_tol) / mag
            bound = ratio[ratio.argmin()]
            # the largest |T[r, q]| among ratios within the bound (0 outside)
            q = int(cand[((room / mag <= bound) * mag).argmax()])
            col = table[:, q].copy()
            w = col[1:]
            if abs(w[r]) < _PIVOT_TOL:
                if self.pivots_since_refactor > 0:
                    self._refactor(costs)
                    continue
                raise NumericalBreakdown(
                    f"pivot magnitude {abs(w[r]):.3e} below tolerance"
                )
            leaving = int(self.basis[r])
            target = lower_b[r] if rise > 0.0 else upper_b[r]
            t = (xb[r] - target) / w[r]
            enter_from = self.at_bound[q]
            xb -= t * w
            xb[r] = enter_from + t
            self._set_status(leaving, _AT_LOWER if rise > 0.0 else _AT_UPPER)
            self._pivot(r, q, col)
            if self.pivots_since_refactor >= 128:
                self._refactor(costs)

    def extract(self) -> np.ndarray:
        """x, the values of the problem's columns z[:n], read from the
        maintained basic values, with any -0.0 read as 0.0.  The column
        values it reads are kept as _z, which every status change, pivot,
        refactor, new rhs and append drops, so that an append at this
        basis reuses them."""
        self._z = z = self._values()
        return z[:self.n] + 0.0

    def result(self, status: str) -> LpSolution:
        """solution() when status is "Optimal", else status with no x."""
        if status != "Optimal":
            return LpSolution(status, None, None, self.iterations)
        return self.solution()

    def solution(self) -> LpSolution:
        """The Optimal solution at the current basis.

        x is clipped to the box and must meet every row to
        10 * FEAS_TOL * max(1, |rhs|).  If it does not and a pivot has
        touched the tableau since its last refactor, the basis is
        refactored once and x read again.  Raises NumericalBreakdown when
        x still misses a row, and when x or the objective is not finite.
        """
        problem = self.problem
        limit = 10.0 * FEAS_TOL * max(1.0, self.rhs_peak)
        while True:
            # clean tiny drift against the original box
            x = np.minimum(np.maximum(self.extract(), problem.lower), problem.upper)
            with np.errstate(over="ignore", invalid="ignore"):
                # x is clipped to its box, so only a row can miss; a NaN
                # in x reads NaN in every row, and in the objective
                resid = _row_violation(x, self.rows, self.rhs, self.signs)
                value = float(problem.objective @ x)
            if resid <= limit or not self.pivots_since_refactor:
                break
            self._refactor(self.c)  # at most once: it zeroes pivots_since_refactor
        if resid > limit:
            raise NumericalBreakdown(
                f"solution residual {resid:.3e} exceeds feasibility tolerance"
            )
        # an infinite or NaN entry of x makes the objective inf or NaN
        if not math.isfinite(value):
            raise NumericalBreakdown(f"optimum is not finite (objective {value!r})")
        x.setflags(write=False)  # x is a fresh array
        return LpSolution("Optimal", x, value, self.iterations)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP with the bounded-variable simplex from its logical
    basis, in the problem's own variables, each between its own bounds:
    a dual simplex reaches feasibility and a primal simplex optimality
    (_BoundedSimplex.solve).

    Deterministic for a fixed BLAS thread count: identical problems then
    produce identical solutions, pivot for pivot.  Pricing, the ratio
    tests and the tableau updates use no BLAS, but a refactor inverts
    the basis with LAPACK and forms B^-1 A with BLAS, which can round
    differently with another thread count and so take another pivot path
    after it.  x is read from the basic values the pivots maintain, and
    the tableau is rebuilt only every 128 pivots, so its last digits
    follow the pivot path.  An Optimal x is clipped to the box and must
    meet every row to 10 * FEAS_TOL * max(1, |rhs|), after one refactor
    if need be.  Raises NumericalBreakdown when pivoting degrades beyond
    recovery, when a reduced cost overflows, and when the optimum's
    objective or x is not finite.
    """
    solver = _BoundedSimplex(problem)
    return solver.result(solver.solve())


class RhsSequence:
    """LPs that share problem's objective, rows, senses and box and
    differ only in the rows' right-hand sides, solved one after another.

    problem's own rhs is not solved.  One simplex, built from problem at
    its logical basis, serves every solve(rhs): rhs goes in through
    _BoundedSimplex.replace_rhs and the solve enters through
    _BoundedSimplex.solve, so the first solve is the one solve_lp makes.
    For a later one the costs are unchanged, so a basis that was optimal
    is still dual feasible and needs no cost shift, and the bounded dual
    simplex restores primal feasibility (Koberstein 2005, The dual
    simplex method); the new basic values are read through B^-1 in the
    kept tableau's logical columns, with no inversion.  A bad rhs raises before the
    simplex is touched; a solve that raises discards it, so the next
    solve starts again from the logicals.  An LpSolution's iterations
    count that solve's pivots only.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self._solver: _BoundedSimplex | None = None

    def solve(self, rhs) -> LpSolution:
        solver = self._solver
        if solver is None:
            solver = _BoundedSimplex(self.problem)
        solver.replace_rhs(rhs)
        self._solver = None
        sol = solver.result(solver.solve())
        self._solver = solver
        return sol


# ---------------------------------------------------------------------------
# Row generation
# ---------------------------------------------------------------------------


@dataclass
class CutLog:
    """Rows added after each solved relaxation of a row-generation solve.

    rounds counts the relaxations solved, including a final non-Optimal
    one; final_max_support is the largest violation the last separate()
    call reported (inf when there was none).
    """

    rounds: int
    cuts_per_round: list[int]
    final_max_support: float

    @property
    def total_cuts(self) -> int:
        return sum(self.cuts_per_round)


def solve_cutting_planes(
    base: LpProblem,
    separate: Callable[[np.ndarray | None], tuple[list, float]],
    max_rounds: int,
) -> tuple[LpSolution, CutLog]:
    """Row generation (Kelley 1960): solve, add violated rows, repeat.

    Each round solves base plus every row added so far.  separate(x)
    returns the (row, sense, rhs) rows to add at the incumbent x and the
    largest violation it saw; the loop ends when it returns no rows.  An
    Unbounded relaxation has no incumbent, so separate(None) is called:
    its rows re-enter the loop like any others, and the relaxation is
    returned only when it gives none.  One simplex serves every round
    through one entry, _BoundedSimplex.solve: a round writes only its
    new rows into the simplex's workspace, which grows in place.  After
    rows are appended at an optimal basis, that basis is still dual
    feasible, so it needs no cost shift: the bounded dual simplex
    re-enters it and the primal simplex confirms it (Koberstein 2005,
    The dual simplex method, techniques for a fast and stable
    implementation).  An Infeasible relaxation is returned as is;
    iterations is the total over all rounds.  Appended rows are
    validated as LpProblem validates its constraints.  Raises
    DomainError when max_rounds < 1 and MaxRoundsExceeded after
    max_rounds solves.
    """
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be >= 1, got {max_rounds}")
    solver = _BoundedSimplex(base)
    status = solver.solve()
    cuts_per_round: list[int] = []
    last_max = math.inf
    while status != "Infeasible":
        sol = solver.result(status)
        rows, last_max = separate(sol.x)
        cuts_per_round.append(len(rows))
        if not rows:
            return sol, CutLog(len(cuts_per_round), cuts_per_round, last_max)
        if len(cuts_per_round) == max_rounds:
            raise MaxRoundsExceeded(
                f"row generation did not converge in {max_rounds} rounds "
                f"(max violation {last_max:.3e})"
            )
        solver.append_rows(rows)
        status = solver.solve()
    log = CutLog(len(cuts_per_round) + 1, cuts_per_round, last_max)
    return solver.result(status), log
