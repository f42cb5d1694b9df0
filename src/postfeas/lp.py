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


# By sense: the coefficient and upper bound of a row's logical column,
# whose lower bound is 0.  Row i holds at x exactly when its logical
# s_i = coef_i * (rhs_i - rows_i @ x) lies in [0, upper_i].
_LOGICALS = {"<=": (1.0, math.inf), ">=": (-1.0, math.inf), "=": (1.0, 0.0)}


def _logical_bounds(senses) -> tuple[np.ndarray, np.ndarray]:
    """(coef, upper) of the logicals of rows with these senses."""
    return np.array([_LOGICALS[s] for s in senses], dtype=float).reshape(-1, 2).T


class LpProblem:
    """Immutable LP: maximize objective'x under row constraints and bounds.

    constraints: iterable of (row, sense, rhs) with sense in {"<=", ">=", "="}.
    bounds: one (lo, hi) pair per variable; None means unbounded on that side.
    """

    __slots__ = ("objective", "rows", "senses", "rhs", "lower", "upper")

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
        # the simplex's flip step upper - lower must be a float
        with np.errstate(over="ignore"):
            too_wide = np.isinf(upper - lower) & np.isfinite(lower) & np.isfinite(upper)
        if too_wide.any():
            j = int(too_wide.argmax())
            raise DomainError(f"bounds of variable {j}, [{float(lower[j])}, "
                              f"{float(upper[j])}], lie farther apart than the "
                              "largest float")
        self.objective = _readonly(c)
        self.rows = _readonly(rows)
        self.senses = senses
        self.rhs = _readonly(rhs)
        self.lower = _readonly(lower)
        self.upper = _readonly(upper)

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
    coef, upper = _logical_bounds(problem.senses)
    # an infinite x gives NaN from 0 * inf in a row and from inf - inf
    # against an infinite bound of its own sign; fmax drops the latter
    with np.errstate(invalid="ignore"):
        box_worst = _peak(np.fmax(problem.lower - x, x - problem.upper))
        if math.isnan(box_worst):
            return math.inf
        s = coef * (problem.rhs - problem.rows @ x)
        return max(_row_violation(s, upper), box_worst)


def _row_violation(s, upper, kept=None) -> float:
    """The largest violation of rows whose logicals at x are s, with
    upper bounds upper: how far an s lies outside [0, upper], and with
    kept, also how far it lies from kept (0 when there is none); inf
    when an s is NaN.  Callers ignore invalid operations: an infinite s
    gives inf - inf against an infinite upper bound, which fmax drops."""
    gap = np.fmax(-s, s - upper)
    if kept is not None:
        gap = np.fmax(gap, np.abs(s - kept))
    worst = _peak(gap)
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


# Rows the simplex's buffers hold at first, unless its problem has
# more; they double when an append fills them.
_INITIAL_CAPACITY = 16

# The per-row and per-column vectors of the workspace share buffers, one
# vector a row: rhs, xb, lower_b and upper_b in _rowvals; c, lower,
# upper, at_bound, rises and falls in _cols.  Each buffer's entries
# beyond those in use hold what a "<=" row and its logical column take
# when appended: the logical costs nothing, has bounds [0, inf), and
# enters basic, so it neither rises nor falls and reads 0 in at_bound.
_ROW_FILL = np.array([[0.0], [0.0], [0.0], [math.inf]])
_COLUMN_FILL = np.array([[0.0], [0.0], [math.inf], [0.0], [0.0], [0.0]])


class _BoundedSimplex:
    """Bounded-variable simplex on the kept tableau of one LpProblem's
    logical form.  Maximizes.  Mutable workspace; one instance per solve.

    Columns j < n are the problem's variables, each between its own
    bounds lower[j] and upper[j] (Maros 2003, Computational Techniques of
    the Simplex Method), so x is z[:n], with no change of variables.  A
    nonbasic column is described by where it stands, at_bound, alone: at
    its lower or its upper bound (it starts at its lower bound, at its
    upper bound when that is its only finite one), or at 0 when it is
    free.  It may rise when that is below its upper bound and fall when
    it is above its lower bound, so a free column may do both and a
    fixed one (lower = upper) neither.  Each row then gains one logical
    column (_LOGICALS): +1 in [0, inf) for "<=", -1 in [0, inf) for ">="
    and +1 in [0, 0] for "=", and the row holds exactly when its logical
    lies within its bounds.  A row enters with its logical basic, so a
    fresh instance is every row appended to an empty basis, and rows
    appended later (append_rows) are added the same way.

    problem, the LpProblem the simplex was built from, is never replaced:
    its objective and box are the solve's, and rows appended and rhs
    replaced since live in the workspace alone.

    The workspace grows in place.  table (d above T), xb, basis, the
    column data and the rows' rhs are leading views of buffers with
    spare rows and columns, which double when an append fills them; A,
    the one copy of the rows, is sliced from its buffer when read, and
    rows, its structural block A[:m, :n], is what solution()'s check
    reads with the logicals' coefficients and upper bounds.  The spare
    entries already hold a "<=" row's logical, its coefficient 1 in A
    and its 1 in T included, so an append writes only its rows' own
    entries, and those of a logical of another sense, and rebinds the
    views; every other update writes through them.  So does the upkeep
    of what pricing and the ratio tests read: at_bound (the value a
    nonbasic column stands at, 0 for a basic one) with rises and falls
    (1.0 where a column may rise, or fall, from there) is written by
    _stand, and by _pivot for the entering column, which also writes the
    basic variables' bounds lower_b and upper_b.  The tolerances an
    append can only raise are running maxima: rhs_peak (max |rhs|, for
    run_dual and solution()) and cost_tol, which zero-cost logicals
    never change.

    The tableau T = B^-1 A, the basic values xb and the reduced costs
    d = costs - costs_B T are kept up to date, where costs are the true
    costs c, or the shifted ones while solve() runs its dual simplex on
    them.  Pricing reads d, the dual ratio test reads the row T[r] and
    the primal one the column T[:, q].  d is kept as the row above T,
    so a pivot is one rank-1 update of both; an append writes the new
    rows of T alone (_add_rows), and a bound flip moves xb alone.  B^-1
    is T's logical columns up to their signs.  T, xb and d are rebuilt
    from A (_refactor) only after 128 pivots, on a pivot below
    _PIVOT_TOL, and once when solution()'s check fails after pivots.
    """

    def __init__(self, problem: LpProblem):
        n = problem.n
        lower, upper = problem.lower, problem.upper
        # lower, upper when only that is finite, 0 when free
        start = np.where(np.isinf(lower), np.where(np.isinf(upper), 0.0, upper), lower)
        c = problem.objective  # logicals cost nothing
        self.problem = problem
        self.n = n
        # the workspace of no rows, which _grow moves into its buffers:
        # d above an empty T (at the logical basis y = 0, so d = c), and
        # the columns where they start
        self._capacity = 0
        self._A = np.zeros((0, n))
        self._T = c[np.newaxis]
        self._rowvals = np.zeros((4, 0))
        self._basis = np.zeros(0, dtype=np.intp)
        self._cols = np.array([c, lower, upper, start, start < upper, start > lower],
                              dtype=float)
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
        reduced costs, lower bounds, at_bound, rises and falls; D = 1 and
        T's identity; and each logical's upper bound inf and basis entry.
        So only a row of another sense writes its D and upper bound.
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
            coef, upper = _logical_bounds(senses)
            self._A[m:end, width:width + k].flat[::k + 1] = coef
            t_new *= coef[:, np.newaxis]
            xb_new *= coef
            self.upper_b[m:] = upper
            self.upper[width:] = upper
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
        rowvals, cols = self._rowvals, self._cols
        self.table = self._T[:m + 1, :width]
        self.d = self.table[0]
        self.T = self.table[1:]
        self.rows = self._A[:m, :n]
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
            "_rowvals": np.full((4, capacity), _ROW_FILL),
            "_basis": np.arange(n, width),
            "_cols": np.full((6, width), _COLUMN_FILL),
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
        caller has already moved xb and stood the leaving variable at its
        bound (_stand).  A basic column moves neither way and reads 0 in
        at_bound.
        """
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

    def _stand(self, j: int, value: float):
        """Nonbasic column j now stands at value, its lower or its upper
        bound: it may rise when value is below its upper bound and fall
        when above its lower one.  A free column never flips or leaves
        the basis: its room is infinite both ways."""
        self._z = None
        self.at_bound[j] = value
        self.rises[j] = value < self.upper[j]
        self.falls[j] = value > self.lower[j]

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
                lower, upper = self.lower[j], self.upper[j]
                self._stand(j, upper if self.at_bound[j] == lower else lower)
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
            self._stand(leaving, self.upper_b[r] if g[r] < 0 else self.lower_b[r])
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
            self._stand(leaving, target)
            self._pivot(r, q, col)
            if self.pivots_since_refactor >= 128:
                self._refactor(costs)

    def extract(self) -> np.ndarray:
        """x, the values of the problem's columns z[:n], read from the
        maintained basic values, with any -0.0 read as 0.0.  The column
        values it reads are kept as _z, which every bound change, pivot,
        refactor, new rhs and append drops, so that an append at this
        basis, and solution()'s check of an x read here, reuse them.
        Unchecked: only solution() checks x."""
        self._z = z = self._values()
        return z[:self.n] + 0.0

    def incumbent(self) -> np.ndarray:
        """x at the current basis as solution() reads it, unchecked: a
        fresh read-only array, extract() clipped to the problem's box,
        which cleans tiny drift against it.  A row-generation round
        separates at it, and solution(x) checks it only when the round
        is the last."""
        problem = self.problem
        x = np.minimum(np.maximum(self.extract(), problem.lower), problem.upper)
        x.setflags(write=False)
        return x

    def result(self, status: str, x: np.ndarray | None = None) -> LpSolution:
        """solution(x) when status is "Optimal", else status with no x."""
        if status != "Optimal":
            return LpSolution(status, None, None, self.iterations)
        return self.solution(x)

    def solution(self, x: np.ndarray | None = None) -> LpSolution:
        """The checked Optimal solution at the current basis.

        x is incumbent(), read here unless the caller passes the one it
        has just read at this basis, so that it is not read twice.  Each
        row's logical at x, s_i = coef_i * (rhs_i - rows_i @ x), must lie
        within its bounds and match the logical the simplex keeps,
        z[n + i], both to 10 * FEAS_TOL * max(1, |rhs|).  The match fails
        when a bound far from x has rounded away part of a basic value
        that x was read from.  If the check fails and a pivot has touched
        the tableau since its last refactor, the basis is refactored once
        and x read again, so the solution's x is then another array than
        the x passed in.  Raises NumericalBreakdown when x still fails
        it, and when x or the objective is not finite.
        """
        problem, n = self.problem, self.n
        limit = 10.0 * FEAS_TOL * max(1.0, self.rhs_peak)
        coef, upper = self.A[:, n:].diagonal(), self.upper[n:]
        while True:
            if x is None:
                x = self.incumbent()
            z = self._values() if self._z is None else self._z
            with np.errstate(over="ignore", invalid="ignore"):
                # x is clipped to its box, so only a row can miss; a NaN
                # in x reads NaN in every row, and in the objective
                s = coef * (self.rhs - self.rows @ x)
                resid = _row_violation(s, upper, z[n:])
                value = float(problem.objective @ x)
            if resid <= limit or not self.pivots_since_refactor:
                break
            self._refactor(self.c)  # at most once: it zeroes pivots_since_refactor
            x = None
        if resid > limit:
            raise NumericalBreakdown(
                f"solution residual {resid:.3e} exceeds feasibility tolerance"
            )
        # an infinite or NaN entry of x makes the objective inf or NaN
        if not math.isfinite(value):
            raise NumericalBreakdown(f"optimum is not finite (objective {value!r})")
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
    follow the pivot path.  An Optimal x is clipped to the box, and each
    row's logical at x must lie within its bounds and match the logical
    the simplex keeps to 10 * FEAS_TOL * max(1, |rhs|), after one
    refactor if need be.  Raises NumericalBreakdown when pivoting
    degrades beyond recovery, when a reduced cost overflows, and when the
    optimum's objective or x is not finite.
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
    largest violation it saw; the loop ends when it returns no rows.  A
    round hands separate the incumbent unchecked (incumbent()), and the
    loop checks only the solution it returns: when separate returns no
    rows, _BoundedSimplex.solution checks that same x.  If the check
    refactors and reads x again, separate runs at the new x before
    anything is returned, and its rows, if any, go to a next round; so
    the x returned is always one that separate accepted and the check
    passed.  An Unbounded relaxation has no incumbent, so separate(None)
    is called: its rows re-enter the loop like any others, and the
    relaxation is returned only when it gives none.  One simplex serves
    every round through one entry, _BoundedSimplex.solve: a round writes
    only its new rows into the simplex's workspace, which grows in
    place.  After rows are appended at an optimal basis, that basis is
    still dual feasible, so it needs no cost shift: the bounded dual
    simplex re-enters it and the primal simplex confirms it (Koberstein
    2005, The dual simplex method, techniques for a fast and stable
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
        x = solver.incumbent() if status == "Optimal" else None
        rows, last_max = separate(x)
        if not rows:
            sol = solver.result(status, x)
            if sol.x is not x:
                # the check refactored and read x again: separate there
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
