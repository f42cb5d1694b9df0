"""Dense linear programming core.

Problems are stated as: maximize c'x subject to row constraints with
senses <=, >=, = and box bounds on x (either side may be infinite).
The solver is a bounded-variable revised simplex that starts every
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
    """Rows (k, n), senses and rhs (k,) of (row, sense, rhs) triples."""
    rows_list, senses, rhs_list = [], [], []
    for item in constraints:
        row, sense, rhs = item
        row = np.asarray(row, dtype=float)
        if row.shape != (n,):
            raise DimensionMismatch(
                f"constraint row has shape {row.shape}, expected ({n},)"
            )
        if sense not in SENSES:
            raise DomainError(f"sense must be one of {SENSES}, got {sense!r}")
        rows_list.append(row)
        senses.append(sense)
        rhs_list.append(float(rhs))
    rows = np.array(rows_list, dtype=float) if rows_list else np.zeros((0, n))
    return rows, tuple(senses), np.asarray(rhs_list, dtype=float)


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
    if all(np.isfinite(a).all() for a in arrays):
        return
    if any(np.isnan(a).any() for a in arrays):
        raise DomainError("objective, rows, and rhs must be free of NaN")
    raise DomainError("objective, rows, and rhs must be finite")


# Row i's residual r = rows[i] @ x - rhs[i] is violated by
# max(signs[i, 0] * r, signs[i, 1] * r), which is r, -r or |r|.
_VIOLATION_SIGNS = {"<=": np.array([[1.0, 1.0]]), ">=": np.array([[-1.0, -1.0]]),
                    "=": np.array([[1.0, -1.0]])}


def _violation_signs(signs: np.ndarray, senses: tuple) -> np.ndarray:
    """signs with the rows of senses appended."""
    return _readonly(np.concatenate([signs, *map(_VIOLATION_SIGNS.get, senses)]))


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
        if np.any(lower > upper):
            raise DomainError("each lower bound must be <= its upper bound")
        self.objective = _readonly(c)
        self.rows = _readonly(rows)
        self.senses = senses
        self.rhs = _readonly(rhs)
        self.lower = _readonly(lower)
        self.upper = _readonly(upper)
        self._signs = _violation_signs(np.zeros((0, 2)), senses)

    def _with_rows(self, rows: np.ndarray, senses: tuple,
                   rhs: np.ndarray) -> LpProblem:
        """This problem plus rows parsed by _constraint_arrays, whose
        finiteness is checked here as the constructor checks it."""
        _check_finite(rows, rhs)
        out = object.__new__(LpProblem)
        out.objective = self.objective
        out.rows = _readonly(np.concatenate([self.rows, rows]))
        out.senses = self.senses + senses
        out.rhs = _readonly(np.concatenate([self.rhs, rhs]))
        out.lower = self.lower
        out.upper = self.upper
        out._signs = _violation_signs(self._signs, senses)
        return out

    def _with_rhs(self, rhs) -> LpProblem:
        """This problem with the rows' right-hand sides replaced by rhs,
        validated as the constructor validates rhs (shape and finiteness)."""
        rhs = np.array(rhs, dtype=float)
        if rhs.shape != (self.m,):
            raise DimensionMismatch(f"rhs has shape {rhs.shape}, expected ({self.m},)")
        _check_finite(rhs)
        out = object.__new__(LpProblem)
        out.objective = self.objective
        out.rows = self.rows
        out.senses = self.senses
        out.rhs = _readonly(rhs)
        out.lower = self.lower
        out.upper = self.upper
        out._signs = self._signs
        return out

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
    # an infinite x gives NaN from 0 * inf in a row and from inf - inf
    # against an infinite bound of its own sign; fmax drops the latter
    with np.errstate(invalid="ignore"):
        r = problem.rows @ x - problem.rhs
        box_worst = _peak(np.fmax(problem.lower - x, x - problem.upper))
    row_worst = _peak(r[:, np.newaxis] * problem._signs)
    if math.isnan(row_worst) or math.isnan(box_worst):
        return math.inf
    worst = max(row_worst, box_worst)
    return worst if worst > 0.0 else 0.0


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise DomainError(f"{what} is not valid JSON: {exc}") from exc


def problem_from_json(text: str) -> LpProblem:
    doc = _loads(text, "LP document")
    try:
        objective = doc["maximize"]
        constraints = [(c["row"], c["sense"], c["rhs"]) for c in doc["constraints"]]
        bounds = [(b[0], b[1]) for b in doc["bounds"]]
        return LpProblem(objective, constraints, bounds)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise DomainError(f"malformed LP document: {exc}") from exc


def solution_to_json(sol: LpSolution) -> str:
    doc = {
        "status": sol.status,
        "x": None if sol.x is None else np.asarray(sol.x).tolist(),
        "objective_value": sol.objective_value,
        "iterations": sol.iterations,
    }
    return json.dumps(doc)


def solution_from_json(text: str) -> LpSolution:
    doc = _loads(text, "solution document")
    try:
        x = doc.get("x")
        return LpSolution(
            status=doc["status"],
            x=None if x is None else np.asarray(x, dtype=float),
            objective_value=doc.get("objective_value"),
            iterations=int(doc.get("iterations", 0)),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DomainError(f"malformed solution document: {exc}") from exc


# ---------------------------------------------------------------------------
# Bounded-variable revised simplex
# ---------------------------------------------------------------------------


# A column's kind, a multiple of 3 so that kind + status indexes the
# tables below: a column with room above its zero lower bound, a fixed
# column (upper bound 0) and a free column.
_ROOM = 0
_FIXED = 3
_FREE = 6

# By kind + status (at lower, at upper, basic): 1.0 where a nonbasic
# column may rise from where it stands, and where it may fall.  A free
# column may do both, a fixed or basic one neither.
_RISES = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
_FALLS = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
# By kind: the lower bound of the column's shifted variable.
_LOWER = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -math.inf])
# By sense: the coefficient, upper bound and kind of a row's logical.
_LOGICALS = {"<=": (1.0, math.inf, _ROOM), ">=": (-1.0, math.inf, _ROOM),
             "=": (1.0, 0.0, _FIXED)}


class _BoundedSimplex:
    """Bounded-variable revised simplex on the logical form of one
    LpProblem.  Maximizes.  Mutable workspace; one instance per solve.

    Finite lower bounds are shifted to zero; variables with only a finite
    upper bound are negated so the upper bound becomes the shifted zero
    lower bound; doubly unbounded variables stay free.  Column j < n maps
    back through x[j] = offset[j] + sign[j] * z[j].  Each row then gains
    one logical column (Maros 2003, Computational Techniques of the
    Simplex Method): +1 in [0, inf) for "<=", -1 in [0, inf) for ">=" and
    +1 in [0, 0] for "=".  A row enters with its logical basic, so a
    fresh instance is every row appended to an empty basis, and rows
    appended later (append_rows) are added the same way.

    The basis inverse binv and the basic values xb are kept up to date:
    a pivot updates binv in product form, an append borders it
    (_add_rows), and a bound flip moves xb alone.  binv is recomputed
    from A[:, basis] (_refactor) only after 128 pivots, on a pivot below
    _PIVOT_TOL, and once when solution()'s residual check fails after
    pivots.
    """

    def __init__(self, problem: LpProblem):
        n = problem.n
        offset = np.zeros(n)
        sign = np.ones(n)
        upper = np.full(n, math.inf)
        kind = np.full(n, _ROOM, dtype=np.int8)
        for j in range(n):
            lo, hi = problem.lower[j], problem.upper[j]
            if math.isfinite(lo):
                offset[j] = lo
                upper[j] = hi - lo if math.isfinite(hi) else math.inf
            elif math.isfinite(hi):
                offset[j] = hi
                sign[j] = -1.0
            else:
                kind[j] = _FREE
        kind[upper == 0.0] = _FIXED
        self.problem = problem
        self.offset = offset
        self.sign = sign
        self.c = problem.objective * sign  # logicals cost nothing
        self.upper = upper
        self.kind = kind
        self.status = np.full(n, _AT_LOWER, dtype=np.int8)
        self.m = 0
        self.A = np.zeros((0, n))
        self.b = np.zeros(0)
        self.basis = np.zeros(0, dtype=np.intp)
        self.binv = np.zeros((0, 0))
        self.xb = np.zeros(0)
        self.pivots_since_refactor = 0
        self.iterations = 0
        self._add_rows(problem.rows, problem.senses, problem.rhs)

    # -- rows and linear algebra upkeep -----------------------------------

    def append_rows(self, constraints):
        """Append (row, sense, rhs) triples, each with a basic logical.

        The logicals cost nothing, so the reduced costs, and with them
        dual feasibility, are unchanged; only the new basic values can
        leave their bounds.
        """
        rows, senses, rhs = _constraint_arrays(constraints, self.problem.n)
        self.problem = self.problem._with_rows(rows, senses, rhs)
        self._add_rows(rows, senses, rhs)

    def replace_rhs(self, problem: LpProblem):
        """Take problem's right-hand sides; its rows must be this one's.

        The basis, its kept inverse and the costs stay, so a basis that
        was optimal is still dual feasible; only the basic values move,
        read through the kept inverse.  The iteration count restarts at 0.
        """
        self.problem = problem
        self.b = problem.rhs - problem.rows @ self.offset
        self.iterations = 0
        self.xb = self.binv @ self._nonbasic_rhs()

    def _add_rows(self, rows: np.ndarray, senses: tuple, rhs: np.ndarray):
        """Append rows, each with a basic logical column, without an
        inversion.

        With the new rows' entries R_B in the basic columns and their
        logicals' coefficients D = diag(+-1) = D^-1, the new basis is
        [[B, 0], [R_B, D]], whose inverse is [[B^-1, 0], [-D R_B B^-1, D]].
        The new basic values are D (b_new - R_U u - R_B x_B), where R_U u
        is the part of the columns at their upper bound.  On an empty
        basis this is exactly binv = D and xb = D b.
        """
        m, k = self.m, len(senses)
        n, width = self.offset.size, self.c.size
        coef, upper, kind = np.array(
            [_LOGICALS[s] for s in senses], dtype=float).reshape(k, 3).T
        new = np.arange(k)
        b_new = rhs - rows @ self.offset
        A = np.zeros((m + k, width + k))
        A[:m, :width] = self.A
        A[m:, :n] = rows * self.sign
        A[m + new, width + new] = coef
        at_upper = self.status == _AT_UPPER  # the new logicals are basic
        room = b_new - A[m:, :width][:, at_upper] @ self.upper[at_upper]
        r_b = A[m:, self.basis]
        binv = np.zeros((m + k, m + k))
        binv[:m, :m] = self.binv
        binv[m:, :m] = -coef[:, np.newaxis] * (r_b @ self.binv)
        binv[m + new, m + new] = coef
        self.binv = binv
        self.xb = np.concatenate([self.xb, coef * (room - r_b @ self.xb)])
        self.A = A
        self.b = np.concatenate([self.b, b_new])
        self.c = np.concatenate([self.c, np.zeros(k)])
        self.upper = np.concatenate([self.upper, upper])
        self.kind = np.concatenate([self.kind, kind.astype(np.int8)])
        self.status = np.concatenate(
            [self.status, np.full(k, _BASIC, dtype=np.int8)])
        self.basis = np.concatenate([self.basis, width + new])
        self.m = m + k
        self.max_iterations = 2000 + 200 * (self.m + width + k)
        self._priced = None

    def _nonbasic_rhs(self) -> np.ndarray:
        """b minus the contribution of nonbasic-at-upper columns (b itself
        when there are none; callers do not write to it)."""
        at_upper = self.status == _AT_UPPER
        if not at_upper.any():
            return self.b
        return self.b - self.A[:, at_upper] @ self.upper[at_upper]

    def _refactor(self):
        """Invert A[:, basis] afresh and recompute xb from it: after 128
        pivots, on a pivot too small to trust, and when solution()'s
        residual check fails after pivots."""
        basis_mat = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(basis_mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("basis matrix is singular") from exc
        self.xb = self.binv @ self._nonbasic_rhs()
        self.pivots_since_refactor = 0
        self._priced = None

    def _pivot(self, r: int, j: int, w: np.ndarray):
        """Column j enters at basis row r; w = binv @ A[:, j].

        Product-form update of the basis inverse.  The caller has already
        moved xb and the leaving variable's status.
        """
        self.status[j] = _BASIC
        self.basis[r] = j
        row = self.binv[r] / w[r]
        self.binv -= w[:, np.newaxis] * row
        self.binv[r] = row
        self.pivots_since_refactor += 1
        self._priced = None

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        """c - c_B' binv A.  Kept until binv changes, so pricing the same
        cost array again at the same basis costs nothing."""
        if self._priced is not None and self._priced[0] is c:
            return self._priced[1]
        y = self.binv.T @ c[self.basis]
        d = c - y @ self.A
        self._priced = (c, d)
        return d

    def _moves(self) -> tuple[np.ndarray, np.ndarray]:
        """1.0 per column that may rise from where it stands, and per
        column that may fall; 0.0 elsewhere."""
        code = self.kind + self.status
        return _RISES.take(code), _FALLS.take(code)

    def _gains(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(up, gain) for the reduced costs d: up is d where a column may
        rise and a signed zero elsewhere; gain is the larger of up and of
        -d where the column may fall.  So gain > 0 exactly where moving a
        column the way it may move raises c'z, and is then that rate."""
        rises, falls = self._moves()
        up = rises * d
        return up, np.maximum(up, falls * -d)

    def _basic_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds of the basic variables, row by row."""
        return _LOWER.take(self.kind.take(self.basis)), self.upper.take(self.basis)

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
        """
        c = self.c
        d = self._reduced_costs(c)
        shift = self._gains(d)[1] > _tolerance(c)
        # unshifted, c itself goes on, so run_dual's first pricing is d
        if not self.run_dual(np.where(shift, c - d, c) if shift.any() else c):
            return "Infeasible"
        return self.run_phase(c)

    # -- primal simplex -----------------------------------------------------

    def run_phase(self, c: np.ndarray) -> str:
        """Primal simplex from a primal feasible basis, for the costs c.

        Returns "Optimal" or "Unbounded".  Raises NumericalBreakdown on
        irrecoverable pivots or iteration explosion.
        """
        price_tol = _tolerance(c)
        bland = False
        degenerate_streak = 0
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown("simplex iteration limit exceeded")
            up, gain = self._gains(self._reduced_costs(c))
            improving = gain > price_tol
            j = int(improving.argmax())
            if not improving[j]:
                return "Optimal"
            if not bland:
                j = int(np.where(improving, gain, 0.0).argmax())
            direction = 1.0 if up[j] > price_tol else -1.0
            w = self.binv @ self.A[:, j]
            g = direction * w
            mag = np.abs(w)
            lower_b, upper_b = self._basic_bounds()
            # room of each basic variable before the bound it moves to
            room = np.where(g > 0.0, self.xb - lower_b, upper_b - self.xb)
            cand_step = np.maximum(
                np.where(mag > _PIVOT_TOL, room, math.inf)
                / np.maximum(mag, _PIVOT_TOL), 0.0)
            # lower bound is 0; a free variable's upper bound is inf
            flip_step = self.upper[j]
            basic_step = cand_step[cand_step.argmin()] if self.m else math.inf
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
                self.status[j] = _AT_UPPER if self.status[j] == _AT_LOWER else _AT_LOWER
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
                    self._refactor()
                    continue
                raise NumericalBreakdown(
                    f"pivot magnitude {abs(pivot):.3e} below tolerance"
                )
            leaving = int(self.basis[r])
            enter_from = self.upper[j] if self.status[j] == _AT_UPPER else 0.0
            self.xb -= direction * step * w
            self.xb[r] = enter_from + direction * step
            self.status[leaving] = _AT_UPPER if g[r] < 0 else _AT_LOWER
            if self.kind[leaving] == _FREE:
                self.status[leaving] = _AT_LOWER  # free leaves exactly at 0
            self._pivot(r, j, w)
            if self.pivots_since_refactor >= 128:
                self._refactor()

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
        primal_tol = _tolerance(self.b)
        dual_tol = _tolerance(costs)
        while True:
            lower_b, upper_b = self._basic_bounds()
            below = lower_b - self.xb
            excess = np.maximum(below, self.xb - upper_b)
            r = int(excess.argmax())
            if excess[r] <= primal_tol:
                return True
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown("simplex iteration limit exceeded")
            # rise = +1: x_B[r] must rise to its lower bound
            rise = 1.0 if below[r] > 0.0 else -1.0
            alpha = self.binv[r] @ self.A
            d = self._reduced_costs(costs)
            rises, falls = self._moves()
            # moving column j by t moves x_B[r] by -alpha[j] * t: |alpha[j]|
            # where that takes x_B[r] towards its bound, 0 or less elsewhere
            s_alpha = rise * alpha
            toward = np.maximum(rises * -s_alpha, falls * s_alpha)
            cand = (toward > _PIVOT_TOL).nonzero()[0]
            if not cand.size:
                if self.pivots_since_refactor > 0:
                    self._refactor()
                    continue
                return False
            # distance of each reduced cost from the wrong sign
            room = np.maximum((falls - rises) * d, 0.0)[cand]
            mag = toward[cand]
            ratio = (room + dual_tol) / mag
            bound = ratio[ratio.argmin()]
            q = int(cand[np.where(room / mag <= bound, mag, -1.0).argmax()])
            w = self.binv @ self.A[:, q]
            if abs(w[r]) < _PIVOT_TOL:
                if self.pivots_since_refactor > 0:
                    self._refactor()
                    continue
                raise NumericalBreakdown(
                    f"pivot magnitude {abs(w[r]):.3e} below tolerance"
                )
            leaving = int(self.basis[r])
            target = lower_b[r] if rise > 0.0 else upper_b[r]
            t = (self.xb[r] - target) / w[r]
            enter_from = self.upper[q] if self.status[q] == _AT_UPPER else 0.0
            self.xb -= t * w
            self.xb[r] = enter_from + t
            self.status[leaving] = _AT_LOWER if rise > 0.0 else _AT_UPPER
            self._pivot(r, q, w)
            if self.pivots_since_refactor >= 128:
                self._refactor()

    def extract(self) -> np.ndarray:
        """The solution in the problem's own variables, read from the
        maintained basic values."""
        z = np.where(self.status == _AT_UPPER, self.upper, 0.0)
        z[self.basis] = self.xb
        n = self.offset.size
        return self.offset + self.sign * z[:n]

    def result(self, status: str) -> LpSolution:
        """solution() when status is "Optimal", else status with no x."""
        if status != "Optimal":
            return LpSolution(status, None, None, self.iterations)
        return self.solution()

    def solution(self) -> LpSolution:
        """The Optimal solution at the current basis.

        x is clipped to the box and must meet every row to
        10 * FEAS_TOL * max(1, |rhs|).  If it does not and a pivot has
        touched the inverse since its last refactor, the basis is
        refactored once and x read again.  Raises NumericalBreakdown when
        x still misses a row, and when x or the objective is not finite.
        """
        problem = self.problem
        limit = 10.0 * FEAS_TOL * max(1.0, _peak(np.abs(problem.rhs)))
        while True:
            # clean tiny drift against the original box
            x = np.minimum(np.maximum(self.extract(), problem.lower), problem.upper)
            resid = max_violation(problem, x)
            if resid <= limit or not self.pivots_since_refactor:
                break
            self._refactor()  # at most once: it zeroes pivots_since_refactor
        if resid > limit:
            raise NumericalBreakdown(
                f"solution residual {resid:.3e} exceeds feasibility tolerance"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(problem.objective @ x)
        if not (math.isfinite(value) and np.isfinite(x).all()):
            raise NumericalBreakdown(f"optimum is not finite (objective {value!r})")
        return LpSolution("Optimal", _readonly(x), value, self.iterations)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP with the bounded-variable simplex from its logical
    basis: a dual simplex reaches feasibility and a primal simplex
    optimality (_BoundedSimplex.solve).

    Deterministic for a fixed BLAS thread count: identical problems then
    produce identical solutions, pivot for pivot.  Pricing and the basis
    updates use BLAS products, which can round differently with another
    thread count and so take another pivot path.  x is read from the
    basic values the pivots maintain, and the basis is inverted afresh
    only every 128 pivots, so its last digits follow the pivot path.  An
    Optimal x is clipped to the box and must meet every row to
    10 * FEAS_TOL * max(1, |rhs|), after one refactor if need be.
    Raises NumericalBreakdown when pivoting degrades beyond recovery and
    when the optimum's objective or x is not finite.
    """
    solver = _BoundedSimplex(problem)
    return solver.result(solver.solve())


class RhsSequence:
    """LPs that share problem's objective, rows, senses and box and
    differ only in the rows' right-hand sides, solved one after another.

    problem's own rhs is not solved.  The first solve(rhs) starts at the
    logical basis, as solve_lp does.  Each later one puts rhs into the
    last simplex and re-enters it through the same entry: the costs are
    unchanged, so a basis that was optimal is still dual feasible and
    needs no cost shift, and the bounded dual simplex restores primal
    feasibility (Koberstein 2005, The dual simplex method); the new
    basic values are read through the kept basis inverse, with no
    inversion.  rhs is validated as LpProblem validates rhs, before the
    simplex is touched.
    A solve that raises discards the simplex, so the next solve starts
    again from the logicals.  A re-entered LpSolution's iterations count
    that solve's pivots only.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self._solver: _BoundedSimplex | None = None

    def solve(self, rhs) -> LpSolution:
        problem = self.problem._with_rhs(rhs)
        solver, self._solver = self._solver, None
        if solver is None:
            solver = _BoundedSimplex(problem)
        else:
            solver.replace_rhs(problem)
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
    one; final_max_support is the largest violation separate() reported
    at the last solved relaxation (inf when none was solved).
    """

    rounds: int
    cuts_per_round: list[int]
    final_max_support: float

    @property
    def total_cuts(self) -> int:
        return sum(self.cuts_per_round)


def solve_cutting_planes(
    base: LpProblem,
    separate: Callable[[np.ndarray], tuple[list, float]],
    max_rounds: int,
) -> tuple[LpSolution, CutLog]:
    """Row generation (Kelley 1960): solve, add violated rows, repeat.

    Each round solves base plus every row added so far.  separate(x)
    returns the (row, sense, rhs) rows to add at the incumbent x and the
    largest violation it saw; the loop ends when it returns no rows.  One
    simplex serves every round through one entry, _BoundedSimplex.solve:
    after rows are appended the previous optimal basis is still dual
    feasible, so it needs no cost shift: the bounded dual simplex
    re-enters it and the primal simplex confirms it (Koberstein 2005, The dual simplex
    method, techniques for a fast and stable implementation).  A non-Optimal
    relaxation is returned as is; iterations is the total over all
    rounds.  Appended rows are validated as LpProblem validates its
    constraints.  Raises DomainError when max_rounds < 1 and
    MaxRoundsExceeded after max_rounds solves.
    """
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be >= 1, got {max_rounds}")
    solver = _BoundedSimplex(base)
    status = solver.solve()
    cuts_per_round: list[int] = []
    last_max = math.inf
    while status == "Optimal":
        sol = solver.solution()
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
