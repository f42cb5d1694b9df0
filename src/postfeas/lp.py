"""Dense linear programming core.

Problems are stated as: maximize c'x subject to row constraints with
senses <=, >=, = and box bounds on x (either side may be infinite).
The solver is a two-phase revised simplex on the equality standard form
with bounded variables, Dantzig pricing, and Bland's rule as the
anti-cycling fallback.  One row-generation loop on top of it serves every
program with more rows than it needs at the optimum.  A vertex-enumeration
brute force serves as an independent oracle for small instances.
"""

from __future__ import annotations

import itertools
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
    SizeLimitExceeded,
)

__all__ = [
    "SENSES",
    "LpProblem",
    "LpSolution",
    "solve_lp",
    "CutLog",
    "solve_cutting_planes",
    "brute_force_lp",
    "max_violation",
    "problem_to_json",
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


def _check_finite(*arrays: np.ndarray):
    if any(np.isnan(a).any() for a in arrays):
        raise DomainError("objective, rows, and rhs must be free of NaN")
    if any(np.isinf(a).any() for a in arrays):
        raise DomainError("objective, rows, and rhs must be finite")


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
        if np.any(lower > upper):
            raise DomainError("each lower bound must be <= its upper bound")
        self.objective = _readonly(c)
        self.rows = _readonly(rows)
        self.senses = senses
        self.rhs = _readonly(rhs)
        self.lower = _readonly(lower)
        self.upper = _readonly(upper)

    def _with_rows(self, constraints) -> LpProblem:
        """This problem plus the (row, sense, rhs) triples, validated as
        the constructor validates them; only the new rows are parsed."""
        rows, senses, rhs = _constraint_arrays(constraints, self.n)
        _check_finite(rows, rhs)
        out = object.__new__(LpProblem)
        out.objective = self.objective
        out.rows = _readonly(np.vstack([self.rows, rows]))
        out.senses = self.senses + senses
        out.rhs = _readonly(np.concatenate([self.rhs, rhs]))
        out.lower = self.lower
        out.upper = self.upper
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
    """Largest constraint or bound violation of x (0 when feasible)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({problem.n},)")
    worst = 0.0
    if problem.m:
        r = problem.rows @ x - problem.rhs
        senses = np.asarray(problem.senses)
        v = np.where(senses == "<=", r, np.where(senses == ">=", -r, np.abs(r)))
        worst = max(worst, float(v.max()))
    lo_v = problem.lower - x
    hi_v = x - problem.upper
    finite_lo = np.isfinite(problem.lower)
    finite_hi = np.isfinite(problem.upper)
    if finite_lo.any():
        worst = max(worst, float(lo_v[finite_lo].max()))
    if finite_hi.any():
        worst = max(worst, float(hi_v[finite_hi].max()))
    return max(worst, 0.0)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _bound_to_json(v: float):
    return None if math.isinf(v) else v


def problem_to_json(problem: LpProblem) -> str:
    doc = {
        "maximize": problem.objective.tolist(),
        "constraints": [
            {"row": problem.rows[i].tolist(), "sense": problem.senses[i],
             "rhs": float(problem.rhs[i])}
            for i in range(problem.m)
        ],
        "bounds": [
            [_bound_to_json(float(problem.lower[j])), _bound_to_json(float(problem.upper[j]))]
            for j in range(problem.n)
        ],
    }
    return json.dumps(doc)


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
    except (KeyError, TypeError, IndexError) as exc:
        raise DomainError(f"malformed LP document: {exc}") from exc
    return LpProblem(objective, constraints, bounds)


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


class _BoundedSimplex:
    """Two-phase simplex on the equality form of one LpProblem.  Maximizes.
    Mutable workspace; one instance per solve.

    The equality form has variables with lower bound 0 (or free) and
    optional finite uppers.  Finite lower bounds are shifted to zero;
    variables with only a finite upper bound are negated so the upper
    bound becomes the shifted zero lower bound; doubly unbounded variables
    stay free.  Each inequality gains one slack in [0, inf), and each row
    one artificial.  Columns are ordered: the n variables, the slacks,
    the artificials.  Column j < n maps back through
    x[j] = offset[j] + sign[j] * z[j].  Rows appended after phase one
    (append_rows) keep this order and are re-solved by run_dual.
    """

    def __init__(self, problem: LpProblem):
        n, m = problem.n, problem.m
        offset = np.zeros(n)
        sign = np.ones(n)
        upper = np.full(n, math.inf)
        free = np.zeros(n, dtype=bool)
        for j in range(n):
            lo, hi = problem.lower[j], problem.upper[j]
            if math.isfinite(lo):
                offset[j] = lo
                upper[j] = hi - lo if math.isfinite(hi) else math.inf
            elif math.isfinite(hi):
                offset[j] = hi
                sign[j] = -1.0
            else:
                free[j] = True
        n_real = n + sum(1 for s in problem.senses if s != "=")
        A = np.zeros((m, n_real))
        A[:, :n] = problem.rows * sign[np.newaxis, :]
        b = problem.rhs - problem.rows @ offset
        k = n
        for i, sense in enumerate(problem.senses):
            if sense == "<=":
                A[i, k] = 1.0
                k += 1
            elif sense == ">=":
                A[i, k] = -1.0
                k += 1
        self.problem = problem
        self.offset = offset
        self.sign = sign
        self.m = m
        self.n_real = n_real
        self.n_total = n_real + m
        # phase-two costs; slacks and artificials cost nothing
        self.c = np.zeros(self.n_total)
        self.c[:n] = problem.objective * sign
        # artificial columns: identity signed to make the start basic
        # point nonnegative
        art_sign = np.where(b >= 0.0, 1.0, -1.0)
        self.A = np.hstack([A, np.diag(art_sign)])
        self.upper = np.concatenate([upper, np.full(self.n_total - n, math.inf)])
        self.free = np.concatenate([free, np.zeros(self.n_total - n, dtype=bool)])
        self.basis = np.arange(n_real, n_real + m)
        self.status = np.full(self.n_total, _AT_LOWER, dtype=np.int8)
        self.status[self.basis] = _BASIC
        self.binv = np.diag(art_sign).copy()
        self.xb = np.abs(b.copy())
        self.b = b
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.max_iterations = 2000 + 200 * (m + self.n_total)

    # -- linear algebra upkeep -------------------------------------------

    def _nonbasic_rhs(self) -> np.ndarray:
        """b minus the contribution of nonbasic-at-upper columns."""
        au = np.flatnonzero(self.status == _AT_UPPER)
        if au.size == 0:
            return self.b.copy()
        return self.b - self.A[:, au] @ self.upper[au]

    def _refactor(self):
        basis_mat = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(basis_mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("basis matrix is singular") from exc
        self.xb = self.binv @ self._nonbasic_rhs()
        self.pivots_since_refactor = 0

    def _pivot(self, r: int, j: int, w: np.ndarray):
        """Column j enters at basis row r; w = binv @ A[:, j].

        Product-form update of the basis inverse.  The caller has already
        moved xb and the leaving variable's status.
        """
        self.status[j] = _BASIC
        self.basis[r] = j
        self.binv[r, :] /= w[r]
        others = np.arange(self.m) != r
        self.binv[others, :] -= np.outer(w[others], self.binv[r, :])
        self.pivots_since_refactor += 1

    # -- one phase --------------------------------------------------------

    def run_phase(self, c: np.ndarray) -> str:
        """Iterate to optimality for the cost vector c.

        Returns "Optimal" or "Unbounded".  Raises NumericalBreakdown on
        irrecoverable pivots or iteration explosion.
        """
        price_tol = 1e-9 * max(1.0, float(np.abs(c).max(initial=0.0)))
        bland = False
        degenerate_streak = 0
        span = self.upper.copy()  # lower bound is 0 (free vars never flip)
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown("simplex iteration limit exceeded")
            y = self.binv.T @ c[self.basis]
            d = c - y @ self.A
            nonbasic = self.status != _BASIC
            movable = nonbasic & (self.free | (span > 0.0))
            up_ok = movable & ((self.status == _AT_LOWER) | self.free) & (d > price_tol)
            dn_ok = movable & ((self.status == _AT_UPPER) | self.free) & (d < -price_tol)
            if not (up_ok.any() or dn_ok.any()):
                return "Optimal"
            if bland:
                cand = np.flatnonzero(up_ok | dn_ok)
                j = int(cand[0])
                direction = 1.0 if up_ok[j] else -1.0
            else:
                gain = np.where(up_ok, d, 0.0) + np.where(dn_ok, -d, 0.0)
                j = int(np.argmax(gain))
                direction = 1.0 if up_ok[j] else -1.0
            w = self.binv @ self.A[:, j]
            g = direction * w
            lower_b = np.where(self.free[self.basis], -math.inf, 0.0)
            upper_b = self.upper[self.basis]
            cand_step = np.full(self.m, math.inf)
            pos = g > _PIVOT_TOL
            neg = g < -_PIVOT_TOL
            with np.errstate(divide="ignore", invalid="ignore"):
                if pos.any():
                    cand_step[pos] = (self.xb[pos] - lower_b[pos]) / g[pos]
                if neg.any():
                    cand_step[neg] = (upper_b[neg] - self.xb[neg]) / (-g[neg])
            cand_step = np.maximum(cand_step, 0.0)
            flip_step = span[j] if not self.free[j] else math.inf
            basic_step = float(cand_step.min()) if self.m else math.inf
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
            ties = np.flatnonzero(cand_step <= step + 1e-12)
            if bland:
                r = int(ties[np.argmin(self.basis[ties])])
            else:
                r = int(ties[np.argmax(np.abs(w[ties]))])
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
            if self.free[leaving]:
                self.status[leaving] = _AT_LOWER  # free leaves exactly at 0
            self._pivot(r, j, w)
            if self.pivots_since_refactor >= 128:
                self._refactor()

    # -- phase transitions -------------------------------------------------

    def phase_one(self) -> bool:
        """Minimize the artificial sum.  True when a feasible basis exists."""
        c1 = np.zeros(self.n_total)
        c1[self.n_real:] = -1.0
        outcome = self.run_phase(c1)
        if outcome != "Optimal":  # pragma: no cover - mathematically impossible
            raise NumericalBreakdown("phase one terminated abnormally")
        art_basic = self.basis >= self.n_real
        art_sum = float(self.xb[art_basic].sum()) if art_basic.any() else 0.0
        scale = max(1.0, float(np.abs(self.b).max(initial=0.0)))
        if art_sum > 1e-7 * scale:
            return False
        # pivot remaining artificials out of the basis where possible
        for r in np.flatnonzero(art_basic):
            row = self.binv[r] @ self.A[:, : self.n_real]
            candidates = np.flatnonzero(
                (self.status[: self.n_real] != _BASIC) & (np.abs(row) > _PIVOT_TOL)
            )
            if candidates.size:
                j = int(candidates[np.argmax(np.abs(row[candidates]))])
                self.xb[r] = self.upper[j] if self.status[j] == _AT_UPPER else 0.0
                self.status[self.basis[r]] = _AT_LOWER
                self._pivot(r, j, self.binv @ self.A[:, j])
            else:
                self.xb[r] = 0.0  # dependent row: freeze its artificial at 0
        # artificials may never re-enter
        self.upper[self.n_real:] = 0.0
        self._refactor()
        return True

    def phase_two(self) -> str:
        return self.run_phase(self.c)

    # -- appended rows ------------------------------------------------------

    def append_rows(self, constraints):
        """Append (row, sense, rhs) triples after phase one.

        Each inequality gains a basic slack and each equality a basic
        artificial fixed at [0, 0]; every row also gains an artificial
        column, so the column order is kept.  The new basic variables
        cost nothing, so the reduced costs, and with them dual
        feasibility, are unchanged; only the new basic values can leave
        their bounds.
        """
        old_m = self.problem.m
        self.problem = self.problem._with_rows(constraints)
        rows = self.problem.rows[old_m:]
        senses = self.problem.senses[old_m:]
        k = len(senses)
        n, m, n_real = self.offset.size, self.m, self.n_real
        slack_rows = [i for i, s in enumerate(senses) if s != "="]
        n_slack = len(slack_rows)
        new_real = n_real + n_slack
        A = np.zeros((m + k, new_real + m + k))
        A[:m, :n_real] = self.A[:, :n_real]
        A[:m, new_real:new_real + m] = self.A[:, n_real:]
        A[m:, :n] = rows * self.sign[np.newaxis, :]
        new_basis = new_real + m + np.arange(k)  # the artificials
        for col, i in enumerate(slack_rows):
            A[m + i, n_real + col] = 1.0 if senses[i] == "<=" else -1.0
            new_basis[i] = n_real + col
        A[m + np.arange(k), new_real + m + np.arange(k)] = 1.0

        def widen(old, slack_fill, art_fill):
            return np.concatenate(
                [old[:n_real], np.full(n_slack, slack_fill, dtype=old.dtype),
                 old[n_real:], np.full(k, art_fill, dtype=old.dtype)])

        self.A = A
        self.c = widen(self.c, 0.0, 0.0)
        self.upper = widen(self.upper, math.inf, 0.0)
        self.free = widen(self.free, False, False)
        self.status = widen(self.status, _AT_LOWER, _AT_LOWER)
        self.basis = np.concatenate(
            [np.where(self.basis < n_real, self.basis, self.basis + n_slack),
             new_basis])
        self.status[self.basis] = _BASIC
        self.b = np.concatenate(
            [self.b, self.problem.rhs[old_m:] - rows @ self.offset])
        self.m = m + k
        self.n_real = new_real
        self.n_total = new_real + self.m
        self.max_iterations = 2000 + 200 * (self.m + self.n_total)
        self._refactor()

    def run_dual(self) -> bool:
        """Bounded dual simplex from a dual feasible basis.

        Each pivot takes the basic variable farthest outside its bounds
        to the bound it violates, and picks the entering column by a
        two-pass (Harris) ratio test that keeps the reduced costs of
        their bound's sign.  True once every basic variable is within
        its bounds; False when the leaving row has no entering column,
        which proves the rows infeasible (Koberstein 2005).
        """
        primal_tol = 1e-9 * max(1.0, float(np.abs(self.b).max(initial=0.0)))
        dual_tol = 1e-9 * max(1.0, float(np.abs(self.c).max(initial=0.0)))
        while True:
            lower_b = np.where(self.free[self.basis], -math.inf, 0.0)
            upper_b = self.upper[self.basis]
            below = lower_b - self.xb
            above = self.xb - upper_b
            excess = np.maximum(below, above)
            r = int(np.argmax(excess))
            if excess[r] <= primal_tol:
                return True
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown("simplex iteration limit exceeded")
            # rise = +1: x_B[r] must rise to its lower bound
            rise = 1.0 if below[r] > 0.0 else -1.0
            alpha = self.binv[r] @ self.A
            y = self.binv.T @ self.c[self.basis]
            d = self.c - y @ self.A
            nonbasic = self.status != _BASIC
            at_upper = self.status == _AT_UPPER
            # moving column j by t moves x_B[r] by -alpha[j] * t
            s_alpha = rise * alpha
            eligible = nonbasic & np.where(
                self.free, np.abs(alpha) > _PIVOT_TOL,
                (self.upper > 0.0)
                & np.where(at_upper, s_alpha > _PIVOT_TOL, s_alpha < -_PIVOT_TOL))
            if not eligible.any():
                if self.pivots_since_refactor > 0:
                    self._refactor()
                    continue
                return False
            cand = np.flatnonzero(eligible)
            # distance of each reduced cost from the wrong sign
            room = np.maximum(np.where(self.free[cand], 0.0,
                                       np.where(at_upper[cand], d[cand], -d[cand])),
                              0.0)
            mag = np.abs(alpha[cand])
            bound = float(((room + dual_tol) / mag).min())
            within = cand[room / mag <= bound]
            q = int(within[np.argmax(np.abs(alpha[within]))])
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
        """The solution in the problem's own variables."""
        self._refactor()
        z = np.where(self.status[: self.n_real] == _AT_UPPER,
                     self.upper[: self.n_real], 0.0)
        own = self.basis < self.n_real
        z[self.basis[own]] = self.xb[own]
        return self.offset + self.sign * z[: self.offset.size]

    def solution(self) -> LpSolution:
        """The Optimal solution at the current basis.

        x is clipped to the box and must meet every row to
        10 * FEAS_TOL * max(1, |rhs|); raises NumericalBreakdown if not.
        """
        problem = self.problem
        x = self.extract()
        # clean tiny drift against the original box
        x = np.minimum(np.maximum(x, problem.lower), problem.upper)
        resid = max_violation(problem, x)
        scale = max(1.0, float(np.abs(problem.rhs).max(initial=0.0)))
        if resid > 10.0 * FEAS_TOL * scale:
            raise NumericalBreakdown(
                f"solution residual {resid:.3e} exceeds feasibility tolerance"
            )
        value = float(problem.objective @ x)
        return LpSolution("Optimal", _readonly(x), value, self.iterations)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP with the two-phase bounded-variable simplex.

    Deterministic for a fixed BLAS thread count: identical problems then
    produce identical solutions, pivot for pivot.  Pricing and the basis
    updates use BLAS products, which can round differently with another
    thread count and so take another pivot path.  An Optimal x is clipped
    to the box and must meet every row to 10 * FEAS_TOL * max(1, |rhs|).
    Raises NumericalBreakdown when pivoting degrades beyond recovery.
    """
    solver = _BoundedSimplex(problem)
    if not solver.phase_one():
        return LpSolution("Infeasible", None, None, solver.iterations)
    if solver.phase_two() == "Unbounded":
        return LpSolution("Unbounded", None, None, solver.iterations)
    return solver.solution()


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
    simplex serves every round: the first relaxation is solved in two
    phases, and after rows are appended the previous optimal basis, still
    dual feasible, is re-entered with a bounded dual simplex and
    confirmed by phase two (Koberstein 2005, The dual simplex method,
    techniques for a fast and stable implementation).  A non-Optimal
    relaxation is returned as is; iterations is the total over all
    rounds.  Appended rows are validated as LpProblem validates its
    constraints.  Raises DomainError when max_rounds < 1 and
    MaxRoundsExceeded after max_rounds solves.
    """
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be >= 1, got {max_rounds}")
    solver = _BoundedSimplex(base)
    status = solver.phase_two() if solver.phase_one() else "Infeasible"
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
        status = solver.phase_two() if solver.run_dual() else "Infeasible"
    sol = LpSolution(status, None, None, solver.iterations)
    return sol, CutLog(len(cuts_per_round) + 1, cuts_per_round, last_max)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

_BF_MAX_N = 6
_BF_MAX_ROWS = 24
_BF_BOX = 1e7


def _enumerate_best(hyperplanes, feas_rows, n, objective, tol_feas):
    """Max of objective over feasible intersections of n hyperplanes.

    hyperplanes: list of (coef, rhs) candidate active rows.
    feas_rows: list of (coef, sense, rhs) that any point must satisfy.
    Returns (best_value, best_x, n_solved) with best_x None when no
    feasible vertex exists.
    """
    best_val = -math.inf
    best_x = None
    solved = 0
    coefs = [h[0] for h in hyperplanes]
    rhss = [h[1] for h in hyperplanes]
    for combo in itertools.combinations(range(len(hyperplanes)), n):
        mat = np.array([coefs[i] for i in combo])
        vec = np.array([rhss[i] for i in combo])
        try:
            x = np.linalg.solve(mat, vec)
        except np.linalg.LinAlgError:
            continue
        solved += 1
        if not np.all(np.isfinite(x)):
            continue
        if np.max(np.abs(mat @ x - vec)) > 1e-6 * max(1.0, np.max(np.abs(vec))):
            continue  # nearly singular system, solution unreliable
        ok = True
        for coef, sense, rhs in feas_rows:
            r = float(coef @ x) - rhs
            allow = tol_feas * max(1.0, abs(rhs), float(np.abs(coef @ x)))
            if sense == "<=" and r > allow:
                ok = False
                break
            if sense == ">=" and r < -allow:
                ok = False
                break
            if sense == "=" and abs(r) > allow:
                ok = False
                break
        if not ok:
            continue
        val = float(objective @ x)
        if val > best_val + 1e-12:
            best_val = val
            best_x = x
    return best_val, best_x, solved


def brute_force_lp(problem: LpProblem, tol_feas: float = 1e-9) -> LpSolution:
    """Reference solve by enumerating candidate vertices.

    Guard limits: n <= 6 and rows + finite bounds <= 24.  A large box is
    added on any side a variable lacks, so that the enumerated region is
    a polytope; unboundedness is then decided by enumerating the
    recession directions on the unit box.
    """
    n, m = problem.n, problem.m
    n_finite = int(np.isfinite(problem.lower).sum() + np.isfinite(problem.upper).sum())
    if n > _BF_MAX_N:
        raise SizeLimitExceeded(f"brute force requires n <= {_BF_MAX_N}, got {n}")
    if m + n_finite > _BF_MAX_ROWS:
        raise SizeLimitExceeded(
            f"brute force requires rows + finite bounds <= {_BF_MAX_ROWS}, "
            f"got {m + n_finite}"
        )
    eye = np.eye(n)
    hyper = [(problem.rows[i], float(problem.rhs[i])) for i in range(m)]
    feas = [(problem.rows[i], problem.senses[i], float(problem.rhs[i])) for i in range(m)]
    for j in range(n):
        lo, hi = problem.lower[j], problem.upper[j]
        if math.isfinite(lo):
            hyper.append((eye[j], float(lo)))
            feas.append((eye[j], ">=", float(lo)))
        else:
            hyper.append((eye[j], -_BF_BOX))
        if math.isfinite(hi):
            hyper.append((eye[j], float(hi)))
            feas.append((eye[j], "<=", float(hi)))
        else:
            hyper.append((eye[j], _BF_BOX))
    best_val, best_x, solved = _enumerate_best(hyper, feas, n, problem.objective, tol_feas)
    if best_x is None:
        return LpSolution("Infeasible", None, None, solved)
    # recession check on the unit box: any improving ray means unbounded
    rec_hyper = []
    rec_feas = []
    for i in range(m):
        rec_hyper.append((problem.rows[i], 0.0))
        rec_feas.append((problem.rows[i], problem.senses[i], 0.0))
    for j in range(n):
        if math.isfinite(problem.lower[j]):
            rec_feas.append((eye[j], ">=", 0.0))
            rec_hyper.append((eye[j], 0.0))
        if math.isfinite(problem.upper[j]):
            rec_feas.append((eye[j], "<=", 0.0))
            if not math.isfinite(problem.lower[j]):
                rec_hyper.append((eye[j], 0.0))
        rec_hyper.append((eye[j], -1.0))
        rec_hyper.append((eye[j], 1.0))
        rec_feas.append((eye[j], ">=", -1.0))
        rec_feas.append((eye[j], "<=", 1.0))
    rec_val, rec_x, solved2 = _enumerate_best(
        rec_hyper, rec_feas, n, problem.objective, tol_feas
    )
    if rec_x is not None and rec_val > 1e-9 * max(1.0, float(np.abs(problem.objective).max())):
        return LpSolution("Unbounded", None, None, solved + solved2)
    return LpSolution("Optimal", _readonly(best_x), best_val, solved + solved2)
