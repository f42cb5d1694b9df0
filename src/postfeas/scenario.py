"""Posterior-scenario approximation of chance constraints.

Enforcing a constraint on N i.i.d. posterior draws makes the optimizer
feasible for all of them at once; the probability that the violation
mass of the scenario solution exceeds eps is bounded by the binomial
tail sum_{j<d} C(N,j) eps^j (1-eps)^{N-j}, with d the support rank of
the uncertainty (for right-hand-side uncertainty of dimension n, d = n
is an upper bound; d = 1 when a single scalar matters).
"""

from __future__ import annotations

import numpy as np

from . import stats
from .errors import CountOutOfRange, DimensionMismatch, DomainError, EmptyInput
from .lp import (
    FEAS_TOL,
    SENSES,
    CutLog,
    LpProblem,
    LpSolution,
    solve_cutting_planes,
    solve_lp,
)

__all__ = [
    "required_sample_size",
    "violation_bound",
    "solve_scenario_lp",
    "rhs_scenario_min",
]


def violation_bound(n_draws: int, eps: float, d: int) -> float:
    """Binomial tail bound on P(violation mass of the scenario solution > eps)."""
    return stats.binomial_tail(n_draws, eps, d)


def required_sample_size(eps: float, delta: float, d: int) -> int:
    """Minimal N with violation_bound(N, eps, d) <= delta.

    Exponential search for an upper bracket, then binary search; the
    bound is decreasing in N, so the result is exact-minimal.
    """
    eps = float(eps)
    delta = float(delta)
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must be in (0, 1), got {eps!r}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0, 1), got {delta!r}")
    if d < 1:
        raise CountOutOfRange(f"d must be >= 1, got {d}")
    lo = d - 1  # tail is exactly 1 here: never sufficient
    hi = max(d, 1)
    while violation_bound(hi, eps, d) > delta:
        lo = hi
        hi *= 2
        if hi > 1 << 40:
            raise DomainError("required sample size exceeds 2^40")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if violation_bound(mid, eps, d) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def solve_scenario_lp(
    base: LpProblem, coeff, senses, rhs
) -> tuple[LpSolution, CutLog]:
    """Solve base plus the row coeff[k, i] x (senses[i]) rhs[k, i] for
    every draw k and uncertain row i, by row generation.

    coeff is (N, m_u, n) and rhs is (N, m_u); fixed coefficient rows with
    sampled right-hand sides can pass a broadcast view as coeff.  Each
    round adds, for each uncertain row, the draw not yet added with the
    largest residual at the incumbent (ties: lowest draw index), if that
    residual exceeds FEAS_TOL * max(1, |rhs|), a tenth of the residual
    solve_lp accepts; rounding noise on "=" rows adds nothing.
    A scenario solution is fixed by a few support rows (Calafiore & Campi
    2006), so few of the N * m_u rows are ever added.  If a relaxation is
    Unbounded before every row is in, the stacked LP is solved once, so
    the status returned is always the stacked LP's.
    """
    coeff = np.asarray(coeff, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    senses = tuple(senses)
    if coeff.ndim != 3:
        raise DimensionMismatch("coeff must be (N, m_u, n)")
    n_draws, m_u, n = coeff.shape
    if n != base.n:
        raise DimensionMismatch(
            f"scenario rows have {n} columns, expected {base.n}"
        )
    if rhs.shape != (n_draws, m_u):
        raise DimensionMismatch(
            f"rhs has shape {rhs.shape}, expected ({n_draws}, {m_u})"
        )
    if len(senses) != m_u:
        raise DimensionMismatch("one sense per uncertain row required")
    for s in senses:
        if s not in SENSES:
            raise DomainError(f"sense must be one of {SENSES}, got {s!r}")
    if n_draws == 0:
        raise EmptyInput("a scenario program needs at least one draw")
    if not (np.isfinite(coeff).all() and np.isfinite(rhs).all()):
        raise DomainError("scenario rows and rhs must be finite")

    sign = np.array([-1.0 if s == ">=" else 1.0 for s in senses])
    equality = np.array([s == "=" for s in senses])
    added = np.zeros((n_draws, m_u), dtype=bool)
    slack = FEAS_TOL * np.maximum(1.0, np.abs(rhs))

    def separate(x: np.ndarray) -> tuple[list, float]:
        resid = np.einsum("kin,n->ki", coeff, x) - rhs
        resid = np.where(equality, np.abs(resid), sign * resid)
        worst = max(float(resid.max()), 0.0)
        resid[added | (resid <= slack)] = -np.inf
        rows = []
        for i, k in enumerate(np.argmax(resid, axis=0)):
            if resid[k, i] > -np.inf:
                added[k, i] = True
                rows.append((coeff[k, i], senses[i], float(rhs[k, i])))
        return rows, worst

    sol, log = solve_cutting_planes(base, separate, n_draws * m_u + 1)
    if sol.status == "Unbounded" and not added.all():
        # a row not yet added may still bound the stacked program
        stacked = base.constraints() + [
            (coeff[k, i], senses[i], float(rhs[k, i]))
            for i in range(m_u)
            for k in range(n_draws)
        ]
        sol = solve_lp(LpProblem(base.objective, stacked, base.bounds()))
        log = CutLog(log.rounds + 1,
                     log.cuts_per_round + [int((~added).sum())],
                     log.final_max_support)
    return sol, log


def rhs_scenario_min(rhs_draws) -> np.ndarray:
    """Componentwise minimum of right-hand-side draws.

    For "<=" rows with fixed coefficients, enforcing all N draws equals
    enforcing the single row with this minimal rhs.
    """
    draws = np.asarray(rhs_draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, np.newaxis]
    if draws.ndim != 2 or draws.shape[0] == 0:
        raise EmptyInput("rhs_scenario_min needs at least one draw")
    return draws.min(axis=0)
