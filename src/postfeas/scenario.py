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
    CutLog,
    LpProblem,
    LpSolution,
    solve_cutting_planes,
)

__all__ = [
    "required_sample_size",
    "solve_scenario_lp",
]


def required_sample_size(eps: float, delta: float, d: int) -> int:
    """Minimal N with stats.binomial_tail(N, eps, d) <= delta.

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
    while stats.binomial_tail(hi, eps, d) > delta:
        lo = hi
        hi *= 2
        if hi > 1 << 40:
            raise DomainError("required sample size exceeds 2^40")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stats.binomial_tail(mid, eps, d) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def solve_scenario_lp(
    base: LpProblem, model, batch
) -> tuple[LpSolution, CutLog]:
    """Solve base plus all rows of a batch of draws by row generation.

    model.as_rows(batch) gives (coeff, rhs): constraint i under draw k is
    coeff[k, i] @ x <= rhs[k, i], with rhs (N, m_u) and coeff (N, m_u, n)
    or, for fixed rows, (m_u, n).  as_rows is called once and is the only
    part of model read here.  Each round adds, for each uncertain row,
    the draw not yet added with the largest residual coeff @ x - rhs at
    the incumbent (ties: lowest draw index), if that residual exceeds
    FEAS_TOL * max(1, |rhs|), a tenth of the residual solve_lp accepts.
    A scenario solution is fixed by a few support rows (Calafiore & Campi
    2006), so few of the N * m_u rows are ever added.  At an Unbounded
    relaxation every row not yet added is added at once (row i's draws in
    order, then row i + 1's) and the same simplex re-enters, so the
    status returned is always the stacked LP's.
    """
    coeff, rhs = (np.asarray(a, dtype=float) for a in model.as_rows(batch))
    if rhs.ndim != 2 or coeff.shape not in (rhs.shape + (base.n,),
                                            rhs.shape[1:] + (base.n,)):
        raise DimensionMismatch(
            f"scenario rows have shape {coeff.shape} and rhs {rhs.shape}, "
            f"expected (N, m_u, {base.n}) or (m_u, {base.n}) with (N, m_u)"
        )
    n_draws, m_u = rhs.shape
    if n_draws == 0:
        raise EmptyInput("a scenario program needs at least one draw")
    if not (np.isfinite(coeff).all() and np.isfinite(rhs).all()):
        raise DomainError("scenario rows and rhs must be finite")
    per_draw = np.broadcast_to(coeff, (n_draws, m_u, base.n))

    added = np.zeros((n_draws, m_u), dtype=bool)
    slack = FEAS_TOL * np.maximum(1.0, np.abs(rhs))

    def separate(x: np.ndarray | None) -> tuple[list, float]:
        if x is None:  # Unbounded: every row not yet added, stacked order
            rows = [(per_draw[k, i], "<=", float(rhs[k, i]))
                    for i, k in zip(*(~added.T).nonzero())]
            added[:] = True
            return rows, np.inf
        resid = coeff @ x - rhs
        worst = max(float(resid.max()), 0.0)
        resid[added | (resid <= slack)] = -np.inf
        rows = []
        for i, k in enumerate(np.argmax(resid, axis=0)):
            if resid[k, i] > -np.inf:
                added[k, i] = True
                rows.append((per_draw[k, i], "<=", float(rhs[k, i])))
        return rows, worst

    return solve_cutting_planes(base, separate, n_draws * m_u + 1)
