"""Posterior-scenario approximation of chance constraints.

Enforcing a constraint on N i.i.d. posterior draws makes the optimizer
feasible for all of them at once; the probability that the violation
mass of the scenario solution exceeds eps is bounded by the binomial
tail sum_{j<d} C(N,j) eps^j (1-eps)^{N-j}, with d the support rank of
the uncertainty (for right-hand-side uncertainty of dimension n, d = n
is an upper bound; d = 1 when a single scalar matters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stats
from .errors import CountOutOfRange, DimensionMismatch, DomainError, EmptyInput
from .lp import SENSES, LpProblem

__all__ = [
    "ScenarioSet",
    "required_sample_size",
    "violation_bound",
    "build_scenario_lp",
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


@dataclass(frozen=True)
class ScenarioSet:
    """N sampled realizations of the uncertain constraint block.

    coeff is (N, m_u, n): the coefficient rows of each draw; rhs is
    (N, m_u); senses is one sense per uncertain row, shared across
    draws.  Right-hand-side-only uncertainty repeats the fixed rows
    across draws.  source_stream records the (seed, stream_id) the draws
    came from, for replay.
    """

    coeff: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    source_stream: tuple[int, int]

    def __post_init__(self):
        coeff = np.asarray(self.coeff, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if coeff.ndim != 3:
            raise DimensionMismatch("coeff must be (N, m_u, n)")
        n_draws, m_u, _ = coeff.shape
        if rhs.shape != (n_draws, m_u):
            raise DimensionMismatch(
                f"rhs has shape {rhs.shape}, expected ({n_draws}, {m_u})"
            )
        if len(self.senses) != m_u:
            raise DimensionMismatch("one sense per uncertain row required")
        for s in self.senses:
            if s not in SENSES:
                raise DomainError(f"sense must be one of {SENSES}, got {s!r}")
        if n_draws == 0:
            raise EmptyInput("a scenario set needs at least one draw")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(
            self, "source_stream",
            (int(self.source_stream[0]), int(self.source_stream[1])),
        )

    @property
    def n_draws(self) -> int:
        return self.coeff.shape[0]

    @property
    def n_uncertain_rows(self) -> int:
        return self.coeff.shape[1]

    @classmethod
    def from_rhs_draws(cls, rows, senses, rhs_draws, source_stream) -> "ScenarioSet":
        """Fixed coefficient rows with sampled right-hand sides."""
        rows = np.asarray(rows, dtype=float)
        rhs_draws = np.asarray(rhs_draws, dtype=float)
        if rows.ndim != 2:
            raise DimensionMismatch("rows must be (m_u, n)")
        if rhs_draws.ndim != 2 or rhs_draws.shape[1] != rows.shape[0]:
            raise DimensionMismatch("rhs_draws must be (N, m_u)")
        coeff = np.broadcast_to(
            rows[np.newaxis, :, :], (rhs_draws.shape[0],) + rows.shape
        ).copy()
        return cls(coeff=coeff, senses=tuple(senses), rhs=rhs_draws,
                   source_stream=source_stream)


def _dominated_mask(coeff_i: np.ndarray, rhs_i: np.ndarray, sense: str) -> np.ndarray:
    """True where a draw of row i is implied by another draw (x >= 0).

    For "<=" rows, draw k is implied by k' when coeff_k' >= coeff_k
    componentwise and rhs_k' <= rhs_k; for ">=" rows the inequalities
    flip.  Exact ties keep the lowest-index draw.
    """
    n_draws = coeff_i.shape[0]
    if sense == "=":
        return np.zeros(n_draws, dtype=bool)
    if sense == "<=":
        ge = np.all(coeff_i[:, None, :] >= coeff_i[None, :, :], axis=2)
        rhs_le = rhs_i[:, None] <= rhs_i[None, :]
        implies = ge & rhs_le  # implies[k', k]: k' implies k
    else:
        le = np.all(coeff_i[:, None, :] <= coeff_i[None, :, :], axis=2)
        rhs_ge = rhs_i[:, None] >= rhs_i[None, :]
        implies = le & rhs_ge
    np.fill_diagonal(implies, False)
    identical = np.all(coeff_i[:, None, :] == coeff_i[None, :, :], axis=2) & (
        rhs_i[:, None] == rhs_i[None, :]
    )
    np.fill_diagonal(identical, False)
    # of identical draws only the lowest index survives
    idx = np.arange(n_draws)
    tie_keep = identical & (idx[:, None] > idx[None, :])
    implies = implies & ~tie_keep
    return implies.any(axis=0)


def build_scenario_lp(
    base: LpProblem, scen: ScenarioSet, prefilter: bool = False
) -> LpProblem:
    """Base problem with the sampled constraint blocks appended.

    Without prefilter the result has exactly m_u * N extra rows.  With
    prefilter=True, draws implied componentwise by another draw are
    dropped; that reduction is valid only when every variable lower
    bound is >= 0, and is refused otherwise.
    """
    if scen.coeff.shape[2] != base.n:
        raise DimensionMismatch(
            f"scenario rows have {scen.coeff.shape[2]} columns, expected {base.n}"
        )
    constraints = base.constraints()
    if prefilter and np.any(base.lower < 0.0):
        raise DomainError(
            "the dominance prefilter requires all variable lower bounds >= 0"
        )
    for i in range(scen.n_uncertain_rows):
        sense = scen.senses[i]
        keep = np.ones(scen.n_draws, dtype=bool)
        if prefilter:
            keep = ~_dominated_mask(scen.coeff[:, i, :], scen.rhs[:, i], sense)
        for k in np.flatnonzero(keep):
            constraints.append(
                (scen.coeff[k, i], sense, float(scen.rhs[k, i]))
            )
    return LpProblem(base.objective, constraints, base.bounds())


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
