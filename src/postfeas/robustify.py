"""Credible-set robustification of uncertain constraint rows.

An uncertain row is the stacked vector u = (a, b) of coefficients and
right-hand side; the constraint a'x <= b is u'z(x) <= 0 with
z(x) = (x, -1).  Robustification replaces each row's uncertainty with an
ellipsoidal credible set and enforces the worst case over it, which is a
second-order-cone constraint (Ben-Tal & Nemirovski 1999):

    center'z + kappa * ||factor'z||_2 <= 0.

The ellipsoids are a GaussianRows posterior plus one radius kappa: row i
ranges over {centers[i] + kappa * factors[i] w : ||w||_2 <= 1}, so the
model that defines the robust program also certifies its solution.
With kappa the square root of a chi-square quantile at level alpha/m per
row, simultaneous coverage follows from the Bonferroni union bound.  A
cutting-plane loop reduces the robust program to plain LPs, since the
support function of an ellipsoid has a closed-form maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import stats
from .errors import DimensionMismatch, DomainError, NumericalBreakdown
from .lp import (
    CutLog,
    LpProblem,
    LpSolution,
    solve_cutting_planes,
)
from .posterior import GaussianRows, StudentTRhs

__all__ = [
    "RobustLp",
    "soc_support",
    "bonferroni_kappa",
    "robustify_rows",
    "solve_robust_cutting_planes",
    "rhs_quantile_tighten",
    "rb_heuristic_tighten",
]

# A robust row separates when its support exceeds this.
_CUT_TOL = 1e-7
# Relaxations solved before the cutting-plane loop gives up.
_MAX_ROUNDS = 500


def soc_support(rows: GaussianRows, kappa: float,
                z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support max{u'z : u in ellipsoid i} and its maximizer, per row.

    value_i = centers[i]'z + kappa * ||factors[i]'z||_2,
    u*_i    = centers[i] + kappa * factors[i] (factors[i]'z) / ||factors[i]'z||_2,
    with u*_i = centers[i] when factors[i]'z = 0.  Returns the values
    (R,) and the maximizers (R, n + 1).  Raises NumericalBreakdown,
    naming the row, when a value or maximizer overflows or is NaN, with
    no warning: a norm that overflows gives kappa * inf, and NaN at
    kappa = 0, which no comparison would read as violated.
    """
    z = np.asarray(z, dtype=float)
    dim = rows.centers.shape[1]
    if z.shape != (dim,):
        raise DimensionMismatch(f"z has shape {z.shape}, expected ({dim},)")
    if not kappa >= 0.0:
        raise DomainError(f"kappa must be >= 0, got {kappa!r}")
    values = np.empty(len(rows.centers))
    maximizers = rows.centers.copy()
    with np.errstate(over="raise", invalid="raise"):
        for i, (center, factor) in enumerate(zip(rows.centers, rows.factors)):
            try:
                fz = factor.T @ z
                norm = math.sqrt(fz @ fz)  # the bits of np.linalg.norm(fz)
                value = center @ z + kappa * norm
                if norm != 0.0:
                    maximizers[i] = center + (kappa / norm) * (factor @ fz)
            except FloatingPointError:
                value = math.nan
            if not math.isfinite(value):
                raise NumericalBreakdown(f"the support of robust row {i} is not finite")
            values[i] = value
    return values, maximizers


def _split_alpha(alpha: float, m: int) -> float:
    """Per-row level alpha/m of a Bonferroni split over m rows."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    return alpha / m


def bonferroni_kappa(alpha: float, m: int, dim: int) -> float:
    """Radius sqrt(chi2_quantile(1 - alpha/m, dim)) for m simultaneous rows."""
    level = _split_alpha(alpha, m)
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    return math.sqrt(stats.chi2_quantile(1.0 - level, dim))


@dataclass(frozen=True)
class RobustLp:
    """Deterministic base problem plus rows robust over their ellipsoids."""

    base: LpProblem
    rows: GaussianRows
    kappa: float


def robustify_rows(
    base: LpProblem,
    rows: Sequence[tuple[np.ndarray, np.ndarray]],
    alpha: float,
) -> RobustLp:
    """Per-row credible ellipsoids at level 1 - alpha/m (Bonferroni).

    rows: (center, cov) pairs in R^(n+1), stacking coefficients and rhs.
    """
    rows = list(rows)
    if not rows:
        raise DimensionMismatch("need at least one uncertain row")
    kappa = bonferroni_kappa(alpha, len(rows), base.n + 1)
    centers, covs = zip(*rows)
    gaussian = GaussianRows.from_covs(centers, covs)
    if gaussian.centers.shape[1] != base.n + 1:
        raise DimensionMismatch(
            f"uncertain rows live in R^(n+1) = R^{base.n + 1}, "
            f"got dim {gaussian.centers.shape[1]}"
        )
    return RobustLp(base=base, rows=gaussian, kappa=kappa)


def solve_robust_cutting_planes(rlp: RobustLp) -> tuple[LpSolution, CutLog]:
    """Exact cutting-plane solve of the robustified program.

    Row generation whose separation oracle evaluates every robust row's
    support at the incumbent and cuts with the maximizing row u* wherever
    the support exceeds 1e-7.  Terminates when no row separates; raises
    MaxRoundsExceeded after 500 relaxations.  An Unbounded relaxation
    raises DomainError: it has no incumbent to separate at, so the base
    LP must bound the decision.  An Infeasible one is returned as is.  A
    support that is not finite raises NumericalBreakdown naming its row
    (soc_support).
    """
    z = np.empty(rlp.base.n + 1)  # (x, -1) at the incumbent x
    z[-1] = -1.0

    def separate(x: np.ndarray | None) -> tuple[list, float]:
        if x is None:
            return [], math.inf
        z[:-1] = x
        values, maximizers = soc_support(rlp.rows, rlp.kappa, z)
        support = values.tolist()
        cuts = [(u[:-1], "<=", float(u[-1]))
                for value, u in zip(support, maximizers) if value > _CUT_TOL]
        return cuts, max(0.0, *support)

    sol, log = solve_cutting_planes(rlp.base, separate, _MAX_ROUNDS)
    if sol.status == "Unbounded":
        raise DomainError(
            "a relaxation of the robust program is unbounded, so no robust row "
            "could be separated; the base LP must bound the decision"
        )
    return sol, log


def rhs_quantile_tighten(model: StudentTRhs, alpha: float) -> np.ndarray:
    """Tightened right-hand sides at the alpha/m predictive quantile.

    Takes the lower alpha/m quantile of each row's Student-t predictive;
    with m rows, the union bound gives simultaneous level alpha.  The
    t quantile is solved once per distinct dof.
    """
    level = _split_alpha(alpha, model.dof.size)
    dofs, row_dof = np.unique(model.dof, return_inverse=True)
    t = np.array([stats.student_t_quantile(level, dof) for dof in dofs])
    return model.loc + model.scale * t[row_dof]


def rb_heuristic_tighten(model: StudentTRhs, alpha: float) -> np.ndarray:
    """Normal-theory heuristic: mean - z_{1-alpha/m} * sd per row.

    sd = scale * sqrt(dof / (dof - 2)) is the predictive standard
    deviation, finite only for dof > 2.
    """
    level = _split_alpha(alpha, model.dof.size)
    if np.any(model.dof <= 2.0):
        raise DomainError("the predictive sd needs dof > 2 in every row")
    sd = model.scale * np.sqrt(model.dof / (model.dof - 2.0))
    return model.loc - stats.normal_quantile(1.0 - level) * sd
