"""Credible-set robustification of uncertain constraint rows.

An uncertain row is the stacked vector u = (a, b) of coefficients and
right-hand side; the constraint a'x <= b is u'z(x) <= 0 with
z(x) = (x, -1).  Robustification replaces each row's uncertainty with an
ellipsoidal credible set and enforces the worst case over it, which is a
second-order-cone constraint:

    center'z + kappa * ||factor'z||_2 <= 0.

With kappa the square root of a chi-square quantile at level alpha/m per
row, simultaneous coverage follows from the Bonferroni union bound.  A
cutting-plane loop reduces the robust program to plain LPs, since the
support function of an ellipsoid has a closed-form maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import stats
from .errors import DimensionMismatch, DomainError
from .lp import (
    CutLog,
    LpProblem,
    LpSolution,
    SolverTolerances,
    solve_cutting_planes,
)
from .posterior import predictive_quantile, psd_factor

__all__ = [
    "Ellipsoid",
    "RobustRow",
    "RobustLp",
    "SupportResult",
    "soc_support",
    "bonferroni_kappa",
    "robustify_rows",
    "solve_robust_cutting_planes",
    "rhs_quantile_tighten",
    "rb_heuristic_tighten",
]


@dataclass(frozen=True)
class Ellipsoid:
    """{center + radius * factor w : ||w||_2 <= 1} with factor factor' = cov."""

    center: np.ndarray
    cov: np.ndarray
    factor: np.ndarray
    radius: float

    @classmethod
    def from_cov(cls, center, cov, radius: float) -> "Ellipsoid":
        center = np.asarray(center, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if center.ndim != 1:
            raise DimensionMismatch("center must be a vector")
        p = center.size
        if cov.shape != (p, p):
            raise DimensionMismatch(f"cov has shape {cov.shape}, expected ({p}, {p})")
        radius = float(radius)
        if radius < 0.0:
            raise DomainError(f"radius must be >= 0, got {radius!r}")
        return cls(center=center, cov=cov, factor=psd_factor(cov), radius=radius)

    @property
    def dim(self) -> int:
        return self.center.size


class SupportResult(NamedTuple):
    value: float
    maximizer: np.ndarray


def soc_support(ell: Ellipsoid, z: np.ndarray) -> SupportResult:
    """Support function max{u'z : u in ell} and its maximizer.

    value = center'z + radius * ||factor'z||_2,
    u*    = center + radius * factor (factor'z) / ||factor'z||_2,
    with u* = center when factor'z = 0.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (ell.dim,):
        raise DimensionMismatch(f"z has shape {z.shape}, expected ({ell.dim},)")
    fz = ell.factor.T @ z
    norm = float(np.linalg.norm(fz))
    value = float(ell.center @ z) + ell.radius * norm
    if norm == 0.0:
        return SupportResult(value, ell.center.copy())
    u_star = ell.center + (ell.radius / norm) * (ell.factor @ fz)
    return SupportResult(value, u_star)


def bonferroni_kappa(alpha: float, m: int, dim: int) -> float:
    """Radius sqrt(chi2_quantile(1 - alpha/m, dim)) for m simultaneous rows."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    return math.sqrt(stats.chi2_quantile(1.0 - alpha / m, dim))


@dataclass(frozen=True)
class RobustRow:
    """One robustified row: sup over the ellipsoid of u'z(x) <= 0."""

    ellipsoid: Ellipsoid
    kappa: float


@dataclass(frozen=True)
class RobustLp:
    """Deterministic base problem plus robustified uncertain rows."""

    base: LpProblem
    robust_rows: tuple[RobustRow, ...]


def _check_row_dim(base: LpProblem, dim: int):
    if dim != base.n + 1:
        raise DimensionMismatch(
            f"uncertain rows live in R^(n+1) = R^{base.n + 1}, got dim {dim}"
        )


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
    m = len(rows)
    kappa = bonferroni_kappa(alpha, m, base.n + 1)
    robust = []
    for center, cov in rows:
        center = np.asarray(center, dtype=float)
        _check_row_dim(base, center.size)
        robust.append(RobustRow(Ellipsoid.from_cov(center, cov, kappa), kappa))
    return RobustLp(base=base, robust_rows=tuple(robust))


def solve_robust_cutting_planes(
    rlp: RobustLp,
    tol_cut: float = 1e-7,
    max_rounds: int = 500,
    tolerances: SolverTolerances | None = None,
) -> tuple[LpSolution, CutLog]:
    """Exact cutting-plane solve of the robustified program.

    Row generation whose separation oracle evaluates every robust row's
    support at the incumbent and cuts with the maximizing row u* wherever
    the support exceeds tol_cut.  Terminates when no row separates;
    raises MaxRoundsExceeded after max_rounds.  A non-optimal relaxation
    status is returned as is.
    """

    def separate(x: np.ndarray) -> tuple[list, float]:
        z = np.concatenate([x, [-1.0]])
        cuts = []
        worst = 0.0
        for row in rlp.robust_rows:
            support = soc_support(row.ellipsoid, z)
            worst = max(worst, support.value)
            if support.value > tol_cut:
                u = support.maximizer
                cuts.append((u[:-1], "<=", float(u[-1])))
        return cuts, worst

    return solve_cutting_planes(rlp.base, separate, max_rounds, tolerances)


def rhs_quantile_tighten(predictives: Sequence, alpha: float) -> np.ndarray:
    """Tightened right-hand sides at the alpha/m predictive quantile.

    Takes the lower alpha/m quantile of each row's Student-t predictive;
    with m rows, the union bound gives simultaneous level alpha.
    """
    preds = list(predictives)
    if not preds:
        raise DimensionMismatch("need at least one predictive")
    alpha = float(alpha)
    m = len(preds)
    if not (0.0 < alpha / m < 1.0):
        raise DomainError(f"alpha/m must be in (0, 1), got {alpha / m!r}")
    return np.array([predictive_quantile(p, alpha / m) for p in preds])


def rb_heuristic_tighten(means, sds, alpha: float, m: int) -> np.ndarray:
    """Normal-theory heuristic: mean - z_{1-alpha/m} * sd per row."""
    mu = np.asarray(means, dtype=float)
    sd = np.asarray(sds, dtype=float)
    if mu.shape != sd.shape or mu.ndim != 1:
        raise DimensionMismatch("means and sds must be equal-length vectors")
    if np.any(sd < 0.0):
        raise DomainError("sds must be nonnegative")
    alpha = float(alpha)
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if not (0.0 < alpha / m < 1.0):
        raise DomainError(f"alpha/m must be in (0, 1), got {alpha / m!r}")
    z = stats.normal_quantile(1.0 - alpha / m)
    return mu - z * sd
