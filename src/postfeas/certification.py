"""Monte Carlo feasibility certificates.

A candidate decision is replayed against M posterior draws, and a
stack of decisions is scored on one shared set of them.  A model needs
only draw(rng, count), which meets the prefix contract below, and
residuals(x, batch); the built-in families derive residuals from their
as_rows, the rows scenario programs enforce.  A draw counts as a
violation unless every constraint residual is <= 0, with no tolerance
(the raw sign of the residual decides, and a NaN residual is a
violation).  The binomial count s then gives an exact one-sided
Clopper-Pearson upper confidence bound on the posterior violation
probability.  For a BetaCoverage the violation
is 0 or 1 given the coverages, so that certificate already bounds the
posterior probability that the decision is infeasible.

Draws come in blocks of BLOCK: draw j belongs to block j // BLOCK, and
every block is drawn on its own stream derived from the caller's Rng.
The last block asks the model for only the draws it needs, which rests
on a prefix contract every model must meet: draw(rng, k) is the first k
draws of draw(rng, BLOCK) on an Rng in the same state, for every k <=
BLOCK.  The built-in families meet it, since numpy fills their arrays
draw by draw along the first axis.  So the first M draws are the same
for every larger M, cutting the work at block boundaries cannot change
a result, and memory stays bounded by one block however large M is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator

import numpy as np

from . import stats
from .errors import CountOutOfRange, DimensionMismatch, DomainError

__all__ = [
    "BLOCK",
    "Certificate",
    "clopper_pearson_upper",
    "draw_blocks",
    "violation_flags",
    "estimate_violation",
    "certify",
    "certificate_to_json",
]

BLOCK = 1024  # posterior draws per block


def clopper_pearson_upper(s: int, m_draws: int, beta: float) -> float:
    """One-sided upper confidence bound for a binomial proportion.

    Level 1 - beta; equals BetaInv(1 - beta; s + 1, M - s) for s < M and
    exactly 1 for s = M.  At s = 0 it reduces to 1 - beta^(1/M).  s and
    M must be integers (numpy integers included, bool not).
    """
    for name, count in (("s", s), ("M", m_draws)):
        if isinstance(count, bool) or not isinstance(count, Integral):
            raise CountOutOfRange(f"{name} must be an integer, got {count!r}")
    s = int(s)
    m_draws = int(m_draws)
    if m_draws < 1:
        raise CountOutOfRange(f"M must be >= 1, got {m_draws}")
    if s < 0 or s > m_draws:
        raise CountOutOfRange(f"s must be in [0, M], got s={s}, M={m_draws}")
    beta = float(beta)
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must be in (0, 1), got {beta!r}")
    if s == m_draws:
        return 1.0
    return stats.beta_quantile(1.0 - beta, s + 1.0, float(m_draws - s))


def draw_blocks(model, m_draws: int, rng: stats.Rng) -> Iterator[np.ndarray]:
    """The first m_draws draws of model, one block per item.

    Block i is model.draw(Rng.for_purpose(rng.seed, rng.stream_id,
    "block", i), count) with count = min(BLOCK, m_draws - i * BLOCK),
    which by the prefix contract (module docstring) is the first count
    draws of a whole block.  rng only names the streams: its own
    position is neither read nor advanced.
    """
    if m_draws < 1:
        raise CountOutOfRange(f"M must be >= 1, got {m_draws}")
    for i, start in enumerate(range(0, m_draws, BLOCK)):
        block_rng = stats.Rng.for_purpose(rng.seed, rng.stream_id, "block", i)
        yield model.draw(block_rng, min(BLOCK, m_draws - start))


def _residuals(model, x: np.ndarray, batch) -> np.ndarray:
    """model.residuals(x, batch), checked to be (count, n_constraints)."""
    residuals = np.asarray(model.residuals(x, batch), dtype=float)
    if residuals.ndim != 2 or residuals.shape[0] != len(batch):
        raise DomainError(
            f"residuals have shape {residuals.shape}, expected "
            f"({len(batch)}, n_constraints)"
        )
    return residuals


def violation_flags(model, x: np.ndarray, batch) -> np.ndarray:
    """(count, n_constraints) flags: True unless the residual is <= 0."""
    return ~(_residuals(model, x, batch) <= 0.0)


def estimate_violation(
    xs: np.ndarray,
    model,
    m_draws: int,
    rng: stats.Rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Count violating posterior draws at each decision of a stack.

    xs is (D, n), one decision per row, and every decision is scored on
    the same draws.  Returns s (D,) and per-constraint counts
    (D, n_constraints).  A non-finite decision raises DomainError rather
    than certify anything.  Each block's flags are laid out draw-major,
    (D, n_constraints, count) in C order, so both counts reduce along
    contiguous draws; they equal those of violation_flags.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or len(xs) == 0:
        raise DimensionMismatch(
            f"decisions must be a (D, n) stack with D >= 1, got shape {xs.shape}"
        )
    if not np.all(np.isfinite(xs)):
        raise DomainError("every decision to certify must be finite")
    s, counts = np.zeros(len(xs), dtype=int), 0
    for batch in draw_blocks(model, m_draws, rng):
        flags = None
        for d, x in enumerate(xs):
            residuals = _residuals(model, x, batch).T
            if flags is None:
                flags = np.empty((len(xs),) + residuals.shape, dtype=bool)
            elif residuals.shape != flags.shape[1:]:
                raise DomainError(
                    f"residuals have shape {residuals.T.shape} at decision {d}, "
                    f"expected {flags.shape[:0:-1]} as at decision 0"
                )
            np.less_equal(residuals, 0.0, out=flags[d])
        np.logical_not(flags, out=flags)
        s += flags.any(axis=1).sum(axis=1)
        counts = counts + flags.sum(axis=2)
    return s, counts


@dataclass(frozen=True)
class Certificate:
    """Monte Carlo feasibility certificate for one decision."""

    M: int
    s: int
    v_hat: float
    upper_bound: float
    beta: float
    per_constraint_rates: tuple[float, ...] | None = None

    @classmethod
    def from_counts(cls, s, counts, m_draws: int, beta: float) -> "Certificate":
        """s violating draws of m_draws, with per-constraint counts or None."""
        upper_bound = clopper_pearson_upper(s, m_draws, beta)
        s = int(s)
        return cls(
            M=m_draws,
            s=s,
            v_hat=s / m_draws,
            upper_bound=upper_bound,
            beta=float(beta),
            per_constraint_rates=None if counts is None
            else tuple(float(c) / m_draws for c in counts),
        )


def certify(
    x: np.ndarray,
    model,
    m_draws: int,
    beta: float,
    rng: stats.Rng,
) -> Certificate:
    """Certificate of one decision: estimate_violation on a stack of one.

    beta is checked before any draw is made.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must be in (0, 1), got {beta!r}")
    s, counts = estimate_violation(np.asarray(x, dtype=float)[np.newaxis],
                                   model, m_draws, rng)
    return Certificate.from_counts(s[0], counts[0], m_draws, beta)


def certificate_to_json(cert: Certificate) -> str:
    doc = {
        "M": cert.M,
        "s": cert.s,
        "v_hat": cert.v_hat,
        "upper_bound": cert.upper_bound,
        "beta": cert.beta,
        "per_constraint": None
        if cert.per_constraint_rates is None
        else list(cert.per_constraint_rates),
    }
    return json.dumps(doc)
