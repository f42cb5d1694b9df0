"""Benchmark simulation and panel-selection pipelines.

The benchmark draws synthetic resource-allocation instances, fits the
capacity posterior from each instance's history, and compares five ways
of turning the posterior into right-hand sides:

    PM   plug-in posterior-predictive mean
    CR   per-row predictive quantile at alpha/m (union bound)
    PS   componentwise minimum of posterior-predictive scenario draws
    FPQ  frequentist OLS t prediction quantile at alpha/m (the
         predictive of the reference-prior posterior, fit_ols)
    RB   mean - z_{1-alpha/m} * sd normal-theory heuristic

Each trial first decides with all five methods, whose LPs differ only
in their right-hand sides and so share one simplex (lp.RhsSequence),
and then certifies the decisions in one shared pass: every optimized
decision is scored on the same posterior-predictive draws (v_post,
with an exact upper confidence bound) and against the generating truth
(v_true).  The true capacities are independent Gaussians, so v_true is
the exact violation probability
1 - prod_j Phi((x_ctx'beta_j - a_j'x) / sigma_j), not an estimate.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _reader as rd
from . import posterior as po
from . import scenario as sc
from . import stats
from .certification import (
    Certificate,
    draw_blocks,
    estimate_violation,
)
from .errors import DimensionMismatch, DomainError, PanelInfeasible
from .lp import LpProblem, RhsSequence
from .robustify import rb_heuristic_tighten, rhs_quantile_tighten

__all__ = [
    "METHODS",
    "SimConfig",
    "SimInstance",
    "TrialRecord",
    "PanelConfig",
    "ClusterSummary",
    "PanelResult",
    "gen_instance",
    "fit_capacity_model",
    "run_trial",
    "run_benchmark",
    "summarize_by_alpha",
    "summarize_overall",
    "panel_select",
    "panel_certify_detail",
    "write_trials_csv",
    "write_by_alpha_csv",
    "write_overall_csv",
    "write_panel_csv",
    "write_panel_clusters_csv",
]

METHODS = ("CR", "FPQ", "PM", "PS", "RB")

_LOG = logging.getLogger("postfeas.experiments")

_CERT_BETA = 0.05  # confidence level of per-trial posterior certificates


def _check(path: str, value, ok, expected: str, integer: bool = False) -> None:
    """value by the documents' number rule and ok(value), or DomainError."""
    if not ok(rd.number(value, path, integer)):
        raise DomainError(f"{path}: expected {expected}, got {value!r}")


def _check_sizes(cfg, keys) -> None:
    for key in keys:
        _check(f"{type(cfg).__name__}.{key}", getattr(cfg, key), lambda v: v >= 1,
               "an integer >= 1", integer=True)


def _from_json(cls, text: str):
    """cls(**doc) for an object of cls's fields; lists become tuples."""
    doc = rd.obj(rd.load(text, cls.__name__), cls.__name__, (),
                 [f.name for f in dataclasses.fields(cls)])
    return cls(**{key: tuple(value) if isinstance(value, list) else value
                  for key, value in doc.items()})


@dataclass(frozen=True)
class SimConfig:
    """Benchmark dimensions and instance-generating distributions.

    Every field is checked on construction, however the config is built;
    a bad value raises DomainError.
    """

    n: int = 18
    m: int = 7
    d_ctx: int = 6
    n_obs: int = 90
    n_scen: int = 300
    m_cert: int = 5000
    trials_per_alpha: int = 60
    alphas: tuple[float, ...] = (0.01, 0.05, 0.10)
    x_max: float = 50.0
    master_seed: int = 42
    a_range: tuple[float, float] = (0.5, 1.5)
    p_range: tuple[float, float] = (1.0, 5.0)
    intercept_range: tuple[float, float] = (40.0, 80.0)
    slope_range: tuple[float, float] = (-2.0, 2.0)
    sigma_range: tuple[float, float] = (3.0, 9.0)

    from_json = classmethod(_from_json)

    def __post_init__(self):
        _check_sizes(self, ("n", "m", "d_ctx", "n_obs", "n_scen", "m_cert",
                            "trials_per_alpha"))
        # fit_ols needs more observations than regressors
        if self.n_obs <= self.d_ctx:
            raise DomainError(
                f"SimConfig n_obs={self.n_obs} must exceed d_ctx={self.d_ctx}"
            )
        ranges = ("a_range", "p_range", "intercept_range", "slope_range",
                  "sigma_range")
        for key in ("alphas", *ranges):
            if not isinstance(getattr(self, key), tuple):
                raise DomainError(f"SimConfig.{key}: expected a tuple (a list in "
                                  f"JSON), got {getattr(self, key)!r}")
        for path, alpha in rd.entries(self.alphas, "SimConfig.alphas"):
            _check(path, alpha, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
        if len({f"{alpha:g}" for alpha in self.alphas}) < len(self.alphas):
            raise DomainError(f"SimConfig.alphas: expected alphas whose charts' "
                              f"names (format g) differ, got {self.alphas!r}")
        rd.number(self.master_seed, "SimConfig.master_seed", integer=True)
        _check("SimConfig.x_max", self.x_max, lambda v: v > 0.0, "a positive number")
        for key in ranges:
            lo, hi = rd.array(getattr(self, key), f"SimConfig.{key}", (2,))
            # v_true divides by the true noise scale
            positive = key == "sigma_range"
            if lo > hi or positive and lo <= 0.0:
                raise DomainError(f"SimConfig.{key}: expected [lo, hi] with lo <= hi"
                                  f"{' and lo > 0' if positive else ''}, "
                                  f"got {getattr(self, key)!r}")


@dataclass(frozen=True)
class SimInstance:
    """One synthetic allocation instance plus its capacity history."""

    resource_rows: np.ndarray  # (m, n)
    profit: np.ndarray  # (n,)
    beta_true: np.ndarray  # (m, d_ctx)
    sigma_true: np.ndarray  # (m,)
    x_ctx: np.ndarray  # (d_ctx,)
    design: np.ndarray  # (n_obs, d_ctx)
    observations: np.ndarray  # (n_obs, m)


def _unif(rng: stats.Rng, lo: float, hi: float, size) -> np.ndarray:
    return lo + (hi - lo) * rng.generator.random(size)


def gen_instance(cfg: SimConfig, rng: stats.Rng) -> SimInstance:
    """Draw one instance; identical streams give bit-identical instances.

    Consumption rows A and profits p are uniform and positive; the true
    capacity of row j is x'beta_j + sigma_j eps at any context x with an
    intercept-plus-uniform context law.  Historical observations carry
    their own i.i.d. context draws so the regression is identifiable;
    the decision context is one further draw of the same law.
    """
    rows = _unif(rng, *cfg.a_range, (cfg.m, cfg.n))
    profit = _unif(rng, *cfg.p_range, (cfg.n,))
    intercepts = _unif(rng, *cfg.intercept_range, (cfg.m,))
    slopes = _unif(rng, *cfg.slope_range, (cfg.m, cfg.d_ctx - 1))
    beta_true = np.column_stack([intercepts, slopes])
    sigma_true = _unif(rng, *cfg.sigma_range, (cfg.m,))
    x_ctx = np.concatenate([[1.0], rng.generator.random((cfg.d_ctx - 1,))])
    design = np.column_stack([
        np.ones(cfg.n_obs), rng.generator.random((cfg.n_obs, cfg.d_ctx - 1))
    ])
    noise = rng.generator.standard_normal((cfg.n_obs, cfg.m))
    observations = design @ beta_true.T + sigma_true[np.newaxis, :] * noise
    return SimInstance(
        resource_rows=rows, profit=profit, beta_true=beta_true,
        sigma_true=sigma_true, x_ctx=x_ctx, design=design,
        observations=observations,
    )


@dataclass(frozen=True)
class TrialRecord:
    alpha: float
    method: str
    trial: int
    status: str
    profit: float
    v_true: float
    v_post: float
    v_post_ub95: float
    clamped: bool
    master_seed: int


def fit_capacity_model(instance: SimInstance, cfg: SimConfig) -> po.StudentTRhs:
    """Each row's NIG posterior predictive at the decision context, from
    one fit_nig of all m rows, which share the design and the prior.

    Fitted once per instance; every method's tightening, scenario draws
    and posterior certificate read this one model.
    """
    post = po.fit_nig(instance.design, instance.observations,
                      po.Nig.default(cfg.d_ctx))
    return po.StudentTRhs.from_nig(instance.resource_rows, post, instance.x_ctx)


def _tightened_rhs(method: str, instance: SimInstance, model: po.StudentTRhs,
                   alpha: float, cfg: SimConfig, rng: stats.Rng) -> np.ndarray:
    if method == "PM":
        return model.loc.copy()
    if method == "CR":
        return rhs_quantile_tighten(model, alpha)
    if method == "PS":
        scen_rng = stats.Rng.for_purpose(rng.seed, rng.stream_id, "scenario")
        return model.draw(scen_rng, cfg.n_scen).min(axis=0)
    if method == "FPQ":
        fit = po.fit_ols(instance.design, instance.observations)
        ols = po.StudentTRhs.from_nig(instance.resource_rows, fit, instance.x_ctx)
        return rhs_quantile_tighten(ols, alpha)
    if method == "RB":
        return rb_heuristic_tighten(model, alpha)
    raise DomainError(f"unknown method {method!r}")


def _decide(method: str, instance: SimInstance, model: po.StudentTRhs,
            alpha: float, cfg: SimConfig, rng: stats.Rng, lp: RhsSequence):
    """Solve the trial's LP at one method's right-hand sides: (solution, clamped)."""
    b_hat = _tightened_rhs(method, instance, model, alpha, cfg, rng)
    clamped = bool(np.any(b_hat < 0.0))
    return lp.solve(np.maximum(b_hat, 0.0)), clamped


def _error_record(alpha: float, method: str, trial: int, seed: int) -> TrialRecord:
    nan = float("nan")
    return TrialRecord(alpha, method, trial, "Error", nan, nan, nan, nan,
                       False, seed)


def _true_violation(ax, mean, sd) -> float:
    """P(capacity_j < ax_j for some j), capacities independent N(mean_j, sd_j^2).

    The rows' probabilities p_j combine as 1 - prod_j (1 - p_j), computed
    as -expm1(sum_j log1p(-p_j)): tiny probabilities keep their digits,
    a row that is certain to fail gives exactly 1.0, and the 0.0 - form
    never returns -0.0.
    """
    p = [stats.normal_cdf((a - mu) / s) for a, mu, s in zip(ax, mean, sd)]
    if max(p) >= 1.0:
        return 1.0
    return 0.0 - math.expm1(math.fsum(math.log1p(-p_j) for p_j in p))


def run_trial(instance: SimInstance, model: po.StudentTRhs, alpha: float,
              cfg: SimConfig, rng: stats.Rng, trial: int = 0) -> list[TrialRecord]:
    """Decide with every method, then certify all decisions in one pass.

    model is the instance's capacity posterior (fit_capacity_model).
    The methods' LPs differ only in their right-hand sides, so one
    RhsSequence solves them all: the first method from the logical
    basis, each later one by dual re-entry from the last basis.  A
    method that raises gets an Error record and the others go on; a
    solve that raised leaves the next method a cold start.  Every
    Optimal decision is then scored on the same posterior draws (v_post
    and its upper bound), taken once from the "certify" child stream of
    rng, and by its exact violation probability under the true capacity
    law (v_true, _true_violation).  Records come in METHODS order.
    """
    nan = float("nan")
    lp = RhsSequence(LpProblem(
        instance.profit,
        [(row, "<=", 0.0) for row in instance.resource_rows],
        [(0.0, cfg.x_max)] * cfg.n,
    ))
    records, optimal = [], []
    for method in METHODS:
        try:
            sol, clamped = _decide(method, instance, model, alpha, cfg, rng, lp)
        except Exception:
            _LOG.exception("trial failed (alpha=%s trial=%d method=%s)",
                           alpha, trial, method)
            records.append(_error_record(alpha, method, trial, rng.seed))
            continue
        records.append(TrialRecord(alpha, method, trial, sol.status, nan, nan,
                                   nan, nan, clamped, rng.seed))
        if sol.status == "Optimal":
            optimal.append((len(records) - 1, sol))
    if not optimal:
        return records

    mean_true = instance.x_ctx @ instance.beta_true.T
    cert_rng = stats.Rng.for_purpose(rng.seed, rng.stream_id, "certify")
    s, counts = estimate_violation(np.array([sol.x for _, sol in optimal]),
                                   model, cfg.m_cert, cert_rng)
    for (i, sol), s_i, counts_i in zip(optimal, s, counts):
        v_true = _true_violation(instance.resource_rows @ sol.x, mean_true,
                                 instance.sigma_true)
        cert = Certificate.from_counts(s_i, counts_i, cfg.m_cert, _CERT_BETA)
        records[i] = replace(records[i], profit=float(sol.objective_value),
                             v_true=v_true, v_post=cert.v_hat,
                             v_post_ub95=cert.upper_bound)
    return records


def _trial_block(cfg: SimConfig, alpha_index: int, trial: int) -> list[TrialRecord]:
    alpha = cfg.alphas[alpha_index]
    global_trial = alpha_index * cfg.trials_per_alpha + trial
    inst_rng = stats.Rng.for_purpose(cfg.master_seed, "instance", global_trial)
    trial_rng = stats.Rng.for_purpose(cfg.master_seed, "trial", global_trial)
    try:
        instance = gen_instance(cfg, inst_rng)
        model = fit_capacity_model(instance, cfg)
        return run_trial(instance, model, alpha, cfg, trial_rng, trial)
    except Exception:
        _LOG.exception("trial failed (alpha=%s trial=%d)", alpha, trial)
        return [_error_record(alpha, m, trial, cfg.master_seed) for m in METHODS]


def run_benchmark(cfg: SimConfig, jobs: int = 1) -> list[TrialRecord]:
    """All (alpha, trial, method) records, deterministically ordered.

    jobs > 1 distributes trials over processes; per-trial streams make
    the result independent of scheduling.  jobs < 1 is a DomainError.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    tasks = [
        (ai, t)
        for ai in range(len(cfg.alphas))
        for t in range(cfg.trials_per_alpha)
    ]
    records: list[TrialRecord] = []
    if jobs == 1:
        for ai, t in tasks:
            records.extend(_trial_block(cfg, ai, t))
        return records
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        for block in pool.map(_trial_block, [cfg] * len(tasks),
                              [a for a, _ in tasks], [t for _, t in tasks]):
            records.extend(block)
    return records


def _aggregate(records: list[TrialRecord]):
    ok = [r for r in records if r.status == "Optimal"]
    profit = np.array([r.profit for r in ok])
    vtrue = np.array([r.v_true for r in ok])
    vpost = np.array([r.v_post for r in ok])
    vub = np.array([r.v_post_ub95 for r in ok])
    n = len(ok)
    sd = lambda a: float(np.std(a, ddof=1)) if n > 1 else 0.0  # noqa: E731
    return {
        "n": n,
        "profit_mean": float(profit.mean()) if n else float("nan"),
        "profit_sd": sd(profit) if n else float("nan"),
        "vtrue_mean": float(vtrue.mean()) if n else float("nan"),
        "vtrue_sd": sd(vtrue) if n else float("nan"),
        "vpost_mean": float(vpost.mean()) if n else float("nan"),
        "vpost_ub95_mean": float(vub.mean()) if n else float("nan"),
    }


def summarize_by_alpha(cfg: SimConfig, records: list[TrialRecord]) -> list[dict]:
    rows = []
    for alpha in cfg.alphas:
        for method in METHODS:
            sel = [r for r in records if r.alpha == alpha and r.method == method]
            agg = _aggregate(sel)
            rows.append({"alpha": alpha, "method": method, **agg})
    return rows


def summarize_overall(cfg: SimConfig, records: list[TrialRecord]) -> list[dict]:
    rows = []
    for method in METHODS:
        sel = [r for r in records if r.method == method]
        agg = _aggregate(sel)
        agg.pop("vtrue_sd")
        rows.append({"method": method, **agg})
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trials_csv(path, records: list[TrialRecord]) -> None:
    header = ["alpha", "method", "trial", "status", "profit", "v_true",
              "v_post", "v_post_ub95", "clamped", "master_seed"]
    rows = [
        [r.alpha, r.method, r.trial, r.status, r.profit, r.v_true,
         r.v_post, r.v_post_ub95, int(r.clamped), r.master_seed]
        for r in records
    ]
    _write_csv(path, header, rows)


def write_by_alpha_csv(path, by_alpha: list[dict]) -> None:
    header = ["alpha", "method", "n", "profit_mean", "profit_sd",
              "vtrue_mean", "vtrue_sd", "vpost_mean", "vpost_ub95_mean"]
    _write_csv(path, header, [[row[h] for h in header] for row in by_alpha])


def write_overall_csv(path, overall: list[dict]) -> None:
    header = ["method", "n", "profit_mean", "profit_sd", "vtrue_mean",
              "vpost_mean", "vpost_ub95_mean"]
    _write_csv(path, header, [[row[h] for h in header] for row in overall])


# ---------------------------------------------------------------------------
# Panel selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PanelConfig:
    """Panel size, coverage floor and draw counts, checked on construction."""

    budget: int = 30
    threshold: float = 8.0
    n_scen: int = 300
    m_cert: int = 4000
    beta: float = 0.05

    from_json = classmethod(_from_json)

    def __post_init__(self):
        _check_sizes(self, ("budget", "n_scen", "m_cert"))
        _check("PanelConfig.beta", self.beta, lambda v: 0.0 < v < 1.0,
               "a number in (0, 1)")
        rd.number(self.threshold, "PanelConfig.threshold")


@dataclass(frozen=True)
class ClusterSummary:
    cluster: str
    mean: float
    q05: float
    median: float
    q95: float
    violation_rate: float


@dataclass(frozen=True)
class PanelResult:
    relaxed_x: np.ndarray
    panel: tuple[str, ...]
    certificate: Certificate
    cluster_summaries: tuple[ClusterSummary, ...]


def _default_ids(count: int, prefix: str) -> tuple[str, ...]:
    width = max(4, len(str(count - 1)))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


def panel_certify_detail(
    x_sel: np.ndarray,
    model: po.BetaCoverage,
    cfg: PanelConfig,
    rng: stats.Rng,
    cluster_ids=None,
) -> tuple[Certificate, tuple[ClusterSummary, ...]]:
    """Certificate plus per-cluster coverage detail on shared draws.

    Only the selected genes' cells are drawn, from
    model.restrict(flatnonzero(x_sel)): an unselected gene adds exactly
    0 to every coverage q_j @ x_sel, so the certificate keeps its law
    and costs m_cert x J x (selected genes) Beta cells, not m_cert x J
    x K.  The same m_cert draws, block by block as in certify, feed both
    the global violation count and the per-cluster coverage summaries,
    so max_j rate_j <= v_hat <= sum_j rate_j holds exactly.  A
    non-finite x_sel raises DomainError before any draw.
    """
    x_sel = np.asarray(x_sel, dtype=float)
    j_clusters, k_genes = model.a.shape
    if x_sel.shape != (k_genes,):
        raise DimensionMismatch(
            f"selection vector has shape {x_sel.shape}, expected ({k_genes},)"
        )
    if not np.all(np.isfinite(x_sel)):
        raise DomainError("every entry of the selection to certify must be finite")
    if cluster_ids is None:
        cluster_ids = _default_ids(j_clusters, "c")
    keep = np.flatnonzero(x_sel)
    model, x_sel = model.restrict(keep), x_sel[keep]
    coverage, flags = [], []
    for batch in draw_blocks(model, cfg.m_cert, rng):
        # one product per block: coverage is -lhs, and the flags are
        # violation_flags' on the same residuals
        coeff, rhs = model.as_rows(batch)
        lhs = coeff @ x_sel
        coverage.append(-lhs)
        flags.append(~(lhs - rhs <= 0.0))
    coverage = np.concatenate(coverage)
    flags = np.concatenate(flags)
    cert = Certificate.from_counts(flags.any(axis=1).sum(), flags.sum(axis=0),
                                   cfg.m_cert, cfg.beta)
    q05, median, q95 = np.quantile(coverage, [0.05, 0.5, 0.95], axis=0)
    summaries = tuple(
        ClusterSummary(
            cluster=str(cluster_ids[j]),
            mean=float(coverage[:, j].mean()),
            q05=float(q05[j]),
            median=float(median[j]),
            q95=float(q95[j]),
            violation_rate=float(flags[:, j].mean()),
        )
        for j in range(j_clusters)
    )
    return cert, summaries


def _swap_repair(q_draws: np.ndarray, w: np.ndarray, chosen: list[int],
                 threshold: float) -> list[int]:
    """Greedy 1-for-1 swaps that lower the in-sample violation count.

    A scenario s is violated when some cluster j has q^(s)_j' x <
    threshold.  Each round scores every swap of one chosen gene for one
    unchosen gene on the scenario draws q_draws (S, J, K) and takes the
    swap with the fewest violated scenarios, then the larger weight
    w[in] - w[out], then the first (out, in) pair in gene order; it is
    accepted only if it strictly lowers the count, so the search ends.
    The count is in-sample only: the panel's violation law is what the
    certificate measures on fresh draws.
    """
    k_genes = q_draws.shape[2]
    coverage = q_draws[:, :, chosen].sum(axis=2)  # (S, J)
    count = int((coverage < threshold).any(axis=1).sum())
    while count and len(chosen) < k_genes:
        outside = np.setdiff1d(np.arange(k_genes), chosen)
        best = None
        for out in chosen:
            base = coverage - q_draws[:, :, out]
            swapped = base[:, :, None] + q_draws[:, :, outside]  # (S, J, K - B)
            counts = (swapped < threshold).any(axis=1).sum(axis=0)
            gains = w[outside] - w[out]
            i = np.lexsort((-gains, counts))[0]  # stable: ties keep gene order
            key = (int(counts[i]), -float(gains[i]))
            if best is None or key < best[0]:
                best = (key, out, int(outside[i]))
        (fewest, _), out, into = best
        if fewest >= count:
            break
        count = fewest
        coverage = coverage - q_draws[:, :, out] + q_draws[:, :, into]
        chosen = sorted(set(chosen) - {out} | {into})
    return chosen


def panel_select(
    weights: np.ndarray,
    model: po.BetaCoverage,
    cfg: PanelConfig,
    rng: stats.Rng,
    gene_ids=None,
    cluster_ids=None,
) -> PanelResult:
    """Scenario-robust panel of cfg.budget genes maximizing total weight.

    The relaxed problem maximizes w'x over x in [0, 1]^K with sum x <=
    budget and q^(s)_j' x >= model.threshold for every posterior
    scenario s and cluster j.  The hard panel starts from the budget
    highest relaxed scores (ties: larger weight, then lexicographic gene
    id) and is repaired by greedy swaps on the same scenarios (see
    _swap_repair), so the discrete choice itself is made against the
    scenarios, as in scenario theory for non-convex decisions (Campi,
    Garatti & Ramponi 2018, IEEE TAC 63(12)).  No bound from that theory
    is computed here: the panel is certified on fresh draws of the
    selected genes' cells only (see panel_certify_detail).
    """
    w = np.asarray(weights, dtype=float)
    j_clusters, k_genes = model.a.shape
    if w.shape != (k_genes,):
        raise DimensionMismatch(
            f"weights have shape {w.shape}, expected ({k_genes},)"
        )
    if cfg.budget < 1 or cfg.budget > k_genes:
        raise DomainError(
            f"budget must be in [1, {k_genes}], got {cfg.budget}"
        )
    if gene_ids is None:
        gene_ids = _default_ids(k_genes, "g")
    if cluster_ids is None:
        cluster_ids = _default_ids(j_clusters, "c")
    gene_ids = tuple(str(g) for g in gene_ids)
    cluster_ids = tuple(str(c) for c in cluster_ids)

    scen_rng = stats.Rng.for_purpose(rng.seed, rng.stream_id, "scenario")
    q_draws = model.draw(scen_rng, cfg.n_scen)  # (S, J, K)

    base = LpProblem(
        w,
        [(np.ones(k_genes), "<=", float(cfg.budget))],
        [(0.0, 1.0)] * k_genes,
    )
    sol, _ = sc.solve_scenario_lp(base, model, q_draws)
    if sol.status != "Optimal":
        # On the box 0 <= x <= 1 with sum x <= budget, the largest
        # coverage a scenario row can reach is its top-budget sum, so
        # the cluster whose worst such sum falls furthest below the
        # floor is the one to name.
        part = np.partition(q_draws, k_genes - cfg.budget, axis=2)
        top_b = part[:, :, k_genes - cfg.budget:].sum(axis=2)
        margins = top_b.min(axis=0) - model.threshold  # (J,)
        worst = int(np.argmin(margins))
        raise PanelInfeasible(
            cluster_ids[worst],
            f"relaxed panel program is {sol.status}; cluster "
            f"{cluster_ids[worst]!r} has the smallest top-{cfg.budget} "
            f"coverage margin, {margins[worst]:.6g}",
        )
    relaxed_x = sol.x

    order = sorted(
        range(k_genes), key=lambda k: (-relaxed_x[k], -w[k], gene_ids[k])
    )
    chosen = _swap_repair(q_draws, w, sorted(order[: cfg.budget]),
                          model.threshold)
    x_bin = np.zeros(k_genes)
    x_bin[chosen] = 1.0

    cert_rng = stats.Rng.for_purpose(rng.seed, rng.stream_id, "certify")
    cert, summaries = panel_certify_detail(
        x_bin, model, cfg, cert_rng, cluster_ids=cluster_ids
    )
    return PanelResult(
        relaxed_x=relaxed_x,
        panel=tuple(gene_ids[k] for k in chosen),
        certificate=cert,
        cluster_summaries=summaries,
    )


def write_panel_csv(path, result: PanelResult, weights, gene_ids) -> None:
    """panel.csv: selected genes by rank with relaxed scores and weights."""
    gene_ids = tuple(str(g) for g in gene_ids)
    weights = np.asarray(weights, dtype=float)
    index = {g: k for k, g in enumerate(gene_ids)}
    ranked = sorted(
        result.panel,
        key=lambda g: (-result.relaxed_x[index[g]], -weights[index[g]], g),
    )
    rows = [
        [rank + 1, g, float(result.relaxed_x[index[g]]), float(weights[index[g]])]
        for rank, g in enumerate(ranked)
    ]
    _write_csv(path, ["rank", "gene", "x_relaxed", "weight"], rows)


def write_panel_clusters_csv(path, result: PanelResult) -> None:
    rows = [
        [s.cluster, s.mean, s.q05, s.median, s.q95, s.violation_rate]
        for s in result.cluster_summaries
    ]
    _write_csv(
        path,
        ["cluster", "mean", "q05", "median", "q95", "violation_rate"],
        rows,
    )
