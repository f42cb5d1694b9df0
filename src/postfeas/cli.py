"""Batch command-line surface for the pipeline.

Subcommands: solve, scenario-size, sim, certify, panel.  Every command
writes a manifest.json recording the command, its effective config, the
seed, and the files produced, so a run can be replayed byte for byte.
Diagnostics go to stderr (level from POSTFEAS_LOG: error, info, debug);
stdout carries only primary results.

Exit codes: 0 success, 1 nothing succeeded or a sim trial record
failed, 2 bad input or schema, 3 infeasible, 4 unbounded, 5 numerical
breakdown.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import experiments as ex
from . import posterior as po
from . import scenario as sc
from . import stats, svg
from .certification import (
    Certificate,
    certificate_to_json,
    certify as run_certify,
)
from .errors import (
    DomainError,
    NumericalBreakdown,
    PanelInfeasible,
    PostfeasError,
)
from .lp import problem_from_json, solution_from_json, solution_to_json, solve_lp

__all__ = ["RunManifest", "build_parser", "main"]

log = logging.getLogger("postfeas.cli")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_UNBOUNDED = 4
EXIT_NUMERICAL = 5

_STATUS_EXIT = {"Optimal": EXIT_OK, "Infeasible": EXIT_INFEASIBLE,
                "Unbounded": EXIT_UNBOUNDED}

# BLAS and OpenMP thread counts can change solve_lp's pivot path.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """What a run's numbers depend on beyond its config and seed."""
    return {
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        **{name: os.environ.get(name) for name in _THREAD_VARS},
    }


@dataclass(frozen=True)
class RunManifest:
    """Replay record: one per invocation, sufficient to rerun bytewise."""

    command: str
    config: dict
    master_seed: int
    version: str
    outputs: tuple[str, ...]
    duration_seconds: float
    environment: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def _read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc


def _write_manifest(directory: Path, command: str, config: dict, seed: int,
                    outputs, started: float) -> None:
    manifest = RunManifest(
        command=command,
        config=config,
        master_seed=int(seed),
        version=__version__,
        outputs=tuple(str(o) for o in outputs),
        duration_seconds=time.time() - started,
        environment=_environment(),
    )
    path = directory / "manifest.json"
    path.write_text(manifest.to_json() + "\n", encoding="utf-8")
    log.info("wrote %s", path)


def _cmd_solve(args) -> int:
    started = time.time()
    problem = problem_from_json(_read_text(args.problem))
    sol = solve_lp(problem)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(solution_to_json(sol) + "\n", encoding="utf-8")
    print(sol.status)
    if sol.status == "Optimal":
        print(f"objective {sol.objective_value!r}")
        print("x " + " ".join(repr(float(v)) for v in sol.x))
    _write_manifest(out.parent, "solve",
                    {"problem": str(args.problem), "out": str(out)},
                    args.seed, [out.name], started)
    return _STATUS_EXIT[sol.status]


def _cmd_scenario_size(args) -> int:
    started = time.time()
    n = sc.required_sample_size(args.eps, args.delta, args.d)
    bound = stats.binomial_tail(n, args.eps, args.d)
    print(n)
    print(f"achieved_bound={bound!r} delta={args.delta!r}")
    prev = stats.binomial_tail(n - 1, args.eps, args.d)
    print(f"minimality: bound at N-1 is {prev!r} > delta")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "scenario-size",
                    {"eps": args.eps, "delta": args.delta, "d": args.d},
                    args.seed, [], started)
    return EXIT_OK


def _cmd_sim(args) -> int:
    started = time.time()
    cfg = (ex.SimConfig.from_json(_read_text(args.config))
           if args.config else ex.SimConfig())
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    records = ex.run_benchmark(cfg, jobs=args.jobs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_alpha = ex.summarize_by_alpha(cfg, records)
    overall = ex.summarize_overall(cfg, records)
    outputs = ["trials.csv", "by_alpha.csv", "overall.csv"]
    ex.write_trials_csv(out_dir / "trials.csv", records)
    ex.write_by_alpha_csv(out_dir / "by_alpha.csv", by_alpha)
    ex.write_overall_csv(out_dir / "overall.csv", overall)
    for alpha in cfg.alphas:
        rows = [r for r in by_alpha if r["alpha"] == alpha]
        labels = [r["method"] for r in rows]
        name = f"profit_bar_alpha_{alpha:g}.svg"
        svg.bar_chart(out_dir / name, labels,
                      [r["profit_mean"] for r in rows],
                      f"mean profit at alpha={alpha:g}", "profit")
        outputs.append(name)
        name = f"violation_bar_alpha_{alpha:g}.svg"
        svg.bar_chart(out_dir / name, labels,
                      [r["vtrue_mean"] for r in rows],
                      f"mean true violation at alpha={alpha:g}",
                      "violation rate", target=alpha)
        outputs.append(name)
    groups = {
        m: ([r.v_post for r in records if r.method == m and r.status == "Optimal"],
            [r.v_true for r in records if r.method == m and r.status == "Optimal"])
        for m in ex.METHODS
    }
    svg.scatter_chart(out_dir / "calibration_scatter.svg", groups,
                      "certified vs true violation",
                      "posterior violation estimate", "true violation rate")
    outputs.append("calibration_scatter.svg")
    _write_manifest(out_dir, "sim",
                    {**asdict(cfg), "jobs": args.jobs},
                    cfg.master_seed, outputs, started)
    n_ok = sum(1 for r in records if r.status == "Optimal")
    n_error = sum(1 for r in records if r.status == "Error")
    for row in overall:
        print(f"{row['method']} n={row['n']} profit={row['profit_mean']!r} "
              f"v_true={row['vtrue_mean']!r} v_post={row['vpost_mean']!r}")
    log.info("%d of %d records optimal", n_ok, len(records))
    if n_error:
        print(f"error: {n_error} of {len(records)} trial records failed",
              file=sys.stderr)
    return EXIT_OK if n_ok > 0 and not n_error else EXIT_FAILED


def _require(model: dict, key: str):
    if not isinstance(model, dict) or key not in model:
        raise DomainError(f"model is missing required key {key!r}")
    return model[key]


def _require_list(model: dict, key: str) -> list:
    value = _require(model, key)
    if not isinstance(value, list) or not value:
        raise DomainError(f"model key {key!r} must be a non-empty list")
    return value


def _certify_replay(model: dict, m_draws: int, beta: float) -> Certificate:
    s = _require(model, "violations")
    if not isinstance(s, int) or isinstance(s, bool):
        raise DomainError(f"violations must be an integer, got {s!r}")
    return Certificate.from_counts(s, None, m_draws, beta)


def _rhs_student_t(model: dict, x: np.ndarray) -> po.StudentTRhs:
    specs = _require_list(model, "predictive")
    rhs = po.StudentTRhs(
        rows=_require_list(model, "rows"),
        dof=[_require(s, "dof") for s in specs],
        loc=[_require(s, "loc") for s in specs],
        scale=[_require(s, "scale") for s in specs],
    )
    if rhs.rows.shape[1] != x.size:
        raise DomainError(
            f"rows must be (m, {x.size}), got shape {rhs.rows.shape}"
        )
    return rhs


def _gaussian_rows(model: dict, x: np.ndarray) -> po.GaussianRows:
    blocks = _require_list(model, "blocks")
    rows = po.GaussianRows.from_covs([_require(blk, "center") for blk in blocks],
                                     [_require(blk, "cov") for blk in blocks])
    if rows.centers.shape[1] != x.size + 1:
        raise DomainError(
            f"block centers must have {x.size + 1} entries, "
            f"got {rows.centers.shape[1]}"
        )
    return rows


def _beta_coverage(model: dict, x: np.ndarray) -> po.BetaCoverage:
    coverage = po.BetaCoverage(a=_require_list(model, "a"),
                               b=_require_list(model, "b"),
                               threshold=_require(model, "threshold"))
    if coverage.a.shape[1] != x.size:
        raise DomainError(
            f"model has {coverage.a.shape[1]} genes but the solution has {x.size}"
        )
    return coverage


_MODEL_FAMILIES = {
    "rhs_student_t": _rhs_student_t,
    "gaussian_rows": _gaussian_rows,
    "beta_coverage": _beta_coverage,
}


def _cmd_certify(args) -> int:
    started = time.time()
    sol = solution_from_json(_read_text(args.solution))
    if sol.status != "Optimal":
        raise DomainError(f"solution status is {sol.status!r}; only an "
                          f"Optimal solution is certified")
    model = _read_json(args.model)
    if not isinstance(model, dict):
        raise DomainError("model must be a JSON object")
    family = _require(model, "family")
    if args.M < 1:
        raise DomainError(f"--M must be >= 1, got {args.M}")
    if family == "replay":
        cert = _certify_replay(model, args.M, args.beta)
    elif family in _MODEL_FAMILIES:
        if sol.x is None:
            raise DomainError("solution has no decision vector to certify")
        x = np.asarray(sol.x, dtype=float)
        posterior_model = _MODEL_FAMILIES[family](model, x)
        if isinstance(posterior_model, po.BetaCoverage):
            # panel_certify_detail's rule: draw only the genes x selects
            keep = np.flatnonzero(x)
            x, posterior_model = x[keep], posterior_model.restrict(keep)
        rng = stats.Rng.for_purpose(args.seed, "certify", family)
        cert = run_certify(x, posterior_model, args.M, args.beta, rng)
    else:
        raise DomainError(
            f"unknown model family {family!r}; expected one of "
            f"{sorted(_MODEL_FAMILIES) + ['replay']}"
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(certificate_to_json(cert) + "\n", encoding="utf-8")
    print(f"v_hat={cert.v_hat!r}")
    print(f"upper_bound={cert.upper_bound!r}")
    _write_manifest(out.parent, "certify",
                    {"solution": str(args.solution), "model": str(args.model),
                     "family": family, "M": args.M, "beta": args.beta},
                    args.seed, [out.name], started)
    return EXIT_OK


def _cmd_panel(args) -> int:
    started = time.time()
    data = po.load_panel_data(args.detections, args.clusters, args.weights)
    cfg = (ex.PanelConfig.from_json(_read_text(args.config))
           if args.config else ex.PanelConfig())
    model = po.fit_beta_binomial(data.detected, data.cluster_sizes, cfg.threshold)
    rng = stats.Rng.for_purpose(args.seed, "panel")
    result = ex.panel_select(data.weights, model, cfg, rng,
                             gene_ids=data.genes, cluster_ids=data.clusters)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ex.write_panel_csv(out_dir / "panel.csv", result, data.weights, data.genes)
    ex.write_panel_clusters_csv(out_dir / "panel_clusters.csv", result)
    (out_dir / "certificate.json").write_text(
        certificate_to_json(result.certificate) + "\n", encoding="utf-8"
    )
    svg.box_chart(
        out_dir / "coverage_box.svg",
        [s.cluster for s in result.cluster_summaries],
        [(s.q05, s.median, s.q95, s.mean) for s in result.cluster_summaries],
        "posterior coverage by cluster", "coverage",
        threshold=cfg.threshold,
    )
    print(" ".join(result.panel))
    print(f"v_hat={result.certificate.v_hat!r}")
    print(f"upper_bound={result.certificate.upper_bound!r}")
    for s in result.cluster_summaries:
        if s.mean < cfg.threshold:
            print(f"warning: cluster {s.cluster} has mean coverage {s.mean!r}, "
                  f"below the threshold {cfg.threshold!r}", file=sys.stderr)
    _write_manifest(out_dir, "panel",
                    {**asdict(cfg),
                     "detections": str(args.detections),
                     "clusters": str(args.clusters),
                     "weights": str(args.weights)},
                    args.seed, ["panel.csv", "panel_clusters.csv",
                                "certificate.json", "coverage_box.svg"],
                    started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postfeas",
        description="Posterior-feasible linear optimization toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"postfeas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an LP from a problem JSON file")
    p.add_argument("problem", help="path to problem JSON")
    p.add_argument("--out", default="solution.json",
                   help="solution JSON path (default solution.json)")
    p.add_argument("--seed", type=int, default=42, help="recorded in manifest")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("scenario-size",
                       help="minimal scenario count for a violation target")
    p.add_argument("--eps", type=float, required=True,
                   help="violation level epsilon in (0, 1)")
    p.add_argument("--delta", type=float, required=True,
                   help="bound on the chance the level is exceeded")
    p.add_argument("--d", type=int, required=True, help="support rank")
    p.add_argument("--out", default=".", help="manifest directory")
    p.add_argument("--seed", type=int, default=42, help="recorded in manifest")
    p.set_defaults(func=_cmd_scenario_size)

    p = sub.add_parser("sim", help="run the five-method benchmark")
    p.add_argument("--config", default=None, help="SimConfig JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config master_seed")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("certify",
                       help="Monte Carlo certificate for a stored solution")
    p.add_argument("--solution", required=True, help="solution JSON path")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--M", type=int, default=5000, help="posterior draw count")
    p.add_argument("--beta", type=float, default=0.05,
                   help="confidence parameter for the upper bound")
    p.add_argument("--out", default="certificate.json",
                   help="certificate JSON path")
    p.add_argument("--seed", type=int, default=42, help="drawing seed")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("panel", help="scenario-robust gene panel selection")
    p.add_argument("--detections", required=True,
                   help="CSV: cluster,gene,detected_count")
    p.add_argument("--clusters", required=True, help="CSV: cluster,n_cells")
    p.add_argument("--weights", required=True, help="CSV: gene,weight")
    p.add_argument("--config", default=None, help="PanelConfig JSON path")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=42, help="drawing seed")
    p.set_defaults(func=_cmd_panel)
    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("POSTFEAS_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    logging.basicConfig(
        stream=sys.stderr, level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PanelInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PostfeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
