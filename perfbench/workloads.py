"""The three workloads: inputs made from the seed, one op, and the checks.

Each workload makes one round of ops at set-up.  The run repeats that
round, so every round attempts the same ops on the same inputs, and an
op that fails fails in every round.  The program is reached only through
its public surface: ``postfeas.cli.main`` argv for ``sim`` and
``panel``, and ``postfeas.robustify_rows`` /
``postfeas.solve_robust_cutting_planes``.  Every call looks the function
up on its module at call time, so the tracer's wrappers see it.

Checks run after the timed phase.  Round 0's outputs are checked in full
against scipy/numpy or a property the method must have; later rounds
must reproduce round 0 byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from pathlib import Path

import numpy as np

import postfeas
import postfeas.cli

# Relative tolerance for comparisons with scipy's Beta quantile.
QUANTILE_RTOL = 1e-9
# Monte Carlo agreement, in standard errors.
MC_SIGMAS = 5.0


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cli(argv) -> int:
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink):
        return postfeas.cli.main(argv)


def _cp_upper(s: int, m_draws: int, beta: float) -> float:
    """One-sided Clopper-Pearson upper bound, from scipy."""
    from scipy.stats import beta as beta_dist

    if s >= m_draws:
        return 1.0
    return float(beta_dist.ppf(1.0 - beta, s + 1, m_draws - s))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class Workload:
    """One round of ops on inputs made from the seed."""

    round_size: int

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def run(self, op: int, round_tag) -> bool:
        """One op; True when it succeeded."""
        raise NotImplementedError

    def finish(self, rounds: int, failed: set) -> list[str]:
        """Add ops whose outputs show a failure to failed; return check errors."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sim_study
# ---------------------------------------------------------------------------


class SimStudy(Workload):
    """``postfeas sim`` at the default SimConfig, one trial per alpha level."""

    round_size = 50
    COMPARED = ("trials.csv", "by_alpha.csv", "overall.csv")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        gen = np.random.default_rng([seed, 1])
        self.seeds = [int(s) for s in gen.integers(1, 2**31 - 1, self.round_size)]
        self.config = workdir / "sim_config.json"
        self.config.write_text(json.dumps({"trials_per_alpha": 1}), encoding="utf-8")

    def out_dir(self, op, round_tag) -> Path:
        return self.workdir / f"sim-{round_tag}-{op}"

    def run(self, op, round_tag):
        rc = _cli(["sim", "--config", str(self.config),
                   "--out", str(self.out_dir(op, round_tag)),
                   "--seed", str(self.seeds[op]), "--jobs", "1"])
        return rc == 0

    def finish(self, rounds, failed):
        errors: list[str] = []
        for r in range(rounds):
            for op in range(self.round_size):
                trials = self.out_dir(op, r) / "trials.csv"
                if (r, op) in failed or not trials.exists():
                    failed.add((r, op))
                elif any(row["status"] != "Optimal" for row in _read_csv(trials)):
                    failed.add((r, op))
        v_true = {"PM": [], "CR": []}
        for op in range(self.round_size):
            if (0, op) in failed:
                continue
            where = f"sim op {op} (seed {self.seeds[op]})"
            errors += self._check_op(self.out_dir(op, 0), where, v_true)
            for r in range(1, rounds):
                if (r, op) in failed:
                    continue
                for name in self.COMPARED:
                    if ((self.out_dir(op, r) / name).read_bytes()
                            != (self.out_dir(op, 0) / name).read_bytes()):
                        errors.append(f"{where}: {name} differs in round {r}")
        if v_true["PM"] and not np.mean(v_true["PM"]) > np.mean(v_true["CR"]):
            errors.append(
                f"pooled mean v_true of PM ({np.mean(v_true['PM'])!r}) does "
                f"not exceed that of CR ({np.mean(v_true['CR'])!r})")
        return errors

    def _check_op(self, out: Path, where: str, v_true: dict) -> list[str]:
        errors = []
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        m_cert = int(manifest["config"]["m_cert"])
        for name in manifest["outputs"]:
            if not (out / name).is_file():
                errors.append(f"{where}: manifest lists missing {name}")
        trials = _read_csv(out / "trials.csv")
        by_instance: dict[tuple, dict] = {}
        for row in trials:
            v_post = float(row["v_post"])
            ub = float(row["v_post_ub95"])
            s = round(v_post * m_cert)
            expect = _cp_upper(s, m_cert, 0.05)
            if not _close(ub, expect, QUANTILE_RTOL):
                errors.append(f"{where}: {row['method']} v_post_ub95 {ub!r} "
                              f"!= scipy Clopper-Pearson {expect!r}")
            if not 0.0 <= v_post <= ub <= 1.0:
                errors.append(f"{where}: {row['method']} breaks "
                              f"0 <= v_post <= v_post_ub95 <= 1")
            by_instance.setdefault((row["alpha"], row["trial"]), {})[
                row["method"]] = float(row["profit"])
            if row["method"] in v_true:
                v_true[row["method"]].append(float(row["v_true"]))
        for key, profits in by_instance.items():
            for method in ("CR", "RB"):
                if profits[method] > profits["PM"] * (1.0 + 1e-12):
                    errors.append(f"{where}: alpha {key[0]} {method} profit "
                                  f"{profits[method]!r} exceeds PM "
                                  f"{profits['PM']!r}")
        errors += self._check_summaries(out, trials, where)
        return errors

    @staticmethod
    def _check_summaries(out: Path, trials: list[dict], where: str) -> list[str]:
        fields = {"profit": "profit", "vtrue": "v_true",
                  "vpost": "v_post", "vpost_ub95": "v_post_ub95"}

        def stats_of(rows):
            got = {"n": len(rows)}
            for short, col in fields.items():
                vals = np.array([float(r[col]) for r in rows])
                got[f"{short}_mean"] = float(vals.mean())
                got[f"{short}_sd"] = (float(vals.std(ddof=1))
                                      if len(vals) > 1 else 0.0)
            return got

        errors = []
        for name, key in (("by_alpha.csv", ("alpha", "method")),
                          ("overall.csv", ("method",))):
            for row in _read_csv(out / name):
                rows = [t for t in trials
                        if all(t[k] == row[k] for k in key)]
                expect = stats_of(rows)
                for col, value in row.items():
                    if col in key:
                        continue
                    if not _close(float(value), expect[col], 1e-9):
                        errors.append(f"{where}: {name} {row} {col}={value} "
                                      f"but trials.csv gives {expect[col]!r}")
        return errors


# ---------------------------------------------------------------------------
# panel_study
# ---------------------------------------------------------------------------


class PanelStudy(Workload):
    """``postfeas panel`` on a fixed set of synthetic panels.

    Each panel has J clusters, K candidate genes and a budget of B genes;
    the scenario LP offers S posterior draws of every cluster's coverage
    row, J * S rows, to the dominance prefilter.  Four panels in five are
    large (K = 30), where no draw dominates another, and every fifth is
    small (K = 6, the size of the test fixtures), where the prefilter
    drops about 40% of the rows.  The threshold is a fixed share of the smallest
    cluster coverage of the uniform fractional panel B/K, so the relaxed
    program is feasible with a wide margin.
    """

    round_size = 50
    J, S = 3, 80
    LARGE = (30, 8)  # K, B
    SMALL = (6, 2)
    THRESHOLD_SHARE = 0.8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        gen = np.random.default_rng([seed, 2])
        self.panels = []
        for p in range(self.round_size):
            k, budget = self.SMALL if p % 5 == 4 else self.LARGE
            self.panels.append(
                self._write_panel(gen, workdir / f"panel-{p}", k, budget))

    def _write_panel(self, gen, where: Path, k: int, budget: int) -> dict:
        j = self.J
        cells = gen.integers(150, 400, j)
        detected = gen.binomial(cells[:, None], gen.beta(0.6, 3.0, (j, k)))
        weights = gen.uniform(0.5, 2.0, k)
        q_mean = (detected + 1.0) / (cells[:, None] + 2.0)
        threshold = self.THRESHOLD_SHARE * float(
            (budget / k * q_mean.sum(axis=1)).min())
        clusters = [f"c{i}" for i in range(j)]
        genes = [f"g{i:03d}" for i in range(k)]
        where.mkdir(parents=True)
        with open(where / "clusters.csv", "w", encoding="utf-8") as fh:
            fh.write("cluster,n_cells\n")
            fh.writelines(f"{c},{int(n)}\n" for c, n in zip(clusters, cells))
        with open(where / "weights.csv", "w", encoding="utf-8") as fh:
            fh.write("gene,weight\n")
            fh.writelines(f"{g},{float(w)!r}\n" for g, w in zip(genes, weights))
        with open(where / "detections.csv", "w", encoding="utf-8") as fh:
            fh.write("cluster,gene,detected_count\n")
            fh.writelines(f"{clusters[a]},{genes[b]},{int(detected[a, b])}\n"
                          for a in range(j) for b in range(k))
        (where / "config.json").write_text(json.dumps(
            {"budget": budget, "threshold": threshold, "n_scen": self.S}),
            encoding="utf-8")
        return {"dir": where, "genes": genes, "budget": budget, "cells": cells,
                "detected": detected, "threshold": threshold,
                "draw_seed": int(gen.integers(1, 2**31 - 1))}

    def out_dir(self, op, round_tag) -> Path:
        return self.workdir / f"panel-out-{round_tag}-{op}"

    def run(self, op, round_tag):
        panel = self.panels[op]
        src = panel["dir"]
        rc = _cli(["panel",
                   "--detections", str(src / "detections.csv"),
                   "--clusters", str(src / "clusters.csv"),
                   "--weights", str(src / "weights.csv"),
                   "--config", str(src / "config.json"),
                   "--out", str(self.out_dir(op, round_tag)),
                   "--seed", str(panel["draw_seed"])])
        return rc == 0

    def finish(self, rounds, failed):
        errors: list[str] = []
        own_gen = np.random.default_rng([self.seed, 20])
        for op in range(self.round_size):
            if (0, op) in failed:
                continue
            where = f"panel op {op}"
            errors += self._check_op(self.panels[op], self.out_dir(op, 0),
                                     where, own_gen)
            for r in range(1, rounds):
                if (r, op) in failed:
                    continue
                for name in ("panel.csv", "panel_clusters.csv", "certificate.json"):
                    if ((self.out_dir(op, r) / name).read_bytes()
                            != (self.out_dir(op, 0) / name).read_bytes()):
                        errors.append(f"{where}: {name} differs in round {r}")
        return errors

    def _check_op(self, panel, out: Path, where: str, own_gen) -> list[str]:
        errors = []
        chosen = [row["gene"] for row in _read_csv(out / "panel.csv")]
        if (len(chosen) != panel["budget"] or len(set(chosen)) != len(chosen)
                or not set(chosen) <= set(panel["genes"])):
            errors.append(f"{where}: panel.csv does not list {panel['budget']} "
                          f"distinct genes of the weights file: {chosen}")
            return errors
        cert = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        m_draws, s, v_hat = cert["M"], cert["s"], cert["v_hat"]
        if s / m_draws != v_hat:
            errors.append(f"{where}: s/M = {s / m_draws!r} but v_hat = {v_hat!r}")
        expect = _cp_upper(s, m_draws, cert["beta"])
        if not _close(cert["upper_bound"], expect, QUANTILE_RTOL):
            errors.append(f"{where}: upper_bound {cert['upper_bound']!r} != "
                          f"scipy Clopper-Pearson {expect!r}")
        rates = cert["per_constraint"]
        if not max(rates) <= v_hat <= sum(rates) + 1e-12:
            errors.append(f"{where}: max rate {max(rates)!r} <= v_hat "
                          f"{v_hat!r} <= sum of rates {sum(rates)!r} fails")

        index = [panel["genes"].index(g) for g in chosen]
        a = panel["detected"][:, index] + 1.0
        b = panel["cells"][:, None] - panel["detected"][:, index] + 1.0
        exact_mean = (a / (a + b)).sum(axis=1)
        exact_sd = np.sqrt((a * b / ((a + b) ** 2 * (a + b + 1.0))).sum(axis=1))
        summaries = _read_csv(out / "panel_clusters.csv")
        for j, row in enumerate(summaries):
            se = exact_sd[j] / math.sqrt(m_draws)
            if abs(float(row["mean"]) - exact_mean[j]) > MC_SIGMAS * se:
                errors.append(f"{where}: cluster {row['cluster']} mean coverage "
                              f"{row['mean']} is more than {MC_SIGMAS} standard "
                              f"errors from the exact {exact_mean[j]!r}")

        draws = own_gen.beta(a, b, size=(m_draws,) + a.shape)
        own = float((draws.sum(axis=2) < panel["threshold"]).any(axis=1).mean())
        pooled = 0.5 * (own + v_hat)
        tol = MC_SIGMAS * math.sqrt(2.0 * pooled * (1.0 - pooled) / m_draws)
        if abs(own - v_hat) > tol + 1.0 / m_draws:
            errors.append(f"{where}: v_hat {v_hat!r} disagrees with an "
                          f"independent numpy certificate {own!r}")
        return errors


# ---------------------------------------------------------------------------
# robust_lp
# ---------------------------------------------------------------------------


class RobustLp(Workload):
    """Credible-ellipsoid robust LPs solved by cutting planes.

    Each instance maximizes c'x over the box [0, XMAX]^N with M uncertain
    rows a'x <= b; row i stacks (a, b) with a random positive definite
    covariance.  The rhs standard deviation is kept below b/5, so x = 0
    is robustly feasible and no solve can be infeasible.
    """

    round_size = 200
    N, M, XMAX, ALPHA = 4, 2, 5.0, 0.1
    COV_SCALE = 0.12

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        gen = np.random.default_rng([seed, 3])
        self.instances = [self._instance(gen) for _ in range(self.round_size)]
        self.results: dict[tuple, tuple] = {}

    def _instance(self, gen) -> dict:
        n = self.N
        c = gen.uniform(0.5, 2.0, n)
        rows = []
        for _ in range(self.M):
            center = np.concatenate([gen.uniform(0.2, 1.5, n),
                                     [gen.uniform(3.0, 6.0)]])
            while True:
                root = gen.normal(size=(n + 1, n + 1)) * self.COV_SCALE
                cov = root @ root.T + 1e-4 * np.eye(n + 1)
                if math.sqrt(cov[-1, -1]) < center[-1] / 5.0:
                    break
            rows.append((center, cov))
        base = postfeas.LpProblem(c, [], [(0.0, self.XMAX)] * n)
        return {"c": c, "rows": rows, "base": base}

    def run(self, op, round_tag):
        inst = self.instances[op]
        rlp = postfeas.robustify_rows(inst["base"], inst["rows"], self.ALPHA)
        sol, log = postfeas.solve_robust_cutting_planes(rlp)
        self.results[(round_tag, op)] = (
            sol.status, None if sol.x is None else np.array(sol.x),
            sol.objective_value, log.rounds, log.total_cuts)
        return sol.status == "Optimal"

    def finish(self, rounds, failed):
        from scipy.stats import chi2

        kappa = math.sqrt(chi2.ppf(1.0 - self.ALPHA / self.M, self.N + 1))
        errors: list[str] = []
        for op, inst in enumerate(self.instances):
            if (0, op) in failed:
                continue
            where = f"robust instance {op}"
            status, x, value, n_rounds, _ = self.results[(0, op)]
            errors += self._check_instance(inst, x, value, kappa, where)
            for r in range(1, rounds):
                if (r, op) in failed:
                    continue
                again = self.results[(r, op)]
                if (again[2] != value or again[3] != n_rounds
                        or not np.array_equal(again[1], x)):
                    errors.append(f"{where}: round {r} does not reproduce round 0")
        return errors

    def _check_instance(self, inst, x, value, kappa, where) -> list[str]:
        from scipy.optimize import linprog

        errors = []
        if np.any(x < -1e-9) or np.any(x > self.XMAX + 1e-9):
            errors.append(f"{where}: x leaves the box: {x}")
        z = np.append(x, -1.0)
        worst = max(float(center @ z + kappa * math.sqrt(z @ cov @ z))
                    for center, cov in inst["rows"])
        if worst > 1e-6:
            errors.append(f"{where}: worst-case row value {worst!r} > 1e-6")
        ref = self._linprog_cutting_planes(inst, kappa, linprog)
        if abs(value - ref) > 1e-6 * max(1.0, abs(ref)):
            errors.append(f"{where}: objective {value!r} != scipy cutting "
                          f"planes {ref!r}")
        plug = linprog(-inst["c"],
                       A_ub=np.array([center[:-1] for center, _ in inst["rows"]]),
                       b_ub=np.array([center[-1] for center, _ in inst["rows"]]),
                       bounds=[(0.0, self.XMAX)] * self.N, method="highs")
        if value > -plug.fun + 1e-9 * max(1.0, abs(plug.fun)):
            errors.append(f"{where}: objective {value!r} exceeds the plug-in "
                          f"optimum {-plug.fun!r}")
        return errors

    def _linprog_cutting_planes(self, inst, kappa, linprog) -> float:
        """Kelley's loop on HiGHS, with supports computed from the covariance."""
        cuts_a, cuts_b = [], []
        for _ in range(1000):
            res = linprog(-inst["c"],
                          A_ub=np.array(cuts_a) if cuts_a else None,
                          b_ub=np.array(cuts_b) if cuts_b else None,
                          bounds=[(0.0, self.XMAX)] * self.N, method="highs")
            if res.status != 0:
                raise RuntimeError(f"linprog: {res.message}")
            z = np.append(res.x, -1.0)
            added = 0
            for center, cov in inst["rows"]:
                sz = cov @ z
                norm = math.sqrt(z @ sz)
                if center @ z + kappa * norm > 1e-7:
                    u = center + (kappa / norm) * sz
                    cuts_a.append(u[:-1])
                    cuts_b.append(u[-1])
                    added += 1
            if added == 0:
                return float(-res.fun)
        raise RuntimeError("scipy cutting planes did not converge")


WORKLOADS = {
    "sim_study": SimStudy,
    "panel_study": PanelStudy,
    "robust_lp": RobustLp,
}
