"""Acceptance suite: one test per shipping criterion.

Each test prints a single pass/fail line under ``pytest -v``.  Stochastic
criteria are seed-pinned; cross-checks compare the implementation against
independently computed oracles (closed forms, exact rational arithmetic,
scipy reference distributions, brute-force enumeration, dense sampling).
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from postfeas.certification import certify, clopper_pearson_upper, estimate_violation
from postfeas.cli import main
from postfeas.experiments import PanelConfig, panel_select
from postfeas.lp import LpProblem, solve_lp
from postfeas.posterior import (
    GaussianRows,
    StudentTRhs,
    fit_beta_binomial,
    load_panel_data,
)
from postfeas.robustify import (
    robustify_rows,
    soc_support,
    solve_robust_cutting_planes,
)
from postfeas.scenario import required_sample_size, solve_scenario_lp
from postfeas.stats import (
    Rng,
    binomial_tail,
    reg_inc_beta,
    reg_lower_gamma,
)

from lp_oracle import brute_force_lp

DATA_DIR = Path(__file__).parent / "data"

BENCHMARK_CONFIG = {
    "trials_per_alpha": 30,
    "alphas": [0.05, 0.10],
    "master_seed": 42,
}


def read_csv_dicts(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _sphere_grid(dim, count):
    """Near-uniform deterministic unit vectors: an even angular grid on the
    circle, a golden-angle lattice on the sphere."""
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    phi = 2.0 * np.pi * k * (1.0 - 1.0 / np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    """Run the benchmark command twice with one seed; share across criteria."""
    root = tmp_path_factory.mktemp("acceptance_sim")
    cfg = root / "sim.json"
    cfg.write_text(json.dumps(BENCHMARK_CONFIG), encoding="utf-8")
    first, second = root / "first", root / "second"
    assert main(["sim", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["sim", "--config", str(cfg), "--out", str(second)]) == 0
    return first, second


def test_criterion_01_binomial_upper_confidence_reference():
    assert clopper_pearson_upper(82, 4000, 0.05) == pytest.approx(
        0.024582, abs=1e-5
    )


def test_criterion_02_scenario_size_closed_form_and_minimality():
    assert required_sample_size(0.05, 0.05, 1) == 59
    assert required_sample_size(0.5, 0.5, 1) == 1
    # minimal: the returned count meets the target and one fewer does not
    assert binomial_tail(59, 0.05, 1) <= 0.05
    assert binomial_tail(58, 0.05, 1) > 0.05
    assert binomial_tail(1, 0.5, 1) <= 0.5
    assert binomial_tail(0, 0.5, 1) > 0.5


def test_criterion_03_plugin_mean_violates_badly(benchmark_runs):
    first, _ = benchmark_runs
    rows = read_csv_dicts(first / "by_alpha.csv")
    pm = [r for r in rows if r["method"] == "PM" and float(r["alpha"]) == 0.05]
    assert len(pm) == 1
    assert float(pm[0]["vtrue_mean"]) >= 0.8


def test_criterion_04_hedged_methods_calibrated(benchmark_runs):
    first, _ = benchmark_runs
    rows = read_csv_dicts(first / "by_alpha.csv")
    for alpha in (0.05, 0.10):
        for method in ("PS", "CR"):
            row = [r for r in rows
                   if r["method"] == method and float(r["alpha"]) == alpha]
            assert len(row) == 1
            assert float(row[0]["vtrue_mean"]) <= alpha


def test_criterion_05_plugin_profit_premium(benchmark_runs):
    first, _ = benchmark_runs
    rows = read_csv_dicts(first / "overall.csv")
    profit = {r["method"]: float(r["profit_mean"]) for r in rows}
    for hedged in ("CR", "PS", "FPQ", "RB"):
        assert profit["PM"] >= 1.2 * profit[hedged]


def test_criterion_06_robust_solutions_certify_within_target():
    # 50 random instances with jointly Gaussian constraint rows: solve the
    # ellipsoid-robustified LP by cutting planes, then Monte Carlo certify
    # the solution on exact draws from the same Gaussian law, the model
    # that defined the ellipsoids.
    alpha, m_cert = 0.1, 5000
    bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / m_cert)
    gen = np.random.default_rng(20260819)
    passed = 0
    for i in range(50):
        n = int(gen.integers(2, 5))
        m = int(gen.integers(1, 4))
        base = LpProblem(np.ones(n), [], [(0.0, 10.0)] * n)
        centers, covs = [], []
        for _ in range(m):
            centers.append(np.concatenate([
                gen.uniform(0.5, 1.5, size=n), [gen.uniform(5.0, 10.0)],
            ]))
            f = gen.normal(size=(n + 1, n + 1))
            cov = f @ f.T / (n + 1)
            cov *= float(gen.uniform(0.05, 0.2)) / np.linalg.norm(cov, 2)
            covs.append(cov)
        robust = robustify_rows(base, list(zip(centers, covs)), alpha)
        sol, _ = solve_robust_cutting_planes(robust)
        assert sol.status == "Optimal"
        cert = certify(sol.x, robust.rows, m_cert, 0.05,
                       Rng.for_purpose(91, "acceptance-robust", i))
        if cert.v_hat <= bound:
            passed += 1
    assert passed >= 48  # at least 95% of 50


def test_criterion_07_cross_oracle_agreement():
    # (a) simplex vs vertex enumeration on 200 small box problems
    gen = np.random.default_rng(424242)
    for _ in range(200):
        n = int(gen.integers(1, 5))
        m = int(gen.integers(1, 7))
        rows = [
            (gen.normal(size=n), ("<=", ">=", "=")[int(gen.integers(0, 3))],
             float(gen.normal() * 2))
            for _ in range(m)
        ]
        lo = gen.uniform(-3, 0, size=n)
        hi = lo + gen.uniform(0.5, 4, size=n)
        problem = LpProblem(gen.normal(size=n), rows, list(zip(lo, hi)))
        fast, slow = solve_lp(problem), brute_force_lp(problem)
        assert fast.status == slow.status
        if fast.status == "Optimal":
            assert abs(fast.objective_value - slow.objective_value) <= 1e-6

    # (b) stacked scenario rows vs single min-rhs rows, fixed coefficients
    gen = np.random.default_rng(11)
    for _ in range(50):
        n = int(gen.integers(1, 5))
        m_u = int(gen.integers(1, 4))
        n_scen = int(gen.integers(2, 40))
        c = gen.normal(size=n)
        rows = gen.normal(size=(m_u, n))
        rhs_draws = gen.normal(size=(n_scen, m_u)) * 2.0 + 4.0
        lo = gen.uniform(-3, 0, size=n)
        hi = lo + gen.uniform(0.5, 4.0, size=n)
        base = LpProblem(c, [], list(zip(lo, hi)))
        fixed = StudentTRhs(rows=rows, dof=np.ones(m_u), loc=np.zeros(m_u),
                            scale=np.ones(m_u))
        stacked, _ = solve_scenario_lp(base, fixed, rhs_draws)
        min_rhs = rhs_draws.min(axis=0)
        direct = solve_lp(LpProblem(
            c, [(rows[j], "<=", float(min_rhs[j])) for j in range(m_u)],
            list(zip(lo, hi)),
        ))
        assert stacked.status == direct.status
        if stacked.status == "Optimal":
            assert abs(stacked.objective_value - direct.objective_value) <= 1e-8

    # (c) closed-form ellipsoid support vs dense boundary sampling.  A
    # low-discrepancy grid keeps the worst angular pocket small enough
    # that the discretization gap stays within the tolerance.
    grids = {p: _sphere_grid(p, 10 ** 5) for p in (2, 3)}
    gen = np.random.default_rng(52)
    for i in range(50):
        p = 2 + i % 2
        f = gen.normal(size=(p, p))
        cov = f @ f.T / p
        cov /= np.linalg.norm(cov, 2)
        rows = GaussianRows.from_covs([gen.normal(size=p)], [cov])
        kappa = float(gen.uniform(0.5, 1.5))
        z = gen.normal(size=p)
        z /= np.linalg.norm(z)
        value = soc_support(rows, kappa, z)[0][0]
        w = grids[p]
        pts = rows.centers[0] + kappa * w @ rows.factors[0].T
        best = float(np.max(pts @ z))
        assert value - best >= -1e-10  # support dominates every boundary point
        assert value - best <= 1e-4


def test_criterion_08_certification_counts_follow_binomial_law():
    # With 20 posterior draws per certificate, the violation count must be
    # Binomial(20, p); chi-square GOF at the 1% level over 5000 runs.
    reps, m_draws = 5000, 20

    class UniformBelow:
        # one draw u ~ U(0, 1) per row, violated when u < p_true
        def __init__(self, p_true):
            self.p_true = p_true

        def draw(self, rng, count):
            return rng.generator.random((count, 1))

        def residuals(self, x, batch):
            return self.p_true - batch

    for p_true in (0.05, 0.3):
        model = UniformBelow(p_true)
        counts = np.zeros(m_draws + 1)
        for r in range(reps):
            s, _ = estimate_violation(
                np.zeros((1, 1)), model, m_draws,
                Rng.for_purpose(77, "acceptance-gof", r),
            )
            counts[s[0]] += 1
        expected = reps * scipy.stats.binom.pmf(
            np.arange(m_draws + 1), m_draws, p_true
        )
        obs_pool, exp_pool = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(counts, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                obs_pool.append(acc_o)
                exp_pool.append(acc_e)
                acc_o = acc_e = 0.0
        if acc_e > 0.0:
            obs_pool[-1] += acc_o
            exp_pool[-1] += acc_e
        obs_pool, exp_pool = np.array(obs_pool), np.array(exp_pool)
        stat = float(((obs_pool - exp_pool) ** 2 / exp_pool).sum())
        critical = float(scipy.stats.chi2.ppf(0.99, len(obs_pool) - 1))
        assert stat <= critical


def test_criterion_09_quantile_round_trips_and_exact_tails():
    # beta quantile: the defining identity on a fixed grid
    from postfeas.stats import beta_quantile, chi2_quantile, student_t_quantile

    for a, b in [(0.5, 0.5), (2.0, 2.0), (1.0, 10.0), (83.0, 3918.0),
                 (200.0, 300.0)]:
        for p in (0.001, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999):
            x = beta_quantile(p, a, b)
            assert abs(reg_inc_beta(x, a, b) - p) <= 1e-10

    # chi-square quantile round trip through the regularized gamma CDF
    for df in (1.0, 2.0, 7.0, 33.0, 250.0):
        for p in (0.001, 0.05, 0.5, 0.95, 0.9999):
            x = chi2_quantile(p, df)
            assert abs(reg_lower_gamma(df / 2.0, x / 2.0) - p) <= 1e-9

    # Student-t quantile round trip through the incomplete-beta CDF form
    def t_cdf(t, dof):
        if t == 0.0:
            return 0.5
        tail = 0.5 * reg_inc_beta(dof / (dof + t * t), dof / 2.0, 0.5)
        return tail if t < 0.0 else 1.0 - tail

    for dof in (1.0, 2.5, 7.0, 90.0, 4004.0):
        for p in (0.005, 0.05, 0.3, 0.7, 0.95, 0.995):
            t = student_t_quantile(p, dof)
            assert abs(t_cdf(t, dof) - p) <= 1e-9

    # binomial tail against exact rational summation
    for n in range(1, 31):
        for eps in (0.05, 0.3, 0.5, 0.9):
            e = Fraction(eps)
            for d in sorted({1, (n + 1) // 2, n, n + 1}):
                if d < 1:
                    continue
                exact = sum(
                    math.comb(n, j) * e ** j * (1 - e) ** (n - j)
                    for j in range(d)
                )
                assert abs(binomial_tail(n, eps, d) - float(exact)) <= 1e-12


def test_criterion_10_bundled_panel_fixture_pipeline():
    tau_feas = 1e-8

    def run(fixture, cfg, seed):
        d = DATA_DIR / fixture
        data = load_panel_data(d / "detections.csv", d / "clusters.csv",
                               d / "weights.csv")
        post = fit_beta_binomial(data.detected, data.cluster_sizes,
                                 cfg.threshold)
        rng = Rng.for_purpose(seed, "panel")
        res = panel_select(data.weights, post, cfg, rng,
                           gene_ids=data.genes, cluster_ids=data.clusters)
        # exactly budget genes
        assert len(res.panel) == cfg.budget
        # replay the scenario stream and check every sampled constraint,
        # both at the relaxed optimum and at the selected panel
        scen_rng = Rng.for_purpose(rng.seed, rng.stream_id, "scenario")
        q = post.draw(scen_rng, cfg.n_scen)
        relaxed_cov = np.einsum("sjk,k->sj", q, res.relaxed_x)
        assert relaxed_cov.min() >= cfg.threshold - tau_feas
        x_bin = np.array([1.0 if g in res.panel else 0.0 for g in data.genes])
        assert np.einsum("sjk,k->sj", q, x_bin).min() >= cfg.threshold - tau_feas
        # the certificate is internally consistent
        assert res.certificate.v_hat <= res.certificate.upper_bound
        return res

    simple_cfg = PanelConfig(budget=3, threshold=1.5, n_scen=300,
                             m_cert=2000, beta=0.05)
    simple = run("panel_simple", simple_cfg, 2)
    assert simple.panel == ("g1", "g2", "g3")  # plain top weights suffice

    binding_cfg = PanelConfig(budget=3, threshold=1.2, n_scen=300,
                              m_cert=2000, beta=0.05)
    binding = run("panel_binding", binding_cfg, 11)
    # the coverage floor forces two low-weight genes in over g2 and g3
    assert binding.panel == ("g1", "g4", "g5")
    assert binding.panel != ("g1", "g2", "g3")


def test_criterion_11_benchmark_replay_bytewise(benchmark_runs):
    first, second = benchmark_runs
    for name in ("trials.csv", "by_alpha.csv", "overall.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
