"""Tests for the simulation benchmark and the panel-selection pipeline."""

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import postfeas.certification as certification_module
import postfeas.experiments as experiments_module
import postfeas.lp as lp_module
from postfeas import stats
from postfeas.certification import BLOCK, certify, draw_blocks, violation_flags
from postfeas.errors import (
    DimensionMismatch,
    DomainError,
    NumericalBreakdown,
    PanelInfeasible,
)
from postfeas.experiments import (
    METHODS,
    ClusterSummary,
    PanelConfig,
    SimConfig,
    _tightened_rhs,
    _swap_repair,
    _true_violation,
    fit_capacity_model,
    gen_instance,
    panel_certify_detail,
    panel_select,
    run_benchmark,
    run_trial,
    summarize_by_alpha,
    summarize_overall,
    write_by_alpha_csv,
    write_overall_csv,
    write_panel_clusters_csv,
    write_panel_csv,
    write_trials_csv,
)
from postfeas.lp import LpProblem, solve_lp
from postfeas.posterior import (
    BetaCoverage,
    Nig,
    StudentTRhs,
    fit_beta_binomial,
    fit_nig,
    fit_ols,
    load_panel_data,
)
from postfeas.stats import Rng, normal_quantile, student_t_quantile
from test_cli import child_env
from test_posterior import response

FAST = dict(
    n=8, m=3, d_ctx=3, n_obs=40, n_scen=60, m_cert=800,
    trials_per_alpha=2, alphas=(0.05, 0.1),
)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert (cfg.n, cfg.m, cfg.d_ctx) == (18, 7, 6)
        assert (cfg.n_obs, cfg.n_scen) == (90, 300)
        assert cfg.m_cert == 5000
        assert cfg.trials_per_alpha == 60
        assert cfg.alphas == (0.01, 0.05, 0.10)
        assert cfg.x_max == 50.0

    def test_json_round_trip(self):
        cfg = SimConfig(n=5, alphas=(0.02, 0.2), master_seed=7)
        assert SimConfig.from_json(json.dumps(dataclasses.asdict(cfg))) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            SimConfig.from_json('{"n": 5, "mystery": 1}')

    @pytest.mark.parametrize("doc", [
        {"n": "abc"}, {"n": 0}, {"m": 2.0}, {"d_ctx": -1}, {"n_obs": True},
        {"n_scen": 0}, {"m_true": 5000}, {"m_cert": 0},
        {"trials_per_alpha": 0}, {"alphas": [1.5]}, {"alphas": [0.0]},
        {"alphas": [0.05, 1.0]}, {"alphas": []}, {"alphas": ["x"]},
        {"alphas": 0.05}, {"master_seed": "x"}, {"master_seed": 1.5},
        {"x_max": "abc"}, {"x_max": 0.0}, {"x_max": float("inf")},
        {"a_range": [2.0]}, {"p_range": [5.0, 1.0]},
        {"sigma_range": [1.0, float("nan")]},
        {"trials_per_alpha": 1, "n_obs": 4, "d_ctx": 6}, {"n_obs": 6},
        {"sigma_range": [0.0, 1.0]}, {"sigma_range": [-2.0, -1.0]},
        {"alphas": [0.05, 0.05]}, {"alphas": [0.1, 0.1000001]},
    ])
    def test_out_of_range_values_rejected(self, doc):
        with pytest.raises(DomainError):
            SimConfig.from_json(json.dumps(doc))
        # a config built in Python passes the same checks; a key that is
        # not a field cannot be passed to the constructor at all
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        with pytest.raises(DomainError if set(doc) <= fields else TypeError):
            SimConfig(**{key: tuple(value) if isinstance(value, list) else value
                         for key, value in doc.items()})

    def test_replace_is_checked(self):
        with pytest.raises(DomainError):
            dataclasses.replace(SimConfig(), n_scen=0)
        with pytest.raises(DomainError):
            dataclasses.replace(SimConfig(), alphas=(1.5,))

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(n=np.int64(5), master_seed=np.int32(7))
        assert (cfg.n, cfg.master_seed) == (5, 7)


class TestGenInstance:
    def test_reproducible_from_stream(self):
        cfg = SimConfig(**FAST)
        a = gen_instance(cfg, Rng.for_purpose(42, "instance", 3))
        b = gen_instance(cfg, Rng.for_purpose(42, "instance", 3))
        for field in (
            "resource_rows", "profit", "beta_true", "sigma_true",
            "x_ctx", "design", "observations",
        ):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        c = gen_instance(cfg, Rng.for_purpose(42, "instance", 4))
        assert not np.array_equal(a.resource_rows, c.resource_rows)

    def test_shapes_and_ranges(self):
        cfg = SimConfig(**FAST)
        inst = gen_instance(cfg, Rng.for_purpose(1, "instance", 0))
        assert inst.resource_rows.shape == (cfg.m, cfg.n)
        assert inst.profit.shape == (cfg.n,)
        assert inst.beta_true.shape == (cfg.m, cfg.d_ctx)
        assert inst.sigma_true.shape == (cfg.m,)
        assert inst.x_ctx.shape == (cfg.d_ctx,)
        assert inst.design.shape == (cfg.n_obs, cfg.d_ctx)
        assert inst.observations.shape == (cfg.n_obs, cfg.m)
        assert np.all(inst.resource_rows > 0.0)
        assert np.all(inst.profit > 0.0)
        assert np.all(
            (inst.resource_rows >= cfg.a_range[0])
            & (inst.resource_rows <= cfg.a_range[1])
        )
        assert np.all(
            (inst.profit >= cfg.p_range[0]) & (inst.profit <= cfg.p_range[1])
        )
        assert np.all(
            (inst.sigma_true >= cfg.sigma_range[0])
            & (inst.sigma_true <= cfg.sigma_range[1])
        )
        assert inst.x_ctx[0] == 1.0
        assert np.all(inst.design[:, 0] == 1.0)

    def test_observation_noise_centered(self):
        cfg = SimConfig(n_obs=2000)
        inst = gen_instance(cfg, Rng.for_purpose(9, "instance", 0))
        resid = inst.observations - inst.design @ inst.beta_true.T
        for j in range(cfg.m):
            se = inst.sigma_true[j] / np.sqrt(cfg.n_obs)
            assert abs(resid[:, j].mean()) <= 3.0 * se
            assert resid[:, j].std() == pytest.approx(
                inst.sigma_true[j], rel=0.15
            )


@pytest.fixture(scope="module")
def setup():
    cfg = SimConfig(**FAST)
    inst = gen_instance(cfg, Rng.for_purpose(11, "instance", 0))
    rng = Rng.for_purpose(11, "trial", 0)
    # each row's one-row predictive, from its response of the one fit
    post = fit_nig(inst.design, inst.observations, Nig.default(cfg.d_ctx))
    preds = [StudentTRhs.from_nig([[0.0]], response(post, j), inst.x_ctx)
             for j in range(cfg.m)]
    return cfg, inst, rng, preds, fit_capacity_model(inst, cfg)


class TestTightenedRhs:
    def test_plugin_mean(self, setup):
        cfg, inst, rng, preds, model = setup
        out = _tightened_rhs("PM", inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        assert np.allclose(out, [p.loc[0] for p in preds], atol=1e-12)

    def test_credible_quantile(self, setup):
        cfg, inst, rng, preds, model = setup
        out = _tightened_rhs("CR", inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        # the per-row scalar quantile is the reference, bit for bit
        expect = [p.loc[0] + p.scale[0]
                  * student_t_quantile(0.05 / cfg.m, p.dof[0]) for p in preds]
        assert np.array_equal(out, expect)

    def test_posterior_scenarios_replay(self, setup):
        cfg, inst, rng, preds, model = setup
        out = _tightened_rhs("PS", inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        scen_rng = Rng.for_purpose(rng.seed, rng.stream_id, "scenario")
        draws = model.draw(scen_rng, cfg.n_scen)
        assert np.array_equal(out, draws.min(axis=0))
        assert np.all(out[np.newaxis, :] <= draws)
        pm = _tightened_rhs("PM", inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        assert np.all(out < pm)

    def test_frequentist_quantile(self, setup):
        cfg, inst, rng, _, model = setup
        out = _tightened_rhs("FPQ", inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        # the per-row scalar quantile of the least-squares t prediction
        # law (n - d degrees of freedom) is the reference, bit for bit
        fit = fit_ols(inst.design, inst.observations)
        expect = []
        for j in range(cfg.m):
            p = StudentTRhs.from_nig([[0.0]], response(fit, j), inst.x_ctx)
            assert p.dof[0] == cfg.n_obs - cfg.d_ctx
            expect.append(p.loc[0] + p.scale[0] * student_t_quantile(
                0.05 / cfg.m, p.dof[0]))
        assert out.tolist() == expect

    def test_normal_heuristic(self, setup):
        cfg, inst, rng, preds, model = setup
        out = _tightened_rhs("RB", inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        means = np.array([p.loc[0] for p in preds])
        sds = np.array(
            [p.scale[0] * np.sqrt(p.dof[0] / (p.dof[0] - 2.0)) for p in preds]
        )
        z = normal_quantile(1.0 - 0.05 / cfg.m)
        assert np.array_equal(out, means - z * sds)

    def test_unknown_method(self, setup):
        cfg, inst, rng, _, model = setup
        with pytest.raises(DomainError):
            _tightened_rhs("XX", inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))


@pytest.fixture(scope="module")
def trial():
    cfg = SimConfig(**FAST)
    inst = gen_instance(cfg, Rng.for_purpose(21, "instance", 0))
    rng = Rng.for_purpose(21, "trial", 0)
    return cfg, inst, rng, fit_capacity_model(inst, cfg)


def vanishing_trial():
    """run_trial's arguments at a true noise scale far below the posterior's."""
    cfg = SimConfig(
        n=8, m=3, d_ctx=3, n_obs=4000, n_scen=300,
        m_cert=400, sigma_range=(1e-3, 2e-3),
    )
    inst = gen_instance(cfg, Rng.for_purpose(33, "instance", 0))
    return (inst, fit_capacity_model(inst, cfg), 0.05, cfg,
            Rng.for_purpose(33, "trial", 0))


def by_method(inst, model, alpha, cfg, rng, trial=0):
    """run_trial's records keyed by method, checking their order."""
    recs = run_trial(inst, model, alpha, cfg, rng, trial)
    assert [r.method for r in recs] == list(METHODS)
    return {r.method: r for r in recs}


class TestRunMethod:
    """Each method's record from one run_trial call."""

    def test_record_fields(self, trial):
        cfg, inst, rng, model = trial
        rec = by_method(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id), trial=4)["CR"]
        assert rec.status == "Optimal"
        assert rec.method == "CR" and rec.alpha == 0.05 and rec.trial == 4
        assert rec.master_seed == rng.seed
        assert rec.profit > 0.0
        assert 0.0 <= rec.v_true <= 1.0
        assert 0.0 <= rec.v_post <= rec.v_post_ub95 <= 1.0
        assert rec.clamped is False

    def test_reproducible(self, trial):
        cfg, inst, rng, model = trial
        a = by_method(inst, model, 0.1, cfg, Rng(rng.seed, rng.stream_id))["PS"]
        b = by_method(inst, model, 0.1, cfg, Rng(rng.seed, rng.stream_id))["PS"]
        assert a == b

    def test_plugin_riskier_than_hedges(self, trial):
        cfg, inst, rng, model = trial
        records = by_method(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        assert records["PM"].profit >= max(
            records[m].profit for m in ("CR", "PS", "FPQ", "RB")
        )
        assert records["PM"].v_post >= max(
            records[m].v_post for m in ("CR", "PS", "FPQ", "RB")
        )

    def test_plugin_highly_violating_on_smoke_instance(self):
        cfg = SimConfig(m_cert=500)
        inst = gen_instance(cfg, Rng.for_purpose(42, "instance", 0))
        rec = by_method(inst, fit_capacity_model(inst, cfg), 0.05, cfg,
                        Rng.for_purpose(42, "trial", 0))["PM"]
        assert rec.status == "Optimal"
        assert rec.v_true > 0.5

    def test_vanishing_uncertainty_aligns_methods(self):
        # With the true noise scale far below the posterior predictive
        # scale (which is floored by the prior rate at this sample size),
        # every method's tightened rhs collapses to the predictive mean,
        # so profits agree to within 1%, and the methods that subtract a
        # posterior-quantile margin stop violating entirely.  The OLS
        # quantile method tightens proportionally to the estimated noise,
        # so it stays calibrated near its target level instead of going
        # to zero, and the plug-in method's violation at tiny noise is
        # governed by the sign of the prior shrinkage on the fit; neither
        # is asserted to vanish.
        recs = by_method(*vanishing_trial())
        profits = np.array([recs[m].profit for m in METHODS])
        assert np.ptp(profits) / profits.mean() <= 0.01
        for name in ("CR", "PS", "RB"):
            assert recs[name].v_true <= 0.01
        assert recs["FPQ"].v_true <= 0.05

    def test_trials_csv_writes_no_negative_zero(self, tmp_path):
        # the hedged methods' exact v_true underflows to zero here
        recs = run_trial(*vanishing_trial())
        write_trials_csv(tmp_path / "trials.csv", recs)
        lines = (tmp_path / "trials.csv").read_text(encoding="utf-8").splitlines()
        fields = [f for line in lines[1:] for f in line.split(",")]
        assert "0.0" in [line.split(",")[5] for line in lines[1:]]
        assert "-0.0" not in fields

    def test_negative_rhs_clamped(self):
        cfg = SimConfig(**FAST, intercept_range=(-5.0, -4.0))
        inst = gen_instance(cfg, Rng.for_purpose(34, "instance", 0))
        rec = by_method(inst, fit_capacity_model(inst, cfg), 0.05, cfg,
                        Rng.for_purpose(34, "trial", 0))["PM"]
        assert rec.clamped is True
        assert rec.status == "Optimal"
        assert rec.profit == 0.0
        assert rec.v_true > 0.9


class TestRunTrial:
    def test_one_certification_pass_per_trial(self, trial, monkeypatch):
        # m_cert = 1,500 spans two blocks
        cfg, inst, rng, model = trial
        cfg = dataclasses.replace(cfg, m_cert=1500)
        expect = run_trial(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        passes, blocks, sampled = [], [], []
        real_blocks, real_generator = certification_module.draw_blocks, stats.Rng.generator

        def counting_blocks(model, m_draws, rng):
            passes.append(m_draws)
            for batch in real_blocks(model, m_draws, rng):
                blocks.append(len(batch))
                yield batch

        class RecordingGenerator:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                sampled.append(name)
                return getattr(self._gen, name)

        monkeypatch.setattr(certification_module, "draw_blocks", counting_blocks)
        monkeypatch.setattr(stats.Rng, "generator", property(
            lambda r: RecordingGenerator(real_generator.fget(r))))
        recs = run_trial(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        assert [r.status for r in recs] == ["Optimal"] * len(METHODS)
        assert passes == [1500]
        assert blocks == [BLOCK, 1500 - BLOCK]
        assert "standard_normal" not in sampled  # v_true is exact, not sampled
        assert "standard_t" in sampled
        assert recs == expect

    def test_one_factorization_per_fit(self, monkeypatch):
        # The m rows share a design and a prior: fit_nig and fit_ols each
        # factor once for all m responses, and from_nig once per fit, so
        # a default instance takes 4 Cholesky factors, not 4 m.
        cfg = SimConfig()
        inst = gen_instance(cfg, Rng.for_purpose(42, "instance", 0))
        real, calls = np.linalg.cholesky, []

        def counting(a):
            calls.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        model = fit_capacity_model(inst, cfg)
        recs = run_trial(inst, model, 0.05, cfg, Rng.for_purpose(42, "trial", 0))
        assert [r.status for r in recs] == ["Optimal"] * len(METHODS)
        assert calls == [(cfg.d_ctx, cfg.d_ctx)] * 4

    def test_failing_method_gives_one_error_record(self, trial, monkeypatch):
        cfg, inst, rng, model = trial
        expect = run_trial(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))

        def broken(*args):
            raise RuntimeError("decide step failed")

        monkeypatch.setattr(experiments_module, "rb_heuristic_tighten", broken)
        recs = run_trial(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        assert [r.status for r in recs] == ["Optimal"] * 4 + ["Error"]
        assert recs[:4] == expect[:4]
        assert recs[4].method == "RB" and np.isnan(recs[4].profit)

    def test_failing_middle_tightening_leaves_the_others(self, trial, monkeypatch):
        # FPQ raises before its solve; PM then re-enters from CR's basis
        # instead of FPQ's, which may move the last digits of x only
        cfg, inst, rng, model = trial
        expect = run_trial(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        real = experiments_module._tightened_rhs

        def failing_fpq(method, *args):
            if method == "FPQ":
                raise RuntimeError("FPQ tightening failed")
            return real(method, *args)

        monkeypatch.setattr(experiments_module, "_tightened_rhs", failing_fpq)
        recs = run_trial(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        assert [r.status for r in recs] == ["Optimal", "Error", "Optimal",
                                            "Optimal", "Optimal"]
        for got, ref in zip(recs, expect):
            if got.method == "FPQ":
                continue
            assert got.profit == pytest.approx(ref.profit, rel=1e-12, abs=0.0)
            assert got.v_post == ref.v_post
            assert got.v_post_ub95 == ref.v_post_ub95

    def test_solve_that_raises_gives_the_next_method_a_cold_start(
            self, trial, monkeypatch):
        cfg, inst, rng, model = trial
        real = lp_module._BoundedSimplex.solve
        calls = []

        def breaks_second(self):
            calls.append(1)
            if len(calls) == 2:  # FPQ's solve
                raise NumericalBreakdown("injected")
            return real(self)

        monkeypatch.setattr(lp_module._BoundedSimplex, "solve", breaks_second)
        recs = run_trial(inst, model, 0.05, cfg, Rng(rng.seed, rng.stream_id))
        monkeypatch.undo()
        assert [r.status for r in recs] == ["Optimal", "Error", "Optimal",
                                            "Optimal", "Optimal"]
        b_pm = np.maximum(_tightened_rhs("PM", inst, model, 0.05, cfg,
                                         Rng(rng.seed, rng.stream_id)), 0.0)
        cold = solve_lp(LpProblem(
            inst.profit, [(row, "<=", float(b)) for row, b in
                          zip(inst.resource_rows, b_pm)],
            [(0.0, cfg.x_max)] * cfg.n))
        assert recs[2].profit == cold.objective_value
        assert recs[2].v_true == _true_violation(
            inst.resource_rows @ cold.x, inst.x_ctx @ inst.beta_true.T,
            inst.sigma_true)


def trial_solutions_digest(trials: int = 21) -> tuple[str, str]:
    """sha256 over default-config run_trial calls, cycling the alphas:
    each method's status, iterations and x bytes, then the records; and
    sha256 over the records' statuses and v_post values alone."""
    cfg = SimConfig()
    digest, v_post = hashlib.sha256(), hashlib.sha256()
    real = lp_module.RhsSequence.solve

    def recorded(self, rhs):
        sol = real(self, rhs)
        digest.update(repr((sol.status, sol.iterations)).encode())
        if sol.x is not None:
            digest.update(sol.x.tobytes())
        return sol

    lp_module.RhsSequence.solve = recorded
    try:
        for k in range(trials):
            inst = gen_instance(cfg, Rng.for_purpose(cfg.master_seed, "instance", k))
            model = fit_capacity_model(inst, cfg)
            recs = run_trial(inst, model, cfg.alphas[k % len(cfg.alphas)], cfg,
                             Rng.for_purpose(cfg.master_seed, "trial", k), k)
            digest.update(repr([dataclasses.astuple(r) for r in recs]).encode())
            v_post.update(repr([(r.status, r.v_post) for r in recs]).encode())
    finally:
        lp_module.RhsSequence.solve = real
    return digest.hexdigest(), v_post.hexdigest()


class TestTrialReplayDigest:
    # 21 default trials replay bit for bit under one BLAS thread: every
    # method's status, simplex iterations and x, and the trial records.
    # The digest was taken while the first solve of a trial still built
    # its simplex from an LpProblem at that method's rhs, so it pins that
    # starting every solve through replace_rhs moved no pivot.  V_POST
    # hashes the 105 records' statuses and v_post values; it was taken
    # while the simplex kept the basis inverse, so it pins that the kept
    # tableau moved none of them.
    DIGEST = "51e63de03c070d2caf8e8ef34fd7214542f579fabd8e490baa7a18c167af3dde"
    V_POST = "a0946c8df6299d621c98d8dee48f8333f04912e2d6b07de89ed77e3d6bbe5e2d"

    def test_twenty_one_trials_replay(self):
        code = ("from test_experiments import trial_solutions_digest\n"
                "print(*trial_solutions_digest())\n")
        env = child_env(OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [self.DIGEST, self.V_POST]


class TestTrueViolation:
    """The sim's exact v_true: some independent N(mean_j, sd_j^2) below ax_j."""

    @staticmethod
    def rows(seed, m=7):
        gen = np.random.default_rng(seed)
        mean = gen.uniform(40.0, 80.0, m)
        sd = gen.uniform(3.0, 9.0, m)
        ax = mean + sd * gen.uniform(-2.0, 2.0, m)
        return ax, mean, sd

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy(self, seed):
        ax, mean, sd = self.rows(seed)
        expect = 1.0 - np.prod(scipy.stats.norm.cdf((mean - ax) / sd))
        assert _true_violation(ax, mean, sd) == pytest.approx(expect, rel=1e-12)

    def test_matches_monte_carlo(self):
        ax, mean, sd = self.rows(7)
        n = 200_000
        gen = np.random.default_rng(8)
        capacity = mean + sd * gen.standard_normal((n, ax.size))
        estimate = (capacity < ax).any(axis=1).mean()
        v = _true_violation(ax, mean, sd)
        assert abs(v - estimate) <= 5.0 * np.sqrt(v * (1.0 - v) / n)

    def test_far_tail_keeps_its_digits(self):
        ax, mean, sd = self.rows(9)
        z = np.linspace(10.0, 12.0, ax.size)
        ax = mean - z * sd
        v = _true_violation(ax, mean, sd)
        expect = -np.expm1(np.sum(np.log1p(-scipy.stats.norm.sf(z))))
        assert v > 0.0
        assert v == pytest.approx(expect, rel=1e-10)

    def test_certain_and_impossible_rows(self):
        ax, mean, sd = self.rows(3)
        ax[2] = mean[2] + 100.0 * sd[2]
        assert _true_violation(ax, mean, sd) == 1.0
        zero = _true_violation(mean - 100.0 * sd, mean, sd)
        assert zero == 0.0 and np.copysign(1.0, zero) == 1.0


@pytest.fixture(scope="module")
def records():
    cfg = SimConfig(**FAST)
    return cfg, run_benchmark(cfg)


class TestRunBenchmark:
    def test_count_and_order(self, records):
        cfg, recs = records
        assert len(recs) == len(cfg.alphas) * cfg.trials_per_alpha * len(METHODS)
        expect = [
            (alpha, trial, method)
            for alpha in cfg.alphas
            for trial in range(cfg.trials_per_alpha)
            for method in METHODS
        ]
        assert [(r.alpha, r.trial, r.method) for r in recs] == expect

    def test_deterministic(self, records):
        cfg, recs = records
        assert run_benchmark(cfg) == recs

    def test_seed_changes_results(self, records):
        cfg, recs = records
        other = run_benchmark(dataclasses.replace(cfg, master_seed=7))
        assert other != recs

    def test_parallel_equals_sequential(self, records):
        cfg, recs = records
        assert run_benchmark(cfg, jobs=2) == recs

    @pytest.mark.parametrize("jobs", [2, 5000])
    def test_no_more_workers_than_trials(self, records, monkeypatch, jobs):
        # A fork-started pool forks all max_workers processes at its first
        # submit, so the pool is capped at one worker per trial.  The
        # stand-in records the cap and runs map in this process.
        cfg, recs = records
        caps = []

        class RecordingPool:
            def __init__(self, max_workers):
                caps.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert run_benchmark(cfg, jobs=jobs) == recs
        assert caps == [min(jobs, len(cfg.alphas) * cfg.trials_per_alpha)]

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, records, jobs):
        with pytest.raises(DomainError, match="jobs must be >= 1"):
            run_benchmark(records[0], jobs=jobs)

    def test_summaries(self, records):
        cfg, recs = records
        by_alpha = summarize_by_alpha(cfg, recs)
        assert len(by_alpha) == len(cfg.alphas) * len(METHODS)
        assert [row["method"] for row in by_alpha[: len(METHODS)]] == list(METHODS)
        for row in by_alpha:
            assert row["n"] == cfg.trials_per_alpha
            assert row["vpost_mean"] <= row["vpost_ub95_mean"]
        overall = summarize_overall(cfg, recs)
        assert len(overall) == len(METHODS)
        for row in overall:
            assert row["n"] == cfg.trials_per_alpha * len(cfg.alphas)
            assert "vtrue_sd" not in row

    def test_failing_method_recorded_not_raised(self, monkeypatch):
        real = experiments_module._tightened_rhs

        def failing_ps(method, *args):
            if method == "PS":
                raise RuntimeError("scenario step failed")
            return real(method, *args)

        monkeypatch.setattr(experiments_module, "_tightened_rhs", failing_ps)
        cfg = SimConfig(**{**FAST, "trials_per_alpha": 1})
        recs = run_benchmark(cfg)
        by_method = {}
        for r in recs:
            by_method.setdefault(r.method, []).append(r.status)
        assert set(by_method["PS"]) == {"Error"}
        for m in ("CR", "FPQ", "PM", "RB"):
            assert set(by_method[m]) == {"Optimal"}
        by_alpha = summarize_by_alpha(cfg, recs)
        ps_rows = [row for row in by_alpha if row["method"] == "PS"]
        assert all(row["n"] == 0 for row in ps_rows)
        assert all(np.isnan(row["profit_mean"]) for row in ps_rows)

    def test_single_record_has_zero_sd(self, records):
        cfg, recs = records
        one = [r for r in recs if r.alpha == 0.05 and r.method == "PM"][:1]
        agg = summarize_by_alpha(cfg, one)
        pm_row = [r for r in agg if r["method"] == "PM" and r["alpha"] == 0.05][0]
        assert pm_row["n"] == 1
        assert pm_row["profit_sd"] == 0.0


class TestCsvWriters:
    def test_trials_csv(self, records, tmp_path):
        cfg, recs = records
        path = tmp_path / "trials.csv"
        write_trials_csv(path, recs)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "alpha,method,trial,status,profit,v_true,v_post,"
            "v_post_ub95,clamped,master_seed"
        )
        assert len(lines) == 1 + len(recs)
        first = lines[1].split(",")
        assert first[0] == repr(recs[0].alpha)
        assert first[1] == recs[0].method
        assert first[4] == repr(recs[0].profit)
        assert first[8] in ("0", "1")

    def test_by_alpha_csv(self, records, tmp_path):
        cfg, recs = records
        path = tmp_path / "by_alpha.csv"
        write_by_alpha_csv(path, summarize_by_alpha(cfg, recs))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "alpha,method,n,profit_mean,profit_sd,vtrue_mean,vtrue_sd,"
            "vpost_mean,vpost_ub95_mean"
        )
        assert len(lines) == 1 + len(cfg.alphas) * len(METHODS)

    def test_overall_csv(self, records, tmp_path):
        cfg, recs = records
        path = tmp_path / "overall.csv"
        write_overall_csv(path, summarize_overall(cfg, recs))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "method,n,profit_mean,profit_sd,vtrue_mean,vpost_mean,"
            "vpost_ub95_mean"
        )
        assert len(lines) == 1 + len(METHODS)

    def test_byte_identical_rewrites(self, records, tmp_path):
        cfg, recs = records
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(a, recs)
        write_trials_csv(b, recs)
        assert a.read_bytes() == b.read_bytes()


class TestPanelConfig:
    def test_defaults(self):
        cfg = PanelConfig()
        assert cfg.budget == 30
        assert cfg.threshold == 8.0
        assert cfg.n_scen == 300
        assert cfg.m_cert == 4000
        assert cfg.beta == 0.05

    def test_json_round_trip(self):
        cfg = PanelConfig(budget=5, threshold=2.5, m_cert=1000)
        assert PanelConfig.from_json(json.dumps(dataclasses.asdict(cfg))) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            PanelConfig.from_json('{"budget": 5, "mystery": true}')
        with pytest.raises(DomainError):
            PanelConfig.from_json('{"alpha_intent": 0.05}')

    @pytest.mark.parametrize("text", [
        '{"budget": 2.5}', '{"budget": 0}', '{"budget": "3"}',
        '{"n_scen": 0}', '{"m_cert": -4}', '{"m_cert": 10.0}',
        '{"beta": 0.0}', '{"beta": 1.0}', '{"beta": 1.5}',
        '{"threshold": NaN}', '{"threshold": Infinity}',
        '{"threshold": "8"}',
    ])
    def test_out_of_range_values_rejected(self, text):
        with pytest.raises(DomainError):
            PanelConfig.from_json(text)
        # a config built in Python passes the same checks
        with pytest.raises(DomainError):
            PanelConfig(**json.loads(text))


def concentrated_posterior(means, threshold, total=1e10):
    means = np.asarray(means, dtype=float)
    return BetaCoverage(a=means * total, b=(1.0 - means) * total,
                        threshold=threshold)


class TestPanelCertifyDetail:
    def test_degenerate_posterior_collapses_quantiles(self):
        cfg = PanelConfig(budget=4, threshold=2.0, m_cert=500)
        post = concentrated_posterior(np.full((1, 4), 0.6), cfg.threshold)
        cert, summaries = panel_certify_detail(
            np.ones(4), post, cfg, Rng.for_purpose(61, "panel-cert")
        )
        assert cert.s == 0
        (summary,) = summaries
        assert summary.mean == pytest.approx(2.4, abs=1e-4)
        for q in (summary.q05, summary.median, summary.q95):
            assert q == pytest.approx(summary.mean, abs=1e-4)
        assert summary.violation_rate == 0.0

    def test_union_bound_sandwich(self):
        det = np.array([[30.0, 25.0, 20.0], [18.0, 35.0, 22.0], [26.0, 24.0, 28.0]])
        cfg = PanelConfig(budget=3, threshold=1.5, m_cert=2000)
        post = fit_beta_binomial(det, np.array([50.0, 50.0, 50.0]), cfg.threshold)
        cert, summaries = panel_certify_detail(
            np.ones(3), post, cfg, Rng.for_purpose(62, "panel-sandwich")
        )
        rates = [s.violation_rate for s in summaries]
        assert rates == list(cert.per_constraint_rates)
        assert max(rates) <= cert.v_hat <= min(1.0, sum(rates)) + 1e-12
        assert 0.0 < cert.v_hat < 1.0

    def test_chunked_draws_replayable(self):
        # the panel certificate reads the same block-addressed draws as
        # certify() on the coverage model of the selected genes, across
        # block edges
        det = np.array([[30.0, 5.0, 25.0], [18.0, 40.0, 35.0]])
        cfg = PanelConfig(budget=2, threshold=1.0, m_cert=2500)
        post = fit_beta_binomial(det, np.array([50.0, 50.0]), cfg.threshold)
        x_sel = np.array([1.0, 0.0, 1.0])
        rng = Rng.for_purpose(63, "panel-chunk")
        cert, _ = panel_certify_detail(x_sel, post, cfg, rng)
        keep = [0, 2]
        replay = certify(x_sel[keep], post.restrict(keep), cfg.m_cert, cfg.beta,
                         Rng(rng.seed, rng.stream_id))
        assert cert == replay
        assert 0 < cert.s < cfg.m_cert

    def test_cluster_quantiles_match_per_level_calls(self):
        # one np.quantile call over all levels and clusters gives the bits
        # of one call per level and cluster
        det = np.array([[30.0, 25.0, 20.0], [18.0, 35.0, 22.0], [26.0, 24.0, 28.0]])
        cfg = PanelConfig(budget=3, threshold=1.5, m_cert=2500)
        post = fit_beta_binomial(det, np.array([50.0, 50.0, 50.0]), cfg.threshold)
        x_sel = np.array([1.0, 0.0, 1.0])
        rng = Rng.for_purpose(66, "panel-quantiles")
        _, summaries = panel_certify_detail(x_sel, post, cfg, rng)
        keep = [0, 2]
        coverage = np.concatenate([
            batch @ x_sel[keep]
            for batch in draw_blocks(post.restrict(keep), cfg.m_cert, rng)
        ])
        for j, summary in enumerate(summaries):
            got = (summary.q05, summary.median, summary.q95)
            want = tuple(float(np.quantile(coverage[:, j], q)) for q in (0.05, 0.5, 0.95))
            assert got == want

    @pytest.mark.parametrize("seed", range(5))
    def test_summaries_read_the_coverage_and_flags_of_the_drawn_rows(self, seed):
        # one product per block gives the bits of batch @ x and of
        # violation_flags on the same draws; m_cert ends in a short block
        gen = np.random.default_rng(seed)
        a, b = gen.uniform(0.3, 40.0, (2, 3, 5))
        x_sel = np.array([1.0, 0.0, 1.0, 0.5, 1.0])
        # the floor at the lowest cluster's mean coverage
        threshold = float((a / (a + b) @ x_sel).min())
        post = BetaCoverage(a=a, b=b, threshold=threshold)
        cfg = PanelConfig(budget=3, threshold=threshold, m_cert=1500)
        rng = Rng.for_purpose(seed, "panel-rows")
        cert, summaries = panel_certify_detail(x_sel, post, cfg, rng)
        keep = np.flatnonzero(x_sel)
        model = post.restrict(keep)
        batches = list(draw_blocks(model, cfg.m_cert, rng))
        coverage = np.concatenate([batch @ x_sel[keep] for batch in batches])
        flags = np.concatenate([violation_flags(model, x_sel[keep], batch)
                                for batch in batches])
        assert cert.s == flags.any(axis=1).sum() and 0 < cert.s < cfg.m_cert
        for j, summary in enumerate(summaries):
            assert summary.mean == float(coverage[:, j].mean())
            assert summary.violation_rate == float(flags[:, j].mean())

    def test_unselected_gene_parameters_do_not_matter(self):
        det = np.array([[30.0, 25.0, 20.0, 9.0], [18.0, 35.0, 22.0, 41.0]])
        cfg = PanelConfig(budget=2, threshold=1.0, m_cert=1500)
        post = fit_beta_binomial(det, np.array([50.0, 50.0]), cfg.threshold)
        a, b = post.a.copy(), post.b.copy()
        a[:, [1, 3]] = [[0.3, 70.0], [12.0, 0.9]]
        b[:, [1, 3]] = [[5.0, 0.2], [2.0, 33.0]]
        other = BetaCoverage(a=a, b=b, threshold=post.threshold)
        x_sel = np.array([1.0, 0.0, 1.0, 0.0])
        rng = Rng.for_purpose(67, "panel-unselected")
        got = panel_certify_detail(x_sel, post, cfg, rng)
        assert panel_certify_detail(x_sel, other, cfg, rng) == got
        assert 0 < got[0].s < cfg.m_cert

    def test_equals_run_on_model_without_unselected_genes(self):
        det = np.array([[30.0, 25.0, 20.0, 9.0], [18.0, 35.0, 22.0, 41.0]])
        cfg = PanelConfig(budget=2, threshold=1.0, m_cert=1500)
        post = fit_beta_binomial(det, np.array([50.0, 50.0]), cfg.threshold)
        x_sel = np.array([0.0, 1.0, 0.0, 0.5])
        deleted = BetaCoverage(a=np.delete(post.a, [0, 2], axis=1),
                               b=np.delete(post.b, [0, 2], axis=1),
                               threshold=post.threshold)
        rng = Rng.for_purpose(68, "panel-deleted")
        got = panel_certify_detail(x_sel, post, cfg, rng, cluster_ids=("u", "v"))
        want = panel_certify_detail(np.array([1.0, 0.5]), deleted, cfg, rng,
                                    cluster_ids=("u", "v"))
        assert got == want

    def test_gamma_draws_scale_with_selected_genes(self, monkeypatch):
        # J x (selected genes) Beta cells per draw; the other K - B
        # columns are never drawn
        j_clusters, k_genes = 3, 12
        post = BetaCoverage(a=np.full((j_clusters, k_genes), 4.0),
                            b=np.full((j_clusters, k_genes), 2.0), threshold=1.0)
        cfg = PanelConfig(budget=2, threshold=1.0, m_cert=2500)
        drawn = []
        draw = BetaCoverage.draw

        def counting(model, rng, count):
            out = draw(model, rng, count)
            drawn.append(out.size)
            return out

        monkeypatch.setattr(BetaCoverage, "draw", counting)
        for selected in ([4], [0, 7], [1, 5, 11]):
            drawn.clear()
            x_sel = np.zeros(k_genes)
            x_sel[selected] = 1.0
            panel_certify_detail(x_sel, post, cfg, Rng.for_purpose(69, "panel-count"))
            # m_cert draws in all: the last block is drawn only as far as needed
            assert sum(drawn) == cfg.m_cert * j_clusters * len(selected)

    @pytest.mark.parametrize("x_sel", [[np.inf, 0.0, 0.0], [np.nan, 1.0, 1.0],
                                       [1.0, -np.inf, 1.0]])
    def test_non_finite_selection_rejected_before_drawing(self, monkeypatch, x_sel):
        det = np.array([[30.0, 25.0, 20.0], [18.0, 35.0, 22.0]])
        cfg = PanelConfig(budget=2, threshold=1.0, m_cert=500)
        post = fit_beta_binomial(det, np.array([50.0, 50.0]), cfg.threshold)

        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking the selection")

        monkeypatch.setattr(experiments_module, "draw_blocks", no_draws)
        with pytest.raises(DomainError, match="finite"):
            panel_certify_detail(np.array(x_sel), post, cfg,
                                 Rng.for_purpose(70, "panel-nonfinite"))

    def test_cluster_ids_and_determinism(self):
        cfg = PanelConfig(budget=2, threshold=1.0, m_cert=600)
        post = fit_beta_binomial(
            np.array([[30.0, 25.0], [18.0, 35.0]]), np.array([50.0, 50.0]),
            cfg.threshold,
        )
        rng = Rng.for_purpose(64, "panel-ids")
        cert_a, sums_a = panel_certify_detail(
            np.ones(2), post, cfg, rng, cluster_ids=("left", "right")
        )
        cert_b, sums_b = panel_certify_detail(
            np.ones(2), post, cfg, Rng(rng.seed, rng.stream_id), cluster_ids=("left", "right")
        )
        assert cert_a == cert_b and sums_a == sums_b
        assert [s.cluster for s in sums_a] == ["left", "right"]

    def test_selection_shape_checked(self):
        cfg = PanelConfig(budget=2, threshold=0.5, m_cert=100)
        post = fit_beta_binomial(np.array([[3.0, 2.0]]), np.array([5.0]),
                                 cfg.threshold)
        with pytest.raises(DimensionMismatch):
            panel_certify_detail(
                np.ones(3), post, cfg, Rng.for_purpose(65, "panel-bad")
            )


class TestPanelSelect:
    def test_degenerate_detection_selects_by_weight(self):
        cfg = PanelConfig(budget=3, threshold=2.0, n_scen=40, m_cert=300)
        post = concentrated_posterior(np.full((1, 5), 1.0 - 1e-9), cfg.threshold)
        result = panel_select(
            np.array([5.0, 4.0, 3.0, 2.0, 1.0]),
            post,
            cfg,
            Rng.for_purpose(71, "panel-degenerate"),
            gene_ids=("g1", "g2", "g3", "g4", "g5"),
        )
        assert result.panel == ("g1", "g2", "g3")
        assert result.certificate.s == 0
        assert all(s.violation_rate == 0.0 for s in result.cluster_summaries)

    def test_panel_size_and_tie_break_rule(self):
        gen = np.random.default_rng(72)
        det = gen.integers(250, 480, size=(2, 10)).astype(float)
        weights = gen.uniform(0.5, 3.0, 10)
        cfg = PanelConfig(budget=4, threshold=1.5, n_scen=60, m_cert=400)
        post = fit_beta_binomial(det, np.array([500.0, 500.0]), cfg.threshold)
        ids = tuple(f"g{k:02d}" for k in range(10))
        result = panel_select(
            weights, post, cfg, Rng.for_purpose(73, "panel-tie"), gene_ids=ids
        )
        assert len(result.panel) == 4
        assert np.all((result.relaxed_x >= -1e-9) & (result.relaxed_x <= 1 + 1e-9))
        assert result.relaxed_x.sum() <= cfg.budget + 1e-7
        order = sorted(
            range(10),
            key=lambda k: (-result.relaxed_x[k], -weights[k], ids[k]),
        )
        expect = tuple(ids[k] for k in sorted(order[:4]))
        assert result.panel == expect

    def test_coverage_constraint_forces_specialists(self):
        # Cluster "rare" defeats the weight-greedy panel: the six heavy
        # generalists are nearly undetectable there, so the optimum must
        # spend budget on light specialist genes.
        n_cells = 500
        det = np.zeros((2, 12))
        det[0, :] = 450.0
        det[1, :8] = 15.0
        det[1, 8:] = 460.0
        weights = np.array([1.0] * 8 + [0.1] * 4)
        cfg = PanelConfig(budget=6, threshold=2.5, n_scen=80, m_cert=500)
        post = fit_beta_binomial(det, np.array([n_cells, n_cells], dtype=float),
                                 cfg.threshold)
        rng = Rng.for_purpose(74, "panel-adversarial")
        result = panel_select(
            weights,
            post,
            cfg,
            rng,
            gene_ids=tuple(f"g{k:02d}" for k in range(12)),
            cluster_ids=("broad", "rare"),
        )
        specialists = [g for g in result.panel if int(g[1:]) >= 8]
        assert len(specialists) >= 3
        # replay the optimization scenarios and check the relaxed solution
        scen_rng = Rng.for_purpose(rng.seed, rng.stream_id, "scenario")
        q_draws = post.draw(scen_rng, cfg.n_scen)
        coverage = q_draws @ result.relaxed_x
        assert float(coverage.min()) >= cfg.threshold - 1e-8

    def test_infeasible_threshold_names_cluster(self):
        cfg = PanelConfig(budget=3, threshold=5.0, n_scen=40, m_cert=200)
        post = fit_beta_binomial(
            np.zeros((2, 6)), np.array([500.0, 500.0]), cfg.threshold
        )
        with pytest.raises(PanelInfeasible) as info:
            panel_select(
                np.ones(6),
                post,
                cfg,
                Rng.for_purpose(75, "panel-infeasible"),
                cluster_ids=("east", "west"),
            )
        assert info.value.cluster in ("east", "west")

    def test_infeasible_message_names_smallest_margin(self):
        # east can reach the floor, west cannot; the relaxed program is
        # infeasible and the error names west with its top-3 margin on
        # the replayed scenario draws
        cfg = PanelConfig(budget=3, threshold=2.0, n_scen=40, m_cert=200)
        post = fit_beta_binomial(
            np.array([[450.0] * 6, [50.0] * 6]), np.array([500.0, 500.0]),
            cfg.threshold,
        )
        rng = Rng.for_purpose(75, "panel-margin")
        with pytest.raises(PanelInfeasible) as info:
            panel_select(np.ones(6), post, cfg, rng, cluster_ids=("east", "west"))
        scen_rng = Rng.for_purpose(rng.seed, rng.stream_id, "scenario")
        q_draws = post.draw(scen_rng, cfg.n_scen)
        margins = np.sort(q_draws, axis=2)[:, :, -3:].sum(axis=2).min(axis=0) - 2.0
        assert margins[0] > 0.0 > margins[1]
        assert info.value.cluster == "west"
        assert str(info.value) == (
            "relaxed panel program is Infeasible; cluster 'west' has the "
            f"smallest top-3 coverage margin, {margins[1]:.6g}"
        )

    def test_validation(self):
        post = fit_beta_binomial(np.array([[3.0, 2.0]]), np.array([5.0]),
                                 PanelConfig().threshold)
        rng = Rng.for_purpose(76, "panel-validate")
        with pytest.raises(DomainError):
            panel_select(np.ones(2), post, PanelConfig(budget=3), rng)
        with pytest.raises(DimensionMismatch):
            panel_select(np.ones(3), post, PanelConfig(budget=1), rng)

    def test_deterministic(self):
        det = np.array([[40.0, 30.0, 20.0, 35.0], [25.0, 45.0, 30.0, 15.0]])
        cfg = PanelConfig(budget=2, threshold=0.8, n_scen=50, m_cert=300)
        post = fit_beta_binomial(det, np.array([60.0, 60.0]), cfg.threshold)
        rng = Rng.for_purpose(77, "panel-repeat")
        a = panel_select(np.array([2.0, 1.5, 1.0, 0.5]), post, cfg, rng)
        b = panel_select(np.array([2.0, 1.5, 1.0, 0.5]), post, cfg, Rng(rng.seed, rng.stream_id))
        assert a.panel == b.panel
        assert np.array_equal(a.relaxed_x, b.relaxed_x)
        assert a.certificate == b.certificate
        assert a.cluster_summaries == b.cluster_summaries


def violated_scenarios(q_draws, genes, threshold) -> int:
    """In-sample scenarios in which some cluster misses the floor."""
    return int((q_draws[:, :, list(genes)].sum(axis=2) < threshold).any(axis=1).sum())


@pytest.fixture(scope="module")
def synthetic_panels():
    """(top-B count, repaired count, top-B genes, repaired genes) on 20
    seeded panels, J=3 and K=10, with the floor at 0.8 of the smallest
    coverage of the uniform fractional panel."""
    out = []
    for seed in range(20):
        gen = np.random.default_rng([seed, 79])
        cells = gen.integers(150, 400, 3)
        det = gen.binomial(cells[:, None], gen.beta(0.6, 3.0, (3, 10)))
        weights = gen.uniform(0.5, 2.0, 10)
        q_mean = (det + 1.0) / (cells[:, None] + 2.0)
        cfg = PanelConfig(budget=3, n_scen=60, m_cert=200,
                          threshold=0.8 * float((0.3 * q_mean.sum(axis=1)).min()))
        post = fit_beta_binomial(det, cells, cfg.threshold)
        rng = Rng.for_purpose(seed, "panel-repair")
        res = panel_select(weights, post, cfg, rng)
        q = post.draw(Rng.for_purpose(rng.seed, rng.stream_id, "scenario"), cfg.n_scen)
        order = sorted(range(10), key=lambda k: (-res.relaxed_x[k], -weights[k], k))
        top = sorted(order[:3])
        repaired = [int(g[1:]) for g in res.panel]
        out.append((violated_scenarios(q, top, cfg.threshold),
                    violated_scenarios(q, repaired, cfg.threshold), top, repaired))
    return out


class TestSwapRepair:
    def test_never_violates_more_scenarios_than_top_b(self, synthetic_panels):
        assert all(fixed <= top for top, fixed, _, _ in synthetic_panels)
        assert any(fixed < top for top, fixed, _, _ in synthetic_panels)

    def test_top_b_without_violations_is_kept(self, synthetic_panels):
        clean = [(top_genes, fixed_genes)
                 for top, _, top_genes, fixed_genes in synthetic_panels if top == 0]
        assert clean
        assert all(top_genes == fixed_genes for top_genes, fixed_genes in clean)

    def test_repair_draws_nothing(self, monkeypatch):
        # at seed 2 the repair swaps g2 for g5 on the scenario draws in
        # memory: the draws are still the S x J x K scenarios, then the
        # certificate's blocks of the three selected genes
        d = DATA_DIR / "panel_binding"
        data = load_panel_data(d / "detections.csv", d / "clusters.csv",
                               d / "weights.csv")
        cfg = PanelConfig(budget=3, threshold=1.2, n_scen=300, m_cert=2000)
        post = fit_beta_binomial(data.detected, data.cluster_sizes, cfg.threshold)
        drawn = []
        draw = BetaCoverage.draw

        def counting(model, rng, count):
            out = draw(model, rng, count)
            drawn.append(out.shape)
            return out

        monkeypatch.setattr(BetaCoverage, "draw", counting)
        res = panel_select(data.weights, post, cfg, Rng.for_purpose(2, "panel"),
                           gene_ids=data.genes, cluster_ids=data.clusters)
        assert res.panel == ("g1", "g4", "g5")
        assert drawn == [(300, 2, 6), (BLOCK, 2, 3), (2000 - BLOCK, 2, 3)]

    def test_ties_go_to_weight_then_gene_order(self):
        # genes 0 and 1 miss the floor of 1.0 in both scenarios; swapping
        # gene 0 for gene 2 or gene 3 clears both, swapping gene 1 does not
        q = np.array([[[0.1, 0.5, 0.6, 0.6]], [[0.2, 0.5, 0.7, 0.7]]])
        assert _swap_repair(q, np.ones(4), [0, 1], 1.0) == [1, 2]
        assert _swap_repair(q, np.array([1.0, 1.0, 1.0, 1.5]), [0, 1], 1.0) == [1, 3]
        # no swap lowers the count: the panel stays
        assert _swap_repair(q, np.ones(4), [0, 1], 5.0) == [0, 1]


DATA_DIR = Path(__file__).parent / "data"

# (fixture, threshold, seed) -> float.hex of PanelResult.relaxed_x at
# budget 3, 300 scenarios and 2000 certification draws
FIXTURE_RELAXED_X = {
    ("panel_simple", 1.5, 2): [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ],
    ("panel_binding", 1.2, 11): [
        "0x1.0000000000000p+0", "0x1.20d8ce3b9f36ep-1", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.be4e6388c1926p-2", "0x0.0p+0",
    ],
}
# The same relaxed x while the simplex kept the basis inverse.
FIXTURE_RELAXED_X_INVERSE = [
    ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    ["0x1.0000000000000p+0", "0x1.20d8ce3b9f36dp-1", "0x0.0p+0",
     "0x1.0000000000000p+0", "0x1.be4e6388c1927p-2", "0x0.0p+0"],
]


def fixture_relaxed_hex():
    """float.hex of relaxed_x for each pinned fixture run, as JSON lists."""
    out = []
    for fixture, threshold, seed in FIXTURE_RELAXED_X:
        d = DATA_DIR / fixture
        data = load_panel_data(d / "detections.csv", d / "clusters.csv",
                               d / "weights.csv")
        cfg = PanelConfig(budget=3, threshold=threshold, n_scen=300,
                          m_cert=2000, beta=0.05)
        post = fit_beta_binomial(data.detected, data.cluster_sizes, threshold)
        res = panel_select(data.weights, post, cfg, Rng.for_purpose(seed, "panel"),
                           gene_ids=data.genes, cluster_ids=data.clusters)
        out.append([float(v).hex() for v in res.relaxed_x])
    return out


class TestFixtureReplayBits:
    """Byte-for-byte replay of the relaxed panel on the bundled fixtures."""

    def test_relaxed_x_bits_pinned(self):
        relaxed = fixture_relaxed_hex()
        assert relaxed == list(FIXTURE_RELAXED_X.values())
        for now, before in zip(relaxed, FIXTURE_RELAXED_X_INVERSE):
            assert max(abs(float.fromhex(a) - float.fromhex(b))
                       for a, b in zip(now, before)) <= 1e-12

    def test_same_bits_under_one_and_two_blas_threads(self):
        code = ("import json\n"
                "from test_experiments import fixture_relaxed_hex\n"
                "print(json.dumps(fixture_relaxed_hex()))\n")
        for threads in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout.splitlines()[-1]) == list(
                FIXTURE_RELAXED_X.values()), threads


@pytest.fixture(scope="module")
def result():
    det = np.array([[40.0, 30.0, 20.0, 35.0], [25.0, 45.0, 30.0, 15.0]])
    cfg = PanelConfig(budget=2, threshold=0.8, n_scen=50, m_cert=300)
    post = fit_beta_binomial(det, np.array([60.0, 60.0]), cfg.threshold)
    weights = np.array([2.0, 1.5, 1.0, 0.5])
    ids = ("gA", "gB", "gC", "gD")
    res = panel_select(
        weights, post, cfg, Rng.for_purpose(78, "panel-csv"), gene_ids=ids
    )
    return res, weights, ids


class TestPanelCsvWriters:
    def test_panel_csv(self, result, tmp_path):
        res, weights, ids = result
        path = tmp_path / "panel.csv"
        write_panel_csv(path, res, weights, ids)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank,gene,x_relaxed,weight"
        assert len(lines) == 1 + len(res.panel)
        ranks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ranks == list(range(1, len(res.panel) + 1))
        scores = [float(line.split(",")[2]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_panel_clusters_csv(self, result, tmp_path):
        res, _, _ = result
        path = tmp_path / "panel_clusters.csv"
        write_panel_clusters_csv(path, res)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cluster,mean,q05,median,q95,violation_rate"
        assert len(lines) == 1 + len(res.cluster_summaries)
        first = lines[1].split(",")
        assert first[0] == res.cluster_summaries[0].cluster
        assert float(first[1]) == res.cluster_summaries[0].mean

    def test_byte_identical_rewrites(self, result, tmp_path):
        res, weights, ids = result
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_panel_clusters_csv(a, res)
        write_panel_clusters_csv(b, res)
        assert a.read_bytes() == b.read_bytes()
