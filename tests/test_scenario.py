"""Tests for the posterior-scenario LP and sample sizing."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

import postfeas.lp as lp_module
import postfeas.scenario as scenario_module
from postfeas.errors import (
    CountOutOfRange,
    DimensionMismatch,
    DomainError,
    EmptyInput,
)
from postfeas.lp import LpProblem, solve_lp
from postfeas.posterior import BetaCoverage, GaussianRows, StudentTRhs
from postfeas.scenario import required_sample_size, solve_scenario_lp
from postfeas.stats import Rng, binomial_tail


class TestRequiredSampleSize:
    def test_half_half_single_support(self):
        assert required_sample_size(0.5, 0.5, 1) == 1

    def test_five_percent_five_percent(self):
        n = required_sample_size(0.05, 0.05, 1)
        assert n == 59
        assert n == math.ceil(math.log(0.05) / math.log(0.95))

    def test_minimality_on_grid(self):
        for eps in (0.01, 0.05, 0.1, 0.3):
            for delta in (0.01, 0.05, 0.2):
                for d in (1, 2, 5, 10):
                    n = required_sample_size(eps, delta, d)
                    assert binomial_tail(n, eps, d) <= delta
                    assert binomial_tail(n - 1, eps, d) > delta

    def test_monotonicity(self):
        base = required_sample_size(0.05, 0.05, 3)
        assert required_sample_size(0.02, 0.05, 3) > base
        assert required_sample_size(0.1, 0.05, 3) < base
        assert required_sample_size(0.05, 0.01, 3) > base
        assert required_sample_size(0.05, 0.2, 3) < base
        assert required_sample_size(0.05, 0.05, 5) > base
        assert required_sample_size(0.05, 0.05, 1) < base

    def test_single_support_closed_form(self):
        for eps in (0.02, 0.07, 0.25):
            for delta in (0.03, 0.11):
                n = required_sample_size(eps, delta, 1)
                assert (1.0 - eps) ** n <= delta < (1.0 - eps) ** (n - 1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            required_sample_size(0.0, 0.05, 1)
        with pytest.raises(DomainError):
            required_sample_size(1.0, 0.05, 1)
        with pytest.raises(DomainError):
            required_sample_size(0.05, 0.0, 1)
        with pytest.raises(CountOutOfRange):
            required_sample_size(0.05, 0.05, 0)


class TestViolationBound:
    """The scenario violation bound is the binomial tail stats.binomial_tail."""

    def test_zero_eps_is_one(self):
        assert binomial_tail(25, 0.0, 3) == 1.0

    def test_full_mass_when_d_exceeds_draws(self):
        assert binomial_tail(10, 0.3, 11) == 1.0

    def test_exact_rational_summation(self):
        eps = 0.07
        frac_eps = Fraction(eps)
        for n, d in ((18, 3), (30, 6), (25, 1)):
            exact = sum(
                math.comb(n, j) * frac_eps**j * (1 - frac_eps) ** (n - j)
                for j in range(d)
            )
            assert abs(binomial_tail(n, eps, d) - float(exact)) <= 1e-12


def stacked_lp(base, coeff, sense, rhs):
    """Reference: base plus every sampled row coeff[k, i] x (sense) rhs[k, i]."""
    n_draws, m_u = rhs.shape
    coeff = np.broadcast_to(coeff, (n_draws, m_u, base.n))
    rows = [
        (coeff[k, i], sense, float(rhs[k, i]))
        for i in range(m_u)
        for k in range(n_draws)
    ]
    return LpProblem(base.objective, base.constraints() + rows, base.bounds())


def fixed_rows(rows):
    """Fixed rows whose rhs batches the tests write by hand."""
    m_u = len(rows)
    return StudentTRhs(rows=rows, dof=np.ones(m_u), loc=np.zeros(m_u),
                       scale=np.ones(m_u))


def general_rows(coeff, rhs):
    """A GaussianRows model and the batch whose draw k is coeff[k] x <= rhs[k]."""
    _, m_u, n = coeff.shape
    model = GaussianRows(centers=np.zeros((m_u, n + 1)),
                         factors=np.broadcast_to(np.eye(n + 1), (m_u, n + 1, n + 1)))
    return model, np.concatenate([coeff, rhs[..., np.newaxis]], axis=-1)


def rhs_only_instance(gen, n, m_u, n_draws, xmax=5.0):
    c = gen.uniform(0.2, 1.5, n)
    rows = gen.uniform(0.1, 2.0, (m_u, n))
    rhs = gen.uniform(1.0, 4.0, (n_draws, m_u))
    base = LpProblem(c, [], [(0.0, xmax)] * n)
    return base, fixed_rows(rows), rows, rhs


def family_instance(family):
    """A base LP, a posterior model of the family and 50 of its draws."""
    rng = Rng.for_purpose(90, "scenario-family", family)
    gen = np.random.default_rng(90)
    n = 4
    c = gen.uniform(0.5, 2.0, n)
    base = LpProblem(c, [], [(0.0, 3.0)] * n)
    if family == "StudentTRhs":
        model = StudentTRhs(rows=gen.uniform(0.1, 2.0, (3, n)), dof=[5.0] * 3,
                            loc=[4.0] * 3, scale=[0.5] * 3)
    elif family == "GaussianRows":
        centers = np.append(gen.uniform(0.5, 1.5, (3, n)), [[4.0]] * 3, axis=1)
        model = GaussianRows(centers=centers, factors=[0.1 * np.eye(n + 1)] * 3)
    else:
        model = BetaCoverage(a=gen.uniform(2.0, 8.0, (3, n)),
                             b=gen.uniform(2.0, 8.0, (3, n)), threshold=0.5)
        base = LpProblem(c, [(np.ones(n), "<=", 2.0)], [(0.0, 1.0)] * n)
    return base, model, model.draw(rng, 50)


class TestBuildScenarioLp:
    """solve_scenario_lp against the stacked LP each test builds."""

    def test_row_count_without_prefilter(self):
        # Fixed rows: the most violated draw of a row is its smallest rhs,
        # which implies every other draw, so one round adds all it needs.
        gen = np.random.default_rng(71)
        base, model, rows, rhs = rhs_only_instance(gen, 3, 4, 25)
        reference = stacked_lp(base, rows, "<=", rhs)
        assert reference.m == 4 * 25
        sol, log = solve_scenario_lp(base, model, rhs)
        ref = solve_lp(reference)
        assert sol.status == ref.status == "Optimal"
        assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-9)
        assert log.total_cuts <= 4
        assert log.rounds <= 2

    def test_single_nominal_draw_equals_nominal_lp(self):
        gen = np.random.default_rng(72)
        base, model, rows, rhs = rhs_only_instance(gen, 3, 2, 1)
        a, _ = solve_scenario_lp(base, model, rhs)
        nominal = LpProblem(
            base.objective,
            [(rows[i], "<=", rhs[0, i]) for i in range(2)],
            base.bounds(),
        )
        b = solve_lp(nominal)
        assert a.status == b.status == "Optimal"
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-12)
        assert np.allclose(a.x, b.x, atol=1e-12)

    def test_solution_satisfies_every_draw(self):
        gen = np.random.default_rng(73)
        base, model, rows, rhs = rhs_only_instance(gen, 4, 3, 40)
        sol, _ = solve_scenario_lp(base, model, rhs)
        assert sol.status == "Optimal"
        residual = rows @ sol.x - rhs
        assert float(residual.max()) <= 1e-8

    @pytest.mark.parametrize("sense", ["<=", ">="])
    def test_each_sense_matches_stacked_lp(self, sense):
        # Coefficients vary across draws: "<=" rows come as a GaussianRows
        # batch, ">=" rows as the coverage floors of a BetaCoverage.
        gen = np.random.default_rng({"<=": 81, ">=": 82}[sense])
        n, m_u, n_draws = 4, 2, 60
        point = gen.uniform(0.5, 1.5, n)
        optimal = 0
        for _ in range(10):
            c = gen.normal(size=n)
            base = LpProblem(c, [(np.ones(n), "<=", 6.0)], [(0.0, 3.0)] * n)
            coeff = gen.uniform(0.1, 2.0, (n_draws, m_u, n))
            if sense == "<=":
                rhs = coeff @ point + gen.uniform(-0.3, 0.3, (n_draws, m_u))
                model, batch = general_rows(coeff, rhs)
            else:
                floor = float((coeff @ point).min() + gen.uniform(-0.3, 0.3))
                rhs = np.full((n_draws, m_u), floor)
                model = BetaCoverage(a=np.ones((m_u, n)), b=np.ones((m_u, n)),
                                     threshold=floor)
                batch = coeff
            sol, log = solve_scenario_lp(base, model, batch)
            ref = solve_lp(stacked_lp(base, coeff, sense, rhs))
            assert sol.status == ref.status
            if ref.status == "Optimal":
                optimal += 1
                assert sol.objective_value == pytest.approx(
                    ref.objective_value, abs=1e-9
                )
                assert float(model.residuals(sol.x, batch).max()) <= 1e-8
                assert log.total_cuts <= n_draws * m_u
        assert optimal > 0

    @pytest.mark.parametrize("family", ["StudentTRhs", "GaussianRows",
                                        "BetaCoverage"])
    def test_matches_stacked_rows_of_each_family(self, family):
        base, model, batch = family_instance(family)
        coeff, rhs = model.as_rows(batch)
        sol, _ = solve_scenario_lp(base, model, batch)
        ref = solve_lp(stacked_lp(base, coeff, "<=", rhs))
        assert sol.status == ref.status == "Optimal"
        assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-9)
        assert float(model.residuals(sol.x, batch).max()) <= 1e-8

    @pytest.mark.parametrize("family", ["StudentTRhs", "GaussianRows",
                                        "BetaCoverage"])
    def test_reads_the_model_through_one_as_rows_call(self, family):
        # separation scores the rows of that one call; the model needs
        # no residuals
        base, model, batch = family_instance(family)
        calls = []

        class RowsOnly:
            def as_rows(self, rows_batch):
                calls.append(rows_batch)
                return model.as_rows(rows_batch)

        sol, log = solve_scenario_lp(base, RowsOnly(), batch)
        ref, ref_log = solve_scenario_lp(base, model, batch)
        assert len(calls) == 1 and calls[0] is batch
        assert log.rounds > 1
        assert sol.x.tobytes() == ref.x.tobytes()
        assert log.cuts_per_round == ref_log.cuts_per_round

    def test_unbounded_relaxation_solves_stacked_lp(self):
        # x is bounded only by the scenario rows: the first relaxation is
        # Unbounded, yet the stacked program has an optimum.  All 60 rows
        # go in at once and the same simplex re-enters.
        gen = np.random.default_rng(84)
        base = LpProblem(np.array([1.0, 2.0]), [], [(0.0, None), (0.0, None)])
        coeff = gen.uniform(0.5, 2.0, (30, 2, 2))
        rhs = gen.uniform(1.0, 3.0, (30, 2))
        model, batch = general_rows(coeff, rhs)
        sol, log = solve_scenario_lp(base, model, batch)
        ref = solve_lp(stacked_lp(base, coeff, "<=", rhs))
        assert sol.status == ref.status == "Optimal"
        assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-9)
        assert float(model.residuals(sol.x, batch).max()) <= 1e-8
        assert log.total_cuts == 60
        assert (log.rounds, log.cuts_per_round) == (2, [60, 0])
        assert log.final_max_support == 0.0 and sol.iterations == 3
        # rows that leave a direction open keep the stacked status
        coeff[:, :, 1] = 0.0
        model, batch = general_rows(coeff, rhs)
        sol, log = solve_scenario_lp(base, model, batch)
        assert sol.status == solve_lp(stacked_lp(base, coeff, "<=", rhs)).status
        assert sol.status == "Unbounded"
        assert (log.rounds, log.cuts_per_round) == (2, [60, 0])
        assert log.final_max_support == math.inf

    def test_never_calls_solve_lp(self, monkeypatch):
        # an Unbounded relaxation re-enters the one simplex too, whether
        # the stacked program has an optimum or stays Unbounded; a
        # solve_lp bound in scenario's namespace is counted as well
        calls = []
        cold = lp_module.solve_lp
        counted = lambda problem: calls.append(1) or cold(problem)  # noqa: E731
        monkeypatch.setattr(lp_module, "solve_lp", counted)
        monkeypatch.setattr(scenario_module, "solve_lp", counted, raising=False)
        gen = np.random.default_rng(84)
        base = LpProblem([1.0, 2.0], [], [(0.0, None), (0.0, None)])
        coeff = gen.uniform(0.5, 2.0, (30, 2, 2))
        rhs = gen.uniform(1.0, 3.0, (30, 2))
        sol, _ = solve_scenario_lp(base, *general_rows(coeff, rhs))
        assert sol.status == "Optimal"
        coeff[:, :, 1] = 0.0  # no row bounds x[1]
        sol, _ = solve_scenario_lp(base, *general_rows(coeff, rhs))
        assert sol.status == "Unbounded"
        assert calls == []

    def test_stacked_matches_min_rhs_reduction(self):
        gen = np.random.default_rng(74)
        for _ in range(20):
            n = int(gen.integers(2, 5))
            m_u = int(gen.integers(1, 4))
            n_draws = int(gen.integers(2, 60))
            base, model, rows, rhs = rhs_only_instance(gen, n, m_u, n_draws)
            stacked, _ = solve_scenario_lp(base, model, rhs)
            b_min = rhs.min(axis=0)
            reduced = solve_lp(
                LpProblem(
                    base.objective,
                    [(rows[i], "<=", b_min[i]) for i in range(m_u)],
                    base.bounds(),
                )
            )
            assert stacked.status == reduced.status == "Optimal"
            assert stacked.objective_value == pytest.approx(
                reduced.objective_value, abs=1e-8
            )

    def test_column_mismatch_rejected(self):
        base = LpProblem(np.array([1.0, 1.0]), [], [(0.0, 1.0)] * 2)
        with pytest.raises(DimensionMismatch):
            solve_scenario_lp(base, fixed_rows(np.ones((1, 3))), np.ones((2, 1)))

    def test_validation(self):
        base = LpProblem(np.ones(3), [], [(0.0, 1.0)] * 3)
        model = fixed_rows(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            solve_scenario_lp(base, model, np.ones(2))
        with pytest.raises(DimensionMismatch):
            solve_scenario_lp(base, model, np.ones((4, 3)))

        class LostDraw:
            # as_rows whose coefficients have one draw more than rhs
            def as_rows(self, batch):
                return np.ones((5, 2, 3)), batch

        with pytest.raises(DimensionMismatch):
            solve_scenario_lp(base, LostDraw(), np.ones((4, 2)))
        with pytest.raises(EmptyInput):
            solve_scenario_lp(base, model, np.ones((0, 2)))
        with pytest.raises(EmptyInput):
            solve_scenario_lp(base, *general_rows(np.ones((0, 2, 3)),
                                                  np.ones((0, 2))))
        for bad in (math.nan, math.inf):
            coeff = np.ones((4, 2, 3))
            coeff[3, 1, 0] = bad
            with pytest.raises(DomainError):
                solve_scenario_lp(base, *general_rows(coeff, np.ones((4, 2))))
            rhs = np.ones((4, 2))
            rhs[2, 0] = bad
            with pytest.raises(DomainError):
                solve_scenario_lp(base, model, rhs)
            with pytest.raises(DomainError):
                solve_scenario_lp(base, *general_rows(np.ones((4, 2, 3)), rhs))

    def test_more_scenarios_never_help(self):
        gen = np.random.default_rng(76)
        base, model, _, rhs = rhs_only_instance(gen, 3, 2, 50)
        objs = []
        for n_draws in (5, 15, 50):
            sol, _ = solve_scenario_lp(base, model, rhs[:n_draws])
            assert sol.status == "Optimal"
            objs.append(sol.objective_value)
        assert objs[0] >= objs[1] - 1e-12
        assert objs[1] >= objs[2] - 1e-12

    def test_scenario_guarantee_on_toy_problem(self):
        # One variable, rhs-only uncertainty, support rank 1: across many
        # regenerations the chance that the scenario solution's true
        # violation exceeds eps should respect the binomial tail bound.
        eps = delta = 0.05
        n_draws = required_sample_size(eps, delta, 1)
        reps = 500
        rng = Rng.for_purpose(2026, "scenario-toy")
        base = LpProblem(np.array([1.0]), [], [(-8.0, 8.0)])
        model = fixed_rows(np.ones((1, 1)))
        bad = 0
        for _ in range(reps):
            draws = rng.generator.standard_normal((n_draws, 1))
            sol, _ = solve_scenario_lp(base, model, draws)
            assert sol.status == "Optimal"
            assert sol.x[0] == pytest.approx(float(draws.min()), abs=1e-9)
            if scipy.stats.norm.cdf(sol.x[0]) > eps:
                bad += 1
        assert bad / reps <= delta + 3.0 * math.sqrt(delta * (1 - delta) / reps)

