"""Tests for ellipsoidal credible-set robustification."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.optimize import linprog

from postfeas.certification import certify
from postfeas.errors import (
    DimensionMismatch,
    DomainError,
    MaxRoundsExceeded,
    NotPositiveDefinite,
)
from postfeas import lp, robustify
from postfeas.lp import LpProblem, solve_cutting_planes, solve_lp
from postfeas import stats
from postfeas.posterior import GaussianRows, StudentTRhs
from postfeas.robustify import (
    bonferroni_kappa,
    rb_heuristic_tighten,
    rhs_quantile_tighten,
    robustify_rows,
    soc_support,
    solve_robust_cutting_planes,
)
from postfeas.stats import Rng, chi2_quantile
from test_cli import child_env
from test_lp import count_inversions, count_pivots, highs_objective


def random_pd_cov(gen, p, scale=0.12):
    root = gen.normal(size=(p, p)) * scale
    return root @ root.T + 1e-4 * np.eye(p)


def one_row(center, cov):
    return GaussianRows.from_covs([center], [cov])


def support(rows, kappa, z):
    """Support value and maximizer of a one-row model."""
    values, maximizers = soc_support(rows, kappa, z)
    return values[0], maximizers[0]


class TestSocSupport:
    def test_unit_ball_cauchy_schwarz_case(self):
        rows = one_row(np.zeros(2), np.eye(2))
        value, u_star = support(rows, 2.0, np.array([3.0, 4.0]))
        assert value == pytest.approx(10.0, abs=1e-12)
        assert np.allclose(u_star, [1.2, 1.6], atol=1e-12)

    def test_shifted_center(self):
        rows = one_row(np.array([1.0, 0.0]), np.eye(2))
        value, u_star = support(rows, 1.0, np.array([1.0, 0.0]))
        assert value == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(u_star, [2.0, 0.0], atol=1e-12)

    def test_maximizer_attains_support_on_boundary(self):
        gen = np.random.default_rng(51)
        for _ in range(20):
            p = int(gen.integers(2, 5))
            rows = one_row(gen.normal(size=p), random_pd_cov(gen, p, 0.6))
            kappa = float(gen.uniform(0.3, 2.0))
            z = gen.normal(size=p)
            value, u_star = support(rows, kappa, z)
            assert u_star @ z == pytest.approx(value, rel=1e-12, abs=1e-12)
            # u* lies on the boundary: solve center + kappa*factor w = u*.
            w = np.linalg.solve(rows.factors[0], u_star - rows.centers[0]) / kappa
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)

    def test_boundary_sampling_never_beats_support(self):
        gen = np.random.default_rng(52)
        for p in (2, 3, 2, 3, 2, 3):
            cov = random_pd_cov(gen, p, 0.5)
            cov /= np.linalg.norm(cov, 2)
            rows = one_row(gen.normal(size=p), cov)
            kappa = float(gen.uniform(0.5, 1.5))
            z = gen.normal(size=p)
            z /= np.linalg.norm(z)
            value, _ = support(rows, kappa, z)
            w = gen.normal(size=(10**5, p))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            pts = rows.centers[0] + kappa * w @ rows.factors[0].T
            best = float(np.max(pts @ z))
            assert value - best >= -1e-10
            assert value - best <= 1e-4

    def test_interior_points_dominated(self):
        gen = np.random.default_rng(53)
        p = 3
        rows = one_row(gen.normal(size=p), random_pd_cov(gen, p, 0.7))
        kappa = 1.3
        w = gen.normal(size=(10**4, p))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        radii = gen.uniform(0.0, 1.0, (10**4, 1)) ** (1.0 / p)
        pts = rows.centers[0] + kappa * (radii * w) @ rows.factors[0].T
        for _ in range(3):
            z = gen.normal(size=p)
            value, _ = support(rows, kappa, z)
            assert np.max(pts @ z) <= value + 1e-10

    def test_degenerate_direction(self):
        rows = one_row(np.array([2.0, 5.0]), np.diag([1.0, 0.0]))
        value, u_star = support(rows, 3.0, np.array([0.0, 1.0]))
        assert value == 5.0
        assert np.array_equal(u_star, [2.0, 5.0])

    def test_rows_are_independent(self):
        # Each row of a stacked model gets the support of its own ellipsoid.
        gen = np.random.default_rng(54)
        centers = gen.normal(size=(4, 3))
        covs = [random_pd_cov(gen, 3, 0.5) for _ in range(4)]
        covs[2] = np.zeros((3, 3))
        z = gen.normal(size=3)
        values, maximizers = soc_support(
            GaussianRows.from_covs(centers, covs), 1.7, z
        )
        assert values.shape == (4,) and maximizers.shape == (4, 3)
        for i in range(4):
            value, u_star = support(one_row(centers[i], covs[i]), 1.7, z)
            assert values[i] == value
            assert np.array_equal(maximizers[i], u_star)
        assert np.array_equal(maximizers[2], centers[2])

    def test_dimension_checked(self):
        rows = one_row(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            soc_support(rows, 1.0, np.zeros(3))

    def test_ellipsoid_validation(self):
        with pytest.raises(DomainError):
            one_row(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(DomainError):
            one_row(np.zeros(2), np.eye(3))
        with pytest.raises(DomainError):
            soc_support(one_row(np.zeros(2), np.eye(2)), -0.5, np.ones(2))
        with pytest.raises(NotPositiveDefinite):
            one_row(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestBonferroniKappa:
    def test_chi2_two_dof_closed_form(self):
        assert bonferroni_kappa(0.05, 1, 2) == pytest.approx(
            math.sqrt(-2.0 * math.log(0.05)), rel=1e-12
        )

    def test_increasing_in_rows(self):
        vals = [bonferroni_kappa(0.05, m, 4) for m in range(1, 11)]
        assert np.all(np.diff(vals) > 0.0)

    def test_increasing_in_dimension(self):
        vals = [bonferroni_kappa(0.05, 3, dim) for dim in range(1, 11)]
        assert np.all(np.diff(vals) > 0.0)

    def test_matches_chi2_quantile(self):
        for alpha, m, dim in ((0.05, 7, 19), (0.1, 3, 4), (0.01, 2, 8)):
            expect = math.sqrt(chi2_quantile(1.0 - alpha / m, dim))
            assert bonferroni_kappa(alpha, m, dim) == expect

    def test_domain_errors(self):
        for bad in ((0.0, 1, 2), (1.0, 1, 2), (0.05, 0, 2), (0.05, 1, 0)):
            with pytest.raises(DomainError):
                bonferroni_kappa(*bad)


def box_base(c, xmax=3.0, constraints=()):
    c = np.asarray(c, dtype=float)
    return LpProblem(
        objective=c,
        constraints=list(constraints),
        bounds=[(0.0, xmax)] * c.size,
    )


def rhs_only_row(a, b_bar, sigma):
    a = np.asarray(a, dtype=float)
    center = np.concatenate([a, [b_bar]])
    cov = np.zeros((a.size + 1, a.size + 1))
    cov[-1, -1] = sigma**2
    return center, cov


class TestRobustifyRows:
    def test_kappa_and_row_count(self):
        base = box_base([1.0, 1.0])
        rows = [rhs_only_row([1.0, 0.5], 2.0, 0.3) for _ in range(4)]
        rlp = robustify_rows(base, rows, alpha=0.1)
        assert isinstance(rlp.rows, GaussianRows)
        assert rlp.rows.centers.shape == (4, 3)
        assert rlp.kappa == bonferroni_kappa(0.1, 4, 3)
        for i, (center, cov) in enumerate(rows):
            assert np.array_equal(rlp.rows.centers[i], center)
            factor = rlp.rows.factors[i]
            assert np.allclose(factor @ factor.T, cov, atol=1e-15)

    def test_zero_covariance_is_nominal(self):
        base = box_base([1.0, 0.7])
        rows = [
            (np.array([1.0, 0.4, 2.0]), np.zeros((3, 3))),
            (np.array([0.3, 1.0, 1.5]), np.zeros((3, 3))),
        ]
        rlp = robustify_rows(base, rows, alpha=0.05)
        sol, log = solve_robust_cutting_planes(rlp)
        nominal = LpProblem(
            base.objective,
            [(c[:2], "<=", c[2]) for c, _ in rows],
            base.bounds(),
        )
        ref = solve_lp(nominal)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-9)
        assert log.cuts_per_round[0] == 2
        assert all(c == 0 for c in log.cuts_per_round[1:])

    def test_validation_errors(self):
        base = box_base([1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            robustify_rows(base, [], alpha=0.1)
        with pytest.raises(DimensionMismatch):
            robustify_rows(base, [(np.zeros(4), np.eye(4))], alpha=0.1)
        bad_cov = np.array(
            [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]]
        )
        with pytest.raises(NotPositiveDefinite):
            robustify_rows(base, [(np.zeros(3), bad_cov)], alpha=0.1)



class TestDecideAndCertify:
    # The robust program's own GaussianRows certifies its decision, with
    # no second model built from the covariances.
    def test_demo_instance(self):
        centers = [np.array([1.0, 1.2, 7.0]), np.array([1.5, 0.8, 6.0])]
        covs = [np.diag([0.010, 0.012, 0.20]), np.diag([0.015, 0.008, 0.15])]
        base = LpProblem([3.0, 2.5], [], [(0.0, 10.0), (0.0, 10.0)])
        rlp = robustify_rows(base, list(zip(centers, covs)), 0.10)
        sol, _ = solve_robust_cutting_planes(rlp)
        cert = certify(sol.x, rlp.rows, 20_000, 0.05,
                       Rng.for_purpose(99, "robust-demo", "robust"))
        assert cert.upper_bound <= 0.10

    def test_seeded_instance(self):
        gen = np.random.default_rng(62)
        n = 3
        rows = [
            (
                np.array([*gen.uniform(0.2, 1.5, n), gen.uniform(3.0, 6.0)]),
                random_pd_cov(gen, n + 1, 0.25),
            )
            for _ in range(3)
        ]
        rlp = robustify_rows(box_base(gen.uniform(0.5, 2.0, n), 5.0), rows, 0.05)
        sol, _ = solve_robust_cutting_planes(rlp)
        assert sol.status == "Optimal"
        cert = certify(sol.x, rlp.rows, 5000, 0.05, Rng.for_purpose(62, "robust"))
        assert cert.upper_bound <= 0.05


class TestCuttingPlanes:
    def test_slack_rows_take_one_round(self):
        # The box optimum already satisfies the uncertain row, so the
        # first relaxation is final and no cut is ever generated.
        base = box_base([1.0, 1.0], xmax=1.0)
        rows = [rhs_only_row([1.0, 1.0], 10.0, 0.1)]
        sol, log = solve_robust_cutting_planes(robustify_rows(base, rows, 0.1))
        assert sol.status == "Optimal"
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)
        assert log.rounds == 1
        assert log.cuts_per_round == [0]
        assert log.total_cuts == 0

    def test_rhs_only_matches_closed_form(self):
        gen = np.random.default_rng(58)
        for _ in range(25):
            n = int(gen.integers(2, 5))
            m = int(gen.integers(2, 6))
            kappa = bonferroni_kappa(0.05, m, n + 1)
            c = gen.uniform(0.2, 1.5, n)
            rows, tightened = [], []
            for _ in range(m):
                a = gen.uniform(0.1, 2.0, n)
                sigma = float(gen.uniform(0.0, 0.5))
                b_bar = float(gen.uniform(1.0, 4.0)) + kappa * sigma
                rows.append(rhs_only_row(a, b_bar, sigma))
                tightened.append((a, "<=", b_bar - kappa * sigma))
            base = box_base(c, xmax=6.0)
            sol, log = solve_robust_cutting_planes(
                robustify_rows(base, rows, 0.05)
            )
            ref = solve_lp(LpProblem(c, tightened, base.bounds()))
            assert sol.status == "Optimal" and ref.status == "Optimal"
            assert sol.objective_value == pytest.approx(
                ref.objective_value, abs=1e-6
            )
            assert log.final_max_support <= 1e-7

    def test_two_variable_grid_oracle(self):
        for seed in (101, 202):
            gen = np.random.default_rng(seed)
            c = gen.uniform(0.4, 1.2, 2)
            xmax = 3.0
            rows = []
            for _ in range(2):
                center = np.array(
                    [*gen.uniform(0.3, 1.2, 2), gen.uniform(2.0, 3.5)]
                )
                rows.append((center, random_pd_cov(gen, 3, 0.25)))
            rlp = robustify_rows(box_base(c, xmax), rows, alpha=0.1)
            sol, _ = solve_robust_cutting_planes(rlp)
            assert sol.status == "Optimal"

            def feasible_mask(x1, x2):
                pts = np.column_stack(
                    [x1.ravel(), x2.ravel(), -np.ones(x1.size)]
                )
                ok = np.ones(x1.size, dtype=bool)
                for center, factor in zip(rlp.rows.centers, rlp.rows.factors):
                    vals = pts @ center + rlp.kappa * np.linalg.norm(
                        pts @ factor, axis=1
                    )
                    ok &= vals <= 0.0
                return ok

            axis = np.linspace(0.0, xmax, 1201)
            g1, g2 = np.meshgrid(axis, axis)
            ok = feasible_mask(g1, g2)
            objs = np.where(ok, c[0] * g1.ravel() + c[1] * g2.ravel(), -np.inf)
            best_idx = int(np.argmax(objs))
            coarse_best = objs[best_idx]
            assert np.isfinite(coarse_best)
            cx, cy = g1.ravel()[best_idx], g2.ravel()[best_idx]
            h = axis[1] - axis[0]
            fine1 = np.clip(np.linspace(cx - 3 * h, cx + 3 * h, 301), 0.0, xmax)
            fine2 = np.clip(np.linspace(cy - 3 * h, cy + 3 * h, 301), 0.0, xmax)
            f1, f2 = np.meshgrid(fine1, fine2)
            fok = feasible_mask(f1, f2)
            fobjs = np.where(fok, c[0] * f1.ravel() + c[1] * f2.ravel(), -np.inf)
            grid_best = max(coarse_best, float(np.max(fobjs)))
            assert sol.objective_value - grid_best >= -1e-9
            assert sol.objective_value - grid_best <= 1e-3

    def test_converged_solution_nearly_feasible(self):
        gen = np.random.default_rng(59)
        for _ in range(10):
            n = int(gen.integers(2, 4))
            m = int(gen.integers(1, 4))
            c = gen.uniform(0.2, 1.5, n)
            rows = [
                (
                    np.array([*gen.uniform(0.2, 1.5, n), gen.uniform(1.5, 4.0)]),
                    random_pd_cov(gen, n + 1),
                )
                for _ in range(m)
            ]
            rlp = robustify_rows(box_base(c), rows, alpha=0.1)
            sol, log = solve_robust_cutting_planes(rlp)
            assert sol.status == "Optimal"
            z = np.concatenate([sol.x, [-1.0]])
            worst = soc_support(rlp.rows, rlp.kappa, z)[0].max()
            assert worst <= 1e-7
            assert log.final_max_support <= 1e-7

    def test_robust_never_beats_nominal(self):
        gen = np.random.default_rng(60)
        for _ in range(10):
            n = int(gen.integers(2, 4))
            c = gen.uniform(0.2, 1.5, n)
            rows = [
                (
                    np.array([*gen.uniform(0.2, 1.5, n), gen.uniform(1.5, 4.0)]),
                    random_pd_cov(gen, n + 1),
                )
                for _ in range(3)
            ]
            base = box_base(c)
            rlp = robustify_rows(base, rows, alpha=0.1)
            sol, _ = solve_robust_cutting_planes(rlp)
            nominal = solve_lp(
                LpProblem(
                    c,
                    [(ctr[:-1], "<=", ctr[-1]) for ctr, _ in rows],
                    base.bounds(),
                )
            )
            assert sol.objective_value <= nominal.objective_value + 1e-9

    def test_max_rounds_exceeded(self):
        base = box_base([1.0, 1.0])
        rows = [rhs_only_row([1.0, 1.0], 1.0, 0.3)]
        rlp = robustify_rows(base, rows, alpha=0.1)

        def separate(x):
            values, maximizers = soc_support(rlp.rows, rlp.kappa, np.append(x, -1.0))
            cuts = [(u[:-1], "<=", float(u[-1]))
                    for value, u in zip(values, maximizers) if value > 1e-7]
            return cuts, max(0.0, *values.tolist())

        with pytest.raises(MaxRoundsExceeded):
            solve_cutting_planes(base, separate, 1)
        with pytest.raises(DomainError):
            solve_cutting_planes(base, separate, 0)

    # Cut sequences of the loop before it was shared with the scenario
    # program; x is compared bit for bit.  Instance: c ~ U(0.5, 2), rows
    # (U(0.2, 1.5)^n, U(3, 6)) with random_pd_cov(scale), box [0, 5]^n.
    # x_hex is the pivot path of the dual re-entry on the kept tableau;
    # INVERSE_X holds, per seed, the x of the same path when the simplex
    # kept the basis inverse, and COLD_X that of the cold two-phase solve
    # per round it replaced.  x must be within 1e-12 of both.
    INVERSE_X = {
        2: ["0x1.ea92ed4c37d8ap-1", "0x0.0p+0", "0x1.b68d1244527f0p+0",
            "0x0.0p+0"],
        3: ["0x1.0da7152928d35p+0", "0x0.0p+0", "0x1.0542b4849c6ffp-1"],
    }
    COLD_X = {
        2: ["0x1.ea92ed4c37d8cp-1", "0x0.0p+0", "0x1.b68d1244527f0p+0",
            "0x0.0p+0"],
        3: ["0x1.0da7152928000p+0", "0x0.0p+0", "0x1.0542b4849d400p-1"],
    }

    @pytest.mark.parametrize("seed, n, scale, budget, x_hex, cuts", [
        (2, 4, 0.3, None,
         ["0x1.ea92ed4c37d8ep-1", "0x0.0p+0", "0x1.b68d1244527efp+0",
          "0x0.0p+0"],
         [3, 2, 3, 2, 2, 0]),
        (3, 3, 0.25, 4.0,
         ["0x1.0da715292918dp+0", "0x0.0p+0", "0x1.0542b4849c3cbp-1"],
         [3, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0]),
    ])
    def test_cut_sequence_pinned(self, monkeypatch, seed, n, scale, budget,
                                 x_hex, cuts):
        gen = np.random.default_rng(seed)
        c = gen.uniform(0.5, 2.0, n)
        rows = [
            (
                np.array([*gen.uniform(0.2, 1.5, n), gen.uniform(3.0, 6.0)]),
                random_pd_cov(gen, n + 1, scale),
            )
            for _ in range(3)
        ]
        fixed = [] if budget is None else [(np.ones(n), "<=", budget)]
        rlp = robustify_rows(box_base(c, 5.0, fixed), rows, alpha=0.1)
        sol, log, last = solve_recording_last_relaxation(rlp, monkeypatch)
        assert sol.status == "Optimal"
        assert sol.x.tolist() == [float.fromhex(h) for h in x_hex]
        for pinned in (self.INVERSE_X, self.COLD_X):
            earlier = np.array([float.fromhex(h) for h in pinned[seed]])
            assert np.abs(sol.x - earlier).max() <= 1e-12
        assert log.rounds == len(cuts)
        assert log.cuts_per_round == cuts
        ref = highs_objective(last)
        assert abs(sol.objective_value - ref) <= 1e-9 * abs(ref)

    def test_infeasible_base_returned_as_is(self):
        base = LpProblem(
            objective=np.array([1.0, 1.0]),
            constraints=[(np.array([1.0, 0.0]), "<=", -1.0)],
            bounds=[(0.0, 3.0), (0.0, 3.0)],
        )
        rows = [rhs_only_row([1.0, 1.0], 2.0, 0.1)]
        sol, log = solve_robust_cutting_planes(robustify_rows(base, rows, 0.1))
        assert sol.status == "Infeasible"
        assert log.rounds == 1

    def test_unbounded_relaxation_raises(self):
        # With x >= 0 and no rows the first relaxation is unbounded, so no
        # robust row can be separated; the same row with a slack box solves.
        rows = [(np.array([1.0, 1.0, 4.0]), 0.01 * np.eye(3))]
        open_base = LpProblem([1.0, 1.0], [], [(0.0, None), (0.0, None)])
        with pytest.raises(DomainError, match="must bound the decision"):
            solve_robust_cutting_planes(robustify_rows(open_base, rows, 0.1))
        rlp = robustify_rows(box_base([1.0, 1.0], 100.0), rows, 0.1)
        sol, log = solve_robust_cutting_planes(rlp)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(3.356122469491277, abs=1e-12)
        assert log.rounds == 14
        ref = highs_cutting_planes(rlp)
        assert abs(sol.objective_value - ref) <= 1e-9 * abs(ref)

    def test_rounds_never_call_solve_lp(self, monkeypatch):
        calls = []
        cold = lp.solve_lp

        def counted(problem):
            calls.append(1)
            return cold(problem)

        # a solve_lp bound in robustify's namespace is counted as well
        monkeypatch.setattr(lp, "solve_lp", counted)
        monkeypatch.setattr(robustify, "solve_lp", counted, raising=False)
        gen = np.random.default_rng(2)
        rows = [(np.array([*gen.uniform(0.2, 1.5, 4), gen.uniform(3.0, 6.0)]),
                 random_pd_cov(gen, 5, 0.3)) for _ in range(3)]
        rlp = robustify_rows(box_base(gen.uniform(0.5, 2.0, 4), 5.0), rows, 0.1)
        sol, log = solve_robust_cutting_planes(rlp)
        assert sol.status == "Optimal" and log.rounds > 1
        assert calls == []


def ten_var_instance():
    """n=10, 8 uncertain rows: numpy seed 2026, random_pd_cov at its
    default scale, box [0, 5]^10, alpha 0.1."""
    gen = np.random.default_rng(2026)
    c = gen.uniform(0.5, 2.0, 10)
    rows = [(np.array([*gen.uniform(0.2, 1.5, 10), gen.uniform(3.0, 6.0)]),
             random_pd_cov(gen, 11)) for _ in range(8)]
    return robustify_rows(box_base(c, 5.0), rows, alpha=0.1)


def solve_recording_last_relaxation(rlp, monkeypatch):
    """solve_robust_cutting_planes(rlp), and the LpProblem of its last
    relaxation: the base with every row the loop appended."""
    added = []

    def recording(base, separate, max_rounds):
        def separate_and_record(x):
            rows, worst = separate(x)
            added.extend(rows)
            return rows, worst
        return solve_cutting_planes(base, separate_and_record, max_rounds)

    monkeypatch.setattr(robustify, "solve_cutting_planes", recording)
    sol, log = solve_robust_cutting_planes(rlp)
    base = rlp.base
    return sol, log, LpProblem(base.objective, base.constraints() + added,
                               base.bounds())


def highs_cutting_planes(rlp):
    """Kelley's loop with HiGHS relaxations and the same separation."""
    base = rlp.base
    cuts_a, cuts_b = [], []
    for _ in range(500):
        res = linprog(-base.objective,
                      A_ub=np.array(cuts_a) if cuts_a else None,
                      b_ub=np.array(cuts_b) if cuts_b else None,
                      bounds=base.bounds(), method="highs")
        assert res.status == 0, res.message
        values, maximizers = soc_support(rlp.rows, rlp.kappa, np.append(res.x, -1.0))
        new = [u for value, u in zip(values, maximizers) if value > 1e-7]
        if not new:
            return -res.fun
        cuts_a += [u[:-1] for u in new]
        cuts_b += [u[-1] for u in new]
    raise AssertionError("HiGHS cutting planes did not converge")


class TestTenVariableInstance:
    def test_refactors_once_per_128_pivots(self, monkeypatch):
        pivots = count_pivots(monkeypatch)
        inversions = count_inversions(monkeypatch)
        sol, _ = solve_robust_cutting_planes(ten_var_instance())
        assert sol.status == "Optimal"
        assert len(pivots) >= 128
        assert len(inversions) == len(pivots) // 128

    def test_rounds_cuts_and_highs_objective(self):
        rlp = ten_var_instance()
        sol, log = solve_robust_cutting_planes(rlp)
        assert sol.status == "Optimal"
        assert log.rounds == 32
        assert log.total_cuts == 113
        ref = highs_cutting_planes(rlp)
        assert abs(sol.objective_value - ref) <= 1e-9 * abs(ref)

    def test_same_cuts_under_one_and_two_blas_threads(self):
        code = ("import json\n"
                "from test_robustify import ten_var_instance\n"
                "from postfeas.robustify import solve_robust_cutting_planes\n"
                "sol, log = solve_robust_cutting_planes(ten_var_instance())\n"
                "print(json.dumps([log.cuts_per_round, sol.objective_value]))\n")
        results = []
        for threads in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        (cuts1, value1), (cuts2, value2) = results
        assert cuts1 == cuts2
        assert sum(cuts1) == 113
        assert abs(value1 - value2) <= 1e-9 * abs(value1)


def robust_lp_instance(seed):
    """n=4, 2 uncertain rows drawn as the benchmark's robust_lp
    instances are (covariance root scale 0.12, redrawn until the rhs
    sd is below a fifth of its center), from numpy seed seed; box
    [0, 5]^4, alpha 0.1."""
    gen = np.random.default_rng(seed)
    n = 4
    c = gen.uniform(0.5, 2.0, n)
    rows = []
    for _ in range(2):
        center = np.concatenate([gen.uniform(0.2, 1.5, n), [gen.uniform(3.0, 6.0)]])
        while True:
            root = gen.normal(size=(n + 1, n + 1)) * 0.12
            cov = root @ root.T + 1e-4 * np.eye(n + 1)
            if math.sqrt(cov[-1, -1]) < center[-1] / 5.0:
                break
        rows.append((center, cov))
    return robustify_rows(box_base(c, 5.0), rows, alpha=0.1)


def many_round_instance():
    """robust_lp_instance(3), which takes 48 rounds."""
    return robust_lp_instance(3)


class TestManyRoundInstance:
    # 48 rounds, where the other pins stop at 16: the dual re-entry's
    # pivot path over many appends, x read from the basic values that 66
    # pivots maintained without a refactor.  x is compared bit for bit.
    # INVERSE_X_HEX is the same path's x when the simplex kept the basis
    # inverse; the 66 updates of the tableau instead moved x by 2.9e-12.
    X_HEX = ["0x1.dcbd89096cf14p-4", "0x1.aa84478c2ed4cp-1",
             "0x1.4f50c2b55f11ep+0", "0x1.e17ee2f3b0765p-1"]
    INVERSE_X_HEX = ["0x1.dcbd890952e08p-4", "0x1.aa84478c29146p-1",
                     "0x1.4f50c2b55e900p+0", "0x1.e17ee2f3b6ca9p-1"]

    def test_cut_sequence_and_x_pinned(self, monkeypatch):
        sol, log, last = solve_recording_last_relaxation(
            many_round_instance(), monkeypatch)
        assert sol.status == "Optimal"
        assert log.cuts_per_round == [2, 2, 2] + [1] * 44 + [0]
        assert log.rounds == 48
        assert sol.iterations == 118
        assert sol.x.tolist() == [float.fromhex(h) for h in self.X_HEX]
        inverse = [float.fromhex(h) for h in self.INVERSE_X_HEX]
        assert np.abs(sol.x - inverse).max() <= 1e-11
        ref = highs_objective(last)
        assert abs(sol.objective_value - ref) <= 1e-9 * abs(ref)

    def test_highs_objective(self):
        rlp = many_round_instance()
        sol, _ = solve_robust_cutting_planes(rlp)
        ref = highs_cutting_planes(rlp)
        assert abs(sol.objective_value - ref) <= 1e-9 * abs(ref)


class TestReplayDigest:
    # 40 robust_lp instances replay bit for bit under one BLAS thread:
    # status, rounds, cuts per round and the bytes of x, hashed (DIGEST).
    # STRUCTURE hashes the status, rounds and cuts per round alone; it was
    # taken while the simplex kept the basis inverse, so it pins that the
    # kept tableau moved no round.
    DIGEST = "09107cd14a76a1c694ac5f15d316d92e02cb57d4ddb3d98babc29a4f276de485"
    STRUCTURE = "a4cc268e6a51b8ac11567c8c33f99d0e043d6ce851751d97a0a0258e9b2742a8"

    def test_forty_instances_replay(self):
        code = ("import hashlib\n"
                "from test_robustify import robust_lp_instance\n"
                "from postfeas.robustify import solve_robust_cutting_planes\n"
                "digest, structure = hashlib.sha256(), hashlib.sha256()\n"
                "for seed in range(40):\n"
                "    sol, log = solve_robust_cutting_planes(robust_lp_instance(seed))\n"
                "    shape = repr((sol.status, log.rounds, log.cuts_per_round))\n"
                "    digest.update(shape.encode())\n"
                "    digest.update(sol.x.tobytes())\n"
                "    structure.update(shape.encode())\n"
                "print(digest.hexdigest(), structure.hexdigest())\n")
        env = child_env(OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [self.DIGEST, self.STRUCTURE]


def t_rhs(dof, loc, scale):
    """Student-t right-hand sides of one-variable rows."""
    return StudentTRhs(rows=np.ones((len(loc), 1)), dof=dof, loc=loc,
                       scale=scale)


class TestRhsQuantileTighten:
    def test_median_returns_locations(self):
        out = rhs_quantile_tighten(t_rhs([6.0], [4.2], [1.3]), alpha=0.5)
        assert out[0] == pytest.approx(4.2, abs=1e-12)

    def test_increasing_in_alpha(self):
        model = t_rhs([8.0, 20.0], [2.0, -1.0], [0.5, 2.0])
        grid = np.linspace(0.01, 0.4, 12)
        outs = np.array([rhs_quantile_tighten(model, a) for a in grid])
        assert np.all(np.diff(outs, axis=0) > 0.0)

    def test_seven_row_quantile_level(self):
        out = rhs_quantile_tighten(t_rhs([84.0] * 7, [10.0] * 7, [2.0] * 7),
                                   alpha=0.05)
        expect = 10.0 + 2.0 * stats.student_t_quantile(0.05 / 7, 84.0)
        assert np.allclose(out, expect, atol=1e-12)
        level = scipy.stats.t.cdf((out[0] - 10.0) / 2.0, 84.0)
        assert level == pytest.approx(0.05 / 7, rel=1e-9)
        gen = np.random.default_rng(61)
        draws = 10.0 + 2.0 * gen.standard_t(84.0, size=10**6)
        emp = np.quantile(draws, 0.05 / 7)
        p = 0.05 / 7
        dens = scipy.stats.t.pdf((expect - 10.0) / 2.0, 84.0) / 2.0
        se = np.sqrt(p * (1.0 - p) / draws.size) / dens
        assert abs(emp - expect) <= 3.0 * se

    @pytest.mark.parametrize("dof, solves", [([84.0] * 7, 1),
                                             ([5.0, 5.0, 9.0], 2)])
    def test_one_quantile_solve_per_distinct_dof(self, monkeypatch, dof,
                                                 solves):
        calls = []
        scalar = stats.student_t_quantile

        def counted(p, d):
            calls.append(d)
            return scalar(p, d)

        m = len(dof)
        loc = np.linspace(-3.0, 11.0, m)
        scale = np.linspace(0.4, 2.5, m)
        monkeypatch.setattr(stats, "student_t_quantile", counted)
        out = rhs_quantile_tighten(t_rhs(dof, loc, scale), alpha=0.05)
        assert len(calls) == solves
        # bit for bit the per-row scalar quantile
        expect = [loc[i] + scale[i] * scalar(0.05 / m, dof[i])
                  for i in range(m)]
        assert out.tolist() == expect

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rhs_quantile_tighten(t_rhs([], [], []), alpha=0.1)
        with pytest.raises(DomainError):
            rhs_quantile_tighten(t_rhs([5.0], [0.0], [1.0]), alpha=0.0)


class TestRbHeuristic:
    def test_zero_sd_returns_means(self):
        # A vanishing scale moves no location by even one ulp.
        mu = np.array([3.0, -2.0, 0.5])
        out = rb_heuristic_tighten(t_rhs([5.0] * 3, mu, [1e-300] * 3),
                                   alpha=0.05)
        assert np.array_equal(out, mu)

    def test_normal_quantile_level(self):
        out = rb_heuristic_tighten(t_rhs([5.0], [0.0], [1.0]), alpha=0.05)
        z = -float(out[0]) / math.sqrt(5.0 / 3.0)
        assert z == pytest.approx(1.6449, abs=5e-5)
        assert z == pytest.approx(scipy.stats.norm.ppf(0.95), abs=1e-9)

    def test_lighter_tails_than_student_t(self):
        # With the sd matched to the Student-t variance, the normal
        # quantile is the less conservative one only in the far tail,
        # here alpha/m <= 0.01.
        for dof in (3.0, 4.0, 5.0, 8.0):
            for m in (1, 2, 3):
                model = t_rhs([dof] * m, [1.0] * m, [0.7] * m)
                cr = rhs_quantile_tighten(model, alpha=0.01)
                rb = rb_heuristic_tighten(model, alpha=0.01)
                assert np.all(rb > cr)

    def test_validation(self):
        with pytest.raises(DomainError):
            rb_heuristic_tighten(t_rhs([5.0, 2.0], [1.0, 2.0], [0.1, 0.1]),
                                 alpha=0.05)
        with pytest.raises(DomainError):
            rb_heuristic_tighten(t_rhs([], [], []), alpha=0.05)
        with pytest.raises(DomainError):
            rb_heuristic_tighten(t_rhs([5.0], [1.0], [0.1]), alpha=0.0)
        with pytest.raises(DomainError):
            rb_heuristic_tighten(t_rhs([5.0], [1.0], [0.1]), alpha=1.0)
