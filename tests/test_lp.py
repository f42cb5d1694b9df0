"""LP representation, the bounded-variable simplex, and the brute-force oracle."""

import copy
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from postfeas import lp, robustify, scenario
from postfeas.errors import DimensionMismatch, DomainError, NumericalBreakdown
from postfeas.lp import (
    FEAS_TOL,
    LpProblem,
    LpSolution,
    RhsSequence,
    _BoundedSimplex,
    max_violation,
    problem_from_json,
    solution_from_json,
    solution_to_json,
    solve_cutting_planes,
    solve_lp,
)
from postfeas.posterior import StudentTRhs

from lp_oracle import SizeLimitExceeded, brute_force_lp
from test_cli import child_env


def random_box_problem(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    c = rng.normal(size=n)
    rows = []
    for _ in range(m):
        a = rng.normal(size=n)
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        rhs = float(rng.normal() * 2)
        rows.append((a, sense, rhs))
    lo = rng.uniform(-3, 0, size=n)
    hi = lo + rng.uniform(0.5, 4, size=n)
    return LpProblem(c, rows, list(zip(lo, hi)))


def random_mixed_bound_problem(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 6))
    c = rng.normal(size=n)
    rows = []
    for _ in range(m):
        a = rng.normal(size=n)
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        rows.append((a, sense, float(rng.normal() * 2)))
    bounds = []
    for _ in range(n):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            bounds.append((None, None))
        elif kind == 1:
            bounds.append((float(rng.uniform(-2, 0)), None))
        elif kind == 2:
            bounds.append((None, float(rng.uniform(0, 2))))
        else:
            lo = float(rng.uniform(-2, 0))
            bounds.append((lo, lo + float(rng.uniform(0.5, 3))))
    return LpProblem(c, rows, bounds)


def problem_json(p):
    """The LP document that problem_from_json reads, for problem p."""
    def bound(v):
        return None if math.isinf(v) else float(v)
    return json.dumps({
        "maximize": p.objective.tolist(),
        "constraints": [{"row": row.tolist(), "sense": sense, "rhs": rhs}
                        for row, sense, rhs in p.constraints()],
        "bounds": [[bound(lo), bound(hi)] for lo, hi in p.bounds()],
    })


class TestLpProblem:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            LpProblem([1.0], [([1.0, 2.0], "<=", 1.0)], [(0.0, 1.0)])
        with pytest.raises(DomainError):
            LpProblem([np.nan], [([1.0], "<=", 1.0)], [(0.0, 1.0)])
        with pytest.raises(DomainError):
            LpProblem([1.0], [([1.0], "<<", 1.0)], [(0.0, 1.0)])
        with pytest.raises(DomainError):
            LpProblem([1.0], [([1.0], "<=", 1.0)], [(2.0, 1.0)])

    @pytest.mark.parametrize("bound", [(math.inf, None), (math.inf, math.inf),
                                       (None, -math.inf), (-math.inf, -math.inf)])
    def test_infinite_bound_on_the_wrong_side(self, bound):
        # a column stands at its bounds, so neither may be infinite on
        # the side it bounds
        with pytest.raises(DomainError, match="lower bounds must be below"):
            LpProblem([1.0], [([1.0], "<=", 1.0)], [bound])

    @pytest.mark.parametrize("rows", [[], [(np.ones(2), "<=", 5.0)]])
    @pytest.mark.parametrize("bound", [(-1e308, 1e308), (-1e300, sys.float_info.max)])
    def test_box_wider_than_the_largest_float(self, bound, rows):
        # a column's flip step upper - lower must be a float
        message = (f"bounds of variable 1, [{bound[0]}, {bound[1]}], lie farther "
                   "apart than the largest float")
        with pytest.raises(DomainError, match=re.escape(message)):
            LpProblem([0.0, 1.0], rows, [(0.0, 1.0), bound])

    def test_box_as_wide_as_a_float_solves(self):
        sol = solve_lp(LpProblem([1.0], [], [(-1e307, 1e307)]))
        assert (sol.status, sol.x.tolist(), sol.objective_value) == (
            "Optimal", [1e307], 1e307)

    def test_arrays_read_only(self):
        p = LpProblem([1.0, 2.0], [([1.0, 1.0], "<=", 1.0)], [(0.0, 1.0)] * 2)
        with pytest.raises(ValueError):
            p.objective[0] = 5.0

    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        p = random_mixed_bound_problem(rng)
        q = problem_from_json(problem_json(p))
        assert np.array_equal(p.objective, q.objective)
        assert np.array_equal(p.rows, q.rows)
        assert p.senses == q.senses
        assert np.array_equal(p.rhs, q.rhs)
        assert np.array_equal(p.lower, q.lower, equal_nan=True) or np.all(
            (p.lower == q.lower) | (np.isneginf(p.lower) & np.isneginf(q.lower))
        )
        assert np.all(
            (p.upper == q.upper) | (np.isposinf(p.upper) & np.isposinf(q.upper))
        )

    def test_json_infinite_bounds_are_null(self):
        text = '{"maximize": [1.0], "bounds": [[null, null]], ' \
               '"constraints": [{"row": [1.0], "sense": "<=", "rhs": 1.0}]}'
        p = problem_from_json(text)
        assert p.lower[0] == -math.inf and p.upper[0] == math.inf


class TestSolveLpBasics:
    def test_single_active_bound(self):
        p = LpProblem([1.0], [([1.0], "<=", 1.0)], [(0.0, None)])
        sol = solve_lp(p)
        assert sol.status == "Optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_contradictory_bound(self):
        p = LpProblem([1.0], [([1.0], "<=", -1.0)], [(0.0, None)])
        assert solve_lp(p).status == "Infeasible"

    def test_unbounded(self):
        p = LpProblem([1.0], [([-1.0], "<=", 0.0)], [(0.0, None)])
        assert solve_lp(p).status == "Unbounded"

    def test_degenerate_square_value_unique(self):
        p = LpProblem([1.0, 1.0], [([1.0, 1.0], "<=", 1.0)],
                      [(0.0, None), (0.0, None)])
        a = solve_lp(p)
        b = brute_force_lp(p)
        assert a.status == b.status == "Optimal"
        assert a.objective_value == pytest.approx(1.0, abs=1e-9)
        assert b.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_equality_constraint(self):
        p = LpProblem([2.0, 1.0], [([1.0, 1.0], "=", 3.0)],
                      [(0.0, 2.0), (0.0, 4.0)])
        sol = solve_lp(p)
        assert sol.status == "Optimal"
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_free_variable(self):
        p = LpProblem([-1.0, 0.0], [([1.0, 1.0], ">=", -5.0)],
                      [(None, None), (0.0, 1.0)])
        sol = solve_lp(p)
        assert sol.status == "Optimal"
        assert sol.x[0] == pytest.approx(-6.0, abs=1e-8)

    def test_no_constraints_bound_flips_only(self):
        p = LpProblem([3.0, -2.0], [], [(0.0, 2.0), (-1.0, 5.0)])
        sol = solve_lp(p)
        assert sol.status == "Optimal"
        assert sol.x == pytest.approx([2.0, -1.0])
        assert sol.objective_value == pytest.approx(8.0)

    @pytest.mark.parametrize("bound", [(-1e16, None), (None, 1e16), (-1e20, None),
                                       (None, 1e20), (-1e20, 1e20)])
    def test_wide_finite_bound_keeps_the_row_exact(self, bound):
        # the logical's basic value 5 - bound rounds away the 5; x read
        # from it must not be taken for the optimum
        sol = solve_lp(LpProblem([1.0], [([1.0], "<=", 5.0)], [bound]))
        assert (sol.status, sol.x.tolist(), sol.objective_value) == (
            "Optimal", [5.0], 5.0)

    def test_cycling_guard_terminates(self):
        # classic degenerate instance that cycles under naive Dantzig
        p = LpProblem(
            [0.75, -150.0, 0.02, -6.0],
            [
                ([0.25, -60.0, -1.0 / 25.0, 9.0], "<=", 0.0),
                ([0.5, -90.0, -1.0 / 50.0, 3.0], "<=", 0.0),
                ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
            ],
            [(0.0, None)] * 4,
        )
        sol = solve_lp(p)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(0.05, abs=1e-9)


class TestSolveLpInvariants:
    def test_feasibility_residuals_random(self):
        rng = np.random.default_rng(20260819)
        optimal = 0
        for _ in range(150):
            p = random_mixed_bound_problem(rng)
            sol = solve_lp(p)
            if sol.status == "Optimal":
                optimal += 1
                assert max_violation(p, sol.x) <= FEAS_TOL * 10
                direct = float(p.objective @ sol.x)
                scale = max(1.0, abs(direct))
                assert abs(sol.objective_value - direct) <= 1e-7 * scale
        assert optimal > 20

    def test_determinism(self):
        rng = np.random.default_rng(5)
        p = random_box_problem(rng)
        a = solve_lp(p)
        b = solve_lp(p)
        assert a.status == b.status
        assert np.array_equal(a.x, b.x)
        assert a.objective_value == b.objective_value
        assert a.iterations == b.iterations

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_box_problem(rng)
            sol = solve_lp(p)
            if sol.status != "Optimal":
                continue
            lam = 37.5
            scaled = LpProblem(lam * p.objective, p.constraints(), p.bounds())
            sol2 = solve_lp(scaled)
            assert sol2.status == "Optimal"
            assert np.array_equal(sol.x, sol2.x)
            assert sol2.objective_value == pytest.approx(
                lam * sol.objective_value, rel=1e-12, abs=1e-12
            )

    def test_change_of_variables(self):
        # x = s * y + t, with s = +-1 and an integer t, flips and moves
        # every kind of bound; the simplex keeps each column's own bounds,
        # so the two LPs must agree.  Iteration counts may differ, since
        # the rows' rhs move.
        optimal = 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            p = random_mixed_bound_problem(rng)
            s = rng.choice([-1.0, 1.0], size=p.n)
            t = rng.integers(-3, 4, size=p.n).astype(float)
            bounds = [(lo - tj, hi - tj) if sj > 0 else (tj - hi, tj - lo)
                      for (lo, hi), sj, tj in zip(p.bounds(), s, t)]
            moved = LpProblem(p.objective * s,
                              [(row * s, sense, rhs - row @ t)
                               for row, sense, rhs in p.constraints()], bounds)
            sol, sol_y = solve_lp(p), solve_lp(moved)
            assert sol_y.status == sol.status, seed
            if sol.status != "Optimal":
                continue
            optimal += 1
            value = sol_y.objective_value + p.objective @ t
            assert abs(value - sol.objective_value) <= 1e-9 * max(
                1.0, abs(sol.objective_value)), seed
            assert max_violation(p, s * sol_y.x + t) <= 1e-9, seed
        assert optimal > 100


def pinned_instance(seed):
    """5 variables: one free, one lower-only, one upper-only, one boxed,
    one >= 0; one row each of =, >= and <= plus more inequalities."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=5)
    senses = ("=", ">=", "<=", "<=", ">=", "<=")
    rows = [(rng.normal(size=5), s, float(rng.normal() * 2 + (3.0 if s == "<=" else 0.0)))
            for s in senses]
    bounds = [(None, None), (float(rng.uniform(-2, 0)), None),
              (None, float(rng.uniform(0, 2))), (-1.0, 1.0), (0.0, None)]
    return LpProblem(c, rows, bounds)


class TestPinnedPaths:
    # Status, iteration count and x bits of the simplex on forms the pinned
    # cut sequences never reach; a changed pivot path moves these.  The
    # parameters pin the former start (phase one on artificial columns);
    # the logical start must reach the same status, and x to 1e-12, in no
    # more iterations.  LOGICAL pins its own path, with x read from the
    # basic values the pivots of the kept tableau maintain (no refactor
    # below 128 pivots); INVERSE_X is that path's x when the simplex kept
    # the basis inverse instead, and x must stay within 1e-12 of it.
    # SHIFTED_X is that path's x when the simplex shifted lower bounds to
    # 0 and negated upper-only columns instead of keeping each column's
    # own bounds, and x must stay within 1e-15 of it.  HiGHS must agree
    # on the status and, to 1e-9, on the objective.
    LOGICAL = {
        0: (3, ["-0x1.37c36d6ccc03bp+0", "-0x1.5b33ef677da45p+0",
                "0x1.304817f37063ap+0", "0x1.db4e509aa8ee4p-3", "0x0.0p+0"]),
        1: (3, None),
        2: (6, None),
        5: (6, ["-0x1.7e0df0475e4eap+1", "-0x1.9bc59cb6a4c40p-2",
                "0x1.e25673ce65f68p-2", "0x1.0000000000000p+0",
                "0x1.5456aa1ec511ep-3"]),
        12: (4, ["0x1.19468699b41b3p-4", "-0x1.0fd7c4f654606p-3",
                 "0x1.5caa13c50d8d0p-2", "-0x1.0000000000000p+0",
                 "0x1.311d4901a1aeap-2"]),
        26: (6, ["0x1.fd46732959b0cp-1", "-0x1.3c1080f28b8f1p+0",
                 "0x1.fadc2f9d5a800p-4", "-0x1.f11cb66f67518p-4",
                 "0x1.814f5aa84b588p-1"]),
    }
    SHIFTED_X = {
        0: ["-0x1.37c36d6ccc03bp+0", "-0x1.5b33ef677da45p+0",
            "0x1.304817f37063ap+0", "0x1.db4e509aa8ee0p-3", "0x0.0p+0"],
        5: ["-0x1.7e0df0475e4eap+1", "-0x1.9bc59cb6a4c40p-2",
            "0x1.e25673ce65f68p-2", "0x1.0000000000000p+0",
            "0x1.5456aa1ec511cp-3"],
        12: ["0x1.19468699b41b3p-4", "-0x1.0fd7c4f654608p-3",
             "0x1.5caa13c50d8d0p-2", "-0x1.0000000000000p+0",
             "0x1.311d4901a1aeap-2"],
        26: ["0x1.fd46732959b0cp-1", "-0x1.3c1080f28b8f1p+0",
             "0x1.fadc2f9d5a800p-4", "-0x1.f11cb66f67518p-4",
             "0x1.814f5aa84b588p-1"],
    }
    INVERSE_X = {
        0: ["-0x1.37c36d6ccc03bp+0", "-0x1.5b33ef677da45p+0",
            "0x1.304817f37063ap+0", "0x1.db4e509aa8ee0p-3", "0x0.0p+0"],
        5: ["-0x1.7e0df0475e4ebp+1", "-0x1.9bc59cb6a4c40p-2",
            "0x1.e25673ce65f68p-2", "0x1.0000000000000p+0",
            "0x1.5456aa1ec5126p-3"],
        12: ["0x1.19468699b41b3p-4", "-0x1.0fd7c4f654608p-3",
             "0x1.5caa13c50d8d0p-2", "-0x1.0000000000000p+0",
             "0x1.311d4901a1aeap-2"],
        26: ["0x1.fd46732959b12p-1", "-0x1.3c1080f28b8f1p+0",
             "0x1.fadc2f9d5a800p-4", "-0x1.f11cb66f67520p-4",
             "0x1.814f5aa84b58cp-1"],
    }

    @pytest.mark.parametrize("seed, status, iterations, x_hex", [
        (0, "Optimal", 13, ["-0x1.37c36d6ccc03ap+0", "-0x1.5b33ef677da45p+0",
                            "0x1.304817f37063ap+0", "0x1.db4e509aa8ee0p-3", "0x0.0p+0"]),
        (1, "Unbounded", 10, None),
        (2, "Infeasible", 8, None),
        (5, "Optimal", 10, ["-0x1.7e0df0475e4eap+1", "-0x1.9bc59cb6a4c40p-2",
                            "0x1.e25673ce65f68p-2", "0x1.0000000000000p+0",
                            "0x1.5456aa1ec5128p-3"]),
        (12, "Optimal", 10, ["0x1.19468699b41aep-4", "-0x1.0fd7c4f654610p-3",
                             "0x1.5caa13c50d8d0p-2", "-0x1.0000000000000p+0",
                             "0x1.311d4901a1ae5p-2"]),
        (26, "Optimal", 12, ["0x1.fd46732959b0dp-1", "-0x1.3c1080f28b8f1p+0",
                             "0x1.fadc2f9d5a800p-4", "-0x1.f11cb66f67538p-4",
                             "0x1.814f5aa84b58cp-1"]),
    ])
    def test_pivot_path(self, seed, status, iterations, x_hex):
        problem = pinned_instance(seed)
        sol = solve_lp(problem)
        logical_iterations, logical_x_hex = self.LOGICAL[seed]
        assert sol.status == status
        assert sol.iterations == logical_iterations <= iterations
        assert (None if sol.x is None else [float(v).hex() for v in sol.x]) == logical_x_hex
        if x_hex is not None:
            assert np.abs(sol.x - [float.fromhex(h) for h in x_hex]).max() <= 1e-12
            inverse = [float.fromhex(h) for h in self.INVERSE_X[seed]]
            assert np.abs(sol.x - inverse).max() <= 1e-12
            shifted = [float.fromhex(h) for h in self.SHIFTED_X[seed]]
            assert np.abs(sol.x - shifted).max() <= 1e-15
        highs_status, highs_value = highs_result(problem)
        assert highs_status == status
        if status == "Optimal":
            assert abs(sol.objective_value - highs_value) <= 1e-9 * abs(highs_value)


class TestStandardize:
    # Columns are the n variables with their own bounds, then one logical
    # per row, and the logicals are the starting basis.
    def test_le_constraint_gains_slack(self):
        p = LpProblem([1.0, 2.0], [([1.0, 3.0], "<=", 1.0), ([2.0, 1.0], ">=", -4.0)],
                      [(0.0, 1.0), (None, None)])
        solver = _BoundedSimplex(p)
        assert solver.A.shape == (2, 4)  # (m, n + m)
        assert np.array_equal(solver.A[:, 2:], np.diag([1.0, -1.0]))
        assert np.array_equal(solver.upper[2:], [math.inf, math.inf])
        assert np.array_equal(solver.basis, [2, 3])
        assert np.array_equal(solver.xb, [1.0, 4.0])  # both slacks feasible

    def test_equality_gains_no_slack(self):
        # the logical of an equality is fixed at [0, 0], so it has no room
        p = LpProblem([1.0], [([1.0], "=", 1.0)], [(0.0, 2.0)])
        solver = _BoundedSimplex(p)
        assert solver.A.shape == (1, 2)
        assert solver.A[0, 1] == 1.0
        assert solver.upper[1] == 0.0
        assert solver.xb[0] == 1.0  # out of its bounds until the dual simplex runs
        assert solver.solve() == "Optimal"
        assert solver.solution().x == pytest.approx([1.0])

    def test_map_back_residuals(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_mixed_bound_problem(rng)
            sol = solve_lp(p)
            if sol.status == "Optimal":
                assert max_violation(p, sol.x) <= 1e-8 * 10


class TestBruteForce:
    def test_reproduces_tiny_examples(self):
        p1 = LpProblem([1.0], [([1.0], "<=", 1.0)], [(0.0, None)])
        s1 = brute_force_lp(p1)
        assert s1.status == "Optimal" and s1.objective_value == pytest.approx(1.0)
        p2 = LpProblem([1.0], [([1.0], "<=", -1.0)], [(0.0, None)])
        assert brute_force_lp(p2).status == "Infeasible"
        p3 = LpProblem([1.0], [([-1.0], "<=", 0.0)], [(0.0, None)])
        assert brute_force_lp(p3).status == "Unbounded"

    def test_size_guard(self):
        n = 7
        p = LpProblem(np.ones(n), [(np.ones(n), "<=", 1.0)], [(0.0, 1.0)] * n)
        with pytest.raises(SizeLimitExceeded):
            brute_force_lp(p)

    def test_agreement_box_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(80):
            p = random_box_problem(rng)
            fast = solve_lp(p)
            slow = brute_force_lp(p)
            assert fast.status == slow.status
            if fast.status == "Optimal":
                assert abs(fast.objective_value - slow.objective_value) <= 1e-6

    def test_agreement_mixed_bounds(self):
        rng = np.random.default_rng(202)
        statuses = {"Optimal": 0, "Infeasible": 0, "Unbounded": 0}
        for _ in range(120):
            p = random_mixed_bound_problem(rng)
            fast = solve_lp(p)
            slow = brute_force_lp(p)
            assert fast.status == slow.status
            statuses[fast.status] += 1
            if fast.status == "Optimal":
                assert abs(fast.objective_value - slow.objective_value) <= 1e-6
        # the generator must exercise all three statuses to mean anything
        assert min(statuses.values()) >= 5


class TestSolutionJson:
    def test_round_trip(self):
        sol = LpSolution("Optimal", np.array([1.5, -2.0]), 7.25, 11)
        back = solution_from_json(solution_to_json(sol))
        assert back.status == sol.status
        assert np.array_equal(back.x, sol.x)
        assert back.objective_value == sol.objective_value
        assert back.iterations == sol.iterations

    def test_non_optimal_round_trip(self):
        sol = LpSolution("Infeasible", None, float("nan"), 3)
        back = solution_from_json(solution_to_json(sol))
        assert back.status == "Infeasible"
        assert back.x is None


def loop_max_violation(problem, x):
    """max_violation as a loop over the rows, one sense at a time."""
    worst = 0.0
    if problem.m:
        ax = problem.rows @ x
        for i, sense in enumerate(problem.senses):
            r = ax[i] - problem.rhs[i]
            if sense == "<=":
                v = r
            elif sense == ">=":
                v = -r
            else:
                v = abs(r)
            worst = max(worst, v)
    finite_lo = np.isfinite(problem.lower)
    finite_hi = np.isfinite(problem.upper)
    if finite_lo.any():
        worst = max(worst, float((problem.lower - x)[finite_lo].max()))
    if finite_hi.any():
        worst = max(worst, float((x - problem.upper)[finite_hi].max()))
    return max(worst, 0.0)


class TestMaxViolation:
    def test_bitwise_equal_to_row_loop(self):
        rng = np.random.default_rng(31)
        senses_seen = set()
        for _ in range(300):
            p = random_mixed_bound_problem(rng)
            senses_seen.update(p.senses)
            x = rng.normal(size=p.n) * 3
            got = max_violation(p, x)
            want = loop_max_violation(p, x)
            assert float(got).hex() == float(want).hex()
        assert senses_seen == {"<=", ">=", "="}

    def test_no_rows(self):
        p = LpProblem([1.0, 1.0], [], [(0.0, None), (None, None)])
        assert max_violation(p, np.array([-0.5, 9.0])) == 0.5

    @pytest.mark.parametrize("problem", [
        LpProblem([1.0, 1.0], [([1.0, 0.0], "<=", 1.0), ([1.0, 1.0], "=", 0.5)],
                  [(None, None)] * 2),  # rows only
        LpProblem([1.0, 1.0], [], [(0.0, 1.0), (None, 2.0)]),  # bounds only
        LpProblem([1.0, 1.0], [], [(None, None)] * 2),  # neither
    ], ids=["rows-only", "bounds-only", "no-rows"])
    @pytest.mark.parametrize("x", [[math.nan, 0.0], [0.0, math.nan]])
    @pytest.mark.filterwarnings("error")
    def test_nan_fails_closed(self, problem, x):
        assert max_violation(problem, np.array(x)) == math.inf

    @pytest.mark.filterwarnings("error")
    def test_nan_residual_fails_closed(self):
        # 0 * inf: a NaN residual from a finite row
        p = LpProblem([1.0, 1.0], [([0.0, 1.0], "<=", 1.0)], [(None, None)] * 2)
        assert max_violation(p, np.array([math.inf, 0.0])) == math.inf

    @pytest.mark.filterwarnings("error")
    def test_infinite_x_meets_an_infinite_bound(self):
        p = LpProblem([1.0, 1.0], [], [(0.0, None), (None, None)])
        assert max_violation(p, np.array([math.inf, -math.inf])) == 0.0
        assert max_violation(p, np.array([-math.inf, 0.0])) == math.inf

    @pytest.mark.parametrize("constraints", [[([1.0, 1.0], "<=", 4.0)], []])
    def test_solution_refuses_a_nan_x(self, monkeypatch, constraints):
        solver = _BoundedSimplex(LpProblem([1.0, 1.0], constraints,
                                           [(0.0, 3.0)] * 2))
        assert solver.solve() == "Optimal"
        monkeypatch.setattr(solver, "extract", lambda: np.array([math.nan, 1.0]))
        with pytest.raises(NumericalBreakdown):
            solver.solution()


def pool_instance(seed):
    """A bounded base LP and a pool of rows that all hold at one point.

    Variables: x0 free, x1 lower-only, x2 upper-only, x3 and x4 boxed.
    Base rows keep the free and one-sided directions bounded; the pool
    mixes 5 "<=", 5 ">=" and 2 "=" rows.
    """
    gen = np.random.default_rng(seed)
    n = 5
    bounds = [(None, None), (-2.0, None), (None, 2.0), (-2.0, 2.0), (-2.0, 2.0)]
    eye = np.eye(n)
    base = LpProblem(gen.normal(size=n),
                     [(eye[0], "<=", 10.0), (eye[0], ">=", -10.0),
                      (eye[1], "<=", 10.0), (eye[2], ">=", -10.0)],
                     bounds)
    point = gen.uniform(-1.0, 1.0, n)
    pool = []
    for sense in ["<="] * 5 + [">="] * 5 + ["="] * 2:
        a = gen.normal(size=n)
        margin = {"<=": 1.0, ">=": -1.0, "=": 0.0}[sense] * gen.uniform(0.0, 0.5)
        pool.append((a, sense, float(a @ point + margin)))
    return base, pool


def pool_separator(pool, per_round=3):
    """Adds the most violated pool rows not yet added; records them."""
    probe = LpProblem(np.zeros(pool[0][0].size), pool,
                      [(None, None)] * pool[0][0].size)
    senses = np.array(probe.senses)
    taken = np.zeros(len(pool), dtype=bool)
    added = []

    def separate(x):
        r = probe.rows @ x - probe.rhs
        viol = np.where(senses == "<=", r, np.where(senses == ">=", -r, np.abs(r)))
        worst = max(0.0, float(viol.max()))
        viol[taken | (viol <= 1e-9 * np.maximum(1.0, np.abs(probe.rhs)))] = -np.inf
        order = [i for i in np.argsort(-viol, kind="stable")[:per_round]
                 if viol[i] > -np.inf]
        taken[order] = True
        rows = [pool[i] for i in order]
        added.extend(rows)
        return rows, worst

    return separate, added


def highs_result(problem, objective=None):
    """Status and optimal objective of problem by scipy's HiGHS.

    HiGHS may call an unbounded program infeasible (scipy status 2); a
    solve of the same rows with a zero objective settles which it is.
    """
    le = [i for i, s in enumerate(problem.senses) if s != "="]
    eq = [i for i, s in enumerate(problem.senses) if s == "="]
    flip = np.array([-1.0 if problem.senses[i] == ">=" else 1.0 for i in le])
    res = linprog(
        -problem.objective if objective is None else objective,
        A_ub=problem.rows[le] * flip[:, None] if le else None,
        b_ub=problem.rhs[le] * flip if le else None,
        A_eq=problem.rows[eq] if eq else None,
        b_eq=problem.rhs[eq] if eq else None,
        bounds=[(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
                for lo, hi in problem.bounds()],
        method="highs",
    )
    if res.status == 0:
        return "Optimal", -res.fun
    if res.status == 3:
        return "Unbounded", None
    assert res.status == 2, res.message
    if objective is not None:
        return "Infeasible", None
    feasible = highs_result(problem, np.zeros(problem.n))[0] == "Optimal"
    return ("Unbounded" if feasible else "Infeasible"), None


def highs_objective(problem):
    """Optimal objective of problem by scipy's HiGHS."""
    status, value = highs_result(problem)
    assert status == "Optimal"
    return value


class CountingSimplex(_BoundedSimplex):
    """Records, per solve(), whether a cost was shifted and how many
    iterations the primal simplex took."""

    def __init__(self, problem):
        self.shifted, self.primal_iterations = [], []
        super().__init__(problem)

    def run_dual(self, costs):
        self.shifted.append(not np.array_equal(costs, self.c))
        return super().run_dual(costs)

    def run_phase(self, c):
        before = self.iterations
        status = super().run_phase(c)
        self.primal_iterations.append(self.iterations - before)
        return status


# Bad (row, sense, rhs) items a separator may return, with the error
# and the message each raises: rows or rhs that are not finite, rows of
# another shape, an unknown sense, and malformed items.
BAD_ITEMS = [
    ((np.array([math.nan, 1.0]), "<=", 1.0), DomainError,
     "objective, rows, and rhs must be free of NaN"),
    ((np.array([1.0, 1.0]), "<=", math.nan), DomainError,
     "objective, rows, and rhs must be free of NaN"),
    ((np.array([math.inf, 1.0]), "<=", 1.0), DomainError,
     "objective, rows, and rhs must be finite"),
    ((np.array([1.0, 1.0]), ">=", -math.inf), DomainError,
     "objective, rows, and rhs must be finite"),
    ((np.array([1.0, 1.0, 1.0]), "<=", 1.0), DimensionMismatch,
     "constraint row has shape (3,), expected (2,)"),
    ((np.array([[1.0, 1.0]]), "<=", 1.0), DimensionMismatch,
     "constraint row has shape (1, 2), expected (2,)"),
    ((np.array([1.0, 1.0]), "<", 1.0), DomainError,
     "sense must be one of ('<=', '>=', '='), got '<'"),
    # malformed items
    ((np.array([1.0, 1.0]), "<="), DomainError,
     "constraint 0 is not a (row, sense, rhs) triple"),
    ((np.array([1.0, 1.0]), "<=", 1.0, 2.0), DomainError,
     "constraint 0 is not a (row, sense, rhs) triple"),
    (5.0, DomainError, "constraint 0 is not a (row, sense, rhs) triple"),
    ((np.array([1.0, 1.0]), "<=", "abc"), DomainError,
     "constraint 0: rhs must be a number, got 'abc'"),
    ((np.array([1.0, 1.0]), "<=", None), DomainError,
     "constraint 0: rhs must be a number, got None"),
    (("ab", "<=", 1.0), DomainError,
     "constraint 0: row must be numbers, got 'ab'"),
]


class TestWarmRowGeneration:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_cold_solve_and_highs(self, seed):
        base, pool = pool_instance(seed)
        separate, added = pool_separator(pool)
        sol, log = solve_cutting_planes(base, separate, 50)
        assert sol.status == "Optimal"
        assert log.rounds >= 2  # at least one dual re-entry
        stacked = LpProblem(base.objective, base.constraints() + added,
                            base.bounds())
        cold = solve_lp(stacked)
        assert cold.status == "Optimal"
        scale = max(1.0, abs(cold.objective_value))
        assert abs(sol.objective_value - cold.objective_value) <= 1e-9 * scale
        ref = highs_objective(stacked)
        assert abs(sol.objective_value - ref) <= 1e-9 * max(1.0, abs(ref))
        full = LpProblem(base.objective, base.constraints() + pool,
                         base.bounds())
        assert max_violation(full, sol.x) <= 10 * FEAS_TOL

    def test_dual_reentry_leaves_phase_two_one_pricing_pass(self):
        # After rows are appended the optimal basis is still dual
        # feasible, so solve() shifts no cost; after the dual simplex the
        # primal simplex only prices and finds no entering column: the
        # dual ratio test kept the basis optimal.  The loop reports the
        # iterations of every round together.
        for seed in range(40):
            base, pool = pool_instance(seed)
            separate, _ = pool_separator(pool)
            solver = CountingSimplex(base)
            assert solver.solve() == "Optimal"
            first_round = solver.iterations
            while True:
                rows, _ = separate(solver.solution().x)
                if not rows:
                    break
                solver.append_rows(rows)
                assert solver.solve() == "Optimal"
                assert solver.shifted[-1] is False
                assert solver.primal_iterations[-1] == 1
            sol, log = solve_cutting_planes(base, pool_separator(pool)[0], 50)
            assert sol.iterations == solver.iterations
            assert sol.iterations >= first_round + 2 * (log.rounds - 1)

    def test_added_rows_cover_every_sense(self):
        senses = set()
        for seed in range(40):
            base, pool = pool_instance(seed)
            separate, added = pool_separator(pool)
            solve_cutting_planes(base, separate, 50)
            senses.update(s for _, s, _ in added)
        assert senses == {"<=", ">=", "="}

    def test_one_row_per_round_past_three_doublings(self, monkeypatch):
        # The simplex keeps its rows in buffers that double when full.
        # 80 rounds of one row each take the base's 1 row past 16, 32
        # and 64, and every relaxation's objective is HiGHS's on the
        # base plus the rows added so far.
        gen = np.random.default_rng(5)
        n = 6
        base = LpProblem(gen.normal(size=n), [(np.ones(n), "<=", 4.0)],
                         [(-2.0, 2.0)] * n)
        point = gen.uniform(-0.5, 0.5, n)  # every added row holds here
        added, capacities = [], []
        grow = _BoundedSimplex._grow

        def recording_grow(self, capacity):
            capacities.append(capacity)
            grow(self, capacity)

        def separate(x):
            stacked = LpProblem(base.objective, base.constraints() + added,
                                base.bounds())
            ref = highs_objective(stacked)
            assert abs(base.objective @ x - ref) <= 1e-9 * max(1.0, abs(ref))
            if len(added) == 80:
                return [], 0.0
            # a row between point and x, of each sense in turn
            a = gen.normal(size=n)
            gap = a @ (x - point)
            sense = "=" if len(added) in (2, 5) else ("<=", ">=")[len(added) % 2]
            if sense == "=":
                row = (a, "=", float(a @ point))
            else:
                a = a if (gap > 0.0) == (sense == "<=") else -a
                row = (a, sense, float(a @ point + 0.5 * (a @ (x - point))))
            added.append(row)
            return [row], abs(gap)

        monkeypatch.setattr(_BoundedSimplex, "_grow", recording_grow)
        sol, log = solve_cutting_planes(base, separate, 100)
        assert sol.status == "Optimal"
        assert log.cuts_per_round == [1] * 80 + [0]
        assert capacities == [16, 32, 64, 128]
        assert max_violation(LpProblem(base.objective, base.constraints() + added,
                                       base.bounds()), sol.x) <= 10 * FEAS_TOL

    def test_kept_moves_and_basic_bounds_match_a_recount(self):
        # rises, falls, at_bound, lower_b and upper_b are kept through
        # every bound change, pivot and append instead of being
        # recomputed: a nonbasic column rises below its upper bound and
        # falls above its lower one, and stands at a bound, or at 0 when
        # free; a basic one reads 0 and moves neither way.  Each instance
        # has a fixed column, as a branch-and-bound node makes.
        def recount(solver):
            lower, upper, at_bound = solver.lower, solver.upper, solver.at_bound
            basic = np.zeros(lower.size, dtype=bool)
            basic[solver.basis] = True
            assert np.array_equal(solver.rises, ~basic & (at_bound < upper))
            assert np.array_equal(solver.falls, ~basic & (at_bound > lower))
            zero = basic | (np.isinf(lower) & np.isinf(upper))
            assert (at_bound[zero] == 0.0).all()
            assert ((at_bound == lower) | (at_bound == upper))[~zero].all()
            assert np.array_equal(solver.lower_b, lower.take(solver.basis))
            assert np.array_equal(solver.upper_b, upper.take(solver.basis))

        def fix(problem, j, value):
            bounds = problem.bounds()
            bounds[j] = (value, value)
            return LpProblem(problem.objective, problem.constraints(), bounds)

        rounds = 0
        for seed in range(20):
            base, pool = pool_instance(seed)
            separate, _ = pool_separator(pool)
            solver = _BoundedSimplex(fix(base, 3, 0.25))
            recount(solver)
            while solver.solve() == "Optimal":
                recount(solver)
                rows, _ = separate(solver.solution().x)
                if not rows:
                    break
                solver.append_rows(rows)
                rounds += 1
                recount(solver)
            recount(solver)
        assert rounds >= 40
        rng = np.random.default_rng(44)
        for _ in range(100):
            problem = random_mixed_bound_problem(rng)
            solver = _BoundedSimplex(fix(problem, problem.n - 1, rng.uniform(-1.0, 1.0)))
            solver.solve()
            recount(solver)

    @pytest.mark.parametrize("sense", [">=", "="])
    def test_infeasible_cut(self, sense):
        base = LpProblem([1.0, 1.0], [], [(0.0, 1.0), (0.0, 1.0)])

        def separate(x):
            return [(np.ones(2), sense, 5.0)], 3.0

        sol, log = solve_cutting_planes(base, separate, 10)
        assert sol.status == "Infeasible"
        assert sol.x is None
        assert log.rounds == 2
        assert log.cuts_per_round == [1]

    @pytest.mark.parametrize(
        "row, error, message", BAD_ITEMS,
        ids=[f"row{i}-{error.__name__}" for i, (_, error, _) in enumerate(BAD_ITEMS)])
    def test_bad_separator_row(self, row, error, message):
        base = LpProblem([1.0, 1.0], [], [(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(error) as info:
            solve_cutting_planes(base, lambda x: ([row], 1.0), 10)
        assert str(info.value) == message
        # LpProblem checks its constraints the same way
        with pytest.raises(error) as info:
            LpProblem([1.0, 1.0], [row], [(0.0, 1.0), (0.0, 1.0)])
        assert str(info.value) == message

    def test_bad_item_is_named_by_its_place(self):
        base = LpProblem([1.0, 1.0], [], [(0.0, 1.0), (0.0, 1.0)])
        good = (np.ones(2), "<=", 3.0)
        for bad, message in [
                ((np.ones(2), "<="), "constraint 2 is not a (row, sense, rhs) triple"),
                ((np.ones(2), "<=", "x"), "constraint 2: rhs must be a number, got 'x'"),
                (([1.0, "y"], "<=", 1.0),
                 "constraint 2: row must be numbers, got [1.0, 'y']"),
                ((np.ones(3), "<=", 1.0), "constraint row has shape (3,), expected (2,)"),
                ((np.array([math.inf, 1.0]), "<=", 1.0),
                 "objective, rows, and rhs must be finite")]:
            solver = _BoundedSimplex(base)
            with pytest.raises((DomainError, DimensionMismatch), match=re.escape(message)):
                solver.append_rows([good, good, bad, good])
            # nothing was written, and the simplex still solves
            assert solver.m == 0
            assert solver.solve() == "Optimal"
            assert solver.solution().x.tolist() == [1.0, 1.0]


def logical_start_instance(rng, degenerate):
    """Up to 8 variables (free, lower-only, upper-only or boxed) and up to
    11 rows of all three senses.  Degenerate instances have integer rows
    that all pass through one integer point inside the box."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 12))
    point = rng.integers(-1, 2, size=n).astype(float)
    bounds = []
    for j in range(n):
        kind = int(rng.integers(0, 4))
        lo = float(point[j] - rng.integers(0, 3))
        hi = float(point[j] + rng.integers(0, 3))
        bounds.append([(None, None), (lo, None), (None, hi), (lo, hi)][kind])
    rows = []
    for _ in range(m):
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        if degenerate:
            a = rng.integers(-3, 4, size=n).astype(float)
            rows.append((a, sense, float(a @ point)))
        else:
            rows.append((rng.normal(size=n), sense, float(rng.normal() * 2)))
    return LpProblem(rng.normal(size=n), rows, bounds)


def ladder_instance(n, m):
    """Dense A and c ~ U(0, 1), rhs 1, x >= 0, from default_rng(0)."""
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(m, n))
    c = rng.uniform(size=n)
    return LpProblem(c, [(a[i], "<=", 1.0) for i in range(m)], [(0.0, None)] * n)


class TestLogicalStart:
    # Every solve starts at the row logicals and reaches feasibility with
    # the dual simplex on shifted costs; HiGHS is the reference.
    @pytest.mark.parametrize("degenerate", [False, True], ids=["random", "degenerate"])
    def test_matches_highs(self, degenerate):
        rng = np.random.default_rng(2026 + degenerate)
        seen = {"Optimal": 0, "Infeasible": 0, "Unbounded": 0}
        for _ in range(300):
            p = logical_start_instance(rng, degenerate)
            sol = solve_lp(p)
            status, value = highs_result(p)
            assert sol.status == status
            seen[status] += 1
            if status == "Optimal":
                assert abs(sol.objective_value - value) <= 1e-9 * max(1.0, abs(value))
                assert max_violation(p, sol.x) <= 10 * FEAS_TOL * max(
                    1.0, float(np.abs(p.rhs).max()))
        # rows through one point are never infeasible
        assert seen["Optimal"] >= 40 and seen["Unbounded"] >= 40
        assert (seen["Infeasible"] == 0) if degenerate else (seen["Infeasible"] >= 20)

    def test_ladder_needs_no_phase_one(self):
        # The slack basis of rhs-1 rows is already feasible: only the
        # primal simplex runs.  The former start took 961 iterations.
        p = ladder_instance(50, 200)
        sol = solve_lp(p)
        assert sol.status == "Optimal"
        assert sol.iterations <= 200
        ref = highs_objective(p)
        assert abs(sol.objective_value - ref) <= 1e-9 * abs(ref)


def with_rhs(problem, rhs):
    return LpProblem(problem.objective,
                     [(row, sense, float(b)) for row, sense, b
                      in zip(problem.rows, problem.senses, rhs)],
                     problem.bounds())


def same_solution(a, b):
    """Bit-identical status, x, objective and iterations."""
    return (a.status == b.status and a.iterations == b.iterations
            and a.objective_value == b.objective_value
            and (a.x is None if b.x is None else a.x.tobytes() == b.x.tobytes()))


def conflict_instance(seed):
    """Free, lower-only, upper-only and boxed variables, rows of all three
    senses, and one row twice, as "<=" (row 5) and as ">=" (row 6), so
    that an rhs with rhs[6] > rhs[5] is infeasible.  feasible_rhs(k)
    gives rhs that hold at a random point inside the box."""
    gen = np.random.default_rng(seed)
    n = 5
    bounds = [(None, None), (-2.0, None), (None, 2.0), (-2.0, 2.0), (-2.0, 2.0)]
    eye = np.eye(n)
    a = gen.normal(size=(4, n))
    rows = [(eye[0], "<="), (eye[0], ">="), (eye[1], "<="), (eye[2], ">="),
            (a[0], "="), (a[1], "<="), (a[1], ">="), (a[2], "<="), (a[3], ">=")]
    problem = LpProblem(gen.normal(size=n), [(r, s, 0.0) for r, s in rows], bounds)

    def feasible_rhs():
        point = gen.uniform(-1.5, 1.5, n)
        slack = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in problem.senses])
        return problem.rows @ point + slack * gen.uniform(0.0, 1.0, problem.m)

    return problem, feasible_rhs


class TestRhsSequence:
    # One simplex re-entered by the dual simplex for each new rhs; a cold
    # solve_lp and HiGHS are the references.
    @pytest.mark.parametrize("degenerate", [False, True], ids=["random", "degenerate"])
    def test_sequence_matches_cold_and_highs(self, degenerate):
        rng = np.random.default_rng(77 + degenerate)
        transitions = set()
        for _ in range(60):
            p = logical_start_instance(rng, degenerate)
            lp = RhsSequence(p)
            last = None
            for _ in range(6):
                if degenerate:
                    point = rng.integers(-1, 2, size=p.n).astype(float)
                    rhs = p.rows @ point + rng.integers(-1, 2, size=p.m)
                else:
                    rhs = rng.normal(size=p.m) * 2
                problem = with_rhs(p, rhs)
                sol = lp.solve(rhs)
                cold = solve_lp(problem)
                status, value = highs_result(problem)
                assert sol.status == cold.status == status
                transitions.add((last, status))
                last = status
                if status == "Optimal":
                    scale = max(1.0, abs(value))
                    assert abs(sol.objective_value - value) <= 1e-9 * scale
                    assert abs(sol.objective_value - cold.objective_value) <= 1e-9 * scale
                    assert max_violation(problem, sol.x) <= 10 * FEAS_TOL * max(
                        1.0, float(np.abs(rhs).max()))
        # re-entry after each status; the rows and costs alone decide
        # unboundedness, so an Unbounded program stays so while feasible
        for pair in [("Optimal", "Optimal"), ("Optimal", "Infeasible"),
                     ("Infeasible", "Optimal"), ("Infeasible", "Infeasible"),
                     ("Unbounded", "Unbounded")]:
            assert pair in transitions

    @pytest.mark.parametrize("seed", range(20))
    def test_infeasible_rhs_mid_sequence(self, seed):
        problem, feasible_rhs = conflict_instance(seed)
        lp = RhsSequence(problem)
        sequence = [feasible_rhs() for _ in range(5)]
        bad = sequence[2].copy()
        bad[6] = bad[5] + 1.0
        sequence.insert(3, bad)
        for k, rhs in enumerate(sequence):
            sol = lp.solve(rhs)
            if k == 3:
                assert sol.status == "Infeasible" and sol.x is None
                continue
            assert sol.status == "Optimal"
            ref = highs_objective(with_rhs(problem, rhs))
            assert abs(sol.objective_value - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_first_solve_is_cold_and_iterations_are_per_solve(self):
        problem, feasible_rhs = conflict_instance(3)
        lp = RhsSequence(problem)
        rhs = feasible_rhs()
        first = lp.solve(rhs)
        assert same_solution(first, solve_lp(with_rhs(problem, rhs)))
        assert first.iterations > 1
        # the basis is optimal for this rhs: one pricing pass, no pivot
        again = lp.solve(rhs)
        assert again.iterations == 1
        assert again.objective_value == pytest.approx(first.objective_value, rel=1e-12)

    @pytest.mark.parametrize("rhs, error", [
        (np.zeros(8), DimensionMismatch),
        (np.zeros((1, 9)), DimensionMismatch),
        (np.r_[np.zeros(8), math.nan], DomainError),
        (np.r_[np.zeros(8), math.inf], DomainError),
    ])
    def test_bad_rhs_rejected_before_the_simplex(self, rhs, error):
        problem, feasible_rhs = conflict_instance(4)
        lp = RhsSequence(problem)
        good = feasible_rhs()
        lp.solve(good)
        with pytest.raises(error):
            lp.solve(rhs)
        # the simplex kept its optimal basis
        assert lp.solve(good).iterations == 1

    def test_rhs_array_not_frozen(self):
        problem, feasible_rhs = conflict_instance(5)
        rhs = feasible_rhs()
        sol = RhsSequence(problem).solve(rhs)
        rhs[0] += 1.0  # the caller's array stays writable
        assert sol.status == "Optimal"

    def test_solve_that_raises_leaves_a_cold_start(self, monkeypatch):
        problem, feasible_rhs = conflict_instance(6)
        sequence = [feasible_rhs() for _ in range(3)]
        real = _BoundedSimplex.solve
        calls = []

        def breaks_second(self):
            calls.append(1)
            if len(calls) == 2:
                raise NumericalBreakdown("injected")
            return real(self)

        monkeypatch.setattr(_BoundedSimplex, "solve", breaks_second)
        lp = RhsSequence(problem)
        assert lp.solve(sequence[0]).status == "Optimal"
        with pytest.raises(NumericalBreakdown):
            lp.solve(sequence[1])
        after = lp.solve(sequence[2])
        monkeypatch.undo()
        assert same_solution(after, solve_lp(with_rhs(problem, sequence[2])))


def count_inversions(monkeypatch):
    """Patch np.linalg.inv to record each call; returns the record."""
    calls = []
    real = np.linalg.inv

    def counted(matrix):
        calls.append(1)
        return real(matrix)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


class TestReplaceRhsInverse:
    # replace_rhs reads the basic values through B^-1 in the kept
    # tableau's logical columns; it never inverts A[:, basis].
    def test_reentry_after_optimal_inverts_nothing_new(self, monkeypatch):
        problem, feasible_rhs = conflict_instance(7)
        first, second = feasible_rhs(), feasible_rhs()
        kept = _BoundedSimplex(with_rhs(problem, first))
        assert kept.result(kept.solve()).status == "Optimal"
        assert kept.pivots_since_refactor > 0
        refactored = copy.deepcopy(kept)
        calls = count_inversions(monkeypatch)
        kept.replace_rhs(second)
        sol = kept.result(kept.solve())
        assert calls == []
        # the same to 1e-12 as inverting again
        refactored.replace_rhs(second)
        refactored._refactor(refactored.c)
        fresh = refactored.result(refactored.solve())
        assert (sol.status, sol.iterations) == (fresh.status, fresh.iterations)
        assert np.abs(sol.x - fresh.x).max() <= 1e-12

    def test_repeated_rhs_inverts_only_for_the_solution(self, monkeypatch):
        problem, feasible_rhs = conflict_instance(8)
        rhs = feasible_rhs()
        lp = RhsSequence(problem)
        lp.solve(rhs)
        calls = count_inversions(monkeypatch)
        again = lp.solve(rhs)
        assert again.status == "Optimal" and again.iterations == 1
        assert calls == []  # neither the re-entry nor extract() refactors

    def test_extract_equals_extract_after_a_refactor(self):
        # extract() reads the basic values the pivots and bound flips
        # maintain; a fresh factorization gives x to 1e-12
        rng = np.random.default_rng(43)
        pivoted = 0
        for _ in range(100):
            n = int(rng.integers(2, 8))
            rows = [(rng.normal(size=n), "<=", float(rng.uniform(0.1, 1.0)))
                    for _ in range(int(rng.integers(1, 5)))]
            bounds = [(0.0, float(u)) for u in rng.uniform(0.1, 1.0, n)]
            solver = _BoundedSimplex(LpProblem(rng.normal(size=n), rows, bounds))
            assert solver.solve() == "Optimal"
            fresh = copy.deepcopy(solver)
            fresh._refactor(fresh.c)
            pivoted += solver.pivots_since_refactor > 0
            assert np.abs(solver.extract() - fresh.extract()).max() <= 1e-12
        assert pivoted > 40

    def test_reentry_after_a_pivoting_failure_reads_the_kept_inverse(
            self, monkeypatch):
        # unbounded along x = (t, t); x1 enters by a pivot before the ray shows
        problem = LpProblem([1.0, 1.0], [([1.0, -1.0], "<=", 1.0),
                                         ([-1.0, 1.0], "<=", 1.0)],
                            [(0.0, None), (0.0, None)])
        solver = _BoundedSimplex(problem)
        assert solver.solve() == "Unbounded"
        pivots = solver.pivots_since_refactor
        assert pivots > 0
        calls = count_inversions(monkeypatch)
        solver.replace_rhs([2.0, 2.0])
        assert calls == []
        assert solver.pivots_since_refactor == pivots
        basis = solver.A[:, solver.basis]
        assert np.abs(basis @ solver.xb - solver._nonbasic_rhs()).max() <= 1e-12


def count_pivots(monkeypatch):
    """Patch _BoundedSimplex._pivot to record each call; returns the record."""
    calls = []
    real = _BoundedSimplex._pivot

    def counted(self, r, j, w):
        calls.append(1)
        return real(self, r, j, w)

    monkeypatch.setattr(_BoundedSimplex, "_pivot", counted)
    return calls


def boxed_instance(gen, n=6, m=3):
    """maximize c'x over a box [lo, lo + 1] with lo <= 0, c > 0 and "<="
    rows with nonnegative entries and positive rhs, so that x = lo is
    feasible and the optimum has columns at their upper bound as well
    as pivots."""
    rows = [(gen.uniform(0.0, 1.0, n), "<=", float(gen.uniform(0.5, 1.0) * n / 4))
            for _ in range(m)]
    return LpProblem(gen.uniform(0.5, 2.0, n), rows,
                     [(float(lo), float(lo + 1.0)) for lo in gen.uniform(-1.0, 0.0, n)])


class TestRefactorRule:
    # The basis is inverted only after 128 pivots, on a pivot too small
    # to trust, and when solution()'s residual check fails after pivots.
    # Appended rows write their rows of the kept tableau.
    @pytest.mark.parametrize("seed", range(10))
    def test_row_generation_below_128_pivots_inverts_nothing(
            self, monkeypatch, seed):
        base, pool = pool_instance(seed)
        separate, _ = pool_separator(pool)
        pivots = count_pivots(monkeypatch)
        calls = count_inversions(monkeypatch)
        sol, log = solve_cutting_planes(base, separate, 50)
        assert sol.status == "Optimal" and log.rounds >= 2
        assert 0 < len(pivots) < 128
        assert calls == []

    def test_bordered_inverse_equals_a_fresh_inverse(self):
        # rows of every sense, appended after pivots and with columns at
        # their upper bound; each holds at x = lo, so every round solves
        at_upper = pivoted = 0
        for seed in range(20):
            gen = np.random.default_rng(seed)
            problem = boxed_instance(gen)
            solver = _BoundedSimplex(problem)
            n = problem.n
            for senses in (["<=", ">=", "="], [">=", "="], ["=", "<="]):
                assert solver.solve() == "Optimal"
                nonbasic = np.ones(n + solver.m, dtype=bool)
                nonbasic[solver.basis] = False
                at_upper += bool((nonbasic & (solver.at_bound == solver.upper))[:n].any())
                pivoted += solver.pivots_since_refactor > 0
                rows = gen.normal(size=(len(senses), n))
                slack = np.array([{"<=": 0.1, ">=": -0.1, "=": 0.0}[s] for s in senses])
                solver.append_rows(zip(rows, senses, rows @ problem.lower + slack))
                fresh = np.linalg.inv(solver.A[:, solver.basis])
                tableau = fresh @ solver.A
                assert (np.abs(solver.T - tableau).max()
                        <= 1e-12 * np.abs(tableau).max())
                d = solver.c - solver.c[solver.basis] @ tableau
                assert np.abs(solver.d - d).max() <= 1e-12 * max(1.0, np.abs(d).max())
                xb = fresh @ solver._nonbasic_rhs()
                assert (np.abs(solver.xb - xb).max()
                        <= 1e-12 * max(1.0, np.abs(xb).max()))
        assert pivoted > 20 and at_upper > 20

    def test_bordered_start_is_the_logical_basis_exactly(self):
        problem = pinned_instance(0)
        solver = _BoundedSimplex(problem)
        coef = np.array([{"<=": 1.0, ">=": -1.0, "=": 1.0}[s] for s in problem.senses])
        # T = D A, whose logical block is D D = I, and d = c; the columns
        # start at z0: lower, upper when only that is finite, 0 when free
        assert np.array_equal(solver.T, coef[:, np.newaxis] * solver.A)
        assert solver.d.tobytes() == solver.c.tobytes()
        z0 = np.array([0.0, problem.lower[1], problem.upper[2], -1.0, 0.0])
        assert solver.at_bound[:problem.n].tobytes() == z0.tobytes()
        xb = coef * (problem.rhs - problem.rows @ z0)
        assert solver.xb.tobytes() == xb.tobytes()

    def test_refactors_once_when_the_residual_check_fails(self, monkeypatch):
        solver = _BoundedSimplex(boxed_instance(np.random.default_rng(0)))
        assert solver.solve() == "Optimal"
        assert solver.pivots_since_refactor > 0
        fresh = copy.deepcopy(solver)
        fresh._refactor(fresh.c)
        expected = fresh.solution()
        solver.xb = solver.xb + 1.0  # drift far beyond the tolerance
        calls = count_inversions(monkeypatch)
        sol = solver.solution()
        assert len(calls) == 1
        assert solver.pivots_since_refactor == 0
        assert sol.x.tobytes() == expected.x.tobytes()
        # right after a refactor there is nothing to recover
        solver.xb = solver.xb + 1.0
        with pytest.raises(NumericalBreakdown, match="residual"):
            solver.solution()
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    def test_non_finite_optimum_raises(self):
        # x = (2, 0) is finite, but its objective 2e308 overflows
        problem = LpProblem([1e308, 1e308], [([1.0, 1.0], "<=", 2.0)],
                            [(0.0, None), (0.0, None)])
        with pytest.raises(NumericalBreakdown, match="not finite"):
            solve_lp(problem)

    def test_opposite_sign_costs_fail_closed_without_a_warning(self, tmp_path):
        # the optimum (0, 2) has objective 2e308, and the pivot that
        # reaches it overflows a reduced cost: one error line, exit 5
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "maximize": [-1e308, 1e308],
            "constraints": [{"row": [1.0, 1.0], "sense": "<=", "rhs": 2.0}],
            "bounds": [[0.0, None], [-1.0, None]]}), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "postfeas.cli",
             "solve", str(path), "--out", str(tmp_path / "solution.json")],
            capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 5
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def robust_loop():
    """robustify.solve_robust_cutting_planes on a 4-variable box with two
    uncertain rows: (module, run)."""
    gen = np.random.default_rng(5)
    n = 4
    rows = []
    for _ in range(2):
        root = gen.normal(size=(n + 1, n + 1)) * 0.1
        rows.append((np.append(gen.uniform(0.2, 1.5, n), gen.uniform(3.0, 6.0)),
                     root @ root.T + 1e-4 * np.eye(n + 1)))
    base = LpProblem(gen.uniform(0.5, 2.0, n), [], [(0.0, 5.0)] * n)
    rlp = robustify.robustify_rows(base, rows, 0.1)
    return robustify, lambda: robustify.solve_robust_cutting_planes(rlp)


def scenario_loop():
    """scenario.solve_scenario_lp on 3 fixed rows under 40 rhs draws:
    (module, run)."""
    gen = np.random.default_rng(6)
    n, m_u = 4, 3
    model = StudentTRhs(rows=gen.uniform(0.1, 2.0, (m_u, n)), dof=np.ones(m_u),
                        loc=np.zeros(m_u), scale=np.ones(m_u))
    rhs = gen.uniform(1.0, 4.0, (40, m_u))
    base = LpProblem(gen.uniform(0.2, 1.5, n), [], [(0.0, 5.0)] * n)
    return scenario, lambda: scenario.solve_scenario_lp(base, model, rhs)


def record_separations(monkeypatch, module):
    """Make module's row-generation loop record, in a list it returns,
    a copy of each x its separate() is called with."""
    seen = []

    def recording(base, separate, max_rounds):
        def separate_and_record(x):
            seen.append(None if x is None else x.copy())
            return separate(x)
        return solve_cutting_planes(base, separate_and_record, max_rounds)

    monkeypatch.setattr(module, "solve_cutting_planes", recording)
    return seen


def fail_checks(monkeypatch, count):
    """Make the first count residual checks of solution() read inf;
    returns the record of every check."""
    calls = []
    real = lp._row_violation

    def forced(s, upper, kept=None):
        calls.append(1)
        return math.inf if len(calls) <= count else real(s, upper, kept)

    monkeypatch.setattr(lp, "_row_violation", forced)
    return calls


class TestCheckedReturn:
    # A row-generation round separates at its incumbent unchecked; the
    # loop checks only the solution it returns, and returns only an x
    # that separate accepted.
    @pytest.mark.parametrize("loop", [robust_loop, scenario_loop])
    def test_one_check_per_loop(self, monkeypatch, loop):
        module, run = loop()
        seen = record_separations(monkeypatch, module)
        checks = fail_checks(monkeypatch, 0)
        sol, log = run()
        assert sol.status == "Optimal" and log.rounds >= 2
        assert len(seen) == log.rounds and len(checks) == 1
        assert sol.x.tobytes() == seen[-1].tobytes()
        assert not sol.x.flags.writeable

    @pytest.mark.parametrize("loop", [robust_loop, scenario_loop])
    def test_a_check_that_fails_raises(self, monkeypatch, loop):
        _, run = loop()
        checks = fail_checks(monkeypatch, math.inf)
        with pytest.raises(NumericalBreakdown, match="residual"):
            run()
        assert len(checks) == 2  # once, and once more after a refactor

    @pytest.mark.parametrize("loop", [robust_loop, scenario_loop])
    def test_a_check_that_refactors_separates_again(self, monkeypatch, loop):
        module, run = loop()
        sol0, log0 = run()
        seen = record_separations(monkeypatch, module)
        inversions = count_inversions(monkeypatch)
        fail_checks(monkeypatch, 1)
        sol, log = run()
        assert len(inversions) == 1
        assert sol.status == "Optimal"
        # the refactored x was separated too, and it is the one returned
        assert len(seen) == log.rounds + 1
        assert sol.x.tobytes() == seen[-1].tobytes()
        assert log.cuts_per_round == log0.cuts_per_round
        assert np.abs(sol.x - sol0.x).max() <= 1e-12

    def test_rows_found_after_a_refactor_go_to_a_next_round(self, monkeypatch):
        # separate answers the refactored x with a cut the pool's region
        # meets: c'x <= t, t halfway between the least and the largest
        # c'x there, so the loop goes on and its optimum is t
        base, pool = pool_instance(0)
        separate, _ = pool_separator(pool)
        sol0, log0 = solve_cutting_planes(base, separate, 50)
        region = base.constraints() + pool
        low = solve_lp(LpProblem(-base.objective, region, base.bounds()))
        t = 0.5 * (sol0.objective_value - low.objective_value)
        assert sol0.objective_value - t > 0.1
        base, pool = pool_instance(0)
        pooled, _ = pool_separator(pool)
        seen = []

        def separate_with_a_late_cut(x):
            seen.append(x)
            rows, worst = pooled(x)
            if len(seen) == log0.rounds + 1:
                assert not rows
                rows = [(base.objective, "<=", t)]
            return rows, worst

        fail_checks(monkeypatch, 1)
        sol, log = solve_cutting_planes(base, separate_with_a_late_cut, 50)
        assert sol.status == "Optimal"
        assert log.cuts_per_round[:log0.rounds] == log0.cuts_per_round[:-1] + [1]
        assert log.rounds > log0.rounds
        assert abs(sol.objective_value - t) <= 1e-9 * max(1.0, abs(t))
        assert sol.x is seen[-1]
        full = LpProblem(base.objective, region, base.bounds())
        assert max_violation(full, sol.x) <= 10 * FEAS_TOL
