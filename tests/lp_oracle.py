"""Brute-force LP oracle for tests: enumerate candidate vertices.

Independent of the simplex in postfeas.lp, so tests can check
solve_lp's status and optimum against it on small instances.
"""

import itertools
import math

import numpy as np

from postfeas.lp import LpProblem, LpSolution, _readonly


class SizeLimitExceeded(Exception):
    """Problem exceeds the guard limits of the brute force."""


_BF_MAX_N = 6
_BF_MAX_ROWS = 24
_BF_BOX = 1e7
_BF_FEAS_TOL = 1e-9  # relative slack a vertex may leave on a row


def _enumerate_best(hyperplanes, feas_rows, n, objective):
    """Max of objective over feasible intersections of n hyperplanes.

    hyperplanes: list of (coef, rhs) candidate active rows.
    feas_rows: list of (coef, sense, rhs) that any point must satisfy.
    Returns (best_value, best_x, n_solved) with best_x None when no
    feasible vertex exists.
    """
    best_val = -math.inf
    best_x = None
    solved = 0
    coefs = [h[0] for h in hyperplanes]
    rhss = [h[1] for h in hyperplanes]
    for combo in itertools.combinations(range(len(hyperplanes)), n):
        mat = np.array([coefs[i] for i in combo])
        vec = np.array([rhss[i] for i in combo])
        try:
            x = np.linalg.solve(mat, vec)
        except np.linalg.LinAlgError:
            continue
        solved += 1
        if not np.all(np.isfinite(x)):
            continue
        if np.max(np.abs(mat @ x - vec)) > 1e-6 * max(1.0, np.max(np.abs(vec))):
            continue  # nearly singular system, solution unreliable
        ok = True
        for coef, sense, rhs in feas_rows:
            r = float(coef @ x) - rhs
            allow = _BF_FEAS_TOL * max(1.0, abs(rhs), float(np.abs(coef @ x)))
            if sense == "<=" and r > allow:
                ok = False
                break
            if sense == ">=" and r < -allow:
                ok = False
                break
            if sense == "=" and abs(r) > allow:
                ok = False
                break
        if not ok:
            continue
        val = float(objective @ x)
        if val > best_val + 1e-12:
            best_val = val
            best_x = x
    return best_val, best_x, solved


def brute_force_lp(problem: LpProblem) -> LpSolution:
    """Reference solve by enumerating candidate vertices.

    Guard limits: n <= 6 and rows + finite bounds <= 24.  A large box is
    added on any side a variable lacks, so that the enumerated region is
    a polytope; unboundedness is then decided by enumerating the
    recession directions on the unit box.
    """
    n, m = problem.n, problem.m
    n_finite = int(np.isfinite(problem.lower).sum() + np.isfinite(problem.upper).sum())
    if n > _BF_MAX_N:
        raise SizeLimitExceeded(f"brute force requires n <= {_BF_MAX_N}, got {n}")
    if m + n_finite > _BF_MAX_ROWS:
        raise SizeLimitExceeded(
            f"brute force requires rows + finite bounds <= {_BF_MAX_ROWS}, "
            f"got {m + n_finite}"
        )
    eye = np.eye(n)
    hyper = [(problem.rows[i], float(problem.rhs[i])) for i in range(m)]
    feas = [(problem.rows[i], problem.senses[i], float(problem.rhs[i])) for i in range(m)]
    for j in range(n):
        lo, hi = problem.lower[j], problem.upper[j]
        if math.isfinite(lo):
            hyper.append((eye[j], float(lo)))
            feas.append((eye[j], ">=", float(lo)))
        else:
            hyper.append((eye[j], -_BF_BOX))
        if math.isfinite(hi):
            hyper.append((eye[j], float(hi)))
            feas.append((eye[j], "<=", float(hi)))
        else:
            hyper.append((eye[j], _BF_BOX))
    best_val, best_x, solved = _enumerate_best(hyper, feas, n, problem.objective)
    if best_x is None:
        return LpSolution("Infeasible", None, None, solved)
    # recession check on the unit box: any improving ray means unbounded
    rec_hyper = []
    rec_feas = []
    for i in range(m):
        rec_hyper.append((problem.rows[i], 0.0))
        rec_feas.append((problem.rows[i], problem.senses[i], 0.0))
    for j in range(n):
        if math.isfinite(problem.lower[j]):
            rec_feas.append((eye[j], ">=", 0.0))
            rec_hyper.append((eye[j], 0.0))
        if math.isfinite(problem.upper[j]):
            rec_feas.append((eye[j], "<=", 0.0))
            if not math.isfinite(problem.lower[j]):
                rec_hyper.append((eye[j], 0.0))
        rec_hyper.append((eye[j], -1.0))
        rec_hyper.append((eye[j], 1.0))
        rec_feas.append((eye[j], ">=", -1.0))
        rec_feas.append((eye[j], "<=", 1.0))
    rec_val, rec_x, solved2 = _enumerate_best(rec_hyper, rec_feas, n,
                                              problem.objective)
    if rec_x is not None and rec_val > 1e-9 * max(1.0, float(np.abs(problem.objective).max())):
        return LpSolution("Unbounded", None, None, solved + solved2)
    return LpSolution("Optimal", _readonly(best_x), best_val, solved + solved2)
