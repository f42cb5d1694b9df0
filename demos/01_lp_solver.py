#!/usr/bin/env python3
"""Solve a small production-planning LP with the bundled simplex solver.

Two products share three machine resources.  We maximize profit, check
the optimum against the one derived by hand, read the problem back from the JSON form ``postfeas solve`` takes, and show how
infeasible and unbounded programs are reported.
"""

import json

import numpy as np

from postfeas import LpProblem, max_violation, problem_from_json, solve_lp

profit = [3.0, 2.0]
machine_rows = [
    ([1.0, 1.0], "<=", 4.0),   # assembly hours
    ([2.0, 1.0], "<=", 5.0),   # machining hours
    ([0.0, 1.0], "<=", 3.0),   # packaging hours
]
problem = LpProblem(profit, machine_rows, [(0.0, None), (0.0, None)])

sol = solve_lp(problem)
print("status          :", sol.status)
print("plan            :", np.round(sol.x, 6))
print("profit          :", round(sol.objective_value, 6))
print("worst slack used:", max_violation(problem, sol.x))

# Independent check: assembly and machining both bind at x = (1, 3), where
# the profit gradient (3, 2) lies between their normals (1, 1) and (2, 1),
# so no feasible direction improves on profit 3 * 1 + 2 * 3 = 9.
print("hand-derived optimum matches      :",
      abs(sol.objective_value - 9.0) < 1e-9
      and np.allclose(sol.x, [1.0, 3.0], atol=1e-9))

# The same problem in the JSON form `postfeas solve` reads.
text = json.dumps({
    "maximize": profit,
    "constraints": [{"row": row, "sense": sense, "rhs": rhs}
                    for row, sense, rhs in machine_rows],
    "bounds": [[0.0, None], [0.0, None]],
})
again = solve_lp(problem_from_json(text))
print("JSON round-trip objective         :", round(again.objective_value, 6))

# Contradictory rows are detected, not silently "solved".
bad = LpProblem(profit, [([1.0, 0.0], ">=", 2.0), ([1.0, 0.0], "<=", 1.0)],
                [(0.0, None), (0.0, None)])
print("contradictory rows                :", solve_lp(bad).status)

# So is a profit ray with nothing to stop it.
free = LpProblem(profit, [], [(0.0, None), (0.0, None)])
print("no binding resources              :", solve_lp(free).status)
