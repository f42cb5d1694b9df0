#!/usr/bin/env python3
"""Hedge an LP against jointly uncertain constraint rows.

Each resource row (coefficients and right-hand side together) carries a
credible ellipsoid.  Robustifying at level alpha splits the budget
across rows, the cutting-plane loop solves the robust program exactly,
and a Monte Carlo certificate confirms the hedged plan rarely violates
while the plug-in plan is fragile.
"""

import numpy as np

from postfeas import (
    LpProblem,
    Rng,
    certify,
    robustify_rows,
    soc_support,
    solve_lp,
    solve_robust_cutting_planes,
)

ALPHA = 0.10

# Two products, two uncertain resource rows in (coeff_1, coeff_2, rhs) space.
profit = [3.0, 2.5]
centers = [
    np.array([1.0, 1.2, 7.0]),
    np.array([1.5, 0.8, 6.0]),
]
covs = [
    np.diag([0.010, 0.012, 0.20]),
    np.diag([0.015, 0.008, 0.15]),
]
base = LpProblem(profit, [], [(0.0, 10.0), (0.0, 10.0)])

# Plug-in: trust the central estimates.
plugin = solve_lp(LpProblem(
    profit,
    [(c[:2], "<=", float(c[2])) for c in centers],
    base.bounds(),
))
print("plug-in plan   :", np.round(plugin.x, 4), "profit",
      round(plugin.objective_value, 4))

# Robust: every row must hold for all parameters in its credible ellipsoid.
rlp = robustify_rows(base, list(zip(centers, covs)), ALPHA)
print("ellipsoid radius kappa:", round(rlp.kappa, 4))

robust_sol, log = solve_robust_cutting_planes(rlp)
print("robust plan    :", np.round(robust_sol.x, 4), "profit",
      round(robust_sol.objective_value, 4))
print("cutting planes : rounds", log.rounds, "cuts/round", log.cuts_per_round,
      "final max support", f"{log.final_max_support:.2e}")

# At the robust optimum no ellipsoid point separates (support <= 0).
z = np.concatenate([robust_sol.x, [-1.0]])
worst = soc_support(rlp.rows, rlp.kappa, z)[0].max()
print("worst-case row slack at robust plan:", f"{worst:.2e}")

# Certificate: draw rows from the same Gaussian law that defined the
# ellipsoids and count violations.
for name, plan in (("plug-in", plugin.x), ("robust ", robust_sol.x)):
    cert = certify(plan, rlp.rows, 20_000, 0.05,
                   Rng.for_purpose(99, "robust-demo", name.strip()))
    print(f"{name} violation rate {cert.v_hat:.4f}  "
          f"95% upper bound {cert.upper_bound:.4f}  (target {ALPHA})")
