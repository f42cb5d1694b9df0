#!/usr/bin/env python3
"""Pick the scenario count with the exact binomial tail bound, then solve.

Enforcing every one of N sampled constraint realizations controls the
chance that the resulting plan violates more than an eps fraction of
future draws.  required_sample_size inverts the exact tail bound, and
we confirm N is minimal.  The scenario LP is then solved by row
generation and, for right-hand-side-only uncertainty, cross-checked
against the equivalent single worst-draw program.
"""

import numpy as np

from postfeas import (
    LpProblem,
    Nig,
    Rng,
    StudentTRhs,
    binomial_tail,
    fit_nig,
    required_sample_size,
    solve_lp,
    solve_scenario_lp,
)

EPS, DELTA = 0.05, 0.05

print("scenario counts for violation <= eps with confidence 1 - delta:")
for d in (1, 2, 5, 10):
    n_req = required_sample_size(EPS, DELTA, d)
    print(f"  support dimension {d:2d}: N = {n_req:4d}   "
          f"bound at N {binomial_tail(n_req, EPS, d):.4f}   "
          f"at N-1 {binomial_tail(n_req - 1, EPS, d):.4f}")

# Capacities of two resources are learned from history; scenarios are
# posterior predictive draws of the right-hand sides.
rng = Rng.for_purpose(7, "scenario-demo")
n_obs, sigma = 60, 3.0
design = np.column_stack([np.ones(n_obs), rng.generator.random((n_obs,))])
truth = np.array([[50.0, -2.0], [40.0, 1.5]])
x_ctx = np.array([1.0, 0.5])

rows = np.array([[1.0, 1.5], [2.0, 1.0]])
# Both capacities share the design and the prior, so one fit takes the
# two observation columns together.
Y = np.column_stack([
    design @ truth[j] + sigma * rng.generator.standard_normal((n_obs,))
    for j in range(2)
])
post = fit_nig(design, Y, Nig.default(2))

n_scen = required_sample_size(EPS, DELTA, d=2)
draw_rng = Rng.for_purpose(7, "scenario-demo", "draws")
capacities = StudentTRhs.from_nig(rows, post, x_ctx)
rhs_draws = capacities.draw(draw_rng, n_scen)

base = LpProblem([4.0, 3.0], [], [(0.0, 30.0), (0.0, 30.0)])
stacked, log = solve_scenario_lp(base, capacities, rhs_draws)
print(f"\n{n_scen} scenarios enforced: plan",
      np.round(stacked.x, 4), "profit", round(stacked.objective_value, 4))
print(f"row generation added {log.total_cuts} of {2 * n_scen} scenario rows "
      f"in {log.rounds} rounds")

# With fixed coefficient rows, enforcing all draws equals enforcing the
# componentwise worst draw; the two routes must coincide.
worst = rhs_draws.min(axis=0)
direct = solve_lp(LpProblem(
    base.objective,
    [(rows[j], "<=", float(worst[j])) for j in range(2)],
    base.bounds(),
))
print("single worst-draw LP profit           :",
      round(direct.objective_value, 4))
print("routes agree:",
      abs(stacked.objective_value - direct.objective_value) < 1e-9)

