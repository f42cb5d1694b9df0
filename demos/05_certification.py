#!/usr/bin/env python3
"""Certify a decision by Monte Carlo with an exact binomial upper bound.

A feasibility certificate counts how many posterior draws a fixed plan
violates and wraps the count in an exact one-sided binomial confidence
bound, so the reported guarantee never relies on asymptotics.  The
bound is honest even at zero observed violations.
"""

import numpy as np

from postfeas import Rng, certify, clopper_pearson_upper, estimate_violation

# A synthetic world with a known violation probability, so the
# certificate can be judged against the truth.  A posterior model has
# two methods: draw(rng, count) returns a batch of draws, and
# residuals(x, batch) returns one column per constraint, positive where
# the draw violates it.
P_TRUE = 0.03


class UniformWorld:
    """One draw u ~ U(0, 1); constraint i is violated when u < limits[i]."""

    def __init__(self, *limits):
        self.limits = np.array(limits)

    def draw(self, rng, count):
        return rng.generator.random((count, 1))

    def residuals(self, x, batch):
        return self.limits - batch


x_plan = np.array([1.0])
print("true violation probability:", P_TRUE)
print(f"{'M':>7}  {'observed':>8}  {'v_hat':>7}  {'95% upper':>9}")
for m_draws in (200, 2_000, 20_000):
    cert = certify(x_plan, UniformWorld(P_TRUE), m_draws, 0.05,
                   Rng.for_purpose(5, "cert-demo", m_draws))
    print(f"{cert.M:7d}  {cert.s:8d}  {cert.v_hat:7.4f}  "
          f"{cert.upper_bound:9.4f}")

# Zero observed violations still yields a positive bound, with the
# closed form 1 - beta**(1/M).  estimate_violation takes a stack of
# plans, one per row, and scores them all on the same draws.
m_draws = 500
s, _ = estimate_violation(
    x_plan[np.newaxis], UniformWorld(0.0), m_draws,
    Rng.for_purpose(5, "cert-demo", "zero"),
)
ub = clopper_pearson_upper(s[0], m_draws, 0.05)
print(f"\ns = {s[0]} of {m_draws}: upper bound {ub:.6f}"
      f"  (closed form {1 - 0.05 ** (1 / m_draws):.6f})")

# With several constraints the certificate also carries per-constraint
# violation rates; a draw violates when any constraint does.
cert = certify(x_plan, UniformWorld(0.02, 0.03), 10_000, 0.05,
               Rng.for_purpose(5, "cert-demo", "split"))
print("\nper-constraint rates:",
      tuple(round(r, 4) for r in cert.per_constraint_rates),
      " aggregate:", round(cert.v_hat, 4))
