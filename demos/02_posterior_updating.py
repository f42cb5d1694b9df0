#!/usr/bin/env python3
"""Learn an uncertain capacity line from noisy history.

Capacity depends linearly on an observed context.  A conjugate
normal-inverse-gamma fit gives a closed-form Student-t predictive law
for the next capacity; we verify its quantiles against a large sampled
batch and compare with the classical least-squares prediction interval,
which is the same predictive under the reference prior.
"""

import numpy as np

from postfeas import (
    Nig,
    Rng,
    StudentTRhs,
    fit_nig,
    fit_ols,
    rhs_quantile_tighten,
)
rng = Rng.for_purpose(314, "capacity-demo")
n_obs = 80
beta_true = np.array([60.0, -1.5])
sigma_true = 4.0

design = np.column_stack([np.ones(n_obs), rng.generator.random((n_obs,))])
y = design @ beta_true + sigma_true * rng.generator.standard_normal((n_obs,))

prior = Nig.default(dim=2)
post = fit_nig(design, y, prior)
print("true coefficients     :", beta_true)
print("posterior mean        :", np.round(post.mean, 3))
print("posterior noise scale :", round(float(np.sqrt(post.rate / post.shape)), 3),
      "(true", sigma_true, ")")


def quantile(model, p):
    """p-quantile of a one-row model's right-hand side."""
    return float(rhs_quantile_tighten(model, p)[0])


# Predictive law of the next capacity at a fresh context.
x_new = np.array([1.0, 0.4])
capacity = StudentTRhs.from_nig([[1.0]], post, x_new)
print("\npredictive at context 0.4: Student-t dof",
      round(float(capacity.dof[0]), 1),
      "loc", round(float(capacity.loc[0]), 3),
      "scale", round(float(capacity.scale[0]), 3))

# Closed-form quantiles agree with a big sampled batch.
draws = capacity.draw(Rng.for_purpose(314, "check"), 200_000)[:, 0]
for p in (0.05, 0.5, 0.95):
    q = quantile(capacity, p)
    emp = float(np.quantile(draws, p))
    print(f"  p={p:4}: closed form {q:8.4f}   empirical {emp:8.4f}")

# The lower predictive tail is the hedge: plan for this much capacity and
# the chance of coming up short is only p.
print("\n5% lower capacity quantile:", round(quantile(capacity, 0.05), 3))

# Classical least squares is the posterior under the reference prior
# p(beta, sigma^2) ~ 1/sigma^2, so the same from_nig gives its t
# prediction law: n - d degrees of freedom, loc x'beta_hat and scale
# s sqrt(1 + x'(X'X)^-1 x).  Its hedge differs slightly from the weak
# default prior's; with 80 observations the two nearly agree.
ols = StudentTRhs.from_nig([[1.0]], fit_ols(design, y), x_new)
print("least-squares predictive: Student-t dof", round(float(ols.dof[0]), 1),
      "loc", round(float(ols.loc[0]), 3),
      "scale", round(float(ols.scale[0]), 3))
print("least-squares 5% quantile :", round(quantile(ols, 0.05), 3))
