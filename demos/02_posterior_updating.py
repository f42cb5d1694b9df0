#!/usr/bin/env python3
"""Learn an uncertain capacity line from noisy history.

Capacity depends linearly on an observed context.  A conjugate
normal-inverse-gamma fit gives a closed-form Student-t predictive law
for the next capacity; we verify its quantiles against a large sampled
batch and compare with the classical least-squares prediction interval.
"""

import numpy as np

from postfeas import (
    NigPrior,
    Rng,
    StudentTRhs,
    fit_nig,
    fit_ols,
    ols_predictive_quantile,
    predictive,
    predictive_quantile,
)
from postfeas.stats import normal_array, uniform_array

rng = Rng.for_purpose(314, "capacity-demo")
n_obs = 80
beta_true = np.array([60.0, -1.5])
sigma_true = 4.0

design = np.column_stack([np.ones(n_obs), uniform_array(rng, (n_obs,))])
y = design @ beta_true + sigma_true * normal_array(rng, (n_obs,))

prior = NigPrior.default(dim=2)
post = fit_nig(design, y, prior)
print("true coefficients     :", beta_true)
print("posterior mean        :", np.round(post.mean, 3))
print("posterior noise scale :", round(float(np.sqrt(post.rate / post.shape)), 3),
      "(true", sigma_true, ")")

# Predictive law of the next capacity at a fresh context.
x_new = np.array([1.0, 0.4])
pred = predictive(post, x_new)
print("\npredictive at context 0.4: Student-t dof", round(pred.dof, 1),
      "loc", round(pred.loc, 3), "scale", round(pred.scale, 3))

# Closed-form quantiles agree with a big sampled batch.
capacity = StudentTRhs(rows=[[1.0]], dof=[pred.dof], loc=[pred.loc],
                       scale=[pred.scale])
draws = capacity.draw(Rng.for_purpose(314, "check"), 200_000)[:, 0]
for p in (0.05, 0.5, 0.95):
    q = predictive_quantile(pred, p)
    emp = float(np.quantile(draws, p))
    print(f"  p={p:4}: closed form {q:8.4f}   empirical {emp:8.4f}")

# The lower predictive tail is the hedge: plan for this much capacity and
# the chance of coming up short is only p.
print("\n5% lower capacity quantile:", round(predictive_quantile(pred, 0.05), 3))

# Classical least squares gives a slightly different hedge (flat prior,
# frequentist t interval); with 80 observations the two nearly agree.
ols = fit_ols(design, y)
print("least-squares 5% quantile :",
      round(ols_predictive_quantile(ols, x_new, 0.05), 3))
