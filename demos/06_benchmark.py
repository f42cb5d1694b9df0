#!/usr/bin/env python3
"""Race five hedging methods on synthetic uncertain-capacity LPs.

Each trial draws a fresh planning instance, lets every method pick its
tightened capacities, solves, and then scores the plan against the true
capacity law (v_true, the exact probability that some row's independent
Gaussian capacity falls short) and the posterior (v_post, a Monte Carlo
estimate).  Plugging in the
predictive mean earns the most profit and violates wildly; methods that
hedge with posterior quantiles or scenarios stay near the target rate
and pay a profit premium for it.
"""

import numpy as np

from postfeas import METHODS, SimConfig, run_benchmark, summarize_by_alpha

cfg = SimConfig(
    n=8, m=3, d_ctx=3, n_obs=60,
    n_scen=80, m_cert=800,
    trials_per_alpha=8, alphas=(0.05, 0.10),
    master_seed=7,
)

records = run_benchmark(cfg)
ok = sum(r.status == "Optimal" for r in records)
print(f"{len(records)} records ({ok} optimal) from "
      f"{cfg.trials_per_alpha} trials x {len(cfg.alphas)} alphas "
      f"x {len(METHODS)} methods")

label = {
    "PM": "plug-in predictive mean",
    "CR": "per-row predictive quantile",
    "PS": "posterior scenario draws",
    "FPQ": "least-squares prediction quantile",
    "RB": "mean minus z-score spread",
}
for alpha in cfg.alphas:
    print(f"\ntarget violation rate alpha = {alpha}")
    print(f"  {'method':40s} {'profit':>9} {'v_true':>7} {'v_post':>7}")
    for block in summarize_by_alpha(cfg, records):
        if block["alpha"] != alpha:
            continue
        name = f"{block['method']} ({label[block['method']]})"
        print(f"  {name:40s} {block['profit_mean']:9.2f} "
              f"{block['vtrue_mean']:7.3f} {block['vpost_mean']:7.3f}")

print("\nReading the table: PM's v_true far exceeds alpha (its profit is"
      "\nan overpromise), while the hedged methods hold violations near or"
      "\nbelow the target at lower profit.")
