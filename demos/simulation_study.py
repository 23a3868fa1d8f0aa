#!/usr/bin/env python3
"""Replicated simulation study on one of the bundled presets.

Estimator 1 is the capped-min fit, estimator 3 its capped-product
variant. Each replicate simulates fresh data from the preset, fits, and
the summary aggregates bias, SE, and RMSE per parameter along with the
5/50/95 percentiles of the plug-in SE estimator.
"""

import time

import numpy as np

from compscore import StudyConfig, registry, run_study
from compscore.core import index_map

config = StudyConfig(
    model="model3",
    estimators=(1, 3),
    n=1000,
    replicates=200,
    seed=19,
)
t0 = time.time()
summary = run_study(config)
print(f"{config.replicates} replicates of n={config.n} in {time.time() - t0:.1f}s\n")

entry = registry.get("model3")
imap = index_map(entry.spec.p)
truth = entry.spec.true_theta(imap)[entry.spec.estimation_mask(imap)]

print(f"{'est':>4s} {'param':>6s} {'truth':>9s} {'mean':>9s} "
      f"{'bias':>8s} {'se':>7s} {'rmse':>7s} {'rbias':>7s}")
for est in config.estimators:
    for lab, t in zip(summary.labels, truth):
        c = summary.cell(est, lab)
        print(f"{est:>4d} {lab:>6s} {t:9.2f} {c.mean:9.2f} "
              f"{c.bias:8.2f} {c.se:7.2f} {c.rmse:7.2f} {c.rbias:7.2f}")

# the SE estimator should bracket the Monte Carlo SE
print("\nplug-in SE percentiles (5/50/95) vs Monte Carlo SE:")
for lab in summary.labels:
    q = summary.se_quantiles[(1, lab)]
    print(f"  {lab}: {q[0]:.2f} / {q[1]:.2f} / {q[2]:.2f}  vs  "
          f"{summary.cell(1, lab).se:.2f}")

# error decomposition holds exactly with ddof=0
c = summary.cell(1, "a11")
print(f"\nrmse^2 - (se^2 + bias^2) = {c.rmse**2 - (c.se**2 + c.bias**2):.2e}")

# failed replicates never crash a study; they are counted instead
print("failures per estimator:", summary.failures)
