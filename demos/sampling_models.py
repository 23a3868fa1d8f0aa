#!/usr/bin/env python3
"""Draw from the bundled model presets and sanity-check the output.

Continuous draws come from rejection samplers with certified envelopes.
The interaction model proposes from a scaled Dirichlet; the truncated
Gaussian from a Gaussian or a scaled Dirichlet, whichever has the
smaller envelope. Count models thin a latent draw through a
multinomial. Everything is driven by one seed through named substreams.
"""

import numpy as np

from compscore import (
    RngConfig,
    registry,
    sample_model,
    sample_multinomial_counts,
)


def describe(name, n=20_000, seed=42):
    entry = registry.get(name)
    rng = RngConfig(seed)
    if entry.discrete:
        latent = sample_model(entry.spec, n, rng.substream(0))
        counts = sample_multinomial_counts(
            latent, entry.default_totals, rng.substream(1)
        )
        print(f"{name}: {counts.n} count rows over {entry.latent} draws, "
              f"totals {entry.default_totals}")
        print(f"  zero fraction {np.round((counts.counts == 0).mean(axis=0), 3)}")
        return
    data, stats = sample_model(entry.spec, n, rng.substream(0), return_stats=True)
    line = f"{name}: {data.n} rows, p={data.p}"
    if stats is not None:
        line += (f", {stats.proposal} proposal, acceptance {stats.acceptance_rate:.3f}"
                 f" ({stats.attempted} attempted)")
    print(line)
    print(f"  mean {np.round(data.proportions.mean(axis=0), 4)}")
    print(f"  min  {data.proportions.min():.2e}")


if __name__ == "__main__":
    # a concentrated 10-part model: every free component centers at 0.04
    describe("model4")

    # boundary-corner 3-part model, the workhorse of the studies
    describe("model3")

    # interaction plus boundary-heavy shapes; the scaled Dirichlet's
    # envelope covers the energy term, and about a quarter is kept
    describe("model2")

    # pure dirichlet with one huge shape
    describe("model7")

    # multinomial thinning of model3 at totals 2000
    describe("model15")

    # same seed, same draws, bit for bit
    a = sample_model(registry.get("model3").spec, 1000, RngConfig(7).substream(0))
    b = sample_model(registry.get("model3").spec, 1000, RngConfig(7).substream(0))
    print("\nrerun with the same substream is identical:",
          bool(np.array_equal(a.proportions, b.proportions)))
