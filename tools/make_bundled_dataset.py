"""Draw a synthetic microbiome count table like the bundled one.

Draws n rows from the model1 preset (the bundled real-data-scale hybrid
fit), thins them to multinomial counts and writes a counts CSV to the
required --out path:

    python tools/make_bundled_dataset.py --out counts.csv

The rows come from compscore.samplers.sample_model, the one entry point
of the samplers. The checked-in
src/compscore/data/synthetic_microbiome_counts.csv was drawn with this
seed by the hybrid sampler as it stood at commit 6385eb3. Commit c17b9c7
gave that sampler per-chunk substreams, and the sampler after commit
31bbd6a proposes from a scaled Dirichlet with a certified envelope
instead of the Dirichlet base with an empirical one, so today's sampler
draws a different table from the same seed. The checked-in file is kept
as it is, CRLF line ends included, because the benchmark's reference
fits depend on its bytes; this tool no longer rewrites it.
"""

import argparse
from pathlib import Path

from compscore import registry
from compscore.core import CountDataset
from compscore.io import counts_csv
from compscore.samplers import RngConfig, sample_model, sample_multinomial_counts

SEED = 5
N = 92
TOTALS = 2000
NAMES = ("taxon1", "taxon2", "taxon3", "taxon4", "other")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the counts CSV to write")
    args = parser.parse_args()
    entry = registry.get("model1")
    rng = RngConfig(SEED)
    latent = sample_model(entry.spec, N, rng.substream(0))
    counts = sample_multinomial_counts(latent, TOTALS, rng.substream(1))
    counts = CountDataset(counts.counts, totals=counts.totals, names=NAMES)
    Path(args.out).write_text(counts_csv(counts), newline="")
    zeros = (counts.counts == 0).mean(axis=0)
    print(f"wrote {args.out}: {counts.n} rows, zero fractions {zeros.round(2)}")


if __name__ == "__main__":
    main()
