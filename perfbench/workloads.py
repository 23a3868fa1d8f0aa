"""The four workloads: seeded inputs, one op each, and the output checks.

Inputs are drawn with numpy from the benchmark seed, never with the
package's own samplers, so a sampler change cannot change the data the
fits see. The study and the diagnostics draw inside the op, because the
samplers are part of what those ops measure. See README.md for why each
workload is here.
"""

import contextlib
import csv
import io
import json
import math
import os
from importlib import resources

import numpy as np

import compscore
from compscore import cli, fitting, moments, registry
from compscore.core import ContinuousDataset, CountDataset, ModelSpec, index_map
from compscore.weights import WeightSpec, cap_from_quantile

# The seed the references in reference.json were recorded with.
DEFAULT_SEED = 1
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Agreement required with the recorded estimates: loose enough for sums
# taken in another order (roadmap items 2 and 3 promise 1e-12 relative),
# tight enough to catch any change of method.
REF_RTOL = 1e-9

# fit-wide: every |theta_hat| / SE below this, since the true theta is 0.
WIDE_MAX_Z = 5.0
# fit-wide and fit-counts: the least share of the traced op that the
# spans of the calls inside it must cover, or the traced run fails.
MIN_COVERAGE = 0.9
# study-gauss: every cell's bias within this many Monte Carlo SE of the
# bias the seed commit gives on average. The Monte Carlo SE of a cell is
# its replicate SD over sqrt(replicates), both recorded in reference.json
# from STUDY_REFERENCE_SEEDS. The check is against the recorded bias, not
# the truth: at the seed commit the diagonal cells sit about 1.1 (capped-min)
# and up to 1.6 (product weight) Monte Carlo SE below the truth on average.
# With 108 cells a correct program passes 4 SE on about 99.3% of seeds
# (seed 8 reaches 4.2 on cell 3|a77), and 4.5 SE on about 99.93%.
STUDY_MAX_MCSE = 4.5
STUDY_REFERENCE_SEEDS = range(1001, 1121)


def _load_reference(workload):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload]


def _close(name, got, want, problems):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = REF_RTOL * max(float(np.max(np.abs(want))), 1e-300)
    if got.shape != want.shape or not np.allclose(got, want, rtol=REF_RTOL, atol=scale):
        problems.append(f"{name}: estimates differ from the recorded reference")


def _quiet(argv):
    """cli.main with its one-line summary kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class FitWide:
    """fit_hybrid with SEs on 12288 Dirichlet rows at p=20, q=209."""

    name = "fit-wide"
    p = 20
    n = 12288
    rows_per_op = n
    min_coverage = MIN_COVERAGE

    def __init__(self, seed, workdir):
        self.seed = seed
        gen = np.random.default_rng(seed)
        self.shape = np.linspace(-0.5, 4.0, self.p)
        self.data = ContinuousDataset(gen.dirichlet(self.shape + 1.0, size=self.n))
        self.a_c = cap_from_quantile(compscore.sqrt_transform(self.data), "capped-min", 0.9)
        self.weight = WeightSpec("capped-min", self.a_c)

    def op(self):
        return fitting.fit_hybrid(self.data, self.shape, self.weight, estimate_linear=True)

    def traced_op(self):
        """The same fit as op, as the sequence of public calls fit_hybrid makes."""
        spec = ModelSpec(family="hybrid", p=self.p, shape=self.shape, estimate_linear=True)
        imap = index_map(self.p)
        mask = spec.estimation_mask(imap)
        z = compscore.core.sqrt_transform(self.data)
        ws = fitting.build_workspace(z, self.weight, shape=spec.shape, imap=imap)
        result = fitting.solve(ws, mask=mask, with_se=False)
        result.cov_scaled = fitting.standard_errors(ws, result, mask=mask)
        return result

    def check(self, result):
        problems = []
        if np.any(self.data.proportions == 0.0):
            problems.append("fit-wide: generated data hold exact zeros")
        if len(result.labels) != 209:
            problems.append(f"fit-wide: {len(result.labels)} parameters, expected 209")
        se = result.standard_errors
        if not (np.all(np.isfinite(result.estimates)) and np.all(np.isfinite(se)) and np.all(se > 0)):
            problems.append("fit-wide: non-finite estimates or standard errors")
        else:
            worst = float(np.max(np.abs(result.estimates / se)))
            if worst > WIDE_MAX_Z:
                problems.append(f"fit-wide: |theta|/SE reaches {worst:.2f} > {WIDE_MAX_Z}")
        if self.seed == DEFAULT_SEED:
            ref = _load_reference(self.name)
            _close("fit-wide", result.estimates, ref["estimates"], problems)
            _close("fit-wide SE", se, ref["standard_errors"], problems)
        return problems

    def reference(self, result):
        return {
            "estimates": [float(v) for v in result.estimates],
            "standard_errors": [float(v) for v in result.standard_errors],
        }


class FitCounts:
    """fit_from_counts on 4000 thinned model8 rows at p=10."""

    name = "fit-counts"
    p = 10
    n = 4000
    rows_per_op = n
    min_coverage = MIN_COVERAGE

    def __init__(self, seed, workdir):
        self.seed = seed
        gen = np.random.default_rng(seed)
        self.shape = registry.get("model8").spec.shape
        latent = gen.dirichlet(self.shape + 1.0, size=self.n)
        totals = np.floor(np.exp(gen.uniform(np.log(300.0), np.log(5000.0), self.n))).astype(np.int64)
        # 1% of the rows have a total of 10, below the top moment degree
        # p + 4 = 14, so the per-degree exclusion path drops them from the
        # moments of degree 11 to 14.
        totals[gen.choice(self.n, self.n // 100, replace=False)] = 10
        self.counts = CountDataset(gen.multinomial(totals, latent))

    def op(self):
        return moments.fit_from_counts(self.counts, self.shape)

    traced_op = op

    def check(self, result):
        problems = []
        if len(result.labels) != 45:
            problems.append(f"fit-counts: {len(result.labels)} parameters, expected 45")
        if not np.all(np.isfinite(result.estimates)):
            problems.append("fit-counts: non-finite estimates")
        if self.seed == DEFAULT_SEED:
            _close("fit-counts", result.estimates, _load_reference(self.name)["estimates"], problems)
        return problems

    def reference(self, result):
        return {"estimates": [float(v) for v in result.estimates]}


class StudyGauss:
    """`compscore bench` on model6: estimators 1 and 3, n=1000, 20 replicates."""

    name = "study-gauss"
    replicates = 20
    estimators = (1, 3)
    n = 1000
    rows_per_op = replicates * len(estimators) * n

    def __init__(self, seed, workdir):
        self.config = os.path.join(workdir, "study.json")
        self.out = os.path.join(workdir, "study")
        doc = {
            "schema_version": 1,
            "model": "model6",
            "estimators": list(self.estimators),
            "n": self.n,
            "replicates": self.replicates,
            "seed": int(seed),
        }
        with open(self.config, "w") as fh:
            json.dump(doc, fh)

    def op(self):
        return _quiet(["bench", "--config", self.config, "--out", self.out])

    traced_op = op

    def _rows(self):
        with open(os.path.join(self.out, "summary.csv"), newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, code):
        if code != 0:
            return [f"study-gauss: bench exited with {code}"]
        problems = []
        ref = _load_reference(self.name)["cells"]
        rows = self._rows()
        if len(rows) != 108:
            problems.append(f"study-gauss: {len(rows)} cells, expected 108")
        for row in rows:
            if int(row["n_ok"]) != self.replicates:
                problems.append(f"study-gauss: estimator {row['estimator']} failed on some replicates")
                break
            cell = ref[f"{row['estimator']}|{row['parameter']}"]
            mcse = cell["sd"] / math.sqrt(self.replicates)
            shift = (float(row["mean"]) - float(row["truth"]) - cell["bias"]) / mcse
            if not abs(shift) <= STUDY_MAX_MCSE:
                problems.append(
                    f"study-gauss: estimator {row['estimator']} {row['parameter']}: bias is "
                    f"{shift:.2f} Monte Carlo SE from the recorded one"
                )
        return problems

    def reference(self, code):
        """Each cell's mean bias and replicate SD over STUDY_REFERENCE_SEEDS.

        The op already run is not used: a cell's systematic bias shows
        only in the mean over many seeds.
        """
        workdir = os.path.dirname(self.config)
        bias, var = {}, {}
        for seed in STUDY_REFERENCE_SEEDS:
            run = StudyGauss(seed, workdir)
            if run.op() != 0:
                raise RuntimeError(f"study-gauss: bench failed on seed {seed}")
            for row in run._rows():
                key = f"{row['estimator']}|{row['parameter']}"
                bias.setdefault(key, []).append(float(row["mean"]) - float(row["truth"]))
                # the "se" column is the replicate SD with divisor n
                sd = float(row["se"]) * math.sqrt(self.replicates / (self.replicates - 1))
                var.setdefault(key, []).append(sd * sd)
        return {
            "seeds": [STUDY_REFERENCE_SEEDS[0], STUDY_REFERENCE_SEEDS[-1]],
            "cells": {
                key: {"bias": float(np.mean(bias[key])), "sd": math.sqrt(float(np.mean(var[key])))}
                for key in bias
            },
        }

    def fit_failures(self):
        with open(os.path.join(self.out, "manifest.json")) as fh:
            return sum(json.load(fh)["failures"].values())


class PipelineBundled:
    """Two `compscore fit` runs and one `compscore diagnose` on the bundled table."""

    name = "pipeline-bundled"
    n = 92
    rows_per_op = 2 * n

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        ref = resources.files("compscore").joinpath("data/synthetic_microbiome_counts.csv")
        self.data = str(ref)
        self.config = os.path.join(workdir, "fit.json")
        doc = {
            "schema_version": 1,
            "family": "hybrid",
            "data_kind": "counts",
            "shape": [float(v) for v in registry.get("model1").spec.shape],
        }
        with open(self.config, "w") as fh:
            json.dump(doc, fh)

    def _out(self, name):
        return os.path.join(self.workdir, name)

    def op(self):
        fit = ["fit", "--data", self.data, "--config", self.config]
        return (
            _quiet(fit + ["--estimator", "factorial", "--out", self._out("factorial")]),
            _quiet(
                fit
                + ["--estimator", "continuous", "--weight", "capped-min", "--ac", "auto:0.9"]
                + ["--out", self._out("continuous")]
            ),
            _quiet(
                ["diagnose", "--data", self.data, "--data-kind", "counts"]
                + ["--grid-totals", "2000", "--fit", os.path.join(self._out("continuous"), "fit.json")]
                + ["--seed", str(self.seed), "--out", self._out("diagnose")]
            ),
        )

    traced_op = op

    def _estimates(self, route):
        with open(os.path.join(self._out(route), "fit.json")) as fh:
            return json.load(fh)["estimates"]

    def check(self, codes):
        if any(codes):
            return [f"pipeline-bundled: exit codes {list(codes)}"]
        problems = []
        ref = _load_reference(self.name)
        for route in ("factorial", "continuous"):
            _close(f"pipeline-bundled {route}", self._estimates(route), ref[route], problems)
        with open(os.path.join(self._out("diagnose"), "report.json")) as fh:
            report = json.load(fh)
        stats = [c["ks_statistic"] for c in report["categories"]]
        if len(stats) != 5 or not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in stats):
            problems.append(f"pipeline-bundled: KS statistics {stats}")
        return problems

    def reference(self, codes):
        return {route: self._estimates(route) for route in ("factorial", "continuous")}


WORKLOADS = {w.name: w for w in (FitWide, FitCounts, StudyGauss, PipelineBundled)}
