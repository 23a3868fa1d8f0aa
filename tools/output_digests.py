"""Print sha1 digests of what the samplers and the CLI write, one line
per item, so that two trees can be checked for byte-identical output:

    PYTHONPATH=src python tools/output_digests.py > after.txt
    diff before.txt after.txt

The items are
* every preset's sample_model rows and RejectionStats at n = 5000,
  seeds 0 and 7 (the latent model of a thinned preset);
* the payload files of `compscore simulate` for five presets;
* the bundled table's factorial and continuous fit.json and the
  report.json and manifest `rejection` block of `compscore diagnose` on
  the continuous fit, at seeds 1 to 3, as the pipeline-bundled
  benchmark workload runs them;
* the summary.csv and replicates.csv of `compscore bench` on the
  study-gauss benchmark workload's config (model6, estimators 1 and 3)
  and on model15 with estimators 1 and 5, at seeds 1 to 3;
* fits whose row passes span several row blocks, so that block
  summation is covered: fit_hybrid's estimates and cov_scaled at p = 10
  on 19384 Dirichlet rows (eight or nine blocks per pass) for every
  weight kind, fit_from_counts at p = 10 on 2000 rows at total 1000
  (eleven blocks of moments), and the system and estimates that
  EmpiricalMoments gives for the 19384 rows; and fit_hybrid's estimates
  and cov_scaled at p = 16 and 20 on 12288 rows (13 to 20 blocks per
  pass) for every weight kind, where unpinned OpenBLAS threads changed
  the bits;
* fit_dirichlet's estimates and cov_scaled for every weight kind on the
  same p = 10 and p = 20 rows;
* the fit.json of `compscore fit --estimator moment` on the bundled
  table as Dirichlet proportions;
* the rows and RejectionStats of a truncated Gaussian whose interaction
  is indefinite, so that only the scaled Dirichlet serves it.
The last three items come after the others, so the earlier lines keep
their order.
Manifests are read for their rejection block only, since they carry
timings. Run it under OPENBLAS_NUM_THREADS=1 and =2 and diff the two
outputs to check that nothing it covers depends on the BLAS thread
count.
"""

import hashlib
import json
import os
import tempfile
from contextlib import redirect_stdout
from importlib import resources
from io import StringIO

import numpy as np

from compscore import registry
from compscore.cli import main as cli_main
from compscore.core import ContinuousDataset, CountDataset, ModelSpec, sqrt_transform
from compscore.fitting import fit_dirichlet, fit_hybrid, solve
from compscore.moments import EmpiricalMoments, build_workspace_from_moments, fit_from_counts
from compscore.samplers import RngConfig, sample_model
from compscore.weights import KINDS, WeightSpec, cap_from_quantile

SIMULATED = ("model1", "model3", "model6", "model7", "model13")
# model and estimators of each study; n = 1000 and 20 replicates as in study-gauss
STUDIES = (("model6", (1, 3)), ("model15", (1, 5)))


def _sha1(data):
    return hashlib.sha1(data).hexdigest()


def _file_sha1(path):
    with open(path, "rb") as fh:
        return _sha1(fh.read())


def _cli(argv):
    with redirect_stdout(StringIO()):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"exit {code}: compscore {' '.join(map(str, argv))}")


def preset_lines():
    for entry in registry.entries():
        for seed in (0, 7):
            data, stats = sample_model(entry.spec, 5000, RngConfig(seed), return_stats=True)
            stats = None if stats is None else stats.to_dict()
            digest = _sha1(data.proportions.tobytes() + json.dumps(stats, sort_keys=True).encode())
            yield f"preset {entry.name} seed {seed} {digest}"


def simulate_lines(tmp):
    for name in SIMULATED:
        out = os.path.join(tmp, f"sim-{name}")
        _cli(["simulate", "--model", name, "--n", 2000, "--seed", 3, "--out", out])
        for file in sorted(os.listdir(out)):
            if file != "manifest.json":
                yield f"simulate {name} {file} {_file_sha1(os.path.join(out, file))}"


def pipeline_lines(tmp):
    table = str(resources.files("compscore").joinpath("data/synthetic_microbiome_counts.csv"))
    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        json.dump({"schema_version": 1, "family": "hybrid", "data_kind": "counts",
                   "shape": registry.get("model1").spec.shape.tolist()}, fh)
    fit = ["fit", "--data", table, "--config", config]
    factorial, continuous = os.path.join(tmp, "factorial"), os.path.join(tmp, "continuous")
    _cli(fit + ["--estimator", "factorial", "--out", factorial])
    _cli(fit + ["--estimator", "continuous", "--weight", "capped-min", "--ac", "auto:0.9",
                "--out", continuous])
    yield f"fit factorial fit.json {_file_sha1(os.path.join(factorial, 'fit.json'))}"
    yield f"fit continuous fit.json {_file_sha1(os.path.join(continuous, 'fit.json'))}"
    for seed in (1, 2, 3):
        out = os.path.join(tmp, f"diagnose-{seed}")
        _cli(["diagnose", "--data", table, "--data-kind", "counts", "--grid-totals", 2000,
              "--fit", os.path.join(continuous, "fit.json"), "--seed", seed, "--out", out])
        yield f"diagnose seed {seed} report.json {_file_sha1(os.path.join(out, 'report.json'))}"
        with open(os.path.join(out, "manifest.json")) as fh:
            rejection = json.load(fh)["rejection"]
        yield f"diagnose seed {seed} rejection {json.dumps(rejection, sort_keys=True)}"


def bench_lines(tmp):
    for model, estimators in STUDIES:
        for seed in (1, 2, 3):
            config = os.path.join(tmp, f"study-{model}.json")
            with open(config, "w") as fh:
                json.dump({"schema_version": 1, "model": model, "estimators": list(estimators),
                           "n": 1000, "replicates": 20, "seed": seed}, fh)
            out = os.path.join(tmp, f"bench-{model}-{seed}")
            _cli(["bench", "--config", config, "--out", out])
            for file in ("summary.csv", "replicates.csv"):
                yield f"bench {model} seed {seed} {file} {_file_sha1(os.path.join(out, file))}"


def fit_lines():
    p, n = 10, 19384
    shape = np.linspace(-0.5, 2.0, p)
    data = ContinuousDataset(np.random.default_rng(21).dirichlet(np.full(p, 1.5), size=n))
    z = sqrt_transform(data)
    for kind in KINDS:
        weight = WeightSpec(kind, cap_from_quantile(z, kind, 0.9) if "capped" in kind else 1.0)
        fit = fit_hybrid(data, shape, weight, estimate_linear=True)
        yield f"fit_hybrid p {p} {kind} {_sha1(fit.estimates.tobytes() + fit.cov_scaled.tobytes())}"
    latent = np.random.default_rng(22).dirichlet(np.full(p, 3.0), size=2000)
    counts = CountDataset(np.random.default_rng(23).multinomial(1000, latent))
    yield f"fit_from_counts p {p} {_sha1(fit_from_counts(counts, shape).estimates.tobytes())}"
    ws = build_workspace_from_moments(EmpiricalMoments(data.proportions), shape=shape)
    system = ws.gram.tobytes() + ws.linear_term.tobytes()
    yield f"empirical moments p {p} {_sha1(system + solve(ws, with_se=False).estimates.tobytes())}"
    for p in (16, 20):
        data = ContinuousDataset(np.random.default_rng(p).dirichlet(np.full(p, 2.0), size=12288))
        z = sqrt_transform(data)
        for kind in KINDS:
            weight = WeightSpec(kind, cap_from_quantile(z, kind, 0.9) if "capped" in kind else 1.0)
            fit = fit_hybrid(data, np.zeros(p), weight, estimate_linear=True)
            yield f"fit_hybrid p {p} {kind} {_sha1(fit.estimates.tobytes() + fit.cov_scaled.tobytes())}"


def dirichlet_fit_lines():
    for p, n, seed, conc in ((10, 19384, 21, 1.5), (20, 12288, 20, 2.0)):
        data = ContinuousDataset(np.random.default_rng(seed).dirichlet(np.full(p, conc), size=n))
        z = sqrt_transform(data)
        for kind in KINDS:
            weight = WeightSpec(kind, cap_from_quantile(z, kind, 0.9) if "capped" in kind else 1.0)
            fit = fit_dirichlet(data, weight)
            yield f"fit_dirichlet p {p} {kind} {_sha1(fit.estimates.tobytes() + fit.cov_scaled.tobytes())}"


def moment_fit_lines(tmp):
    table = str(resources.files("compscore").joinpath("data/synthetic_microbiome_counts.csv"))
    config = os.path.join(tmp, "moment.json")
    with open(config, "w") as fh:
        json.dump({"schema_version": 1, "family": "dirichlet", "data_kind": "counts"}, fh)
    out = os.path.join(tmp, "moment")
    _cli(["fit", "--data", table, "--config", config, "--estimator", "moment", "--out", out])
    yield f"fit moment fit.json {_file_sha1(os.path.join(out, 'fit.json'))}"


def indefinite_draw_lines():
    spec = ModelSpec(family="truncated-gaussian", p=3, interaction=np.diag([1.0, -1.0]),
                     linear=[0.5, -0.5])
    for seed in (0, 7):
        data, stats = sample_model(spec, 5000, RngConfig(seed), return_stats=True)
        digest = _sha1(data.proportions.tobytes() + json.dumps(stats.to_dict(), sort_keys=True).encode())
        yield f"indefinite truncated-gaussian seed {seed} {digest}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        lines = (*preset_lines(), *simulate_lines(tmp), *pipeline_lines(tmp), *bench_lines(tmp),
                 *fit_lines(), *dirichlet_fit_lines(), *moment_fit_lines(tmp),
                 *indefinite_draw_lines())
        for line in lines:
            print(line)


if __name__ == "__main__":
    main()
