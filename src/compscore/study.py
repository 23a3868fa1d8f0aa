"""Replicated simulation studies over the preset models.

A study draws R independent datasets from a registry entry, runs the
requested estimators on each, and reports per-parameter bias, spread,
RMSE and relative bias against the generating values. Replicate r uses
substream r of the study seed, so studies are reproducible. Replicates
run one after another; the parallelism lives in the samplers' proposal
chunks and in BLAS.

Estimator roster (weights use the entry's presets unless overridden):

1. capped-min weight, closed form
2. capped-product weight, closed form
3. product weight, closed form
4. min weight, closed form
5. factorial-moment route (count data, product weight)
6. Dirichlet moment matching (baseline, Dirichlet family only)

Discrete entries are thinned to counts; estimators 1-4 then run on the
observed proportions x/m while estimator 5 consumes the counts directly.
"""

from dataclasses import dataclass, field

import numpy as np

from . import registry
from .core import counts_to_proportions, index_map
from .errors import CompscoreError, ConfigError, StudyFailureError
from .fitting import fit_dirichlet, fit_dirichlet_moments, fit_hybrid
from .moments import fit_from_counts
from .samplers import RngConfig, sample_model, sample_multinomial_counts
from .weights import WeightSpec

__all__ = ["StudyConfig", "StudySummary", "CellSummary", "run_study"]

ESTIMATOR_IDS = (1, 2, 3, 4, 5, 6)
_WEIGHT_KINDS = {1: "capped-min", 2: "capped-product", 3: "product", 4: "min"}
MAX_FAILURE_RATE = 0.20


@dataclass(frozen=True)
class StudyConfig:
    """What to simulate and how often.

    totals applies only to discrete entries (None keeps the preset).
    cap_min / cap_product override the entry's cap presets.
    """

    model: str
    estimators: tuple = (1,)
    n: int = 1000
    replicates: int = 100
    seed: int = 0
    totals: int = None
    cap_min: float = None
    cap_product: float = None
    ridge: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(int(e) for e in self.estimators))
        if not self.estimators:
            raise ConfigError("at least one estimator is required")
        bad = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if bad:
            raise ConfigError(f"unknown estimator id(s) {bad}; valid: 1..6")
        if self.replicates < 2:
            raise ConfigError("a study needs at least 2 replicates")
        if self.n < 1:
            raise ConfigError("n must be positive")
        if self.ridge < 0:
            raise ConfigError("ridge must be nonnegative")


@dataclass
class CellSummary:
    truth: float
    mean: float
    bias: float
    se: float
    rmse: float
    rbias: float
    n_ok: int


@dataclass
class StudySummary:
    """Per-(estimator, parameter) summaries plus raw replicate arrays.

    Spread (se) is the population standard deviation over successful
    replicates, so rmse**2 == se**2 + bias**2 holds to rounding.
    replicate_estimates[e] is (R, k) with NaN rows for failed fits.
    """

    config: StudyConfig
    labels: list
    truth: np.ndarray
    cells: dict = field(default_factory=dict)
    se_quantiles: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    replicate_estimates: dict = field(default_factory=dict)
    replicate_se: dict = field(default_factory=dict)

    def cell(self, estimator, label):
        return self.cells[(int(estimator), label)]

    def to_rows(self):
        rows = []
        for (est, label), c in sorted(self.cells.items(), key=lambda kv: (kv[0][0], self.labels.index(kv[0][1]))):
            qs = self.se_quantiles.get((est, label), (None, None, None))
            rows.append(
                {
                    "estimator": est,
                    "parameter": label,
                    "truth": c.truth,
                    "mean": c.mean,
                    "bias": c.bias,
                    "se": c.se,
                    "rmse": c.rmse,
                    "rbias": c.rbias,
                    "n_ok": c.n_ok,
                    "se_est_p5": qs[0],
                    "se_est_p50": qs[1],
                    "se_est_p95": qs[2],
                }
            )
        return rows


def _roster(entry, config):
    """Per-estimator fit callables returning (estimates, se or None)."""
    spec = entry.spec
    dirichlet = spec.family == "dirichlet"
    caps = {
        "capped-min": config.cap_min if config.cap_min is not None else entry.cap_min,
        "capped-product": config.cap_product
        if config.cap_product is not None
        else entry.cap_product,
    }

    def closed_form(est):
        kind = _WEIGHT_KINDS[est]
        weight = WeightSpec(kind, caps[kind]) if kind in caps else WeightSpec(kind)
        if dirichlet:
            def run(latent, counts, udata):
                res = fit_dirichlet(udata, weight, ridge=config.ridge)
                return res.estimates, res.standard_errors
        else:
            def run(latent, counts, udata):
                res = fit_hybrid(
                    udata,
                    spec.shape,
                    weight,
                    estimate_interaction=spec.estimate_interaction,
                    estimate_linear=spec.estimate_linear,
                    ridge=config.ridge,
                )
                return res.estimates, res.standard_errors
        return run

    def factorial(latent, counts, udata):
        res = fit_from_counts(
            counts,
            spec.shape,
            estimate_interaction=spec.estimate_interaction,
            estimate_linear=spec.estimate_linear,
            ridge=config.ridge,
        )
        return res.estimates, None

    def moment(latent, counts, udata):
        res = fit_dirichlet_moments(udata)
        return res.estimates, None

    roster = {}
    for est in config.estimators:
        if est in _WEIGHT_KINDS:
            roster[est] = closed_form(est)
        elif est == 5:
            if dirichlet:
                raise ConfigError(
                    "estimator 5 needs polynomial statistics; "
                    "the dirichlet family has logarithmic ones"
                )
            if not entry.discrete:
                raise ConfigError("estimator 5 needs count data (a discrete entry)")
            roster[est] = factorial
        else:
            if not dirichlet:
                raise ConfigError("estimator 6 is a dirichlet-family baseline")
            roster[est] = moment
    return roster


def _truth(entry):
    spec = entry.spec
    if spec.family == "dirichlet":
        labels = [f"shape{j+1}" for j in range(spec.p)]
        return labels, spec.shape.copy()
    imap = index_map(spec.p)
    mask = spec.estimation_mask(imap)
    labels = [imap.labels[i] for i in np.flatnonzero(mask)]
    return labels, spec.true_theta(imap)[mask]


def run_study(config):
    """Run the study and summarize. Fit failures are excluded and
    counted; a failure rate above 20% for any estimator aborts."""
    entry = registry.get(config.model)
    spec = entry.spec
    if config.totals is not None and not entry.discrete:
        raise ConfigError(f"{entry.name} is continuous; totals do not apply")
    totals = config.totals if config.totals is not None else entry.default_totals
    roster = _roster(entry, config)
    labels, truth = _truth(entry)
    k = len(labels)
    nrep = config.replicates

    base = RngConfig(config.seed)
    estimates = {e: np.full((nrep, k), np.nan) for e in roster}
    se_store = {e: np.full((nrep, k), np.nan) for e in roster}
    messages = {e: [] for e in roster}

    for r in range(nrep):
        rng = base.substream(r)
        latent = sample_model(spec, config.n, rng.substream(0))
        counts = None
        udata = latent
        if entry.discrete:
            counts = sample_multinomial_counts(latent, totals, rng.substream(1))
            udata = counts_to_proportions(counts)
        for est, run in roster.items():
            try:
                est_vec, se_vec = run(latent, counts, udata)
            except CompscoreError as exc:
                messages[est].append(f"replicate {r}: {exc}")
                continue
            estimates[est][r] = est_vec
            if se_vec is not None:
                se_store[est][r] = se_vec

    summary = StudySummary(config=config, labels=labels, truth=truth)
    for est in roster:
        ok = ~np.isnan(estimates[est][:, 0])
        n_ok = int(ok.sum())
        n_fail = nrep - n_ok
        summary.failures[est] = n_fail
        if n_fail > MAX_FAILURE_RATE * nrep:
            detail = "; ".join(messages[est][:3])
            raise StudyFailureError(
                f"estimator {est} failed on {n_fail}/{nrep} replicates: {detail}"
            )
        vals = estimates[est][ok]
        mean = vals.mean(axis=0)
        bias = mean - truth
        se = vals.std(axis=0, ddof=0)
        rmse = np.sqrt(np.mean((vals - truth) ** 2, axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            rbias = np.where(se > 0, bias / se, np.nan)
        for i, lab in enumerate(labels):
            summary.cells[(est, lab)] = CellSummary(
                truth=float(truth[i]),
                mean=float(mean[i]),
                bias=float(bias[i]),
                se=float(se[i]),
                rmse=float(rmse[i]),
                rbias=float(rbias[i]),
                n_ok=n_ok,
            )
        ses = se_store[est][ok]
        if not np.isnan(ses).all():
            for i, lab in enumerate(labels):
                col = ses[:, i]
                col = col[~np.isnan(col)]
                if col.size:
                    p5, p50, p95 = np.percentile(col, [5, 50, 95])
                    summary.se_quantiles[(est, lab)] = (
                        float(p5),
                        float(p50),
                        float(p95),
                    )
        summary.replicate_estimates[est] = estimates[est]
        summary.replicate_se[est] = se_store[est]
    return summary
