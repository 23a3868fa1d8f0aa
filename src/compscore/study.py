"""Replicated simulation studies over the preset models.

A study draws R independent datasets from a registry entry, runs the
requested estimators on each, and reports per-parameter bias, spread,
RMSE and relative bias against the generating values, with quantiles
of the plug-in standard errors (see _se_quantiles). Replicate r uses
substream r of the study seed, so studies are reproducible. Replicates
run one after another; the parallelism lives in the samplers' proposal
chunks and in BLAS.

Estimator roster (weights use the entry's presets unless overridden):

1. continuous route, capped-min weight
2. continuous route, capped-product weight
3. continuous route, product weight
4. continuous route, min weight
5. factorial route (count data, product weight; not the Dirichlet family)
6. moment route (Dirichlet moment matching, a Dirichlet-family baseline)

Discrete entries are thinned to counts; estimators 1-4 then run on the
observed proportions x/m while estimator 5 consumes the counts directly.
check_route and fit_route below are the one home of these routes, for
studies and for `compscore fit` alike.
"""

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import registry
from .core import FAMILY_DIRICHLET, counts_to_proportions, index_map
from .errors import CompscoreError, ConfigError, StudyFailureError
from .fitting import fit_dirichlet, fit_dirichlet_moments, fit_hybrid
from .moments import fit_from_counts
from .samplers import RngConfig, sample_model, sample_multinomial_counts
from .weights import WeightSpec

__all__ = ["StudyConfig", "StudySummary", "CellSummary", "check_route", "fit_route", "run_study"]

# estimator id -> (route, weight kind); see check_route for the routes
_ROUTES = {
    1: ("continuous", "capped-min"),
    2: ("continuous", "capped-product"),
    3: ("continuous", "product"),
    4: ("continuous", "min"),
    5: ("factorial", None),
    6: ("moment", None),
}
MAX_FAILURE_RATE = 0.20


def _cast(value, kind):
    """value as kind, int or float, if it is a number that kind holds
    exactly (JSON writes 1e3 for 1000). int() would truncate 2.5, float()
    would take the string "0.5", and both would take True as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or kind(value) != value:
        raise ValueError(value)
    return kind(value)


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
        # configs arrive as parsed JSON: cast each number field, or reject it
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            try:
                if f.type is tuple:
                    value = tuple(_cast(e, int) for e in value)
                elif f.type in (int, float):
                    value = _cast(value, f.type)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(
                    f"study {f.name} {value!r} does not convert to {f.type.__name__}"
                ) from None
            object.__setattr__(self, f.name, value)
        if not self.estimators:
            raise ConfigError("at least one estimator is required")
        bad = [e for e in self.estimators if e not in _ROUTES]
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
        """One dict per cell, by estimator then parameter; the keys are
        the columns of summary.csv."""
        rows = []
        for est, label in sorted(self.cells, key=lambda k: (k[0], self.labels.index(k[1]))):
            p5, p50, p95 = self.se_quantiles.get((est, label), (None, None, None))
            rows.append({"estimator": est, "parameter": label, **vars(self.cells[est, label]),
                         "se_est_p5": p5, "se_est_p50": p50, "se_est_p95": p95})
        return rows


def check_route(family, route, have_counts):
    """Raise ConfigError unless `route` can fit `family` on this data.

    Routes: "continuous" (closed form on proportions, any family),
    "factorial" (factorial moments of counts, hybrid and
    truncated-Gaussian families) and "moment" (the Dirichlet
    moment-matching baseline).
    """
    if route == "factorial":
        if family == FAMILY_DIRICHLET:
            raise ConfigError(
                "the factorial route needs polynomial statistics; "
                "the dirichlet family has logarithmic ones"
            )
        if not have_counts:
            raise ConfigError("the factorial route needs count data")
    elif route == "moment" and family != FAMILY_DIRICHLET:
        raise ConfigError("the moment route is a dirichlet-family baseline")


def fit_route(spec, route, data, counts, weight, ridge):
    """Fit spec's free parameters by a route that check_route passed.

    data holds the proportions and counts the count table, which only
    the factorial route reads; the factorial and moment routes ignore
    weight. result.config["family"] is spec.family.
    """
    options = dict(
        estimate_interaction=spec.estimate_interaction,
        estimate_linear=spec.estimate_linear,
        ridge=ridge,
    )
    if route == "moment":
        result = fit_dirichlet_moments(data)
    elif spec.family == FAMILY_DIRICHLET:
        result = fit_dirichlet(data, weight, ridge=ridge)
    elif route == "factorial":
        result = fit_from_counts(counts, spec.shape, **options)
    else:
        result = fit_hybrid(data, spec.shape, weight, **options)
    result.config["family"] = spec.family
    return result


def _roster(entry, config):
    """Estimator id -> (route, weight), with the entry's cap presets
    unless the config overrides them."""
    caps = {"capped-min": config.cap_min, "capped-product": config.cap_product}
    roster = {}
    for est in config.estimators:
        route, kind = _ROUTES[est]
        check_route(entry.spec.family, route, entry.discrete)
        weight = None
        if kind is not None:
            cap = caps.get(kind)
            weight = entry.weight(kind) if cap is None else WeightSpec(kind, cap)
        roster[est] = (route, weight)
    return roster


def _truth(entry):
    spec = entry.spec
    if spec.family == FAMILY_DIRICHLET:
        labels = [f"shape{j+1}" for j in range(spec.p)]
        return labels, spec.shape.copy()
    imap = index_map(spec.p)
    mask = spec.estimation_mask(imap)
    labels = [imap.labels[i] for i in np.flatnonzero(mask)]
    return labels, spec.true_theta(imap)[mask]


def _se_quantiles(se):
    """{column: (p5, p50, p95)} over each column's SEs that are not NaN, none
    for an all-NaN column; one axis-0 call serves the columns without NaN."""
    have = ~np.isnan(se)
    quantiles = np.percentile(se, [5, 50, 95], axis=0)
    for i in np.flatnonzero(have.any(axis=0) & ~have.all(axis=0)):
        quantiles[:, i] = np.percentile(se[have[:, i], i], [5, 50, 95])
    return {i: tuple(quantiles[:, i].tolist()) for i in np.flatnonzero(have.any(axis=0))}


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
        for est, (route, weight) in roster.items():
            try:
                res = fit_route(spec, route, udata, counts, weight, config.ridge)
            except CompscoreError as exc:
                messages[est].append(f"replicate {r}: {exc}")
                continue
            estimates[est][r] = res.estimates
            if res.standard_errors is not None:
                se_store[est][r] = res.standard_errors

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
        stats = np.stack([truth, mean, bias, se, rmse, rbias], axis=1)
        for i, lab in enumerate(labels):
            summary.cells[(est, lab)] = CellSummary(*map(float, stats[i]), n_ok=n_ok)
        quantiles = _se_quantiles(se_store[est][ok])
        summary.se_quantiles.update({(est, labels[i]): q for i, q in quantiles.items()})
        summary.replicate_estimates[est] = estimates[est]
        summary.replicate_se[est] = se_store[est]
    return summary
