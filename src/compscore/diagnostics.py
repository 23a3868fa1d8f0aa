"""Fit diagnostics: simulate from a fitted model and compare marginals.

The workflow mirrors how count data are actually inspected: simulate a
large sample from the fitted model, round it onto the observed count
grid, and compare each category's marginal against the data with a
two-sample Kolmogorov-Smirnov statistic and a mean/spread table. A
Dirichlet fitted by moment matching reproduces means; when the data are
overdispersed its simulated spreads fall well short of the observed
ones, which is the signature the report is designed to show.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import ContinuousDataset
from .errors import ConfigError
from .samplers import RejectionStats, sample_model

__all__ = [
    "CategoryDiagnostic",
    "DiagnosticReport",
    "round_to_grid",
    "ks_compare",
    "marginal_report",
]


def round_to_grid(proportions, totals):
    """Round proportions to multiples of 1/totals, halves away from zero.

    numpy's round() goes to even and would map a half-count down half
    the time, so the grid is computed as floor(u * m + 0.5) / m.
    """
    u = np.asarray(proportions, dtype=float)
    m = float(totals)
    if m < 1:
        raise ConfigError("totals must be at least 1")
    return np.floor(u * m + 0.5) / m


@dataclass
class KsResult:
    statistic: float
    pvalue: float
    ties: bool


def ks_compare(observed, simulated):
    """Two-sample KS comparison with the asymptotic p-value, as
    scipy.stats.ks_2samp(..., method="asymp") gives it (see _kolmogorov).

    Returns a KsResult; ties notes whether any value occurs more than
    once in the pooled sample, since the asymptotic null assumes
    continuous marginals and grid-valued data always have ties.
    """
    a = np.asarray(observed, dtype=float).ravel()
    b = np.asarray(simulated, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ConfigError("both samples must be non-empty")
    # imported on first use: only diagnose needs it, and where no bytecode
    # is cached its compile adds about 5 ms to `import compscore`
    from ._kolmogorov import ks_2samp

    statistic, pvalue = ks_2samp(a, b)
    pooled = np.concatenate([a, b])
    ties = np.unique(pooled).size < pooled.size
    return KsResult(statistic, pvalue, bool(ties))


@dataclass
class CategoryDiagnostic:
    name: str
    ks_statistic: float
    ks_pvalue: float
    ties: bool
    observed_mean: float
    observed_sd: float
    simulated_mean: float
    simulated_sd: float
    degenerate: bool


@dataclass
class DiagnosticReport:
    categories: list
    n_observed: int
    n_simulated: int
    grid_totals: int = None
    qq: dict = field(default_factory=dict)
    # the simulation's rejection statistics (None for exact Dirichlet
    # draws); kept out of to_dict, so a report's payload is the same on reruns
    rejection: RejectionStats = None

    def category(self, name):
        for c in self.categories:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {
            "n_observed": int(self.n_observed),
            "n_simulated": int(self.n_simulated),
            "grid_totals": None if self.grid_totals is None else int(self.grid_totals),
            "categories": [asdict(c) for c in self.categories],
            "qq": {
                name: {"observed": list(map(float, o)), "simulated": list(map(float, s))}
                for name, (o, s) in self.qq.items()
            },
        }


def marginal_report(observed, fitted_spec, rng, n_sim=100_000, grid_totals=None, qq_points=0):
    """Simulate from fitted_spec and compare every marginal to the data.

    grid_totals, when given, rounds the simulated proportions onto the
    1/grid_totals grid so both samples live on the same support.
    Categories whose observed column is constant are flagged degenerate
    instead of producing meaningless comparisons.
    """
    if not isinstance(observed, ContinuousDataset):
        observed = ContinuousDataset(observed)
    if fitted_spec.p != observed.p:
        raise ConfigError("fitted model and data disagree on the number of categories")
    sim, rejection = sample_model(fitted_spec, int(n_sim), rng, return_stats=True)
    sim = sim.proportions
    if grid_totals is not None:
        sim = round_to_grid(sim, grid_totals)

    obs = observed.proportions
    cats = []
    qq = {}
    for j, name in enumerate(observed.names):
        ocol = obs[:, j]
        scol = sim[:, j]
        degenerate = bool(np.ptp(ocol) == 0.0)
        ks = ks_compare(ocol, scol)
        cats.append(
            CategoryDiagnostic(
                name=name,
                ks_statistic=ks.statistic,
                ks_pvalue=ks.pvalue,
                ties=ks.ties,
                observed_mean=float(ocol.mean()),
                observed_sd=float(ocol.std(ddof=1)) if ocol.size > 1 else 0.0,
                simulated_mean=float(scol.mean()),
                simulated_sd=float(scol.std(ddof=1)),
                degenerate=degenerate,
            )
        )
        if qq_points:
            probs = (np.arange(int(qq_points)) + 0.5) / int(qq_points)
            qq[name] = (np.quantile(ocol, probs), np.quantile(scol, probs))
    return DiagnosticReport(
        categories=cats,
        n_observed=observed.n,
        n_simulated=int(n_sim),
        grid_totals=grid_totals,
        qq=qq,
        rejection=rejection,
    )
