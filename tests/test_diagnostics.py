"""Diagnostics: grid rounding, two-sample KS wrapper, and the
simulate-and-compare marginal report."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from _oracles import pooled_ks_statistic
from compscore._kolmogorov import ks_2samp, kstwo_sf
from compscore.core import ContinuousDataset, ModelSpec
from compscore import diagnostics
from compscore.diagnostics import (
    ks_compare,
    marginal_report,
    round_to_grid,
)
from compscore.errors import ConfigError
from compscore.samplers import RngConfig, sample_dirichlet


def test_round_to_grid_hand_values():
    # 0.0123 * 2000 = 24.6 rounds up to 25 counts
    assert round_to_grid(0.0123, 2000) == pytest.approx(0.0125)
    np.testing.assert_allclose(
        round_to_grid(np.array([0.0, 1.0, 0.2501]), 2000), [0.0, 1.0, 0.25]
    )


def test_round_to_grid_halves_away_from_zero():
    # 2.5 counts round to 3, where round-to-even would give 2
    assert round_to_grid(0.25, 10) == pytest.approx(0.3)
    assert np.round(0.25 * 10) == 2.0
    with pytest.raises(ConfigError):
        round_to_grid(0.5, 0)


def test_round_to_grid_support():
    rng = np.random.default_rng(1)
    u = rng.dirichlet(np.ones(4), size=100)
    snapped = round_to_grid(u, 50)
    counts = snapped * 50
    np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)


def test_ks_compare_extremes():
    same = np.linspace(0.1, 0.9, 40)
    res = ks_compare(same, same)
    assert res.statistic == 0.0
    assert res.pvalue == pytest.approx(1.0)
    assert res.ties  # pooled sample duplicates every value
    apart = ks_compare(same, same + 10.0)
    assert apart.statistic == 1.0
    assert apart.pvalue < 1e-6
    assert not apart.ties
    with pytest.raises(ConfigError):
        ks_compare(same, np.array([]))


def test_marginal_report_self_model():
    """Data simulated from the fitted model itself should look like the
    model: large KS p-values, matching means and spreads."""
    spec = ModelSpec(family="dirichlet", p=3, shape=[1.0, 2.5, 0.0])
    observed = sample_dirichlet(spec, 2000, RngConfig(12))
    report = marginal_report(observed, spec, RngConfig(13), n_sim=20_000)
    assert report.n_observed == 2000 and report.n_simulated == 20_000
    assert report.grid_totals is None
    for cat in report.categories:
        assert cat.ks_pvalue > 1e-4
        assert not cat.degenerate
        assert not cat.ties  # continuous marginals
        assert cat.observed_mean == pytest.approx(cat.simulated_mean, abs=0.02)
        assert cat.observed_sd == pytest.approx(cat.simulated_sd, rel=0.15)


def test_marginal_report_grid_and_qq():
    spec = ModelSpec(family="dirichlet", p=3, shape=[2.0, 2.0, 2.0])
    observed = sample_dirichlet(spec, 500, RngConfig(14))
    report = marginal_report(
        observed, spec, RngConfig(15), n_sim=4000, grid_totals=100, qq_points=21
    )
    assert report.grid_totals == 100
    for cat in report.categories:
        assert cat.ties  # grid support forces ties
    for name in ("c1", "c2", "c3"):
        obs_q, sim_q = report.qq[name]
        assert obs_q.shape == (21,) and sim_q.shape == (21,)
        assert np.all(np.diff(obs_q) >= 0) and np.all(np.diff(sim_q) >= 0)
        # simulated quantiles live on the grid
        np.testing.assert_allclose(sim_q * 100, np.round(sim_q * 100), atol=1e-9)


def test_marginal_report_refuses_grid_totals_before_drawing(monkeypatch):
    """A grid total below 1 is refused before any row is drawn, not after
    the whole simulation."""

    def no_draws(*args, **kwargs):
        raise AssertionError("sample_model was called")

    monkeypatch.setattr(diagnostics, "sample_model", no_draws)
    spec = ModelSpec(family="dirichlet", p=3, shape=[1.0, 1.0, 1.0])
    observed = ContinuousDataset(np.random.default_rng(18).dirichlet(np.ones(3), size=20))
    for bad in (0, -3):
        with pytest.raises(ConfigError, match="grid totals must be at least 1"):
            marginal_report(observed, spec, RngConfig(19), grid_totals=bad)


def test_marginal_report_degenerate_category():
    rng = np.random.default_rng(16)
    u1 = rng.uniform(0.1, 0.4, size=50)
    observed = ContinuousDataset(np.column_stack([np.full(50, 0.5), u1, 0.5 - u1]))
    spec = ModelSpec(family="dirichlet", p=3, shape=[1.0, 1.0, 1.0])
    report = marginal_report(observed, spec, RngConfig(17), n_sim=2000)
    degenerate = {c.name: c.degenerate for c in report.categories}
    assert degenerate == {"c1": True, "c2": False, "c3": False}


def test_marginal_report_dimension_check():
    observed = sample_dirichlet(np.zeros(3), 100, RngConfig(18))
    spec4 = ModelSpec(family="dirichlet", p=4, shape=np.zeros(4))
    with pytest.raises(ConfigError, match="number of categories"):
        marginal_report(observed, spec4, RngConfig(19), n_sim=100)


def test_report_serialization():
    spec = ModelSpec(family="dirichlet", p=3, shape=[0.5, 0.5, 0.5])
    observed = sample_dirichlet(spec, 300, RngConfig(20))
    report = marginal_report(observed, spec, RngConfig(21), n_sim=1000, qq_points=5)
    doc = report.to_dict()
    assert doc["n_observed"] == 300
    assert {c["name"] for c in doc["categories"]} == {"c1", "c2", "c3"}
    for c in doc["categories"]:
        for key in (
            "ks_statistic",
            "ks_pvalue",
            "ties",
            "observed_mean",
            "observed_sd",
            "simulated_mean",
            "simulated_sd",
            "degenerate",
        ):
            assert key in c
    assert len(doc["qq"]["c1"]["observed"]) == 5


def _agrees(ours, ref, n):
    """The port's p-value against scipy's: to 1e-12 relative for
    n <= 1000 and to 1e-10 up to n = 1e5. Below 1e-300 both are
    subnormal or zero and scipy's own digits vary."""
    if math.isnan(ref):
        return math.isnan(ours)
    if ref < 1e-300:
        return ours < 1e-299
    return abs(ours - ref) <= (1e-12 if n <= 1000 else 1e-10) * ref


def _size(data, lo, hi, label):
    """An integer in [lo, hi] within a factor 2 of a drawn scale, so that
    every order of magnitude comes up."""
    scales = [t for t in (3, 10, 30, 100, 140, 300, 1000, 3000, 10_000, 30_000) if lo < t < hi]
    scale = data.draw(st.sampled_from([lo, *scales, hi]), label=f"{label} scale")
    return data.draw(st.integers(max(lo, scale // 2), scale), label=label)


# scipy warns on its way to NaN for m = n = 1, where round(mn / (m + n)) = 0
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_ks_compare_matches_scipy(data):
    """ks_compare against scipy.stats.ks_2samp(..., method="asymp") over
    sample sizes, shifts and spreads, with and without a count grid that
    ties the samples: the statistic has scipy's bits and the p-value
    agrees within the bands of _agrees."""
    small = _size(data, 1, 200_000, "smaller size")
    m, n = small, _size(data, small, 200_000, "larger size")
    if data.draw(st.booleans(), label="swap"):
        m, n = n, m
    shift = data.draw(st.floats(-3.0, 3.0), label="shift")
    spread = data.draw(st.floats(0.2, 5.0), label="spread")
    grid = data.draw(st.sampled_from([None, 4, 50, 2000]), label="grid")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = gen.standard_normal(m)
    b = shift + spread * gen.standard_normal(n)
    if grid is not None:
        a, b = round_to_grid(a, grid), round_to_grid(b, grid)
    ours = ks_compare(a, b)
    ref = stats.ks_2samp(a, b, method="asymp")
    assert ours.statistic == float(ref.statistic)
    big, small = max(m, n), min(m, n)
    assert _agrees(ours.pvalue, float(ref.pvalue), round(big * small / (big + small)))


# sample sizes from one element up, with small ones common
_KS_SIZES = st.sampled_from([1, 2, 3]) | st.integers(1, 50) | st.integers(50, 5000)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=_KS_SIZES, n=_KS_SIZES, grid=st.sampled_from([None, 1, 4, 50]),
       shift=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_ks_statistic_matches_pooled_oracle(m, n, grid, shift, seed):
    """ks_2samp evaluates F_a - F_b at a's points and then at b's, not on
    the pooled array: its statistic equals the pooled formula's bit for
    bit, in either argument order, for unequal sizes, one-element
    samples and grid-valued samples with ties."""
    gen = np.random.default_rng(seed)
    a = gen.standard_normal(m)
    b = shift + gen.standard_normal(n)
    if grid is not None:
        a, b = round_to_grid(a, grid), round_to_grid(b, grid)
    for x, y in ((a, b), (b, a), (a, a)):
        assert ks_2samp(x, y)[0] == pooled_ks_statistic(x, y)


# Regions of (n, x) for each method of kstwo_sf, from the cut-offs of
# Simard and L'Ecuyer's algorithm as scipy applies them: the range of n,
# then the open range of x for a given n.
KSTWO_BRANCHES = {
    "ruben-gambino-low": ((1, 100_000), lambda n: (0.5 / n, 1.0 / n)),
    "ruben-gambino-high": ((3, 100_000), lambda n: ((n - 1) / n, 1.0)),
    "smirnov-half": ((3, 100_000), lambda n: (0.5, (n - 1) / n)),
    "durbin": ((3, 140), lambda n: (1.0 / n, min(math.sqrt(0.754693 / n), 0.5))),
    "pomeranz": ((4, 140), lambda n: (math.sqrt(0.754693 / n), min(math.sqrt(4.0 / n), 0.5))),
    "smirnov-to-140": ((17, 140), lambda n: (math.sqrt(4.0 / n), 0.5)),
    "durbin-above-140": ((141, 100_000),
                         lambda n: (1.0 / n, min((1.4 / n) ** (2 / 3), math.sqrt(2.2 / n)))),
    "pelz-good": ((141, 100_000), lambda n: ((1.4 / n) ** (2 / 3), math.sqrt(2.2 / n))),
    "smirnov-above-140": ((141, 100_000),
                          lambda n: (math.sqrt(2.2 / n), min(math.sqrt(370.0 / n), 0.5))),
    "zero-above-140": ((141, 100_000), lambda n: (math.sqrt(370.0 / n), 0.5)),
}
SMIRNOV_BRANCHES = {"smirnov-half", "smirnov-to-140", "smirnov-above-140"}


@pytest.mark.parametrize("branch", sorted(KSTWO_BRANCHES))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_kstwo_sf_matches_scipy_in_every_branch(branch, data):
    """In every method's region the port agrees with scipy.stats.kstwo.sf:
    bit for bit where the method is scipy's code, within the bands of
    _agrees in the Birnbaum-Tingey sum that replaces scipy.special.smirnov."""
    (n_lo, n_hi), x_range = KSTWO_BRANCHES[branch]
    n = _size(data, n_lo, n_hi, "n")
    lo, hi = x_range(n)
    x = lo + data.draw(st.floats(0.0, 1.0), label="fraction") * (hi - lo)
    # off the cut-offs by more than their rounding, which may fall either way
    assume(lo * (1 + 1e-9) < x < hi * (1 - 1e-9))
    ours, ref = kstwo_sf(x, n), float(stats.kstwo.sf(x, n))
    if branch in SMIRNOV_BRANCHES:
        assert _agrees(ours, ref, n), (ours, ref)
    else:
        assert ours == ref, (ours, ref)
