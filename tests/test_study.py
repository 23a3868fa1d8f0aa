"""The replicated simulation-study harness: summary identities,
reproducibility per seed, estimator compatibility, and failure
accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compscore import study
from compscore.errors import ConfigError, SingularSystemError, StudyFailureError
from compscore.study import StudyConfig, run_study


def test_config_validation():
    with pytest.raises(ConfigError, match="at least one estimator"):
        StudyConfig(model="model3", estimators=())
    with pytest.raises(ConfigError, match="unknown estimator"):
        StudyConfig(model="model3", estimators=(7,))
    with pytest.raises(ConfigError, match="replicates"):
        StudyConfig(model="model3", replicates=1)
    with pytest.raises(ConfigError, match="n must be"):
        StudyConfig(model="model3", n=0)
    with pytest.raises(ConfigError, match="ridge"):
        StudyConfig(model="model3", ridge=-0.5)
    with pytest.raises(ConfigError, match="unknown model"):
        run_study(StudyConfig(model="model99", replicates=2))
    # integer fields take integers and integral floats, as JSON writes 1e3
    config = StudyConfig(model="model3", n=1e3, estimators=[2.0, np.int64(3)], seed=np.int32(4))
    assert (config.n, config.estimators, config.seed) == (1000, (2, 3), 4)
    assert all(type(v) is int for v in (config.n, *config.estimators, config.seed))
    # float fields take numbers; true and "0.5" are refused, not run as 1.0 and 0.5
    config = StudyConfig(model="model3", ridge=1, cap_min=np.float64(0.5))
    assert (config.ridge, config.cap_min) == (1.0, 0.5) and type(config.ridge) is float
    # test_cli's test_config_rejections runs 1000.7, true, [1.5], 3.9, ridge true and cap "0.5"
    for bad in ({"n": "50"}, {"n": float("nan")}, {"replicates": 2.5}, {"totals": 1e400},
                {"ridge": True}, {"cap_min": "0.5"}, {"cap_product": float("nan")}):
        with pytest.raises(ConfigError, match="does not convert to"):
            StudyConfig(model="model3", **bad)


def test_summary_identity_and_rows():
    summary = run_study(
        StudyConfig(model="model3", estimators=(1, 3), n=200, replicates=12, seed=31)
    )
    assert summary.labels == ["a11", "a22", "a12"]
    for (est, lab), cell in summary.cells.items():
        # population spread makes the decomposition exact
        assert cell.rmse**2 == pytest.approx(cell.se**2 + cell.bias**2, rel=1e-10)
        assert cell.n_ok == 12
    rows = summary.to_rows()
    assert len(rows) == 2 * 3
    assert rows[0]["estimator"] == 1 and rows[0]["parameter"] == "a11"
    for key in ("truth", "mean", "bias", "se", "rmse", "rbias", "n_ok", "se_est_p50"):
        assert key in rows[0]
    # closed-form estimators report SE quantiles
    p5, p50, p95 = summary.se_quantiles[(1, "a11")]
    assert 0 < p5 <= p50 <= p95
    cell = summary.cell(1, "a11")
    assert cell.truth == -26.3678


def test_rbias_definition():
    summary = run_study(
        StudyConfig(model="model3", estimators=(1,), n=300, replicates=10, seed=32)
    )
    cell = summary.cell(1, "a12")
    assert cell.rbias == pytest.approx(cell.bias / cell.se)


def test_reproducible():
    base = StudyConfig(model="model15", estimators=(1, 5), n=300, replicates=6, seed=33)
    s1 = run_study(base)
    s2 = run_study(base)
    for est in (1, 5):
        np.testing.assert_array_equal(
            s1.replicate_estimates[est], s2.replicate_estimates[est]
        )
    s_other = run_study(
        StudyConfig(model="model15", estimators=(1,), n=300, replicates=6, seed=34)
    )
    assert not np.array_equal(
        s1.replicate_estimates[1], s_other.replicate_estimates[1]
    )


def test_discrete_pipeline_and_se_availability():
    summary = run_study(
        StudyConfig(model="model15", estimators=(1, 5), n=400, replicates=5, seed=35)
    )
    # closed form on x/m carries plug-in SEs, the factorial route does not
    assert not np.isnan(summary.replicate_se[1]).all()
    assert np.isnan(summary.replicate_se[5]).all()
    assert (1, "a11") in summary.se_quantiles
    assert (5, "a11") not in summary.se_quantiles
    assert summary.failures == {1: 0, 5: 0}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    replicates=st.integers(1, 25),
    columns=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    nan_share=st.sampled_from([0.0, 0.1, 0.5]),
    empty=st.booleans(),
)
def test_se_quantiles_match_per_column_percentiles(replicates, columns, seed, nan_share, empty):
    """The SE quantiles of a study, one axis-0 call over the columns
    with every SE present, equal np.percentile of each column's SEs that
    are not NaN, bit for bit; a column with none gets no entry."""
    rng = np.random.default_rng(seed)
    se = rng.lognormal(-3.0, 1.0, (replicates, columns))
    se[rng.random(se.shape) < nan_share] = np.nan
    if empty:
        se[:, rng.integers(columns)] = np.nan
    got = study._se_quantiles(se)
    want = {}
    for i in range(columns):
        col = se[~np.isnan(se[:, i]), i]
        if col.size:
            want[i] = tuple(float(v) for v in np.percentile(col, [5, 50, 95]))
    assert got == want
    assert all(type(v) is float for values in got.values() for v in values)


def test_estimator_compatibility():
    with pytest.raises(ConfigError, match="count data"):
        run_study(StudyConfig(model="model3", estimators=(5,), replicates=2))
    with pytest.raises(ConfigError, match="dirichlet-family baseline"):
        run_study(StudyConfig(model="model3", estimators=(6,), replicates=2))
    with pytest.raises(ConfigError, match="polynomial statistics"):
        run_study(StudyConfig(model="model9", estimators=(5,), replicates=2))
    with pytest.raises(ConfigError, match="totals do not apply"):
        run_study(StudyConfig(model="model3", totals=500, replicates=2))


def test_dirichlet_study_with_baseline():
    summary = run_study(
        StudyConfig(model="model7", estimators=(1, 6), n=150, replicates=6, seed=36)
    )
    assert summary.labels == ["shape1", "shape2", "shape3"]
    np.testing.assert_array_equal(summary.truth, [-0.5, 0.70, 540.0])
    for est in (1, 6):
        assert summary.cell(est, "shape3").n_ok == 6


def test_overrides_change_results():
    base = StudyConfig(model="model3", estimators=(1,), n=250, replicates=4, seed=37)
    alt = StudyConfig(
        model="model3", estimators=(1,), n=250, replicates=4, seed=37, cap_min=0.5
    )
    s_base, s_alt = run_study(base), run_study(alt)
    assert not np.array_equal(
        s_base.replicate_estimates[1], s_alt.replicate_estimates[1]
    )
    # totals override applies to thinned entries
    s_tot = run_study(
        StudyConfig(model="model15", estimators=(1,), n=250, replicates=4, seed=37, totals=50)
    )
    assert s_tot.cell(1, "a11").n_ok == 4


def test_failure_accounting_aborts():
    # 5 rows cannot identify the 10-part model's 54 parameters
    with pytest.raises(StudyFailureError, match="estimator 1 failed on 5/5"):
        run_study(StudyConfig(model="model6", estimators=(1,), n=5, replicates=5, seed=38))


def _failing_fit_hybrid(monkeypatch, fail_calls):
    """Make the study's fit_hybrid raise on the given (0-based) calls."""
    real = study.fit_hybrid
    calls = []

    def fit(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 in fail_calls:
            raise SingularSystemError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(study, "fit_hybrid", fit)


def test_partial_failures_leave_nan_rows(monkeypatch):
    config = StudyConfig(model="model3", estimators=(1,), n=200, replicates=10, seed=39)
    clean = run_study(config)
    _failing_fit_hybrid(monkeypatch, {2, 7})
    summary = run_study(config)
    assert summary.failures == {1: 2}
    est, se = summary.replicate_estimates[1], summary.replicate_se[1]
    failed = np.isnan(est).all(axis=1)
    np.testing.assert_array_equal(np.flatnonzero(failed), [2, 7])
    assert np.isnan(se[failed]).all() and not np.isnan(se[~failed]).any()
    # fits draw no random numbers, so the other replicates match a clean run
    np.testing.assert_array_equal(est[~failed], clean.replicate_estimates[1][~failed])
    ok = est[~failed]
    mean, spread = ok.mean(axis=0), ok.std(axis=0)
    for i, lab in enumerate(summary.labels):
        cell = summary.cell(1, lab)
        assert cell.n_ok == 8
        assert (cell.mean, cell.se) == (mean[i], spread[i])


def test_failures_above_rate_name_first_three(monkeypatch):
    _failing_fit_hybrid(monkeypatch, {1, 4, 6})
    config = StudyConfig(model="model3", estimators=(1,), n=200, replicates=10, seed=39)
    with pytest.raises(StudyFailureError) as exc:
        run_study(config)
    assert str(exc.value) == (
        "estimator 1 failed on 3/10 replicates: "
        "replicate 1: forced; replicate 4: forced; replicate 6: forced"
    )
