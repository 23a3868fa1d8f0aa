"""Moment providers and the count-data estimation route: exact
factorial-moment identities, equality with the direct continuous build,
small-total row exclusion, and agreement with the polynomial oracle in
_oracles (the expanded estimator and the entry-by-entry assembly)."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ExpandedFactorialMoments, polynomial_workspace
from compscore.core import CountDataset, sqrt_transform
from compscore.errors import ConfigError, InsufficientTotalsError
from compscore.fitting import build_workspace, fit_hybrid, solve
from compscore.moments import (
    EmpiricalMoments,
    FactorialMoments,
    _falling,
    build_workspace_from_moments,
    fit_from_counts,
)
from compscore.samplers import (
    RngConfig,
    sample_model,
    sample_multinomial_counts,
)
from compscore.core import ModelSpec
from compscore.weights import WeightSpec


def test_falling_factorial_hand_values():
    x = np.array([5.0, 3.0, 1.0, 0.0])
    np.testing.assert_array_equal(_falling(x, 0), [1, 1, 1, 1])
    np.testing.assert_array_equal(_falling(x, 1), x)
    np.testing.assert_array_equal(_falling(x, 2), [20, 6, 0, 0])
    np.testing.assert_array_equal(_falling(x, 3), [60, 6, 0, 0])


def test_factorial_moments_exact_binomial_expectation():
    """With rows enumerating the Binomial(2, 1/2) outcomes at their
    exact multiplicities, sample averages equal expectations, so the
    factorial estimates must hit the latent moments of u = (1/2, 1/2)
    exactly: E u1 = 1/2, E u1^2 = 1/4, and the expansion through the
    last coordinate must agree."""
    counts = CountDataset([[0, 2], [1, 1], [1, 1], [2, 0]])
    fac = FactorialMoments(counts)
    assert fac.monomial_mean((1, 0)) == pytest.approx(0.5)
    assert fac.monomial_mean((2, 0)) == pytest.approx(0.25)
    assert fac.monomial_mean((0, 1)) == pytest.approx(0.5)
    assert fac.monomial_mean((0, 2)) == pytest.approx(0.25)
    assert fac.monomial_mean((1, 1)) == pytest.approx(0.25)
    assert fac.monomial_mean((0, 0)) == pytest.approx(1.0)


def test_factorial_moments_are_unbiased():
    """Monte Carlo check on a fixed latent composition: the estimator
    averaged over many multinomial draws lands on the latent monomial
    within Monte Carlo error, at totals far too small for plug-in x/m
    moments to do so."""
    u = np.array([0.3, 0.5, 0.2])
    m = 6
    rng = np.random.default_rng(19)
    x = rng.multinomial(m, u, size=40_000)
    fac = FactorialMoments(CountDataset(x))
    for alpha, truth in (
        ((2, 0, 0), u[0] ** 2),
        ((1, 1, 0), u[0] * u[1]),
        ((2, 1, 0), u[0] ** 2 * u[1]),
        ((1, 0, 2), u[0] * u[2] ** 2),
    ):
        est = fac.monomial_mean(alpha)
        assert est == pytest.approx(truth, abs=0.01)
        # the plug-in moment is visibly biased at m = 6
        plug = np.mean(np.prod((x / m) ** np.array(alpha), axis=1))
        if sum(alpha) > 1:
            assert abs(plug - truth) > 3 * abs(est - truth)


def test_empirical_provider_equals_direct_build():
    """Routing the product-weight system through empirical monomial
    means must reproduce the direct continuous assembly to rounding."""
    for p in (3, 5, 10):
        rng = np.random.default_rng(20)
        u = rng.dirichlet(np.ones(p) * 0.8, size=500)
        shape = np.resize([-0.5, 0.2, 0.0], p)
        ws_m = build_workspace_from_moments(EmpiricalMoments(u), shape=shape)
        ws_d = build_workspace(sqrt_transform(u), WeightSpec("product"), shape=shape)
        for field in ("gram", "linear_term"):
            got, want = getattr(ws_m, field), getattr(ws_d, field)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (p, field)
        assert ws_m.z is None and ws_m.n == 500


def test_factorial_workspace_near_latent_one():
    spec = ModelSpec(
        family="truncated-gaussian",
        p=3,
        interaction=[[-26.3678, 5.9598], [5.9598, -35.8885]],
        estimate_linear=False,
    )
    rng = RngConfig(21)
    latent = sample_model(spec, 4000, rng.substream(0))
    counts = sample_multinomial_counts(latent, 1000, rng.substream(1))
    ws_lat = build_workspace_from_moments(EmpiricalMoments(latent.proportions))
    ws_fac = build_workspace_from_moments(FactorialMoments(counts))
    scale = np.abs(ws_lat.gram).max()
    assert np.abs(ws_fac.gram - ws_lat.gram).max() < 0.02 * scale
    dscale = np.abs(ws_lat.linear_term).max()
    assert np.abs(ws_fac.linear_term - ws_lat.linear_term).max() < 0.02 * dscale


def test_small_totals_excluded_per_degree():
    counts = CountDataset([[1, 0], [0, 1], [3, 2], [2, 2]])
    fac = FactorialMoments(counts)
    # degree 2 drops the two m = 1 rows: mean of x1(x1-1)/(m(m-1))
    est = fac.monomial_mean((2, 0))
    assert est == pytest.approx(0.5 * (6.0 / 20.0 + 2.0 / 12.0))
    assert fac.exclusions == {2: 2}
    # degree 1 keeps every row
    est1 = fac.monomial_mean((1, 0))
    assert est1 == pytest.approx(np.mean([1.0, 0.0, 0.6, 0.5]))
    assert 1 not in fac.exclusions


def test_exclusions_logged_once_per_degree(caplog):
    """One log line for each degree that newly excludes rows, none when a
    call repeats or reaches only degrees already logged."""
    counts = CountDataset([[1, 0], [0, 1], [3, 2], [2, 2], [5, 0]])  # totals 1, 1, 5, 4, 5
    fac = FactorialMoments(counts)
    caplog.set_level(logging.INFO, logger="compscore.moments")

    def logged(table):
        caplog.clear()
        fac.means(table)
        return [record.getMessage() for record in caplog.records]

    line = "factorial moments of degree %d exclude %d row(s) with small totals"
    assert logged([[2, 0]]) == [line % (2, 2)]
    # degrees 0 to 3 and 3 to 5: 2 is logged already, degree 1 keeps every row
    assert logged([[0, 3], [3, 2]]) == [line % (3, 2), line % (4, 2), line % (5, 3)]
    assert logged([[0, 3], [3, 2]]) == []
    assert logged([[2, 0], [1, 0]]) == []
    assert fac.exclusions == {2: 2, 3: 2, 4: 2, 5: 3}


def test_insufficient_totals():
    counts = CountDataset([[1, 0], [0, 1]])
    fac = FactorialMoments(counts)
    with pytest.raises(InsufficientTotalsError) as err:
        fac.monomial_mean((2, 0))
    assert err.value.degree == 2


def test_provider_validation():
    fac = FactorialMoments(CountDataset([[2, 3]]))
    with pytest.raises(ConfigError, match="length"):
        fac.monomial_mean((1, 0, 0))
    with pytest.raises(ConfigError, match="nonnegative"):
        fac.monomial_mean((-1, 2))
    emp = EmpiricalMoments(np.array([[0.5, 0.5]]))
    with pytest.raises(ConfigError, match="length"):
        emp.monomial_mean((1,))
    assert emp.requested() == []
    emp.monomial_mean((1, 0))
    assert emp.requested() == [(1, 0)]


@pytest.mark.parametrize("kind", ["empirical", "factorial"])
def test_requested_is_the_sorted_union_of_the_tables(kind):
    """requested() lists every monomial passed to means once, in order,
    and keeps its own copy of each table; at p = 10 a workspace asks for
    the C(13, 4) = 715 distinct entries of S."""
    rng = np.random.default_rng(41)

    def provider(p):
        counts = rng.multinomial(50, np.full(p, 1.0 / p), size=30)
        if kind == "empirical":
            return EmpiricalMoments(counts / 50.0)
        return FactorialMoments(CountDataset(counts))

    three = provider(3)
    first = np.array([[2, 0, 1], [1, 1, 1]])
    three.means(first)
    three.means(np.array([[1, 1, 1], [0, 0, 2], [1, 1, 1]]))
    first[0] = 0
    assert three.requested() == [(0, 0, 2), (1, 1, 1), (2, 0, 1)]
    ten = provider(10)
    build_workspace_from_moments(ten)
    assert len(ten.requested()) == 715


def test_moment_workspace_validation():
    emp = EmpiricalMoments(np.array([[0.5, 0.5], [0.4, 0.6]]))
    with pytest.raises(ConfigError, match="shape vector length"):
        build_workspace_from_moments(emp, shape=[0.0])
    with pytest.raises(ConfigError, match="exceed -1"):
        build_workspace_from_moments(emp, shape=[-2.0, 0.0])
    ws = build_workspace_from_moments(emp)
    with pytest.raises(ConfigError, match="moments only"):
        solve(ws, with_se=True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_workspace_builders_reject_shapes_not_finite_above_minus_one(bad):
    u = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
    shape = [bad, 0.0, 0.0]
    with pytest.raises(ConfigError, match="finite and exceed -1"):
        build_workspace(sqrt_transform(u), WeightSpec("product"), shape=shape)
    with pytest.raises(ConfigError, match="finite and exceed -1"):
        build_workspace_from_moments(EmpiricalMoments(u), shape=shape)


def test_fit_from_counts_matches_continuous_at_large_totals():
    """At huge totals x/m is essentially the latent composition, so the
    factorial route and the continuous product-weight fit agree."""
    spec = ModelSpec(
        family="truncated-gaussian",
        p=3,
        interaction=[[-26.3678, 5.9598], [5.9598, -35.8885]],
        estimate_linear=False,
    )
    rng = RngConfig(22)
    latent = sample_model(spec, 2000, rng.substream(0))
    counts = sample_multinomial_counts(latent, 200_000, rng.substream(1))
    fit_fac = fit_from_counts(counts, np.zeros(3))
    fit_cont = fit_hybrid(
        latent, np.zeros(3), WeightSpec("product"), with_se=False
    )
    np.testing.assert_allclose(fit_fac.estimates, fit_cont.estimates, rtol=0.05)
    assert fit_fac.standard_errors is None
    assert fit_fac.config["estimator"] == "factorial"
    assert fit_fac.config["moment_exclusions"] == {}


def test_fit_from_counts_accepts_raw_arrays():
    rng = np.random.default_rng(23)
    latent = rng.dirichlet(np.ones(3) * 2.0, size=300)
    x = np.array([rng.multinomial(500, row) for row in latent])
    fit = fit_from_counts(x, np.zeros(3))
    assert len(fit.labels) == 3  # a11, a22, a12
    assert np.all(np.isfinite(fit.estimates))


def test_factorial_means_approach_empirical_ones():
    """Factorial and plug-in x / m means are polynomials in x / m that
    differ by O(1 / m), so on the same counts their largest gap over an
    exponent table shrinks with the total m and stays below C / m with
    C = 1 (m times the gap measures about 0.21 at every m here)."""
    p = 4
    rng = np.random.default_rng(23)
    u = rng.dirichlet([0.8, 1.5, 2.0, 3.0], size=200)
    table = np.indices((3,) * p).reshape(p, -1).T  # every exponent 0 .. 2, degrees up to 8
    gaps = []
    for m in (10**2, 10**4, 10**6):
        x = rng.multinomial(m, u)
        gap = np.abs(FactorialMoments(x).means(table) - EmpiricalMoments(x / m).means(table)).max()
        assert gap < 1.0 / m
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def _small_total_counts(p, n, seed, top):
    """n rows of p counts with totals 1 .. top, so that rows drop out of
    the higher-degree moments."""
    rng = np.random.default_rng(seed)
    totals = rng.integers(1, top + 1, size=n)
    return rng.multinomial(totals, rng.dirichlet(np.ones(p)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 4, 5]), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_closed_form_matches_expanded_estimator(p, n, seed):
    """The closed form against the expansion through u_p = 1 - sum of the
    others, one reduced factorial moment at a time: same value, same
    per-degree exclusions, same degree when no row is eligible."""
    x = _small_total_counts(p, n, seed, top=8)
    for alpha in np.random.default_rng(seed + 1).integers(0, 5, size=(6, p)):
        fac, ref = FactorialMoments(x), ExpandedFactorialMoments(x)
        try:
            want = ref.monomial_mean(alpha)
        except InsufficientTotalsError as err:
            with pytest.raises(InsufficientTotalsError) as got:
                fac.monomial_mean(alpha)
            assert got.value.degree == err.degree
        else:
            assert abs(fac.monomial_mean(alpha) - want) <= 1e-13
        assert fac.exclusions == ref.exclusions


@st.composite
def _exponent_tables(draw):
    """Tables at p = 2 .. 6 of 1 to 9 rows, often with a repeated or an
    all-zero row, and mostly missing their rows' parents."""
    p = draw(st.integers(2, 6))
    row = st.lists(st.integers(0, 3), min_size=p, max_size=p)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    rows += [[0] * p] * draw(st.integers(0, 1))
    return np.array(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    table=_exponent_tables(),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    lift=st.sampled_from([0, 24]),
)
def test_product_plans_match_the_oracles(table, n, seed, lift):
    """Both providers over any exponent table, whatever its product plan
    has to add: FactorialMoments against the expanded estimator (same
    values, same per-degree exclusions, and the smallest degree that no
    row reaches) and EmpiricalMoments against the direct average."""
    p = table.shape[1]
    x = _small_total_counts(p, n, seed, top=8)
    x[0] += lift  # with the lift, one row carries every degree
    fac, ref = FactorialMoments(x), ExpandedFactorialMoments(x)
    want, short = [], []
    for alpha in table:
        try:
            want.append(ref.monomial_mean(alpha))
        except InsufficientTotalsError as err:
            short.append(err.degree)
    if short:
        with pytest.raises(InsufficientTotalsError) as got:
            fac.means(table)
        assert got.value.degree == min(short)
    else:
        assert np.abs(fac.means(table) - want).max() <= 1e-13
        assert fac.exclusions == ref.exclusions

    u = x / x.sum(axis=1, keepdims=True)
    direct = [np.mean(np.prod(u**alpha, axis=1)) for alpha in table]
    assert np.abs(EmpiricalMoments(u).means(table) - direct).max() <= 1e-13


def _close_workspace(got, want):
    for field in ("gram", "laplacian_term", "weight_gradient_term", "shape_matrix"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 4, 5]), n=st.integers(2, 20), seed=st.integers(0, 2**32 - 1))
def test_moment_workspace_matches_polynomial_oracle(p, n, seed):
    """The system read off the pair-moment matrix S against every entry written
    out as a polynomial, for both providers, with rows excluded from the
    higher-degree factorial moments."""
    x = _small_total_counts(p, n, seed, top=p + 7)
    x[0] += p + 4  # one row carries every degree up to p + 4
    shape = np.linspace(-0.5, 1.0, p)

    fac, ref = FactorialMoments(x), ExpandedFactorialMoments(x)
    _close_workspace(
        build_workspace_from_moments(fac, shape=shape),
        polynomial_workspace(ref.monomial_mean, p, n, shape),
    )
    assert fac.exclusions == ref.exclusions

    u = x / x.sum(axis=1, keepdims=True)
    _close_workspace(
        build_workspace_from_moments(EmpiricalMoments(u), shape=shape),
        polynomial_workspace(lambda a: np.mean(np.prod(u ** np.asarray(a), axis=1)), p, n, shape),
    )
