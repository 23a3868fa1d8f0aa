"""Samplers: reproducibility, support constraints, distributional
oracles (1-d quadrature, exact moments), and failure modes."""

import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.stats import ks_2samp

from _oracles import chunked_hybrid_reference, diagonal_truncated_gaussian_reference
from compscore import registry, samplers
from compscore.core import ContinuousDataset, ModelSpec
from compscore.errors import (
    DataError,
    EnvelopeFailureError,
    FamilyError,
    InfeasibleTruncationError,
)
from compscore.samplers import (
    CHUNK,
    RngConfig,
    sample_dirichlet,
    sample_hybrid,
    sample_model,
    sample_multinomial_counts,
    sample_truncated_gaussian,
)


def test_rng_config_reproducible_streams():
    rng = RngConfig(5)
    a = rng.generator().uniform(size=4)
    b = rng.generator().uniform(size=4)
    np.testing.assert_array_equal(a, b)
    # substreams are independent of the parent and of each other
    s0 = rng.substream(0).generator().uniform(size=4)
    s1 = rng.substream(1).generator().uniform(size=4)
    assert not np.allclose(a, s0) and not np.allclose(s0, s1)
    # nested paths are deterministic
    np.testing.assert_array_equal(
        rng.substream(2).substream(3).generator().uniform(size=4),
        RngConfig(5, (2, 3)).generator().uniform(size=4),
    )


TGAUSS3 = ModelSpec(
    family="truncated-gaussian",
    p=3,
    interaction=[[-26.3678, 5.9598], [5.9598, -35.8885]],
    estimate_linear=False,
)


def test_truncated_gaussian_support_and_determinism():
    data = sample_truncated_gaussian(TGAUSS3, 500, RngConfig(1))
    u = data.proportions
    assert u.shape == (500, 3)
    assert np.all(u >= 0.0)
    np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)
    again = sample_truncated_gaussian(TGAUSS3, 500, RngConfig(1))
    np.testing.assert_array_equal(u, again.proportions)
    with pytest.raises(FamilyError):
        sample_truncated_gaussian(ModelSpec(family="dirichlet", p=3), 10, RngConfig(0))
    with pytest.raises(DataError):
        sample_truncated_gaussian(TGAUSS3, 0, RngConfig(0))


def test_truncated_gaussian_mean_against_quadrature():
    """For p = 2 the first coordinate has density proportional to
    exp(a r^2 + b r) on [0, 1]; its mean is a 1-d integral."""
    a11, b1 = -20.0, 6.0
    spec = ModelSpec(
        family="truncated-gaussian", p=2, interaction=[[a11]], linear=[b1]
    )
    num = integrate.quad(lambda r: r * np.exp(a11 * r * r + b1 * r), 0.0, 1.0)[0]
    den = integrate.quad(lambda r: np.exp(a11 * r * r + b1 * r), 0.0, 1.0)[0]
    draws = sample_truncated_gaussian(spec, 200_000, RngConfig(11)).proportions[:, 0]
    mc_se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - num / den) < 4.0 * mc_se


def test_infeasible_truncation_fails_fast():
    """A mean far outside the simplex leaves the Gaussian proposal no
    mass there. At p=3 the scaled Dirichlet still serves the target,
    which hugs the face u_3 = 0; at p=10 its mass sits in a small ball
    of that face, which no proposal reaches."""
    near = ModelSpec(
        family="truncated-gaussian",
        p=3,
        interaction=(-500.0 * np.eye(2)),
        linear=[5000.0, 5000.0],  # untruncated mean (5, 5), far outside
    )
    data, stats = sample_model(near, 100, RngConfig(2), return_stats=True)
    assert stats.proposal == "scaled-dirichlet" and stats.envelope_updates == 0
    assert np.all(data.proportions[:, 2] < 0.01)
    far = ModelSpec(
        family="truncated-gaussian",
        p=10,
        interaction=(-5000.0 * np.eye(9)),
        linear=[50000.0] * 9,  # untruncated mean 5 in every coordinate
    )
    with pytest.raises(InfeasibleTruncationError):
        sample_truncated_gaussian(far, 100, RngConfig(2))


def _force_proposal(monkeypatch, name):
    """Make the truncated-Gaussian sampler use the named proposal."""

    def pick(*key):
        return next(c for c in samplers._tg_candidates(*key) if c.name == name)

    monkeypatch.setattr(samplers, "_tg_proposal", pick)


def test_proposal_choice_and_certified_envelopes():
    """The closed-form choice gives the Gaussian to the concentrated
    model4 and model5 and the scaled Dirichlet to model3 (and so to
    model15, its thinned twin) and model6. Both envelopes are certified,
    so over 50 seeds the envelope never rises."""
    want = {"model3": "scaled-dirichlet", "model4": "gaussian", "model5": "gaussian",
            "model6": "scaled-dirichlet", "model15": "scaled-dirichlet"}
    for name, proposal in want.items():
        spec = registry.get(name).spec
        _, stats = sample_model(spec, 200, RngConfig(0), return_stats=True)
        key = (spec.p, spec.interaction.tobytes(), spec.linear.tobytes())
        assert stats.proposal == proposal
        assert stats.log_bound == min(c.log_bound for c in samplers._tg_candidates(*key))
    for name in ("model3", "model6"):
        spec = registry.get(name).spec
        for seed in range(50):
            _, stats = sample_model(spec, 1000, RngConfig(seed), return_stats=True)
            assert stats.envelope_updates == 0 and stats.envelope_trace == [1.0]


def test_sampling_imports_no_scipy():
    """The proposal choice and both rejection samplers run on numpy
    alone: importing scipy.optimize would add about 43 MB of resident
    memory to every study."""
    code = (
        "import sys\n"
        "from compscore import registry\n"
        "from compscore.samplers import RngConfig, sample_model\n"
        "for name in ('model1', 'model3', 'model4', 'model6'):\n"
        "    sample_model(registry.get(name).spec, 200, RngConfig(0))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(samplers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_model6_matches_independent_truncated_normals():
    """model6's interaction is diagonal, so the oracle draws its
    coordinates independently by inverse CDF and rejects rows that sum
    above 1. Every marginal of 2e5 sampler draws passes a two-sample KS
    test against 2e5 oracle draws (Bonferroni level 0.01 over the 10)."""
    spec = registry.get("model6").spec
    n = 200_000
    got = sample_model(spec, n, RngConfig(21)).proportions
    want = diagonal_truncated_gaussian_reference(spec, n, np.random.default_rng(22))
    pvals = [ks_2samp(got[:, j], want[:, j], method="asymp").pvalue for j in range(spec.p)]
    assert min(pvals) > 0.001, pvals


def test_both_proposals_agree_on_model3(monkeypatch):
    """model3's interaction is not diagonal. Forced to either proposal,
    the sampler draws 2e5 rows whose marginals pass a two-sample KS test
    against each other. Each acceptance rate times its envelope constant
    estimates the same normalising constant Z, so the envelopes are
    exact, not merely bounds: the two estimates agree to 1% (four
    binomial standard errors)."""
    n = 200_000
    draws, log_z = {}, {}
    for i, name in enumerate(("gaussian", "scaled-dirichlet")):
        _force_proposal(monkeypatch, name)
        data, stats = sample_model(TGAUSS3, n, RngConfig(23 + i), return_stats=True)
        assert stats.proposal == name and stats.envelope_updates == 0
        draws[name] = data.proportions
        log_z[name] = np.log(stats.acceptance_rate) + stats.log_bound
    pvals = [ks_2samp(draws["gaussian"][:, j], draws["scaled-dirichlet"][:, j],
                      method="asymp").pvalue for j in range(3)]
    assert min(pvals) > 0.0033, pvals
    assert abs(log_z["gaussian"] - log_z["scaled-dirichlet"]) < 0.01


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_log_ratio_bound_is_certified_and_tight(data):
    """For random negative-definite A, b and lam, the bound on
    f(u) = u'Au + b'u + p log(lam'u) over the simplex is at least f at
    every vertex and at 20000 scaled-Dirichlet proposals, and within
    1e-8 of the best of scipy's SLSQP from five starts."""
    p = data.draw(st.integers(2, 10), label="p")
    k = p - 1
    eig = np.array(data.draw(st.lists(st.floats(0.5, 40.0), min_size=k, max_size=k), label="eig"))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    basis = np.linalg.qr(gen.standard_normal((k, k)))[0]
    a = np.zeros((p, p))
    a[:k, :k] = -(basis * eig) @ basis.T
    b = np.zeros(p)
    b[:k] = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k), label="linear")
    lam = np.exp(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p), label="loglam"))
    bound, _ = samplers._log_ratio_bound(a, b, lam)

    def f(u):
        return np.einsum("...i,ij,...j->...", u, a, u) + u @ b + p * np.log(u @ lam)

    w = gen.standard_exponential((20_000, p)) / lam
    sampled = f(w / w.sum(axis=1, keepdims=True))
    vertices = np.diag(a) + b + p * np.log(lam)
    assert sampled.max() <= bound and vertices.max() <= bound
    best = vertices.max()
    for start in [np.full(p, 1.0 / p)] + list(gen.dirichlet(np.ones(p), size=4)):
        res = optimize.minimize(
            lambda x: -f(x), start, method="SLSQP", bounds=[(0.0, 1.0)] * p,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        x = np.clip(res.x, 0.0, None)
        best = max(best, f(x / x.sum()))
    assert best <= bound <= best + 1e-8


def test_dirichlet_means():
    shape = np.array([1.0, 0.0, 3.0])
    data = sample_dirichlet(shape, 50_000, RngConfig(3))
    truth = (shape + 1.0) / (shape + 1.0).sum()
    se = data.proportions.std(axis=0) / np.sqrt(data.n)
    assert np.all(np.abs(data.proportions.mean(axis=0) - truth) < 4.0 * se)
    # spec form draws the same stream
    spec = ModelSpec(family="dirichlet", p=3, shape=shape)
    np.testing.assert_array_equal(
        sample_dirichlet(spec, 100, RngConfig(4)).proportions,
        sample_dirichlet(shape, 100, RngConfig(4)).proportions,
    )
    with pytest.raises(FamilyError):
        sample_dirichlet(TGAUSS3, 10, RngConfig(0))
    with pytest.raises(FamilyError):
        sample_dirichlet(np.array([-1.5, 0.0]), 10, RngConfig(0))


def test_hybrid_flat_energy_accepts_everything():
    """With A = 0 and b = 0 the density ratio is identically 1, so the
    envelope never updates and every post-warmup proposal is kept: one
    proposal batch covers the request."""
    spec = ModelSpec(family="hybrid", p=3, shape=[0.5, -0.2, 1.0])
    data, stats = sample_hybrid(spec, 3000, RngConfig(6), warmup=0)
    assert data.n == 3000
    assert stats.envelope == 1.0
    assert stats.envelope_updates == 0
    assert stats.envelope_trace == [1.0]
    # a single batch sized for a 25% rate guess satisfies n when
    # everything is accepted
    assert stats.attempted <= int(3000 / 0.25 * 1.2) + 64


def test_hybrid_envelope_growth_and_determinism():
    spec = ModelSpec(
        family="hybrid",
        p=3,
        interaction=[[-63602.0, 15145.0], [15145.0, -5694.0]],
        shape=[-0.75, -0.75, -0.75],
    )
    data, stats = sample_hybrid(spec, 800, RngConfig(7))
    assert data.n == 800
    trace = np.array(stats.envelope_trace)
    assert np.all(np.diff(trace) > 0)  # the envelope only grows
    assert stats.envelope == trace[-1]
    assert 0.0 < stats.acceptance_rate < 1.0
    again, stats2 = sample_hybrid(spec, 800, RngConfig(7))
    np.testing.assert_array_equal(data.proportions, again.proportions)
    assert stats2.envelope_trace == stats.envelope_trace


def test_hybrid_unbounded_energy_fails():
    # positive curvature pushes the density ratio past any envelope
    spec = ModelSpec(
        family="hybrid", p=3, interaction=[[4000.0, 0.0], [0.0, 0.0]]
    )
    with pytest.raises(EnvelopeFailureError) as err:
        sample_hybrid(spec, 1000, RngConfig(8))
    trace = err.value.trace
    assert len(trace) >= 2 and trace[-1] > trace[0]


def test_sample_model_dispatch():
    rng = RngConfig(9)
    np.testing.assert_array_equal(
        sample_model(TGAUSS3, 50, rng).proportions,
        sample_truncated_gaussian(TGAUSS3, 50, rng).proportions,
    )
    dspec = ModelSpec(family="dirichlet", p=3, shape=[1.0, 2.0, 0.5])
    np.testing.assert_array_equal(
        sample_model(dspec, 50, rng).proportions,
        sample_dirichlet(dspec, 50, rng).proportions,
    )
    data, stats = sample_model(dspec, 50, rng, return_stats=True)
    assert stats is None
    data, stats = sample_model(TGAUSS3, 50, rng, return_stats=True)
    np.testing.assert_array_equal(
        data.proportions, sample_truncated_gaussian(TGAUSS3, 50, rng).proportions
    )
    assert stats.accepted == 50 and stats.attempted >= 50
    assert stats.envelope == 1.0 and stats.envelope_updates == 0
    assert stats.envelope_trace == [1.0]
    hspec = ModelSpec(family="hybrid", p=3, shape=[0.0, 0.0, 0.0])
    data, stats = sample_model(hspec, 50, rng, return_stats=True)
    assert stats is not None and stats.accepted == 50


def _draw_both_samplers():
    """model1 with a low starting envelope (several updates, about 170
    chunks) and TGAUSS3 (four chunks), each with its RejectionStats."""
    model1 = registry.get("model1").spec
    return (
        sample_hybrid(model1, 100_000, RngConfig(12), initial_envelope=0.05),
        sample_model(TGAUSS3, 30_000, RngConfig(13), return_stats=True),
    )


def test_draws_do_not_depend_on_the_worker_count(monkeypatch):
    reference = _draw_both_samplers()
    hybrid_stats = reference[0][1]
    assert hybrid_stats.envelope_updates >= 3
    assert hybrid_stats.attempted > 100 * CHUNK
    assert reference[1][1].attempted > 2 * CHUNK
    for workers in (1, 3):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            monkeypatch.setattr(samplers, "_pool", pool)
            got = _draw_both_samplers()
        for (data, stats), (want, want_stats) in zip(got, reference):
            np.testing.assert_array_equal(data.proportions, want.proportions)
            assert stats == want_stats  # envelope trace included


def test_chunks_read_their_own_streams():
    """With a flat energy and no warm-up every proposal is kept, so the
    output is the chunks in order: chunk c is the start of
    rng.substream(c), and no two chunks repeat a draw."""
    shape = np.array([0.5, -0.2, 1.0])
    spec = ModelSpec(family="hybrid", p=3, shape=shape)
    rng = RngConfig(14)
    data, stats = sample_hybrid(spec, 3 * CHUNK, rng, warmup=0)
    u = data.proportions
    for c in range(3):
        gen = rng.substream(c).generator()
        chunk = ContinuousDataset(gen.dirichlet(shape + 1.0, size=CHUNK))
        np.testing.assert_array_equal(u[c * CHUNK : (c + 1) * CHUNK], chunk.proportions)
    assert np.unique(u, axis=0).shape[0] == u.shape[0]
    tg = sample_truncated_gaussian(TGAUSS3, 20_000, RngConfig(15)).proportions
    assert np.unique(tg, axis=0).shape[0] == tg.shape[0]


def test_concurrent_callers_share_one_pool(monkeypatch):
    """Callers on several threads create the chunk pool once and still
    get the draws a lone caller gets."""
    want = sample_truncated_gaussian(TGAUSS3, 20_000, RngConfig(16)).proportions
    created = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(samplers, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(samplers, "_pool", None)
    start = threading.Barrier(4)

    def call():
        start.wait(timeout=30)
        return sample_truncated_gaussian(TGAUSS3, 20_000, RngConfig(16)).proportions

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            results = [f.result(timeout=120) for f in [callers.submit(call) for _ in range(4)]]
    finally:
        sys.setswitchinterval(interval)
        for pool in created:
            pool.shutdown()
    assert len(created) == 1
    for got in results:
        np.testing.assert_array_equal(got, want)


def _sample_in_child():
    sample_truncated_gaussian(TGAUSS3, 20_000, RngConfig(17))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_its_own_pool():
    """A child forked after the pool exists inherits none of its threads;
    it must start its own pool rather than wait on the parent's."""
    sample_truncated_gaussian(TGAUSS3, 20_000, RngConfig(17))
    assert samplers._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_sample_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_prefilter_matches_unfiltered_reference(data):
    """The workers' prefilter drops only proposals that can neither be
    kept nor raise the envelope: sample_hybrid equals the row-by-row loop
    over every proposal, bit for bit, envelope trace included. A 40000-row
    warm-up ends inside the third chunk."""
    p = data.draw(st.integers(3, 5), label="p")
    k = p - 1
    eig = np.array(data.draw(st.lists(st.floats(0.5, 40.0), min_size=k, max_size=k), label="eig"))
    basis = np.linalg.qr(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((k, k)))[0]
    spec = ModelSpec(
        family="hybrid",
        p=p,
        interaction=-(basis * eig) @ basis.T,
        linear=data.draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k), label="linear"),
        shape=data.draw(st.lists(st.floats(-0.9, 2.0), min_size=p, max_size=p), label="shape"),
    )
    n = data.draw(st.integers(200, 3000), label="n")
    warmup = data.draw(st.sampled_from([0, 1000, 40_000]), label="warmup")
    envelope = data.draw(st.sampled_from([0.5, 1.0]), label="initial_envelope")
    rng = RngConfig(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    got, stats = sample_hybrid(spec, n, rng, warmup=warmup, initial_envelope=envelope)
    rows, attempted, trace = chunked_hybrid_reference(
        spec, n, rng, warmup=warmup, initial_envelope=envelope
    )
    np.testing.assert_array_equal(got.proportions, ContinuousDataset(rows).proportions)
    assert stats.attempted == attempted
    assert stats.envelope_trace == trace
    assert stats.envelope_updates == len(trace) - 1


def test_multinomial_counts_moments():
    """Thinning a constant composition is an exact multinomial, so the
    count means and variances follow m u and m u (1 - u)."""
    u = np.array([0.5, 0.3, 0.2])
    latent = ContinuousDataset(np.tile(u, (20_000, 1)))
    counts = sample_multinomial_counts(latent, 50, RngConfig(10))
    np.testing.assert_array_equal(counts.totals, 50)
    np.testing.assert_array_equal(counts.counts.sum(axis=1), 50)
    mean = counts.counts.mean(axis=0)
    var = counts.counts.var(axis=0)
    se = np.sqrt(50 * u * (1 - u) / 20_000)
    assert np.all(np.abs(mean - 50 * u) < 5.0 * se)
    np.testing.assert_allclose(var, 50 * u * (1 - u), rtol=0.05)


def test_multinomial_counts_edge_cases():
    latent = ContinuousDataset([[0.0, 0.4, 0.6], [0.5, 0.5, 0.0]], names=["a", "b", "c"])
    counts = sample_multinomial_counts(latent, [10, 20], RngConfig(11))
    assert counts.counts[0, 0] == 0  # zero latent mass never thins to counts
    assert counts.counts[1, 2] == 0
    np.testing.assert_array_equal(counts.totals, [10, 20])
    assert counts.names == ["a", "b", "c"]
    with pytest.raises(DataError):
        sample_multinomial_counts(latent, 0, RngConfig(0))
    # deterministic under a fixed stream
    c2 = sample_multinomial_counts(latent, [10, 20], RngConfig(11))
    np.testing.assert_array_equal(counts.counts, c2.counts)
