"""Samplers: reproducibility, support constraints, distributional
oracles (1-d quadrature, exact moments), and failure modes."""

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from _oracles import chunked_hybrid_reference
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
    spec = ModelSpec(
        family="truncated-gaussian",
        p=3,
        interaction=(-500.0 * np.eye(2)),
        linear=[5000.0, 5000.0],  # untruncated mean (5, 5), far outside
    )
    with pytest.raises(InfeasibleTruncationError):
        sample_truncated_gaussian(spec, 100, RngConfig(2))


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
    chunks) and TGAUSS3 (three chunks), each with its RejectionStats."""
    model1 = registry.get("model1").spec
    return (
        sample_hybrid(model1, 100_000, RngConfig(12), initial_envelope=0.05),
        sample_model(TGAUSS3, 20_000, RngConfig(13), return_stats=True),
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
