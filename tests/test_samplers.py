"""Samplers: reproducibility, support constraints, distributional
oracles (1-d quadrature, exact moments), and failure modes."""

import json
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.stats import ks_2samp

from _oracles import (
    boosted_gamma_reference,
    chunked_hybrid_reference,
    diagonal_truncated_gaussian_reference,
    dirichlet_base_hybrid_reference,
    nelder_mead_log_bound,
)
from compscore import _parallel, registry, samplers
from compscore.cli import main
from compscore.core import ContinuousDataset, ModelSpec, counts_to_proportions
from compscore.diagnostics import marginal_report
from compscore.errors import (
    ConfigError,
    DataError,
    EnvelopeFailureError,
    FamilyError,
    InfeasibleTruncationError,
)
from compscore.fitting import fit_hybrid
from compscore.io import dump_json, load_synthetic_counts, model_spec_from_fit
from compscore.samplers import (
    CHUNK,
    RngConfig,
    sample_dirichlet,
    sample_model,
    sample_multinomial_counts,
)
from compscore.weights import WeightSpec


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


def test_rng_config_takes_integers_only():
    """A seed or substream index that is a float, a bool or a string is
    refused rather than truncated, and numpy integers draw the stream of
    the same int."""
    for bad in (3.9, 3.0, True, "3", -1):
        with pytest.raises(ConfigError, match="non-negative integers"):
            RngConfig(bad)
    for bad in (1.5, False, np.float64(1.0)):
        with pytest.raises(ConfigError, match="non-negative integers"):
            RngConfig(3).substream(bad)
    np.testing.assert_array_equal(
        RngConfig(np.int64(3)).substream(np.int64(1)).generator().random(3),
        RngConfig(3).substream(1).generator().random(3),
    )


TGAUSS3 = ModelSpec(
    family="truncated-gaussian",
    p=3,
    interaction=[[-26.3678, 5.9598], [5.9598, -35.8885]],
    estimate_linear=False,
)


def test_truncated_gaussian_support_and_determinism():
    data = sample_model(TGAUSS3, 500, RngConfig(1))
    u = data.proportions
    assert u.shape == (500, 3)
    assert np.all(u >= 0.0)
    np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)
    again = sample_model(TGAUSS3, 500, RngConfig(1))
    np.testing.assert_array_equal(u, again.proportions)
    np.testing.assert_array_equal(u[:10], sample_model(TGAUSS3, np.int64(10), RngConfig(1)).proportions)


def test_draw_count_must_be_a_positive_integer():
    """Every family refuses a count of draws that is not an integer of at
    least 1, where int() would truncate 2.9 to 2 and True to 1."""
    for name in ("model3", "model4", "model7", "model1"):
        for n in (0, -3, 2.9, 2.0, True, "5", None):
            with pytest.raises(DataError, match="integer of at least 1"):
                sample_model(registry.get(name).spec, n, RngConfig(0))


def test_truncated_gaussian_draws_any_interaction():
    """The Gaussian proposal needs -A positive definite; an indefinite
    and a singular interaction have no Gaussian candidate, and draw rows
    in the simplex from the scaled Dirichlet."""
    for interaction in ([[1.0, 0.0], [0.0, -1.0]], [[-1.0, 1.0], [1.0, -1.0]]):
        spec = ModelSpec(family="truncated-gaussian", p=3, interaction=interaction)
        data, stats = sample_model(spec, 10, RngConfig(0), return_stats=True)
        assert stats.proposal == "scaled-dirichlet"
        assert np.all(data.proportions >= 0.0)
        np.testing.assert_allclose(data.proportions.sum(axis=1), 1.0, atol=1e-12)


def test_truncated_gaussian_mean_against_quadrature():
    """For p = 2 the first coordinate has density proportional to
    exp(a r^2 + b r) on [0, 1]; its mean is a 1-d integral. With a > 0
    there is no Gaussian proposal, and the scaled Dirichlet serves it."""
    for a11, b1 in ((-20.0, 6.0), (3.0, -1.0)):
        spec = ModelSpec(
            family="truncated-gaussian", p=2, interaction=[[a11]], linear=[b1]
        )
        num = integrate.quad(lambda r: r * np.exp(a11 * r * r + b1 * r), 0.0, 1.0)[0]
        den = integrate.quad(lambda r: np.exp(a11 * r * r + b1 * r), 0.0, 1.0)[0]
        draws = sample_model(spec, 200_000, RngConfig(11)).proportions[:, 0]
        mc_se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - num / den) < 4.0 * mc_se


def test_proposal_follows_the_numbers_not_the_family():
    """A zero-shape hybrid spec and a truncated-Gaussian spec with the
    same numbers reach the same cached proposal, which here is the
    Gaussian; with one nonzero shape the Gaussian is never a candidate."""
    interaction, linear = [[-40.0, 5.0], [5.0, -30.0]], [3.0, 2.0]

    def proposal(spec):
        return samplers._proposal(spec.p, spec.interaction.tobytes(), spec.linear.tobytes(),
                                  spec.shape.tobytes())

    tg = ModelSpec(family="truncated-gaussian", p=3, interaction=interaction, linear=linear)
    hybrid = ModelSpec(family="hybrid", p=3, interaction=interaction, linear=linear)
    assert proposal(hybrid) is proposal(tg)
    assert proposal(tg).name == "gaussian"
    for shape in ([0.5, 0.0, 0.0], [0.0, 0.0, 1e-17]):
        spec = ModelSpec(family="hybrid", p=3, interaction=interaction, linear=linear, shape=shape)
        assert proposal(spec).name == "scaled-dirichlet"
        assert sample_model(spec, 50, RngConfig(0), return_stats=True)[1].proposal == "scaled-dirichlet"


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
    assert stats.proposal == "scaled-dirichlet"
    assert np.all(data.proportions[:, 2] < 0.01)
    far = ModelSpec(
        family="truncated-gaussian",
        p=10,
        interaction=(-5000.0 * np.eye(9)),
        linear=[50000.0] * 9,  # untruncated mean 5 in every coordinate
    )
    with pytest.raises(InfeasibleTruncationError):
        sample_model(far, 100, RngConfig(2))


def _tg_candidates(p, interaction, linear):
    """The Gaussian and the unit-shape scaled-Dirichlet proposal for the
    truncated Gaussian with these interaction and linear bytes."""
    a_k = np.frombuffer(interaction).reshape(p - 1, p - 1)
    b_k = np.frombuffer(linear)
    return samplers._gaussian(a_k, b_k), samplers._scaled_dirichlet(a_k, b_k, np.ones(p))


def _force_proposal(monkeypatch, name):
    """Make the truncated-Gaussian sampler use the named proposal."""

    def pick(p, interaction, linear, shape):
        return next(c for c in _tg_candidates(p, interaction, linear) if c.name == name)

    monkeypatch.setattr(samplers, "_proposal", pick)


def test_proposal_choice_and_certified_envelopes():
    """The closed-form choice gives the Gaussian to the concentrated
    model4 and model5 and the scaled Dirichlet to model3 (and so to
    model15, its thinned twin) and model6; the interaction models model1
    and model2 take the scaled Dirichlet. Its envelope is certified: over
    50 seeds of 1000 proposals no log density ratio exceeds the bound."""
    want = {"model3": "scaled-dirichlet", "model4": "gaussian", "model5": "gaussian",
            "model6": "scaled-dirichlet", "model15": "scaled-dirichlet"}
    for name, proposal in want.items():
        spec = registry.get(name).spec
        _, stats = sample_model(spec, 200, RngConfig(0), return_stats=True)
        key = (spec.p, spec.interaction.tobytes(), spec.linear.tobytes())
        assert stats.proposal == proposal
        assert stats.log_bound == min(c.log_bound for c in _tg_candidates(*key))
    for name in ("model1", "model2", "model3", "model6"):
        spec = registry.get(name).spec
        proposal = samplers._proposal(spec.p, spec.interaction.tobytes(), spec.linear.tobytes(),
                                      spec.shape.tobytes())
        assert proposal.name == "scaled-dirichlet"
        alpha = spec.shape + 1.0
        a = np.pad(spec.interaction, (0, 1))  # zero last row and column
        for seed in range(50):
            w = np.random.default_rng(seed).gamma(alpha, size=(1000, spec.p)) / proposal.lam
            u = w / w.sum(axis=1, keepdims=True)
            f = (np.einsum("bi,ij,bj->b", u, a, u) + u @ np.append(spec.linear, 0.0)
                 + alpha.sum() * np.log(u @ proposal.lam))
            assert f.max() <= proposal.f_bound


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
        assert stats.proposal == name
        draws[name] = data.proportions
        log_z[name] = np.log(stats.acceptance_rate) + stats.log_bound
    pvals = [ks_2samp(draws["gaussian"][:, j], draws["scaled-dirichlet"][:, j],
                      method="asymp").pvalue for j in range(3)]
    assert min(pvals) > 0.0033, pvals
    assert abs(log_z["gaussian"] - log_z["scaled-dirichlet"]) < 0.01


def _bundled_interaction_fit(tmp_path):
    """The interaction model that `compscore fit --weight capped-min
    --ac auto:0.9` fits to the bundled table with model1's shapes."""
    table = resources.files("compscore").joinpath("data/synthetic_microbiome_counts.csv")
    config = tmp_path / "fit.json"
    config.write_text(dump_json({
        "schema_version": 1, "family": "hybrid", "data_kind": "counts",
        "shape": registry.get("model1").spec.shape.tolist(),
    }))
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(table), "--config", str(config), "--weight", "capped-min",
                 "--ac", "auto:0.9", "--out", str(out)]) == 0
    with open(out / "fit.json") as fh:
        return model_spec_from_fit(json.load(fh))


def _force_unit_scale(monkeypatch, spec):
    """Make the hybrid sampler build its proposal for spec at lam = 1,
    where a search along the gradient of log M stalls on the bundled fit.

    Its bound on max f is the bound for A- and b alone plus the constant
    max_j (A+)_jj, which also bounds u'A+u on the simplex. With the chord
    folded into b instead, b is nonzero along A-'s null direction, so at
    lam = 1 the maximiser of f lies on the face u_p = 0, which the
    interior climb only approaches: on the bundled fit it stops with a
    Frank-Wolfe gap of about 6244 and log M about 3338, a certified
    bound that keeps nothing."""
    chord = samplers._concave_split(spec.interaction)[1]
    b = np.append(spec.linear, 0.0)

    def unit_scale(a_minus, b_with_chord, alpha):
        ones = np.ones(b.size)
        return ones, samplers._log_ratio_bound(a_minus, b, ones, alpha.sum())[0] + chord.max()

    monkeypatch.setattr(samplers, "_scaled_dirichlet_scale", unit_scale)
    monkeypatch.setattr(samplers, "_proposal", samplers._proposal.__wrapped__)


def test_searched_scale_is_exact_on_the_bundled_fit(tmp_path, monkeypatch):
    """The bundled-table fit has one positive eigenvalue and b = 0, so
    its maximiser of f at lam = 1 is not unique and a search along the
    gradient of log M stalls there. The minimising scale keeps at least
    2.4% of its proposals, against 1.75% at lam = 1, and stays exact: 1e5
    rows drawn under each scale pass a two-sample KS test in every
    category (Bonferroni level 0.0167 over the 5), and the two estimates
    log(acceptance rate) + log M of log Z agree within four binomial
    standard errors."""
    spec = _bundled_interaction_fit(tmp_path)
    key = (spec.p, spec.interaction.tobytes(), spec.linear.tobytes(), spec.shape.tobytes())
    searched, stats = sample_model(spec, 100_000, RngConfig(41), return_stats=True)
    assert stats.acceptance_rate >= 0.024, stats
    _force_unit_scale(monkeypatch, spec)
    assert np.all(samplers._proposal(*key).lam == 1.0)
    unit, unit_stats = sample_model(spec, 100_000, RngConfig(42), return_stats=True)
    pvals = [ks_2samp(searched.proportions[:, j], unit.proportions[:, j], method="asymp").pvalue
             for j in range(spec.p)]
    assert min(pvals) > 0.0033, pvals
    log_z = [math.log(s.acceptance_rate) + s.log_bound for s in (stats, unit_stats)]
    se = math.sqrt(sum((1.0 - s.acceptance_rate) / s.accepted for s in (stats, unit_stats)))
    assert abs(log_z[0] - log_z[1]) < 4.0 * se, (log_z, se)


def _draw_bound_case(data, fewest_positive, largest_positive):
    """A random spec for the envelope bound tests: the number of
    positive eigenvalues of A (fewest_positive to 2, at most p - 1) and
    the (k, k) and full (p, p) A, whose other eigenvalues lie in
    [-40, -0.5], the full (p, p) b, shapes alpha in [0.05, 3], a scale
    lam and a Generator for the proposals."""
    p = data.draw(st.integers(2, 10), label="p")
    k = p - 1
    eig = -np.array(data.draw(st.lists(st.floats(0.5, 40.0), min_size=k, max_size=k), label="eig"))
    positive = data.draw(st.integers(fewest_positive, min(2, k)), label="positive")
    eig[:positive] = data.draw(st.lists(st.floats(0.05, largest_positive), min_size=positive,
                                        max_size=positive), label="positive eig")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    basis = np.linalg.qr(gen.standard_normal((k, k)))[0]
    a_k = (basis * eig) @ basis.T
    a_k = (a_k + a_k.T) / 2.0
    a = np.zeros((p, p))
    a[:k, :k] = a_k
    b = np.zeros(p)
    b[:k] = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k), label="linear")
    alpha = np.array(data.draw(st.lists(st.floats(0.05, 3.0), min_size=p, max_size=p), label="alpha"))
    lam = np.exp(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p), label="loglam"))
    return positive, a_k, a, b, alpha, lam, gen


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_log_ratio_bound_is_certified_and_tight(data):
    """For random A, b, lam and shapes alpha in [0.05, 3], the bound on
    f(u) = u'Au + b'u + P log(lam'u), P = sum(alpha), over the simplex is
    at least f at every vertex and at 20000 scaled-Dirichlet proposals
    with those shapes; so is the bound of the proposal built for that
    spec, at its own lam. A is negative definite or has one or two
    positive eigenvalues up to 5, which the split into A- and the chord
    diag(A+) covers.
    For negative-definite A the built proposal's bound is within 1e-8 of
    the best of scipy's SLSQP from five starts at its lam. At a random
    lam the maximiser may be a vertex, which the interior ascent only
    approaches, so there the bound is certified but not held to 1e-8."""
    positive, a_k, a, b, alpha, lam, gen = _draw_bound_case(data, 0, 5.0)
    p, k = alpha.size, alpha.size - 1
    total = alpha.sum()
    a_minus, chord = samplers._concave_split(a_k)
    bound = samplers._log_ratio_bound(a_minus, b + chord, lam, total)[0]

    def f(u, lam=lam):
        return np.einsum("...i,ij,...j->...", u, a, u) + u @ b + total * np.log(u @ lam)

    def proposals(lam):
        w = gen.gamma(alpha, size=(20_000, p)) / lam
        return w / w.sum(axis=1, keepdims=True)

    vertices = np.diag(a) + b + total * np.log(lam)
    assert f(proposals(lam)).max() <= bound and vertices.max() <= bound
    built = samplers._scaled_dirichlet(a_k, b[:k], alpha)
    assert f(proposals(built.lam), built.lam).max() <= built.f_bound
    assert (np.diag(a) + b + total * np.log(built.lam)).max() <= built.f_bound
    if positive:
        return
    best = (np.diag(a) + b + total * np.log(built.lam)).max()
    for start in [np.full(p, 1.0 / p)] + list(gen.dirichlet(np.ones(p), size=4)):
        res = optimize.minimize(
            lambda x: -f(x, built.lam), start, method="SLSQP", bounds=[(0.0, 1.0)] * p,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        x = np.clip(res.x, 0.0, None)
        best = max(best, f(x / x.sum(), built.lam))
    assert best <= built.f_bound <= best + 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_chord_bound_is_certified(data):
    """For random A with one or two positive eigenvalues up to 50, the
    chord c_j = (A+)_jj bounds u'A+u by c'u at the vertices and at 20000
    scaled-Dirichlet proposals. The bound on f(u) = u'Au + b'u +
    P log(lam'u) from A- with c folded into b is at least f at every
    vertex and at those proposals, both at a random lam and at the built
    proposal's own lam; and the built proposal's log M is never above the
    one that the constant max_j (A+)_jj gives at its own minimising lam."""
    _, a_k, a, b, alpha, lam, gen = _draw_bound_case(data, 1, 50.0)
    p, k = alpha.size, alpha.size - 1
    total = alpha.sum()
    a_minus, chord = samplers._concave_split(a_k)
    a_plus = a - a_minus
    assert chord[-1] == 0.0 and np.all(chord >= 0.0)

    def f(u, lam):
        return np.einsum("...i,ij,...j->...", u, a, u) + u @ b + total * np.log(u @ lam)

    def proposals(lam):
        w = gen.gamma(alpha, size=(20_000, p)) / lam
        return w / w.sum(axis=1, keepdims=True)

    u = proposals(lam)
    convex = np.einsum("bi,ij,bj->b", u, a_plus, u)
    assert np.all(convex <= u @ chord + 1e-12 * (1.0 + np.abs(chord).max()))
    bound = samplers._log_ratio_bound(a_minus, b + chord, lam, total)[0]
    assert f(u, lam).max() <= bound
    assert (np.diag(a) + b + total * np.log(lam)).max() <= bound
    built = samplers._scaled_dirichlet(a_k, b[:k], alpha.copy())
    assert f(proposals(built.lam), built.lam).max() <= built.f_bound
    assert (np.diag(a) + b + total * np.log(built.lam)).max() <= built.f_bound
    lam_const, f_const = samplers._scaled_dirichlet_scale(a_minus, b, alpha)
    log_beta = sum(math.lgamma(x) for x in alpha) - math.lgamma(total)
    const_log_bound = f_const + chord.max() + log_beta - alpha @ np.log(lam_const)
    assert built.log_bound <= const_log_bound + 1e-9 * (1.0 + abs(const_log_bound))


def test_boosted_gamma_variates():
    """Below shape 1 the proposer draws Gamma(alpha + 1) U^(1 / alpha):
    20000 such variates per shape pass a two-sample KS test against
    numpy's standard_gamma at the same shape (Bonferroni level 0.01 over
    the shapes). At shape 1 and above the rows are standard_gamma's own
    bits from the same stream (shape-1 rows come from
    standard_exponential, which standard_gamma(1.0) calls once per
    variate; a change to that delegation fails here), all-unit shapes
    included, and a mixed alpha draws the boosted rows' gamma and
    exponential variates in turn from that stream."""
    shapes = np.array([0.05, 0.15, 0.2, 0.35, 0.5, 0.8, 0.95, 0.999])
    size = 20_000
    boosted = np.empty((shapes.size, size))
    samplers._gamma_variates(RngConfig(31).generator(), shapes, boosted, np.empty(size))
    reference = RngConfig(32).generator()
    pvals = [ks_2samp(row, reference.standard_gamma(a, size), method="asymp").pvalue
             for a, row in zip(shapes, boosted)]
    assert min(pvals) > 0.01 / shapes.size, pvals
    assert np.all(boosted > 0.0)
    for plain in ([1.0, 2.5, 1.0], [1.0] * 4, [0.2, 1.0, 1.0, 2.5, 1.0]):
        got = np.empty((len(plain), size))
        samplers._gamma_variates(RngConfig(33).generator(), np.array(plain), got, np.empty(size))
        gen = RngConfig(33).generator()
        want = []
        for a in plain:
            if a < 1.0:
                boost = gen.standard_gamma(a + 1.0, size)
                want.append(boost * np.exp(gen.standard_exponential(size) * (-1.0 / a)))
            else:
                want.append(gen.standard_gamma(a, size))
        np.testing.assert_array_equal(got, want)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_scale_search_reaches_the_minimum_with_a_segment_of_maximisers(data):
    """With b = 0 and A with one positive eigenvalue, A- is singular along
    that eigenvector, so at lam = 1 f is flat along a segment of
    maximisers and r - alpha at the one the Newton steps return is no
    descent direction. The built proposal's log M is still within 1e-3
    of what Nelder-Mead on log lam finds over the same certified bound."""
    p = data.draw(st.integers(3, 8), label="p")
    k = p - 1
    eig = -np.array(data.draw(st.lists(st.floats(0.5, 40.0), min_size=k, max_size=k), label="eig"))
    eig[0] = data.draw(st.floats(0.05, 5.0), label="positive eig")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    basis = np.linalg.qr(gen.standard_normal((k, k)))[0]
    a_k = (basis * eig) @ basis.T
    a_k = (a_k + a_k.T) / 2.0
    alpha = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=p, max_size=p), label="alpha"))
    built = samplers._scaled_dirichlet(a_k, np.zeros(k), alpha.copy())
    assert built.log_bound <= nelder_mead_log_bound(a_k, np.zeros(k), alpha) + 1e-3


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
    # a raw shape is held to ModelSpec's rule, so a non-finite entry fails
    # on the shape and not later on the draws
    for bad in (np.nan, np.inf):
        with pytest.raises(FamilyError, match="finite"):
            sample_dirichlet([bad, 0.0, 0.0], 3, RngConfig(1))


def test_hybrid_flat_energy_accepts_everything():
    """With A = 0 and b = 0 the target is the Dirichlet base itself: the
    proposal keeps lam = 1, its log envelope constant is log B(alpha),
    and every proposal is kept, so one proposal batch covers the
    request."""
    shape = np.array([0.5, -0.2, 1.0])
    spec = ModelSpec(family="hybrid", p=3, shape=shape)
    data, stats = sample_model(spec, 3000, RngConfig(6), return_stats=True)
    assert data.n == 3000
    assert stats.proposal == "scaled-dirichlet"
    log_beta = sum(math.lgamma(a) for a in shape + 1.0) - math.lgamma((shape + 1.0).sum())
    assert abs(stats.log_bound - log_beta) < 1e-9
    assert stats.acceptance_rate >= 0.99
    # a single batch sized for a 25% rate guess satisfies n when
    # everything is accepted
    assert stats.attempted <= int(3000 / 0.25 * 1.2) + 64


def test_hybrid_envelope_growth_and_determinism():
    """The envelope is certified and never grows; what is left to check
    is that a seed fixes the draws and the stats."""
    spec = ModelSpec(
        family="hybrid",
        p=3,
        interaction=[[-63602.0, 15145.0], [15145.0, -5694.0]],
        shape=[-0.75, -0.75, -0.75],
    )
    data, stats = sample_model(spec, 800, RngConfig(7), return_stats=True)
    assert data.n == 800
    assert 0.0 < stats.acceptance_rate < 1.0
    again, stats2 = sample_model(spec, 800, RngConfig(7), return_stats=True)
    np.testing.assert_array_equal(data.proportions, again.proportions)
    assert stats2 == stats


def test_hybrid_unbounded_energy_fails():
    """A = 4000 (I - 11'/3) at p = 4 is positive semidefinite, so A- = 0
    and the chord is 8000/3 on the first three categories. The minimax
    dual max c'u + sum log u has u_j = 1 / (nu - c_j) with
    sum u = 1, so log M = c'u + sum log u + 4 log 4 - log 3!, about 2658.
    The target's mass sits at the first three vertices, where u'Au =
    8000/3 falls at rates 8000, 8000 and 16000/3, so log Z is about
    8000/3 + log 3 - log(8000^2 16000/3), and the acceptance rate Z / M
    is about 4e-8, far below MIN_RATE: the run fails."""
    a_k = 4000.0 * (np.eye(3) - 1.0 / 3.0)
    spec = ModelSpec(family="hybrid", p=4, interaction=a_k)
    proposal = samplers._proposal(4, spec.interaction.tobytes(), spec.linear.tobytes(),
                                  spec.shape.tobytes())
    c = 8000.0 / 3.0
    # nu solves 3 / (nu - c) + 1 / nu = 1, with nu > c
    nu = (c + 4.0 + math.sqrt((c + 4.0) ** 2 - 4.0 * c)) / 2.0
    u = np.array([1.0 / (nu - c)] * 3 + [1.0 / nu])
    log_m = c * u[:3].sum() + np.log(u).sum() + 4.0 * math.log(4.0) - math.log(6.0)
    assert abs(proposal.log_bound - log_m) < 1e-6
    with pytest.raises(EnvelopeFailureError):
        sample_model(spec, 1000, RngConfig(8))


def test_hybrid_convex_energy_samples_under_the_chord_bound():
    """A = [[4000, 0], [0, 0]] at p = 3 has A+ = A, so the constant bound
    max_j (A+)_jj = 4000 put log M at 4000 - log 2 and nothing was kept.
    The chord bound 4000 u_1 is tight at the vertex e_1, where the target's
    mass sits: with t = 1 - u_1, u'Au = 4000 - 8000 t + 4000 t^2, and given
    t, u_2 is uniform on [0, t], so t is close to Gamma(2, rate 8000), with
    mean 2.5e-4. The sampler keeps more than a tenth of its proposals,
    every row has u_1 >= 0.998 (a Gamma(2) tail of 17 e^-16 per row), and
    the mean of t is within four standard errors of 2.5e-4."""
    spec = ModelSpec(family="hybrid", p=3, interaction=[[4000.0, 0.0], [0.0, 0.0]])
    data, stats = sample_model(spec, 20_000, RngConfig(8), return_stats=True)
    assert stats.acceptance_rate > 0.1, stats
    t = 1.0 - data.proportions[:, 0]
    assert t.max() <= 0.002
    se = math.sqrt(2.0) / 8000.0 / math.sqrt(t.size)
    assert abs(t.mean() - 2.5e-4) < 4.0 * se, (t.mean(), se)


def test_sample_model_dispatch():
    rng = RngConfig(9)
    dspec = ModelSpec(family="dirichlet", p=3, shape=[1.0, 2.0, 0.5])
    np.testing.assert_array_equal(
        sample_model(dspec, 50, rng).proportions,
        sample_dirichlet(dspec, 50, rng).proportions,
    )
    data, stats = sample_model(dspec, 50, rng, return_stats=True)
    assert stats is None
    data, stats = sample_model(TGAUSS3, 50, rng, return_stats=True)
    np.testing.assert_array_equal(data.proportions, sample_model(TGAUSS3, 50, rng).proportions)
    assert stats.accepted == 50 and stats.attempted >= 50
    hspec = ModelSpec(family="hybrid", p=3, shape=[0.0, 0.0, 0.0])
    data, stats = sample_model(hspec, 50, rng, return_stats=True)
    assert stats is not None and stats.accepted == 50


def test_long_runs_log_their_projection_once(caplog):
    """A run that its first batch leaves short logs one INFO line, after
    that batch: the acceptance so far and the projected number of
    proposals. model1 at n = 20000 takes three batches; the projection
    lies within 10% of the proposals the run took. A run that its first
    batch serves logs nothing."""
    caplog.set_level(logging.INFO, logger="compscore.samplers")
    n = 20_000
    _, stats = sample_model(registry.get("model1").spec, n, RngConfig(5), return_stats=True)
    assert len(caplog.records) == 1
    name, kept, attempted, acceptance, projected, rows = caplog.records[0].args
    assert (name, rows) == ("scaled-dirichlet", n)
    assert attempted == samplers._next_batch(n, 0.25) and 0 < kept < n
    assert acceptance == kept / attempted and projected == n / acceptance
    assert stats.attempted > attempted + samplers._next_batch(n - kept, acceptance)
    assert abs(projected / stats.attempted - 1.0) < 0.1
    caplog.clear()
    sample_model(TGAUSS3, 50, RngConfig(5))
    sample_model(registry.get("model7").spec, 50, RngConfig(5))
    assert caplog.records == []


def _draw_both_samplers():
    """model1 (about 70 chunks) and TGAUSS3 (four chunks), each with its
    RejectionStats."""
    model1 = registry.get("model1").spec
    return (
        sample_model(model1, 100_000, RngConfig(12), return_stats=True),
        sample_model(TGAUSS3, 30_000, RngConfig(13), return_stats=True),
    )


def test_draws_do_not_depend_on_the_worker_count(monkeypatch):
    reference = _draw_both_samplers()
    assert reference[0][1].attempted > 50 * CHUNK
    assert reference[1][1].attempted > 2 * CHUNK
    for workers in (1, 3):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            monkeypatch.setattr(_parallel, "_pool", pool)
            got = _draw_both_samplers()
        for (data, stats), (want, want_stats) in zip(got, reference):
            np.testing.assert_array_equal(data.proportions, want.proportions)
            assert stats == want_stats


def test_draw_inside_a_pool_worker_finishes(monkeypatch):
    """A draw started on the only worker of a one-worker pool (one usable
    CPU) computes its chunks on that worker instead of queueing them
    behind it, and draws the direct draw's bits. model1 at n = 20000
    takes three chunks in its first batch. Cancelling the pool's queue
    on shutdown frees a worker that waits on queued chunks, so a hang
    fails here instead of stalling the run."""
    spec = registry.get("model1").spec
    want = sample_model(spec, 20_000, RngConfig(5)).proportions
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        monkeypatch.setattr(_parallel, "_pool", pool)
        got = pool.submit(sample_model, spec, 20_000, RngConfig(5)).result(timeout=30)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    np.testing.assert_array_equal(got.proportions, want)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_draw_stops_at_its_last_acceptance(monkeypatch, workers):
    """A flat hybrid spec (A = 0, b = 0, zero shapes) keeps every
    proposal, so a 40000-row draw needs 2 chunks of its 6-chunk first
    batch. No chunk is started after the n-th acceptance: on one worker
    exactly 2 are drawn, and on more at most those claimed by then (the
    2, one per helper and one free slot), with the same rows each time."""
    spec = ModelSpec(family="hybrid", p=3)
    n = 40_000
    assert -(-samplers._next_batch(n, 0.25) // CHUNK) == 6 and -(-n // CHUNK) == 2
    want = sample_model(spec, n, RngConfig(6)).proportions
    cached, calls = samplers._proposal, []

    def counted(*args):
        proposal = cached(*args)

        def propose(sub, size):
            calls.append(size)
            return proposal.propose(sub, size)

        return proposal._replace(propose=propose)

    monkeypatch.setattr(samplers, "_proposal", counted)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(_parallel, "_pool", pool)
        got, stats = sample_model(spec, n, RngConfig(6), return_stats=True)
    assert stats.attempted == n
    np.testing.assert_array_equal(got.proportions, want)
    if workers == 1:
        assert len(calls) == 2, calls
    else:
        assert 2 <= len(calls) <= 2 + workers + 1, calls


def test_chunks_read_their_own_streams():
    """With a flat energy every proposal is kept, so the output is the
    chunks in order: chunk c is the start of rng.substream(c), one row
    of Gamma(shape_j + 1) variates per category normalised (lam = 1),
    drawn as the independent reference draws them (shape + 1 = 0.8 is
    boosted), and no two chunks repeat a draw."""
    shape = np.array([0.5, -0.2, 1.0])
    spec = ModelSpec(family="hybrid", p=3, shape=shape)
    rng = RngConfig(14)
    data, stats = sample_model(spec, 3 * CHUNK, rng, return_stats=True)
    assert stats.attempted == 3 * CHUNK
    u = data.proportions
    for c in range(3):
        gen = rng.substream(c).generator()
        g = boosted_gamma_reference(gen, shape + 1.0, CHUNK)
        chunk = ContinuousDataset((g / g.sum(axis=0)).T)
        np.testing.assert_array_equal(u[c * CHUNK : (c + 1) * CHUNK], chunk.proportions)
    assert np.unique(u, axis=0).shape[0] == u.shape[0]
    tg = sample_model(TGAUSS3, 20_000, RngConfig(15)).proportions
    assert np.unique(tg, axis=0).shape[0] == tg.shape[0]


def test_concurrent_callers_share_one_pool(monkeypatch):
    """Callers on several threads create the chunk pool once and still
    get the draws a lone caller gets."""
    want = sample_model(TGAUSS3, 20_000, RngConfig(16)).proportions
    created = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(_parallel, "_pool", None)
    start = threading.Barrier(4)

    def call():
        start.wait(timeout=30)
        return sample_model(TGAUSS3, 20_000, RngConfig(16)).proportions

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


def _fit_rows():
    """A p=10 fit_hybrid whose row passes take ten blocks each."""
    u = np.random.default_rng(18).dirichlet(np.full(10, 1.5), size=19384)
    fit = fit_hybrid(u, np.zeros(10), WeightSpec("capped-min", 0.3))
    return fit.estimates, fit.cov_scaled


def _fit_and_draw_in_child(want):
    got = (*_fit_rows(), sample_model(TGAUSS3, 20_000, RngConfig(17)).proportions)
    for array, expected in zip(got, want, strict=True):
        np.testing.assert_array_equal(array, expected)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_its_own_pool(monkeypatch):
    """A child forked after the shared pool ran a multi-block fit's row
    blocks and a draw's chunks inherits none of its threads; it must
    start its own pool rather than wait on the parent's, and it fits
    and draws the parent's bits."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        monkeypatch.setattr(_parallel, "_pool", pool)
        fit = _fit_rows()
        assert pool._threads or _parallel.openblas() is None  # the fit's blocks ran pooled
        want = (*fit, sample_model(TGAUSS3, 20_000, RngConfig(17)).proportions)
        child = multiprocessing.get_context("fork").Process(target=_fit_and_draw_in_child, args=(want,))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def _blas_threads_in_child(want):
    get = _parallel.openblas()[0]
    assert _parallel._pins == 0 and get() == want
    with _parallel.one_blas_thread():
        assert get() == 1
    assert get() == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_drops_a_live_blas_pin():
    """A child forked while another thread pins OpenBLAS has no such
    thread: it starts unpinned, with the count from before the pin (2
    here), and its own pins restore that count."""
    blas = _parallel.openblas()
    if blas is None:
        pytest.skip("no BLAS pin symbol")
    before = blas[0]()
    pinned, release = threading.Event(), threading.Event()

    def hold():
        with _parallel.one_blas_thread():
            pinned.set()
            release.wait(timeout=60)

    blas[1](2)
    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert pinned.wait(timeout=30) and blas[0]() == 1
        child = multiprocessing.get_context("fork").Process(target=_blas_threads_in_child, args=(2,))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    finally:
        release.set()
        holder.join(timeout=30)
        blas[1](before)
    assert not holder.is_alive() and child.exitcode == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_prefilter_matches_unfiltered_reference(data):
    """Workers return only the proposals they accept, and the main
    thread keeps them in chunk order: sample_model equals the
    row-by-row walk over every proposal, bit for bit, attempted
    included. A hybrid spec's A has zero, one or two positive
    eigenvalues. A truncated-Gaussian spec's A is negative definite with
    eigenvalues down to -400 and its untruncated mean lies in the
    simplex, so some specs take the Gaussian proposal and some the
    scaled Dirichlet."""
    family = data.draw(st.sampled_from(["hybrid", "truncated-gaussian"]), label="family")
    gaussian_family = family == "truncated-gaussian"
    p = data.draw(st.integers(3, 5), label="p")
    k = p - 1
    stiffest = 400.0 if gaussian_family else 40.0
    eig = -np.array(data.draw(st.lists(st.floats(0.5, stiffest), min_size=k, max_size=k), label="eig"))
    positive = 0 if gaussian_family else data.draw(st.integers(0, 2), label="positive")
    eig[:positive] = data.draw(st.lists(st.floats(0.05, 5.0), min_size=positive, max_size=positive),
                               label="positive eig")
    basis = np.linalg.qr(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((k, k)))[0]
    a_k = (basis * eig) @ basis.T
    if gaussian_family:
        mean = np.array(data.draw(st.lists(st.floats(0.2 / k, 0.8 / k), min_size=k, max_size=k), label="mean"))
        spec = ModelSpec(family=family, p=p, interaction=a_k, linear=-2.0 * a_k @ mean)
    else:
        spec = ModelSpec(
            family=family,
            p=p,
            interaction=a_k,
            linear=data.draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k), label="linear"),
            shape=data.draw(st.lists(st.floats(-0.9, 2.0), min_size=p, max_size=p), label="shape"),
        )
    n = data.draw(st.integers(200, 3000), label="n")
    rng = RngConfig(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    got, stats = sample_model(spec, n, rng, return_stats=True)
    rows, attempted = chunked_hybrid_reference(spec, n, rng)
    np.testing.assert_array_equal(got.proportions, ContinuousDataset(rows).proportions)
    assert stats.attempted == attempted


def _traced_peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["model1", "model6"])
def test_draws_hold_their_rows_once(name):
    """sample_model writes the accepted rows of each chunk into one (n, p)
    array and hands it to the dataset without a copy, so a draw holds its
    rows once. Its traced peak is the rows' bytes plus, for each pool
    worker, one chunk's working set: its (p, CHUNK) proposals, their
    accepted rows (at most as many) and eight (CHUNK,) rows. A draw that
    kept the chunks' rows in a list, stacked them and copied the stack
    peaked at 2.73 (model1) and 2.43 (model6) times the rows at
    n = 200000 on a two-worker pool, above this bound."""
    spec = registry.get(name).spec
    sample_model(spec, 1000, RngConfig(0))  # builds the cached proposal and the pool
    workers = _parallel.executor()._max_workers
    data, peak = _traced_peak(lambda: sample_model(spec, 200_000, RngConfig(1)))
    rows = data.proportions.nbytes
    allowance = workers * (2 * spec.p + 8) * CHUNK * 8
    assert peak < rows + allowance, (peak, rows, workers)


def test_marginal_report_memory_is_bounded(tmp_path, monkeypatch):
    """marginal_report on the bundled table's interaction fit draws 1e5
    rows (4 MB) and rounds and compares them one column at a time, and
    the KS statistic forms no pooled array: on a two-worker pool its
    traced peak stays below 10.5 MB. Rounding the whole draw and pooling
    each pair of columns peaked at 12.0 MB."""
    spec = _bundled_interaction_fit(tmp_path)
    observed = counts_to_proportions(load_synthetic_counts())
    with ThreadPoolExecutor(max_workers=2) as pool:
        monkeypatch.setattr(_parallel, "_pool", pool)
        marginal_report(observed, spec, RngConfig(0), n_sim=1000, grid_totals=2000)
        report, peak = _traced_peak(
            lambda: marginal_report(observed, spec, RngConfig(1), grid_totals=2000)
        )
    assert report.n_simulated == 100_000
    assert peak < 10.5e6, peak


@pytest.mark.parametrize("name", ["model2", "model1"])
def test_hybrid_matches_dirichlet_base_reference(name):
    """model2 (p=3) and model1 (p=5) have b = 0 and a negative-definite
    A, so the Dirichlet base with envelope 1 draws them exactly with no
    computed bound. 20000 sampler rows pass a two-sample KS test against
    20000 reference rows in every category, at the level the truncated
    Gaussian's two proposals are held to."""
    spec = registry.get(name).spec
    n = 20_000
    got = sample_model(spec, n, RngConfig(31)).proportions
    want = dirichlet_base_hybrid_reference(spec, n, np.random.default_rng(32))
    pvals = [ks_2samp(got[:, j], want[:, j], method="asymp").pvalue for j in range(spec.p)]
    assert min(pvals) > 0.0033, pvals


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
    # totals are whole, one or one per row: int64 casts would truncate 2.7
    # and numpy would refuse a wrong length with a bare ValueError
    for bad in (2.7, [10.0, 20.0], [10, 20, 30], [[10, 20]], True, "10"):
        with pytest.raises(DataError, match="totals must be"):
            sample_multinomial_counts(latent, bad, RngConfig(0))
    np.testing.assert_array_equal(
        sample_multinomial_counts(latent, [np.uint8(7)], RngConfig(11)).totals, [7, 7]
    )
    # deterministic under a fixed stream
    c2 = sample_multinomial_counts(latent, [10, 20], RngConfig(11))
    np.testing.assert_array_equal(counts.counts, c2.counts)
