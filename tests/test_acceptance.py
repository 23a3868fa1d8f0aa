"""End-to-end acceptance runs, one test per release criterion.

Each test prints a single pass/fail line with the measured quantities
(run with -s or -rA to see them for passing tests) and asserts both the
statistical bound and its time budget. Seeds are fixed; every run is
reproducible.
"""

import time

import numpy as np
from scipy import stats

from compscore import registry
from compscore.core import counts_to_proportions, index_map, sqrt_transform
from compscore.core import ModelSpec
from compscore.diagnostics import round_to_grid
from compscore.fitting import (
    build_workspace,
    fit_dirichlet_moments,
    fit_hybrid,
    solve,
)
from compscore.io import load_synthetic_counts
from compscore.moments import (
    EmpiricalMoments,
    FactorialMoments,
    build_workspace_from_moments,
)
from compscore.samplers import (
    RngConfig,
    sample_dirichlet,
    sample_model,
    sample_multinomial_counts,
)
from compscore.study import StudyConfig, run_study
from compscore.weights import WeightSpec, weight_value

from _oracles import linear_cg

ALL_KINDS = [
    WeightSpec("product"),
    WeightSpec("capped-product", 0.1),
    WeightSpec("min"),
    WeightSpec("capped-min", 0.3),
]


def _report(num, ok, budget, elapsed, detail):
    line = (
        f"criterion {num}: {'PASS' if ok else 'FAIL'} "
        f"({detail}) [{elapsed:.1f}s / {budget:.0f}s budget]"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_closed_form_matches_generic_minimizer():
    """The one-shot linear solve agrees with a generic iterative
    minimizer of the same quadratic objective on random data."""
    t0 = time.time()
    worst = 0.0
    count = 0
    for i in range(20):
        p = 3 if i % 2 == 0 else 5
        data = sample_dirichlet(np.zeros(p), 50, RngConfig(1000 + i))
        z = sqrt_transform(data)
        shape = np.linspace(-0.5, 1.0, p) if i % 3 else None
        for spec in ALL_KINDS:
            ws = build_workspace(z, spec, shape=shape)
            fit = solve(ws, with_se=False)
            theta_cg = linear_cg(ws.gram, ws.linear_term)
            err = np.max(
                np.abs(theta_cg - fit.estimates) / (1.0 + np.abs(fit.estimates))
            )
            worst = max(worst, err)
            count += 1
    _report(
        1, worst < 1e-6, 30, time.time() - t0,
        f"{count} fits, worst per-coordinate relative gap {worst:.2e} < 1e-6",
    )


def test_criterion_2_estimating_equation_centered_at_truth():
    """At large n the linear system is solved, to within sampling
    noise, by the generating parameters themselves."""
    t0 = time.time()
    resids = {}
    for name in ("model3", "model6"):
        entry = registry.get(name)
        data = sample_model(entry.spec, 100_000, RngConfig(0).substream(0))
        z = sqrt_transform(data)
        ws = build_workspace(
            z, WeightSpec("capped-min", entry.cap_min), shape=entry.spec.shape
        )
        pi0 = entry.spec.true_theta(ws.imap)
        d = ws.linear_term
        resids[name] = np.linalg.norm(ws.gram @ pi0 - d) / (1.0 + np.linalg.norm(d))
    ok = all(r < 0.05 for r in resids.values())
    detail = ", ".join(f"{k} residual {v:.4f}" for k, v in resids.items())
    _report(2, ok, 120, time.time() - t0, detail + " < 0.05")


def test_criterion_3_se_shrinks_like_root_n():
    """Quadrupling n should roughly halve the Monte Carlo SE of every
    interaction parameter."""
    t0 = time.time()
    se = {}
    for n in (1000, 4000):
        summary = run_study(
            StudyConfig(model="model3", estimators=(1,), n=n, replicates=100, seed=301)
        )
        se[n] = {lab: summary.cell(1, lab).se for lab in ("a11", "a22", "a12")}
    ratios = {lab: se[1000][lab] / se[4000][lab] for lab in se[1000]}
    ok = all(1.4 <= r <= 2.9 for r in ratios.values())
    detail = ", ".join(f"{lab} ratio {r:.3f}" for lab, r in ratios.items())
    _report(3, ok, 180, time.time() - t0, detail + " all in [1.4, 2.9]")


def test_criterion_4_interval_coverage():
    """Plug-in standard errors give close-to-nominal 95% coverage for
    every free parameter of a 10-part model."""
    t0 = time.time()
    summary = run_study(
        StudyConfig(model="model6", estimators=(1,), n=1000, replicates=200, seed=401)
    )
    entry = registry.get("model6")
    imap = index_map(entry.spec.p)
    mask = entry.spec.estimation_mask(imap)
    truth = entry.spec.true_theta(imap)[mask]
    est = summary.replicate_estimates[1]
    ses = summary.replicate_se[1]
    coverage = {}
    for lab in ("a11", "a22", "a12", "b1", "b2"):
        i = summary.labels.index(lab)
        keep = ~np.isnan(est[:, i])
        lo = est[keep, i] - 1.96 * ses[keep, i]
        hi = est[keep, i] + 1.96 * ses[keep, i]
        coverage[lab] = float(np.mean((lo <= truth[i]) & (truth[i] <= hi)))
    ok = all(0.88 <= c <= 0.99 for c in coverage.values())
    detail = ", ".join(f"{lab} {c:.3f}" for lab, c in coverage.items())
    _report(4, ok, 300, time.time() - t0, detail + " all in [0.88, 0.99]")


def test_criterion_5_dirichlet_study_error_levels():
    """RMSE of the shape estimates lands at the documented level for a
    symmetric 10-part model and a small-n 3-part model."""
    t0 = time.time()
    s9 = run_study(
        StudyConfig(model="model9", estimators=(1,), n=1000, replicates=100, seed=501)
    )
    rmse9 = s9.cell(1, "shape1").rmse
    s7 = run_study(
        StudyConfig(model="model7", estimators=(1,), n=92, replicates=100, seed=502)
    )
    rmse7 = s7.cell(1, "shape3").rmse
    ok = 0.09 <= rmse9 <= 0.35 and 46 <= rmse7 <= 184
    _report(
        5, ok, 300, time.time() - t0,
        f"10-part RMSE(shape1) {rmse9:.3f} in [0.09, 0.35]; "
        f"3-part n=92 RMSE(shape3) {rmse7:.1f} in [46, 184]",
    )


def test_criterion_6_factorial_moments_replace_latent_data():
    """Count data at totals 2000 reproduces the latent-sample moments
    the workspace needs, and the resulting fit is nearly unbiased."""
    t0 = time.time()
    entry = registry.get("model15")
    rng = RngConfig(608)
    latent = sample_model(entry.spec, 10_000, rng.substream(0))
    counts = sample_multinomial_counts(latent, 2000, rng.substream(1))
    emp = EmpiricalMoments(latent.proportions)
    fac = FactorialMoments(counts)
    build_workspace_from_moments(emp, shape=entry.spec.shape)
    build_workspace_from_moments(fac, shape=entry.spec.shape)
    worst = 0.0
    for alpha in fac.requested():
        e = emp.monomial_mean(alpha)
        f = fac.monomial_mean(alpha)
        worst = max(worst, abs(f - e) / abs(e))
    summary = run_study(
        StudyConfig(model="model15", estimators=(5,), n=10_000, replicates=30, seed=601)
    )
    rbias = {lab: summary.cell(5, lab).rbias for lab in ("a11", "a22", "a12")}
    ok = worst < 0.01 and all(abs(r) < 1 for r in rbias.values())
    detail = (
        f"{len(fac.requested())} moments, worst relative gap {worst:.4f} < 0.01; "
        + ", ".join(f"rbias({lab}) {r:+.2f}" for lab, r in rbias.items())
    )
    _report(6, ok, 180, time.time() - t0, detail)


def test_criterion_7_samplers_match_known_distributions():
    """The concentrated 10-part sampler centers where it should, and
    the interaction sampler with zero energy reduces to a Dirichlet."""
    t0 = time.time()
    entry = registry.get("model4")
    data = sample_model(entry.spec, 100_000, RngConfig(4).substream(0))
    free = data.proportions[:, :9]
    zmax = np.max(
        np.abs(free.mean(axis=0) - 0.04) / (free.std(axis=0) / np.sqrt(data.n))
    )

    shape = np.array([-0.3, 0.5, 1.2, -0.6])
    flat = ModelSpec(
        family="hybrid", p=4,
        interaction=np.zeros((3, 3)), linear=np.zeros(3), shape=shape,
    )
    hyb = sample_model(flat, 20_000, RngConfig(5).substream(0))
    direct = sample_dirichlet(shape, 20_000, RngConfig(5).substream(1))
    pvals = [
        stats.ks_2samp(
            hyb.proportions[:, j], direct.proportions[:, j], method="asymp"
        ).pvalue
        for j in range(4)
    ]
    ok = zmax < 3 and min(pvals) > 0.01
    _report(
        7, ok, 120, time.time() - t0,
        f"component means max |z| {zmax:.2f} < 3; "
        f"KS p-values {np.round(pvals, 3).tolist()} all > 0.01",
    )


def test_criterion_8_overdispersion_signature_on_bundled_data():
    """On the bundled counts a Dirichlet fit understates the spread
    while the interaction model tracks it, category by category."""
    t0 = time.time()
    counts = load_synthetic_counts()
    data = counts_to_proportions(counts)
    obs_sd = data.proportions.std(axis=0, ddof=1)
    totals = int(counts.totals[0])

    sim_rng = RngConfig(900)
    dfit = fit_dirichlet_moments(data)
    dsim = sample_dirichlet(np.asarray(dfit.estimates), 100_000, sim_rng.substream(0))
    dir_sd = round_to_grid(dsim.proportions, totals).std(axis=0, ddof=1)

    hsim = sample_model(registry.get("model1").spec, 100_000, sim_rng.substream(1))
    hyb_sd = round_to_grid(hsim.proportions, totals).std(axis=0, ddof=1)

    under = int((dir_sd < obs_sd).sum())
    within = int((np.abs(hyb_sd - obs_sd) <= 0.5 * obs_sd).sum())
    ok = under >= 3 and within >= 4
    _report(
        8, ok, 120, time.time() - t0,
        f"dirichlet SD understates {under}/5 (need >= 3); "
        f"interaction SD within 50% for {within}/5 (need >= 4)",
    )


def test_criterion_9_always_on_properties():
    """The standing invariants: symmetric PSD systems, relabeling
    equivariance, boundary-vanishing weights, finiteness on data with
    zeros, seeded determinism, and the error-decomposition identity."""
    t0 = time.time()
    failures = []

    def check(name, ok):
        if not ok:
            failures.append(name)

    rng = np.random.default_rng(9)
    u = rng.dirichlet(0.3 * np.ones(4), size=300)
    u[:25, 0] = 0.0
    u = u / u.sum(axis=1, keepdims=True)
    z = np.sqrt(u)
    zero_row = np.sqrt(np.array([[0.0, 0.4, 0.6, 0.0]]))
    for spec in ALL_KINDS:
        ws = build_workspace(z, spec)
        check(f"gram symmetric ({spec.kind})",
              np.max(np.abs(ws.gram - ws.gram.T)) < 1e-12)
        check(f"gram PSD ({spec.kind})",
              np.linalg.eigvalsh(ws.gram).min() > -1e-10)
        fit = solve(ws, with_se=False)
        check(f"finite estimates with zero-containing data ({spec.kind})",
              bool(np.all(np.isfinite(fit.estimates))))
        check(f"weight vanishes on the boundary ({spec.kind})",
              float(weight_value(zero_row, spec)[0]) == 0.0)

    smooth = rng.dirichlet(1.5 * np.ones(4), size=150)
    shape = np.array([-0.3, 0.2, 0.8, 0.0])
    perm = np.array([2, 0, 1])
    full = np.concatenate([perm, [3]])
    imap = index_map(4)
    fit1 = fit_hybrid(smooth, shape, WeightSpec("min"),
                      estimate_linear=True, with_se=False)
    fit2 = fit_hybrid(smooth[:, full], shape[full], WeightSpec("min"),
                      estimate_linear=True, with_se=False)
    a1, b1 = imap.unpack(fit1.estimates)
    a2, b2 = imap.unpack(fit2.estimates)
    check("relabeling permutes interaction estimates",
          np.allclose(a2, a1[np.ix_(perm, perm)], rtol=1e-8))
    check("relabeling permutes linear estimates",
          np.allclose(b2, b1[perm], rtol=1e-8))

    d1 = sample_model(registry.get("model3").spec, 500, RngConfig(77).substream(0))
    d2 = sample_model(registry.get("model3").spec, 500, RngConfig(77).substream(0))
    check("sampling is seed-deterministic",
          np.array_equal(d1.proportions, d2.proportions))
    cfg = StudyConfig(model="model3", estimators=(1,), n=200, replicates=20, seed=12)
    s1 = run_study(cfg)
    s2 = run_study(cfg)
    check("studies are seed-deterministic",
          np.array_equal(s1.replicate_estimates[1], s2.replicate_estimates[1]))
    for lab in s1.labels:
        cell = s1.cell(1, lab)
        check(f"rmse^2 = se^2 + bias^2 ({lab})",
              abs(cell.rmse**2 - (cell.se**2 + cell.bias**2))
              <= 1e-10 * max(cell.rmse**2, 1.0))

    _report(
        9, not failures, 60, time.time() - t0,
        "all standing invariants hold" if not failures
        else "failed: " + "; ".join(failures),
    )
