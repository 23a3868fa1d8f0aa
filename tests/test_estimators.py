"""The assembled quadratic system and its closed-form solution: hand
oracles for the system matrices, solver algebra, equivariance, the
sandwich covariance, and the Dirichlet-family route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    dense_laplacian_values,
    dense_mu_nu,
    dirichlet_ratios,
    dirichlet_wgrad_obs,
    exact_solve,
    fd_grad,
    linear_cg,
)
from compscore import fitting
from compscore.core import ContinuousDataset, index_map, sqrt_transform
from compscore.errors import (
    ConfigError,
    SingularSystemError,
    UnidentifiableCategoryError,
)
from compscore.fitting import (
    _dirichlet_rows,
    _error_moment,
    build_workspace,
    fit_dirichlet,
    fit_dirichlet_moments,
    fit_hybrid,
    fit_truncated_gaussian,
    solve,
    standard_errors,
)
from compscore.samplers import RngConfig, sample_dirichlet
from compscore.weights import KINDS, WeightSpec, cap_from_quantile, squared_weight, weight_value

ALL_KINDS = (
    WeightSpec("product"),
    WeightSpec("capped-product", 0.1),
    WeightSpec("min"),
    WeightSpec("capped-min", 0.3),
)


def _random_z(p, n, seed, boundary_rows=0):
    rng = np.random.default_rng(seed)
    u = rng.dirichlet(np.ones(p), size=n)
    if boundary_rows:
        u[:boundary_rows, 0] = 0.0
        u[:boundary_rows] /= u[:boundary_rows].sum(axis=1, keepdims=True)
    return np.sqrt(u)


def _row_oracle(z_row, spec, shape):
    """Single-row system pieces rebuilt from the dense gradient and
    Laplacian tables and a finite-difference weight gradient, bypassing
    the blocked assembly and its per-row weight features."""
    p = z_row.size
    imap = index_map(p)
    u_row = (z_row * z_row)[None, :]
    mu, nu = (a[0] for a in dense_mu_nu(z_row[None, :], u_row, imap))
    hsq = weight_value(z_row, spec)
    proj = mu - nu[:, None] * z_row[None, :]
    gram = hsq * proj @ proj.T
    lap_term = -hsq * dense_laplacian_values(u_row, imap)[0]
    gh = fd_grad(lambda y: float(weight_value(y, spec)), z_row)
    tang = np.eye(p) - np.outer(z_row, z_row)
    wgrad_term = -proj @ (tang @ gh)
    coupling = hsq * (mu / z_row[None, :] - nu[:, None])
    shape_term = -coupling @ (1.0 + 2.0 * shape)
    return gram, lap_term + wgrad_term + shape_term


def test_workspace_matches_row_oracle():
    """W and d from the blocked assembly equal plain row averages of the
    per-observation closed forms, for every weight kind."""
    p, n = 3, 12
    z = _random_z(p, n, seed=50)
    shape = np.array([-0.4, 0.3, 0.9])
    for spec in ALL_KINDS:
        ws = build_workspace(z, spec, shape=shape)
        grams = np.zeros((ws.imap.q, ws.imap.q))
        linears = np.zeros(ws.imap.q)
        for i in range(n):
            g, lin = _row_oracle(z[i], spec, shape)
            grams += g
            linears += lin
        np.testing.assert_allclose(ws.gram, grams / n, rtol=0, atol=1e-9)
        np.testing.assert_allclose(ws.linear_term, linears / n, rtol=0, atol=1e-7)


def test_cap_rule_ties_and_boundary():
    """The one cap rule, in the per-row weight features: the weight's
    derivative vanishes where h^2 reaches the cap, a tie included, and a
    boundary row (h^2 = 0) stays on the smooth branch."""
    spec = WeightSpec("capped-min", 0.5)  # cap at 0.25
    u = np.array([[0.1, 0.9], [0.25, 0.75], [0.4, 0.6], [0.0, 1.0]]).T
    _, omega, kappa = fitting._row_features(u, spec)
    np.testing.assert_array_equal(kappa, [1.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(omega, [[1.0, 0.0, 0.0, 1.0], [0.0] * 4])


def test_gram_symmetric_psd():
    for p, seed in ((3, 1), (5, 2)):
        z = _random_z(p, 60, seed, boundary_rows=5)
        for spec in ALL_KINDS:
            w = build_workspace(z, spec).gram
            np.testing.assert_array_equal(w, w.T)
            evals = np.linalg.eigvalsh(w)
            assert evals.min() > -1e-12 * max(evals.max(), 1.0)


def test_closed_form_agrees_with_conjugate_gradient():
    for seed in (3, 4, 5):
        p = 3 if seed % 2 else 5
        z = sqrt_transform(sample_dirichlet(np.zeros(p), 50, RngConfig(seed)))
        for spec in ALL_KINDS:
            ws = build_workspace(z, spec)
            fit = solve(ws, with_se=False)
            theta_cg = linear_cg(ws.gram, ws.linear_term)
            err = np.abs(theta_cg - fit.estimates) / (1.0 + np.abs(fit.estimates))
            assert err.max() < 1e-8


def test_solution_minimizes_objective():
    z = _random_z(4, 80, seed=6)
    ws = build_workspace(z, WeightSpec("capped-min", 0.3))
    fit = solve(ws, with_se=False)
    theta = np.array(fit.estimates)
    base = ws.objective(theta)
    assert base == pytest.approx(fit.objective)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert ws.objective(theta + 0.01 * rng.standard_normal(ws.imap.q)) > base


def test_first_order_condition():
    z = _random_z(4, 70, seed=7)
    for spec in ALL_KINDS:
        ws = build_workspace(z, spec)
        fit = solve(ws, with_se=False)
        resid = ws.gram @ fit.estimates - ws.linear_term
        assert np.abs(resid).max() < 1e-8 * (1.0 + np.abs(ws.linear_term).max())


def test_permutation_equivariance():
    """Relabeling the first p-1 categories permutes the estimates the
    same way; the weight and the reference category are unaffected."""
    p = 4
    rng = np.random.default_rng(8)
    u = rng.dirichlet(np.ones(p) * 1.5, size=150)
    shape = np.array([-0.3, 0.2, 0.8, 0.0])
    perm = np.array([2, 0, 1])
    full = np.concatenate([perm, [p - 1]])
    imap = index_map(p)
    for spec in (WeightSpec("min"), WeightSpec("capped-product", 0.2)):
        fit1 = fit_hybrid(u, shape, spec, estimate_linear=True, with_se=False)
        fit2 = fit_hybrid(
            u[:, full], shape[full], spec, estimate_linear=True, with_se=False
        )
        a1, b1 = imap.unpack(fit1.estimates)
        a2, b2 = imap.unpack(fit2.estimates)
        np.testing.assert_allclose(a2, a1[np.ix_(perm, perm)], rtol=1e-8)
        np.testing.assert_allclose(b2, b1[perm], rtol=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([3, 5, 10]),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_relabelling_equivariance(p, kind, seed, data):
    """Permuting categories 1 .. p-1, with p kept last, permutes the
    estimates and the rows and columns of cov_scaled the same way."""
    perm = np.array(data.draw(st.permutations(range(p - 1)), label="perm"))
    rng = np.random.default_rng(seed)
    u = rng.dirichlet(rng.uniform(1.0, 3.0, p), size=400)
    shape = rng.uniform(-0.5, 2.0, p)
    weight = WeightSpec(kind, cap_from_quantile(np.sqrt(u), kind, 0.7) if "capped" in kind else 1.0)
    imap = index_map(p)
    # position in the original parameter vector of each relabelled parameter
    a, b = imap.unpack(np.arange(imap.q, dtype=float))
    order = imap.pack(a[np.ix_(perm, perm)], b[perm]).astype(int)
    full = np.append(perm, p - 1)
    fit = fit_hybrid(u, shape, weight, estimate_linear=True)
    relabelled = fit_hybrid(u[:, full], shape[full], weight, estimate_linear=True)
    for got, want in ((relabelled.estimates, fit.estimates[order]),
                      (relabelled.cov_scaled, fit.cov_scaled[np.ix_(order, order)])):
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([3, 5, 10]),
    kind=st.sampled_from(["product", "min"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_squared_weight_homogeneity(p, kind, seed):
    """Every term of the system is linear in h^2. With h^2 scaled by 1/4,
    a power of two, W, d and V scale by exactly 1/4 and Sigma_0 by 1/16,
    and the estimates and cov_scaled stay put. Uncapped kinds only: a
    cap would bind on other rows."""
    rng = np.random.default_rng(seed)
    z = np.sqrt(rng.dirichlet(rng.uniform(1.0, 3.0, p), size=400))
    shape = rng.uniform(-0.5, 2.0, p)
    weight = WeightSpec(kind)
    theta = rng.standard_normal(index_map(p).q)
    full = np.ones(theta.size, dtype=bool)

    def system():
        ws = build_workspace(z, weight, shape=shape)
        return ws, solve(ws), _error_moment(ws, theta, full)

    ws, fit, sigma0 = system()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "squared_weight", lambda u, w: 0.25 * squared_weight(u, w))
        quarter, quarter_fit, quarter_sigma0 = system()
    for name in ("gram", "laplacian_term", "weight_gradient_term", "shape_matrix", "linear_term"):
        np.testing.assert_array_equal(getattr(quarter, name), 0.25 * getattr(ws, name))
    np.testing.assert_array_equal(quarter_sigma0, sigma0 / 16.0)
    for got, want in ((quarter_fit.estimates, fit.estimates),
                      (quarter_fit.cov_scaled, fit.cov_scaled)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_masks_and_fixed_values():
    """A masked parameter is held at zero: the fit reports it in fixed,
    and its row and column of W and d are deleted."""
    z = _random_z(3, 40, seed=9)
    ws = build_workspace(z, WeightSpec("min"))
    imap = ws.imap
    mask = np.ones(imap.q, dtype=bool)
    held = imap.index("a12")
    mask[held] = False
    fit = solve(ws, mask=mask, with_se=False)
    assert fit.labels == [lab for i, lab in enumerate(imap.labels) if i != held]
    assert fit.fixed == {"a12": 0.0}
    free = np.flatnonzero(mask)
    oracle = np.linalg.solve(ws.gram[np.ix_(free, free)], ws.linear_term[free])
    np.testing.assert_allclose(fit.estimates, oracle, rtol=1e-9)


def test_ridge_shifts_the_system():
    z = _random_z(3, 30, seed=10)
    ws = build_workspace(z, WeightSpec("product"))
    lam = 0.7
    fit = solve(ws, ridge=lam, with_se=False)
    oracle = np.linalg.solve(ws.gram + lam * np.eye(ws.imap.q), ws.linear_term)
    np.testing.assert_allclose(fit.estimates, oracle, rtol=1e-10)
    assert fit.ridge == lam
    with pytest.raises(ConfigError):
        solve(ws, ridge=-1.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    q=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_solve_matches_the_exact_solve_on_badly_scaled_systems(q, seed, data):
    """Jacobi scaling keeps the solve within 1e-12 of the exact rational
    solve when W's diagonal spans 1e-15 to 1: normwise for a standard
    normal d, and in the norm weighted by diag(W)^1/2, which every
    rescaling D W D leaves alone, for a d = W x with x of any scale. The
    reported condition number ignores such rescalings."""
    log_diag = data.draw(st.lists(st.floats(-15.0, 0.0), min_size=q, max_size=q), label="log10 diag")
    log_rescale = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=q, max_size=q), label="log10 D")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q + 3))
    corr = a @ a.T
    scale = np.sqrt(10.0 ** np.array(log_diag) / np.diag(corr))
    w = corr * np.outer(scale, scale)
    root = np.sqrt(np.diag(w))
    labels = [f"t{i}" for i in range(q)]
    for d, norm in ((rng.standard_normal(q), np.ones(q)), (w @ rng.standard_normal(q), root)):
        theta, _, cond = fitting._solve_psd(w, d, 0.0, labels)
        exact = exact_solve(w, d)
        assert np.linalg.norm(norm * (theta - exact)) <= 1e-12 * np.linalg.norm(norm * exact)
    rescale = 10.0 ** np.array(log_rescale)
    cond_rescaled = fitting._solve_psd(w * np.outer(rescale, rescale), d, 0.0, labels)[2]
    assert abs(cond_rescaled - cond) <= 1e-10 * cond


def test_singular_system_reports_directions():
    # 2 rows cannot identify 10 parameters
    z = _random_z(5, 2, seed=11)
    ws = build_workspace(z, WeightSpec("min"))
    with pytest.raises(SingularSystemError) as err:
        solve(ws, with_se=False)
    assert err.value.null_labels
    assert set(err.value.null_labels) <= set(ws.imap.labels)


def test_standard_errors_consistent():
    z = _random_z(3, 300, seed=12)
    ws = build_workspace(z, WeightSpec("capped-min", 0.3))
    fit = solve(ws, with_se=True)
    cov = standard_errors(ws, fit)
    np.testing.assert_array_equal(cov, fit.cov_scaled)
    se = fit.standard_errors
    assert se.shape == (ws.imap.q,)
    assert np.all(se > 0) and np.all(np.isfinite(se))
    np.testing.assert_allclose(se, np.sqrt(np.diag(cov) / fit.n))
    # covariance is symmetric PSD
    np.testing.assert_allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() > -1e-9


def test_standard_errors_default_to_the_fit_mask():
    """Without a mask, standard_errors of a masked fit frees the fit's own
    labels and gives solve's cov_scaled bit for bit; a mask that frees
    another number of parameters is refused."""
    z = _random_z(3, 300, seed=12)
    ws = build_workspace(z, WeightSpec("capped-min", 0.3))
    mask = np.array([lab.startswith("a") for lab in ws.imap.labels])
    fit = solve(ws, mask=mask, with_se=True)
    assert len(fit.labels) == 3 < ws.imap.q
    np.testing.assert_array_equal(standard_errors(ws, fit), fit.cov_scaled)
    np.testing.assert_array_equal(standard_errors(ws, fit, mask=mask), fit.cov_scaled)
    with pytest.raises(ConfigError, match="mask frees 5 parameters; the fit has 3"):
        standard_errors(ws, fit, mask=np.ones(ws.imap.q, dtype=bool))


def test_moment_only_workspace_refuses_se():
    z = _random_z(3, 30, seed=13)
    ws = build_workspace(z, WeightSpec("product"))
    ws.z = None
    with pytest.raises(ConfigError, match="moments only"):
        solve(ws, with_se=True)


def test_fit_result_accessors():
    z = _random_z(3, 200, seed=14)
    data = ContinuousDataset(z**2, names=["x", "y", "ref"])
    fit = fit_hybrid(data, np.zeros(3), WeightSpec("min"), estimate_linear=True)
    assert fit["a11"] == fit.estimates[fit.labels.index("a11")]
    assert fit.se("a11") == fit.standard_errors[fit.labels.index("a11")]
    zs = fit.z_scores
    assert np.all(np.isfinite(zs))
    doc = fit.to_dict()
    for key in ("labels", "estimates", "standard_errors", "n", "config", "fixed"):
        assert key in doc
    assert doc["config"]["names"] == ["x", "y", "ref"]
    assert doc["config"]["estimator"] == "continuous"


def test_truncated_gaussian_is_zero_shape_hybrid():
    z = _random_z(3, 120, seed=15)
    w = WeightSpec("capped-min", 0.4)
    fit_t = fit_truncated_gaussian(z**2, w, estimate_linear=True, with_se=False)
    fit_h = fit_hybrid(z**2, np.zeros(3), w, estimate_linear=True, with_se=False)
    np.testing.assert_array_equal(fit_t.estimates, fit_h.estimates)
    assert fit_t.config["family"] == "truncated-gaussian"
    assert fit_h.config["family"] == "hybrid"


# ---------------------------------------------------------------------------
# Dirichlet family


def test_dirichlet_ratio_conventions():
    """h^2/u_j with singular factors cancelled. Product kinds reduce to
    leave-one-out products; the min kind takes 1 at the argmin and a
    finite ratio elsewhere, 0 at non-argmin zeros."""
    u = np.array([[0.5, 0.3, 0.2], [0.0, 0.4, 0.6]])
    loo = _dirichlet_rows(u, WeightSpec("product"))[1]
    np.testing.assert_allclose(loo[0], [0.06, 0.10, 0.15])
    np.testing.assert_allclose(loo[1], [0.24, 0.0, 0.0])

    mn = _dirichlet_rows(u, WeightSpec("min"))[1]
    np.testing.assert_allclose(mn[0], [0.4, 2.0 / 3.0, 1.0])
    np.testing.assert_allclose(mn[1], [1.0, 0.0, 0.0])

    # binding cap: plain a_c^2 / u_j
    capped = _dirichlet_rows(u[:1], WeightSpec("capped-min", 0.3))[1]
    np.testing.assert_allclose(capped[0], 0.09 / u[0])
    # non-binding cap follows the smooth branch
    loose = _dirichlet_rows(u[:1], WeightSpec("capped-min", 0.8))[1]
    np.testing.assert_allclose(loose[0], mn[0])


# small-integer tables full of zeros and argmin ties, with caps that bind
# on some rows and not on others
_DIRICHLET_TABLES = dict(
    p=st.integers(2, 6),
    cells=st.lists(st.integers(0, 3), min_size=12, max_size=120),
    weight=st.sampled_from(
        [WeightSpec("product"), WeightSpec("min")]
        + [WeightSpec(kind, a_c) for kind in ("capped-product", "capped-min")
           for a_c in (0.05, 0.2, 0.45)]
    ),
)


def _table_rows(p, cells):
    """Proportions of the nonzero rows of a p-column table of cells."""
    table = np.array(cells[: len(cells) // p * p], dtype=float).reshape(-1, p)
    table = table[table.sum(axis=1) > 0]
    return table / table.sum(axis=1, keepdims=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**_DIRICHLET_TABLES)
def test_dirichlet_ratios_match_definition(p, cells, weight):
    """The Dirichlet ratios h^2 / u_j equal the per-kind definition:
    exactly for min kinds and where the cap binds, and to rounding for
    the leave-one-out products, which multiply in another order."""
    u = _table_rows(p, cells)
    if not u.size:
        return
    ratios = _dirichlet_rows(u, weight)[1]
    want, bind = dirichlet_ratios(u, weight)
    exact = bind | (not weight.product_family)
    assert np.array_equal(ratios[exact], want[exact])
    np.testing.assert_allclose(ratios, want, rtol=1e-14, atol=0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**_DIRICHLET_TABLES)
def test_dirichlet_weight_term_matches_per_kind_formula(p, cells, weight):
    """The Dirichlet linear term built from _row_features equals, bit for
    bit, the per-kind formula on the same tables."""
    u = _table_rows(p, cells)
    if not u.size:
        return
    _, ratios, lin = _dirichlet_rows(u, weight)
    want = (p - 2.0) * squared_weight(u, weight)[:, None] + ratios
    want = want + dirichlet_wgrad_obs(u, weight, ratios)
    assert np.array_equal(lin, want)


def test_dirichlet_recovery():
    truth = np.array([1.5, -0.5, 3.0])
    data = sample_dirichlet(truth, 20_000, RngConfig(16))
    for spec in (WeightSpec("min"), WeightSpec("capped-min", 0.2)):
        fit = fit_dirichlet(data, spec)
        assert fit.labels == ["shape1", "shape2", "shape3"]
        np.testing.assert_allclose(fit.estimates, truth, atol=0.2)
        # estimates should sit within a few reported standard errors
        assert np.all(np.abs(fit.estimates - truth) < 4.0 * fit.standard_errors)


def test_dirichlet_handles_boundary_zeros():
    rng = np.random.default_rng(17)
    u = rng.dirichlet([0.3, 0.5, 0.8], size=2000)
    u[:50, 0] = 0.0  # exact zeros as produced by count data
    u /= u.sum(axis=1, keepdims=True)
    for spec in (WeightSpec("min"), WeightSpec("product"), WeightSpec("capped-min", 0.1)):
        fit = fit_dirichlet(u, spec)
        assert np.all(np.isfinite(fit.estimates))
        assert np.all(np.isfinite(fit.standard_errors))


def test_dirichlet_dead_category():
    u = np.array([[0.0, 0.4, 0.6], [0.0, 0.7, 0.3]])
    with pytest.raises(UnidentifiableCategoryError, match="c1"):
        fit_dirichlet(u, WeightSpec("min"))


def test_dirichlet_moment_fit_hand_case():
    rng = np.random.default_rng(18)
    u = rng.dirichlet([2.0, 3.0, 4.0], size=400)
    fit = fit_dirichlet_moments(u)
    means = u.mean(axis=0)
    variances = u.var(axis=0, ddof=1)
    conc = float(np.mean(means * (1.0 - means) / variances - 1.0))
    np.testing.assert_allclose(fit.estimates, conc * means - 1.0, rtol=1e-12)
    assert fit.standard_errors is None
    assert fit.config["estimator"] == "dirichlet-moment"


def test_dirichlet_moment_fit_rejections():
    with pytest.raises(Exception, match="at least 2 rows"):
        fit_dirichlet_moments(np.array([[0.5, 0.5]]))
    dead = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(UnidentifiableCategoryError):
        fit_dirichlet_moments(dead)
