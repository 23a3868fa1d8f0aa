"""The dense per-row tables of tests/_oracles.py (gradients, sphere
Laplacians and weight derivatives of every sufficient statistic) against
finite differences on the sphere orthant. The gradient and Laplacian
tables are built on the package's statistic layout, monomials and
statistic rows, so these checks cover those pieces of the blocked
passes; the dense reference assembly rests on all three tables."""

import numpy as np
import pytest

from _oracles import (
    dense_laplacian_values,
    dense_mu_nu,
    dense_wgrad_obs,
    fd_grad,
    fd_sphere_laplacian,
    stat_functions,
)
from compscore.core import index_map
from compscore.weights import WeightSpec, squared_weight, weight_value


def _interior_point(p, seed):
    rng = np.random.default_rng(seed)
    u = rng.dirichlet(np.ones(p) * 2.0)
    return np.sqrt(u), u


def test_ambient_gradients_match_finite_differences():
    for p in (3, 4, 5):
        z, u = _interior_point(p, seed=100 + p)
        imap = index_map(p)
        mu, nu = dense_mu_nu(z[None, :], u[None, :], imap)
        for i, f in enumerate(stat_functions(imap)):
            g = fd_grad(f, z)
            np.testing.assert_allclose(mu[0, i], g, rtol=0, atol=5e-8)
            # radial component is z' mu
            np.testing.assert_allclose(nu[0, i], z @ g, rtol=0, atol=5e-8)


def test_sphere_laplacians_match_finite_differences():
    for p in (3, 4, 5):
        z, u = _interior_point(p, seed=200 + p)
        imap = index_map(p)
        lap = dense_laplacian_values(u[None, :], imap)
        for i, f in enumerate(stat_functions(imap)):
            oracle = fd_sphere_laplacian(f, z)
            np.testing.assert_allclose(lap[0, i], oracle, rtol=0, atol=2e-6)


def test_vertex_laplacian_frozen_value():
    """At the vertex z = e_1 the Laplacian of z_1^4 is -8 for p = 3,
    a hand-computable anchor (12 u - 4 (p + 2) u^2 at u = 1)."""
    imap = index_map(3)
    z = np.array([1.0, 0.0, 0.0])
    table = dense_laplacian_values((z * z)[None, :], imap)[0, 0]
    assert table == pytest.approx(-8.0)
    fd = fd_sphere_laplacian(stat_functions(imap)[0], z)
    assert fd == pytest.approx(-8.0, abs=1e-6)


def _check_weight_derivative(z, u, imap, spec, atol):
    """Oracle: the weight-derivative entry for statistic i is
    -(grad h^2) . (P mu_i) with P the tangential projector."""
    table = dense_wgrad_obs(u[None, :], imap, spec)[0]

    def hsq_ambient(y):
        return float(weight_value(y, spec))

    gh = fd_grad(hsq_ambient, z)
    proj = np.eye(z.size) - np.outer(z, z)
    mu, _ = dense_mu_nu(z[None, :], u[None, :], imap)
    for i in range(imap.q):
        oracle = -(gh @ (proj @ mu[0, i]))
        np.testing.assert_allclose(table[i], oracle, rtol=0, atol=atol)


def test_weight_derivative_terms_all_kinds():
    for p in (3, 4, 5):
        z, u = _interior_point(p, seed=300 + p)
        imap = index_map(p)
        for kind in ("product", "min"):
            _check_weight_derivative(z, u, imap, WeightSpec(kind), atol=1e-6)


def test_weight_derivative_terms_cap_branches():
    """Capped kinds: the smooth branch matches the uncapped derivative,
    the binding branch (weight pinned at the cap) has zero derivative."""
    for p in (3, 4):
        z, u = _interior_point(p, seed=400 + p)
        imap = index_map(p)
        for kind in ("capped-product", "capped-min"):
            raw = u.prod() if "product" in kind else u.min()
            for factor in (4.0, 0.25):  # cap above the value, then below
                a_c = np.sqrt(raw * factor)
                if a_c > 1.0:
                    continue
                spec = WeightSpec(kind, a_c)
                _check_weight_derivative(z, u, imap, spec, atol=1e-6)
                if factor < 1.0:
                    np.testing.assert_array_equal(
                        dense_wgrad_obs(u[None, :], imap, spec)[0], 0.0
                    )


def test_tables_finite_on_boundary():
    """Rows with exact zeros produce finite tables; the boundary only
    enters through the weight, which vanishes there."""
    imap = index_map(4)
    u = np.array([[0.0, 0.5, 0.5, 0.0], [0.25, 0.0, 0.25, 0.5]])
    z = np.sqrt(u)
    mu, nu = dense_mu_nu(z, u, imap)
    assert np.all(np.isfinite(mu)) and np.all(np.isfinite(nu))
    assert np.all(np.isfinite(dense_laplacian_values(u, imap)))
    for kind in ("product", "capped-product", "min", "capped-min"):
        spec = WeightSpec(kind, 0.3) if "capped" in kind else WeightSpec(kind)
        assert np.all(np.isfinite(dense_wgrad_obs(u, imap, spec)))
        np.testing.assert_array_equal(squared_weight(u, spec), 0.0)


def test_batch_equals_per_row():
    rng = np.random.default_rng(33)
    u = rng.dirichlet(np.ones(5), size=8)
    z = np.sqrt(u)
    imap = index_map(5)
    mu_b, nu_b = dense_mu_nu(z, u, imap)
    lap_b = dense_laplacian_values(u, imap)
    for i in range(8):
        mu_i, nu_i = dense_mu_nu(z[i : i + 1], u[i : i + 1], imap)
        np.testing.assert_array_equal(mu_b[i], mu_i[0])
        np.testing.assert_array_equal(nu_b[i], nu_i[0])
        np.testing.assert_array_equal(lap_b[i], dense_laplacian_values(u[i : i + 1], imap)[0])
