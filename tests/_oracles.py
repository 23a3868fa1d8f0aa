"""Independent numerical oracles shared by the test modules.

Everything here recomputes quantities the package provides in closed
form, but by a different route: central finite differences for ambient
gradients, the projected-derivative formula for the sphere Laplacian,
a generic linear conjugate-gradient loop for the quadratic objective,
a dense assembly of the continuous route from full projected gradient
tensors, a polynomial assembly of the count route with expanded
factorial moments, the Dirichlet weight term written out per weight
kind, a row-by-row envelope rejection loop, rejection
from the Dirichlet base with no computed bound, inverse-CDF draws
of a truncated Gaussian with independent coordinates, and a
derivative-free search for the scaled-Dirichlet scale over a
log-barrier ascent. Only the two
assemblies, the row-by-row rejection loop and the scale search import
from the package:
the workspace container, the index map, the weight spec and the error
types; for the dense assembly the per-statistic tables _mu_nu and
_laplacian_values, which are themselves checked against finite
differences; for the row-by-row loop the chunk size, the batch
sizing and the proposal's scale and bound, which fix which random
streams it reads and what it accepts; and for the scale search the
split of A and the certified bound on max f, which define what it
minimises.
"""

import math

import numpy as np


def stat_functions(imap):
    """Ambient polynomial extensions of the sufficient statistics, in
    the same order as the parameter index map: z_l^4, then 2 z_j^2
    z_k^2 cross terms, then z_l^2."""
    fns = []
    for l in imap.diag_levels:
        fns.append(lambda y, l=l: y[l] ** 4)
    for j, k in zip(imap.cross_j, imap.cross_k):
        fns.append(lambda y, j=j, k=k: 2.0 * y[j] ** 2 * y[k] ** 2)
    for l in imap.linear_levels:
        fns.append(lambda y, l=l: y[l] ** 2)
    return fns


def fd_grad(f, y, h=1e-6):
    """Central-difference ambient gradient of a scalar function."""
    p = y.size
    g = np.zeros(p)
    for k in range(p):
        e = np.zeros(p)
        e[k] = h
        g[k] = (f(y + e) - f(y - e)) / (2 * h)
    return g


def fd_sphere_laplacian(f, z, h_outer=1e-4):
    """Laplace-Beltrami operator on the unit sphere by nested central
    differences of the tangentially projected gradient field.

    With F_j(y) = sum_k (delta_jk - y_j y_k) df/dy_k, the Laplacian at a
    point z with projector P = I - z z' is sum_ij P_ij dF_j/dy_i.
    """
    p = z.size

    def tangent_field(y):
        g = fd_grad(f, y)
        return g - y * (y @ g)

    proj = np.eye(p) - np.outer(z, z)
    total = 0.0
    for i in range(p):
        e = np.zeros(p)
        e[i] = h_outer
        df = (tangent_field(z + e) - tangent_field(z - e)) / (2 * h_outer)
        total += proj[i] @ df
    return total


def linear_cg(w, d, iters=None):
    """Generic conjugate-gradient minimizer of 0.5 x'Wx - d'x from zero.

    Uses explicit matrix-vector products; probing the gradient by
    differences of the objective cancels catastrophically once the
    iterate is nearly converged.
    """
    q = d.size
    iters = iters or 40 * q
    theta = np.zeros(q)
    g = -d.copy()
    direction = d.copy()
    floor = (1e-14 * np.linalg.norm(d)) ** 2
    for _ in range(iters):
        gg = g @ g
        if gg <= floor:
            break
        hd = w @ direction
        denom = direction @ hd
        if denom <= 0.0:
            break
        alpha = gg / denom
        theta = theta + alpha * direction
        g = g + alpha * hd
        beta = (g @ g) / gg
        direction = -g + beta * direction
    return theta


# ---------------------------------------------------------------------------
# dense reference assembly of the continuous route
#
# The package assembles W, d and V from compressed per-row features and two
# sphere identities. The reference below forms the full (rows, q, p)
# gradient tensors and projects them explicitly, as the first version of
# the package did. It uses only the per-statistic tables _mu_nu and
# _laplacian_values, which test_gradients checks against finite
# differences; the weight derivative and the shape coupling are written
# out per statistic here.


def _dense_hsq(u, weight):
    cap = weight.a_c * weight.a_c
    raw = u.prod(axis=1) if weight.product_family else u.min(axis=1)
    return np.minimum(raw, cap)


def _dense_wgrad_product_values(u, imap):
    """Weight-derivative integrand for product kinds, before the
    -2 * indicator * h^2 factor."""
    p = imap.p
    ud = u[:, : imap.n_diag]
    uj = u[:, imap.cross_j]
    uk = u[:, imap.cross_k]
    return np.concatenate(
        [
            4.0 * ud * (1.0 - p * ud),
            4.0 * uj + 4.0 * uk - 8.0 * p * uj * uk,
            2.0 * (1.0 - p * ud),
        ],
        axis=1,
    )


def _dense_wgrad_min_values(u, imap, cap_sq):
    """Weight-derivative integrand for min kinds: the weight's gradient
    lives on the argmin coordinate (lowest index on ties); rows where the
    cap binds contribute zero."""
    nb = u.shape[0]
    amin = np.argmin(u, axis=1)
    ua = u[np.arange(nb), amin]
    smooth = ua < cap_sq

    ud = u[:, : imap.n_diag]
    lev = imap.diag_levels[None, :]
    a_col = amin[:, None]
    ua_col = ua[:, None]

    quart = np.where(
        lev == a_col, 8.0 * ud * ud * (1.0 - ud), -8.0 * ud * ud * ua_col
    )
    uj = u[:, imap.cross_j]
    uk = u[:, imap.cross_k]
    cross = -16.0 * ua_col * uj * uk
    cross = np.where(imap.cross_j[None, :] == a_col, 8.0 * uj * uk - 16.0 * uj * uj * uk, cross)
    cross = np.where(imap.cross_k[None, :] == a_col, 8.0 * uj * uk - 16.0 * uj * uk * uk, cross)
    quad = np.where(lev == a_col, 4.0 * ud * (1.0 - ud), -4.0 * ud * ua_col)

    vals = np.concatenate([quart, cross, quad], axis=1)
    vals[~smooth] = 0.0
    return vals


def dense_wgrad_obs(u, imap, weight):
    """Per-observation weight-derivative term, signs included."""
    cap = weight.a_c * weight.a_c
    if weight.product_family:
        raw = u.prod(axis=1)
        factor = np.where(raw < cap, raw, 0.0)
        return -2.0 * factor[:, None] * _dense_wgrad_product_values(u, imap)
    return -_dense_wgrad_min_values(u, imap, cap)


def dirichlet_wgrad_obs(u, weight, ratios):
    """Weight-derivative term of the Dirichlet log statistics, per row and
    written out per weight kind: -2 (h^2 / u_j - p h^2) for product
    kinds, and for min kinds 2 u_a off the argmin a and -2 (1 - u_a) on
    it (lowest index on ties); zero where the cap binds."""
    cap = weight.a_c * weight.a_c
    nb, p = u.shape
    if weight.product_family:
        hsq = _dense_hsq(u, weight)
        smooth = (hsq < cap).astype(float)
        return -2.0 * smooth[:, None] * (ratios - p * hsq[:, None])
    amin = np.argmin(u, axis=1)
    ua = u[np.arange(nb), amin]
    smooth = ua < cap
    vals = np.where(smooth[:, None], np.broadcast_to(2.0 * ua[:, None], u.shape), 0.0)
    vals[np.arange(nb), amin] = np.where(smooth, -2.0 * (1.0 - ua), 0.0)
    return vals


def _dense_shape_gram_values(u, imap):
    """G[b, i, c] = mu_i' (gradient of log z_c), singularity cancelled."""
    nb = u.shape[0]
    k = imap.n_diag
    g = np.zeros((nb, imap.q, imap.p))
    rows_d = np.arange(k)
    rows_c = np.arange(k, k + imap.n_cross)
    rows_l = np.arange(k + imap.n_cross, imap.q)
    g[:, rows_d, imap.diag_levels] = 4.0 * u[:, :k]
    g[:, rows_c, imap.cross_j] = 4.0 * u[:, imap.cross_k]
    g[:, rows_c, imap.cross_k] = 4.0 * u[:, imap.cross_j]
    g[:, rows_l, imap.linear_levels] = 2.0
    return g


def _dense_blocks(n, size=8192):
    for start in range(0, n, size):
        yield start, min(start + size, n)


def dense_workspace(z, weight, shape=None):
    """EstimatorWorkspace from dense projected gradients, block by block."""
    from compscore.core import index_map
    from compscore.fitting import EstimatorWorkspace, _laplacian_values, _mu_nu

    z = np.asarray(z, dtype=float)
    n, p = z.shape
    imap = index_map(p)
    shape = np.zeros(p) if shape is None else np.asarray(shape, dtype=float)
    q = imap.q
    gram = np.zeros((q, q))
    lap = np.zeros(q)
    wgrad = np.zeros(q)
    coupling = np.zeros((q, p))
    for start, stop in _dense_blocks(n):
        zb = z[start:stop]
        ub = zb * zb
        hsq = _dense_hsq(ub, weight)
        mu, nu = _mu_nu(zb, ub, imap)
        proj = mu - nu[:, :, None] * zb[:, None, :]
        pw = proj * np.sqrt(hsq)[:, None, None]
        gram += np.tensordot(pw, pw, axes=([0, 2], [0, 2]))
        lap -= (hsq[:, None] * _laplacian_values(ub, imap)).sum(axis=0)
        wgrad += dense_wgrad_obs(ub, imap, weight).sum(axis=0)
        gv = _dense_shape_gram_values(ub, imap) - nu[:, :, None]
        coupling += (hsq[:, None, None] * gv).sum(axis=0)
    return EstimatorWorkspace(
        imap=imap,
        weight=weight,
        shape=shape,
        n=n,
        gram=gram / n,
        laplacian_term=lap / n,
        weight_gradient_term=wgrad / n,
        shape_matrix=coupling / n,
        z=z,
    )


def dense_error_moment(workspace, theta_full, mask):
    """Sigma_0 over the free block: the mean outer product of the
    per-row residuals R(z) theta - r(z), from dense projected gradients."""
    from compscore.fitting import _laplacian_values, _mu_nu

    imap = workspace.imap
    weight = workspace.weight
    z = workspace.z
    free = np.flatnonzero(mask)
    pi2 = 1.0 + 2.0 * workspace.shape
    total = np.zeros((free.size, free.size))
    for start, stop in _dense_blocks(workspace.n):
        zb = z[start:stop]
        ub = zb * zb
        hsq = _dense_hsq(ub, weight)
        mu, nu = _mu_nu(zb, ub, imap)
        proj = mu - nu[:, :, None] * zb[:, None, :]
        g = np.einsum("bqp,q->bp", proj, theta_full)
        r_theta = hsq[:, None] * np.einsum("bqp,bp->bq", proj, g)
        lin = -hsq[:, None] * _laplacian_values(ub, imap)
        lin = lin + dense_wgrad_obs(ub, imap, weight)
        gv = _dense_shape_gram_values(ub, imap) - nu[:, :, None]
        lin = lin - hsq[:, None] * np.einsum("bqp,p->bq", gv, pi2)
        resid = (r_theta - lin)[:, free]
        total += resid.T @ resid
    return total / workspace.n


def dense_fit(z, weight, shape, mask):
    """Estimates and plug-in cov_scaled from the dense reference, solved
    with plain LAPACK calls (no eigen-solver shared with the package)."""
    ws = dense_workspace(z, weight, shape=shape)
    free = np.flatnonzero(mask)
    w_ff = ws.gram[np.ix_(free, free)]
    theta_full = np.zeros(ws.imap.q)
    theta_full[free] = np.linalg.solve(w_ff, ws.linear_term[free])
    inv_w = np.linalg.inv(w_ff)
    cov = inv_w @ dense_error_moment(ws, theta_full, mask) @ inv_w
    return theta_full[free], cov


# ---------------------------------------------------------------------------
# polynomial reference assembly of the count route
#
# The package reads the product-weight system off one pair-moment matrix
# with the continuous route's read-off, and estimates monomial means from
# counts in closed form. The reference below is the first version of the
# route: every statistic's gradient, nu, Laplacian and weight term written
# out as sparse polynomials (dicts from exponent tuples to coefficients),
# and each monomial mean of counts expanded through u_p = 1 - sum of the
# others into reduced factorial moments, one composition at a time.


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + c
    return {e: c for e, c in out.items() if c != 0.0}


def _pscale(a, s):
    return {e: c * s for e, c in a.items()}


def _unit(p, level, coef, power=1):
    exps = [0] * p
    exps[level] = power
    return {tuple(exps): coef}


def _pair(p, j, k, coef):
    exps = [0] * p
    exps[j] += 1
    exps[k] += 1
    return {tuple(exps): coef}


def _const(p, coef):
    return {tuple([0] * p): coef}


def system_polynomials(p):
    """Polynomial form of every entry of the product-weight system: gram
    (q x q), Laplacian term, weight-derivative term, and shape-coupling
    matrix (q x p)."""
    from compscore.core import index_map

    imap = index_map(p)
    q = imap.q
    hsq = {tuple([1] * p): 1.0}

    # gradient of each statistic as {column: monomial}, and nu = z' mu
    grads = []
    nus = []
    for l in imap.diag_levels:
        grads.append({int(l): _unit(p, l, 4.0)})
        nus.append(_unit(p, l, 4.0, power=2))
    for j, k in zip(imap.cross_j, imap.cross_k):
        grads.append({int(j): _unit(p, k, 4.0), int(k): _unit(p, j, 4.0)})
        nus.append(_pair(p, j, k, 8.0))
    for l in imap.linear_levels:
        grads.append({int(l): _const(p, 2.0)})
        nus.append(_unit(p, l, 2.0))

    gram = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            dot = {}
            for c, gi in grads[i].items():
                gj = grads[j].get(c)
                if gj is not None:
                    dot = _padd(dot, _pmul(_unit(p, c, 1.0), _pmul(gi, gj)))
            dot = _padd(dot, _pscale(_pmul(nus[i], nus[j]), -1.0))
            entry = _pmul(hsq, dot)
            gram[i][j] = entry
            gram[j][i] = entry

    lam2 = 2.0 * p
    lam4 = 4.0 * (p + 2.0)
    lap = []
    wgrad = []
    for l in imap.diag_levels:
        lap.append(_padd(_unit(p, l, -lam4, power=2), _unit(p, l, 12.0)))
        wgrad.append(_padd(_unit(p, l, 4.0), _unit(p, l, -4.0 * p, power=2)))
    for j, k in zip(imap.cross_j, imap.cross_k):
        lap.append(
            _padd(
                _pair(p, j, k, -2.0 * lam4),
                _padd(_unit(p, j, 4.0), _unit(p, k, 4.0)),
            )
        )
        wgrad.append(
            _padd(
                _padd(_unit(p, j, 4.0), _unit(p, k, 4.0)),
                _pair(p, j, k, -8.0 * p),
            )
        )
    for l in imap.linear_levels:
        lap.append(_padd(_unit(p, l, -lam2), _const(p, 2.0)))
        wgrad.append(_padd(_const(p, 2.0), _unit(p, l, -2.0 * p)))

    lap_term = [_pmul(hsq, _pscale(v, -1.0)) for v in lap]
    wgrad_term = [_pmul(hsq, _pscale(v, -2.0)) for v in wgrad]

    shape_matrix = [
        [
            _pmul(hsq, _padd(grads[i].get(c, {}), _pscale(nus[i], -1.0)))
            for c in range(p)
        ]
        for i in range(q)
    ]
    return gram, lap_term, wgrad_term, shape_matrix


def polynomial_workspace(monomial_mean, p, n, shape=None):
    """Product-weight EstimatorWorkspace from the polynomial form of each
    entry, with monomial_mean(alpha) supplying every mean."""
    from compscore.core import index_map
    from compscore.fitting import EstimatorWorkspace
    from compscore.weights import WeightSpec

    def poly_mean(poly):
        return sum(c * monomial_mean(e) for e, c in poly.items())

    gram_p, lap_p, wgrad_p, shape_p = system_polynomials(p)
    q = len(lap_p)
    gram = np.empty((q, q))
    for i in range(q):
        for j in range(i, q):
            gram[i, j] = gram[j, i] = poly_mean(gram_p[i][j])
    return EstimatorWorkspace(
        imap=index_map(p),
        weight=WeightSpec("product"),
        shape=np.zeros(p) if shape is None else np.asarray(shape, dtype=float),
        n=n,
        gram=gram,
        laplacian_term=np.array([poly_mean(v) for v in lap_p]),
        weight_gradient_term=np.array([poly_mean(v) for v in wgrad_p]),
        shape_matrix=np.array([[poly_mean(shape_p[i][c]) for c in range(p)] for i in range(q)]),
        z=None,
    )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _falling(x, k):
    out = np.ones_like(x, dtype=float)
    for i in range(k):
        out = out * (x - i)
    return out


class ExpandedFactorialMoments:
    """Latent monomial means from counts: each power of the last
    proportion is expanded through u_p = 1 - sum of the others, and every
    reduced monomial gamma over the first p - 1 categories is estimated by
    x^(gamma) / m^(|gamma|) averaged over the rows with m >= |gamma|.
    Rows excluded at a degree are tallied in ``exclusions``."""

    def __init__(self, counts):
        x = np.asarray(counts, dtype=np.int64)
        self.x = x
        self.m = x.sum(axis=1)
        self.n, self.p = x.shape
        self.exclusions = {}
        self._reduced = {}

    def monomial_mean(self, alpha):
        from compscore.errors import ConfigError

        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.p:
            raise ConfigError("monomial exponent length does not match p")
        last = alpha[-1]
        base = alpha[:-1]
        total = 0.0
        for t in range(last + 1):
            outer = math.comb(last, t) * (-1.0) ** t
            for combo in _compositions(t, self.p - 1):
                coef = outer * math.factorial(t)
                for c in combo:
                    coef /= math.factorial(c)
                gamma = tuple(b + c for b, c in zip(base, combo))
                total += coef * self._reduced_mean(gamma)
        return total

    def _reduced_mean(self, gamma):
        from compscore.errors import InsufficientTotalsError

        hit = self._reduced.get(gamma)
        if hit is not None:
            return hit
        degree = int(sum(gamma))
        if degree == 0:
            return 1.0
        eligible = self.m >= degree
        n_eligible = int(np.count_nonzero(eligible))
        if n_eligible == 0:
            raise InsufficientTotalsError(degree)
        if n_eligible < self.n:
            self.exclusions.setdefault(degree, self.n - n_eligible)
        vals = np.ones(n_eligible)
        for j, g in enumerate(gamma):
            if g:
                vals = vals * _falling(self.x[eligible, j], int(g))
        out = float((vals / _falling(self.m[eligible], degree)).mean())
        self._reduced[gamma] = out
        return out


def chunked_hybrid_reference(spec, n, rng):
    """sample_hybrid walked one proposal at a time.

    Reads the same chunk streams as the sampler (chunk c of the run from
    rng.substream(c), batches sized by samplers._next_batch), draws the
    same scaled-Dirichlet proposals with the scale and bound of
    samplers._proposal, and computes the same density ratios. It then
    visits every proposal in order and keeps it when coin <= ratio. The
    walk stops at the n-th kept proposal, and attempted counts the
    proposals through it. Returns (rows, attempted). No patience check:
    callers pass models the sampler can serve.
    """
    from compscore.samplers import CHUNK, _next_batch, _proposal

    k = spec.p - 1
    a_k, b_k, shape = spec.interaction, spec.linear, spec.shape
    proposal = _proposal(spec.p, a_k.tobytes(), b_k.tobytes(), shape.tobytes())
    alpha = shape + 1.0
    kept = []
    attempted = 0
    chunk = 0
    rate = 0.25
    while len(kept) < n:
        batch = _next_batch(n - len(kept), rate)
        for lo in range(0, batch, CHUNK):
            size = min(CHUNK, batch - lo)
            gen = rng.substream(chunk).generator()
            chunk += 1
            g = np.empty((spec.p, size))
            for j in range(spec.p):
                gen.standard_gamma(alpha[j], size, out=g[j])
            coins = gen.uniform(size=size)
            w = g / proposal.lam[:, None]
            ut = w / w.sum(axis=0)
            energy = ((np.einsum("ij,jb->ib", a_k, ut[:k]) + b_k[:, None]) * ut[:k]).sum(axis=0)
            log_scale = alpha.sum() * np.log(g.sum(axis=0) / w.sum(axis=0))
            ratio = np.exp(energy + log_scale - proposal.f_bound)
            for i, (r, coin) in enumerate(zip(ratio.tolist(), coins.tolist())):
                if coin <= r:
                    kept.append(ut[:, i])
                    if len(kept) == n:
                        return np.array(kept), attempted + i + 1
            attempted += size
        rate = max(len(kept) / attempted, 1e-8)


def dirichlet_base_hybrid_reference(spec, n, gen):
    """Interaction-model rows drawn by rejection from the Dirichlet base,
    with no computed bound.

    For b = 0 and a negative-semidefinite A the energy u'Au is at most 0
    on the simplex and reaches 0 at the vertex u = e_p (the last row and
    column of A are zero), so a Dirichlet(shape + 1) draw kept with
    probability exp(u'Au) is an exact draw of the target. gen is a numpy
    Generator.
    """
    a_k = np.asarray(spec.interaction)
    assert not np.any(spec.linear), "needs a zero linear term"
    assert np.linalg.eigvalsh(a_k).max() <= 0.0, "needs a negative-semidefinite interaction"
    k = spec.p - 1
    kept, count = [], 0
    while count < n:
        u = gen.dirichlet(spec.shape + 1.0, size=n)
        ratio = np.exp(np.einsum("bi,ij,bj->b", u[:, :k], a_k, u[:, :k]))
        u = u[gen.uniform(size=n) <= ratio]
        kept.append(u)
        count += u.shape[0]
    return np.vstack(kept)[:n]


def diagonal_truncated_gaussian_reference(spec, n, gen):
    """Truncated-Gaussian rows for a diagonal interaction, drawn by a
    route that shares nothing with the package's sampler.

    With A diagonal, the untruncated Gaussian's coordinates are
    independent, N(mu_j, sd_j^2) with mu_j = -b_j / (2 a_jj) and
    sd_j^2 = -1 / (2 a_jj). Each is drawn on [0, inf) by inverse CDF, and
    rows whose p-1 coordinates sum above 1 are rejected. What is left
    has density proportional to exp(u'Au + b'u) on the simplex. gen is a
    numpy Generator.
    """
    from scipy.special import ndtr, ndtri

    diag = np.diag(spec.interaction)
    assert np.array_equal(spec.interaction, np.diag(diag)), "needs a diagonal interaction"
    mu = -np.asarray(spec.linear) / (2.0 * diag)
    sd = np.sqrt(-0.5 / diag)
    low = ndtr(-mu / sd)  # the mass below 0 of each coordinate
    kept, count = [], 0
    while count < n:
        draw = mu + sd * ndtri(low + gen.uniform(size=(n, diag.size)) * (1.0 - low))
        draw = draw[draw.sum(axis=1) <= 1.0]
        kept.append(draw)
        count += draw.shape[0]
    free = np.vstack(kept)[:n]
    return np.column_stack([free, 1.0 - free.sum(axis=1)])


def _barrier_ascent(a, b, total, lam, u, mus):
    """The best f(u) = u'Au + b'u + total log(lam'u), A negative
    semidefinite, found over the simplex by a log-barrier path from the
    interior point u, and the point where it was found.

    For each mu of mus in turn it takes Newton steps on
    f(u) + mu sum_j log u_j under sum u = 1, each moving at most 0.9 of
    the way to the boundary and halved until the barrier objective rises
    by a quarter of its predicted rise, until the predicted rise is below
    1e-10 (1 + |objective|). The centre for mu lies within p mu of max f.
    """
    p = u.size
    kkt = np.zeros((p + 1, p + 1))
    kkt[:p, p] = kkt[p, :p] = 1.0
    rhs = np.zeros(p + 1)
    diag = np.arange(p)
    lam_outer = np.outer(lam, lam)

    def objective(u, mu):
        return (a @ u + b) @ u + total * math.log(u @ lam) + mu * np.log(u).sum()

    for mu in mus:
        value = objective(u, mu)
        for _ in range(100):
            lin = u @ lam
            rhs[:p] = -(2.0 * (a @ u) + b + total / lin * lam + mu / u)
            kkt[:p, :p] = 2.0 * a - (total / lin**2) * lam_outer
            kkt[diag, diag] -= mu / u**2
            step = np.linalg.solve(kkt, rhs)[:p]
            rise = -(rhs[:p] @ step)
            if rise <= 1e-10 * (1.0 + abs(value)):
                break
            shrink = step < 0.0
            t = min(1.0, 0.9 * (u[shrink] / -step[shrink]).min()) if shrink.any() else 1.0
            while (new := objective(u + t * step, mu)) < value + 0.25 * t * rise and t > 1e-12:
                t *= 0.5
            u, value = u + t * step, new
    return (a @ u + b) @ u + total * math.log(u @ lam), u


def nelder_mead_log_bound(a_k, b_k, alpha):
    """The log envelope constant of the scaled-Dirichlet proposal with
    shapes alpha at the scale lam found by scipy's Nelder-Mead on log lam
    (lam_p = 1) from lam = 1.

    It minimises max f for the concave part of samplers._concave_split,
    plus that split's lift, plus sum log Gamma(alpha_j) - log Gamma(sum
    (alpha)) - alpha'log lam, as the package's proposal does, but finds
    max f itself: the best of f at the vertices and at the end of a
    log-barrier ascent (_barrier_ascent). During the search the ascent
    starts next to the last point found (f is concave, so any start
    reaches the maximum) and stops at the centre for mu = 1e-6, within
    p 1e-6 of max f; the value returned, at the scale the search ends
    on, takes the best ascent down to mu = 1e-12 from the centre of the
    simplex, four fixed interior points and that last point. It uses
    neither the package's climb nor the maximiser of f, and takes only
    values of f at points of the simplex, where a weaker ascent can only
    lower the value, so a search that stalls where the maximiser is not
    unique, or a climb that stops short, shows here.
    """
    from scipy import optimize

    from compscore.samplers import _concave_split

    a, lift = _concave_split(a_k)
    b = np.append(b_k, 0.0)
    p = alpha.size
    total = alpha.sum()
    log_beta = sum(math.lgamma(x) for x in alpha) - math.lgamma(total)
    centre = np.full(p, 1.0 / p)
    last = [centre]

    def log_bound(eta, starts=None, mus=(1e-6,)):
        eta = np.append(eta, 0.0)
        lam = np.exp(eta)
        best = (np.diag(a) + b + total * eta).max()
        for start in starts or [(1.0 - 1e-6) * last[0] + 1e-6 * centre]:
            f, last[0] = _barrier_ascent(a, b, total, lam, start, mus)
            best = max(best, f)
        return best + lift + log_beta - alpha @ eta

    res = optimize.minimize(
        log_bound, np.zeros(p - 1), method="Nelder-Mead",
        options={"xatol": 1e-5, "fatol": 1e-7, "maxfev": 20_000, "adaptive": True},
    )
    starts = [centre, *np.random.default_rng(0).dirichlet(np.ones(p), size=4), last[0]]
    return float(log_bound(res.x, starts, mus=10.0 ** -np.arange(2, 13, 2)))
