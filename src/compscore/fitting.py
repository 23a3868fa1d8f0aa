"""Closed-form weighted score matching on the sphere orthant.

The estimating equations are quadratic: the parameter vector theta
(diagonal interactions, off-diagonal interactions, linear coefficients,
in index-map order) minimizes

    Psi(theta) = 0.5 * theta' W theta - theta' d

where W is a weighted Gram matrix of projected sufficient-statistic
gradients and d collects three linear terms: a Laplacian term, a term
from the derivative of the weight (only where the cap does not bind),
and a shape-coupling term from the fixed exponents.

No projected gradient is ever formed. Every statistic's ambient
gradient mu_i has at most two nonzero coordinates, mu_ic = z_c G_ic with
G_ic a constant or 4 u_l, and two identities on the unit sphere reduce
everything to that sparse table and the radial components nu_i = z'mu_i:

- Gram: (P mu_i)'(P mu_j) = mu_i'mu_j - nu_i nu_j, with P = I - z z'.
  Both products are means of h^2 times two degree-2 monomials of
  u_ext = (u_1 .. u_{p-1}, 1), so W is a gather of one D x D matrix
  S = mean of h^2 f f', with f = (nu / scale, 1) the D = p (p + 1) / 2
  such monomials.
- Residual: z'(sum_j theta_j P mu_j) = 0, so the covariance residual
  is h^2 (mu_i'm - nu_i nu'theta) with m = sum_j theta_j mu_j, plus the
  linear terms; per row it is built from two (p-1)-vectors u and e
  (see _error_moment), O(q) work and no gather.

Every row pass, here and in moments, is one reduction, _block_sums:
blocks of max(1, BLOCK_ENTRIES // width) rows (a cache budget) are added
in increasing order into zero-initialised totals, which fixes every bit.
build_workspace, solve and standard_errors pin OpenBLAS to one thread,
so no bit depends on the thread counts; pinned, the two passes here also
use the shared pool (_parallel; with no pin symbol, and in moments,
whose terms hold the interpreter lock, blocks stay serial). Both passes
are feature-major: a block is u' = (p, rows), and every q-wide array is
written in contiguous row slices, one multiply per leading coordinate j
(u_j times u_{j+1..p-1}). Per block the assembly adds one SYRK of h f to
S and the sums h^2 u_ext omega' and h^2 kappa f in the weight's
direction. One read-off (_system) turns them into W, d and V; the moment
route fills S from monomial means and calls the same read-off. W and
Sigma_0 are symmetrized explicitly. Both passes take h^2 and the
weight's direction from their own blocks of z through one rule,
_row_features, whose values for a row depend on that row alone, so the
q-wide covariance blocks see the bits the assembly's blocks saw.

The Dirichlet family, whose sufficient statistics are logarithms,
shares the per-row weight features (_row_features: h^2, the direction
omega and kappa), the Jacobi-scaled Cholesky solve (_solve_psd) and
the covariance sandwich (_sandwich). The weight cancels against 1/u_j,
so each row needs only the ratios h^2 / u_j. Its per-row arrays are
n x p and formed whole, not in blocks.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from .core import ContinuousDataset, ModelSpec, index_map, sqrt_transform
from .errors import (
    ConfigError,
    DataError,
    SingularSystemError,
    UnidentifiableCategoryError,
)
from .weights import WeightSpec, squared_weight

__all__ = [
    "EstimatorWorkspace",
    "FitResult",
    "build_workspace",
    "solve",
    "standard_errors",
    "fit_hybrid",
    "fit_truncated_gaussian",
    "fit_dirichlet",
    "fit_dirichlet_moments",
]

# Entries of one width-wide feature array per block of rows: 1 MiB of
# float64, half a core's L2, so a block's per-row features stay in cache.
BLOCK_ENTRIES = 1 << 17


def _block_sums(n, width, term, *totals, pooled=False):
    """The one row reduction: add the arrays of term(start, stop) with +=
    into the caller's zero-initialised totals for each block of max(1,
    BLOCK_ENTRIES // width) of the n rows, in increasing order, and return
    the totals. This order fixes every bit of every row sum; pooled, with
    OpenBLAS pinnable (the caller pins it), the shared pool computes terms too."""
    size = max(1, BLOCK_ENTRIES // width)
    starts = range(0, n, size)

    def add(parts):
        for total, part in zip(totals, parts):
            total += part

    pooled = pooled and _parallel.openblas() is not None
    _parallel.ordered_blocks(len(starts), lambda i: term(starts[i], min(starts[i] + size, n)), add, pooled)
    return totals


# ---------------------------------------------------------------------------
# per-block statistic tables


def _pairs(a, b, out):
    """Write a_j b_l + a_l b_j (a_j a_l when b is None) for the cross
    statistics j < l, in index-map order, into out (n_cross, rows), for
    feature-major a, b (p-1, rows): one multiply per leading j, no gather."""
    k = a.shape[0]
    stop = 0
    scratch = None if b is None else np.empty((k - 1, a.shape[1]))
    for j in range(k - 1):
        start, stop = stop, stop + k - 1 - j
        np.multiply(a[j], a[j + 1 :] if b is None else b[j + 1 :], out=out[start:stop])
        if b is not None:
            out[start:stop] += np.multiply(b[j], a[j + 1 :], out=scratch[: stop - start])
    return out


def _monomials(u):
    """f = (u_j^2, u_j u_l for j < l, u_j, 1), the D = p (p + 1) / 2
    degree-2 monomials of u_ext, feature-major (D, rows) from u (p, rows);
    nu = scale * f[:q]."""
    k = u.shape[0] - 1
    f = np.empty(((k + 1) * (k + 2) // 2, u.shape[1]))
    np.multiply(u[:k], u[:k], out=f[:k])
    _pairs(u[:k], None, f[k : -k - 1])
    f[-k - 1 : -1] = u[:k]
    f[-1] = 1.0
    return f


def _statistic_rows(u, e, t):
    """Rows [u (e + t) | u_j e_l + u_l e_j | e + t u] (q, rows) for u, e
    (p-1, rows) and t per row: the covariance residual of _error_moment
    before its slot-0 coefficients (4, 4, 2 by kind). With e = 1 -
    (p + 2) u and t = 2 the same rows, times those coefficients, are each
    statistic's sphere Laplacian; tests/test_gradients.py checks the
    rows in that form against finite differences."""
    k = u.shape[0]
    out = np.empty((k * (k + 3) // 2, u.shape[1]))
    np.multiply(u, e + t, out=out[:k])
    _pairs(u, e, out[k:-k])
    np.add(e, t * u, out=out[-k:])
    return out


@dataclass(frozen=True)
class _Layout:
    """Sparse form of G_ic = mu_ic / z_c for p categories, and the split
    of each statistic's sphere Laplacian.

    Statistic i has two slots s: coordinate coord[i, s] carries the value
    coef[i, s] * u_ext[partner[i, s]], with u_ext = (u_1 .. u_{p-1}, 1).
    Diagonal and linear statistics leave slot 1 at coefficient 0. No
    statistic touches coordinate p.

    The sphere Laplacian of the statistics is u_ext @ lap_map -
    lap_kappa * nu. The ambient Laplacian is lam_i (G 1)_i, linear in
    u_ext, with lam 3 for z_l^4 and 1 for the others; a statistic
    homogeneous of degree deg in z loses deg (deg + p - 2) t_i =
    (deg + p - 2) nu_i on the sphere, so lap_kappa is p + 2 for the
    quadratic statistics and p for the linear ones.

    Every slot of statistic i with a nonzero coef carries the monomial
    f_i = u_ext[coord] u_ext[partner], and nu_i = scale_i f_i (scale 4, 8,
    2 by kind). f_q is the constant 1, and f[lin[a]] = u_ext_a.
    _system's mu_i'mu_j sums shared[t] * S[:q, cols[t]], cols[t] = lin[partner[:, t]],
    shared[t] the coef products over slots on a shared coordinate (at most 32: int8).
    """

    coord: np.ndarray
    partner: np.ndarray
    coef: np.ndarray
    lap_map: np.ndarray
    lap_kappa: np.ndarray
    scale: np.ndarray
    lin: np.ndarray
    shared: tuple
    cols: tuple


@functools.lru_cache(maxsize=8)
def _layout(p):
    """The layout for p categories, shared by every caller: read-only."""
    imap = index_map(p)
    k = p - 1
    coord = np.zeros((imap.q, 2), dtype=np.intp)
    partner = np.full((imap.q, 2), k, dtype=np.intp)
    coef = np.zeros((imap.q, 2))
    d, c, l = imap.diag_slice, imap.cross_slice, imap.linear_slice
    coord[d, 0] = partner[d, 0] = imap.diag_levels
    coef[d, 0] = 4.0
    coord[c, 0] = partner[c, 1] = imap.cross_j
    coord[c, 1] = partner[c, 0] = imap.cross_k
    coef[c] = 4.0
    coord[l, 0] = imap.linear_levels
    coef[l, 0] = 2.0
    lam = np.ones((imap.q, 1))
    lam[d] = 3.0
    lap_map = np.zeros((p, imap.q))
    np.add.at(lap_map, (partner, np.arange(imap.q)[:, None]), lam * coef)
    lap_kappa = np.full(imap.q, p + 2.0)
    lap_kappa[l] = p
    lin = np.arange(l.start, imap.q + 1)  # the linear statistics, then the constant
    shared = tuple(
        (sum(coef[:, [r]] * (coord[:, [r]] == coord[:, t]) for r in range(2)) * coef[:, t]).astype(np.int8)
        for t in range(2)
    )
    cols = tuple(lin[partner[:, t]] for t in range(2))
    lay = _Layout(coord, partner, coef, lap_map, lap_kappa, coef.sum(axis=1), lin, shared, cols)
    for a in (coord, partner, coef, lap_map, lap_kappa, lay.scale, lin) + shared + cols:
        a.flags.writeable = False
    return lay


def _row_features(u, weight):
    """h^2, omega (p, rows) and kappa for a feature-major block u (p,
    rows) of squared coordinates, with grad h^2 . mu_i = 2 h^2 (G omega)_i
    (G reads omega's first p-1 rows), z_j (grad h^2)_j = 2 h^2 omega_j and
    z . grad h^2 = 2 kappa h^2, all zero where the cap binds. Each row's
    values depend on that row alone, so every row block gets the same bits.

    Product kinds: grad h^2 = 2 h^2 / z_j on every coordinate, so omega
    is all ones and kappa = p. Min kinds: grad h^2 = 2 z_a e_a on the
    argmin a (ties take the lowest index), so omega = e_a and kappa = 1.
    """
    p, nb = u.shape
    hsq = squared_weight(u.T, weight)
    smooth = (hsq < weight.a_c * weight.a_c).astype(float)
    if weight.product_family:
        return hsq, np.broadcast_to(smooth, (p, nb)), p * smooth
    omega = np.zeros((p, nb))
    omega[np.argmin(u, axis=0), np.arange(nb)] = smooth
    return hsq, omega, smooth


# ---------------------------------------------------------------------------
# workspace assembly


@dataclass
class EstimatorWorkspace:
    """Assembled quadratic system for one dataset and weight choice.

    gram is the (q, q) matrix W, and the linear term d splits into the
    Laplacian part, the weight-derivative part, and the shape-coupling
    part (shape_term = -shape_matrix @ (1 + 2 * shape)). The rows z are
    kept for the plug-in covariance pass, which derives each row's weight
    features from them as the assembly did; moment-route workspaces set
    z to None and cannot produce standard errors.
    """

    imap: object
    weight: WeightSpec
    shape: np.ndarray
    n: int
    gram: np.ndarray
    laplacian_term: np.ndarray
    weight_gradient_term: np.ndarray
    shape_matrix: np.ndarray
    z: np.ndarray = None

    @property
    def shape_term(self):
        return -self.shape_matrix @ (1.0 + 2.0 * self.shape)

    @property
    def linear_term(self):
        return self.laplacian_term + self.weight_gradient_term + self.shape_term

    def objective(self, theta):
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape[0] != self.imap.q:
            raise ConfigError("theta length does not match the index map")
        return 0.5 * theta @ self.gram @ theta - theta @ self.linear_term


def _symmetric(mat):
    return 0.5 * (mat + mat.T)


def _system(s, lay, s_uw=None, s_knu=None):
    """W, the Laplacian term, the weight-gradient term and V from the
    pair moments s = mean of h^2 f f' (D x D), s_uw = mean of
    h^2 u_ext omega' and s_knu = mean of h^2 kappa nu. None stands for
    the uncapped product weight: omega = 1 and kappa = p on every row.

    Every term is a gather of s: h^2 u_ext and h^2 nu average to
    s[lin, q] and scale * s[:q, q], nu_i nu_j is scale_i scale_j f_i f_j,
    and mu_i'mu_j adds coef_is coef_jt f_i u_ext[partner_jt] over the
    slots s, t on a shared coordinate. d's row functions are linear in
    u_ext, nu and u_ext omega' once h^2 and kappa are given; V's mean of
    h^2 G_ic is a scatter of s_u through the layout.
    """
    q, p = lay.scale.size, lay.lin.size
    (c0, c1), (r0, r1), (k0, k1) = lay.coef.T, lay.partner.T, lay.coord.T
    s_u, s_nu = s[lay.lin, q], lay.scale * s[:q, q]
    if s_uw is None:
        s_uw, s_knu = np.repeat(s_u[:, None], p - 1, axis=1), p * s_nu
    mu_mu = sum(shared * s[:q, cols] for shared, cols in zip(lay.shared, lay.cols))
    gram = mu_mu - np.outer(lay.scale, lay.scale) * s[:q, :q]
    lap = lay.lap_kappa * s_nu - s_u @ lay.lap_map
    wgrad = -2.0 * (c0 * s_uw[r0, k0] + c1 * s_uw[r1, k1] - s_knu)
    g = np.zeros((q, p))
    np.add.at(g, (np.arange(q)[:, None], lay.coord), lay.coef * s_u[lay.partner])
    return _symmetric(gram), lap, wgrad, g - s_nu[:, None]


def _shape_vector(shape, p):
    """The (p,) shape exponents of a workspace build, zeros for None."""
    shape = np.zeros(p) if shape is None else np.asarray(shape, dtype=float).reshape(-1)
    if shape.shape[0] != p:
        raise ConfigError("shape vector length does not match p")
    if not np.all((shape > -1.0) & np.isfinite(shape)):
        raise ConfigError("every shape parameter must be finite and exceed -1")
    return shape


@_parallel.one_blas_thread()
def build_workspace(z, weight, shape=None, imap=None):
    """One blocked pass over transformed rows z -> EstimatorWorkspace.

    Rows of z must lie on the unit sphere (as sqrt_transform makes them).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or not len(z):
        raise DataError("z must be a 2-d array of at least one transformed row")
    n, p = z.shape
    imap = imap or index_map(p)
    if imap.p != p:
        raise ConfigError("index map does not match data dimension")
    shape = _shape_vector(shape, p)

    q, k = imap.q, p - 1
    lay = _layout(p)

    def term(start, stop):
        u = np.square(z[start:stop].T, order="C")
        hsq, omega, kappa = _row_features(u, weight)
        f = _monomials(u)
        s_uw, s_knu = (hsq * f[q - k :]) @ omega[:-1].T, f[:q] @ (hsq * kappa)
        f *= np.sqrt(hsq)
        return f @ f.T, s_uw, s_knu  # one SYRK of the monomials scaled by h

    zeros = np.zeros((q + 1, q + 1)), np.zeros((p, k)), np.zeros(q)
    s, s_uw, s_knu = _block_sums(n, q + 1, term, *zeros, pooled=True)
    # _system returns gram, laplacian_term, weight_gradient_term, shape_matrix
    system = _system(s / n, lay, s_uw / n, lay.scale * s_knu / n)
    return EstimatorWorkspace(imap, weight, shape, n, *system, z=z)


# ---------------------------------------------------------------------------
# solving and covariance


@dataclass
class FitResult:
    """Estimates with labels, plus enough context to reuse them.

    cov_scaled is the plug-in covariance of sqrt(n) * (theta_hat -
    theta), so standard errors are sqrt(diag(cov_scaled) / n). It is
    None when the estimation route cannot provide one.
    """

    labels: list
    estimates: np.ndarray
    n: int
    condition_number: float
    objective: float
    ridge: float = 0.0
    cov_scaled: np.ndarray = None
    fixed: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def standard_errors(self):
        if self.cov_scaled is None:
            return None
        return np.sqrt(np.diag(self.cov_scaled) / self.n)

    @property
    def z_scores(self):
        se = self.standard_errors
        if se is None:
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(se > 0, self.estimates / se, np.nan)

    def __getitem__(self, label):
        return float(self.estimates[self.labels.index(label)])

    def se(self, label):
        se = self.standard_errors
        return None if se is None else float(se[self.labels.index(label)])

    def to_dict(self):
        out = {
            "labels": list(self.labels),
            "estimates": [float(v) for v in self.estimates],
            "n": int(self.n),
            "condition_number": float(self.condition_number),
            "objective": float(self.objective) if np.isfinite(self.objective) else None,
            "ridge": float(self.ridge),
            "fixed": {k: float(v) for k, v in self.fixed.items()},
            "config": self.config,
        }
        se = self.standard_errors
        out["standard_errors"] = None if se is None else [float(v) for v in se]
        if self.cov_scaled is not None:
            out["cov_scaled"] = [[float(v) for v in row] for row in self.cov_scaled]
        return out


def _solve_psd(mat, rhs, ridge, labels):
    """theta, W^-1 and cond from the unit-diagonal C = s W s, s = diag(W)^-1/2:
    Cholesky tests C, and C^-1 gives W^-1 = s C^-1 s and the scale-free
    1-norm cond of C. Only a singular C (not positive definite, or q eps
    cond >= 1) gets an eigh, to name its near-null direction's labels."""
    qf = mat.shape[0]
    sys = mat + ridge * np.eye(qf) if ridge else mat
    diag = np.diag(sys)
    s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    scaled = sys * np.outer(s, s)
    try:  # Cholesky fails on any diagonal <= 0 too
        np.linalg.cholesky(scaled)
        inv = np.linalg.inv(scaled)
        cond = float(np.linalg.norm(scaled, 1) * np.linalg.norm(inv, 1))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not qf * np.finfo(float).eps * cond < 1.0:
        vec = np.abs(np.linalg.eigh(scaled)[1][:, 0])
        order = np.argsort(vec)[::-1]
        culprits = [labels[i] for i in order[:3] if vec[i] >= 0.2 * vec[order[0]]]
        raise SingularSystemError(
            "quadratic-form matrix is numerically singular; "
            f"near-null combination loads on {', '.join(culprits)}"
            " (add a ridge or drop parameters)",
            null_labels=culprits,
        )
    inv_w = inv * np.outer(s, s)
    return inv_w @ rhs, inv_w, cond


def _normalize_mask(imap, mask):
    if mask is None:
        return np.ones(imap.q, dtype=bool)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape[0] != imap.q:
        raise ConfigError("mask length does not match the index map")
    if not mask.any():
        raise ConfigError("mask leaves no parameters to estimate")
    return mask


@_parallel.one_blas_thread()
def solve(workspace, mask=None, ridge=0.0, with_se=True):
    """Minimize the quadratic objective over the unmasked parameters.

    Parameters held fixed (mask False) are held at zero, so their rows
    and columns of W and d are deleted. ridge >= 0 adds ridge * I to the
    free block.
    """
    if ridge < 0:
        raise ConfigError("ridge must be nonnegative")
    imap = workspace.imap
    mask = _normalize_mask(imap, mask)
    free = np.flatnonzero(mask)
    labels = [imap.labels[i] for i in free]
    rhs = workspace.linear_term[free]
    # W's free block is not kept into the covariance pass, where memory peaks
    theta_f, inv_w, cond = _solve_psd(workspace.gram[np.ix_(free, free)], rhs, ridge, labels)
    theta_full = np.zeros(imap.q)
    theta_full[free] = theta_f

    cov = _sandwich(inv_w, _error_moment(workspace, theta_full, mask)) if with_se else None
    return FitResult(
        labels=labels,
        estimates=theta_f,
        n=workspace.n,
        condition_number=cond,
        objective=workspace.objective(theta_full),
        ridge=float(ridge),
        cov_scaled=cov,
        fixed={imap.labels[i]: 0.0 for i in np.flatnonzero(~mask)},
        config={
            "weight_kind": workspace.weight.kind,
            "a_c": workspace.weight.a_c,
            "shape": [float(v) for v in workspace.shape],
        },
    )


def _error_moment(workspace, theta_full, mask):
    """Second pass: Sigma_0 = mean of (R(z) theta - r(z)) outer products
    over the free block, from two (p-1)-vectors per row.

    Per row, with Theta the symmetric interaction block and b the linear
    part of theta, g = G'theta = 4 Theta u + 2 b and nu'theta = u . g.
    With c = h^2 (nu'theta + sum(1 + 2 shape) + 2 kappa + p + 2) and
    e = h^2 (u g + (1 + 2 shape) + 2 omega + 1) - c u, the residual
    h^2 (G w - nu (nu'theta + sum(1 + 2 shape) + 2 kappa) + laplacian) is
    _statistic_rows(u, e, 2 h^2) times the slot-0 coefficients 4, 4, 2,
    which scale Sigma_0 once at the end (powers of two, so exactly).
    """
    if workspace.z is None:
        raise ConfigError(
            "standard errors need per-observation data; this workspace "
            "was built from moments only (pass with_se=False)"
        )
    imap = workspace.imap
    p, k = imap.p, imap.p - 1
    free = np.flatnonzero(mask)
    pi2 = 1.0 + 2.0 * workspace.shape
    interaction, linear = imap.unpack(theta_full)

    def term(start, stop):
        u = np.square(workspace.z[start:stop].T, order="C")
        hsq, omega, kappa = _row_features(u, workspace.weight)
        u = u[:k]
        g = 4.0 * interaction @ u + 2.0 * linear[:, None]
        c = hsq * (np.einsum("ij,ij->j", u, g) + (pi2.sum() + p + 2.0) + 2.0 * kappa)
        e = hsq * (u * g + (pi2[:k, None] + 1.0) + 2.0 * omega[:-1]) - c * u
        resid = _statistic_rows(u, e, 2.0 * hsq)
        if free.size < imap.q:
            resid = resid[free]
        return (resid @ resid.T,)

    zeros = np.zeros((free.size, free.size))
    (total,) = _block_sums(workspace.n, imap.q, term, zeros, pooled=True)
    fac = _layout(p).coef[free, 0]
    return _symmetric(total) * np.outer(fac, fac) / workspace.n


def _sandwich(inv_w, sigma0):
    """Plug-in covariance W^-1 Sigma_0 W^-1, with the W^-1 of _solve_psd."""
    return inv_w @ sigma0 @ inv_w


@_parallel.one_blas_thread()
def standard_errors(workspace, result, mask=None):
    """Plug-in covariance of sqrt(n) * theta_hat for an existing fit.
    mask marks the fit's free parameters; by default, its labels."""
    imap = workspace.imap
    if mask is None:
        mask = [lab in result.labels for lab in imap.labels]
    mask = _normalize_mask(imap, mask)
    free = np.flatnonzero(mask)
    if free.size != result.estimates.size:
        raise ConfigError(f"mask frees {free.size} parameters; the fit has {result.estimates.size}")
    theta_full = np.zeros(imap.q)
    theta_full[free] = result.estimates
    labels = [imap.labels[i] for i in free]
    inv_w = _solve_psd(workspace.gram[np.ix_(free, free)], np.zeros(free.size), result.ridge, labels)[1]
    return _sandwich(inv_w, _error_moment(workspace, theta_full, mask))


# ---------------------------------------------------------------------------
# user-facing fits


def _as_dataset(data):
    return data if isinstance(data, ContinuousDataset) else ContinuousDataset(data)


def fit_hybrid(
    data,
    shape,
    weight,
    estimate_interaction=True,
    estimate_linear=False,
    ridge=0.0,
    with_se=True,
):
    """Fit interaction and linear parameters with fixed shape exponents.

    Parameters
    ----------
    data : ContinuousDataset or array_like
    shape : array_like (p,)
        Fixed exponents, each > -1 (zeros give the truncated Gaussian).
    weight : WeightSpec
    estimate_interaction, estimate_linear : bool or bool arrays
        Parameters not estimated are held at zero.
    """
    data = _as_dataset(data)
    imap = index_map(data.p)
    spec = ModelSpec(
        family="hybrid",
        p=data.p,
        shape=np.asarray(shape, dtype=float),
        estimate_interaction=estimate_interaction,
        estimate_linear=estimate_linear,
    )
    z = sqrt_transform(data)
    ws = build_workspace(z, weight, shape=spec.shape, imap=imap)
    result = solve(ws, mask=spec.estimation_mask(imap), ridge=ridge, with_se=with_se)
    result.config.update(
        {"family": "hybrid", "estimator": "continuous", "names": list(data.names)}
    )
    return result


def fit_truncated_gaussian(data, weight, estimate_linear=True, ridge=0.0, with_se=True):
    """Hybrid fit with all shape exponents at zero."""
    data = _as_dataset(data)
    result = fit_hybrid(
        data,
        np.zeros(data.p),
        weight,
        estimate_linear=estimate_linear,
        ridge=ridge,
        with_se=with_se,
    )
    result.config["family"] = "truncated-gaussian"
    return result


# ---------------------------------------------------------------------------
# Dirichlet family: log statistics, shape exponents estimated


def _loo_products(u):
    """Leave-one-out products along rows without dividing (zero-safe)."""
    nb, p = u.shape
    left = np.ones((nb, p))
    right = np.ones((nb, p))
    left[:, 1:] = np.cumprod(u[:, :-1], axis=1)
    right[:, :-1] = np.cumprod(u[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return left * right


def _dirichlet_rows(u, weight):
    """Per row (u is (n, p)): h^2, the ratios h^2 / u_j with the singular
    factors cancelled, and the linear term of the log statistics, whose
    weight part -grad h^2 . P(e_j / z_j) is -2 (omega_j h^2 / u_j -
    kappa h^2) in _row_features' terms.

    Off the cap, product kinds take the leave-one-out products, which
    stay exact at zeros, and min kinds take u_a / u_j, with omega's 1 at
    the argmin a and 0 at the other zeros. Where the cap binds no u_j is
    zero, and the ratio is a_c^2 / u_j."""
    hsq, omega, kappa = _row_features(u.T, weight)
    omega = omega.T
    with np.errstate(divide="ignore", invalid="ignore"):
        if weight.product_family:
            ratios = np.where(omega > 0.0, _loo_products(u), hsq[:, None] / u)
        else:
            ratios = np.where(u > 0.0, hsq[:, None] / u, omega)
    wgrad = -2.0 * (ratios * omega - (kappa * hsq)[:, None])
    return hsq, ratios, (u.shape[1] - 2.0) * hsq[:, None] + ratios + wgrad


def fit_dirichlet(data, weight, ridge=0.0, with_se=True):
    """Estimate Dirichlet shape exponents by weighted score matching.

    Returns a FitResult on the shape scale (labels ``shape1 ..``), with
    the plug-in covariance already transformed to that scale.
    """
    data = _as_dataset(data)
    u = data.proportions
    n, p = u.shape
    dead = np.flatnonzero((u == 0.0).all(axis=0))
    if dead.size:
        raise UnidentifiableCategoryError(
            f"category {data.names[dead[0]]!r} is identically zero; "
            "its shape parameter is not identifiable"
        )

    hsq, ratios, lin = _dirichlet_rows(u, weight)
    gram = np.diag(ratios.mean(axis=0)) - hsq.mean() * np.ones((p, p))
    d = lin.mean(axis=0)

    labels = [f"shape{j+1}" for j in range(p)]
    pi_hat, inv_w, cond = _solve_psd(gram, d, ridge, labels)
    beta_hat = 0.5 * (pi_hat - 1.0)

    cov = None
    if with_se:
        resid = ratios * pi_hat[None, :] - hsq[:, None] * pi_hat.sum() - lin
        sigma0 = _symmetric(resid.T @ resid) / n
        cov = 0.25 * _sandwich(inv_w, sigma0)  # delta method for (pi - 1) / 2

    objective = 0.5 * pi_hat @ gram @ pi_hat - pi_hat @ d
    return FitResult(
        labels=labels,
        estimates=beta_hat,
        n=n,
        condition_number=cond,
        objective=objective,
        ridge=float(ridge),
        cov_scaled=cov,
        config={
            "family": "dirichlet",
            "estimator": "dirichlet-score",
            "weight_kind": weight.kind,
            "a_c": weight.a_c,
            "names": list(data.names),
        },
    )


def fit_dirichlet_moments(data):
    """Baseline Dirichlet fit by marginal moment matching.

    The concentration is the average over categories of
    m_j (1 - m_j) / v_j - 1; shapes are concentration * m_j - 1.
    Used as a comparison baseline, not a score-matching route.
    """
    data = _as_dataset(data)
    u = data.proportions
    n, p = u.shape
    if n < 2:
        raise DataError("moment fit needs at least 2 rows")
    means = u.mean(axis=0)
    variances = u.var(axis=0, ddof=1)
    if np.any(means <= 0.0):
        j = int(np.argmax(means <= 0.0))
        raise UnidentifiableCategoryError(
            f"category {data.names[j]!r} has zero mean; moment fit undefined"
        )
    ok = variances > 0.0
    if not ok.any():
        raise DataError("all categories are degenerate; moment fit undefined")
    conc = means[ok] * (1.0 - means[ok]) / variances[ok] - 1.0
    alpha0 = float(conc.mean())
    if alpha0 <= 0.0:
        raise DataError("moment fit produced a nonpositive concentration")
    alpha = alpha0 * means
    labels = [f"shape{j+1}" for j in range(p)]
    return FitResult(
        labels=labels,
        estimates=alpha - 1.0,
        n=n,
        condition_number=1.0,
        objective=float("nan"),
        config={
            "family": "dirichlet",
            "estimator": "dirichlet-moment",
            "names": list(data.names),
        },
    )
