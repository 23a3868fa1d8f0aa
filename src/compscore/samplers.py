"""Samplers for the three model families and multinomial thinning.

All randomness flows from an RngConfig: a top-level seed plus a tuple of
substream indices fed to numpy's SeedSequence, so any component of a
larger run can be reproduced in isolation.

The interaction model has density proportional to
exp(u'Au + b'u) prod u_j^(alpha_j - 1) on the simplex, alpha = shape + 1;
the truncated Gaussian is its alpha = 1 case with A negative definite.
Both are sampled by batch rejection with a certified envelope constant
M, so the acceptance rate is Z / M, Z being the target's unknown
normalising constant (Devroye, Non-Uniform Random Variate Generation
(1986), ch. II.3). The proposal is

* the scaled Dirichlet (Monti, Mateu-Figueras & Pawlowsky-Glahn 2011),
  u = normalise(G / lam) with G_j ~ Gamma(alpha_j) and lam_p = 1, whose
  density is Gamma(P) prod(lam^alpha u^(alpha - 1)) /
  (prod Gamma(alpha_j) (lam'u)^P), P = sum(alpha). The log density ratio
  is f(u) = u'Au + b'u + P log(lam'u), less
  log Gamma(P) - sum log Gamma(alpha_j) + alpha'log lam. With A negative
  semidefinite f is concave on the simplex: damped Newton steps that
  stay inside the simplex climb to a near-maximiser u, and the
  Frank-Wolfe gap max_j g_j - g'u (g the gradient of f at u) added to
  f(u) certifies an upper bound on max f however early they stop.
  Otherwise A is split by eigenvalue sign, A = A- + A+; u'A+u is convex,
  so its maximum on the simplex is max_j (A+)_jj at a vertex, and that
  plus the bound for the concave A- part bounds f. A proposal is kept
  with probability exp(f(u) - bound). lam minimises log M, which is
  convex in log lam: by the minimax theorem it is proportional to
  alpha / u* for the maximiser u* of u'A-u + b'u + alpha'log u, a
  strictly concave function with one interior maximiser, which the same
  climb finds; u* also maximises f at that lam, so the bound there is
  climbed from u* and is tight. A search along the gradient of log M
  instead stalls where the maximiser of f is not unique: with b = 0, at
  lam = 1, A- is singular along A's positive eigenvector, so f is flat
  along it. On the bundled-table fit log M is 2.444 (2.799 at lam = 1),
  and `diagnose` at seed 1 keeps 2.48% of its proposals;
* for the truncated Gaussian, also the matching untruncated Gaussian
  N(mu, Sigma), Sigma = -A^{-1} / 2, which equals the target inside the
  simplex up to the constant
  log M = mu'Sigma^{-1}mu / 2 + (k/2) log 2 pi + log|Sigma| / 2 (k = p - 1);
  a draw is kept when it lies in the simplex. The truncated Gaussian
  takes whichever of its two proposals has the smaller M.

The proposal is built once per spec and cached; it draws nothing, so
the draws depend only on the seed. The README lists what the presets
pick and keep.

Both rejection samplers draw their proposals in chunks of CHUNK rows.
Each proposal batch is split into chunks, and the c-th chunk of a run,
counted across batches, draws from its own stream rng.substream(c).
Chunks run on a shared thread pool with one worker per usable CPU
(numpy releases the interpreter lock while it draws), but the draws
depend only on the seed: neither the pool size nor the BLAS thread
count changes a single bit. Workers transform proposals with einsum,
never a BLAS product: concurrent calls into a threaded BLAS contend
with each other (with a BLAS product, a truncated-Gaussian run took
1.4 times as long on two workers as on one under two OpenBLAS threads),
and the proposals then do not depend on the BLAS library at all. A
worker returns the rows of its chunk that it accepts, and the main
thread keeps the first n of them in chunk order.
"""

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ContinuousDataset,
    CountDataset,
    FAMILY_DIRICHLET,
    FAMILY_TRUNCATED_GAUSSIAN,
    ModelSpec,
)
from .errors import (
    DataError,
    EnvelopeFailureError,
    FamilyError,
    InfeasibleTruncationError,
)

__all__ = [
    "RngConfig",
    "RejectionStats",
    "sample_truncated_gaussian",
    "sample_dirichlet",
    "sample_hybrid",
    "sample_model",
    "sample_multinomial_counts",
]

# give up on a rejection sampler once this many proposals produced
# an acceptance rate below MIN_RATE
PATIENCE = 2_000_000
MIN_RATE = 1e-6
# proposal rows per chunk; chunk c of a run draws from rng.substream(c)
CHUNK = 32_768

_pool = None
_pool_lock = threading.Lock()


def _reset_pool():
    # a forked child has none of its parent's pool threads: work sent to
    # the inherited pool would never run
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _executor():
    """The chunk pool, one worker per usable CPU, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # platforms without CPU affinity
                cpus = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(max_workers=cpus)
        return _pool


@dataclass(frozen=True)
class RngConfig:
    """Seed plus substream path. substream(i) derives an independent
    child stream deterministically.

    The path goes into SeedSequence's spawn_key, matching what repeated
    spawn() calls would produce. Appending the path to the entropy tuple
    instead would make substream(0) collide with its parent, because
    SeedSequence zero-pads short entropy.
    """

    seed: int
    key: tuple = ()

    def generator(self):
        ss = np.random.SeedSequence(
            int(self.seed), spawn_key=tuple(int(k) for k in self.key)
        )
        return np.random.default_rng(ss)

    def substream(self, index):
        return RngConfig(self.seed, tuple(self.key) + (int(index),))


@dataclass
class RejectionStats:
    """Bookkeeping for a rejection run. proposal is "gaussian" or
    "scaled-dirichlet", and log_bound is the log of its certified
    envelope constant M, so log(acceptance_rate) + log_bound estimates
    the log normalising constant of the target."""

    attempted: int
    accepted: int
    proposal: str
    log_bound: float

    @property
    def acceptance_rate(self):
        return self.accepted / self.attempted if self.attempted else 0.0

    def to_dict(self):
        """The stats as a JSON-ready dict, the form the CLI records."""
        return {**asdict(self), "acceptance_rate": self.acceptance_rate}


def _next_batch(remaining, rate_guess):
    est = int(remaining / max(rate_guess, 1e-3) * 1.2) + 64
    return max(4096, min(est, 262_144))


def _rejection(n, rng, propose, error, rate, proposal):
    """The batch loop both rejection samplers share.

    propose(rng, size) draws one chunk and returns the positions and
    rows of the proposals it accepts. The rows are kept in chunk order
    and the run ends at the n-th acceptance: attempted counts the
    proposals through that one. Returns the (n, p) rows and
    RejectionStats. Once PATIENCE proposals give an acceptance rate
    below MIN_RATE, raises error.
    """
    kept = []
    kept_count = 0
    attempted = 0
    chunks = 0
    while kept_count < n:
        batch = _next_batch(n - kept_count, rate)
        sizes = [min(CHUNK, batch - lo) for lo in range(0, batch, CHUNK)]
        subs = [rng.substream(chunks + i) for i in range(len(sizes))]
        chunks += len(sizes)
        if len(sizes) == 1:
            results = [propose(subs[0], sizes[0])]
        else:
            results = _executor().map(propose, subs, sizes)
        for size, (pos, rows) in zip(sizes, results):
            take = min(pos.size, n - kept_count)
            kept.append(rows[:take])
            kept_count += take
            if kept_count == n:
                attempted += int(pos[take - 1]) + 1
                break
            attempted += size
        rate = max(kept_count / attempted, 1e-8)
        if attempted >= PATIENCE and kept_count < attempted * MIN_RATE:
            raise error(f"acceptance rate {kept_count / attempted:.2e} after {attempted} "
                        f"proposals; log envelope constant {proposal.log_bound:.4g}")
    stats = RejectionStats(attempted, n, proposal.name, proposal.log_bound)
    return np.vstack(kept), stats


def _energy(a_k, b_k, ut):
    """u'Au + b'u for each column of ut, the first k coordinates of the
    proposals (one column each). einsum, not a BLAS product: see the
    module docstring."""
    out = np.einsum("ij,jb->ib", a_k, ut)
    out += b_k[:, None]
    out *= ut
    return out.sum(axis=0)


def _climb(value, derivatives, u):
    """Damped Newton ascent from the interior point u of a concave
    function on the simplex, given value(v) and derivatives(v), its
    gradient g and Hessian H; returns the last point and its value.

    Each step d maximises g'd + d'Hd / 2 subject to sum(d) = 0 (the
    least-squares step where the KKT matrix is singular), goes at most
    0.99 of the way to the boundary, so u stays interior, and backtracks
    until it rises by an Armijo share of g'd. The ascent stops once the
    Frank-Wolfe gap max_j g_j - g'u is at rounding level, or after a step
    whose rise is below rounding: no later step would show in f either,
    and near a maximiser on the boundary, which the steps only approach,
    each goes about a hundredth as far as the last.
    """
    f = value(u)
    kkt = np.ones((u.size + 1, u.size + 1))
    kkt[-1, -1] = 0.0
    # the presets take at most 6 steps, random specs with p <= 10 at most 7
    for _ in range(100):
        g, hess = derivatives(u)
        if g.max() - g @ u <= 1e-13 * (1.0 + np.abs(g).max()):
            break
        kkt[:-1, :-1] = hess
        rhs = np.append(-g, 0.0)
        try:
            d = np.linalg.solve(kkt, rhs)[:-1]
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:-1]
        rise = g @ d
        shrink = d < 0.0
        t = min(1.0, 0.99 * (-u[shrink] / d[shrink]).min()) if shrink.any() else 1.0
        while True:
            trial = u + t * d
            f_trial = value(trial)
            # a rise below rounding cannot show in f, nor can a later one:
            # take the step and stop
            last = not t * rise > 1e-12 * (1.0 + abs(f))
            if last or f_trial >= f + 1e-4 * t * rise:
                break
            t *= 0.5
        u, f = trial, f_trial
        if last:
            break
    return u, f


def _log_ratio_bound(a, b, lam, total, u=None):
    """A certified upper bound on f(u) = u'Au + b'u + total log(lam'u)
    over the simplex, and the point u it was found at.

    a is (p, p) negative semidefinite and b is (p,), lam > 0 and
    total > 0, so f is concave; _climb ascends it from u, by default the
    centre of the simplex. By concavity, every v in the simplex has
    f(v) <= f(u) + g'(v - u) <= f(u) + max_j g_j - g'u, g the gradient at
    u; adding that Frank-Wolfe gap makes the bound hold however early
    the ascent stops, and wherever the maximiser lies: a maximiser on
    the boundary, which the interior ascent only approaches, loosens the
    bound but never breaks it. A relative slack of 1e-12 covers
    rounding.
    """
    u = np.full(lam.size, 1.0 / lam.size) if u is None else u

    def derivatives(v):
        s = lam @ v
        return 2.0 * (a @ v) + b + total * lam / s, 2.0 * a - total * np.outer(lam, lam) / (s * s)

    u, f = _climb(lambda v: v @ a @ v + b @ v + total * math.log(lam @ v), derivatives, u)
    g = derivatives(u)[0]
    bound = f + (g.max() - g @ u)
    return bound + 1e-12 * (1.0 + abs(bound)), u


def _scaled_dirichlet_scale(a, b, alpha):
    """The scale lam (lam_p = 1) of the scaled Dirichlet with shapes
    alpha, and the certified bound on max f at that lam (see
    _log_ratio_bound, total = sum(alpha)).

    The log envelope constant is max f - alpha'log lam plus a constant.
    f is concave in u, and total log(lam'u) - alpha'log lam is convex in
    eta = log lam, so by the minimax theorem the smallest constant is
    the maximum over the simplex of u'Au + b'u + alpha'log u, plus a
    constant, and it is reached at lam proportional to alpha / u* for
    that maximiser u*: there the gradient of f equals that of the dual,
    so u* maximises f too. The dual is strictly concave (a negative
    semidefinite, alpha > 0), so u* is unique and interior, and _climb
    finds it from alpha / sum(alpha). Searching eta by steps along the
    gradient of the constant instead stalls where the maximiser of f is
    not unique, as it is at lam = 1 with b = 0 and A- singular. eta is
    rounded to 1e-8, so rounding noise cannot change the proposals; the
    bound at the rounded lam is climbed from u*, next to its maximiser.
    """
    u, _ = _climb(
        lambda v: v @ a @ v + b @ v + alpha @ np.log(v),
        lambda v: (2.0 * (a @ v) + b + alpha / v, 2.0 * a - np.diag(alpha / (v * v))),
        alpha / alpha.sum(),
    )
    eta = np.log(alpha / u)
    lam = np.exp(np.round(eta - eta[-1], 8))
    return lam, _log_ratio_bound(a, b, lam, alpha.sum(), u)[0]


class _Proposal(NamedTuple):
    """A proposal: its name, the log of its envelope constant M, and for
    the scaled Dirichlet its shapes, its scale and the bound on max f."""

    name: str
    log_bound: float
    alpha: np.ndarray = None
    lam: np.ndarray = None
    f_bound: float = None


def _concave_split(a_k):
    """The full (p, p) A- and the bound max_j (A+)_jj on u'A+u over the
    simplex, for the split A = A- + A+ by eigenvalue sign of the (k, k)
    block a_k. A without a positive eigenvalue is left whole."""
    k = a_k.shape[0]
    a = np.zeros((k + 1, k + 1))
    a[:k, :k] = a_k
    evals, evecs = np.linalg.eigh(a_k)
    if evals[-1] <= 0.0:
        return a, 0.0
    a_plus = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    a_plus = (a_plus + a_plus.T) / 2.0
    a[:k, :k] -= a_plus
    return a, np.diag(a_plus).max()


def _scaled_dirichlet(a_k, b_k, alpha):
    """The scaled-Dirichlet proposal with shapes alpha for the interaction
    model with this (k, k) interaction and (k,) linear block."""
    a, lift = _concave_split(a_k)
    lam, f_bound = _scaled_dirichlet_scale(a, np.append(b_k, 0.0), alpha)
    f_bound += lift
    for arr in (alpha, lam):
        arr.setflags(write=False)  # cached and shared by every caller
    log_beta = sum(math.lgamma(x) for x in alpha) - math.lgamma(alpha.sum())
    log_bound = f_bound + log_beta - (alpha * np.log(lam)).sum()
    return _Proposal("scaled-dirichlet", float(log_bound), alpha, lam, float(f_bound))


def _tg_candidates(p, interaction, linear):
    """The Gaussian and the scaled-Dirichlet proposal for the truncated
    Gaussian with these (k, k) interaction and (k,) linear bytes."""
    k = p - 1
    a_k = np.frombuffer(interaction).reshape(k, k)
    b_k = np.frombuffer(linear)
    low = np.linalg.cholesky(-a_k)
    mu = np.linalg.solve(low.T, np.linalg.solve(low, b_k)) / 2.0
    # Sigma^{-1} mu = b and |Sigma| = 2^{-k} / |-A|
    log_gauss = b_k @ mu / 2.0 + k * math.log(math.pi) / 2.0 - np.log(np.diag(low)).sum()
    return _Proposal("gaussian", float(log_gauss)), _scaled_dirichlet(a_k, b_k, np.ones(p))


@functools.lru_cache(maxsize=32)
def _proposal(p, interaction, linear, shape=None):
    """The proposal for the model with these (k, k) interaction, (k,)
    linear and (p,) shape bytes, built once per spec: the scaled
    Dirichlet with shapes shape + 1, or for the truncated Gaussian
    (shape None) whichever of its candidates has the smaller M."""
    if shape is None:
        return min(_tg_candidates(p, interaction, linear), key=lambda c: c.log_bound)
    a_k = np.frombuffer(interaction).reshape(p - 1, p - 1)
    return _scaled_dirichlet(a_k, np.frombuffer(linear), np.frombuffer(shape) + 1.0)


def _scaled_dirichlet_proposer(a_k, b_k, proposal):
    """The propose function of a scaled-Dirichlet proposal for _rejection:
    a proposal u is kept when its coin is at most exp(f(u) - bound)."""
    alpha, lam, f_bound = proposal.alpha, proposal.lam, proposal.f_bound
    p, k = alpha.size, alpha.size - 1
    total = alpha.sum()

    def propose(sub, size):
        # one column of gamma variates per proposal, drawn category by category
        gen = sub.generator()
        g = np.empty((p, size))
        for j in range(p):
            gen.standard_gamma(alpha[j], size, out=g[j])
        coins = gen.uniform(size=size)
        g_sum = g.sum(axis=0)
        # in place: g becomes w = g / lam, then u = w / sum(w)
        g /= lam[:, None]
        w_sum = g.sum(axis=0)
        g /= w_sum
        # lam'u = sum(g) / sum(w)
        expo = _energy(a_k, b_k, g[:k]) + total * np.log(g_sum / w_sum)
        pos = np.flatnonzero(coins <= np.exp(expo - f_bound))
        return pos, g[:, pos].T

    return propose


def _sample_truncated_gaussian(spec, n, rng):
    """sample_truncated_gaussian, plus its RejectionStats."""
    if spec.family != FAMILY_TRUNCATED_GAUSSIAN:
        raise FamilyError("spec must be a truncated-Gaussian model")
    mu, sigma = spec.gaussian_moments()  # FamilyError unless negative definite
    n = int(n)
    if n < 1:
        raise DataError("need at least one draw")
    p, k = spec.p, spec.p - 1
    a_k = np.ascontiguousarray(spec.interaction, dtype=float)
    b_k = np.ascontiguousarray(spec.linear, dtype=float)
    proposal = _proposal(p, a_k.tobytes(), b_k.tobytes())

    if proposal.name == "gaussian":
        chol = np.linalg.cholesky(sigma)

        def propose(sub, size):
            # one row of normals per proposal, transformed into one column each
            draw = np.einsum("ij,bj->ib", chol, sub.generator().standard_normal((size, k)))
            draw += mu[:, None]
            pos = np.flatnonzero((draw >= 0.0).all(axis=0) & (draw.sum(axis=0) <= 1.0))
            rows = np.empty((pos.shape[0], p))
            rows[:, :-1] = draw[:, pos].T
            rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
            return pos, rows

    else:
        propose = _scaled_dirichlet_proposer(a_k, b_k, proposal)
    u, stats = _rejection(n, rng, propose, InfeasibleTruncationError, 0.5, proposal)
    return ContinuousDataset(u), stats


def sample_truncated_gaussian(spec, n, rng):
    """Rejection sampling of the zero-shape interaction model.

    Proposes from the matching Gaussian or from a scaled Dirichlet,
    whichever has the smaller certified envelope (see the module
    docstring). Raises InfeasibleTruncationError when fewer than a
    MIN_RATE share of PATIENCE proposals is kept.
    """
    return _sample_truncated_gaussian(spec, n, rng)[0]


def sample_dirichlet(spec_or_shape, n, rng):
    """Exact Dirichlet draws with parameters shape + 1; a raw shape is
    checked as the shape of a Dirichlet ModelSpec."""
    spec = spec_or_shape
    if not isinstance(spec, ModelSpec):
        spec = ModelSpec(family=FAMILY_DIRICHLET, p=np.size(spec), shape=np.ravel(spec))
    if spec.family != FAMILY_DIRICHLET:
        raise FamilyError("spec must be a dirichlet model")
    n = int(n)
    if n < 1:
        raise DataError("need at least one draw")
    gen = rng.generator()
    u = gen.dirichlet(spec.shape + 1.0, size=n)
    return ContinuousDataset(u)


def sample_hybrid(spec, n, rng):
    """Rejection sampling of the interaction model from the scaled
    Dirichlet with shapes shape + 1 and a certified envelope (see the
    module docstring).

    Returns (dataset, RejectionStats). Raises EnvelopeFailureError when
    fewer than a MIN_RATE share of PATIENCE proposals is kept.
    """
    n = int(n)
    if n < 1:
        raise DataError("need at least one draw")
    a_k = np.ascontiguousarray(spec.interaction, dtype=float)
    b_k = np.ascontiguousarray(spec.linear, dtype=float)
    shape = np.ascontiguousarray(spec.shape, dtype=float)
    proposal = _proposal(spec.p, a_k.tobytes(), b_k.tobytes(), shape.tobytes())
    propose = _scaled_dirichlet_proposer(a_k, b_k, proposal)
    u, stats = _rejection(n, rng, propose, EnvelopeFailureError, 0.25, proposal)
    return ContinuousDataset(u), stats


def sample_model(spec, n, rng, return_stats=False):
    """Family dispatch. Stats are None for the exact Dirichlet sampler
    and RejectionStats for the two rejection samplers."""
    if spec.family == FAMILY_TRUNCATED_GAUSSIAN:
        data, stats = _sample_truncated_gaussian(spec, n, rng)
    elif spec.family == FAMILY_DIRICHLET:
        data, stats = sample_dirichlet(spec, n, rng), None
    else:
        data, stats = sample_hybrid(spec, n, rng)
    return (data, stats) if return_stats else data


def sample_multinomial_counts(latent, totals, rng):
    """Draw count rows x_i ~ Multinomial(m_i, u_i) from latent rows.

    Sequential conditional binomials, vectorized over rows. The caller
    keeps the latent dataset; nothing is lost by thinning.
    """
    u = latent.proportions
    n, p = u.shape
    m = np.broadcast_to(np.asarray(totals, dtype=np.int64), (n,)).copy()
    if np.any(m < 1):
        raise DataError("every total must be at least 1")
    gen = rng.generator()
    x = np.zeros((n, p), dtype=np.int64)
    rem_m = m.copy()
    rem_p = np.ones(n)
    for j in range(p - 1):
        safe = rem_p > 0.0
        pj = np.where(safe, u[:, j] / np.where(safe, rem_p, 1.0), 0.0)
        pj = np.clip(pj, 0.0, 1.0)
        x[:, j] = gen.binomial(rem_m, pj)
        rem_m = rem_m - x[:, j]
        rem_p = rem_p - u[:, j]
    x[:, p - 1] = rem_m
    return CountDataset(x, totals=m, names=latent.names)
