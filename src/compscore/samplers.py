"""Samplers for the three model families and multinomial thinning.
sample_model is the one way in; sample_dirichlet is its shorthand for a
raw Dirichlet shape.

All randomness flows from an RngConfig: a top-level seed plus a tuple of
substream indices fed to numpy's SeedSequence, so any component of a
larger run can be reproduced in isolation.

The interaction model has density proportional to
exp(u'Au + b'u) prod u_j^(alpha_j - 1) on the simplex, alpha = shape + 1;
the truncated Gaussian is its alpha = 1 case with A negative definite.
Both are sampled by one batch rejection loop with a certified envelope
constant M, so the acceptance rate is Z / M, Z being the target's unknown
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
  so on the simplex it is at most the chord c'u, c_j = (A+)_jj (Jensen:
  u is a convex combination of the vertices, where u'A+u = c_j), never
  more than the constant max_j c_j. With c folded into b the bounded
  function u'A-u + (b + c)'u + P log(lam'u) is concave, and its bound
  bounds f. A proposal is kept with probability exp(f(u) - bound). lam
  minimises log M, which is convex in log lam: by the minimax theorem it
  is proportional to alpha / u* for the maximiser u* of
  u'A-u + (b + c)'u + alpha'log u, a strictly concave function with one
  interior maximiser, which the same climb finds; u* also maximises the
  bounded function at that lam, so the bound there is climbed from u*
  and is tight. A search along the gradient of log M instead stalls
  where that maximiser is not unique: under the constant bound, with
  b = 0 and lam = 1, A- is singular along A's positive eigenvector, so
  the function is flat along it (the README gives log M on the bundled
  table's fit). Gamma variates below shape 1 are drawn as Gamma(alpha_j + 1) times
  U^(1 / alpha_j), U uniform (Marsaglia & Tsang 2000), which is cheaper
  than numpy's standard_gamma there (see _gamma_variates);
* for the truncated Gaussian, also the matching untruncated Gaussian
  N(mu, Sigma), Sigma = -A^{-1} / 2, which equals the target inside the
  simplex up to the constant
  log M = mu'Sigma^{-1}mu / 2 + (k/2) log 2 pi + log|Sigma| / 2 (k = p - 1);
  a draw is kept when it lies in the simplex. The truncated Gaussian
  takes whichever of its two proposals has the smaller M.

Each spec's proposal, its draw included, is built once and cached;
building it draws nothing, so the draws depend only on the seed. The
README lists what the presets pick and keep.

The loop draws its proposals in chunks of CHUNK rows.
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
import logging
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ContinuousDataset,
    CountDataset,
    FAMILY_DIRICHLET,
    FAMILY_TRUNCATED_GAUSSIAN,
    ModelSpec,
)
from .errors import (
    ConfigError,
    DataError,
    EnvelopeFailureError,
    FamilyError,
    InfeasibleTruncationError,
)

__all__ = [
    "RngConfig",
    "RejectionStats",
    "sample_dirichlet",
    "sample_model",
    "sample_multinomial_counts",
]

logger = logging.getLogger(__name__)

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

    def __post_init__(self):
        # SeedSequence takes non-negative integers; int() would truncate 3.9 and take True as 1
        path = (self.seed, *self.key)
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0 for v in path):
            raise ConfigError(
                f"seeds and substream indices must be non-negative integers, got seed "
                f"{self.seed!r} and substream path {tuple(self.key)!r}"
            )

    def generator(self):
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=tuple(self.key)))

    def substream(self, index):
        return RngConfig(self.seed, tuple(self.key) + (index,))


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


def _rejection(n, rng, proposal, error, rate):
    """The batch loop of the interaction sampler, for either family.

    proposal.propose(sub, size) draws one chunk from the stream sub and
    returns the positions and rows of the proposals it accepts. The rows
    are kept in chunk order and the run ends at the n-th acceptance:
    attempted counts the proposals through that one. rate is the first
    guess of the acceptance rate, which sizes the first batch. Returns
    the (n, p) rows and RejectionStats. Once PATIENCE proposals give an
    acceptance rate below MIN_RATE, raises error.
    """
    kept = []
    kept_count = 0
    attempted = 0
    chunks = 0
    while kept_count < n:
        batch = _next_batch(n - kept_count, rate)
        sizes = [min(CHUNK, batch - lo) for lo in range(0, batch, CHUNK)]
        subs = [rng.substream(chunks + i) for i in range(len(sizes))]
        if len(sizes) == 1:
            results = [proposal.propose(subs[0], sizes[0])]
        else:
            results = _executor().map(proposal.propose, subs, sizes)
        for size, (pos, rows) in zip(sizes, results):
            take = min(pos.size, n - kept_count)
            kept.append(rows[:take])
            kept_count += take
            if kept_count == n:
                attempted += int(pos[take - 1]) + 1
                break
            attempted += size
        rate = max(kept_count / attempted, 1e-8)
        if not chunks and kept_count < n:  # a long run says so before it ends
            logger.info("%s proposals: %d of %d kept (acceptance %.3g), about %.3g projected "
                        "for %d rows", proposal.name, kept_count, attempted,
                        kept_count / attempted, n / rate, n)
        chunks += len(sizes)
        if attempted >= PATIENCE and kept_count < attempted * MIN_RATE:
            raise error(f"acceptance rate {kept_count / attempted:.2e} after {attempted} "
                        f"proposals; log envelope constant {proposal.log_bound:.4g}")
    stats = RejectionStats(attempted, n, proposal.name, proposal.log_bound)
    return np.vstack(kept), stats


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
    """A proposal: its name, the log of its envelope constant M, its
    draw propose(sub, size) (see _rejection), and for the scaled
    Dirichlet its scale and the bound on max f."""

    name: str
    log_bound: float
    propose: Callable
    lam: np.ndarray = None
    f_bound: float = None


def _concave_split(a_k):
    """The full (p, p) A- and the chord vector c, c_j = (A+)_jj and
    c_p = 0, for the split A = A- + A+ by eigenvalue sign of the (k, k)
    block a_k. u'A+u is convex and u is a convex combination of the
    vertices e_j, where it equals c_j, so u'A+u <= c'u on the simplex
    (Jensen): a linear bound, tight at the vertices and never above the
    constant max_j c_j, that folds into b and leaves f concave. A
    without a positive eigenvalue is left whole, with c = 0."""
    k = a_k.shape[0]
    a = np.zeros((k + 1, k + 1))
    a[:k, :k] = a_k
    chord = np.zeros(k + 1)
    evals, evecs = np.linalg.eigh(a_k)
    if evals[-1] <= 0.0:
        return a, chord
    a_plus = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    a_plus = (a_plus + a_plus.T) / 2.0
    a[:k, :k] -= a_plus
    chord[:k] = np.diag(a_plus)
    return a, chord


def _gamma_variates(gen, alpha, out, scratch):
    """Fill row j of out with Gamma(alpha_j) variates from the Generator
    gen, category by category; scratch is a row of out's length.

    numpy's standard_gamma takes five to eight times as long per variate
    below shape 1 as at shape 1. There a Gamma(alpha_j + 1) variate times
    U^(1 / alpha_j), U uniform on (0, 1], is Gamma(alpha_j) (Marsaglia &
    Tsang 2000); U^(1 / alpha_j) is drawn as exp(-E / alpha_j), E a
    standard exponential variate, in scratch.
    """
    for j, a in enumerate(alpha):
        if a < 1.0:
            gen.standard_gamma(a + 1.0, out=out[j])
            gen.standard_exponential(out=scratch)
            scratch *= -1.0 / a
            np.exp(scratch, out=scratch)
            out[j] *= scratch
        else:
            gen.standard_gamma(a, out=out[j])


def _scaled_dirichlet(a_k, b_k, alpha):
    """The scaled-Dirichlet proposal with shapes alpha for the interaction
    model with this (k, k) interaction and (k,) linear block. A proposal
    u is kept when its coin is at most exp(f(u) - bound)."""
    a, chord = _concave_split(a_k)
    lam, f_bound = _scaled_dirichlet_scale(a, np.append(b_k, 0.0) + chord, alpha)
    lam.setflags(write=False)  # cached and shared by every caller
    log_beta = sum(math.lgamma(x) for x in alpha) - math.lgamma(alpha.sum())
    log_bound = f_bound + log_beta - (alpha * np.log(lam)).sum()
    p, k = alpha.size, alpha.size - 1
    total = alpha.sum()

    def propose(sub, size):
        # one column of gamma variates per proposal, drawn category by
        # category; the coins' row is the boost's scratch until it is drawn
        gen = sub.generator()
        g = np.empty((p, size))
        coins = np.empty(size)
        _gamma_variates(gen, alpha, g, coins)
        gen.random(out=coins)
        g_sum = g.sum(axis=0)
        # in place: g becomes w = g / lam, then u = w / sum(w)
        g /= lam[:, None]
        w_sum = g.sum(axis=0)
        g /= w_sum
        # u'Au + b'u by einsum, never a BLAS product (see the module docstring). Adding
        # P log(lam'u) in place, or before the sum, took 1-6 MB more peak RSS (1e5 model1 rows)
        expo = np.einsum("ij,jb->ib", a_k, g[:k])
        expo += b_k[:, None]
        expo *= g[:k]
        expo = expo.sum(axis=0)
        expo = expo + total * np.log(g_sum / w_sum)  # lam'u = sum(g) / sum(w)
        pos = np.flatnonzero(coins <= np.exp(expo - f_bound))
        return pos, g[:, pos].T

    return _Proposal("scaled-dirichlet", float(log_bound), propose, lam, float(f_bound))


def _gaussian(a_k, b_k):
    """The untruncated-Gaussian proposal N(mu, Sigma), Sigma = -A^{-1} / 2,
    for the truncated Gaussian with this (k, k) interaction and (k,)
    linear block; a draw is kept when it lies in the simplex. Raises
    FamilyError unless A is negative definite."""
    k = b_k.size
    try:
        low = np.linalg.cholesky(-a_k)
    except np.linalg.LinAlgError:
        raise FamilyError("a truncated Gaussian's interaction must be negative definite") from None
    mu = np.linalg.solve(low.T, np.linalg.solve(low, b_k)) / 2.0
    # Sigma^{-1} mu = b and |Sigma| = 2^{-k} / |-A|
    log_bound = b_k @ mu / 2.0 + k * math.log(math.pi) / 2.0 - np.log(np.diag(low)).sum()
    # the draws take mu and Sigma from the explicit inverse, which fixes their bits
    inv = np.linalg.solve(low.T, np.linalg.solve(low, np.eye(k)))
    mean = 0.5 * inv @ b_k
    chol = np.linalg.cholesky(0.5 * inv)

    def propose(sub, size):
        # one row of normals per proposal, transformed into one column each
        draw = np.einsum("ij,bj->ib", chol, sub.generator().standard_normal((size, k)))
        draw += mean[:, None]
        pos = np.flatnonzero((draw >= 0.0).all(axis=0) & (draw.sum(axis=0) <= 1.0))
        rows = np.empty((pos.shape[0], k + 1))
        rows[:, :-1] = draw[:, pos].T
        rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
        return pos, rows

    return _Proposal("gaussian", float(log_bound), propose)


@functools.lru_cache(maxsize=32)
def _proposal(p, interaction, linear, shape):
    """The proposal for the model with these (k, k) interaction, (k,)
    linear and (p,) shape bytes, built once per spec: the scaled
    Dirichlet with shapes shape + 1, or for the truncated Gaussian
    (shape None) whichever of the Gaussian and the unit-shape scaled
    Dirichlet has the smaller M."""
    a_k = np.frombuffer(interaction).reshape(p - 1, p - 1)
    b_k = np.frombuffer(linear)
    if shape is not None:
        return _scaled_dirichlet(a_k, b_k, np.frombuffer(shape) + 1.0)
    candidates = (_gaussian(a_k, b_k), _scaled_dirichlet(a_k, b_k, np.ones(p)))
    return min(candidates, key=lambda c: c.log_bound)


def _sample_interaction(spec, n, rng):
    """Rejection sampling of either interaction family from its cached
    proposal; the family sets the shape bytes, the error and the first
    rate guess."""
    if spec.family == FAMILY_TRUNCATED_GAUSSIAN:
        shape, error, rate = None, InfeasibleTruncationError, 0.5
    else:
        shape, error, rate = spec.shape.tobytes(), EnvelopeFailureError, 0.25
    # ModelSpec holds float64 arrays, and tobytes() is in C order
    proposal = _proposal(spec.p, spec.interaction.tobytes(), spec.linear.tobytes(), shape)
    u, stats = _rejection(n, rng, proposal, error, rate)
    return ContinuousDataset(u), stats


def sample_dirichlet(spec_or_shape, n, rng):
    """sample_model for a Dirichlet ModelSpec or its raw shape, which is
    checked as the shape of a Dirichlet ModelSpec."""
    spec = spec_or_shape
    if not isinstance(spec, ModelSpec):
        spec = ModelSpec(family=FAMILY_DIRICHLET, p=np.size(spec), shape=np.ravel(spec))
    if spec.family != FAMILY_DIRICHLET:
        raise FamilyError("spec must be a dirichlet model")
    return sample_model(spec, n, rng)


def sample_model(spec, n, rng, return_stats=False):
    """n rows of the model spec from the stream rng, and with
    return_stats their RejectionStats (None for the exact Dirichlet
    draws, parameters shape + 1). The interaction families raise
    InfeasibleTruncationError (truncated Gaussian) or
    EnvelopeFailureError (hybrid) when fewer than a MIN_RATE share of
    PATIENCE proposals is kept, and a truncated Gaussian whose A is not
    negative definite raises FamilyError."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise DataError(f"the number of draws must be an integer of at least 1, got {n!r}")
    n = int(n)
    if spec.family == FAMILY_DIRICHLET:
        data, stats = ContinuousDataset(rng.generator().dirichlet(spec.shape + 1.0, size=n)), None
    else:
        data, stats = _sample_interaction(spec, n, rng)
    return (data, stats) if return_stats else data


def sample_multinomial_counts(latent, totals, rng):
    """Draw count rows x_i ~ Multinomial(m_i, u_i) from latent rows.

    Sequential conditional binomials, vectorized over rows. The caller
    keeps the latent dataset; nothing is lost by thinning.
    """
    u = latent.proportions
    n, p = u.shape
    m = np.asarray(totals)
    if m.dtype.kind not in "iu" or m.ndim > 1 or m.size not in (1, n):
        raise DataError(f"totals must be one integer or {n}, one per row, not {m.dtype} {m.shape}")
    m = np.broadcast_to(m.astype(np.int64), (n,)).copy()
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
