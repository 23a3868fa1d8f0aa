"""Samplers for the three model families and multinomial thinning.

All randomness flows from an RngConfig: a top-level seed plus a tuple of
substream indices fed to numpy's SeedSequence, so any component of a
larger run can be reproduced in isolation.

The truncated Gaussian, density proportional to exp(u'Au + b'u) on the
simplex with A negative definite, is sampled by batch rejection from
one of two proposals, whichever has the smaller envelope constant M
(so the larger acceptance rate Z / M, Z being the target's unknown
normalising constant); Devroye, Non-Uniform Random Variate Generation
(1986), ch. II.3:

* the matching untruncated Gaussian N(mu, Sigma), Sigma = -A^{-1} / 2,
  which equals the target inside the simplex up to the constant
  log M = mu'Sigma^{-1}mu / 2 + (k/2) log 2 pi + log|Sigma| / 2 (k = p - 1);
  a draw is kept when it lies in the simplex;
* the scaled Dirichlet with unit shapes, u = normalise(E / lam) with
  E_j ~ Exp(1) and lam_p = 1, whose density is
  Gamma(p) prod(lam) / (lam'u)^p. The log density ratio is
  f(u) = u'Au + b'u + p log(lam'u), less log Gamma(p) + sum log lam,
  and f is concave on the simplex, so max f is a small concave problem.
  Newton steps on the faces of the simplex find a near-maximiser u, and
  the Frank-Wolfe gap max_j g_j - g'u (g the gradient of f at u) added
  to f(u) certifies an upper bound however early they stop. A proposal
  is kept with probability exp(f(u) - bound). lam is chosen by damped
  steps that lower log M, which is convex in log lam.

The choice is made once per (p, A, b) and cached; it draws nothing, so
the draws depend only on the seed. Both envelopes are certified bounds,
so the shared rejection loop runs with envelope 1 and no warm-up, and
its envelope-raising branch only guards against rounding. Among the
presets the Gaussian wins for model4 and model5 (their draws are those
of the Gaussian-only sampler of earlier versions, bit for bit), and the
scaled Dirichlet for model3 (so also model15) and model6, which keep
38% and 9.7% of their proposals instead of 27% and 1.7%.

The general interaction model is sampled by rejection from its
Dirichlet base with an empirically updated envelope constant: whenever
a proposal's density ratio exceeds the current envelope, the envelope
is raised to 1.1 times that ratio and sampling continues, after a fixed
warm-up of discarded proposals. The envelope trace is kept for
diagnosis.

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
and the proposals then do not depend on the BLAS library at all.

A worker returns only the rows of its chunk that can matter, and the
main thread then accepts them in chunk order, exactly as if it had
walked every proposal. A worker keeps the rows with
coin <= ratio / env0, env0 being the envelope when the chunk was sent
out. The envelope only grows, so every other row has
ratio < coin * env0 <= env: it can neither be accepted later nor raise
the envelope. The Gaussian proposal's ratio is 1 inside the simplex, so
its workers keep exactly the draws inside the simplex.
"""

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
    """Bookkeeping for a rejection run. proposal is "gaussian",
    "scaled-dirichlet" or "dirichlet"; log_bound is the log of the
    certified envelope constant M of the truncated Gaussian's proposal
    (its acceptance rate is Z / M), and None for the empirical envelope
    of the interaction model. envelope_trace holds every value the
    envelope constant took, first to last."""

    attempted: int
    accepted: int
    envelope: float = 1.0
    envelope_updates: int = 0
    envelope_trace: list = None
    proposal: str = None
    log_bound: float = None

    @property
    def acceptance_rate(self):
        return self.accepted / self.attempted if self.attempted else 0.0

    def to_dict(self):
        """The stats as a JSON-ready dict, the form the CLI records."""
        return {
            "proposal": self.proposal,
            "log_bound": self.log_bound,
            "attempted": self.attempted,
            "accepted": self.accepted,
            "acceptance_rate": self.acceptance_rate,
            "envelope": self.envelope,
            "envelope_updates": self.envelope_updates,
            "envelope_trace": self.envelope_trace,
        }


def _next_batch(remaining, rate_guess):
    est = int(remaining / max(rate_guess, 1e-3) * 1.2) + 64
    return max(4096, min(est, 262_144))


def _rejection(
    n, rng, propose, fail, rate, proposal, log_bound=None, warmup=0, safety=1.1, envelope=1.0
):
    """The batch loop both rejection samplers share.

    propose(rng, size, env0) draws one chunk and returns the positions,
    rows, density ratios and coins of the proposals that can still be
    accepted or raise an envelope of at least env0. Acceptance runs
    here, in chunk order: a row is kept when coin <= ratio / env and it
    lies past the warm-up, and a ratio above the envelope first raises
    it to safety * ratio. The run ends at the n-th acceptance: attempted
    counts the proposals through that one, and no later proposal raises
    the envelope. Returns the (n, p) rows and RejectionStats, which
    record proposal and log_bound as given.
    Once PATIENCE proposals past the warm-up give an acceptance rate
    below MIN_RATE, raises fail(rate, attempted, envelope, trace).
    """
    env = float(envelope)
    trace = [env]
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
            results = [propose(subs[0], sizes[0], env)]
        else:
            results = _executor().map(propose, subs, sizes, [env] * len(sizes))
        for size, (pos, rows, ratio, coins) in zip(sizes, results):
            start = 0
            m = pos.shape[0]
            while start < m:
                over = ratio[start:] > env
                stop = m if not over.any() else start + int(np.argmax(over))
                if stop > start:
                    seg = slice(start, stop)
                    with np.errstate(invalid="ignore"):
                        acc = coins[seg] <= ratio[seg] / env
                    acc &= pos[seg] + attempted >= warmup
                    hits = np.flatnonzero(acc)[: n - kept_count]
                    kept.append(rows[seg][hits])
                    kept_count += hits.size
                    if kept_count == n:
                        # the run ends at the n-th acceptance
                        size = int(pos[seg][hits[-1]]) + 1
                        break
                if stop < m:
                    env = safety * float(ratio[stop])
                    trace.append(env)
                # stop == start retests the violator against the raised envelope
                start = stop
            attempted += size
            if kept_count == n:
                break
        effective = max(attempted - warmup, 1)
        rate = max(kept_count / effective, 1e-8)
        if effective >= PATIENCE and kept_count < effective * MIN_RATE:
            raise fail(kept_count / effective, attempted, env, trace)
    stats = RejectionStats(
        attempted=attempted,
        accepted=n,
        envelope=env,
        envelope_updates=len(trace) - 1,
        envelope_trace=trace,
        proposal=proposal,
        log_bound=log_bound,
    )
    return np.vstack(kept), stats


def _energy(a_k, b_k, ut):
    """u'Au + b'u for each column of ut, the first k coordinates of the
    proposals (one column each). einsum, not a BLAS product: see the
    module docstring."""
    return ((np.einsum("ij,jb->ib", a_k, ut) + b_k[:, None]) * ut).sum(axis=0)


def _face_newton(a, lam, g, s, face):
    """The Newton step for f (see _log_ratio_bound) within the face of
    the simplex whose coordinates are marked in face: the d maximising
    g'd + d'Hd / 2 subject to sum(d) = 0, with H the Hessian of f and
    s = lam'u. H is negative definite on that subspace."""
    p = lam.size
    idx = np.flatnonzero(face)
    m = idx.size
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * a[np.ix_(idx, idx)] - p * np.outer(lam[idx], lam[idx]) / (s * s)
    kkt[:m, m] = kkt[m, :m] = 1.0
    d = np.zeros(p)
    d[idx] = np.linalg.solve(kkt, np.append(-g[idx], 0.0))[:m]
    return d


def _log_ratio_bound(a, b, lam, u=None):
    """A certified upper bound on f(u) = u'Au + b'u + p log(lam'u) over
    the simplex, and the point u it was found at.

    a is (p, p) negative semidefinite and b is (p,), lam > 0, so f is
    concave. Newton steps on the face of the simplex that holds u (the
    coordinates still positive) climb f, with a ratio test that drops a
    coordinate when it reaches 0 and a backtracking line search. Once
    the face is solved and the largest gradient entry lies off it, that
    coordinate joins the face (at a face optimum its Newton step is
    positive). By concavity, every v in the simplex has
    f(v) <= f(u) + g'(v - u) <= f(u) + max_j g_j - g'u, g the gradient at
    u; adding that Frank-Wolfe gap makes the bound hold however early
    the iteration stops. A relative slack of 1e-12 covers rounding.
    """
    p = lam.size
    u = np.full(p, 1.0 / p) if u is None else u.copy()
    free = u > 0.0

    def value(v):
        return v @ a @ v + b @ v + p * math.log(lam @ v)

    def gradient(v):
        return 2.0 * (a @ v) + b + p * lam / (lam @ v)

    f = value(u)
    # the presets take at most 7 steps, random specs with p <= 10 at most
    # about 20; an early stop only loosens the bound
    for _ in range(100):
        g = gradient(u)
        gu = g @ u
        gap = g.max() - gu
        tol = 1e-13 * (1.0 + np.abs(g).max())
        if gap <= tol:
            break
        s = lam @ u
        j = int(np.argmax(g))
        d = None
        if not free[j] and g[free].max() - gu <= max(1e-3 * gap, tol):
            grown = free.copy()
            grown[j] = True
            d = _face_newton(a, lam, g, s, grown)
            if d[j] > 0.0:
                free = grown
            else:
                d = None
        if d is None:
            d = _face_newton(a, lam, g, s, free)
        rise = g @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d < 0.0, -u / d, np.inf)
        block = int(np.argmin(room))
        t = min(1.0, room[block])
        while True:
            trial = u + t * d
            if t == room[block]:
                trial[block] = 0.0
            trial[trial < 1e-14] = 0.0
            trial /= trial.sum()
            f_trial = value(trial)
            # a rise below rounding cannot show in f: take the Newton step
            if f_trial >= f + 1e-4 * t * rise or rise <= 1e-12 * (1.0 + abs(f)):
                break
            t *= 0.5
            if t < 1e-10:
                trial = None
                break
        if trial is None:
            break
        free &= trial > 0.0
        u, f = trial, f_trial
    g = gradient(u)
    bound = f + (g.max() - g @ u)
    return bound + 1e-12 * (1.0 + abs(bound)), u


def _scaled_dirichlet_scale(a, b):
    """The scale lam (lam_p = 1) of the unit-shape scaled Dirichlet, and
    the certified bound on max f at that lam (see _log_ratio_bound).

    The log envelope constant is max f - sum(log lam) - log Gamma(p),
    convex in eta = log lam: a maximum of log-sum-exp terms less a
    linear one. Its gradient is r - 1, r_j = p lam_j u_j / lam'u at the
    maximiser u, so -log r is a descent direction. Damped steps along it
    (clipped to 1 per coordinate) are kept only when they lower the
    constant; eta is rounded to 1e-8, so rounding noise in the search
    cannot change the proposals.
    """
    p = b.size
    eta = np.zeros(p)
    bound, u = _log_ratio_bound(a, b, np.ones(p))
    t = 1.0
    for _ in range(30):
        lam = np.exp(eta)
        with np.errstate(divide="ignore"):
            step = np.clip(np.log(p * lam * u / (lam @ u)), -1.0, 1.0)
        if np.abs(step).max() < 1e-3:
            break
        while t >= 1e-3:
            trial = eta - t * step
            trial = np.round(trial - trial[-1], 8)
            trial_bound, trial_u = _log_ratio_bound(a, b, np.exp(trial), u)
            if trial_bound - trial.sum() < bound - eta.sum():
                eta, bound, u = trial, trial_bound, trial_u
                t = min(1.0, 2.0 * t)
                break
            t *= 0.5
        else:
            break
    return np.exp(eta), bound


class _Proposal(NamedTuple):
    """A truncated-Gaussian proposal: its name, the log of its envelope
    constant M, and for the scaled Dirichlet its scale and the bound on
    max f."""

    name: str
    log_bound: float
    lam: np.ndarray = None
    f_bound: float = None


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
    a = np.zeros((p, p))
    a[:k, :k] = a_k
    lam, f_bound = _scaled_dirichlet_scale(a, np.append(b_k, 0.0))
    lam.setflags(write=False)  # cached and shared by every caller
    log_scaled = f_bound - math.lgamma(p) - np.log(lam).sum()
    return (
        _Proposal("gaussian", float(log_gauss)),
        _Proposal("scaled-dirichlet", float(log_scaled), lam, f_bound),
    )


@functools.lru_cache(maxsize=32)
def _tg_proposal(p, interaction, linear):
    """The candidate with the smaller envelope constant, once per spec."""
    return min(_tg_candidates(p, interaction, linear), key=lambda c: c.log_bound)


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
    proposal = _tg_proposal(p, a_k.tobytes(), b_k.tobytes())

    if proposal.name == "gaussian":
        chol = np.linalg.cholesky(sigma)

        def propose(sub, size, env0):
            # one row of normals per proposal, transformed into one column each
            draw = np.einsum("ij,bj->ib", chol, sub.generator().standard_normal((size, k)))
            draw += mu[:, None]
            pos = np.flatnonzero((draw >= 0.0).all(axis=0) & (draw.sum(axis=0) <= 1.0))
            rows = np.empty((pos.shape[0], p))
            rows[:, :-1] = draw[:, pos].T
            rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
            return pos, rows, np.ones(pos.shape[0]), np.zeros(pos.shape[0])

    else:
        lam, f_bound = proposal.lam, proposal.f_bound

        def propose(sub, size, env0):
            # one column of exponentials per proposal
            gen = sub.generator()
            e = gen.standard_exponential((p, size))
            coins = gen.uniform(size=size)
            w = e / lam[:, None]
            total = w.sum(axis=0)
            ut = w / total
            # lam'u = sum(e) / total
            expo = _energy(a_k, b_k, ut[:k]) + p * np.log(e.sum(axis=0) / total)
            ratio = np.exp(expo - f_bound)
            pos = np.flatnonzero(coins <= ratio / env0)
            return pos, ut[:, pos].T, ratio[pos], coins[pos]

    def fail(rate, attempted, env, trace):
        return InfeasibleTruncationError(
            f"acceptance rate {rate:.2e} after {attempted} "
            "proposals; truncation region has no usable mass"
        )

    u, stats = _rejection(
        n, rng, propose, fail, rate=0.5, proposal=proposal.name, log_bound=proposal.log_bound
    )
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
    """Exact Dirichlet draws with parameters shape + 1."""
    if isinstance(spec_or_shape, ModelSpec):
        if spec_or_shape.family != FAMILY_DIRICHLET:
            raise FamilyError("spec must be a dirichlet model")
        shape = spec_or_shape.shape
    else:
        shape = np.asarray(spec_or_shape, dtype=float).reshape(-1)
        if np.any(shape <= -1.0):
            raise FamilyError("every shape parameter must exceed -1")
    n = int(n)
    if n < 1:
        raise DataError("need at least one draw")
    gen = rng.generator()
    u = gen.dirichlet(shape + 1.0, size=n)
    return ContinuousDataset(u)


def sample_hybrid(spec, n, rng, warmup=1000, safety=1.1, initial_envelope=1.0):
    """Envelope rejection from the Dirichlet base measure.

    Returns (dataset, RejectionStats). The envelope constant only ever
    grows; proposals during the warm-up update it but are never kept,
    which bounds the bias of an initially too-small envelope.
    """
    k = spec.p - 1
    # the last row and column of the full interaction and the last
    # linear entry are zero, so the exponent needs u_1 .. u_{p-1} only
    a_k = spec.full_interaction()[:k, :k]
    b_k = spec.full_linear()[:k]
    alpha = spec.shape + 1.0
    n = int(n)
    if n < 1:
        raise DataError("need at least one draw")

    def propose(sub, size, env0):
        gen = sub.generator()
        u = gen.dirichlet(alpha, size=size)
        coins = gen.uniform(size=size)
        # overflow to inf is deliberate: an infinite ratio drives the
        # envelope to inf and the patience check fails the run
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = np.exp(_energy(a_k, b_k, u[:, :k].T))
            pos = np.flatnonzero(coins <= ratio / env0)
        return pos, u[pos], ratio[pos], coins[pos]

    def fail(rate, attempted, env, trace):
        return EnvelopeFailureError(
            f"acceptance rate {rate:.2e} after "
            f"{attempted} proposals; envelope now {env:.3e}",
            trace=trace,
        )

    u, stats = _rejection(
        n, rng, propose, fail, rate=0.25, proposal="dirichlet",
        warmup=warmup, safety=safety, envelope=initial_envelope,
    )
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
