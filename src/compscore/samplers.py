"""Samplers for the three model families and multinomial thinning.

All randomness flows from an RngConfig: a top-level seed plus a tuple of
substream indices fed to numpy's SeedSequence, so any component of a
larger run can be reproduced in isolation.

The truncated Gaussian is sampled by batch rejection from the matching
untruncated Gaussian. The general interaction model is sampled by
rejection from its Dirichlet base with an empirically updated envelope
constant: whenever a proposal's density ratio exceeds the current
envelope, the envelope is raised to 1.1 times that ratio and sampling
continues, after a fixed warm-up of discarded proposals. The envelope
trace is kept for diagnosis.

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
walked every proposal. For the envelope sampler a worker keeps the rows
with coin <= ratio / env0, env0 being the envelope when the chunk was
sent out. The envelope only grows, so every other row has
ratio < coin * env0 <= env: it can neither be accepted later nor raise
the envelope. The truncated Gaussian keeps the draws inside the simplex.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    """Bookkeeping for a rejection run. envelope_trace holds every value
    the envelope constant took, first to last."""

    attempted: int
    accepted: int
    envelope: float = 1.0
    envelope_updates: int = 0
    envelope_trace: list = None

    @property
    def acceptance_rate(self):
        return self.accepted / self.attempted if self.attempted else 0.0


def _next_batch(remaining, rate_guess):
    est = int(remaining / max(rate_guess, 1e-3) * 1.2) + 64
    return max(4096, min(est, 262_144))


def _rejection(n, rng, propose, fail, rate, warmup=0, safety=1.1, envelope=1.0):
    """The batch loop both rejection samplers share.

    propose(rng, size, env0) draws one chunk and returns the positions,
    rows, density ratios and coins of the proposals that can still be
    accepted or raise an envelope of at least env0. Acceptance runs
    here, in chunk order: a row is kept when coin <= ratio / env and it
    lies past the warm-up, and a ratio above the envelope first raises
    it to safety * ratio. Returns the (n, p) rows and RejectionStats.
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
                    sel = rows[seg][acc]
                    if sel.shape[0]:
                        kept.append(sel)
                        kept_count += sel.shape[0]
                if stop < m:
                    env = safety * float(ratio[stop])
                    trace.append(env)
                # stop == start retests the violator against the raised envelope
                start = stop
            attempted += size
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
    )
    return np.vstack(kept)[:n], stats


def _sample_truncated_gaussian(spec, n, rng):
    """sample_truncated_gaussian, plus its RejectionStats."""
    if spec.family != FAMILY_TRUNCATED_GAUSSIAN:
        raise FamilyError("spec must be a truncated-Gaussian model")
    mu, sigma = spec.gaussian_moments()  # FamilyError unless negative definite
    chol = np.linalg.cholesky(sigma)
    n = int(n)
    if n < 1:
        raise DataError("need at least one draw")
    k = spec.p - 1

    def propose(sub, size, env0):
        # one row of normals per proposal, transformed into one column each
        draw = np.einsum("ij,bj->ib", chol, sub.generator().standard_normal((size, k)))
        draw += mu[:, None]
        pos = np.flatnonzero((draw >= 0.0).all(axis=0) & (draw.sum(axis=0) <= 1.0))
        rows = np.empty((pos.shape[0], spec.p))
        rows[:, :-1] = draw[:, pos].T
        rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
        return pos, rows, np.ones(pos.shape[0]), np.zeros(pos.shape[0])

    def fail(rate, attempted, env, trace):
        return InfeasibleTruncationError(
            f"acceptance rate {rate:.2e} after {attempted} "
            "proposals; truncation region has no usable mass"
        )

    u, stats = _rejection(n, rng, propose, fail, rate=0.5)
    return ContinuousDataset(u), stats


def sample_truncated_gaussian(spec, n, rng):
    """Rejection sampling of the zero-shape interaction model.

    Draws the first p-1 coordinates from the matching Gaussian and keeps
    draws inside the simplex. Raises InfeasibleTruncationError when the
    acceptance region has numerically negligible mass.
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
        ut = u[:, :k].T
        # overflow to inf is deliberate: an infinite ratio drives the
        # envelope to inf and the patience check fails the run
        with np.errstate(over="ignore", invalid="ignore"):
            expo = ((np.einsum("ij,jb->ib", a_k, ut) + b_k[:, None]) * ut).sum(axis=0)
            ratio = np.exp(expo)
            pos = np.flatnonzero(coins <= ratio / env0)
        return pos, u[pos], ratio[pos], coins[pos]

    def fail(rate, attempted, env, trace):
        return EnvelopeFailureError(
            f"acceptance rate {rate:.2e} after "
            f"{attempted} proposals; envelope now {env:.3e}",
            trace=trace,
        )

    u, stats = _rejection(
        n, rng, propose, fail, rate=0.25, warmup=warmup, safety=safety, envelope=initial_envelope
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
