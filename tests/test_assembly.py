"""The structured assembly of the continuous route against the dense
reference in _oracles, its independence of the row blocking, the cached
statistic layout, and the memory it needs at larger p."""

import dataclasses
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_error_moment, dense_fit, dense_workspace
from compscore import _parallel, fitting
from compscore.core import ContinuousDataset, CountDataset, ModelSpec, index_map, sqrt_transform
from compscore.errors import ConfigError, DataError
from compscore.fitting import _error_moment, build_workspace, fit_hybrid, solve
from compscore.moments import EmpiricalMoments, FactorialMoments, build_workspace_from_moments
from compscore.weights import KINDS, WeightSpec, cap_from_quantile

# Largest difference allowed, relative to the largest entry of the dense value.
REL_BOUND = 1e-11


def _close(got, want):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= REL_BOUND * scale


def _rows_with_zeros_and_ties(p, n, seed, zero_rows, tie_rows):
    """Dirichlet rows; the first zero_rows get one exact zero, the next
    tie_rows repeat their smallest entry in another coordinate (the last
    one for every other row), so the argmin of the min weight is tied."""
    rng = np.random.default_rng(seed)
    u = rng.dirichlet(rng.uniform(0.8, 3.0, p), size=n)
    u[np.arange(zero_rows), rng.integers(0, p, zero_rows)] = 0.0
    for i in range(zero_rows, zero_rows + tie_rows):
        a = int(np.argmin(u[i]))
        other = p - 1 if i % 2 else int(rng.integers(0, p))
        u[i, other if other != a else (a + 1) % p] = u[i, a]
    return ContinuousDataset(u / u.sum(axis=1, keepdims=True))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([3, 5, 10]),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    zero_rows=st.integers(0, 40),
    tie_rows=st.integers(0, 40),
    quantile=st.floats(0.3, 0.9),
)
def test_structured_matches_dense(p, kind, seed, zero_rows, tie_rows, quantile):
    data = _rows_with_zeros_and_ties(p, 400, seed, zero_rows, tie_rows)
    z = sqrt_transform(data)
    weight = WeightSpec(kind, cap_from_quantile(z, kind, quantile) if "capped" in kind else 1.0)
    shape = np.linspace(-0.5, 2.0, p)

    ws = build_workspace(z, weight, shape=shape)
    dense = dense_workspace(z, weight, shape=shape)
    _close(ws.gram, dense.gram)
    _close(ws.linear_term, dense.linear_term)
    _close(ws.shape_matrix, dense.shape_matrix)
    # Sigma_0 over every parameter, linear ones included, at a fixed theta
    theta = np.random.default_rng(seed).standard_normal(ws.imap.q)
    full = np.ones(ws.imap.q, dtype=bool)
    _close(_error_moment(ws, theta, full), dense_error_moment(dense, theta, full))

    # The fit estimates the interactions only: with the linear terms too,
    # W is ill-conditioned (condition numbers near 1e4 at p=10), and any
    # rounding difference is amplified that much in the solution.
    fit = fit_hybrid(data, shape, weight)
    spec = ModelSpec(family="hybrid", p=p, shape=shape, estimate_linear=False)
    mask = spec.estimation_mask(index_map(p))
    estimates, cov = dense_fit(z, weight, shape, mask)
    _close(fit.estimates, estimates)
    _close(fit.cov_scaled, cov)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 3, 5, 10]),
    kind=st.sampled_from(KINDS),
    free=st.sampled_from(["interaction", "linear", "random"]),
    seed=st.integers(0, 2**32 - 1),
    zero_rows=st.integers(0, 40),
    tie_rows=st.integers(0, 40),
)
def test_error_moment_matches_dense_on_free_blocks(p, kind, free, seed, zero_rows, tie_rows):
    """Sigma_0 over interaction-only, linear-only and random free blocks,
    at a random theta whose fixed entries are nonzero too. At p=2 there
    is one category pair and no cross statistic, so the workspace is
    checked as well."""
    data = _rows_with_zeros_and_ties(p, 400, seed, zero_rows, tie_rows)
    z = sqrt_transform(data)
    weight = WeightSpec(kind, cap_from_quantile(z, kind, 0.6) if "capped" in kind else 1.0)
    shape = np.linspace(-0.5, 2.0, p)
    imap = index_map(p)
    rng = np.random.default_rng(seed)
    if free == "random":
        mask = rng.random(imap.q) < 0.5
        mask[rng.integers(imap.q)] = True
    else:
        mask = np.zeros(imap.q, dtype=bool)
        mask[imap.linear_slice if free == "linear" else slice(0, imap.linear_slice.start)] = True
    theta = rng.standard_normal(imap.q)

    ws = build_workspace(z, weight, shape=shape)
    dense = dense_workspace(z, weight, shape=shape)
    _close(_error_moment(ws, theta, mask), dense_error_moment(dense, theta, mask))
    if p == 2:
        _close(ws.gram, dense.gram)
        _close(ws.linear_term, dense.linear_term)
        _close(ws.shape_matrix, dense.shape_matrix)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 3, 5, 10]),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    zero_rows=st.integers(0, 40),
    tie_rows=st.integers(0, 40),
    block=st.integers(1, 400),
)
def test_row_features_agree_on_any_block(p, kind, seed, zero_rows, tie_rows, block):
    """_row_features gives, bit for bit, the whole array's h^2, omega and
    kappa on blocks of any size, on rows with exact zeros and tied
    minima: so the q-wide blocks of the covariance pass see the weights
    the (q+1)-wide blocks of the assembly saw. A min kind puts omega's 1
    at the lowest index of the row's minimum."""
    data = _rows_with_zeros_and_ties(p, 400, seed, zero_rows, tie_rows)
    z = sqrt_transform(data)
    weight = WeightSpec(kind, cap_from_quantile(z, kind, 0.6) if "capped" in kind else 1.0)
    whole = fitting._row_features(np.square(z.T, order="C"), weight)
    for start in range(0, z.shape[0], block):
        part = fitting._row_features(np.square(z[start : start + block].T, order="C"), weight)
        for got, want in zip(part, whole):
            np.testing.assert_array_equal(got, want[..., start : start + block])
    if not weight.product_family:
        _, omega, kappa = whole
        lead = [row.index(min(row)) for row in (z * z).tolist()]
        want = np.zeros_like(omega)
        want[lead, np.arange(len(lead))] = kappa
        np.testing.assert_array_equal(omega, want)


def test_moment_route_workspace_refuses_standard_errors():
    """A workspace built from monomial means keeps no rows, and solve
    refuses its standard errors."""
    u = np.random.default_rng(12).dirichlet(np.ones(4), size=200)
    ws = build_workspace_from_moments(EmpiricalMoments(u))
    assert ws.z is None
    with pytest.raises(ConfigError, match="moments only"):
        solve(ws, with_se=True)
    assert solve(ws, with_se=False).cov_scaled is None


def test_cached_layout_is_read_only():
    """_layout(p) is one cached object shared by every caller, so none
    of its arrays may be written to."""
    lay = fitting._layout(4)
    assert fitting._layout(4) is lay
    with pytest.raises(ValueError):
        lay.coef[0, 0] = 1.0
    arrays = [getattr(lay, f.name) for f in dataclasses.fields(lay)]
    arrays = [a for entry in arrays for a in (entry if isinstance(entry, tuple) else (entry,))]
    assert len(arrays) == 11 and not any(a.flags.writeable for a in arrays)


def test_wide_fit_memory_is_bounded():
    """p=40 (q=819), n=2000 with standard errors. One dense (rows, q, p)
    gradient tensor at this size is 524 MB; the assembly forms none."""
    p, n = 40, 2000
    shape = np.linspace(-0.5, 4.0, p)
    data = ContinuousDataset(np.random.default_rng(40).dirichlet(shape + 1.0, size=n))
    weight = WeightSpec("capped-min", cap_from_quantile(sqrt_transform(data), "capped-min", 0.9))
    tracemalloc.start()
    try:
        fit = fit_hybrid(data, shape, weight, estimate_linear=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600e6
    assert np.all(np.isfinite(fit.standard_errors))


def test_block_partition_invariance(monkeypatch):
    """W, d, V and Sigma_0 for every weight kind, and both moment
    providers' means, agree whether the rows come one per block, in
    cache-sized blocks (two for the fit, several for the means), or
    in one block."""
    p, n = 10, 2500
    data = _rows_with_zeros_and_ties(p, n, 11, 20, 20)
    z = sqrt_transform(data)
    shape = np.linspace(-0.5, 2.0, p)
    rng = np.random.default_rng(11)
    theta = rng.standard_normal(index_map(p).q)
    full = np.ones(theta.size, dtype=bool)
    counts = CountDataset(np.array([rng.multinomial(60, row) for row in data.proportions]))
    table = np.indices((4,) * 4).reshape(4, -1).T
    table = np.concatenate([table, np.ones((len(table), p - 4), dtype=int)], axis=1)

    def values():
        out = []
        for kind in KINDS:
            a_c = cap_from_quantile(z, kind, 0.6) if "capped" in kind else 1.0
            ws = build_workspace(z, WeightSpec(kind, a_c), shape=shape)
            out += [ws.gram, ws.linear_term, ws.shape_matrix, _error_moment(ws, theta, full)]
        providers = (EmpiricalMoments(data.proportions), FactorialMoments(counts))
        return out + [provider.means(table) for provider in providers]

    size = fitting.BLOCK_ENTRIES // theta.size
    assert size < n <= 2 * size  # _error_moment's pass takes two blocks
    default = values()
    for entries in (1, 1 << 40):
        monkeypatch.setattr(fitting, "BLOCK_ENTRIES", entries)
        for got, want in zip(values(), default):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 5000),
    width=st.integers(1, 2000),
    entries=st.sampled_from([1, 7, 1000, 1 << 17]),
    seed=st.integers(0, 2**32 - 1),
    workers=st.sampled_from([None, 1, 2, 3]),
)
def test_block_sums_contract(n, width, entries, seed, workers):
    """_block_sums hands its terms contiguous, increasing, disjoint row
    ranges of max(1, BLOCK_ENTRIES // width) rows covering [0, n), and its
    totals equal a serial loop that adds each block's terms into
    zero-initialised totals, bit for bit; no rows leave the totals at zero.
    The same holds pooled (workers set: the caller and workers - 1 pool
    helpers, in whatever order they finish, switching threads every
    microsecond), with at most workers + 1 blocks' results alive at a time."""
    rows = np.random.default_rng(seed).standard_normal((n, 3))
    seen = []
    lock = threading.Lock()
    live = [0, 0]  # blocks whose results are alive, and the most at once

    def release(left):
        with lock:
            left[0] -= 1
            live[0] -= not left[0]

    def term(start, stop):
        with lock:
            live[0] += 1
            live[1] = max(live)
        seen.append((start, stop))
        block = rows[start:stop]
        parts, left = (block.sum(axis=0), block.T @ block), [2]
        for part in parts:
            weakref.finalize(part, release, left)
        return parts

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(max_workers=workers or 1) as pool:
        mp.setattr(fitting, "BLOCK_ENTRIES", entries)
        mp.setattr(_parallel, "_pool", pool)
        with _parallel.one_blas_thread():
            sys.setswitchinterval(1e-6)  # threads interleave at every chance
            try:
                got = fitting._block_sums(n, width, term, np.zeros(3), np.zeros((3, 3)), pooled=bool(workers))
            finally:
                sys.setswitchinterval(interval)
            size = max(1, entries // width)
            sums, grams = np.zeros(3), np.zeros((3, 3))
            for start in range(0, n, size):
                block = rows[start : start + size]
                sums += block.sum(axis=0)
                grams += block.T @ block
    if workers:
        seen.sort()
        assert live[1] <= workers + 1
    ends = [0] + [stop for _, stop in seen]
    assert [start for start, _ in seen] == ends[:-1] and ends[-1] == n
    assert all(start < stop for start, stop in seen)
    assert seen == [(start, min(start + size, n)) for start in range(0, n, size)]
    np.testing.assert_array_equal(got[0], sums)
    np.testing.assert_array_equal(got[1], grams)
    if not n:
        assert not got[0].any() and not got[1].any()


def test_pooled_block_error_reaches_the_caller():
    """A term that raises on one pool helper raises in the caller, while
    the other helper fills the window of claimed blocks and waits; every
    helper then returns to the pool, so all three workers can meet at a
    barrier at once."""
    caller = threading.current_thread()
    lock = threading.Lock()
    failer, other_done, failed = [], threading.Event(), threading.Event()

    def term(start, stop):
        me = threading.current_thread()
        if me is caller:
            assert failed.wait(timeout=30)
            return (np.ones(1),)
        with lock:
            if not failer:
                failer.append(me)
        if failer[0] is me:  # fail once the other helper runs
            assert other_done.wait(timeout=30)
            failed.set()
            raise ValueError("helper term failed")
        other_done.set()
        return (np.ones(1),)

    pool = ThreadPoolExecutor(max_workers=3)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_parallel, "_pool", pool)
            mp.setattr(fitting, "BLOCK_ENTRIES", 1)
            if _parallel.openblas() is None:
                pytest.skip("no BLAS pin, so blocks run serially")
            with pytest.raises(ValueError, match="helper term failed"):
                fitting._block_sums(100, 1, term, np.zeros(1), pooled=True)
        barrier = threading.Barrier(3)
        for future in [pool.submit(barrier.wait, 10) for _ in range(3)]:
            future.result(timeout=30)
    finally:
        pool.shutdown(wait=False)  # a helper left waiting would hang a waiting shutdown


def test_fits_run_serially_without_the_blas_pin(monkeypatch):
    """Without the pin symbol (a BLAS other than numpy's bundled OpenBLAS)
    a fit never touches the pool, and a p=10 fit keeps its bits (thread
    identity holds there unpinned)."""
    u = np.random.default_rng(24).dirichlet(np.full(10, 1.5), size=19384)
    weight = WeightSpec("capped-min", 0.3)
    want = fit_hybrid(u, np.zeros(10), weight)

    class Unusable:
        _max_workers = 3

        def submit(self, *args):
            raise AssertionError("a serial fit used the pool")

    monkeypatch.setattr(_parallel, "openblas", lambda: None)
    monkeypatch.setattr(_parallel, "_pool", Unusable())
    got = fit_hybrid(u, np.zeros(10), weight)
    np.testing.assert_array_equal(got.estimates, want.estimates)
    np.testing.assert_array_equal(got.cov_scaled, want.cov_scaled)


def test_zero_rows_raise_data_error():
    """A row pass over no rows has no mean to take: the assembly and the
    empirical moment provider refuse zero rows instead of dividing 0/0."""
    z = np.empty((0, 4))
    for kind in KINDS:
        with pytest.raises(DataError, match="at least one"):
            build_workspace(z, WeightSpec(kind, 0.3))
    with pytest.raises(DataError, match="at least one row"):
        EmpiricalMoments(np.empty((0, 4)))


def test_wide_fit_memory_is_independent_of_n():
    """p=40 (q=819), n=2e4 with standard errors. Both passes hold one
    cache-sized block of per-row features at a time, so the peak is the
    data and a few q x q matrices; one (n, q) feature array is 131 MB."""
    p, n = 40, 20_000
    shape = np.linspace(-0.5, 4.0, p)
    data = ContinuousDataset(np.random.default_rng(41).dirichlet(shape + 1.0, size=n))
    weight = WeightSpec("capped-min", cap_from_quantile(sqrt_transform(data), "capped-min", 0.9))
    tracemalloc.start()
    try:
        fit = fit_hybrid(data, shape, weight, estimate_linear=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6
    assert np.all(np.isfinite(fit.standard_errors))
