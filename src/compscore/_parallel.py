"""The package's one thread pool (one worker per usable CPU, dropped in a
forked child), ordered_blocks, the one runner that puts the samplers' chunks
and fitting's row blocks on it, and the fits' pin of OpenBLAS to one thread."""

import contextlib
import ctypes
import functools
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_pool, _pool_lock, _pin_lock = None, threading.Lock(), threading.Lock()
_pins = _saved = 0  # live pins, and the thread count before the first


def _reset():  # a forked child has none of the parent's threads, nor their locks or pins
    global _pool, _pool_lock, _pin_lock, _pins
    if _pins and openblas():
        openblas()[1](_saved)
    _pool, _pool_lock, _pin_lock, _pins = None, threading.Lock(), threading.Lock(), 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset)


def executor():
    """The shared pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
            _pool = ThreadPoolExecutor(max_workers=len(affinity(0)) if affinity else os.cpu_count() or 1)
        return _pool


@functools.lru_cache(maxsize=None)
def openblas():
    """(get, set) of the OpenBLAS thread count, found on first use through
    numpy's core extension, which links it; None for another BLAS."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS on one thread, process-wide, for the body (or each call, as
    a decorator) until the last nested or concurrent pin ends."""
    global _pins, _saved
    blas = openblas()
    with _pin_lock:
        if blas and not _pins:
            _saved = blas[0]()
            blas[1](1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if blas and not _pins:
                blas[1](_saved)


def ordered_blocks(count, compute, consume, pooled):
    """consume(compute(i)) for i = 0 .. count - 1, the consumes in order on
    this thread, until one returns True. Pooled, this thread and up to
    workers - 1 pool helpers claim the blocks in order, at most workers + 1
    claimed and not yet consumed; this thread never waits on a helper that
    has not started. A compute's error is raised when its block comes up.
    The started helpers have stopped on return. Pins no BLAS."""
    helpers = min(count, executor()._max_workers) - 1 if pooled else 0
    if helpers < 1:
        for i in range(count):
            if consume(compute(i)):
                return
        return
    slots, claims, stopped = threading.Semaphore(helpers + 2), itertools.count(), []
    done, ready = [None] * count, [threading.Event() for _ in range(count)]

    def step(blocking):  # compute the next block; False when none is claimable
        if not slots.acquire(blocking) or stopped or (i := next(claims)) >= count:
            return False
        try:
            done[i] = compute(i), None
        except BaseException as exc:  # raised by the consuming thread
            done[i] = None, exc
        ready[i].set()
        return True

    def helper():
        while step(True):
            pass

    futures = [executor().submit(helper) for _ in range(helpers)]
    try:
        for i in range(count):
            while not ready[i].is_set() and step(False):
                pass
            ready[i].wait()  # nothing is claimable: a started helper has block i
            (part, exc), done[i] = done[i], None
            if exc is not None:
                raise exc
            if consume(part):
                break
            del part
            slots.release()
    finally:
        stopped.append(True)
        for future in futures:
            future.cancel()
            slots.release()  # wakes a helper waiting for a slot
        wait(futures)
