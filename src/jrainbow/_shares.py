"""One stage of work shared among forked worker processes when there is
more than one process.

A stage covers the items ``0 .. items - 1``.  With one process it is the
single call ``fn(0, items, *args)``, in-process.  With ``count > 1``
processes the items are cut into ``_SLICES_PER_PROCESS * count``
consecutive slices ``[lo, hi)``, and the ``count`` workers of a
``ProcessPoolExecutor`` on the ``fork`` start method take the slices one
at a time as they come free.  A worker whose CPU is slowed by other load
so takes fewer slices, and the stage ends when the processes' combined
work is done, not when the slower of ``count`` fixed shares is.

The workers read ``fn``, ``args`` and every module-level cache through
fork inheritance, so only slice bounds and results are pickled; each
worker keeps its own copy of the objects in ``args`` (a table it fills,
say) from slice to slice.  A worker that dies raises
``BrokenProcessPool`` instead of hanging.
"""

from __future__ import annotations

import gc
import os
import sys
import threading

# Slices per process of a forked stage: the stage's tail is one slice.
# Twelve alternating rounds of check_all over n <= 8 (T1, T3, T4, T5, T6)
# on two processes (2-CPU Xeon, Python 3.11.7) put the median at 0.71 s
# with 1 slice per process, 0.68 s with 16, 0.67 s with 64 and 0.75 s with
# 256, where a slice is shorter than a block of the claim loop.
_SLICES_PER_PROCESS = 16

_stage = None  # (fn, args) in a worker: what its slices call


def cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_count(items: int, per_share: int) -> int:
    """The number of processes to share ``items`` among: one per CPU with
    at least ``per_share`` items each, and at least one.  One off Linux,
    and one while another thread runs, since forking a threaded process
    can deadlock."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return max(1, min(cpus(), items // per_share))


def _install(fn, args: tuple) -> None:
    global _stage
    _stage = (fn, args)


def _call(lo: int, hi: int):
    fn, args = _stage
    return fn(lo, hi, *args)


def run(fn, count: int, items: int, *args) -> list:
    """The results of ``fn(lo, hi, *args)`` over consecutive slices
    ``[lo, hi)`` that cover ``0 .. items - 1``, in slice order: one slice
    in-process when ``count == 1``, else slices dealt to ``count`` forked
    workers."""
    if count == 1:
        return [fn(0, items, *args)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    slices = min(items, _SLICES_PER_PROCESS * count)
    bounds = [items * s // slices for s in range(slices + 1)]
    # Frozen objects are left out of the workers' collections, which would
    # otherwise write to every inherited object and so copy its page.
    gc.freeze()
    try:
        # a forked worker receives the initializer and its arguments unpickled
        with ProcessPoolExecutor(
            count, mp_context=multiprocessing.get_context("fork"),
            initializer=_install, initargs=(fn, args),
        ) as pool:
            return list(pool.map(_call, bounds[:-1], bounds[1:]))
    finally:
        gc.unfreeze()
