"""One stage of work shared among forked worker processes when there is
more than one process.

A stage covers the items ``0 .. items - 1``.  With one process it is the
single call ``fn(0, items, *args)``, in-process.  With ``count > 1``
processes the items are cut into ``_SLICES_PER_PROCESS * count`` (at
most ``PIPE_BUF // 2``) consecutive slices ``[lo, hi)``, and ``count``
children of ``os.fork`` take the slices one at a time as they come free:
the caller writes every slice's index to one shared pipe up front, as a
2-byte record, and each worker reads the next record when it is done
with a slice.  A pipe read of at most ``PIPE_BUF`` bytes is atomic, so
no two workers take the same slice.  A worker whose CPU is slowed by
other load so takes fewer slices, and the stage ends when the processes'
combined work is done, not when the slower of ``count`` fixed shares is.

The workers read ``fn``, ``args`` and every module-level cache through
fork inheritance, so only results are pickled: each worker sends back
length-prefixed ``(slice, result, None)`` records on a pipe of its own,
which the caller drains with ``select``.  Each worker keeps its own copy
of the objects in ``args`` (a table it fills, say) from slice to slice.
An exception raised in a worker is sent back and raised again in the
caller, with the worker's traceback as its cause.  A worker that dies
fails the call with :class:`WorkerDied` as soon as its pipe closes.
Every child is reaped before :func:`run` returns or raises.
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

_INDEX = 2  # bytes per slice index on the shared pipe
_LENGTH = 8  # bytes of a result record's length prefix


class WorkerDied(RuntimeError):
    """A worker of a forked stage ended before its slices were done."""


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, as text."""

    def __str__(self) -> str:
        return self.args[0]


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


def run(fn, count: int, items: int, *args) -> list:
    """The results of ``fn(lo, hi, *args)`` over consecutive slices
    ``[lo, hi)`` that cover ``0 .. items - 1``, in slice order: one slice
    in-process when ``count == 1``, else slices dealt to ``count`` forked
    workers."""
    if count == 1:
        return [fn(0, items, *args)]
    # imported only here, so that a process that never forks (`analyze`,
    # say) does not carry these modules: 0.5 MB of peak RSS
    import pickle
    import select
    import signal

    # every index fits in one atomic write, so the caller never blocks on it
    slices = min(items, _SLICES_PER_PROCESS * count, select.PIPE_BUF // _INDEX)
    bounds = [items * s // slices for s in range(slices + 1)]
    results: dict[int, object] = {}
    # result pipe -> (pid, bytes of no whole record yet), until the worker is reaped
    workers: dict[int, tuple[int, bytearray]] = {}
    # Frozen objects are left out of the workers' collections, which would
    # otherwise write to every inherited object and so copy its page.
    gc.freeze()
    try:
        tasks, feed = os.pipe()
        os.write(feed, b"".join(s.to_bytes(_INDEX, "little") for s in range(slices)))
        os.close(feed)
        try:
            for _ in range(count):
                fd, out = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _work(tasks, out, [fd, *workers], fn, args, bounds)
                os.close(out)
                workers[fd] = (pid, bytearray())
        finally:
            os.close(tasks)
        while workers:
            for fd in select.select(list(workers), [], [])[0]:
                pid, pending = workers[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    _receive(pending, chunk, results)
                    continue
                _, status = os.waitpid(pid, 0)
                os.close(fd)
                del workers[fd]
                if status or pending:  # a failed exit, or a record cut short
                    code = os.waitstatus_to_exitcode(status)
                    raise WorkerDied(f"worker {pid} of a stage ended with exit code {code}")
        if len(results) < slices:
            raise WorkerDied(f"{slices - len(results)} of {slices} slices came back from no worker")
        return [results[s] for s in range(slices)]
    finally:
        for fd, (pid, _) in workers.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)  # an unreaped child, so the pid is still its own
            os.waitpid(pid, 0)
        gc.unfreeze()


def _receive(buffer: bytearray, chunk: bytes, results: dict) -> None:
    """Add ``chunk`` to a worker's ``buffer`` and take the whole records
    out of it into ``results``, raising a worker's exception again."""
    import pickle

    buffer += chunk
    while len(buffer) >= _LENGTH:
        end = _LENGTH + int.from_bytes(buffer[:_LENGTH], "little")
        if len(buffer) < end:
            return
        s, value, trace = pickle.loads(buffer[_LENGTH:end])
        del buffer[:end]
        if trace is not None:
            raise value from _WorkerTraceback(trace)
        results[s] = value


def _work(tasks: int, out: int, unused: list, fn, args: tuple, bounds: list) -> None:
    """A forked worker's life: take slice indices from ``tasks`` until it
    is empty, and write each slice's record to ``out``, or the record of
    the first exception raised.  It never returns into the caller's code:
    it ends with ``os._exit``, so no stdio buffer or exit handler of the
    caller runs twice."""
    import pickle

    code = 1
    try:
        for fd in unused:
            os.close(fd)
        while record := os.read(tasks, _INDEX):
            s = int.from_bytes(record, "little")
            try:
                reply = (s, fn(bounds[s], bounds[s + 1], *args), None)
                data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                failed = False
            except Exception as exc:
                import traceback

                reply = (s, exc, traceback.format_exc())
                data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                failed = True
            view = memoryview(len(data).to_bytes(_LENGTH, "little") + data)
            while view:
                view = view[os.write(out, view):]
            if failed:
                break
        else:
            code = 0
    finally:
        os._exit(code)
