"""The corpus stages shared among processes: the claim loop and the
enumeration give the same output for any process count, slices go to
whichever worker is free, a worker's exception reaches the caller, a
worker that dies fails the call at once, no child outlives a stage, and
a process with a second thread does not fork.  The CPU count is patched
so that these tests fork on any Linux machine."""

import os
import random
import signal
import sys
import threading
import time

import pytest

from jrainbow import _shares, check_all, enumerate_graphs, families, report, theorems

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="shares fork on Linux only")


@pytest.fixture
def stages(monkeypatch):
    """The share count of every stage run, recorded as it starts."""
    counts = []
    run = _shares.run

    def recording(fn, count, items, *args):
        counts.append(count)
        return run(fn, count, items, *args)

    monkeypatch.setattr(_shares, "run", recording)
    return counts


@pytest.fixture
def shares(stages, monkeypatch):
    """Force every stage of at least one item per share onto ``k`` shares
    (``shares(k)``), and record the share count of every stage run."""
    monkeypatch.setattr(theorems, "_GRAPHS_PER_SHARE", 1)
    monkeypatch.setattr(families, "_PARENTS_PER_SHARE", 1)

    def force(k):
        monkeypatch.setattr(_shares, "cpus", lambda: k)
        return stages

    return force


@pytest.fixture(scope="module")
def corpus_to_6():
    return [g for n in range(1, 7) for g in enumerate_graphs(n)]


@pytest.mark.parametrize("order", ["plain", "shuffled"])
def test_check_all_reports_do_not_depend_on_the_share_count(order, corpus_to_6, shares):
    # a shuffled corpus puts the first witnesses of a claim in different
    # shares, so the merge must restore witness order across shares
    corpus = list(corpus_to_6)
    if order == "shuffled":
        random.Random(16).shuffle(corpus)
    docs = {}
    for k in (1, 2, 3):
        counts = shares(k)
        verdicts = check_all(corpus, corpus="x")
        docs[k] = report(verdicts, "json") + report(verdicts, "text")
        assert counts[-1] == k
    assert docs[2] == docs[1] and docs[3] == docs[1]
    assert '"status": "COUNTEREXAMPLE"' in docs[1]


def test_enumeration_does_not_depend_on_the_share_count(shares):
    counts = shares(1)
    families._all_graphs.cache_clear()
    try:
        serial = families._all_graphs(7)
        assert counts == [1] * 6  # orders 2..7
        counts.clear()
        shares(2)
        families._all_graphs.cache_clear()
        assert families._all_graphs(7) == serial
        assert counts == [1] + [2] * 5  # order 2 has one parent
    finally:
        families._all_graphs.cache_clear()


def test_a_worker_that_dies_breaks_the_call(corpus_to_6, shares, monkeypatch):
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("the share ran in-process")

    monkeypatch.setattr(theorems, "_claims_slice", dying)
    shares(2)
    start = time.perf_counter()
    with pytest.raises(_shares.WorkerDied, match="exit code 1"):
        check_all(corpus_to_6)
    assert time.perf_counter() - start < 30


def test_n7_forks_on_two_cpus_and_n6_stays_in_process(stages, monkeypatch):
    # with the real constants: the gain of `check --max-n 7` on two CPUs
    # rests on its claim stage and its order-7 enumeration forking
    monkeypatch.setattr(_shares, "cpus", lambda: 2)
    to_6 = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    to_7 = to_6 + enumerate_graphs(7)
    assert (len(to_6), len(to_7)) == (208, 1252)
    stages.clear()
    assert families._all_graphs.__wrapped__(6) == families._all_graphs(6)  # 34 parents
    assert families._all_graphs.__wrapped__(7) == families._all_graphs(7)  # 156 parents
    check_all(to_6)
    check_all(to_7)
    assert stages == [1, 2, 1, 2]


def _failing_slice(lo, hi):
    if lo == 50:
        raise KeyError(f"slice {lo}..{hi} in worker {os.getpid()}")
    return lo


def test_a_worker_exception_reaches_the_caller():
    with pytest.raises(KeyError) as caught:
        _shares.run(_failing_slice, 2, 100)
    message = caught.value.args[0]
    assert message.startswith("slice 50..53 in worker ")
    assert int(message.rsplit(" ", 1)[1]) != os.getpid()
    assert "in _failing_slice" in str(caught.value.__cause__)


def _slice(fate):
    def run_slice(lo, hi):
        if lo == 50:
            if fate == "raises":
                raise ValueError("slice 50")
            if fate == "exits":
                os._exit(0)  # a clean exit that loses its slice
        time.sleep(0.05)
        return lo

    return run_slice


def _interrupt(signum, frame):
    raise KeyboardInterrupt


@pytest.mark.parametrize("fate, error", [
    ("returns", None),
    ("raises", ValueError),
    ("exits", _shares.WorkerDied),
    ("interrupted", KeyboardInterrupt),
])
def test_no_child_outlives_a_stage(fate, error):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child before the stage
    start = time.perf_counter()
    if error is None:
        assert _shares.run(_slice(fate), 2, 100) == [100 * s // 32 for s in range(32)]
    else:
        # a forked child inherits the handler but not the timer
        previous = signal.signal(signal.SIGALRM, _interrupt)
        try:
            if fate == "interrupted":
                signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(error):
                _shares.run(_slice(fate), 2, 100)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_second_thread_keeps_one_share(monkeypatch):
    monkeypatch.setattr(_shares, "cpus", lambda: 4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _shares.share_count(1000, 1) == 1
    finally:
        release.set()
        thread.join()
    assert _shares.share_count(1000, 1) == 4
    assert _shares.share_count(1000, 300) == 3
    assert _shares.share_count(10, 300) == 1


def _slow_first_slice(lo, hi):
    if lo == 0:
        time.sleep(0.5)
    return lo, hi, os.getpid()


def test_slices_cover_the_items_in_order_and_go_to_free_workers():
    # the worker held up by the first slice takes few others, where a
    # fixed split would leave it half of them
    slices = _shares.run(_slow_first_slice, 2, 1000)
    assert len(slices) == 2 * _shares._SLICES_PER_PROCESS
    assert slices[0][0] == 0 and slices[-1][1] == 1000
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
    slow = slices[0][2]
    assert len({pid for *_, pid in slices} - {os.getpid()}) == 2
    assert sum(pid == slow for *_, pid in slices) <= 3
