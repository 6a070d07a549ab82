"""The batch runner `_rng.map_batches`: batch order at every worker count,
errors from forked workers, dead workers, and no child left behind."""

import logging
import os
import signal

import pytest

from eigenwalk import _rng
from eigenwalk.brownian import BrownianError


@pytest.fixture(autouse=True)
def reaped_and_bounded():
    """Each test must finish within 30 s and leave no child process."""
    def expire(signum, frame):
        raise TimeoutError("map_batches did not return")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n_batches", [1, 2, 3, 4, 5])
def test_batch_order_and_workers(n_batches, threads):
    """Same results in the same order as the serial loop; batch b runs in
    worker b % T, and worker 0 is this process."""
    job = lambda b: {"batch": b, "square": [b * b] * 3}  # noqa: E731
    pid = lambda b: os.getpid()  # noqa: E731
    assert _rng.map_batches(job, n_batches, threads) == \
        [job(b) for b in range(n_batches)]
    pids = _rng.map_batches(pid, n_batches, threads)
    workers = min(threads, n_batches)
    assert pids[0] == os.getpid()
    assert len(set(pids)) == workers
    assert all(pids[b] == pids[b % workers] for b in range(n_batches))


def test_worker_error_keeps_type_and_message():
    def job(b):
        if b == 3:
            raise BrownianError(f"batch {b} is bad")
        return b

    with pytest.raises(BrownianError, match=r"^batch 3 is bad$") as info:
        _rng.map_batches(job, 5, 2)
    assert "in batch worker 1" in str(info.value.__cause__)


def test_own_share_error_reaps_workers():
    def job(b):
        if b == 0:
            raise ValueError("batch 0 is bad")
        return b

    with pytest.raises(ValueError, match=r"^batch 0 is bad$"):
        _rng.map_batches(job, 3, 3)


@pytest.mark.parametrize("death", ["exit", "signal"])
def test_dead_worker_raises(death):
    def job(b):
        if b == 1:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return b

    how = "exit status 3" if death == "exit" else f"signal {signal.SIGKILL}"
    with pytest.raises(RuntimeError, match=f"batch worker 1 .*{how}"):
        _rng.map_batches(job, 2, 2)


def test_unpicklable_result_raises():
    with pytest.raises(RuntimeError, match="cannot send"):
        _rng.map_batches(lambda b: (lambda: b), 2, 2)


def test_without_fork_runs_serially_and_says_so_once(monkeypatch, caplog):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(_rng, "_said_serial", False)
    with caplog.at_level(logging.INFO, logger="eigenwalk"):
        for _ in range(2):
            assert _rng.map_batches(lambda b: os.getpid(), 3, 2) == \
                [os.getpid()] * 3
    said = [r for r in caplog.records if r.name == "eigenwalk"]
    assert len(said) == 1 and said[0].levelno == logging.INFO
    assert "serially" in said[0].getMessage()
