"""Tests for the fork-based fan-out of independent jobs.

Oracle: the in-process map ``[fn(*job) for job in jobs]``, whose results
and whose first exception :func:`fan_out` must reproduce, leaving no
child process behind and no stdio written twice.
"""

import contextlib
import os
import threading
import time

import pytest

from p1cert import fanout


def _square_with_pid(x):
    return x * x, os.getpid()


def _fail_at(bad):
    def job(x):
        if x in bad:
            raise ValueError(f"job {x} failed")
        return x
    return job


class _Unpicklable(Exception):
    """Rebuilding from its pickled args fails, like PoleNotFoundError."""

    def __init__(self, x, y):
        super().__init__(f"{x} and {y}")


def _raise_unpicklable(x):
    raise _Unpicklable(x, "more")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    def use(count):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: count)
    return use


def test_usable_cpus_is_positive():
    assert fanout.usable_cpus() >= 1


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("n_jobs", [1, 2, 3, 4, 5])
def test_results_equal_the_in_process_map_in_order(workers, count, n_jobs):
    workers(count)
    jobs = [(x,) for x in range(n_jobs)]
    results = fanout.fan_out(_square_with_pid, jobs)
    assert [value for value, _ in results] == [x * x for x in range(n_jobs)]
    # Job i runs in share i mod w; share 0 in this process, every other
    # share in a worker of its own.
    used = min(count, n_jobs)
    pids = [pid for _, pid in results]
    assert all(pid == os.getpid() for pid in pids[::used])
    for share in range(1, used):
        assert len(set(pids[share::used])) == 1
        assert pids[share] != os.getpid()
    assert len(set(pids)) == used
    _assert_no_child_left()


def test_no_jobs_give_no_results(workers):
    workers(2)
    assert fanout.fan_out(_square_with_pid, []) == []


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("bad, first", [
    ({3}, 3), ({4, 1}, 1), ({2, 3}, 2), ({0, 5}, 0), ({5}, 5)])
def test_earliest_failing_job_raises_its_exception(workers, count, bad,
                                                   first):
    workers(count)
    with pytest.raises(ValueError, match=f"^job {first} failed$"):
        fanout.fan_out(_fail_at(bad), [(x,) for x in range(6)])
    _assert_no_child_left()


def test_exception_that_cannot_be_sent_back_becomes_runtime_error(workers):
    workers(2)
    # Job 0 succeeds in this process; job 1 fails in the worker.
    def job(x):
        return _raise_unpicklable(x) if x else x

    with pytest.raises(RuntimeError, match="_Unpicklable"):
        fanout.fan_out(job, [(0,), (1,)])
    _assert_no_child_left()


def test_exception_in_this_process_keeps_its_object(workers):
    workers(2)
    with pytest.raises(_Unpicklable, match="^0 and more$"):
        fanout.fan_out(_raise_unpicklable, [(0,), (1,)])
    _assert_no_child_left()


def test_interrupt_in_this_process_reaps_the_workers(workers):
    workers(3)
    parent = os.getpid()

    def job(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)
        return x

    with pytest.raises(KeyboardInterrupt):
        fanout.fan_out(job, [(x,) for x in range(3)])
    _assert_no_child_left()


def test_unflushed_output_is_written_once(workers, capfd):
    workers(3)
    # Block-buffered, as stdout is when it goes to a pipe or a file: the
    # line is still in this process's buffer when the workers fork.
    with open(os.dup(1), "w", buffering=1 << 16) as stdout:
        with contextlib.redirect_stdout(stdout):
            print("written before the fan-out")
            fanout.fan_out(_square_with_pid, [(x,) for x in range(3)])
    out, _ = capfd.readouterr()
    assert out.count("written before the fan-out") == 1


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork was called")
    monkeypatch.setattr(os, "fork", fork)


def test_one_usable_cpu_never_forks(workers, monkeypatch):
    workers(1)
    _forbid_fork(monkeypatch)
    results = fanout.fan_out(_square_with_pid, [(x,) for x in range(4)])
    assert results == [(x * x, os.getpid()) for x in range(4)]


def test_a_second_thread_prevents_forking(workers, monkeypatch):
    workers(3)
    _forbid_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        results = fanout.fan_out(_square_with_pid, [(x,) for x in range(4)])
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert results == [(x * x, os.getpid()) for x in range(4)]


def test_without_fork_jobs_run_in_process(workers, monkeypatch):
    workers(3)
    monkeypatch.delattr(os, "fork")
    results = fanout.fan_out(_square_with_pid, [(x,) for x in range(4)])
    assert results == [(x * x, os.getpid()) for x in range(4)]


def test_a_refused_fork_runs_the_share_in_process(workers, monkeypatch):
    workers(3)
    fork = os.fork
    calls = []

    def refuse_once():
        calls.append(None)
        if len(calls) == 1:
            raise BlockingIOError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", refuse_once)
    results = fanout.fan_out(_square_with_pid, [(x,) for x in range(6)])
    assert [value for value, _ in results] == [x * x for x in range(6)]
    pids = [pid for _, pid in results]
    # Share 1's fork was refused, share 2's was not.
    assert pids[0::3] == pids[1::3] == [os.getpid()] * 2
    assert pids[2] == pids[5] != os.getpid()
    _assert_no_child_left()


def test_results_that_cannot_be_sent_back_raise(workers):
    workers(2)
    with pytest.raises(RuntimeError, match="results of its jobs"):
        fanout.fan_out(lambda x: (lambda: x), [(0,), (1,)])
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity call on this platform")
@pytest.mark.parametrize("count", [2, 3])
def test_each_share_runs_pinned_and_the_mask_comes_back(workers, count):
    workers(count)
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    masks = fanout.fan_out(lambda x: os.sched_getaffinity(0),
                           [(x,) for x in range(2 * count)])
    assert masks == [{cpus[i % count % len(cpus)]} for i in range(2 * count)]
    assert os.sched_getaffinity(0) == mask
    _assert_no_child_left()


def test_a_refused_pin_leaves_the_results_alone(workers, monkeypatch):
    workers(2)

    def refuse(pid, cpus):
        raise PermissionError("affinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    results = fanout.fan_out(_square_with_pid, [(x,) for x in range(4)])
    assert [value for value, _ in results] == [0, 1, 4, 9]
    _assert_no_child_left()
