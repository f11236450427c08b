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


def _logged(log):
    """A job that appends its argument to the file ``log`` in whichever
    process runs it."""
    def job(x):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{x}\n".encode())
        finally:
            os.close(fd)
        return _square_with_pid(x)
    return job


def _runs(log):
    return sorted(int(line) for line in log.read_text().split())


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("n_jobs", [1, 2, 3, 4, 5])
def test_results_equal_the_in_process_map_in_order(workers, tmp_path, count,
                                                   n_jobs):
    workers(count)
    log = tmp_path / "runs"
    jobs = [(x,) for x in range(n_jobs)]
    results = fanout.fan_out(_logged(log), jobs)
    assert [value for value, _ in results] == [x * x for x in range(n_jobs)]
    # Each job runs exactly once, in one of at most w processes.
    assert _runs(log) == list(range(n_jobs))
    assert len({pid for _, pid in results}) <= min(count, n_jobs)
    _assert_no_child_left()


def test_a_forked_worker_runs_jobs(workers, tmp_path):
    workers(2)
    marker = tmp_path / "job_1_ran_in"

    # Job 1 cannot run in the worker that waits in job 0, so the other
    # worker takes it.
    def job(x):
        if x == 0:
            deadline = time.monotonic() + 60
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        else:
            marker.write_text(str(os.getpid()))
        return os.getpid()

    pids = fanout.fan_out(job, [(0,), (1,)])
    assert int(marker.read_text()) == pids[1]
    assert pids[0] != pids[1]
    assert os.getpid() in pids
    _assert_no_child_left()


def test_a_failure_empties_the_ticket_pipe():
    tickets = fanout._queue_tickets(6)
    try:
        ran = fanout._work(_fail_at({2}), [(x,) for x in range(6)], tickets)
        assert [(index, failed) for index, failed, _ in ran] == [
            (0, False), (1, False), (2, True)]
        assert os.read(tickets, 4) == b""
    finally:
        os.close(tickets)


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
    # Job 0 succeeds; job 1 fails, in whichever process takes it.
    def job(x):
        return _raise_unpicklable(x) if x else x

    with pytest.raises(RuntimeError, match="_Unpicklable"):
        fanout.fan_out(job, [(0,), (1,)])
    _assert_no_child_left()


def _unsendable_at(bad, kind):
    def job(x):
        if x != bad:
            return x
        if kind == "result":
            return (y for y in ())
        raise _Unpicklable(x, "more")
    return job


@pytest.mark.parametrize("kind", ["result", "exception"])
@pytest.mark.parametrize("bad", range(4))
def test_unsendable_outcome_is_the_same_on_any_worker_count(workers, bad,
                                                            kind):
    # Every worker, this process included, sends its outcomes through a
    # pickle round trip, so where the job ran does not matter.
    messages = []
    for count in (2, 3):
        workers(count)
        with pytest.raises(RuntimeError) as raised:
            fanout.fan_out(_unsendable_at(bad, kind),
                           [(x,) for x in range(4)])
        messages.append(str(raised.value))
        _assert_no_child_left()
    assert messages[0] == messages[1]
    what = (f"the result of job {bad}" if kind == "result"
            else f"_Unpicklable('{bad} and more')")
    assert messages[0].startswith(f"a worker process cannot send back {what}")


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


def test_jobs_beyond_the_ticket_pipe_run_in_process(workers, monkeypatch):
    workers(2)
    _forbid_fork(monkeypatch)
    # 4 bytes a ticket: 1 MiB, more than a pipe holds by default.
    jobs = [(x,) for x in range(1 << 18)]
    assert fanout.fan_out(abs, jobs) == [x for x, in jobs]


def test_a_short_ticket_read_raises():
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, (7).to_bytes(4, "little") + b"\0\0")
        os.close(write_fd)
        tickets = fanout._tickets(read_fd)
        assert next(tickets) == 7
        with pytest.raises(RuntimeError, match="read 2 of 4 bytes"):
            next(tickets)
    finally:
        os.close(read_fd)


def test_after_a_refused_fork_the_other_workers_take_every_job(
        workers, monkeypatch, tmp_path):
    workers(3)
    fork = os.fork
    calls = []

    def refuse_once():
        calls.append(None)
        if len(calls) == 1:
            raise BlockingIOError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", refuse_once)
    log = tmp_path / "runs"
    results = fanout.fan_out(_logged(log), [(x,) for x in range(6)])
    assert [value for value, _ in results] == [x * x for x in range(6)]
    assert _runs(log) == list(range(6))
    assert len(calls) == 2
    # This process and the one child that forked.
    assert len({pid for _, pid in results}) <= 2
    _assert_no_child_left()


def test_results_that_cannot_be_sent_back_raise(workers):
    workers(2)
    with pytest.raises(RuntimeError, match="the result of job 0"):
        fanout.fan_out(lambda x: (lambda: x), [(0,), (1,)])
    _assert_no_child_left()
