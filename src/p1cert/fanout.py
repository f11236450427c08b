"""Run independent jobs on every CPU the process may use.

:func:`fan_out` is ``[fn(*job) for job in jobs]``, computed in job order
by the calling process and by ``os.fork()`` children.  The jobs are
handed out one at a time: each worker takes the next job index from a
shared ticket pipe whenever it finishes a job, so a long job does not
hold back the jobs queued behind it.  The children inherit ``fn``, the
jobs and the tickets from the fork, so only their results travel,
pickled, back through a pipe of their own.  A job's result is whatever
it computes, whichever process computes it, so a caller whose jobs are
independent gets the same values as from the serial loop.  Its one
caller is :func:`p1cert.certificates.run_scope`.  Forking, not spawning,
is what makes the split pay: a spawned worker starts a new interpreter
and imports the package again, which takes about as long as the
certificate run it would share.

The serial loop runs instead, in the calling process, when only one
worker would be used, when the platform has no ``os.fork``, when the
process runs more than one thread (a fork copies only the forking
thread, and a lock another thread held stays held in the child), or
when the ticket pipe cannot hold every ticket without blocking.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["usable_cpus", "fan_out"]

#: Bytes per job index in the ticket pipe.
_TICKET = 4


def usable_cpus() -> int:
    """The number of CPUs this process may run on (at least 1)."""
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return len(mask) or os.cpu_count() or 1


def _queue_tickets(count: int) -> Optional[int]:
    """The read end of a pipe holding the job indices 0 .. count-1 in
    increasing order, its write end closed; None when the system refuses
    the pipe or the pipe cannot hold every ticket without blocking."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    records = b"".join(index.to_bytes(_TICKET, "little")
                       for index in range(count))
    try:
        os.set_blocking(write_fd, False)
        written = os.write(write_fd, records)
    except BlockingIOError:
        written = 0
    finally:
        os.close(write_fd)
    if written == len(records):
        return read_fd
    os.close(read_fd)
    return None


def _tickets(read_fd: int) -> Iterator[int]:
    """Job indices taken from the ticket pipe, one read each, until it is
    empty.  Linux reads a pipe under its lock, so a record is never split
    between two workers; a short read raises rather than be misparsed."""
    while True:
        record = os.read(read_fd, _TICKET)
        if not record:
            return
        if len(record) != _TICKET:
            raise RuntimeError(
                f"read {len(record)} of {_TICKET} bytes of a job ticket")
        yield int.from_bytes(record, "little")


def _work(fn: Callable[..., Any], jobs: Sequence[Sequence[Any]],
          tickets: int) -> List[Tuple[int, bool, bytes]]:
    """Run jobs by ticket until the tickets run out or a job fails.

    Returns ``(index, failed, pickled outcome)``, one entry per job run,
    whose outcome is the job's result or, for the last entry only, the
    exception it raised.  A result or an exception that does not survive
    a pickle round trip fails its job with a :class:`RuntimeError` naming
    it, in whichever process it ran.  A failure empties the ticket pipe,
    so no worker starts a later job; every ticket left in it has a higher
    index than the failing job, so the earliest failure stays the same.
    """
    import pickle
    sent = []
    for index in _tickets(tickets):
        try:
            outcome, failed = fn(*jobs[index]), False
        except Exception as exc:
            outcome, failed = exc, True
        try:
            blob = pickle.dumps(outcome)
            # An exception whose class cannot rebuild itself from its
            # pickled arguments fails only when it is loaded.
            pickle.loads(blob)
        except Exception as exc:
            what = repr(outcome) if failed else f"the result of job {index}"
            blob, failed = pickle.dumps(RuntimeError(
                f"a worker process cannot send back {what}: {exc!r}")), True
        sent.append((index, failed, blob))
        if failed:
            for _ in _tickets(tickets):
                pass
            break
    return sent


def _child(fn: Callable[..., Any], jobs: Sequence[Sequence[Any]],
           tickets: int, write_fd: int) -> None:
    """Run jobs by ticket in a forked child, send its outcome and exit.

    The child always leaves through ``os._exit``: it never flushes the
    stdio buffers it shares with the parent, runs no atexit hook and
    never returns into the caller.
    """
    import pickle
    status = 1
    try:
        blob = pickle.dumps(_work(fn, jobs, tickets))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(blob)
        status = 0
    finally:
        os._exit(status)


def _fork_worker(fn: Callable[..., Any], jobs: Sequence[Sequence[Any]],
                 tickets: int) -> Optional[Tuple[int, int]]:
    """Fork a child that runs jobs by ticket: its pid and the read end of
    its pipe, or None when the system refuses the pipe or the process."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        os.close(read_fd)
        _child(fn, jobs, tickets, write_fd)
    os.close(write_fd)
    return pid, read_fd


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def fan_out(fn: Callable[..., Any],
            jobs: Sequence[Sequence[Any]]) -> List[Any]:
    """``[fn(*job) for job in jobs]``, on up to :func:`usable_cpus` CPUs.

    With w = min(len(jobs), usable_cpus()) workers, the calling process
    and w - 1 forked children take job indices from a ticket pipe in
    increasing order, one at a time, each whenever it finishes a job,
    until none is left or one of its own jobs fails.  A worker whose fork
    the system refuses is left out, and the others take its jobs.
    Results come back in job order.  The jobs must be independent of
    each other and of the order they run in, and their results
    picklable.

    If jobs fail, the exception of the earliest failing job is raised,
    as the serial loop would raise it: tickets go out in order, so every
    earlier job was taken before it and has run.  A failure empties the
    ticket pipe, so no worker starts a later job.  Results and exceptions
    make a pickle round trip in every worker, the calling process
    included, so an exception arrives with its type and message, and a
    result or an exception that cannot be pickled becomes a
    :class:`RuntimeError` naming it, whichever worker ran its job.  Every
    child is reaped before this returns or raises, also when this process
    is interrupted.
    """
    jobs = list(jobs)
    workers = min(len(jobs), usable_cpus())
    if (workers <= 1 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [fn(*job) for job in jobs]
    tickets = _queue_tickets(len(jobs))
    if tickets is None:
        return [fn(*job) for job in jobs]
    import pickle
    children: List[Tuple[int, int]] = []   # (pid, read end)
    drained = 0   # children whose pipe has been read to its end
    try:
        for _ in range(1, workers):
            child = _fork_worker(fn, jobs, tickets)
            if child is not None:
                children.append(child)
        outcomes = _work(fn, jobs, tickets)
        blobs = []
        for pid, read_fd in children:
            blob = _read_to_end(read_fd)
            drained += 1
            if not blob:
                raise RuntimeError(
                    f"worker process {pid} ended without sending its results")
            blobs.append(blob)
    finally:
        os.close(tickets)
        for number, (pid, read_fd) in enumerate(children):
            os.close(read_fd)
            if number >= drained:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for blob in blobs:
        outcomes.extend(pickle.loads(blob))
    results: List[Any] = [None] * len(jobs)
    failures = []
    for index, failed, outcome in outcomes:
        if failed:
            failures.append((index, outcome))
        else:
            results[index] = pickle.loads(outcome)
    if failures:
        raise pickle.loads(min(failures)[1])
    return results
