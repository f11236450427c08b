"""Run independent jobs on every CPU the process may use.

:func:`fan_out` is ``[fn(*job) for job in jobs]``, computed in job order
by the calling process and by ``os.fork()`` children, one share of the
jobs each.  The children inherit ``fn`` and the jobs from the fork, so
only their results travel, pickled, back through a pipe.  A job's result
is whatever it computes, whichever process computes it, so a caller whose
jobs are independent gets the same values as from the serial loop.
Forking, not spawning, is what makes the split pay: a spawned worker
starts a new interpreter and imports the package again, which takes
about as long as the pole scan it would share.

Each worker is pinned to one CPU of the process's affinity mask while
it runs its share, the calling process to the first, which gets its own
mask back before :func:`fan_out` returns.  Unpinned, a freshly forked
child was seen to stay on its parent's CPU for its first 100 ms or more
(Linux 6.18 on a 2-vCPU VM), and the shares of a pole scan ran one
after the other.

The serial loop runs instead, in the calling process, when only one
worker would be used, when the platform has no ``os.fork``, or when the
process runs more than one thread: a fork copies only the forking thread,
and a lock another thread held stays held in the child.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

__all__ = ["usable_cpus", "fan_out"]


def _affinity() -> Optional[Set[int]]:
    """The CPUs this process may run on, or None where the platform has
    no affinity call."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return os.sched_getaffinity(0)


def _pin(cpus: Set[int]) -> None:
    """Run this process on ``cpus`` only; where the system refuses, it
    runs where it did."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def usable_cpus() -> int:
    """The number of CPUs this process may run on (at least 1)."""
    return len(_affinity() or ()) or os.cpu_count() or 1


def _run_share(fn: Callable[..., Any], jobs: Sequence[Sequence[Any]],
               share: range) -> tuple:
    """(True, results) of the share's jobs, or (False, (index, exception))
    for its first failing job; the later jobs of the share do not run."""
    results = []
    for index in share:
        try:
            results.append(fn(*jobs[index]))
        except Exception as exc:
            return False, (index, exc)
    return True, results


def _child(fn: Callable[..., Any], jobs: Sequence[Sequence[Any]],
           share: range, cpus: Optional[Set[int]], write_fd: int) -> None:
    """Run one share in a forked child, send its outcome and exit.

    The child always leaves through ``os._exit``: it never flushes the
    stdio buffers it shares with the parent, runs no atexit hook and
    never returns into the caller.
    """
    status = 1
    try:
        import pickle
        if cpus:
            _pin(cpus)
        ok, payload = _run_share(fn, jobs, share)
        try:
            # An exception whose class cannot rebuild itself from its
            # pickled arguments would fail only in the parent.
            blob = pickle.dumps((ok, payload))
            pickle.loads(blob)
        except Exception as exc:
            index, what = ((share[0], "the results of its jobs") if ok
                           else (payload[0], repr(payload[1])))
            blob = pickle.dumps((False, (index, RuntimeError(
                f"a worker process cannot send back {what}: {exc!r}"))))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(blob)
        status = 0
    finally:
        os._exit(status)


def _fork_worker(fn: Callable[..., Any], jobs: Sequence[Sequence[Any]],
                 share: range, cpus: Optional[Set[int]]
                 ) -> Optional[Tuple[int, int]]:
    """Fork a child that runs ``share`` on ``cpus``: its pid and the read
    end of its pipe, or None when the system refuses the pipe or the
    process."""
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
        _child(fn, jobs, share, cpus, write_fd)
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

    With w = min(len(jobs), usable_cpus()) workers, job i belongs to
    share i mod w.  The calling process runs share 0 and one forked child
    runs each other share; a share whose child the system refuses runs
    in the calling process too.  Share w runs pinned to the CPU of index
    w mod n in the sorted affinity mask of n CPUs.  The jobs must be
    independent of each other and of the order they run in, and their
    results picklable.

    If jobs fail, the exception of the earliest failing job is raised,
    as the serial loop would raise it.  A child's exception arrives
    unpickled, with its type and message; one that cannot be pickled
    becomes a :class:`RuntimeError` naming it.  Every child is reaped
    before this returns or raises, also when this process is interrupted.
    """
    jobs = list(jobs)
    workers = min(len(jobs), usable_cpus())
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(*job) for job in jobs]
    import pickle
    shares = [range(w, len(jobs), workers) for w in range(workers)]
    mask = _affinity()
    cpus = [{cpu} for cpu in sorted(mask)] if mask else [None]
    local = shares[:1]
    children: List[Tuple[range, int, int]] = []   # (share, pid, read end)
    drained = 0   # children whose pipe has been read to its end
    try:
        for share in shares[1:]:
            worker = _fork_worker(fn, jobs, share,
                                  cpus[share.start % len(cpus)])
            if worker is None:
                local.append(share)
            else:
                children.append((share, *worker))
        if mask:
            _pin(cpus[0])
        outcomes = [(share, _run_share(fn, jobs, share)) for share in local]
        for share, pid, read_fd in children:
            blob = _read_to_end(read_fd)
            drained += 1
            if not blob:
                raise RuntimeError(
                    f"worker process {pid} ended without sending its results")
            outcomes.append((share, pickle.loads(blob)))
    finally:
        if mask:
            _pin(mask)
        for number, (_, pid, read_fd) in enumerate(children):
            os.close(read_fd)
            if number >= drained:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [payload for _, (ok, payload) in outcomes if not ok]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: List[Any] = [None] * len(jobs)
    for share, (_, values) in outcomes:
        for index, value in zip(share, values):
            results[index] = value
    return results
