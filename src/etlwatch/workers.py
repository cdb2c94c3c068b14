"""The processes etlwatch forks, and the only code that starts them.

:func:`run` runs independent jobs on every usable CPU and returns their
results in job order: forked workers start on the first jobs and the caller
on the next, and then each process takes the next job left through one
shared counter. Each worker sends what it made as one message. Where
:func:`fork_ways` gives one way the caller runs the jobs itself; a worker
never forks, and a caller's live workers count against its CPUs.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Sequence, TypeVar

from .errors import EtlwatchError

T = TypeVar("T")


def fork_ways(jobs: int) -> int:
    """How many processes to run ``jobs`` independent jobs on.

    That is the number of usable CPUs less the caller's live workers, at
    least 1 and at most ``jobs``. It is 1 where the ``fork`` start method is
    unavailable and in a daemonic process, which may not start children:
    every worker :func:`run` starts is one, so a worker never forks.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if min(cpus, jobs) > 1:
        import multiprocessing

        if (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        ):
            return max(1, min(cpus - len(multiprocessing.active_children()), jobs))
    return 1


def run(jobs: Sequence[Callable[[], T]], who: str, what: str) -> list[T]:
    """Each job's result, in job order, with the jobs run on :func:`fork_ways`
    processes: forked workers start on jobs ``0 .. ways - 2`` and the caller
    on job ``ways - 1``, and then each process takes the next job that no
    process has taken whenever it is free. With one way the caller runs the
    jobs in turn.

    Each worker sends its results as one message and is reaped as soon as
    that message is read. A job's exception is raised here, and a worker
    that ends without sending raises :class:`EtlwatchError` ("<who> ended
    with exit code <n> before it sent its <what>"). Any exception terminates
    and reaps every worker.
    """
    ways = fork_ways(len(jobs))
    if ways < 2:
        return [job() for job in jobs]
    import multiprocessing

    taken = multiprocessing.get_context("fork").Value("i", ways)  # the next job to take

    def take(i: int) -> list[tuple[int, T]]:
        done = []
        while i < len(jobs):
            done.append((i, jobs[i]()))
            with taken.get_lock():
                i, taken.value = taken.value, taken.value + 1
        return done

    workers = []
    try:
        for i in range(ways - 1):
            workers.append(_start(partial(take, i)))
        done = take(ways - 1)
        while workers:
            done += _received(*workers[0], who, what)
            _reap([workers.pop(0)])
    finally:
        _reap(workers)
    return [result for _, result in sorted(done, key=lambda pair: pair[0])]


def _start(job: Callable[[], list]) -> tuple:
    """A forked, daemonic worker that runs :func:`_send` on ``job``, and the
    end of its pipe that the caller reads."""
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    worker = fork.Process(target=_send, args=(send, job), daemon=True)
    worker.start()
    send.close()  # the worker's end, so its death reads as EOF here
    return worker, receive


def _send(send, job: Callable[[], list]) -> None:
    """A forked worker: send the list ``job()`` returns, or the exception it
    raised (or that sending raised), as one message."""
    try:
        send.send(job())
    except Exception as exc:  # the caller raises it
        send.send(exc)


def _received(worker, receive, who: str, what: str) -> list:
    """The list a worker started by :func:`_start` sends; the exception it
    sends is raised here."""
    try:
        message = receive.recv()
    except EOFError:
        worker.join()
        raise EtlwatchError(
            f"{who} ended with exit code {worker.exitcode} before it sent its {what}"
        ) from None
    if isinstance(message, Exception):
        raise message
    return message


def _reap(workers: list) -> None:
    """Terminate and join each worker, and close its pipe."""
    for worker, receive in workers:
        worker.terminate()  # a worker that has sent has nothing left to do
        worker.join()
        receive.close()
