"""The processes etlwatch forks, and the only code that starts them.

:func:`run` runs independent jobs on every usable CPU and returns their
results in job order: forked workers start on the first jobs and the caller
on the next, and then each process takes the next job left through one
shared counter. :func:`ahead` runs one producer in a worker that sends each
item as soon as it is made, while the caller works on the items before it.
Both start, hear from and reap their workers through one path, and both run
their work in the caller where :func:`fork_ways` gives one way; a worker
never forks, and a caller's live workers count against its CPUs.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import EtlwatchError

T = TypeVar("T")


def fork_ways(jobs: int) -> int:
    """How many processes to run ``jobs`` independent jobs on.

    That is the number of usable CPUs less the caller's live workers, at
    least 1 and at most ``jobs``. It is 1 where the ``fork`` start method is
    unavailable and in a daemonic process, which may not start children:
    every worker :func:`run` and :func:`ahead` start is one, so a worker
    never forks.
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

    Each worker sends its results as one item and is reaped as soon as that
    item is read. A job's exception is raised here, and a worker that ends
    without sending raises :class:`EtlwatchError` ("<who> ended with exit
    code <n> before it sent its <what>"). Any exception terminates and reaps
    every worker.
    """
    ways = fork_ways(len(jobs))
    if ways < 2:
        return [job() for job in jobs]
    import multiprocessing

    taken = multiprocessing.get_context("fork").Value("i", ways)  # the next job to take

    def take(i: int) -> Iterator[tuple[int, T]]:
        while i < len(jobs):
            yield i, jobs[i]()
            with taken.get_lock():
                i, taken.value = taken.value, taken.value + 1

    workers = []
    try:
        for i in range(ways - 1):  # each worker sends one item, its (index, result) pairs
            workers.append(_start(lambda i=i: [list(take(i))]))
        done = list(take(ways - 1))
        while workers:
            done += next(_received(*workers[0], who, what))
            _reap([workers.pop(0)])
    finally:
        _reap(workers)
    return [result for _, result in sorted(done, key=lambda pair: pair[0])]


def ahead(produce: Callable[[], Iterable[T]], who: str, what: str) -> Iterator[T]:
    """Each item of ``produce()`` in order, made ahead of the caller: a forked
    worker runs the producer and sends each item as soon as it is made, while
    the caller works on the items before it. Where :func:`fork_ways` gives one
    way, the producer runs in the caller and gives the same items.

    Errors and clean-up are those of :func:`run`: the worker's exception
    is raised where its next item would be, a worker that ends early raises
    "<who> ended with exit code <n> before it sent its <what>", and closing
    the iterator, or any exception, terminates and reaps the worker.
    """
    if fork_ways(2) < 2:
        yield from produce()
        return
    worker = _start(produce)
    try:
        yield from _received(*worker, who, what)
    finally:
        _reap([worker])


def _start(produce: Callable[[], Iterable]) -> tuple:
    """A forked, daemonic worker that runs :func:`_send_items` on ``produce``,
    and the end of its pipe that the caller reads."""
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    worker = fork.Process(target=_send_items, args=(send, produce), daemon=True)
    worker.start()
    send.close()  # the worker's end, so its death reads as EOF here
    return worker, receive


def _send_items(send, produce: Callable[[], Iterable]) -> None:
    """A forked worker: send each item of ``produce()`` as ``(True, item)`` as
    soon as it is made, then ``(False, None)``, or ``(False, exc)`` for the
    exception it raised."""
    try:
        for item in produce():
            send.send((True, item))
    except Exception as exc:  # the caller raises it where the next item would be
        send.send((False, exc))
    else:
        send.send((False, None))


def _received(worker, receive, who: str, what: str) -> Iterator:
    """The items a worker started by :func:`_start` sends, in order; the
    exception it sends is raised where its next item would be."""
    while True:
        try:
            more, item = receive.recv()
        except EOFError:
            worker.join()
            raise EtlwatchError(
                f"{who} ended with exit code {worker.exitcode} before it sent its {what}"
            ) from None
        if more:
            yield item
        elif item is None:
            return
        else:
            raise item


def _reap(workers: list) -> None:
    """Terminate and join each worker, and close its pipe."""
    for worker, receive in workers:
        worker.terminate()  # a worker that has sent has nothing left to do
        worker.join()
        receive.close()
