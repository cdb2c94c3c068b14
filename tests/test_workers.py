"""The processes etlwatch forks: how many (fork_ways), jobs side by side
(run) and a producer ahead of its caller (ahead), and that no other module
starts one."""

import ast
import gc
import itertools
import multiprocessing
import os
import signal
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import etlwatch
from etlwatch.errors import EtlwatchError, UndefinedMetricError
from etlwatch.workers import ahead, fork_ways, run

FORK = "fork" in multiprocessing.get_all_start_methods() and hasattr(os, "sched_getaffinity")
needs_fork = pytest.mark.skipif(not FORK, reason="workers need fork and sched_getaffinity")


def test_only_workers_imports_multiprocessing():
    importers = set()
    for path in Path(etlwatch.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "multiprocessing" for name in names):
                importers.add(path.name)
    assert importers == {"workers.py"}


@needs_fork
def test_fork_ways_is_the_usable_cpus_up_to_the_jobs(cpus):
    cpus(3)
    assert [fork_ways(jobs) for jobs in (0, 1, 2, 3, 50)] == [1, 1, 2, 3, 3]
    cpus(1)
    assert fork_ways(50) == 1


@needs_fork
class TestRun:
    """run's results, errors and clean-up, with the jobs in forked workers
    and the caller (more than one CPU claimed) and in the caller alone."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_results_come_back_in_job_order(self, cpus, started, n_cpus):
        cpus(n_cpus)
        # arrays of 0 to 80 kB, so a worker's results are more than a pipe holds
        jobs = [partial(np.arange, i * 256, dtype=np.int64) for i in range(40)]
        results = run(jobs, "a test worker", "result")
        assert len(results) == 40
        for i, values in enumerate(results):
            np.testing.assert_array_equal(values, np.arange(i * 256))
        assert len(started) == n_cpus - 1
        assert not multiprocessing.active_children()

    def test_every_job_runs_once_when_there_are_more_jobs_than_processes(self, cpus):
        # more processes than the host has cores, all taking from one counter
        ran = multiprocessing.get_context("fork").SimpleQueue()  # put writes at once

        def job(i):
            ran.put(i)
            return i, os.getpid()

        cpus(6)
        started = time.monotonic()
        results = run([partial(job, i) for i in range(200)], "a test worker", "result")
        assert time.monotonic() - started < 30
        runs = []
        while not ran.empty():
            runs.append(ran.get())
        assert sorted(runs) == list(range(200))  # none skipped, none run twice
        assert [i for i, _ in results] == list(range(200))
        assert len({pid for _, pid in results[:6]}) == 6  # each process starts on one
        assert not multiprocessing.active_children()

    def test_workers_start_on_the_first_jobs_and_the_caller_on_the_next(self, cpus, started):
        cpus(3)
        pids = run([os.getpid] * 3, "a test worker", "result")
        assert pids[2] == os.getpid() and len(set(pids)) == 3
        assert len(started) == 2
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("failing, where", [(0, "a worker"), (1, "the caller")])
    def test_a_job_exception_is_raised_in_the_caller(self, cpus, failing, where):
        caller = os.getpid()

        def job(i):
            if i == failing:
                place = "the caller" if os.getpid() == caller else "a worker"
                raise UndefinedMetricError(f"job {i} failed in {place}")
            return i

        cpus(2)
        with pytest.raises(UndefinedMetricError, match=f"job {failing} failed in {where}"):
            run([partial(job, 0), partial(job, 1)], "a test worker", "result")
        assert not multiprocessing.active_children()

    def test_a_killed_worker_is_an_error(self, cpus):
        caller = os.getpid()

        def job():
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return os.getpid()

        cpus(2)
        started = time.monotonic()
        message = "a test worker ended with exit code -9 before it sent its result"
        with pytest.raises(EtlwatchError, match=message):
            run([job, job], "a test worker", "result")
        assert time.monotonic() - started < 30
        assert not multiprocessing.active_children()

    def test_a_caller_exception_stops_the_workers(self, cpus):
        caller = os.getpid()

        def job():
            if os.getpid() == caller:
                raise UndefinedMetricError("failed in the caller")
            time.sleep(60)  # a worker still busy is stopped, not waited for

        cpus(3)
        started = time.monotonic()
        with pytest.raises(UndefinedMetricError, match="failed in the caller"):
            run([job] * 3, "a test worker", "result")
        assert time.monotonic() - started < 30
        assert not multiprocessing.active_children()

    def test_one_way_runs_the_jobs_in_the_caller(self, cpus, started):
        cpus(1)
        assert run([os.getpid] * 3, "a test worker", "result") == [os.getpid()] * 3
        assert started == []

    def test_a_daemonic_caller_runs_the_jobs_itself(self, cpus):
        cpus(3)
        fork = multiprocessing.get_context("fork")
        receive, send = fork.Pipe(duplex=False)

        def in_a_daemon():
            try:
                send.send((os.getpid(), run([os.getpid] * 3, "a test worker", "result")))
            except Exception as exc:  # a worker started by a daemon raises here
                send.send((os.getpid(), repr(exc)))

        daemon = fork.Process(target=in_a_daemon, daemon=True)
        daemon.start()
        assert receive.poll(30), "the daemon sent nothing"
        pid, pids = receive.recv()
        daemon.join(10)
        assert not daemon.is_alive()
        assert pids == [pid] * 3


@needs_fork
class TestAhead:
    """ahead's items, errors and clean-up, with the producer in a forked
    worker (two CPUs claimed) and in the caller (one)."""

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_same_items_in_a_worker_and_inline(self, cpus, started, n_cpus):
        cpus(n_cpus)

        def produce():  # arrays of 0 to 80 kB, more than a pipe holds
            for i in range(40):
                yield os.getpid(), i, np.arange(i * 256, dtype=np.int64)

        items = list(ahead(produce, "a test worker", "item"))
        assert [i for _, i, _ in items] == list(range(40))
        for i, (_, _, values) in enumerate(items):
            np.testing.assert_array_equal(values, np.arange(i * 256))
        in_caller = {pid for pid, _, _ in items} == {os.getpid()}
        assert in_caller == (n_cpus == 1)
        assert len(started) == n_cpus - 1
        assert not multiprocessing.active_children()

    def test_worker_exception_is_raised_where_its_item_would_be(self, cpus, started):
        cpus(2)

        def produce():
            yield from range(3)
            raise UndefinedMetricError(f"failed after 3 items in {os.getpid()}")

        items = ahead(produce, "a test worker", "item")
        assert [next(items) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(UndefinedMetricError, match="failed after 3 items") as info:
            next(items)
        assert str(os.getpid()) not in str(info.value)
        assert len(started) == 1
        assert not multiprocessing.active_children()

    def test_a_killed_worker_is_an_error(self, cpus):
        cpus(2)

        def produce():
            yield "first"
            os.kill(os.getpid(), signal.SIGKILL)

        started = time.monotonic()
        items = ahead(produce, "a test worker", "item")
        assert next(items) == "first"
        message = "a test worker ended with exit code -9 before it sent its item"
        with pytest.raises(EtlwatchError, match=message):
            next(items)
        assert time.monotonic() - started < 30
        assert not multiprocessing.active_children()

    def test_closing_or_leaving_early_stops_the_worker(self, cpus):
        cpus(2)
        items = ahead(itertools.count, "a test worker", "item")
        assert [next(items) for _ in range(3)] == [0, 1, 2]
        items.close()  # the worker is blocked on a full pipe, or still counting
        assert not multiprocessing.active_children()
        with pytest.raises(UndefinedMetricError):
            for i in ahead(itertools.count, "a test worker", "item"):
                if i == 2:
                    raise UndefinedMetricError("the caller failed")
        gc.collect()  # the abandoned iterator is closed when it is collected
        assert not multiprocessing.active_children()

    def test_a_worker_never_forks(self, cpus):
        cpus(3)
        assert list(ahead(lambda: [fork_ways(3)], "a test worker", "item")) == [1]
        # job 1 runs in the caller while job 0's worker is live
        jobs = [lambda: fork_ways(3)] * 2
        assert run(jobs, "a test worker", "result") == [1, 2]

    def test_live_workers_count_against_the_cpus(self, cpus):
        cpus(3)

        def produce():
            yield "first"
            time.sleep(60)  # busy until the caller closes the iterator

        items = ahead(produce, "a test worker", "item")
        next(items)
        assert [fork_ways(jobs) for jobs in (1, 2, 3, 50)] == [1, 2, 2, 2]
        cpus(2)
        assert fork_ways(2) == 1
        assert list(ahead(lambda: [os.getpid()], "a test worker", "item")) == [os.getpid()]
        items.close()
        assert fork_ways(2) == 2
