"""The processes etlwatch forks: how many (fork_ways) and jobs side by side
(run), and that no other module starts one."""

import ast
import multiprocessing
import os
import signal
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import etlwatch
from etlwatch.autoencoder import TrainConfig, train
from etlwatch.errors import EtlwatchError, UndefinedMetricError
from etlwatch.numerics import SeededRng
from etlwatch.streamgen import StreamConfig, generate
from etlwatch.workers import fork_ways, run

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

    def test_a_worker_never_forks(self, cpus, started):
        cpus(3)

        def in_a_worker():  # job 0, which a worker runs
            return os.getpid(), fork_ways(3), run([os.getpid] * 3, "a nested worker", "result")

        (pid, ways, pids), _ = run([in_a_worker, os.getpid], "a test worker", "result")
        assert pid != os.getpid()
        assert ways == 1 and pids == [pid] * 3
        assert len(started) == 1

    def test_live_workers_count_against_the_cpus(self, cpus, started):
        measured = multiprocessing.get_context("fork").Event()

        def busy():  # job 0, which a worker runs until the caller has measured
            measured.wait(60)

        def measure():  # job 1, which the caller runs beside that worker
            try:
                ways = [fork_ways(jobs) for jobs in (1, 2, 3, 50)]
                cpus(2)
                return ways, fork_ways(2), run([os.getpid] * 2, "a nested worker", "result")
            finally:
                measured.set()

        cpus(3)
        _, (ways, ways_on_two, pids) = run([busy, measure], "a test worker", "result")
        assert ways == [1, 2, 2, 2]
        assert ways_on_two == 1 and pids == [os.getpid()] * 2
        assert len(started) == 1
        assert fork_ways(2) == 2


@needs_fork
def test_generate_and_train_start_no_process(cpus, started):
    cpus(2)
    assert len(generate(StreamConfig(n_events=3_000, seed=11))) == 3_000
    x = SeededRng(5).uniform_block(2_000 * 8, -1.0, 1.0).reshape(2_000, 8)
    train(x, TrainConfig(epochs=50, batch_size=64, latent_dim=2))  # 100 000 shuffled rows
    assert started == []
    assert not multiprocessing.active_children()
