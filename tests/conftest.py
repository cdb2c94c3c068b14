"""Fixtures for the tests of work that etlwatch runs in forked processes."""

import os

import pytest

from etlwatch import workers


@pytest.fixture
def cpus(monkeypatch):
    """Claim ``n`` usable CPUs with ``cpus(n)``."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def started(monkeypatch):
    """The jobs of the workers :func:`~etlwatch.workers.run` starts in this
    process, in order."""
    jobs = []
    start = workers._start

    def counted(job):
        jobs.append(job)
        return start(job)

    monkeypatch.setattr(workers, "_start", counted)
    return jobs
