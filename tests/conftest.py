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
    """The producers of the workers :func:`~etlwatch.workers.run` and
    :func:`~etlwatch.workers.ahead` start in this process, in order."""
    producers = []
    start = workers._start

    def counted(produce):
        producers.append(produce)
        return start(produce)

    monkeypatch.setattr(workers, "_start", counted)
    return producers
