"""Fixtures for the tests of work that etlwatch runs in forked processes."""

import os

import pytest

from etlwatch import preprocess


@pytest.fixture
def cpus(monkeypatch):
    """Claim ``n`` usable CPUs with ``cpus(n)``."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def started(monkeypatch):
    """The producers of the workers :func:`~etlwatch.preprocess.forked` and
    :func:`~etlwatch.preprocess.ahead` start in this process, in order."""
    producers = []
    start = preprocess._start

    def counted(produce):
        producers.append(produce)
        return start(produce)

    monkeypatch.setattr(preprocess, "_start", counted)
    return producers
