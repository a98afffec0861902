"""Fixtures shared by the test modules."""

import pytest

from lifisim import harness


@pytest.fixture
def pool_starts(monkeypatch):
    """Worker counts of the process pools the harness starts in a test,
    so that a worker-count comparison can check it used a pool."""
    starts = []
    pool = harness.ProcessPoolExecutor

    def counting(*args, **kwargs):
        starts.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", counting)
    return starts
