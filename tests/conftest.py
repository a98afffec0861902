"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from lifisim import harness, util


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


@pytest.fixture
def two_point_threads(monkeypatch):
    """Run util.map_points on a fresh pool of two threads, even on one
    CPU. Yields the point count of each map the pool ran, so that a
    test can check its points went through the pool."""
    mapped = []

    class CountingPool(ThreadPoolExecutor):
        def map(self, fn, *iterables):
            iterables = [list(it) for it in iterables]
            mapped.append(len(iterables[0]))
            return super().map(fn, *iterables)

    monkeypatch.setattr(util, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(util, "_point_threads", 2)
    monkeypatch.setattr(util, "_point_pool", None)
    yield mapped
    if util._point_pool is not None:
        util._point_pool[2].shutdown()
