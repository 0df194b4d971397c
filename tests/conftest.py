"""Fixtures shared by the simulation and acceptance tests."""

import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every process pool sim.monte_carlo starts, in order."""
    sizes = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return sizes
