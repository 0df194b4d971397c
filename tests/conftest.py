"""Fixtures shared by the simulation and acceptance tests."""

import pytest

from secretary_lab import sim


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every process pool sim.monte_carlo starts, in order."""
    sizes = []
    real_pool = sim.ProcessPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", pool)
    return sizes
