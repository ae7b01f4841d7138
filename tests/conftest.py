import numpy as np
import pytest

import losmimo.channel


def random_channel_set(rng, cells=2, users=3, antennas=16, scale=None) -> np.ndarray:
    """Random i.i.d. complex Gaussian (L, L, M, K) channels, scaled so
    per-column norms are O(1) and SINRs land in a moderate range."""
    if scale is None:
        scale = 1.0 / np.sqrt(2 * antennas)
    shape = (cells, cells, antennas, users)
    g = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _drop_station_pool():
    if losmimo.channel._pool.cache_info().currsize:
        losmimo.channel._pool().shutdown()
    losmimo.channel._pool.cache_clear()


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(n) builds channels on n threads, with a station pool made
    for n; the pool is shut down when the test ends."""

    def set_workers(n):
        monkeypatch.setattr(losmimo.channel, "WORKERS", n)
        _drop_station_pool()

    yield set_workers
    _drop_station_pool()
