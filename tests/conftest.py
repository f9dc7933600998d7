"""Fixtures shared by the test modules."""

import pytest

from biflogis import local_logistic as ll


def _cache_names():
    """Every module-level dict of local_logistic whose name ends in _CACHE:
    found by name, so a new calibration cache is covered too."""
    return [name for name, val in vars(ll).items()
            if name.endswith("_CACHE") and isinstance(val, dict)]


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty calibration caches, all of local_logistic's, for one test; the
    process-wide ones come back after it. Returns a function that empties
    them again.

    The cache keys hold no tolerance, so a test that changes
    quadrature.REL_TOL must take this fixture: otherwise its calibrations
    would be read by every later test."""
    names = _cache_names()

    def empty():
        for name in names:
            monkeypatch.setattr(ll, name, {})

    empty()
    return empty


@pytest.fixture
def calibrations():
    """A function that returns every entry of local_logistic's calibration
    caches, keyed by (cache name, key)."""
    def snapshot():
        return {(name, key): val for name in _cache_names()
                for key, val in getattr(ll, name).items()}

    return snapshot
