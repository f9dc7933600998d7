"""Fixtures shared by the test modules."""

import pytest

from biflogis import local_logistic as ll, nonlocal_curve


def _cache_names(module=ll):
    """Every module-level dict of module whose name ends in _CACHE: found
    by name, so a new cache is covered too."""
    return [name for name, val in vars(module).items()
            if name.endswith("_CACHE") and isinstance(val, dict)]


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty caches for one test: local_logistic's calibrations and
    nonlocal_curve's seed constants, which are formed from them. The
    process-wide ones come back after it. Returns a function that empties
    them again.

    The cache keys hold no tolerance, so a test that changes
    quadrature.REL_TOL must take this fixture: otherwise its calibrations
    would be read by every later test. A ProblemParams built before the
    caches are emptied keeps the seed constants memoised on it, so such a
    test builds its params after emptying them."""
    caches = [(module, name) for module in (ll, nonlocal_curve)
              for name in _cache_names(module)]

    def empty():
        for module, name in caches:
            monkeypatch.setattr(module, name, {})

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
