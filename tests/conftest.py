"""Fixtures shared by the test modules."""

import pytest

from biflogis import constants
from biflogis import local_logistic as ll

# The calibration caches of the moment stack and of the profile segments.
_LL_CACHES = ("_B_CACHE", "_S_CACHE", "_C_CACHE", "_VIEW_CACHE", "_SEG_CACHE")


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty calibration caches, local_logistic's and constants._PQ_CACHE,
    for one test; the process-wide ones come back after it. Returns a
    function that empties them again.

    The cache keys hold no tolerance, so a test that changes
    quadrature.REL_TOL must take this fixture: otherwise its calibrations
    would be read by every later test."""

    def empty():
        for name in _LL_CACHES:
            monkeypatch.setattr(ll, name, {})
        monkeypatch.setattr(constants, "_PQ_CACHE", {})

    empty()
    return empty
