"""The adaptive Gauss rule against closed-form integrals."""

import math
import time

import numpy as np
import pytest

from biflogis.errors import NoConvergence, NonFinite
from biflogis import quadrature
from biflogis.quadrature import integrate


def test_gauss_polynomial_exact():
    res = integrate(lambda s: 3.0 * s ** 2, 0.0, 1.0)
    assert abs(res.value - 1.0) < 1e-14
    assert res.error_estimate <= max(1e-14, 1e-12 * abs(res.value))


def test_gauss_oscillatory():
    # int_0^{2pi} sin^2 = pi; forces panel refinement
    res = integrate(lambda s: np.sin(7.0 * s) ** 2, 0.0, 2.0 * math.pi)
    assert abs(res.value - math.pi) < 1e-12


def test_gauss_exponential():
    res = integrate(np.exp, 0.0, 1.0)
    assert abs(res.value - (math.e - 1.0)) < 1e-13


def test_nonfinite_detected():
    with pytest.raises(NonFinite):
        integrate(lambda s: np.full_like(s, np.nan), 0.0, 1.0)
    with pytest.raises(NonFinite):
        integrate(lambda s: np.full_like(s, np.inf), 0.0, 1.0)


def test_no_convergence_on_rough_integrand(monkeypatch):
    rng = np.random.default_rng(7)

    def noisy(s):
        return rng.standard_normal(s.shape)

    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 3)
    with pytest.raises(NoConvergence, match="after 3 refinement rounds"):
        integrate(noisy, 0.0, 1.0)


def test_white_noise_hits_panel_bound():
    # Noise fails on every panel; without a bound each round would double
    # the panels for MAX_REFINEMENTS = 30 rounds.
    rng = np.random.default_rng(11)

    def noisy(s):
        return rng.standard_normal(s.shape)

    def stacked(s):
        return rng.standard_normal((3, s.size))

    for f in (noisy, stacked):
        t0 = time.perf_counter()
        with pytest.raises(NoConvergence, match="panels"):
            integrate(f, 0.0, 1.0)
        assert time.perf_counter() - t0 < 1.0


def test_interval_validation():
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 0.0)


def test_tolerance_is_respected_not_exceeded_wildly(monkeypatch):
    # a loose tolerance must still produce a correct-ish value with a small
    # evaluation budget
    tight = integrate(lambda s: np.cos(s), 0.0, 1.0)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-6)
    res = integrate(lambda s: np.cos(s), 0.0, 1.0)
    assert abs(res.value - math.sin(1.0)) < 1e-6
    assert tight.evaluations >= res.evaluations


def test_stacked_integrand_matches_scalar_components():
    # Rows of very different difficulty: the panel set is refined until the
    # hardest row converges, and each row must still agree with its own
    # scalar integration.
    rows = (np.exp, lambda s: np.sin(7.0 * s) ** 2,
            lambda s: 1.0 / (1e-3 + s * s))

    def stacked(s):
        return np.stack([f(s) for f in rows])

    res = integrate(stacked, -1.0, 1.0)
    assert res.value.shape == res.error_estimate.shape == (len(rows),)
    for i, f in enumerate(rows):
        ref = integrate(f, -1.0, 1.0)
        assert abs(res.value[i] / ref.value - 1.0) <= 1e-14
        assert res.error_estimate[i] <= max(1e-14, 1e-12 * abs(res.value[i]))


def test_scalar_result_unchanged():
    # Values, error estimates and node counts of the scalar rule, frozen
    # bit for bit from before the stacked form existed.
    cases = (
        (lambda s: np.sin(7.0 * s) ** 2, 0.0, 2.0 * math.pi,
         "0x1.921fb54442d18p+1", "0x1.a000000000000p-49", 252),
        (np.exp, 0.0, 1.0, "0x1.b7e151628aed2p+0", "0x0.0p+0", 36),
        (lambda s: 1.0 / (1e-3 + s * s), -1.0, 1.0,
         "0x1.8562ddb8abdd3p+6", "0x1.cc00000000000p-47", 828),
    )
    for f, a, b, value, err, evals in cases:
        res = integrate(f, a, b)
        assert type(res.value) is float and type(res.error_estimate) is float
        assert res.value == float.fromhex(value)
        assert res.error_estimate == float.fromhex(err)
        assert res.evaluations == evals


def test_stacked_nonfinite_detected():
    with pytest.raises(NonFinite):
        integrate(lambda s: np.stack([s, np.full_like(s, np.nan)]), 0.0, 1.0)
