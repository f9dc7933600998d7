"""The NumPy kernels: c_factor against mpmath, RK4 accuracy and overflow
status."""

import math

import mpmath
import numpy as np

from biflogis import kernels

P_GRID = (1.5, 2.0, 2.5, 3.0, 5.0)


def test_c_factor_endpoints():
    for p in P_GRID:
        assert abs(kernels.c_factor(0.0, p) - 1.0) < 1e-15
        assert abs(kernels.c_factor(1.0, p) - 1.0 / (p + 1.0)) < 1e-14


def test_c_factor_p3_closed_form():
    # p = 3: f(1-u) = (1-(1-u)^2)^2/2, so c(u) = (2-u)^2/8... check against
    # the direct formula instead of trusting the branch arithmetic
    u = np.linspace(0.0, 1.0, 101)
    s = 1.0 - u
    f = 0.5 * (1.0 - s * s) ** 2
    expected = np.where(u > 0, f / np.maximum(2.0 * u * u, 1e-300), 1.0)
    got = kernels.c_factor(u, 3.0)
    assert np.max(np.abs(got[1:] - expected[1:])) < 1e-13


def test_c_factor_branch_continuity():
    # Below _C_ONE_BELOW c is 1.0 exactly, and just above it the identity
    # gives 1 - (p/3) u, which rounds to 1.0, within two ulps: the switch
    # does not jump
    one_below = kernels._C_ONE_BELOW
    for p in P_GRID + (1.0001, 1e4):
        assert kernels.c_factor(math.nextafter(one_below, 0.0), p) == 1.0
        assert kernels.c_factor(one_below * 1e-9, p) == 1.0
        assert abs(kernels.c_factor(one_below, p) - 1.0) <= 4.5e-16
        assert abs(kernels.c_factor(one_below * (1.0 + 1e-9), p) - 1.0) \
            <= 4.5e-16


def _c_reference(u: float, p: float) -> float:
    """f(1-u)/((p-1) u^2) in mpmath at 2 |log10 u| + 30 digits: f is about
    u^2 against terms of size 1, so it cancels 2 |log10 u| digits."""
    with mpmath.workdps(int(2 * abs(math.log10(u))) + 30):
        u, p = mpmath.mpf(u), mpmath.mpf(p)
        s = 1 - u
        f = (p - 1) / (p + 1) - s ** 2 + 2 * s ** (p + 1) / (p + 1)
        return float(f / ((p - 1) * u ** 2))


C_MP_P = (1.0001, 1.001, 1.05, 1.5, 1.8, 2.0, 2.5, 3.0, 5.0, 20.0, 100.0,
          1000.0, 1e4)


def test_c_factor_against_mpmath():
    # The one identity from the exact end up to u = 1, on log-spaced u,
    # random u, both sides of the end and u = 1 itself. The expm1/log1p and
    # direct-power forms this identity replaced were 4.0e-14 off at p = 1.5,
    # u = 0.0265.
    rng = np.random.default_rng(27)
    one_below = kernels._C_ONE_BELOW
    for p in C_MP_P:
        us = np.concatenate((np.logspace(-150, math.log10(1.0 - 1e-10), 120),
                             rng.random(40), 10.0 ** rng.uniform(-150, -2, 20),
                             (math.nextafter(one_below, 0.0), one_below,
                              one_below * (1.0 + 1e-9), 0.02, 0.0265)))
        got = kernels.c_factor(us, p)
        for u, c in zip(us.tolist(), got.tolist()):
            ref = _c_reference(u, p)
            assert abs(c / ref - 1.0) <= 5e-15, (p, u)
        assert abs(kernels.c_factor(1.0, p) * (p + 1.0) - 1.0) <= 5e-15, p


def test_c_factor_scalar_and_array():
    val = kernels.c_factor(0.3, 2.5)
    arr = kernels.c_factor(np.array([0.3]), 2.5)
    assert np.isscalar(val) or arr.shape == (1,)
    assert abs(float(val) - float(arr[0])) == 0.0


def test_rk4_overflow_status():
    # the second march overflows the floats inside an RK4 stage before |w|
    # reaches the 1e12 guard; it must still end with status 1, not raise
    for args in ((1.0, 1e8, 5.0, 10000), (15.0, 1e6, 5.0, 1000)):
        ws, zs, n, status = kernels.rk4_shoot(*args)
        assert status == 1
        assert n <= args[3] + 1
        assert np.all(np.isfinite(ws[:n])) and np.all(np.isfinite(zs[:n]))


def test_rk4_linear_limit():
    # p-term negligible for tiny slope: w ~ (m/sqrt(g)) sin(sqrt(g) x)
    gamma = math.pi ** 2
    m = 1e-8
    ws, zs, n, status = kernels.rk4_shoot(gamma, m, 3.0, 1000)
    assert status == 0 and n == 1001
    xs = 1e-3 * np.arange(1001)
    expected = (m / math.sqrt(gamma)) * np.sin(math.sqrt(gamma) * xs)
    assert np.max(np.abs(ws - expected)) < 1e-12 * m / math.sqrt(gamma) * 1e4


def _rk4_reference(gamma, slope, p, n_steps):
    """The Nystrom march step by step into preallocated arrays."""
    ws = np.zeros(n_steps + 1)
    zs = np.zeros(n_steps + 1)
    w, z, h = 0.0, slope, 1.0 / n_steps
    zs[0] = z
    f = lambda v: math.copysign(abs(v) ** p, v) - gamma * v
    for i in range(1, n_steps + 1):
        k1 = f(w)
        w2 = w + (0.5 * h) * z
        k2 = f(w2)
        w3 = w2 + (0.25 * h * h) * k1
        k3 = f(w3)
        wh = w + h * z
        w4 = wh + (0.5 * h * h) * k2
        k4 = f(w4)
        w = wh + (h * h / 6.0) * (k1 + (k2 + k3))
        z = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        ws[i], zs[i] = w, z
        if abs(w) > 1e12:
            return ws, zs, i + 1, 1
    return ws, zs, n_steps + 1, 0


def _rk4_classical(gamma, slope, p, n_steps):
    """Classical RK4 on the pair (w, w') step by step, unreduced."""
    ws = np.zeros(n_steps + 1)
    zs = np.zeros(n_steps + 1)
    w, z, h = 0.0, slope, 1.0 / n_steps
    zs[0] = z
    f = lambda v: math.copysign(abs(v) ** p, v) - gamma * v
    for i in range(1, n_steps + 1):
        k1w, k1z = z, f(w)
        w2, k2w = w + 0.5 * h * k1w, z + 0.5 * h * k1z
        k2z = f(w2)
        w3, k3w = w + 0.5 * h * k2w, z + 0.5 * h * k2z
        k3z = f(w3)
        w4, k4w = w + h * k3w, z + h * k3z
        k4z = f(w4)
        w += (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        z += (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        ws[i], zs[i] = w, z
        if abs(w) > 1e12:
            return ws, zs, i + 1, 1
    return ws, zs, n_steps + 1, 0


# The crossing marches take w < 0, at p = 2.7 too, where a negative base to
# the power p is not real. The last case leaves through the |w| > 1e12
# guard, not an overflow.
RK4_MARCHES = ((15.0, 3.0, 2.0, 10000), (50.0, 9.0, 3.0, 10000),
               (15.0, 3.0, 2.7, 10000), (1.0, 1e8, 2.0, 1000))


def test_rk4_matches_scalar_reference():
    # Same arithmetic in the same order: the samples must agree bit for bit.
    for args in RK4_MARCHES:
        ws, zs, n, status = kernels.rk4_shoot(*args)
        ref_ws, ref_zs, ref_n, ref_status = _rk4_reference(*args)
        assert (n, status) == (ref_n, ref_status)
        assert np.array_equal(ws, ref_ws) and np.array_equal(zs, ref_zs)
    assert status == 1 and abs(ws[n - 1]) > 1e12
    assert np.all(np.abs(ws[:n - 1]) <= 1e12) and not np.any(ws[n:])


def test_rk4_is_classical_rk4():
    # The Nystrom form is classical RK4 with the velocity stages folded in:
    # only the rounding differs (measured <= 1.2e-14 of the largest sample).
    for args in RK4_MARCHES:
        ws, zs, n, status = kernels.rk4_shoot(*args)
        ref_ws, ref_zs, ref_n, ref_status = _rk4_classical(*args)
        assert (n, status) == (ref_n, ref_status)
        assert np.max(np.abs(ws - ref_ws)) <= 1e-13 * np.max(np.abs(ref_ws))
        assert np.max(np.abs(zs - ref_zs)) <= 1e-13 * np.max(np.abs(ref_zs))


def test_rk4_midpoint_lag_march_is_the_w_march():
    # RK4 commutes with the affine change w = k_eq (1 - y), so the march on
    # the lag and the march on w from the same amplitude (a lag >= 1/2
    # starts on w at once) differ by rounding alone.
    for gamma, p, lag in ((50.0, 3.0, 0.3), (15.0, 2.0, 0.05),
                          (30.0, 8.0, 0.45), (12.0, 1.5, 0.2)):
        k = gamma ** (1.0 / (p - 1.0)) * (1.0 - lag)
        ws, zs, n, status = kernels.rk4_shoot(gamma, k, p, 2000, lag)
        ref_ws, ref_zs, ref_n, ref_status = kernels.rk4_shoot(gamma, k, p,
                                                              2000, 0.5)
        assert (n, status) == (ref_n, ref_status) and ws[0] == k
        assert np.max(np.abs(ws - ref_ws)) <= 1e-13 * k
        assert np.max(np.abs(zs - ref_zs)) <= 1e-13 * np.max(np.abs(ref_zs))


def test_rk4_midpoint_march_ends_past_its_crossing():
    # A midpoint march stops, with status 0, at its first sample below
    # zero; one a few ulps below the saddle holds there at its start and
    # never exceeds its amplitude.
    gamma, p = 50.0, 3.0
    k_eq = gamma ** 0.5
    ws, zs, n, status = kernels.rk4_shoot(gamma, 0.5 * k_eq, p, 1000, 0.5)
    assert status == 0 and n < 1001 and ws[n - 1] < 0.0
    assert np.all(ws[:n - 1] > 0.0) and not np.any(ws[n:]) and not np.any(zs[n:])
    assert np.all(np.diff(ws[:n]) < 0.0)
    lag = 1e-15
    ws, zs, n, status = kernels.rk4_shoot(gamma, k_eq * (1.0 - lag), p, 1000,
                                          lag)
    assert status == 0 and n == 1001
    assert np.all(ws <= ws[0]) and np.all(zs <= 0.0)
    assert ws[0] - ws[100] < 1e-12 * k_eq


def _rk4_midpoint_reference(gamma, start, p, n_steps, lag):
    """The midpoint march step by step into preallocated arrays: RK4 on the
    lag y = 1 - w/k_eq while y < 1/2, each sample k_eq (1 - y), -k_eq y';
    then on w, until the first sample below zero."""
    ws = np.zeros(n_steps + 1)
    zs = np.zeros(n_steps + 1)
    h = 0.5 / n_steps
    k_eq = gamma ** (1.0 / (p - 1.0))
    ws[0] = start
    fy = lambda y: -gamma * (1.0 - y) * math.expm1((p - 1.0) * math.log1p(-y))
    i, y, v = 0, lag, 0.0
    try:
        while y < 0.5 and i < n_steps:
            k1 = fy(y)
            y2 = y + (0.5 * h) * v
            k2 = fy(y2)
            y3 = y2 + (0.25 * h * h) * k1
            k3 = fy(y3)
            yh = y + h * v
            y4 = yh + (0.5 * h * h) * k2
            k4 = fy(y4)
            y = yh + (h * h / 6.0) * (k1 + (k2 + k3))
            v = v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            i += 1
            ws[i], zs[i] = k_eq * (1.0 - y), -k_eq * v
    except ValueError:      # a stage past y = 1: log1p of a value below -1
        return ws, zs, i + 1, 1
    w, z = ws[i], zs[i]
    f = lambda v: math.copysign(abs(v) ** p, v) - gamma * v
    while i < n_steps:
        k1 = f(w)
        w2 = w + (0.5 * h) * z
        k2 = f(w2)
        w3 = w2 + (0.25 * h * h) * k1
        k3 = f(w3)
        wh = w + h * z
        w4 = wh + (0.5 * h * h) * k2
        k4 = f(w4)
        w = wh + (h * h / 6.0) * (k1 + (k2 + k3))
        z = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        i += 1
        ws[i], zs[i] = w, z
        if w < 0.0:
            return ws, zs, i + 1, 0
    return ws, zs, n_steps + 1, 0


def _lag_at(t, p):
    """The oracle's lag 1 - k/k_eq at layer coordinate t > ln 2."""
    return -math.expm1(math.log1p(-math.exp(-t)) / (p - 1.0))


# (gamma, p, n_steps, lag, samples above k_eq/2): all on the lag, across
# into w, all on w, a 250-step coarse march across into w and past w = 0,
# and a coarse march whose lag stage steps past w = 0 (status 1).
RK4_MIDPOINT_MARCHES = ((50.0, 3.0, 1000, 1e-15, 1001),
                        (30.0, 8.0, 1000, 0.05, 527),
                        (50.0, 3.0, 1000, 0.6, 0),
                        (50.0, 5.0, 250, _lag_at(2.0, 5.0), 136),
                        (1e5, 50.0, 250, _lag_at(200.0, 50.0), 55))


def test_rk4_midpoint_matches_scalar_reference():
    # Same arithmetic in the same order as the two loops written out: the
    # samples must agree bit for bit, in both phases and at either status.
    for gamma, p, n_steps, lag, n_lag in RK4_MIDPOINT_MARCHES:
        start = gamma ** (1.0 / (p - 1.0)) * (1.0 - lag)
        ws, zs, n, status = kernels.rk4_shoot(gamma, start, p, n_steps, lag)
        ref_ws, ref_zs, ref_n, ref_status = _rk4_midpoint_reference(
            gamma, start, p, n_steps, lag)
        assert (n, status) == (ref_n, ref_status)
        assert np.array_equal(ws, ref_ws) and np.array_equal(zs, ref_zs)
        k_eq = gamma ** (1.0 / (p - 1.0))
        assert np.count_nonzero(ws[:n] > 0.5 * k_eq) == n_lag
    assert status == 1 and n == 55
