"""Shooting solver: linear limits, conservation, and the two-route check.

The shooting route shares no integrals with the time-map route, so the
agreement tests at the bottom are genuine cross-validation.
"""

import math

import numpy as np
import pytest

from biflogis import kernels
from biflogis.errors import NoConvergence, NoSolution, Overflow
from biflogis.local_logistic import (LocalParams, Profile, point_from_gamma,
                                     q_norm)
from biflogis.oracle import (ShootConfig, energy_drift, norms_from_profile,
                             shoot, solve_bvp)

PI = math.pi


def make_profile(f, n=401, k=1.0, gamma=15.0, p=3.0):
    xs = np.linspace(0.0, 1.0, n)
    return Profile(xs=xs, ws=f(xs), k=k, gamma=gamma, p=p)


# ------------------------------------------------------------------- norms


def test_norms_constant_profile():
    prof = make_profile(lambda x: np.full_like(x, 0.7), k=0.7)
    for q in (1.0, 2.0, 4.0):
        assert abs(norms_from_profile(prof, q) - 0.7) < 1e-12


def test_norms_sine_profile():
    # int sin^2(pi x) = 1/2, int sin^4(pi x) = 3/8 on [0, 1]
    prof = make_profile(lambda x: np.sin(PI * x), n=801)
    assert abs(norms_from_profile(prof, 2.0) - math.sqrt(0.5)) < 1e-10
    assert abs(norms_from_profile(prof, 4.0) - 0.375 ** 0.25) < 1e-10


def test_norms_nonuniform_grid():
    # clustered nodes exercise the uneven three-point weights
    t = np.linspace(0.0, 1.0, 501)
    xs = t * t * (3.0 - 2.0 * t)
    ws = np.sin(PI * xs)
    prof = Profile(xs=xs, ws=ws, k=1.0, gamma=15.0, p=3.0)
    assert abs(norms_from_profile(prof, 2.0) - math.sqrt(0.5)) < 1e-8


def test_norms_validation():
    prof = make_profile(lambda x: np.sin(PI * x), n=51)
    with pytest.raises(ValueError):
        norms_from_profile(prof, 2.0)
    good = make_profile(lambda x: np.sin(PI * x))
    with pytest.raises(ValueError):
        norms_from_profile(good, 0.0)
    with pytest.raises(ValueError):
        norms_from_profile(good, -2.0)


# ------------------------------------------------------------------- shoot


def test_shoot_linear_limit_crossing():
    # m -> 0 turns the equation into w'' = -gamma w, whose first return to
    # zero is at x = pi / sqrt(gamma); gamma = 4 pi^2 puts it at 1/2.
    res = shoot(4.0 * PI * PI, 1e-10, 2.0)
    assert res.crossed
    assert abs(res.x_cross - 0.5) < 1e-6


def test_shoot_linear_limit_profile():
    gamma = 4.0 * PI * PI
    m = 1e-10
    res = shoot(gamma, m, 2.0)
    half = res.xs <= 0.5
    expect = m / math.sqrt(gamma) * np.sin(math.sqrt(gamma) * res.xs[half])
    assert np.max(np.abs(res.ws[half] - expect)) < 1e-8 * m


def test_shoot_energy_conserved():
    for gamma, m, p in ((15.0, 0.5, 3.0), (50.0, 2.0, 2.0)):
        res = shoot(gamma, m, p)
        assert energy_drift(res) < 1e-10


def test_shoot_overflow():
    with pytest.raises(Overflow):
        shoot(15.0, 1e6, 3.0)


def test_shoot_validation():
    with pytest.raises(ValueError):
        shoot(-1.0, 0.5, 3.0)
    with pytest.raises(ValueError):
        shoot(15.0, 0.0, 3.0)


def test_shoot_config_validation():
    with pytest.raises(ValueError):
        ShootConfig(step=0.0)
    with pytest.raises(ValueError):
        ShootConfig(step=0.02)
    with pytest.raises(ValueError):
        ShootConfig(slope_tol=0.0)
    with pytest.raises(ValueError):
        ShootConfig(max_bisections=0)
    assert ShootConfig(step=1e-2).n_steps == 100


# --------------------------------------------------------------- solve_bvp


def test_solve_bvp_below_threshold():
    with pytest.raises(NoSolution):
        solve_bvp(9.0, 3.0)
    with pytest.raises(NoSolution):
        solve_bvp(PI * PI, 3.0)


def test_solve_bvp_near_one_typed_error():
    # For p near 1 the solution's amplitude gamma^{1/(p-1)} is far past the
    # march's 1e12 guard, and the saddle slope overflows as a float power.
    # Every non-crossing shot diverges past the guard, and the search must
    # end in a typed error within its budget.
    for gamma, p in ((50.0, 1.001), (15.0, 1.05)):
        with pytest.raises(NoConvergence):
            solve_bvp(gamma, p)
    with pytest.raises(ValueError):
        solve_bvp(15.0, 1.0)


@pytest.mark.parametrize("p,gamma", ((2.0, 15.0), (3.0, 50.0), (5.0, 15.0),
                                     (5.1857, 14.3376)))
def test_solve_bvp_march_count(monkeypatch, p, gamma):
    # The saddle-energy bracket and Illinois steps take 10-17 marches here;
    # plain bisection on the slope needs 44-54.
    calls = []
    march = kernels.rk4_shoot

    def counted(*args):
        calls.append(args)
        return march(*args)

    monkeypatch.setattr(kernels, "rk4_shoot", counted)
    solve_bvp(gamma, p)
    assert len(calls) <= 25


def test_solve_bvp_matches_time_map():
    # Two independent routes to the same boundary-value solution. The
    # time-map route is quadrature-accurate; the shooting error is set by
    # the RK4 step and the slope search.
    for gamma, p in ((15.0, 3.0), (14.3376, 5.1857), (15.0, 8.0), (12.0, 20.0)):
        params = LocalParams(p=p)
        ref = point_from_gamma(gamma, params)
        point, profile = solve_bvp(gamma, p)
        assert abs(point.k - ref.k) < 1e-9 * ref.k
        assert abs(point.d - ref.d) < 1e-8 * ref.d
        w4_ref = q_norm(ref.k, ref.gamma, 4.0, params)
        assert abs(norms_from_profile(profile, 4.0) - w4_ref) < 1e-8 * w4_ref


def test_solve_bvp_profile_symmetric():
    # the equation is autonomous and the boundary data symmetric, so any
    # asymmetry in the accepted trajectory is pure integrator error
    point, profile = solve_bvp(40.0, 2.0)
    asym = np.max(np.abs(profile.ws - profile.ws[::-1]))
    assert asym < 1e-7 * point.k


def test_solve_bvp_step_convergence():
    # RK4 is fourth order: halving the step should shrink the amplitude
    # error by about 16. Loose bounds absorb the slope search's noise floor.
    params = LocalParams(p=3.0)
    k_ref = point_from_gamma(20.0, params).k
    errs = []
    for step in (1e-2, 5e-3, 2.5e-3):
        point, _ = solve_bvp(20.0, 3.0, ShootConfig(step=step))
        errs.append(abs(point.k - k_ref))
    assert errs[0] > errs[1] > errs[2]
    assert 6.0 < errs[0] / errs[1] < 40.0
    assert 6.0 < errs[1] / errs[2] < 40.0
