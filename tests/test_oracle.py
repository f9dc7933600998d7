"""Shooting solver: linear limits, conservation, and the two-route check.

The shooting route shares no integrals with the time-map route, so the
agreement tests at the bottom are genuine cross-validation.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biflogis import kernels, oracle
from biflogis.errors import BiflogisError, InvalidBracket, NoSolution, Overflow
from biflogis.local_logistic import (LocalParams, Profile, point_from_gamma,
                                     q_norm)
from biflogis.oracle import (ShootConfig, ShootResult, energy_drift,
                             norms_from_profile, shoot, solve_bvp)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from oracle_grid import xcheck_draws  # noqa: E402

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


def simpson_loop(xs, ws, q):
    """The pair-by-pair composite Simpson sum, as a reference."""
    f = np.abs(ws) ** q
    n = len(xs)
    total = 0.0
    i = 0
    while i + 2 <= n - 1:
        h0 = xs[i + 1] - xs[i]
        h1 = xs[i + 2] - xs[i + 1]
        hs = h0 + h1
        total += hs / 6.0 * ((2.0 - h1 / h0) * f[i]
                             + hs * hs / (h0 * h1) * f[i + 1]
                             + (2.0 - h0 / h1) * f[i + 2])
        i += 2
    if i == n - 2:
        total += 0.5 * (xs[i + 1] - xs[i]) * (f[i] + f[i + 1])
    return total ** (1.0 / q)


@pytest.mark.parametrize("n", (401, 402, 501, 502, 801, 802))
def test_norms_match_simpson_loop(n):
    # The grids of the tests above, plus one node each, which leaves an odd
    # interval for the trapezoid.
    t = np.linspace(0.0, 1.0, n)
    for xs in (t, t * t * (3.0 - 2.0 * t)):
        for ws in (np.full_like(xs, 0.7), np.sin(PI * xs), xs * (1.0 - xs) ** 3):
            prof = Profile(xs=xs, ws=ws, k=1.0, gamma=15.0, p=3.0)
            for q in (1.0, 1.1, 2.0, 4.0):
                ref = simpson_loop(xs, ws, q)
                assert abs(norms_from_profile(prof, q) - ref) <= 1e-14 * ref


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


def test_shoot_validation(monkeypatch):
    # Every input outside the domain is a ValueError before any march. NaN
    # or infinite gamma and m, and p = nan, once marched to a NaN w(1);
    # p = 0.5 marched below the domain and p = -1 divided by zero.
    calls = count_marches(monkeypatch)
    nan, inf = math.nan, math.inf
    for gamma, m, p in ((-1.0, 0.5, 3.0), (15.0, 0.0, 3.0),
                        (nan, 1.0, 3.0), (inf, 1.0, 3.0),
                        (15.0, nan, 3.0), (15.0, inf, 3.0),
                        (15.0, 1.0, nan), (15.0, 1.0, inf),
                        (15.0, 1.0, 1.0), (15.0, 1.0, 0.5), (15.0, 1.0, -1.0)):
        with pytest.raises(ValueError):
            shoot(gamma, m, p)
    for gamma in (nan, inf, -1.0):
        with pytest.raises(ValueError):
            solve_bvp(gamma, 3.0)
    assert calls == []


def test_shoot_config_validation():
    with pytest.raises(ValueError):
        ShootConfig(step=0.0)
    with pytest.raises(ValueError):
        ShootConfig(step=0.02)
    with pytest.raises(ValueError):
        ShootConfig(step=1e-9)  # 10**9 samples: never marched
    assert ShootConfig(step=1e-2).n_steps == 100
    assert ShootConfig(step=1e-6).n_steps == 10 ** 6


# --------------------------------------------------------------- solve_bvp


def test_solve_bvp_below_threshold():
    with pytest.raises(NoSolution):
        solve_bvp(9.0, 3.0)
    with pytest.raises(NoSolution):
        solve_bvp(PI * PI, 3.0)


def test_solve_bvp_near_one_typed_error():
    # For p near 1 the solution's amplitude nears the saddle
    # k_eq = gamma^{1/(p-1)}: at (50, 1.001) k_eq leaves the floats, and the
    # solver must say so before any march. At (15, 1.05), k = 1.9e14, far
    # past the 1e12 guard of the launch from x = 0, the midpoint launch
    # solves it.
    with pytest.raises(Overflow):
        solve_bvp(50.0, 1.001)
    point, _ = solve_bvp(15.0, 1.05)
    ref = point_from_gamma(15.0, LocalParams(p=1.05))
    assert ref.k > 1e14
    assert abs(point.k - ref.k) < 1e-9 * ref.k
    assert abs(point.d - ref.d) < 1e-9 * ref.d
    with pytest.raises(ValueError):
        solve_bvp(15.0, 1.0)


def count_marches(monkeypatch):
    """A list that gains one entry per RK4 march from here on."""
    calls = []
    march = kernels.rk4_shoot

    def counted(*args):
        calls.append(args)
        return march(*args)

    monkeypatch.setattr(kernels, "rk4_shoot", counted)
    return calls


MARCH_COUNT_POINTS = ((2.0, 15.0), (3.0, 50.0), (5.0, 15.0),
                      (5.1857, 14.3376), (4.9204, 50.1527), (5.0578, 53.3147))
# The RK4 steps each of those solves takes, counted; and the step bounds'
# margin over a count, one requested half-march: one requested march more
# passes, two fail.
MARCH_COUNT_STEPS = dict(zip(MARCH_COUNT_POINTS, (9_250, 9_750, 9_500, 9_500,
                                                  9_500, 14_500)))
STEP_MARGIN = ShootConfig().n_steps // 2


def rk4_steps(calls):
    """RK4 steps the recorded marches asked for: the sum of their n_steps."""
    return sum(args[3] for args in calls)


@pytest.mark.parametrize("p,gamma", MARCH_COUNT_POINTS)
def test_solve_bvp_march_count(monkeypatch, p, gamma):
    # The midpoint shots, 7-9 on the 250-step coarse half-march, one on the
    # 2,500-step half-length march and 1-2 on the requested 5,000-step one,
    # cost 9,250-14,500 steps here; each bound is the count plus
    # STEP_MARGIN. The slope search from x = 0 on 100-, 1,000- and
    # 10,000-step marches cost 12,900-35,600, the single-level secant search
    # 5-9 full marches, the Illinois search before it 10-25, plain bisection
    # on the slope 44-54.
    calls = count_marches(monkeypatch)
    solve_bvp(gamma, p)
    assert rk4_steps(calls) <= MARCH_COUNT_STEPS[p, gamma] + STEP_MARGIN


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_xcheck_draws_are_the_benchmarks(monkeypatch, seed):
    # The march-count tests below solve the oracle_xcheck workload's draws;
    # tools/oracle_grid.py's copy of its draw must name the same steps.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    steps = workloads.build("oracle_xcheck", seed,
                            ROOT / "tests" / "_oracle_values.py")
    assert [s.name for s in steps if s.is_op] == [
        f"xcheck p={p} gamma={gamma}" for p, gamma in xcheck_draws(seed)]


def test_solve_cost_alphas_are_the_benchmarks(monkeypatch):
    # tools/solve_cost.py times solves on its own copy of the curve_super
    # workload's alpha grid, which must be the benchmark's.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads
    from solve_cost import SUPER_ALPHAS

    assert SUPER_ALPHAS == workloads.SUPER_ALPHAS


def test_solve_bvp_xcheck_work(monkeypatch):
    # The 18 draws of seeds 1-3 take 19 requested-step half-marches and ask
    # for 175,500 RK4 steps; the bounds leave 8% and 6.6% for a change of
    # root-find path. Two requested marches per solve, the second from the
    # first's Newton step, took 37 marches and 220,500 steps; starting the
    # requested march from the coarse root itself, with a secant read-off
    # of the return, took 43 marches and 250,500 steps.
    calls = count_marches(monkeypatch)
    n = ShootConfig().n_steps // 2
    for seed in (1, 2, 3):
        for p, gamma in xcheck_draws(seed):
            solve_bvp(gamma, p)
    assert sum(args[3] == n for args in calls) <= 21
    assert rk4_steps(calls) <= 187_000


def test_solve_bvp_lands_on_the_first_requested_march(monkeypatch):
    # One half-length march at the coarse chord root, its offset scaled by
    # RK4's h^4 law to the requested step's, predicts the requested root:
    # 17 of these 18 solves accept their first requested march. Without the
    # h^4 factor the half-length offset alone lands 7 of 18.
    n = ShootConfig().n_steps // 2
    first_lands = 0
    for seed in (1, 2, 3):
        for p, gamma in xcheck_draws(seed):
            calls = count_marches(monkeypatch)
            solve_bvp(gamma, p)
            monkeypatch.undo()
            assert sum(args[3] == n // 2 for args in calls) == 1
            first_lands += sum(args[3] == n for args in calls) == 1
    assert first_lands >= 16


@pytest.mark.parametrize("p,gamma", MARCH_COUNT_POINTS)
def test_solve_bvp_keeps_single_level_k(monkeypatch, p, gamma):
    # The coarse and half-length marches only seed the requested one: with
    # them switched off, the requested march brackets and solves alone, and
    # finds the same root of the same offset. Off the default step the
    # requested half-marches have odd step counts (1,001, 1,667, 3,333), so
    # the half-length ones round down (500, 833, 1,666).
    for n_steps in (10_000, 2002, 3334, 6666):
        cfg = ShootConfig(step=1.0 / n_steps)
        n = cfg.n_steps // 2
        calls = count_marches(monkeypatch)
        point, _ = solve_bvp(gamma, p, cfg)
        assert {args[3] for args in calls} == {n_steps // 40, n // 2, n}
        monkeypatch.setattr(oracle, "_MIN_COARSE", cfg.n_steps)
        calls.clear()
        single, _ = solve_bvp(gamma, p, cfg)
        monkeypatch.undo()
        assert {args[3] for args in calls} == {n}, n_steps
        assert abs(point.k - single.k) <= 1e-12 * single.k, n_steps
        assert abs(point.d - single.d) <= 1e-12 * single.d, n_steps


@pytest.mark.parametrize("p,gamma", MARCH_COUNT_POINTS + ((1.2, 10.0),
                                                         (20.0, 10.0),
                                                         (8.0, 50.0)))
def test_solve_bvp_finest_level_decides(monkeypatch, p, gamma):
    # Whatever the coarse and half-length marches found, the accepted shot
    # is the last march, at the requested step, and its own offset is zero to the root-find's
    # tolerance; the profile's right half is its samples up to the return.
    calls, outs = [], []
    march = kernels.rk4_shoot

    def recorded(*args):
        calls.append(args)
        outs.append(march(*args))
        return outs[-1]

    monkeypatch.setattr(kernels, "rk4_shoot", recorded)
    cfg = ShootConfig()
    n = cfg.n_steps // 2
    _, profile, shot = oracle._solve_shot(gamma, p, cfg)
    assert {args[3] for args in calls} == {cfg.n_steps // 40, n // 2, n}
    ws, _, _, status = outs[-1]
    assert calls[-1][3] == n and status == 0
    assert np.array_equal(shot.ws, ws)
    assert abs(oracle._offset(shot)) < 1e-12
    right = profile.ws[len(profile.ws) // 2:-1]
    assert profile.ws[-1] == 0.0 and np.array_equal(right, ws[:len(right)])


@pytest.mark.parametrize("step", (1e-2, 5e-3))
def test_solve_bvp_short_march_single_level(monkeypatch, step):
    # Below 50 coarse steps (2,000 requested) the requested half-march
    # brackets and solves alone.
    calls = count_marches(monkeypatch)
    cfg = ShootConfig(step=step)
    solve_bvp(20.0, 3.0, cfg)
    assert calls and all(args[3] == cfg.n_steps // 2 for args in calls)


def x0_offset(res):
    """Signed distance past x = 1 at which a shot from x = 0 returns to
    zero: x_cross - 1, or w(1)/(-w'(1)) for a shot still falling at x = 1."""
    if res.crossed:
        return res.x_cross - 1.0
    assert res.zs[-1] < 0.0
    return res.ws[-1] / -res.zs[-1]


@pytest.mark.parametrize("p,gamma", ((3.0, 50.0), (2.0, 15.0),
                                     (5.1857, 14.3376), (4.9204, 50.1527),
                                     (20.0, 12.0)))
def test_return_offset_changes_sign_at_accepted_slope(p, gamma):
    # The accepted midpoint shot's energy level crosses w = 0 with slope m.
    # Launched from x = 0 instead, just below m the shot crosses short of
    # x = 1, and just above m its tangent at x = 1 reaches zero a little
    # past it.
    _, _, accepted = oracle._solve_shot(gamma, p, ShootConfig())
    m = accepted.m
    below = shoot(gamma, m * (1.0 - 1e-9), p)
    above = shoot(gamma, m * (1.0 + 1e-9), p)
    assert below.crossed and not above.crossed
    assert -1e-6 < x0_offset(below) < 0.0 < x0_offset(above) < 1e-6


def test_return_offset_cases():
    # The midpoint shot's offset: X - 1 for a shot that returns inside
    # [1/2, 1], the tangent's reach past x = 1 for one still falling there,
    # and inf for one launched on the saddle (t past 745, where e^{-t} = 0).
    gamma, p, n = 50.0, 3.0, 500
    k_eq = gamma ** 0.5
    early = oracle._half_shot(gamma, p, k_eq, math.log(0.5), n)
    assert early.crossed and oracle._offset(early) < 0.0
    assert abs(oracle._offset(early) - (early.x_cross - 1.0)) < 1e-15
    late = oracle._half_shot(gamma, p, k_eq, math.log(10.0), n)
    assert not late.crossed and late.zs[-1] < 0.0
    assert oracle._offset(late) == late.ws[-1] / -late.zs[-1] > 0.0
    flat = oracle._half_shot(gamma, p, k_eq, math.log(800.0), n)
    assert flat.ws[0] == k_eq and np.all(flat.zs == 0.0)
    assert oracle._offset(flat) == math.inf


def test_solve_bvp_stall_is_typed_and_cheap(monkeypatch):
    # Where the search cannot reach the root it ends in a typed error
    # within a few coarse marches. At (1e4, 301) the root lies past the
    # wall t = 700 (the return time ~ t/mu with mu = sqrt((p-1) gamma) =
    # 1,732 needs t ~ 870), and the error names the wall and p; at (1e5, 50)
    # a stage of the 250-step coarse march steps past w = 0 from above
    # k_eq/2, the layer being thinner than a step.
    for (gamma, p), match in (((1e4, 301.0), "wall t = 700 at p = 301.0"),
                              ((1e5, 50.0), "stepped past w = 0")):
        calls = count_marches(monkeypatch)
        with pytest.raises(InvalidBracket, match=match):
            solve_bvp(gamma, p)
        assert rk4_steps(calls) <= 1_000
        monkeypatch.undo()


@pytest.mark.parametrize("p,gamma,max_steps", ((1.2, 10.0, 14_250),
                                               (20.0, 12.0, 14_750),
                                               (8.0, 10.0, 19_500),
                                               (20.0, 10.0, 14_750),
                                               (50.0, 10.0, 20_000)))
def test_solve_bvp_far_from_the_saddle(monkeypatch, p, gamma, max_steps):
    # Near gamma = pi^2 the offset moves like t, not like tau = ln t, so the
    # requested march's rounding (about 4e-16 in the offset) sets where its
    # root-find stops: 1-2 marches of 5,000 steps here, 9,250-15,000 steps
    # in all (9,250, 9,750, 14,500, 9,750 and 15,000 in the order above);
    # each bound is the count plus STEP_MARGIN, one requested half-march.
    # At p = 1.2 the amplitude is nine decades below the saddle
    # (k = 4.5e-5); the slope search from x = 0 took 3.5 full marches there,
    # and 24 in its single-level form.
    calls = count_marches(monkeypatch)
    point, _ = solve_bvp(gamma, p)
    assert rk4_steps(calls) <= max_steps
    ref = point_from_gamma(gamma, LocalParams(p=p))
    assert abs(point.k - ref.k) < 1e-12 * ref.k
    assert abs(point.d - ref.d) < 1e-12 * ref.d


# The 13 cases of tools/oracle_grid.py on which the slope search from x = 0
# ended in NoConvergence: its launch slope sat a few 1e-6 below the saddle's,
# where its acceptance window was narrower than one float step of the slope.
FORMER_STALLS = tuple((p, gamma) for p in (5.0, 8.0) for gamma in (80.0, 120.0)) \
    + tuple((p, gamma) for p in (20.0, 50.0)
            for gamma in (30.0, 50.0, 80.0, 120.0)) + ((3.0, 120.0),)


@pytest.mark.parametrize("p,gamma", FORMER_STALLS)
def test_solve_bvp_former_stalls_match_time_map(p, gamma):
    point, _ = solve_bvp(gamma, p)
    ref = point_from_gamma(gamma, LocalParams(p=p))
    assert abs(point.k - ref.k) <= 1e-12 * ref.k
    assert abs(point.d - ref.d) <= 1e-10 * ref.d


def test_solve_bvp_matches_time_map():
    # Two independent routes to the same boundary-value solution. The
    # time-map route is quadrature-accurate; the shooting error is set by
    # the RK4 step and the root-find in t.
    for gamma, p in ((15.0, 3.0), (14.3376, 5.1857), (15.0, 8.0), (12.0, 20.0)):
        params = LocalParams(p=p)
        ref = point_from_gamma(gamma, params)
        point, profile = solve_bvp(gamma, p)
        assert abs(point.k - ref.k) < 1e-9 * ref.k
        assert abs(point.d - ref.d) < 1e-8 * ref.d
        w4_ref = q_norm(ref.k, ref.gamma, 4.0, params)
        assert abs(norms_from_profile(profile, 4.0) - w4_ref) < 1e-8 * w4_ref


def test_solve_bvp_profile_symmetric():
    # The profile's left half is the accepted half-march mirrored. The
    # equation is autonomous and the boundary data symmetric, so a march
    # from x = 0 at the level's slope m = sqrt(gamma k^2 - 2 k^{p+1}/(p+1))
    # must meet it at every node of the grid they share, up to the two
    # marches' errors: seen at most 7.9e-14 k, bound 1e-12 k (12x).
    for gamma, p in ((40.0, 2.0), (15.0, 3.0), (50.0, 5.0), (12.0, 20.0)):
        point, profile = solve_bvp(gamma, p)
        k = point.k
        full = shoot(gamma, math.sqrt(gamma * k * k
                                      - 2.0 * k ** (p + 1.0) / (p + 1.0)), p)
        # Node 0 is the mirrored return 1 - X, off the grid; the nodes after
        # it up to x = 1/2 are 1 - x on the half-march's grid.
        mid = int(np.argmax(profile.xs >= 0.5))
        xs = profile.xs[1:mid + 1]
        nodes = np.rint(xs * ShootConfig().n_steps).astype(int)
        assert mid >= 5_000 and np.all(np.abs(full.xs[nodes] - xs) <= 2e-16)
        miss = np.max(np.abs(profile.ws[1:mid + 1] - full.ws[nodes]))
        assert miss <= 1e-12 * k, (gamma, p)


def test_solve_bvp_step_convergence():
    # RK4 is fourth order: halving the step should shrink the amplitude
    # error by about 16 (15.9 at both halvings here).
    params = LocalParams(p=3.0)
    k_ref = point_from_gamma(20.0, params).k
    errs = []
    for step in (1e-2, 5e-3, 2.5e-3):
        point, _ = solve_bvp(20.0, 3.0, ShootConfig(step=step))
        errs.append(abs(point.k - k_ref))
    assert errs[0] > errs[1] > errs[2]
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


# ------------------------------------------------- the documented domain

# p and gamma over the documented domain, gamma log-uniform, the launch
# slope over 24 decades and march lengths short enough for tier-1.
# A negative stage value at a fractional p is where a complex power would
# appear, and a slope far above m_sep is where a march overflows.
DOMAIN_P = st.floats(1.05, 20.0)
DOMAIN_GAMMA = st.floats(0.0, math.log(1e3)).map(math.exp)
DOMAIN_STEPS = st.integers(100, 1_000)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=DOMAIN_P, gamma=DOMAIN_GAMMA,
       ln_m=st.floats(math.log(1e-12), math.log(1e12)), n_steps=DOMAIN_STEPS)
def test_shooting_domain_real_or_typed(p, gamma, ln_m, n_steps):
    # The march keeps real, finite samples up to n_filled and zeros after
    # them, and reports status 1 exactly when the guard or an overflow ended
    # it; oracle.shoot turns that status into Overflow and nothing else.
    m = math.exp(ln_m)
    ws, zs, n, status = kernels.rk4_shoot(gamma, m, p, n_steps)
    assert ws.dtype == zs.dtype == np.float64
    assert ws.shape == zs.shape == (n_steps + 1,) and 1 <= n <= n_steps + 1
    assert np.all(np.isfinite(ws[:n])) and np.all(np.isfinite(zs[:n]))
    assert not np.any(ws[n:]) and not np.any(zs[n:])
    assert np.all(np.abs(ws[:n - 1]) <= 1e12)
    assert status == (n < n_steps + 1 or abs(ws[n - 1]) > 1e12)
    try:
        res = shoot(gamma, m, p, ShootConfig(step=1.0 / n_steps))
    except Overflow:
        assert status == 1
        return
    assert status == 0 and isinstance(res, ShootResult)
    assert np.array_equal(res.ws, ws) and np.array_equal(res.zs, zs)
    assert res.crossed == (res.x_cross is not None)
    assert res.x_cross is None or 0.0 < res.x_cross <= 1.0


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(p=DOMAIN_P, gamma=DOMAIN_GAMMA, n_steps=DOMAIN_STEPS)
def test_solve_bvp_domain_point_or_typed(p, gamma, n_steps):
    # Inside the domain solve_bvp returns a point on the time map's curve or
    # raises a BiflogisError; a bare OverflowError, ValueError or TypeError
    # fails.
    try:
        point, profile = solve_bvp(gamma, p, ShootConfig(step=1.0 / n_steps))
    except BiflogisError:
        return
    assert isinstance(point.k, float) and isinstance(point.d, float)
    assert profile.ws.dtype == np.float64 and np.all(np.isfinite(profile.ws))
    ref = point_from_gamma(gamma, LocalParams(p=p))
    assert abs(point.k - ref.k) <= 1e-6 * ref.k
