"""Shooting solver for the local problem, independent of the time-map route.

-w'' + w^p = gamma w on (0,1) with w(0) = w(1) = 0, w > 0, is solved here as
an initial-value problem w(0) = 0, w'(0) = m integrated by fixed-step
classical RK4. A secant search on the shot's return offset, in
u = ln(m_sep - m), finds m between "crosses zero before x = 1" (m too
small) and "fails to return by x = 1" (m too large); m_sep is the slope
whose energy equals the ODE's saddle, above which no trajectory returns.
Near the saddle the return time grows linearly in u, so the secant steps
are nearly exact; each is aimed at the middle of the acceptance window.
The search runs on marches of a hundredth and a tenth of the requested
step count first; each level seeds the next, the requested march from the
two coarse slopes extrapolated by RK4's h^4 error law where both were
found, and only the requested march decides the result. A shot is accepted
once 0 < w(1) <= SLOPE_TOL * m, and each level takes at most MAX_SHOTS
marches; the RK4 step is the one setting (ShootConfig). Nothing in this
module touches the moment integrals, so agreement with local_logistic is a
real two-route check, not a tautology.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import (NoConvergence, NoSolution, Overflow, check_exponent,
                     check_positive)
from .local_logistic import PI2, LocalPoint, Profile

__all__ = [
    "ShootConfig",
    "ShootResult",
    "shoot",
    "energy_drift",
    "solve_bvp",
    "norms_from_profile",
]

# Largest finite launch slope, in log form.
_LN_MAX = math.log(sys.float_info.max)
_LN2 = math.log(2.0)

# The slope search accepts a non-crossing shot with 0 < w(1) <= SLOPE_TOL * m.
SLOPE_TOL = 1e-12
# Most shots (one march each) one level of the slope search may take,
# secant, one-sided and bisection steps alike. A coarse level that reaches
# it hands no seed to the next; only the requested march's level raises.
MAX_SHOTS = 200


@dataclass(frozen=True)
class ShootConfig:
    """The RK4 step of the requested march, in [1e-6, 1e-2]. A march keeps
    every sample, so the lower end caps it at 10**6 steps."""

    step: float = 1e-4

    def __post_init__(self):
        if not (1e-6 <= self.step <= 1e-2):
            raise ValueError(f"step must be in [1e-6, 1e-2], got {self.step}")

    @property
    def n_steps(self) -> int:
        return max(1, round(1.0 / self.step))


@dataclass(frozen=True)
class ShootResult:
    """One RK4 trajectory of w'' = w^p - gamma w, w(0) = 0, w'(0) = m.

    xs, ws, zs sample x, w, w' on the uniform step grid. crossed reports
    whether w hit zero again strictly inside (0, 1]; x_cross locates that
    first crossing by one secant step between the bracketing nodes.
    """

    xs: np.ndarray
    ws: np.ndarray
    zs: np.ndarray
    gamma: float
    p: float
    m: float
    crossed: bool
    x_cross: float | None


def _first_crossing(ws: np.ndarray, n_filled: int) -> int:
    """Index of the first nonpositive sample after launch, or -1."""
    w = ws[1:n_filled]
    idx = np.nonzero(w <= 0.0)[0]
    return int(idx[0]) + 1 if idx.size else -1


def shoot(gamma: float, m: float, p: float,
          cfg: ShootConfig = ShootConfig()) -> ShootResult:
    """Integrate one trajectory across [0, 1].

    Raises Overflow if |w| exceeds 1e12, or a step overflows the floats,
    before reaching x = 1 (diverging slope); a crossing trajectory stays
    bounded by the energy level, so overflow always means m was too large.
    """
    check_positive("gamma", gamma)
    check_positive("m", m)
    check_exponent("p", p)
    n = cfg.n_steps
    ws, zs, n_filled, status = kernels.rk4_shoot(gamma, m, p, n)
    if status != 0:
        raise Overflow(
            f"trajectory diverged at x = {(n_filled - 1) / n:.6g} "
            f"(gamma = {gamma}, m = {m})")
    xs = np.linspace(0.0, 1.0, n + 1)
    ci = _first_crossing(ws, n_filled)
    if ci < 0:
        return ShootResult(xs, ws, zs, gamma, p, m, False, None)
    h = 1.0 / n
    wa, wb = ws[ci - 1], ws[ci]
    x_cross = xs[ci - 1] + h * wa / (wa - wb) if wa != wb else xs[ci]
    return ShootResult(xs, ws, zs, gamma, p, m, True, float(x_cross))


def energy_drift(res: ShootResult) -> float:
    """Max relative wander of (w')^2/2 + gamma w^2/2 - w^{p+1}/(p+1).

    The quantity is conserved exactly along true trajectories; its drift
    measures the integrator's error. Normalized by the launch value m^2/2.
    """
    stop = len(res.ws)
    if res.crossed:
        # Past the first crossing the trajectory is diagnostic junk; the
        # conservation claim only covers the physical arc.
        stop = _first_crossing(res.ws, stop) + 1
    w = res.ws[:stop]
    z = res.zs[:stop]
    e = 0.5 * z * z + 0.5 * res.gamma * w * w \
        - np.abs(w) ** (res.p + 1.0) / (res.p + 1.0)
    e0 = 0.5 * res.m * res.m
    return float(np.max(np.abs(e - e0)) / e0)


def _saddle_slope(gamma: float, p: float) -> float:
    """Launch slope m_sep whose energy m^2/2 equals the saddle's.

    The saddle sits at w* = gamma^{1/(p-1)}, with energy
    (p-1)/(2(p+1)) gamma w*^2; a trajectory launched at or above m_sep never
    returns to zero. In log form and clamped to the float range, because the
    power overflows for p near 1.
    """
    ln_m = 0.5 * math.log((p - 1.0) / (p + 1.0)) \
        + 0.5 * (p + 1.0) / (p - 1.0) * math.log(gamma)
    return math.exp(min(ln_m, _LN_MAX))


def _return_offset(res: ShootResult) -> float | None:
    """Signed distance past x = 1 at which the shot returns to zero.

    x_cross - 1 for a crossing shot; for a finite non-crossing shot still
    falling at x = 1, w(1)/(-z(1)), the distance its tangent needs to reach
    zero. None for a non-crossing shot with z(1) >= 0, which has not turned.
    """
    if res.crossed:
        return res.x_cross - 1.0
    z_end = float(res.zs[-1])
    return float(res.ws[-1]) / -z_end if z_end < 0.0 else None


# Steps are taken as differences in u = ln(m_sep - m), formed from the slopes
# themselves: u alone cannot resolve m once m is far below m_sep.
def _u_gap(m_sep: float, m_a: float, m_b: float) -> float:
    """u(m_b) - u(m_a)."""
    return math.log1p((m_a - m_b) / (m_sep - m_a))


def _moved(m_sep: float, m: float, du: float) -> float:
    """The slope whose u lies du past u(m)."""
    return m - (m_sep - m) * math.expm1(min(du, _LN_MAX))


def _slope_search(gamma: float, p: float, cfg: ShootConfig,
                  seed: tuple[float, float | None] | None = None,
                  ) -> tuple[ShootResult, float | None]:
    """One level of the secant search on the return offset g in u.

    Returns the accepted shot and the inverse slope du/dg of the last
    secant (None without one); raises NoConvergence when the budget runs
    out or the bracket closes. seed = (m, du/dg) from a coarser level makes
    m the first shot and steps from it along that slope; the bracket starts
    at [1e-12, m_sep] either way.
    """
    m_sep = _saddle_slope(gamma, p)
    mu = math.sqrt((p - 1.0) * gamma)

    # The secant aims at the middle of the acceptance window (w(1) = g |z(1)|,
    # and |z(1)| = m to first order where w(1) is small): a shot that misses
    # the aim by up to half the window, rounding of g or a seed's error,
    # still lands inside it.
    target = 0.5 * SLOPE_TOL
    m_lo, g_lo = 1e-12, math.pi / math.sqrt(gamma) - 1.0
    m_hi = m_sep
    # The last shot (m, g), g None where it had no offset, and du/dg to step
    # from it: the secant through the last two shots. A seeded first shot has
    # no shot before it and keeps the coarser level's slope.
    m, dudg = seed if seed is not None else (None, None)
    last = None if seed is not None else (m_lo, g_lo)
    for _ in range(MAX_SHOTS):
        if m is None and dudg is not None and last[1] is not None:
            m = _moved(m_sep, last[0], (target - last[1]) * dudg)
        if m is None or not m_lo < m < m_hi:
            if m_hi == m_sep:
                m = min(_moved(m_sep, m_lo, min(mu * g_lo, -_LN2)),
                        math.nextafter(m_sep, 0.0))
            else:
                m = _moved(m_sep, m_lo, 0.5 * _u_gap(m_sep, m_lo, m_hi))
        if not m_lo < m < m_hi:
            break
        try:
            res = shoot(gamma, m, p, cfg)
        except Overflow:
            res = None
        g = None if res is None else _return_offset(res)
        if last is not None:
            m1, g1 = last
            dudg = _u_gap(m_sep, m1, m) / (g - g1) \
                if g is not None and g1 is not None and g != g1 else None
        last = (m, g)
        if res is not None and res.crossed:
            m_lo, g_lo = m, g
        elif res is not None and 0.0 < res.ws[-1] <= SLOPE_TOL * m:
            return res, dudg
        else:
            m_hi = m
        m = None
    raise NoConvergence(
        f"slope search stalled before w(1) <= SLOPE_TOL * m "
        f"(gamma = {gamma}, bracket = [{m_lo}, {m_hi}])")


def _solve_shot(gamma: float, p: float, cfg: ShootConfig,
                ) -> tuple[LocalPoint, Profile, ShootResult]:
    """solve_bvp's point and profile, and the accepted shot they come from."""
    check_exponent("p", p)
    check_positive("gamma", gamma)
    if gamma <= PI2:
        raise NoSolution(
            f"no positive solution for gamma = {gamma} <= pi^2")

    # The coarse levels, coarsest first (see solve_bvp).
    n = cfg.n_steps
    seed = None
    found = []
    for nc in [n // f for f in (100, 10) if n // f >= 100]:
        try:
            res, dudg = _slope_search(
                gamma, p, replace(cfg, step=1.0 / nc), seed)
            seed = (res.m, dudg)
            found.append(res.m)
        except NoConvergence:
            seed = None
    if len(found) == 2:
        # RK4 moves the accepted u by C h^4. With h_1 = 10 h_2 = 100 h_3,
        # u_3 = u_2 - C h_2^4 (1 - 10^-4) and u_1 - u_2 = C h_2^4 (10^4 - 1),
        # so u_3 = u_2 - 10^-4 (u_1 - u_2).
        m_sep = _saddle_slope(gamma, p)
        m1, m2 = found
        seed = (_moved(m_sep, m2, -1e-4 * _u_gap(m_sep, m2, m1)), seed[1])
    accepted, _ = _slope_search(gamma, p, cfg, seed)

    ws = accepted.ws
    i = int(np.argmax(ws))
    if 0 < i < len(ws) - 1:
        a, b, c = ws[i - 1], ws[i], ws[i + 1]
        denom = a - 2.0 * b + c
        k = float(b - (a - c) ** 2 / (8.0 * denom)) if denom < 0.0 else float(b)
    else:
        k = float(ws[i])
    profile = Profile(xs=accepted.xs, ws=ws, k=k, gamma=gamma, p=p)
    d = norms_from_profile(profile, 2.0)
    return LocalPoint(k=k, gamma=gamma, d=d, p=p), profile, accepted


def solve_bvp(gamma: float, p: float,
              cfg: ShootConfig = ShootConfig()) -> tuple[LocalPoint, Profile]:
    """Find the positive two-point solution for gamma > pi^2 by a secant
    search on the return offset g (`_return_offset`) in u = ln(m_sep - m).

    The slope m is bracketed by m_lo = 1e-12, whose shot crosses zero with
    the linear limit's offset pi/sqrt(gamma) - 1, and the saddle slope
    m_sep, whose shot never returns; crossing shots move the low end,
    non-crossing shots (overflow included) the high end. Near the saddle
    the return time grows like -u/mu, mu = sqrt((p-1) gamma) the saddle's
    eigenvalue, so g is almost linear in u. Each step is the secant through
    the last two shots in u, aimed at g = SLOPE_TOL/2, the middle of the
    acceptance window, so a shot that misses the aim by up to half the
    window still lands inside it. Without one (a shot with no offset), or
    where it leaves the bracket, the step is one-sided while the high end is
    still m_sep: u_lo + mu g_lo, at least halving m_sep - m_lo and at most
    the float below m_sep. After that it bisects the bracket in u. Accepts
    the first non-crossing trajectory with 0 < w(1) <= SLOPE_TOL * m.

    The search runs first on coarser copies of the same march, of n/100
    and n/10 steps for n = cfg.n_steps, each kept while it is >= 100
    steps (100, 1,000, 10,000 at the default step; fewer than 1,000 steps
    search at n alone), then on the requested one. Each level hands the
    next its accepted slope, the next level's first shot, and the slope of
    its last secant, which sets the second. Where both coarse levels accept,
    the requested march's first shot is instead their slopes extrapolated
    in u by the h^4 law of RK4, u_1000 - 1e-4 (u_100 - u_1000) (Richardson;
    the step ratio is 10 at each rung). Only the finest level decides:
    its bracket starts afresh at [1e-12, m_sep] and its acceptance is the
    rule above, so the seed only picks which point of the same window is
    found. Each level has its own budget of MAX_SHOTS marches; a coarse level
    that stalls hands on no seed. NoConvergence is raised when the finest
    level's budget runs out or its bracket closes to adjacent floats. The
    amplitude k is read off the grid maximum with one parabolic
    refinement, d and the profile come straight from the trajectory.
    """
    point, profile, _ = _solve_shot(gamma, p, cfg)
    return point, profile


def norms_from_profile(profile: Profile, q: float) -> float:
    """||w||_q from the stored grid by composite Simpson.

    Handles non-uniform spacing (three-point weights per interval pair, a
    trapezoid sweep-up if an odd interval is left over).
    """
    if q <= 0.0:
        raise ValueError(f"norm exponent must be positive, got {q}")
    xs = np.asarray(profile.xs, dtype=float)
    ws = np.asarray(profile.ws, dtype=float)
    n = len(xs)
    if n < 101:
        raise ValueError(f"profile must carry >= 101 nodes, got {n}")
    f = np.abs(ws) ** q
    e = n - 1 - (n - 1) % 2  # last node of the Simpson pairs
    h0 = xs[1:e:2] - xs[:e - 1:2]
    h1 = xs[2:e + 1:2] - xs[1:e:2]
    hs = h0 + h1
    total = float(np.sum(hs / 6.0 * ((2.0 - h1 / h0) * f[:e - 1:2]
                                     + hs * hs / (h0 * h1) * f[1:e:2]
                                     + (2.0 - h0 / h1) * f[2:e + 1:2])))
    if e == n - 2:
        total += 0.5 * (xs[e + 1] - xs[e]) * (f[e] + f[e + 1])
    return float(total ** (1.0 / q))
