"""Shooting solver for the local problem, independent of the time-map route.

-w'' + w^p = gamma w on (0,1) with w(0) = w(1) = 0, w > 0, is solved here as
an initial-value problem w(0) = 0, w'(0) = m integrated by fixed-step
classical RK4. An Illinois slope search with a saddle-energy bracket finds m
between "crosses zero before x = 1" (m too small) and "fails to return by
x = 1" (m too large); the upper end is the slope whose energy equals the
ODE's saddle, above which no trajectory returns. Nothing in this module
touches the moment integrals, so agreement with local_logistic is a real
two-route check, not a tautology.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NoConvergence, NoSolution, Overflow
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


@dataclass(frozen=True)
class ShootConfig:
    """Knobs for the RK4 march and the Illinois slope search with a
    saddle-energy bracket.

    step is the RK4 step, slope_tol the acceptance 0 < w(1) <= slope_tol * m,
    and max_bisections caps the slope search's iterations (one march each).
    """

    step: float = 1e-4
    slope_tol: float = 1e-12
    max_bisections: int = 200

    def __post_init__(self):
        if not (0.0 < self.step <= 1e-2):
            raise ValueError(f"step must be in (0, 1e-2], got {self.step}")
        if self.slope_tol <= 0.0:
            raise ValueError("slope_tol must be positive")
        if self.max_bisections < 1:
            raise ValueError("max_bisections must be >= 1")

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
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if m <= 0.0:
        raise ValueError(f"initial slope must be positive, got {m}")
    n = cfg.n_steps
    ws, zs, n_filled, status = kernels.rk4_shoot(gamma, m, p, n, 1.0 / n)
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


def _shot_state(gamma: float, m: float, p: float, cfg: ShootConfig):
    """(crossed, w_end, result_or_None) with Overflow folded into crossed=False."""
    try:
        res = shoot(gamma, m, p, cfg)
    except Overflow:
        return False, math.inf, None
    return res.crossed, float(res.ws[-1]), res


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


def solve_bvp(gamma: float, p: float,
              cfg: ShootConfig = ShootConfig()) -> tuple[LocalPoint, Profile]:
    """Find the positive two-point solution for gamma > pi^2 by an Illinois
    slope search with a saddle-energy bracket.

    The slope m is bracketed by m_lo = 1e-12, whose shot crosses zero, and
    the saddle slope, whose shot never returns. Illinois (regula falsi)
    steps on w(1; m) use a crossing shot's w(1) < 0 and a finite
    non-crossing shot's w(1) > 0; an end without such a value (the initial
    m_lo, a crossing shot with w(1) >= 0 or an overflow) makes the step a
    bisection. Accepts the first non-crossing trajectory with
    0 < w(1) <= slope_tol * m; the amplitude k is read off the grid maximum
    with one parabolic refinement, d and the profile come straight from the
    trajectory.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and > 1, got {p}")
    if gamma <= PI2:
        raise NoSolution(
            f"no positive solution for gamma = {gamma} <= pi^2")

    # f_lo < 0 < f_hi are the ends' w(1), or None where the end has no
    # usable value; side is the end the last step moved (-1 low, +1 high).
    m_lo, f_lo = 1e-12, None
    m_hi, f_hi = _saddle_slope(gamma, p), None
    side = 0
    accepted = None
    for _ in range(cfg.max_bisections):
        m = 0.5 * (m_lo + m_hi)
        if f_lo is not None and f_hi is not None:
            m_rf = (m_lo * f_hi - m_hi * f_lo) / (f_hi - f_lo)
            if m_lo < m_rf < m_hi:
                m = m_rf
        if not m_lo < m < m_hi:
            break
        crossed, w_end, res = _shot_state(gamma, m, p, cfg)
        if crossed:
            m_lo, f_lo = m, (w_end if w_end < 0.0 else None)
            if side < 0 and f_hi is not None:
                f_hi *= 0.5
            side = -1
            continue
        if res is not None and 0.0 < w_end <= cfg.slope_tol * m:
            accepted = res
            break
        m_hi, f_hi = m, (w_end if res is not None else None)
        if side > 0 and f_lo is not None:
            f_lo *= 0.5
        side = 1
    if accepted is None:
        raise NoConvergence(
            f"slope search stalled before w(1) <= slope_tol * m "
            f"(gamma = {gamma}, bracket = [{m_lo}, {m_hi}])")

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
    point = LocalPoint(k=k, gamma=gamma, d=d, p=p)
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
    return float(total ** (1.0 / q))
