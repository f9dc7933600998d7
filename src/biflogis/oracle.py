"""Shooting solver for the local problem, independent of the time-map route.

-w'' + w^p = gamma w on (0,1) with w(0) = w(1) = 0, w > 0, is solved here as
an initial-value problem by fixed-step classical RK4 (kernels.rk4_shoot).
The solution peaks at x = 1/2, so solve_bvp launches there, w(1/2) = k,
w'(1/2) = 0, with k = k_eq nu^{1/(p-1)}, nu = 1 - e^{-t} and
k_eq = gamma^{1/(p-1)} the saddle, and finds the layer coordinate t where
the half-march returns to zero at x = 1, read off the cubic Hermite
interpolant of the march's (w, w') samples. The RK4 step is the one setting
(ShootConfig); shoot keeps the launch from x = 0 with a slope m. nu is a
coordinate for k, not a moment integral: nothing in this module touches the
moment integrals, so agreement with local_logistic is a real two-route
check, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rootfind
from .errors import (BracketFailure, InvalidBracket, NoSolution, Overflow,
                     check_exponent, check_positive)
from .local_logistic import PI2, LocalPoint, Profile, _seed_tau_for_gamma

__all__ = [
    "ShootConfig",
    "ShootResult",
    "shoot",
    "energy_drift",
    "solve_bvp",
    "norms_from_profile",
]

# A solve marches at three levels. The coarse march has n_steps/_COARSE
# half-steps, unless that is below _MIN_COARSE, and its root is bracketed
# to _COARSE_XTOL in tau: the last bracket's chord then has a curvature
# error of about 1e-6 and spans an offset change far above the march's
# rounding, even near gamma = pi^2 (a 1e-8 bracket does not there). The
# chord's own root lies within about 1e-12 of the coarse root, so there
# one half-length march of n_steps/4 half-steps measures the two levels'
# discretization gap, and RK4's h^4 law scales it to the requested
# march's: one Newton step from that prediction is the requested march's
# first tau, and its own Newton step is within the stop on 109 of the 120
# oracle_xcheck draws of seeds 1-20. Without a coarse level the requested
# march brackets and solves alone.
_COARSE = 40
_MIN_COARSE = 50
_COARSE_XTOL = 1e-6
# The requested march's return X carries about 4e-16 of rounding, so its
# root-find stops once a Newton step moves X by at most _X_TOL.
_X_TOL = 5e-16
# The range of tau = ln t searched: past t = 700, e^{-t} and the start's
# lag below the saddle leave the normal floats.
_TAU_LO = -700.0
_TAU_HI = math.log(700.0)


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
    """One RK4 trajectory of w'' = w^p - gamma w, launched from x = 0 with
    w(0) = 0, w'(0) = m, or from the midpoint x = 1/2 on the energy level
    whose slope at w = 0 is m.

    xs, ws, zs sample x, w, w' on the uniform step grid. crossed reports
    whether w hit zero after the launch node; x_cross locates that first
    crossing on the cubic Hermite interpolant of (w, w') between the
    bracketing nodes (_back_to_crossing).
    """

    xs: np.ndarray
    ws: np.ndarray
    zs: np.ndarray
    gamma: float
    p: float
    m: float
    crossed: bool
    x_cross: float | None


def _first_crossing(ws: np.ndarray) -> int:
    """Index of the first nonpositive sample after launch, or -1."""
    idx = np.nonzero(ws[1:] <= 0.0)[0]
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
    return _trajectory(np.linspace(0.0, 1.0, n + 1), ws, zs, gamma, p, m)


def _trajectory(xs, ws, zs, gamma: float, p: float, m: float) -> ShootResult:
    """The ShootResult of a completed march sampled at xs."""
    ci = _first_crossing(ws)
    if ci < 0:
        return ShootResult(xs, ws, zs, gamma, p, m, False, None)
    x_cross = xs[ci] - _back_to_crossing(xs, ws, zs, ci)
    return ShootResult(xs, ws, zs, gamma, p, m, True, float(x_cross))


def _back_to_crossing(xs, ws, zs, i: int) -> float:
    """How far before node i, the first sample with w <= 0, w returns to 0.

    Read off the cubic Hermite interpolant of (w, w') on nodes i-1 and i, in
    r = (xs[i] - x)/H: from the secant's r, two Newton steps on the cubic,
    kept in [0, 1]. The secant alone misses by the curvature's share, of
    order gamma H^3 w'; the cubic by order H^4, as RK4 itself.
    """
    h = float(xs[i] - xs[i - 1])
    wa, wb = float(ws[i - 1]), float(ws[i])
    if wa == wb:
        return 0.0
    sa, sb = -h * float(zs[i - 1]), -h * float(zs[i])   # dw/dr at r = 1, 0
    dw = wa - wb
    c2 = 3.0 * dw - 2.0 * sb - sa
    c3 = sa + sb - 2.0 * dw
    r = -wb / dw
    for _ in range(2):
        dq = sb + r * (2.0 * c2 + 3.0 * r * c3)
        if dq == 0.0:
            break
        r = min(max(r - (wb + r * (sb + r * (c2 + r * c3))) / dq, 0.0), 1.0)
    return h * r


def energy_drift(res: ShootResult) -> float:
    """Max relative wander of (w')^2/2 + gamma w^2/2 - w^{p+1}/(p+1).

    The quantity is conserved exactly along true trajectories; its drift
    measures the integrator's error. Normalized by the level's value m^2/2.
    """
    stop = len(res.ws)
    if res.crossed:
        # Past the first crossing the trajectory is diagnostic junk; the
        # conservation claim only covers the physical arc.
        stop = _first_crossing(res.ws) + 1
    w = res.ws[:stop]
    z = res.zs[:stop]
    e = 0.5 * z * z + 0.5 * res.gamma * w * w \
        - np.abs(w) ** (res.p + 1.0) / (res.p + 1.0)
    e0 = 0.5 * res.m * res.m
    return float(np.max(np.abs(e - e0)) / e0)


def _half_shot(gamma: float, p: float, k_eq: float, tau: float,
               n: int) -> ShootResult:
    """The march of n RK4 steps across [1/2, 1] from w(1/2) = k at layer
    coordinate t = e^tau, w'(1/2) = 0.

    ln nu = ln(1 - e^{-t}) by log1mexp's split (Maechler 2012): alone,
    log(-expm1(-t)) rounds to 0 past t = 37 and log1p(-exp(-t)) loses
    1e-16/t of nu near the bifurcation. The lag 1 - k/k_eq is formed as
    -expm1(ln nu/(p-1)), and m, the level's slope at w = 0, as
    k sqrt(gamma (1 - 2 nu/(p+1))), since k^{p+1} = nu gamma k^2.
    """
    t = math.exp(tau)
    ln_nu = math.log(-math.expm1(-t)) if t < math.log(2.0) \
        else math.log1p(-math.exp(-t))
    e = ln_nu / (p - 1.0)
    k = k_eq * math.exp(e)
    ws, zs, _, status = kernels.rk4_shoot(gamma, k, p, n, -math.expm1(e))
    if status != 0:
        raise InvalidBracket(
            f"a stage of the half-march from k = {k} stepped past w = 0: "
            f"{n} steps are too few for the layer (gamma = {gamma}, p = {p})")
    m = k * math.sqrt(gamma * (1.0 - 2.0 * math.exp(ln_nu) / (p + 1.0)))
    return _trajectory(np.linspace(0.5, 1.0, n + 1), ws, zs, gamma, p, m)


def _offset(shot: ShootResult) -> float:
    """Signed distance past x = 1 at which the half-march returns to zero,
    increasing in tau. X - 1 for a shot that crosses at X <= 1, by shoot's
    read-off but measured from the node past X, which keeps its digits as X
    nears 1; w(1)/(-w'(1)), its tangent's reach, for one still falling at
    x = 1; inf for one that has not turned, on the saddle."""
    i = _first_crossing(shot.ws)
    if i > 0:
        return float((shot.xs[i] - 1.0)
                     - _back_to_crossing(shot.xs, shot.ws, shot.zs, i))
    z_end = float(shot.zs[-1])
    return float(shot.ws[-1]) / -z_end if z_end < 0.0 else math.inf


def _solve_shot(gamma: float, p: float, cfg: ShootConfig,
                ) -> tuple[LocalPoint, Profile, ShootResult]:
    """solve_bvp's point and profile, and the accepted half-march."""
    check_exponent("p", p)
    check_positive("gamma", gamma)
    if gamma <= PI2:
        raise NoSolution(
            f"no positive solution for gamma = {gamma} <= pi^2")
    try:
        k_eq = gamma ** (1.0 / (p - 1.0))
    except OverflowError:
        raise Overflow(f"the saddle gamma^(1/(p-1)) leaves the floats "
                       f"(gamma = {gamma}, p = {p})") from None

    n = cfg.n_steps // 2
    n_coarse = cfg.n_steps // _COARSE
    first = n_coarse if n_coarse >= _MIN_COARSE else n
    ends = {}   # the last tau with offset <= 0 and > 0, with its offset

    def bracketed(tau):
        r = _offset(_half_shot(gamma, p, k_eq, tau, first))
        ends[r > 0.0] = (tau, r)
        return r

    accepted = None

    def fine(tau):
        nonlocal accepted
        accepted = _half_shot(gamma, p, k_eq, tau, n)
        return _offset(accepted), slope

    # Both root-finds fail to bracket only at a wall of tau, and the offset
    # is negative at the lower one (X nears pi/(2 sqrt(gamma)) + 1/2 < 1).
    try:
        a, b, fa, fb = rootfind.bracket_monotone(
            bracketed, _seed_tau_for_gamma(gamma, p), _TAU_LO, _TAU_HI)
        tau = rootfind.brentq(bracketed, a, b, fa, fb, xtol=_COARSE_XTOL)
        # The requested march moves the root by RK4's error alone.
        lo, hi = ends.get(False), ends.get(True)
        slope = (hi[1] - lo[1]) / (hi[0] - lo[0]) if lo and hi else math.nan
        if slope > 0.0:
            tau = lo[0] - lo[1] / slope
            if first < n:
                # A march of h = 1/steps misses the true offset by C h^4.
                # The coarse offset is about 0 at tau, so there the
                # half-length march's is C (h_m^4 - h_c^4), and the
                # requested march's, C (h^4 - h_c^4), is that times the
                # ratio below: one Newton step from it lands on its root.
                half = n // 2
                h4c, h4m, h4 = (steps ** -4.0 for steps in (first, half, n))
                tau -= (_offset(_half_shot(gamma, p, k_eq, tau, half))
                        * (h4c - h4) / (h4c - h4m) / slope)
        # solve_monotone stops once its Newton step is within xtol/8, and
        # returns the tau of its last call: accepted is that call's shot.
        rootfind.solve_monotone(fine, tau, _TAU_LO, _TAU_HI,
                                xtol=max(1e-13, 8.0 * _X_TOL / slope))
    except BracketFailure:
        raise InvalidBracket(
            f"the root lies beyond the wall t = {math.exp(_TAU_HI):g} at "
            f"p = {p!r}, where the start's lag below the saddle leaves the "
            f"normal floats (gamma = {gamma})") from None

    # The accepted half's nodes before its return X, then X with w = 0 (a
    # node X rounds onto is dropped), mirrored about x = 1/2.
    x_end = 1.0 + _offset(accepted)
    before = accepted.xs < x_end
    half_xs = np.append(accepted.xs[before], x_end)
    half_ws = np.append(accepted.ws[before], 0.0)
    k = float(accepted.ws[0])
    profile = Profile(xs=np.concatenate((1.0 - half_xs[:0:-1], half_xs)),
                      ws=np.concatenate((half_ws[:0:-1], half_ws)),
                      k=k, gamma=gamma, p=p)
    d = norms_from_profile(profile, 2.0)
    return LocalPoint(k=k, gamma=gamma, d=d, p=p), profile, accepted


def solve_bvp(gamma: float, p: float,
              cfg: ShootConfig = ShootConfig()) -> tuple[LocalPoint, Profile]:
    """Find the positive two-point solution for gamma > pi^2 by shooting
    from the midpoint in the layer coordinate t.

    A shot from k = k_eq (1 - e^{-t})^{1/(p-1)} returns to zero at X, and
    X - 1 (`_offset`) increases with tau = ln t, from
    pi/(2 sqrt(gamma)) - 1/2 at small t; near the saddle X grows like t/mu,
    mu = sqrt((p-1) gamma), so tau conditions it well. For n = cfg.n_steps,
    rootfind.bracket_monotone from the time map's closed-form seed, then
    rootfind.brentq, find tau on a coarse half-march of n/40 steps. One
    half-march of n/4 steps at the root of the last bracket's chord, its
    offset scaled by RK4's h^4 error law to the requested step's, gives
    one Newton step with the chord's slope; rootfind.solve_monotone then
    finds tau on the requested half-march of n/2 steps from there, with
    that slope. Where n/40 < 50 the requested half-march brackets and
    solves alone. Each march's return X is read off the cubic Hermite
    interpolant of its (w, w') samples on either side of the crossing.

    Raises NoSolution for gamma <= pi^2, Overflow where k_eq leaves the
    floats, InvalidBracket where the step is too long for the layer or the
    root lies past the wall t = 700 (the message names the wall and p),
    NoConvergence where a root-finder runs out of its budget.

    k is the accepted shot's amplitude, exact in t. The profile is its half
    up to X, X the end node with w = 0, mirrored about x = 1/2; d is its L2
    norm by norms_from_profile.
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
