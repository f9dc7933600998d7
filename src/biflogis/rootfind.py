"""Scalar root solvers.

solve_monotone is the one root-find of the curve solvers: a safeguarded
Newton iteration (rtsafe, Numerical Recipes 9.4) on an increasing residual
that returns its own slope. It walks from a seed until the root is
bracketed, keeps the bracket, and bisects whenever a Newton step would
leave it or the slope is unusable. The curve residuals are log-transformed
and strictly increasing, so every root there is simple.

brentq (Brent's inverse-quadratic / secant step guarded by bisection) and
the bracket expander bracket_monotone take residuals without a slope: the
shooting oracle brackets and solves its coarse march's return offset with
them, then hands the last bracket's chord and its root to solve_monotone.
"""

from __future__ import annotations

import math

from .errors import BracketFailure, NoConvergence

_EPS = 2.220446049250313e-16

# solve_monotone's cap on its first step before the root is bracketed, and
# its budget of residual evaluations.
FIRST_STEP = 2.0
MAX_EVALS = 100

# brentq's relative tolerance and iteration budget; bracket_monotone's first
# step, its growth factor per step and its budget of steps.
BRENT_RTOL = 4 * _EPS
BRENT_MAXITER = 100
BRACKET_STEP0 = 1.0
BRACKET_GROW = 1.7
BRACKET_MAXITER = 200


def brentq(f, xa: float, xb: float, fa=None, fb=None,
           xtol: float = 1e-13) -> float:
    """Root of f in [xa, xb] with f(xa), f(xb) of opposite sign."""
    xpre, xcur = float(xa), float(xb)
    fpre = float(f(xpre)) if fa is None else float(fa)
    fcur = float(f(xcur)) if fb is None else float(fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if fpre * fcur > 0.0:
        raise BracketFailure("brentq: endpoints do not bracket a sign change")

    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre * fcur < 0.0:
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur = xcur, xblk
            xblk = xpre
            fpre, fcur = fcur, fblk
            fblk = fpre

        delta = 0.5 * (xtol + BRENT_RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur == 0.0:
            return xcur

    raise NoConvergence(f"brentq: no convergence in {BRENT_MAXITER} iterations")


def bracket_monotone(f, x0: float, lo_limit: float, hi_limit: float):
    """Expand from x0 along a monotone f until the sign changes.

    Returns (a, b, fa, fb) with a < b and opposite signs. Raises
    BracketFailure if the sign never changes inside [lo_limit, hi_limit].
    """
    x0 = min(max(float(x0), lo_limit), hi_limit)
    y0 = float(f(x0))
    if y0 == 0.0:
        return x0, x0, 0.0, 0.0

    # Probe to find which way f moves toward zero.
    step = BRACKET_STEP0
    xp = x0 + step if x0 + step <= hi_limit else x0 - step
    yp = float(f(xp))
    if y0 * yp <= 0.0:
        a, b = (x0, xp) if x0 < xp else (xp, x0)
        fa, fb = (y0, yp) if x0 < xp else (yp, y0)
        return a, b, fa, fb
    slope_up = (yp - y0) * (xp - x0) > 0.0
    # Move in the direction that drives |f| down: f increasing and f>0 -> left.
    direction = -1.0 if (slope_up == (y0 > 0.0)) else 1.0

    xprev, yprev = x0, y0
    for _ in range(BRACKET_MAXITER):
        xnext = xprev + direction * step
        if xnext <= lo_limit:
            xnext = lo_limit
        elif xnext >= hi_limit:
            xnext = hi_limit
        ynext = float(f(xnext))
        if y0 * ynext <= 0.0:
            a, b = (xprev, xnext) if xprev < xnext else (xnext, xprev)
            fa, fb = (yprev, ynext) if xprev < xnext else (ynext, yprev)
            return a, b, fa, fb
        if xnext in (lo_limit, hi_limit):
            raise BracketFailure(
                "bracket_monotone: no sign change inside the allowed interval"
            )
        xprev, yprev = xnext, ynext
        step *= BRACKET_GROW

    raise BracketFailure("bracket_monotone: expansion budget exhausted")


def solve_monotone(f, x0: float, lo_limit: float, hi_limit: float,
                   xtol: float = 1e-13) -> float:
    """Root of an increasing residual by safeguarded Newton.

    f(x) returns (f, df/dx). From the seed, clamped to [lo_limit, hi_limit],
    Newton steps run toward the root, each at most FIRST_STEP long, a cap that
    grows by 1.7 per step, until the sign changes; from then on the
    iterates stay inside the bracket, and a step that would leave it, or a
    slope that is not finite and positive, becomes a bisection. The last
    evaluated x is returned once its Newton step, or the bracket, is within
    xtol/8 + 2 eps |x|, so f's own last call was at the returned root.

    Raises BracketFailure if the sign does not change inside the limits,
    NoConvergence after MAX_EVALS evaluations.
    """
    # min(max(x0, lo_limit), hi_limit) in two comparisons, NaN included.
    x = float(x0)
    if lo_limit > x:
        x = lo_limit
    if hi_limit < x:
        x = hi_limit
    lo, hi = -math.inf, math.inf      # evaluated points with f < 0, f > 0
    step = FIRST_STEP
    for _ in range(MAX_EVALS):
        y, dy = f(x)
        if y == 0.0:
            return x
        if y < 0.0:
            lo = x
        else:
            hi = x
        # The Newton step is x's error only to first order, so it must fall
        # within an eighth of xtol; 2 eps |x| is at least two float spacings
        # at x, so every step and bisection below moves x.
        tol = 0.125 * xtol + 2.0 * _EPS * abs(x)
        newton = -y / dy if 0.0 < dy < math.inf else math.nan
        if abs(newton) <= tol or hi - lo <= tol:
            return x
        if math.isfinite(lo) and math.isfinite(hi):
            x_new = x + newton
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
        else:
            # Not yet bracketed: head for the root, at most step away.
            limit = hi_limit if y < 0.0 else lo_limit
            if x == limit:
                raise BracketFailure(
                    "solve_monotone: no sign change inside the allowed interval")
            move = step if math.isnan(newton) else min(abs(newton), step)
            x_new = min(max(x + math.copysign(move, -y), lo_limit), hi_limit)
            step *= 1.7
        x = x_new
    raise NoConvergence(f"solve_monotone: no convergence in {MAX_EVALS} evaluations")
