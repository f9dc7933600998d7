"""NumPy implementations of the two hot kernels.

``layer_integrand`` evaluates the regularized boundary-layer integrand that
every curve quantity reduces to, on an array of substitution nodes.
``rk4_shoot`` integrates the planar shooting ODE with a fixed-step RK4 march.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["c_factor", "layer_integrand", "rk4_shoot", "IMPLEMENTATION"]

# Name of the kernel implementation, recorded with benchmark results.
IMPLEMENTATION = "pure"

# c_factor is one exact rearrangement without cancellation for every u in
# (0, 1) and every p (see c_factor), with two exact ends: 1/(p+1) at u = 1,
# and 1.0 below _C_ONE_BELOW, where c = 1 - (p/3) u + O(p^2 u^2) rounds to
# 1 for p below about 1e134. The rearrangement divides by u^2, which stays
# a normal double down to that end; past it, u^2 nears underflow and the
# quotient loses digits (1.6e-14 at u = 1e-155 and p = 2, 6.3e-11 at
# p = 1.0001; NaN from u = 1e-165).
# Against mpmath at 2 |log10 u| + 30 digits, c is within 6.7e-16 relative
# for p from 1.0001 to 1e4 and u from 1e-160 to 0.5, and within 3.6e-15 up
# to u = 1 - 1e-6.
_C_ONE_BELOW = 1e-150
# expm1(x) - x by its Taylor series (through x^20) where |x| < 0.5.
_EXM1X_CUT = 0.5
_EXM1X_COEFS = [1.0 / math.factorial(n) for n in range(20, 1, -1)]


def _expm1_minus_x(x: np.ndarray) -> np.ndarray:
    """e^x - 1 - x at full relative precision."""
    out = np.expm1(x) - x
    small = np.abs(x) < _EXM1X_CUT
    if np.any(small):
        xs = x[small]
        acc = np.zeros_like(xs)
        for coef in _EXM1X_COEFS:
            acc = acc * xs + coef
        out[small] = acc * xs * xs
    return out


def c_factor(u, p: float):
    """Normalized well depth c(u) = f(1-u) / ((p-1) u^2).

    f(s) = (p-1)/(p+1) - s^2 + 2 s^(p+1)/(p+1) vanishes to second order at
    s = 1, and c is its regular part: c(0) = 1, c(1) = 1/(p+1), c analytic on
    [0, 1] for p > 1. Accepts scalars or arrays on [0, 1].

    For _C_ONE_BELOW <= u < 1, the exact identity, with L = ln(1-u) and
    E(x) = e^x - 1 - x,

        (p+1) f(1-u) = (p-1) [2L expm1(2L) - E(2L)] + 2 (1-u)^2 E((p-1) L).

    Both terms are nonnegative and the bracket is about 2 L^2, so no step
    cancels more than one bit, at p near 1 as at large p. At u = 1 (L = -inf)
    the closed value 1/(p+1), and below _C_ONE_BELOW the value 1.0 that c
    rounds to there.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.ones_like(u)

    one = u >= 1.0
    mid = ~(one | (u < _C_ONE_BELOW))
    if np.any(mid):
        um = u[mid]
        L = np.log1p(-um)
        x = 2.0 * L
        f = x * np.expm1(x) - _expm1_minus_x(x) \
            + 2.0 * np.exp(x) * _expm1_minus_x((p - 1.0) * L) / (p - 1.0)
        out[mid] = f / ((p + 1.0) * um * um)
    out[one] = 1.0 / (p + 1.0)

    return out[0] if scalar else out


def layer_integrand(v, eps: float, em: float, p: float, q: float):
    """Integrand of the layer-regularized moment J_q after s = 1 - x^2,
    x = sqrt(2 eps/(p-1)) sinh(v): sqrt(H0/H) (1-u)^q, u = x^2 clamped to
    [0, 1], with H0 = 2 eps + (p-1) u and H = eps (2-u) + em (p-1) u c(u).
    At q = 0.0 the weight is 1.0 exactly and sqrt(H0/H) is returned as is.

    eps and em = 1 - eps are passed separately so callers can supply
    em = -expm1(-t) and keep full precision when eps is tiny. eps and em
    may be columns of shape (m, 1) against v of shape (m, nodes): row j is
    then the integrand at (eps_j, em_j).
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = np.sqrt(2.0 * eps / (p - 1.0)) * np.sinh(v)
    u = np.minimum(x * x, 1.0)
    h0 = 2.0 * eps + (p - 1.0) * u
    h = eps * (2.0 - u) + em * (p - 1.0) * u * c_factor(u, p)
    return np.sqrt(h0 / h) * (1.0 - u) ** q


def rk4_shoot(gamma: float, start: float, p: float, n_steps: int,
              lag: float | None = None):
    """Fixed-step RK4 for w'' = sign(w)|w|^p - gamma w in n_steps steps:
    from x = 0 with w = 0, w' = start across [0, 1] (h = 1/n_steps), or,
    given lag, from x = 1/2 with w = start, w' = 0 across [1/2, 1]
    (h = 1/(2 n_steps)). lag = 1 - start/k_eq, formed by the caller without
    cancellation, places the start below the saddle k_eq = gamma^{1/(p-1)}.
    While the lag 1 - w/k_eq is below 1/2 the march runs on its negative
    u = w/k_eq - 1, u'' = gamma (1 + u) expm1((p-1) log1p(u)), which
    resolves a start a few ulps below the saddle, then on w = k_eq (1 + u),
    exact there. RK4 commutes with that affine change of variable, so both
    phases are one method; the samples hold w and w', those of the lag
    phase formed from u and u' once its loop ends.

    The step is classical RK4 in its Nystrom form (Hairer, Norsett and
    Wanner, Solving ODEs I, II.14), which holds for a force F(w) that does
    not read w': with k_i = F(w_i), w2 = w + (h/2) w', w3 = w2 + (h^2/4) k1
    and w4 = w + h w' + (h^2/2) k2, the step sets
    w <- w + h w' + (h^2/6)(k1 + k2 + k3) and
    w' <- w' + (h/6)(k1 + 2(k2 + k3) + k4).

    Returns (ws, zs, n_filled, status): trajectory arrays of length
    n_steps + 1 (zero-padded past n_filled), the count of valid samples, and
    status 0 on completion, 1 if a step overflowed or, on the launch from
    x = 0, |w| passed the 1e12 guard. A midpoint march, within 0 <= w <= k
    until then, stops with status 0 after its first sample with w < 0: near
    the saddle's energy RK4's error could carry it past the mirror saddle
    -k_eq and on to overflow. A lag stage past u = -1 (w = 0), which only a
    step longer than the layer reaches, ends it with status 1.
    """
    # Derivation, z = w': classical RK4 on (w, z) takes the stages
    # (w_i, z_i) = (w, z) + c_i h (z_{i-1}, k_{i-1}) with c = 1/2, 1/2, 1.
    # The force reads w_i alone, and z_i enters only the next w stage, so
    #   w2 = w + (h/2) z,   w3 = w + (h/2)(z + (h/2) k1) = w2 + (h^2/4) k1,
    #   w4 = w + h (z + (h/2) k2) = (w + h z) + (h^2/2) k2,
    # and w's update (h/6)(z + 2 z2 + 2 z3 + z4) with z2 = z + (h/2) k1,
    # z3 = z + (h/2) k2, z4 = z + h k3 is h z + (h^2/6)(k1 + k2 + k3); z's
    # update is unchanged. Same method, same four forces, 17 float
    # operations outside them instead of 26 (k2 + k3 is formed once); the
    # samples differ from the unreduced form by rounding alone.
    # The march appends to lists and copies into arrays once: a numpy scalar
    # store per step costs more than the arithmetic around it. The force's
    # sign(w)|w|^p is a branch on the sign instead of copysign(abs(w) ** p, w),
    # two calls fewer per stage: for w >= 0 (-0.0 included, whose force is
    # 0.0 either way) |w| is w, and for w < 0 negating the power only flips
    # its sign bit, so each value is the one copysign gives. A NaN takes the
    # second branch and stays NaN, an overflowing power raises in either.
    # The launch from x = 0 ends with status 1 where |w| passes the guard;
    # the midpoint launch ends with status 0 at its first sample below 0.
    if lag is None:
        w, z, h, top, floor, stop = 0.0, start, 1.0 / n_steps, 1e12, -1e12, 1
    else:
        w, z, h, top, floor, stop = start, 0.0, 0.5 / n_steps, math.inf, 0.0, 0
    ws = np.zeros(n_steps + 1)
    zs = np.zeros(n_steps + 1)
    ws[0], zs[0] = w, z
    wl = []
    zl = []
    h_2 = 0.5 * h
    hh_4 = 0.25 * h * h
    hh_2 = 0.5 * h * h
    hh_6 = h * h / 6.0
    h_6 = h / 6.0
    status = 0

    # The lag phase marches u = -y, y = 1 - w/k_eq the lag: negation is exact
    # and commutes with every rounding, so each u stage is the negated
    # y stage bit for bit, with one negation fewer per force than on y. The
    # loop keeps u and u' alone and is bounded by range, not by a length
    # test; the samples w = k_eq (1 + u) and w' = k_eq u' are formed after
    # it in place in the sample arrays, with the bits of the scalar
    # products. The test `not u > -0.5` stops on a NaN u as well.
    n_lag = 0
    if lag is not None and lag < 0.5:
        k_eq = gamma ** (1.0 / (p - 1.0))
        c = p - 1.0
        expm1, log1p = math.expm1, math.log1p
        u, v = -lag, 0.0
        ul = []
        vl = []
        try:
            for _ in range(n_steps):
                k1 = gamma * (1.0 + u) * expm1(c * log1p(u))
                u2 = u + h_2 * v
                k2 = gamma * (1.0 + u2) * expm1(c * log1p(u2))
                u3 = u2 + hh_4 * k1
                k3 = gamma * (1.0 + u3) * expm1(c * log1p(u3))
                uh = u + h * v
                u4 = uh + hh_2 * k2
                k4 = gamma * (1.0 + u4) * expm1(c * log1p(u4))
                k23 = k2 + k3
                u = uh + hh_6 * (k1 + k23)
                v += h_6 * (k1 + 2.0 * k23 + k4)
                ul.append(u)
                vl.append(v)
                if not u > -0.5:
                    break
        except (OverflowError, ValueError):
            status = 1
        n_lag = len(ul)
        if n_lag:
            lag_ws = ws[1:n_lag + 1]
            np.add(ul, 1.0, out=lag_ws)
            lag_ws *= k_eq
            np.multiply(vl, k_eq, out=zs[1:n_lag + 1])
            w, z = float(ws[n_lag]), float(zs[n_lag])

    for _ in range(0 if status else n_steps - n_lag):
        try:
            k1 = (w ** p if w >= 0.0 else -((-w) ** p)) - gamma * w
            w2 = w + h_2 * z
            k2 = (w2 ** p if w2 >= 0.0 else -((-w2) ** p)) - gamma * w2
            w3 = w2 + hh_4 * k1
            k3 = (w3 ** p if w3 >= 0.0 else -((-w3) ** p)) - gamma * w3
            wh = w + h * z
            w4 = wh + hh_2 * k2
            k4 = (w4 ** p if w4 >= 0.0 else -((-w4) ** p)) - gamma * w4
        except OverflowError:
            status = 1
            break
        k23 = k2 + k3
        w = wh + hh_6 * (k1 + k23)
        z += h_6 * (k1 + 2.0 * k23 + k4)
        wl.append(w)
        zl.append(z)
        if w > top or w < floor:
            status = stop
            break

    n_filled = 1 + n_lag + len(wl)
    ws[n_lag + 1:n_filled] = wl
    zs[n_lag + 1:n_filled] = zl
    return ws, zs, n_filled, status
