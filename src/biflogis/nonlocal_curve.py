"""The nonlocal problem in the L2 frame, reduced to local solves plus algebra.

-(a1 ||u||_q^2 + a2 ||u||_2^2) u'' + u^p = lambda u on (0,1), u > 0, Dirichlet,
parameterized by alpha = ||u||_2. Every solution is a rescaled local profile:
u = h w_d with alpha = h d and h^{p-1} = beta = h^2 N, N = a1 ||w_d||_q^2 +
a2 d^2, for every p > 1, so the only analytic content here is a scalar
root-find for the local point where ln N = (p-3) ln(alpha/d), and the
bookkeeping lambda = beta gamma. The root-find is seeded from the law of
the end of the curve its root lies at, to order 8 in the series and one
order past the leading law on the asymptote, and its last Newton step is
taken on the log state, not evaluated again.

The module file carries a _curve suffix because the bare problem name is a
Python keyword; the solution field lam is serialized as "lambda" for the same
reason.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import constants as consts
from . import kernels
from . import local_logistic as ll
from .errors import (BracketFailure, InvalidBracket, InvalidRegime,
                     MonotonicityViolation, NoConvergence, check_exponent,
                     check_positive, check_weights)
from .local_logistic import LocalPoint, phi
from .rootfind import solve_monotone

__all__ = [
    "ProblemParams",
    "NonlocalSolution",
    "g_of_k",
    "solve_alpha",
    "residual_check",
]

# Bound on the relative miss of alpha = h d that every solution meets.
_ALPHA_RTOL = 1e-10

# Bound on |ln beta - (p-1) ln h|, the log miss of beta = h^{p-1}, that
# every solution meets.
_BETA_LOG_TOL = 1e-10

# Bound on the last Newton step in tau = ln t that solve_alpha takes on the
# state it holds instead of evaluating the residual once more.
_LAST_STEP = 1e-8

# ln T_ASYM and ln em at T_SERIES: the ends of the branches _seed_tau's two
# seeds serve.
_LN_T_ASYM = math.log(ll.T_ASYM)
_LN_EM_SERIES = math.log(-math.expm1(-ll.T_SERIES))

# Order K of the small-em series whose reversion seeds the curve root in
# the series branch, and the coefficients of each (p, q, a1, a2) there; the
# asymptote seed's two constants of each (p, q, a1, a2), filled the first
# time a root is seeded there, so a series-only sweep calibrates no B_q.
# Each ProblemParams memoises the entries of its own values.
_SEED_ORDER = 8
_SEED_CACHE: dict = {}
_ASYM_SEED_CACHE: dict = {}

# Relative bound on the miss of lam = beta gamma: a few ulp of the product.
_LAM_RTOL = 4.0 * sys.float_info.epsilon

REGIMES = ("supercritical", "critical", "subcritical")


@dataclass(frozen=True, init=False)
class ProblemParams:
    """Problem data: exponents p and q, weights a1 and a2.

    Building an instance checks them and stores, outside the fields, what
    every solve at them reads: regime, the REGIMES entry of p (critical
    at p = 3 exactly), and ln(a1 + a2). The seed constants of each end of
    the curve are memoised on the instance the first time a root is
    seeded there, read through the module's caches keyed by
    (p, q, a1, a2), so equal instances share one build. Equality, hash
    and repr read the four fields alone. The constructor is written out,
    as NonlocalSolution's is.
    """

    p: float
    q: float
    a1: float
    a2: float

    def __init__(self, p: float, q: float, a1: float, a2: float):
        fields = self.__dict__
        fields["p"] = p
        fields["q"] = q
        fields["a1"] = a1
        fields["a2"] = a2
        if not (1.0 < p < math.inf and 1.0 < q < math.inf
                and 0.0 <= a1 < math.inf and 0.0 <= a2 < math.inf
                and a1 + a2 > 0.0):
            check_exponent("p", p)
            check_exponent("q", q)
            check_weights(a1, a2)
        fields["regime"] = ("critical" if p == 3.0 else
                            "supercritical" if p > 3.0 else "subcritical")
        fields["_ln_a"] = math.log(a1 + a2)
        fields["_series"] = fields["_asym"] = None


class _BetaMiss(ValueError):
    """NonlocalSolution's check of beta = h^{p-1} failed. alpha = h d and
    lam = beta gamma hold by construction in solve_alpha, so only this one
    of the instance's checks can fail there without a bug."""


@dataclass(frozen=True, init=False)
class NonlocalSolution:
    """One point of the bifurcation curve: alpha with its scaled local data.

    lam holds the eigenvalue lambda(alpha). solve_alpha builds every
    instance from the one residual ln N - (p-3) ln h, h = alpha/d, so
    alpha = h d, beta = h^2 N = a1 (h ||w||_q)^2 + a2 (h d)^2 and
    lam = beta gamma hold to rounding, and beta = h^{p-1} to 1e-10 in log,
    for every p. Building an instance checks alpha = h d to 1e-10
    relative, |ln beta - (p-1) ln h| <= 1e-10 and lam = beta gamma to a
    few ulp, and raises ValueError if one fails.
    The constructor is written out, as LocalPoint's is.
    """

    alpha: float
    local: LocalPoint
    h: float
    beta: float
    lam: float
    regime: str

    def __init__(self, alpha: float, local: LocalPoint, h: float,
                 beta: float, lam: float, regime: str):
        fields = self.__dict__
        fields["alpha"] = alpha
        fields["local"] = local
        fields["h"] = h
        fields["beta"] = beta
        fields["lam"] = lam
        fields["regime"] = regime
        if not (0.0 < alpha < math.inf and 0.0 < h < math.inf
                and 0.0 < beta < math.inf and 0.0 < lam < math.inf):
            check_positive("alpha", alpha)
            check_positive("h", h)
            check_positive("beta", beta)
            check_positive("lam", lam)
        if regime not in REGIMES:
            raise ValueError(f"unknown regime {regime!r}")
        if not abs(alpha - h * local.d) <= _ALPHA_RTOL * alpha:
            raise ValueError(f"alpha = {alpha!r} is not h d = "
                             f"{h * local.d!r}")
        miss = math.log(beta) - (local.p - 1.0) * math.log(h)
        if not abs(miss) <= _BETA_LOG_TOL:
            raise _BetaMiss(f"beta misses h^(p-1) by {miss:.3g} in log")
        if not abs(lam - beta * local.gamma) <= _LAM_RTOL * lam:
            raise ValueError(f"lam = {lam!r} is not beta gamma = "
                             f"{beta * local.gamma!r}")

    def to_record(self) -> dict:
        """Row of curve data keyed by the canonical column names."""
        return {
            "alpha": self.alpha,
            "k": self.local.k,
            "d": self.local.d,
            "gamma": self.local.gamma,
            "h": self.h,
            "beta": self.beta,
            "lambda": self.lam,
        }


def _state_at_t(t: float, params: ProblemParams):
    """The curve state at layer coordinate t, one flat tuple: entries 0 to
    7 are ll._log_state_at_t's (ln k, ln gamma, ln(d/k), ln(||w||_q/k) and
    their slopes in tau = ln t), then ln d (8), ln N (9), d(ln d)/dtau (10)
    and d(ln N)/dtau (11), formed here once for every reader. ln d = ln k
    + ln(d/k), and N = a1 ||w||_q^2 + a2 d^2 = d^2 (a1 (||w||_q/d)^2 + a2),
    where ||w||_q/d, the quotient of the local ratios, is at most k/d:
    ln N stays finite where d or N would under- or overflow, as for p near
    1 at extreme alpha. With f the share of N that a1 ||w||_q^2 carries,
    d(ln N)/dtau = 2 (d(ln d)/dtau + f d(ln(||w||_q/d))/dtau)."""
    local = ll._log_state_at_t(t, params.p, params.q)
    ln_d, dln_d = local[0] + local[2], local[4] + local[6]
    wq2 = params.a1 * math.exp(2.0 * (local[3] - local[2]))
    n_by_d2 = wq2 + params.a2
    return local + (ln_d, 2.0 * ln_d + math.log(n_by_d2), dln_d,
                    2.0 * (dln_d + wq2 / n_by_d2 * (local[7] - local[6])))


def _series_log(c):
    """ln of the power series sum_n c_n z^n, c_0 > 0, to as many terms:
    with a = c/c_0, n L_n = n a_n - sum_{0<k<n} k L_k a_{n-k}."""
    a = [x / c[0] for x in c]
    kl = [0.0] * len(c)
    for n in range(1, len(c)):
        acc = n * a[n]
        for k in range(1, n):
            acc -= kl[k] * a[n - k]
        kl[n] = acc
    return [math.log(c[0])] + [kl[n] / n for n in range(1, len(c))]


def _series_exp(c, scale=1.0):
    """exp of the power series scale (c - c_0) to as many terms:
    E_0 = 1 and n E_n = scale sum_{0<k<=n} k c_k E_{n-k}."""
    out = [1.0] * len(c)
    for n in range(1, len(c)):
        acc = 0.0
        for k in range(1, n + 1):
            acc += k * c[k] * out[n - k]
        out[n] = scale / n * acc
    return out


def _series_seed(params: ProblemParams):
    """(g_0, (e_K, ..., e_2), (g_K, ..., g_1)) with K = _SEED_ORDER,
    built once per (p, q, a1, a2), cached by those values and memoised on
    params.

    g_n are the coefficients of G(z) = ln 4 + 2 ln J_0 + ln D
    + ((p-3)/2) ln R_2 in z = em, with R_2 = J_2/J_0, R_q = (J_q/J_0)^{2/q}
    and D = a1 R_q + a2 R_2, read off columns 0 ... K of the series view by
    truncated series ln and exp. e_n are those of the reversion
    z = sum_n e_n w^n of ln z + sum_{n>=1} g_n z^n = ln w, by Lagrange:
    e_1 = 1 and e_n = [z^{n-1}] exp(-n (G - g_0))/n.
    """
    p, q, a1, a2 = key = params.p, params.q, params.a1, params.a2
    val = _SEED_CACHE.get(key)
    if val is None:
        val = _SEED_CACHE[key] = _build_series_seed(p, q, a1, a2)
    params.__dict__["_series"] = val
    return val


def _build_series_seed(p: float, q: float, a1: float, a2: float):
    """_series_seed's constants, built from the series view."""
    c0, c2, cq = ll._view(p, q, -1)[:3, :_SEED_ORDER + 1].tolist()
    l0, l2, lq = _series_log(c0), _series_log(c2), _series_log(cq)
    # ln D = ln R_2 + ln(a2 + a1 e^u), u = ln R_q - ln R_2, read over
    # s = max(a1, a2) so that no term overflows.
    ln_r2 = [y - x for x, y in zip(l0, l2)]
    u = [2.0 / q * (y - x) - r for x, y, r in zip(l0, lq, ln_r2)]
    s = max(a1, a2)
    b1 = a1 / s * math.exp(u[0])
    ln_d = _series_log([a2 / s + b1] + [b1 * x for x in _series_exp(u)[1:]])
    g = [2.0 * x + (0.5 * (p - 3.0) + 1.0) * r + y
         for x, r, y in zip(l0, ln_r2, ln_d)]
    g[0] += ll._LN4 + math.log(s)
    # exp(-n (G - g_0)) to order n - 1, of which e_n is the last term / n.
    rev = tuple(_series_exp(g[:n], -n)[-1] / n
                for n in range(_SEED_ORDER, 1, -1))
    return g[0], rev, tuple(g[:0:-1])


def _asym_seed(params: ProblemParams):
    """(-c_1/2, ln(p-1)/2) of the asymptote seed, with c_1 from the offsets
    (B_0, B_2, B_q) as _seed_tau states it, built once per (p, q, a1, a2),
    cached by those values and memoised on params."""
    p, q, a1, a2 = key = params.p, params.q, params.a1, params.a2
    val = _ASYM_SEED_CACHE.get(key)
    if val is None:
        b0, b2, bq = ll._view(p, q, ll._CHEB_PANELS)
        c1 = 2.0 * b0 + 0.5 * (p - 3.0) * (b2 - b0) \
            + (a1 * (2.0 / q) * (bq - b0) + a2 * (b2 - b0)) / (a1 + a2)
        val = _ASYM_SEED_CACHE[key] = (-0.5 * c1, 0.5 * math.log(p - 1.0))
    params.__dict__["_asym"] = val
    return val


def _seed_tau(ln_alpha: float, params: ProblemParams) -> float:
    """Seed tau = ln t for solve_alpha's root, from the moment branch the
    root lands on.

    In the state, r = ln em + G - (p-3) ln alpha, with
    G = ln 4 + 2 ln J_0 + ln D + ((p-3)/2) ln R_2, R_2 = J_2/J_0,
    R_q = (J_q/J_0)^{2/q} and D = a1 R_q + a2 R_2. At each end of the
    curve G is a series in a small z:

    - series (t <= T_SERIES): z = em, and G = g_0 + sum_n g_n z^n to
      order K = _SEED_ORDER from _series_seed, with the reversion
      z = sum_n e_n w^n of ln z + sum_{n>=1} g_n z^n = Lambda, w = e^Lambda,
      Lambda = (p-3) ln alpha - g_0. The seed evaluates that polynomial by
      Horner and takes one Newton step in ln z on the forward series, so
      it misses the root by the forward series' truncation, O(z^{K+1}):
      within 1e-8 up to em of about 0.18, where the alpha-free p = 3 roots
      of most weights lie. Then t0 = -log1p(-em), taken if t0 <= T_SERIES.
    - asymptote (t >= T_ASYM): z = sqrt(p-1)/t, so J_r = (1 + B_r z)/z
      exactly, em rounds to 1, and r = -2 ln z + c0 + c1 z
      - (p-3) ln alpha + O(z^2), with c0 = ln(4 (a1+a2)) and

          c1 = 2 B_0 + [a1 (2/q)(B_q - B_0) + a2 (B_2 - B_0)]/(a1+a2)
               + ((p-3)/2)(B_2 - B_0).

      With L = ((p-3) ln alpha - c0)/2 the root is
      ln z = -L - log1p(-(c1/2) e^-L), which misses it in tau by O(x^2),
      x = alpha^{-(p-3)/2}. Then t0 = sqrt(p-1)/z, taken if t0 >= T_ASYM.

    The seed is formed in log space, so it stays finite where z leaves the
    double range; solve_monotone clamps it to [_TAU_LO, _TAU_HI].

    L picks the end. At the root L rises with t. Over p in [1.01, 30],
    q in [1.1, 8] and weight ratios a1/a2 of 0, 1e-6, 0.01, 1, 100, 1e6
    and infinity it is at most 0.42 at t = T_SERIES and at least 1.5 at
    T_ASYM, so each seed reads only the view its root's own state reads.
    Between p = 30 and 50 (0.59 at p = 50) the asymptote comes to start
    below L = 1, and its roots there take the leading law
    N ~ (a1+a2) d^2, as does a root on the Chebyshev panels between the
    two ends.
    """
    p = params.p
    x = (p - 3.0) * ln_alpha
    ln_a = params._ln_a
    big_l = 0.5 * (x - ll._LN4 - ln_a)
    if big_l > 1.0:
        neg_half_c1, half_ln_p1 = params._asym or _asym_seed(params)
        s = neg_half_c1 * math.exp(-big_l)
        if s > -1.0:
            tau0 = half_ln_p1 - (-big_l - math.log1p(s))
            if tau0 >= _LN_T_ASYM:
                return tau0
    else:
        g0, es, gs = params._series or _series_seed(params)
        lam = x - g0
        # z < 1 at the root needs Lambda < 0; e^Lambda stays finite.
        if lam < 0.0:
            w = math.exp(lam)
            s = 0.0
            for e in es:
                s = s * w + e
            s *= w
            if s > -1.0:
                ln_z = lam + math.log1p(s)
                # G - g_0 = z P(z), with P and P' by one Horner pass.
                z = w + w * s
                h = dh = 0.0
                for g in gs:
                    dh = dh * z + h
                    h = h * z + g
                h *= z
                slope = 1.0 + h + z * z * dh
                if slope > 0.0:
                    ln_z -= (ln_z + h - lam) / slope
                    if ln_z <= _LN_EM_SERIES:
                        # t = em to the last bit where em underflows.
                        t0 = -math.log1p(-math.exp(ln_z))
                        return math.log(t0) if t0 > 0.0 else ln_z
    return ll._seed_tau_for_d((x - ln_a) / (p - 1.0), p)


def g_of_k(k: float, params: ProblemParams) -> float:
    """g = N^{1/(p-3)} d, the alpha reached by local amplitude k (p != 3);
    Overflow where g leaves the normal double range, as near p = 3 or at
    weights near the largest double."""
    if params.regime == "critical":
        raise InvalidRegime("g = N^{1/(p-3)} d is singular at p = 3")
    check_positive("k", k)
    t, _ = ll._t_from_k(k, ll.LocalParams(p=params.p))
    state = _state_at_t(t, params)
    return consts._exp_in_range(state[9] / (params.p - 3.0) + state[8], "g",
                                params.p, params.q)


def solve_alpha(alpha: float, params: ProblemParams) -> NonlocalSolution:
    """The unique curve point with ||u||_2 = alpha.

    One residual for every p: r(t) = ln N(t) - (p-3)(ln alpha - ln d(t)),
    strictly increasing in the layer coordinate t, is solved by safeguarded
    Newton in tau = ln t with its analytic slope
    d(ln N)/dtau + (p-3) d(ln d)/dtau, from the seed of _seed_tau, read
    off the law of the end the root lies at: on the asymptote
    t >= T_ASYM one order past the leading law, from its offsets B_0, B_2
    and B_q, so the seed misses the root by O(x^2), x = alpha^{-(p-3)/2};
    in the series t <= T_SERIES from the order-8 reversion of the law in
    em and one Newton step on it, so the seed misses by O(em^9) and lands
    within the stop below wherever em is below about 0.17, the p = 3
    roots included. The Newton stops
    once its step delta = -r/r' is within 1e-8 in tau, and the point is
    built from the last evaluation's log state moved by delta along its
    slopes (ln k, ln gamma, ln d and ln N, with tau + delta), so r is zero
    there to first order and the point's error is O(delta^2). If the
    Newton stops on a larger step (a collapsed bracket or an unusable
    slope), the root is settled to xtol 1e-12 and taken as it is. Then
    h = alpha/d, so alpha = h d holds by construction, and beta = h^2 N. At
    p = 3, r = ln N and the point is the normalization N = 1. The solver
    raises MonotonicityViolation if dr/dtau is not positive at the root;
    InvalidBracket where no float point represents the curve (the root in
    tau past a wall of the root-find, k, h, beta or lambda out of range, or
    d rounding to k); NoConvergence, with the instance's message, alpha and
    p, if NonlocalSolution finds |ln beta - (p-1) ln h|, the log miss of
    beta = h^{p-1}, above 1e-10.
    """
    if not 0.0 < alpha < math.inf:
        check_positive("alpha", alpha)
    p = params.p
    ln_alpha = math.log(alpha)
    last = None

    def resid(tau: float):
        # solve_monotone returns the tau of its last call, so the root's
        # state is the one kept here.
        nonlocal last
        state = _state_at_t(math.exp(tau), params)
        r = state[9] - (p - 3.0) * (ln_alpha - state[8])
        dr = state[11] + (p - 3.0) * state[10]
        last = (r, dr, tau, state)
        return r, dr

    try:
        # solve_monotone returns once its Newton step is within xtol/8.
        tau = solve_monotone(resid, _seed_tau(ln_alpha, params), ll._TAU_LO,
                             ll._TAU_HI, xtol=8.0 * _LAST_STEP)
        step = -last[0] / last[1] if last[1] > 0.0 else math.nan
        if not abs(step) <= _LAST_STEP:
            # Stopped on a collapsed bracket or an unusable slope: settle
            # the root to xtol 1e-12 instead.
            tau = solve_monotone(resid, tau, ll._TAU_LO, ll._TAU_HI,
                                 xtol=1e-12)
            step = 0.0
    except BracketFailure as exc:
        raise ll._past_wall(last[2], p) from exc
    r, dr, _, state = last
    # The last Newton step (0 after settling), taken along the slopes.
    tau += step
    ln_n = state[9] + step * state[11]
    state = (state[0] + step * state[4], state[1] + step * state[5],
             state[2] + step * state[6])
    t = math.exp(tau)
    point = ll._point_from_t(t, p, state)

    # k(t) is strictly increasing, so dr/dtau > 0 at the root is the
    # monotonicity of the curve in k there.
    if not dr > 0.0:
        raise MonotonicityViolation(
            f"the residual is not increasing at the root t = {t:.6g} "
            f"(k = {point.k:.6g}): r = {r:.12g}, dr/dtau = {dr:.12g}")

    # ln d as the point composes it, so alpha = h d to rounding.
    ln_h = ln_alpha - (state[0] + state[2])
    # In log form: h^2 alone under- or overflows for p near 1.
    try:
        h, beta = math.exp(ln_h), math.exp(2.0 * ln_h + ln_n)
    except OverflowError:
        h = beta = math.inf
    lam = beta * point.gamma
    if not (0.0 < h < math.inf and 0.0 < beta < math.inf
            and 0.0 < lam < math.inf):
        raise InvalidBracket(
            f"h = {h:.3g}, beta = {beta:.3g} or lambda = {lam:.3g} leaves "
            f"the float range at alpha = {alpha!r}, p = {p!r}")
    # The instance checks its invariants once, beta = h^{p-1} among them;
    # any other failed check is a bug and stays a bare ValueError.
    try:
        return NonlocalSolution(alpha, point, h, beta, lam, params.regime)
    except _BetaMiss as exc:
        raise NoConvergence(f"{exc} at alpha = {alpha!r}, p = {p!r}") \
            from exc


def _phi_prime(s, p: float):
    """d/ds of phi(s, p) on [0, 1], one formula for every 0 < s < 1.

    With u = 1 - s, L = log1p(-u) and E(x) = e^x - 1 - x
    (kernels._expm1_minus_x), phi'(s) (u (2 - u))^2 is

        2 (p+1) L e^L expm1((p-1) L) - 2 e^L E((p+1) L) + (p+1) e^{pL} E(2L),

    each term of order L^2, so nothing cancels to the rounding of an O(1)
    term as u -> 0. phi'(1) = (p+1)(p-1)/4 and phi'(0) = 0. Kept apart
    from phi's own formula on purpose, so that residual_check's u'' is an
    independent evaluation path.
    """
    u = 1.0 - np.atleast_1d(np.asarray(s, dtype=float))
    out = np.where(u > 0.0, 0.0, 0.25 * (p + 1.0) * (p - 1.0))
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    L = np.log1p(-um)
    e_l = np.exp(L)
    num = 2.0 * (p + 1.0) * L * e_l * np.expm1((p - 1.0) * L) \
        - 2.0 * e_l * kernels._expm1_minus_x((p + 1.0) * L) \
        + (p + 1.0) * np.exp(p * L) * kernels._expm1_minus_x(2.0 * L)
    out[mid] = num / (um * (2.0 - um)) ** 2
    return out


def residual_check(sol: NonlocalSolution, n: int,
                   params: ProblemParams) -> float:
    """Defect of -beta u'' + u^p = lambda u at n interior amplitudes.

    u'' is NOT taken from the defining relation: it is reconstructed by
    differentiating the first-integral form (w')^2 = (k^2 - w^2)
    [gamma - 2 k^{p-1} phi(w/k)/(p+1)] through phi, an independent
    evaluation path. Returns max |defect| / (lambda ||u||_inf).
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 5:
        raise ValueError(f"need at least 5 sample points, got {n}")
    k = sol.local.k
    gamma = sol.local.gamma
    p = sol.local.p
    # Everything divided by ||u||_inf = h k and written in s = w/k, so that
    # neither k^2 nor k^{p+1} is formed (k reaches 1e228 at p = 1.05).
    s = np.linspace(0.0, 1.0, n + 2)[1:-1]
    kp1 = k ** (p - 1.0)
    s_dd = -s * (gamma - 2.0 * kp1 * phi(s, p) / (p + 1.0)) \
        - (1.0 - s * s) * kp1 / (p + 1.0) * _phi_prime(s, p)
    defect = -sol.beta * s_dd + (sol.h * k) ** (p - 1.0) * s ** p - sol.lam * s
    return float(np.max(np.abs(defect)) / sol.lam)
