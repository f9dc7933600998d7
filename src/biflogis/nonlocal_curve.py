"""The nonlocal problem in the L2 frame, reduced to local solves plus algebra.

-(a1 ||u||_q^2 + a2 ||u||_2^2) u'' + u^p = lambda u on (0,1), u > 0, Dirichlet,
parameterized by alpha = ||u||_2. Every solution is a rescaled local profile:
u = h w_d with h = (a1 ||w_d||_q^2 + a2 d^2)^{1/(p-3)} away from p = 3, so the
only analytic content here is a scalar root-find for the right local amplitude
and the bookkeeping beta = h^{p-1}, lambda = beta gamma, alpha = h d.

The module file carries a _curve suffix because the bare problem name is a
Python keyword; the solution field lam is serialized as "lambda" for the same
reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import local_logistic as ll
from .errors import (BracketFailure, InvalidBracket, InvalidRegime,
                     MonotonicityViolation, NoConvergence, ZeroCoefficients)
from .local_logistic import LocalPoint, phi
from .quadrature import QuadSpec
from .rootfind import solve_monotone

__all__ = [
    "ProblemParams",
    "NonlocalSolution",
    "scale_factor",
    "g_of_k",
    "solve_alpha",
    "residual_check",
]

_CRITICAL_BAND = 1e-9

# Relative step in t of the post-root monotonicity probe, and the slack
# (1e-9 relative in g) its comparisons with alpha allow.
_PROBE_DELTA = 1e-3
_LN_SLACK = math.log1p(1e-9)

# Bound on |h d / alpha - 1| that every returned solution meets.
_ALPHA_RTOL = 1e-10

REGIMES = ("supercritical", "critical", "subcritical")


@dataclass(frozen=True)
class ProblemParams:
    """Problem data (p, q, a1, a2) plus numeric knobs."""

    p: float
    q: float
    a1: float
    a2: float
    quad: QuadSpec = QuadSpec()
    root_tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"p must be finite and > 1, got {self.p}")
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise ValueError(f"q must be finite and > 1, got {self.q}")
        if self.a1 < 0.0 or self.a2 < 0.0:
            raise ValueError(
                f"a1, a2 must be nonnegative, got {self.a1}, {self.a2}")
        if self.a1 + self.a2 <= 0.0:
            raise ZeroCoefficients("a1 + a2 must be positive")
        if self.root_tol <= 0.0:
            raise ValueError("root_tol must be positive")

    @property
    def regime(self) -> str:
        if abs(self.p - 3.0) <= _CRITICAL_BAND:
            return "critical"
        return "supercritical" if self.p > 3.0 else "subcritical"


@dataclass(frozen=True)
class NonlocalSolution:
    """One point of the bifurcation curve: alpha with its scaled local data.

    lam holds the eigenvalue lambda(alpha). The defining relations
    beta = a1 (h ||w||_q)^2 + a2 (h d)^2, h^{p-1} = beta (p != 3),
    lam = beta gamma, alpha = h d all hold on every constructed instance.
    """

    alpha: float
    local: LocalPoint
    h: float
    beta: float
    lam: float
    regime: str

    def __post_init__(self):
        for name in ("alpha", "h", "beta", "lam"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")

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


def _require_noncritical(p: float) -> None:
    if abs(p - 3.0) <= _CRITICAL_BAND:
        raise InvalidRegime(
            "the h-exponent 1/(p-3) is singular at p = 3; "
            "use the critical branch of solve_alpha")


def scale_factor(local: LocalPoint, q_norm_val: float,
                 params: ProblemParams) -> float:
    """h = (a1 ||w_d||_q^2 + a2 d^2)^{1/(p-3)} for p != 3."""
    _require_noncritical(params.p)
    if q_norm_val < 0.0:
        raise ValueError(f"q_norm_val must be nonnegative, got {q_norm_val}")
    # N = d^2 (a1 (||w||_q/d)^2 + a2), so that d^2 is never formed.
    n_over_d2 = params.a1 * (q_norm_val / local.d) ** 2 + params.a2
    if n_over_d2 <= 0.0:
        raise ZeroCoefficients("a1 ||w||_q^2 + a2 d^2 must be positive")
    return math.exp((2.0 * math.log(local.d) + math.log(n_over_d2))
                    / (params.p - 3.0))


def _state_at_t(t: float, params: ProblemParams):
    """(log-form local state, ln N) at layer coordinate t, where
    N = a1 ||w||_q^2 + a2 d^2 = d^2 (a1 (||w||_q/d)^2 + a2). The ratio
    ||w||_q/d is at most k/d, so ln N stays finite where d or N would
    under- or overflow, as for p near 1 at extreme alpha."""
    state = ll._log_state_at_t(t, params.p, (2.0, params.q), params.quad)
    ln_d, ln_wq = state[2][2.0], state[2][params.q]
    ratio2 = math.exp(2.0 * (ln_wq - ln_d))
    return state, 2.0 * ln_d + math.log(params.a1 * ratio2 + params.a2)


def _ln_g_at_t(t: float, params: ProblemParams) -> float:
    state, ln_n = _state_at_t(t, params)
    return ln_n / (params.p - 3.0) + state[2][2.0]


def _root_t(resid, ln_d: float, params: ProblemParams) -> float:
    """Root t of a monotone residual in tau = ln t, seeded where the local
    L2 norm is about exp(ln_d).

    InvalidBracket where the bracket runs into the upper wall _TAU_HI: the
    root lies deeper in the layer, where d/k = 1 - O(1/t) rounds to 1.
    """
    tau0 = ll._seed_tau_for_k(ln_d + 0.5 * math.log(2.0), params.p)
    last = tau0

    def tracked(tau: float) -> float:
        nonlocal last
        last = tau
        return resid(tau)

    try:
        tau = solve_monotone(tracked, tau0, ll._TAU_LO, ll._TAU_HI, step0=2.0,
                             xtol=min(params.root_tol, 1e-12))
    except BracketFailure as exc:
        if last != ll._TAU_HI:
            raise
        raise InvalidBracket(
            f"the root lies beyond t = exp({ll._TAU_HI:g}) at p = {params.p!r}, "
            f"q = {params.q!r}, where d would round to k") from exc
    return math.exp(tau)


def g_of_k(k: float, params: ProblemParams) -> float:
    """g = h(k) d(k), the alpha reached by local amplitude k (p != 3)."""
    _require_noncritical(params.p)
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be finite and positive, got {k}")
    t = ll._t_from_k(k, ll.LocalParams(p=params.p, quad=params.quad))
    return math.exp(_ln_g_at_t(t, params))


def _subcritical_e1(params: ProblemParams) -> float:
    """E1 = a1 2^{(q+2)/q} A1^{2/q} + a2 pi^{2/q}, with A1 = J_q(eps = 1) read
    from the n = 0 coefficient of the moments' small-t series (cached with
    the coefficients the small-t residuals use)."""
    p, q = params.p, params.q
    a1_val = float(ll._series_coeffs(p, q, params.quad)[0])
    return params.a1 * 2.0 ** ((q + 2.0) / q) * a1_val ** (2.0 / q) \
        + params.a2 * math.pi ** (2.0 / q)


def _solve_noncritical(alpha: float, params: ProblemParams) -> NonlocalSolution:
    p = params.p
    ln_alpha = math.log(alpha)
    if p > 3.0:
        # Large d: ||w||_q ~ d, so g ~ ((a1+a2) d^2)^{1/(p-3)} d.
        ln_d = ((p - 3.0) * ln_alpha - math.log(params.a1 + params.a2)) \
            / (p - 1.0)
    else:
        # Leading subcritical law d^{p-1} = alpha^{p-3} pi^{2/q} / E1.
        ln_d = ((p - 3.0) * ln_alpha + (2.0 / params.q) * math.log(math.pi)
                - math.log(_subcritical_e1(params))) / (p - 1.0)

    def resid(tau: float) -> float:
        return _ln_g_at_t(math.exp(tau), params) - ln_alpha

    t = _root_t(resid, ln_d, params)
    state, ln_n = _state_at_t(t, params)
    point = ll._point_from_state(t, p, state)

    # k(t) is strictly increasing, so probing g at t(1 -+ delta) checks the
    # monotonicity of g(k); in log space, so no probe can overflow.
    ln_minus = _ln_g_at_t(t * (1.0 - _PROBE_DELTA), params)
    ln_plus = _ln_g_at_t(t * (1.0 + _PROBE_DELTA), params)
    lo, hi = (ln_minus, ln_plus) if p > 3.0 else (ln_plus, ln_minus)
    if not (lo < hi and lo < ln_alpha + _LN_SLACK and hi > ln_alpha - _LN_SLACK):
        raise MonotonicityViolation(
            f"g is not locally monotone around the root t = {t:.6g} "
            f"(k = {point.k:.6g}): ln g(t-) = {ln_minus:.12g}, "
            f"ln g(t+) = {ln_plus:.12g}, ln alpha = {ln_alpha:.12g}")

    # Near p = 3 the factor 1/(p-3) amplifies the rounding of ln N past the
    # root tolerance, so alpha = h d is checked, first in log form, before h
    # is formed.
    ln_h = ln_n / (p - 3.0)
    miss = ln_h + state[2][2.0] - ln_alpha
    if not abs(miss) <= _ALPHA_RTOL:
        raise NoConvergence(
            f"h d misses alpha = {alpha!r} by {miss:.3g} in log at p = {p!r}")
    # beta = h^2 N in log form: h^2 alone under- or overflows for p near 1.
    try:
        h, beta = math.exp(ln_h), math.exp(2.0 * ln_h + ln_n)
    except OverflowError:
        h = beta = math.inf
    regime = "supercritical" if p > 3.0 else "subcritical"
    return _scaled(alpha, point, h, beta, regime)


def _solve_critical(alpha: float, params: ProblemParams) -> NonlocalSolution:
    def resid(tau: float) -> float:
        return _state_at_t(math.exp(tau), params)[1]

    # Normalize N = 1; for q = 2, N = (a1 + a2) d^2 puts the root at d_flat.
    d_flat = 1.0 / math.sqrt(params.a1 + params.a2)
    t = _root_t(resid, math.log(d_flat), params)
    point = ll._point_from_state(t, params.p, _state_at_t(t, params)[0])
    h = alpha / point.d
    return _scaled(alpha, point, h, h * h, "critical")


def _scaled(alpha: float, point: LocalPoint, h: float, beta: float,
            regime: str) -> NonlocalSolution:
    """The curve point u = h w at alpha, with lambda = beta gamma.

    InvalidBracket where h, beta or lambda leaves the float range (p near 1
    or extreme alpha); NoConvergence where h d misses alpha by more than
    _ALPHA_RTOL relative.
    """
    lam = beta * point.gamma
    if not all(0.0 < v < math.inf for v in (h, beta, lam)):
        raise InvalidBracket(
            f"h = {h:.3g}, beta = {beta:.3g} or lambda = {lam:.3g} leaves "
            f"the float range at alpha = {alpha!r}, p = {point.p!r}")
    miss = h * point.d / alpha - 1.0
    if not abs(miss) <= _ALPHA_RTOL:
        raise NoConvergence(
            f"h d misses alpha = {alpha!r} by {miss:.3g} at p = {point.p!r}")
    return NonlocalSolution(alpha=alpha, local=point, h=h, beta=beta,
                            lam=lam, regime=regime)


def solve_alpha(alpha: float, params: ProblemParams) -> NonlocalSolution:
    """The unique curve point with ||u||_2 = alpha.

    p > 3 and p < 3 invert the strictly monotone map g(k) = h d; the solver
    re-probes monotonicity at the root and raises MonotonicityViolation if
    the bracket assumption fails, and NoConvergence if the root misses
    alpha = h d by more than 1e-10 relative (close to p = 3, where 1/(p-3)
    amplifies rounding). p within 1e-9 of 3 takes the critical
    branch: normalize a1 ||w||_q^2 + a2 d^2 = 1, then scale exactly.
    Either branch raises InvalidBracket where no float point represents
    the curve (k, h, beta or lambda out of range, or d rounding to k).
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if abs(params.p - 3.0) <= _CRITICAL_BAND:
        return _solve_critical(alpha, params)
    return _solve_noncritical(alpha, params)


def _phi_prime(s, p: float):
    """d/ds of phi(s, p), stable through s = 1."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty_like(s_arr)
    u = 1.0 - s_arr
    near = u < 1e-8
    far = ~near
    if np.any(far):
        uf = u[far]
        sf = s_arr[far]
        one_m_s2 = uf * (2.0 - uf)
        a = -np.expm1((p + 1.0) * np.log1p(-uf))
        sp = np.exp(p * np.log1p(-uf))
        out[far] = (2.0 * sf * a - (p + 1.0) * sp * one_m_s2) / one_m_s2 ** 2
    if np.any(near):
        un = u[near]
        out[near] = 0.5 * (p + 1.0) * (p - 1.0) \
            * (0.5 - (2.0 * p - 3.0) * un / 6.0)
    return out


def residual_check(sol: NonlocalSolution, n: int,
                   params: ProblemParams) -> float:
    """Defect of -beta u'' + u^p = lambda u at n interior amplitudes.

    u'' is NOT taken from the defining relation: it is reconstructed by
    differentiating the first-integral form (w')^2 = (k^2 - w^2)
    [gamma - 2 k^{p-1} phi(w/k)/(p+1)] through phi, an independent
    evaluation path. Returns max |defect| / (lambda ||u||_inf).
    """
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
