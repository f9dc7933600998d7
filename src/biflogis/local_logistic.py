"""Exact solution curve of the local problem -w'' + w^p = gamma w on (0, 1).

Every positive Dirichlet solution is symmetric about x = 1/2 with amplitude
k = w(1/2), and quadrature of the first integral gives the half-interval
traversal time

    T(k, gamma) = gamma^{-1/2} * J0(eps),    eps = 1 - k^{p-1}/gamma,

where J0 is the q = 0 case of the moment family

    J_q(eps) = int_0^1 s^q F(s)^{-1/2} ds,
    F(s) = eps (1 - s^2) + (1 - eps) f(s),
    f(s) = (1 - s^2) - (2/(p+1)) (1 - s^{p+1}).

The solution condition T = 1/2 then pins the whole curve to one parameter.
This module parameterizes it by the layer coordinate t = -ln(eps) in (0, inf):

    gamma = 4 J0^2,  k^{p-1} = 4 em J0^2,  d^2 = k^2 J2/J0,
    ||w||_q^q = k^q J_q/J0,       em = 1 - eps = -expm1(-t),

so the small-amplitude end (t -> 0, gamma -> pi^2) and the boundary-layer end
(t -> inf, gamma ~ k^{p-1}) are both reachable without cancellation: eps is
never formed by subtraction. All inverse problems (given k, gamma, or d) are
single safeguarded Newton root-finds on a log-monotone residual in
tau = ln t, whose slope every moment branch gives in closed form; the curve
point is built from the state the root's last evaluation made.

The moments have three branches, each closed form once calibrated:

- t <= T_SERIES: the power series J_q = sum_n C(2n,n)/4^n a_{q,n} em^n,
  from F(s) = (1 - s^2)(1 - em c phi(s)), c = 2/(p+1). Its coefficients
  are calibrated once per (p, q) by quadrature in s = sin(theta). All terms
  are positive and c phi <= 1, so the terms after n are at most
  C(2n,n)/4^n em^{n+1}/(1 - em) of the sum; with the cached term count
  that bound stays below 2^-53 up to T_SERIES.
- T_SERIES < t < T_ASYM: a piecewise Chebyshev series in tau = ln t. Each
  panel's coefficients are calibrated lazily, once per (p, q, panel), by one
  DCT of one adaptive quadrature with one row per Chebyshev point, after
  s = 1 - x^2, x = w0 sinh v with w0 = sqrt(2 eps/(p-1)), which absorbs
  both the endpoint square root and the eps-width layer; the transformed
  integrand lives in ``kernels``. A panel whose trailing coefficients exceed
  the quadrature's own tolerance raises NoConvergence. That happens only
  below p = 1.005 (on the panel t in [4.6, 9.5]; largest failing p 1.0045
  on a grid of step 0.0005).
- t >= T_ASYM: the asymptote J_q = t/sqrt(p-1) + B_q, with B_q calibrated
  once per (p, q) by that quadrature.

Each branch also gives dJ_q/dtau: the series term by term, the asymptote as
t/sqrt(p-1), the Chebyshev series through the derivative coefficients its
panel caches beside its values. Every calibration runs at the quadrature's
one tolerance, quadrature.REL_TOL, and depends on its own (p, q) key alone,
never on which other q came before it. A moment call reads its q from one
view per (p, qs, branch), stacked in the caller's q order from the per-q
caches; both series share one row-wise dot product against their basis
(none on the asymptote). The (k, gamma) maps time_map and q_norm read the
same moments at t = -ln(1 - k^{p-1}/gamma), so no public route integrates
outside calibration.

A sampled profile is the cumulative sum of the segment integrals of x'(s)
between its nodes (in the sinh variable below T_ASYM, in s above it). Each
segment is mapped onto [0, 1] and becomes one row of a stacked quadrature,
so the rows share panels; they go through in blocks of _PROFILE_ROWS rows,
which bounds the memory of one call for any node count. Above T_ASYM the
segments do not depend on t, and are calibrated once per (p, n).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels, quadrature
from .errors import (BracketFailure, InvalidBracket, NoConvergence,
                     NoSolution, check_exponent, check_positive)
from .quadrature import integrate
from .rootfind import solve_monotone

__all__ = [
    "LocalParams",
    "LocalPoint",
    "Profile",
    "T_ASYM",
    "phi",
    "time_map",
    "solve_gamma",
    "q_norm",
    "point_q_norm",
    "point_from_k",
    "point_from_gamma",
    "solve_for_d",
    "sample_profile",
]

PI2 = math.pi ** 2

# Switch points of the moment evaluator. For t >= T_ASYM (eps <= 1e-18) the
# linear asymptote in t is exact to well below float64 resolution of J_q.
# For t <= T_SERIES the series with _S_TERMS = N terms is too: its tail bound
# b_{N-1} em^N/(1 - em) grows with t and is 0.084 * 2^-53 at t = 0.5.
T_ASYM = -math.log(1e-18)
T_SERIES = 0.5
_S_TERMS = 40

# Between the switch points J_q is analytic in tau = ln t and is interpolated
# on _CHEB_PANELS equal panels of [ln T_SERIES, ln T_ASYM] with _CHEB_POINTS
# first-kind Chebyshev points each. The trailing coefficients then sit at the
# quadrature's noise, below 1.8e-15 of c_0 for p in [1.05, 100]; with four
# panels they reach 2.1e-13 at p = 1.05.
_CHEB_PANELS = 6
_CHEB_POINTS = 25
_CHEB_TAU0 = math.log(T_SERIES)
_CHEB_WIDTH = (math.log(T_ASYM) - _CHEB_TAU0) / _CHEB_PANELS

# Walls for the tau = ln t root-finds. exp(-700) is still a normal double;
# exp(55) puts gamma near 1e47, far beyond any supported input.
_TAU_LO = -700.0
_TAU_HI = 55.0

# Rows per stacked integrate call in sample_profile. One call evaluates
# rows x nodes values at once, so an unbounded n would need unbounded
# memory; 1024-row blocks run as fast as one call and keep a 200,001-node
# profile's peak RSS within a few MB of a segment-at-a-time loop.
_PROFILE_ROWS = 1024


@dataclass(frozen=True)
class LocalParams:
    """Problem exponent of the local curve."""

    p: float

    def __post_init__(self):
        check_exponent("p", self.p)


@dataclass(frozen=True)
class LocalPoint:
    """One point of the curve: amplitude k, eigenvalue gamma, L2 norm d.

    layer_t carries the internal coordinate t = -ln(1 - k^{p-1}/gamma) when
    the point came from a solver; it lets downstream sampling avoid
    re-deriving eps from a catastrophic subtraction.
    """

    k: float
    gamma: float
    d: float
    p: float
    layer_t: float | None = None

    def __post_init__(self):
        for name in ("k", "gamma", "d", "p"):
            check_positive(name, getattr(self, name))
        if self.gamma < PI2 * (1.0 - 1e-12):
            raise ValueError(f"gamma must be >= pi^2, got {self.gamma}")
        # gamma > k^{p-1}, compared in log space with 1e-12 slack: at the
        # boundary-layer end the two coincide to the last float64 bit.
        if math.log(self.gamma) + 1e-12 < (self.p - 1.0) * math.log(self.k):
            raise ValueError("gamma must exceed k^(p-1)")
        if not (self.d < self.k):
            raise ValueError("d must lie strictly below k")


@dataclass(frozen=True)
class Profile:
    """Sampled solution profile w(x) on [0, 1], symmetric about x = 1/2;
    xs rises strictly on [0, 1/2] and can tie on [1/2, 1] deep in the layer
    (see sample_profile)."""

    xs: np.ndarray
    ws: np.ndarray
    k: float
    gamma: float
    p: float

    def __len__(self):
        return len(self.xs)


def phi(s, p: float):
    """(1 - s^{p+1}) / (1 - s^2), continued analytically to s = 1.

    Vectorized over s in [0, 1]; phi(1) = (p+1)/2. One formula in u = 1 - s
    serves every s < 1 (_phi_of_u), within 4.5e-16 of 50-digit mpmath for p
    in [1.001, 1000], s = 0 and u down to 1e-16 included.
    """
    check_exponent("p", p)
    s_arr = np.asarray(s, dtype=float)
    out = _phi_of_u(1.0 - np.atleast_1d(s_arr), p)
    return float(out[0]) if s_arr.ndim == 0 else out


def _phi_of_u(u: np.ndarray, p: float) -> np.ndarray:
    """phi at s = 1 - u: -expm1((p+1) log1p(-u)) / (u (2-u)), which holds
    the cancellation of 1 - s^{p+1} and of 1 - s^2 alike, and (p+1)/2 at
    u = 0. At u = 1, log1p(-1) = -inf and expm1(-inf) = -1 exactly."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1((p + 1.0) * np.log1p(-u)) / (u * (2.0 - u))
    out[u == 0.0] = 0.5 * (p + 1.0)
    return out


# --- moment evaluation ------------------------------------------------------

_B_CACHE: dict = {}
_S_CACHE: dict = {}
_C_CACHE: dict = {}
_SEG_CACHE: dict = {}
# Copies of the calibrations above stacked for _moments_at_t, one per (p, qs,
# branch) and so per order of qs, never trimmed; branch -1 is the
# series, _CHEB_PANELS the asymptote, and those between the Chebyshev panels.
_VIEW_CACHE: dict = {}

_S_N = np.arange(_S_TERMS, dtype=float)
# b_n = C(2n, n)/4^n, the coefficients of (1 - z)^{-1/2} = sum_n b_n z^n.
_S_BINOM = np.cumprod(np.concatenate(([1.0], 1.0 - 0.5 / _S_N[1:])))


def _layer_moments(eps, em, p: float, q: float):
    """J_q(eps) at every node of eps from one stacked adaptive pass in the
    sinh variable, in the shape of eps.

    em = 1 - eps is passed separately so callers can hand over -expm1(-t)
    at full precision when eps is tiny. Every node is one row, its range
    [0, V(eps)] mapped onto [0, 1] as in _segment_integrals; the rows share
    their panels, refined until every row meets its tolerance.
    """
    shape = np.shape(eps)
    eps = np.reshape(eps, (-1, 1))
    em = np.reshape(em, (-1, 1))
    v_top = np.arcsinh(np.sqrt((p - 1.0) / (2.0 * eps)))
    w0 = np.sqrt(2.0 * eps / (p - 1.0))

    def f(y):
        v = v_top * y
        x = w0 * np.sinh(v)
        weight = (1.0 - np.minimum(x * x, 1.0)) ** q
        return v_top * kernels.layer_integrand(v, eps, em, p) * weight

    res = integrate(f, 0.0, 1.0)
    return (2.0 / math.sqrt(p - 1.0)) * res.value.reshape(shape)


def _b_shift(p: float, qpow: float) -> float:
    """Offset B_q of the large-t asymptote J_q = t/sqrt(p-1) + B_q.

    Calibrated once per (p, q) at eps = 1e-18, where the residual
    O(eps log(1/eps)) sits far below float64 resolution of J_q itself.
    """
    key = (p, qpow)
    val = _B_CACHE.get(key)
    if val is None:
        eps0 = 1e-18
        val = float(_layer_moments(eps0, 1.0 - eps0, p, qpow)) \
            - T_ASYM / math.sqrt(p - 1.0)
        _B_CACHE[key] = val
    return val


def _series_coeffs(p: float, qpow: float) -> np.ndarray:
    """Rows b_n a_{q,n} and n b_n a_{q,n} for n < _S_TERMS, so that
    J_q = sum_n b_n a_{q,n} em^n and dJ_q/d(ln em) = sum_n n b_n a_{q,n} em^n.

    With c = 2/(p+1), F(s) = (1 - s^2)(1 - em c phi(s)); expanding
    (1 - em c phi)^{-1/2} in b_n and putting s = sin(theta) gives
    a_{q,n} = int_0^{pi/2} sin^q(theta) (c phi(sin theta))^n dtheta. Every
    term is positive and c phi lies in [c, 1], so a_{q,n} <= a_{q,0} <= J_q;
    b_n falls with n, so the terms after n are at most
    b_n em^{n+1}/(1 - em) of J_q. The n = 0 entry of the first row is
    J_q(eps = 1).

    Calibrated once per (p, q) by one stacked quadrature with one row per n.
    """
    key = (p, qpow)
    val = _S_CACHE.get(key)
    if val is None:
        c = 2.0 / (p + 1.0)

        def f(th):
            # u = 1 - sin(theta) without cancellation: phi(sin(theta)) would
            # see u only to 1e-16 absolute, and (c phi)^n magnifies that
            # past the tolerance at large p.
            u = 2.0 * np.sin(0.25 * math.pi - 0.5 * th) ** 2
            cphi = c * _phi_of_u(u, p)
            return np.sin(th) ** qpow * cphi ** _S_N[:, None]

        row = _S_BINOM * integrate(f, 0.0, 0.5 * math.pi).value
        val = _S_CACHE[key] = np.stack((row, _S_N * row))
    return val


def _cheb_coeffs(p: float, qpow: float, panel: int) -> np.ndarray:
    """Chebyshev coefficients of J_q and of dJ_q/dtau on one tau panel,
    shape (2, points): J_q = sum_k c_k T_k(x) with x in [-1, 1] across the
    panel, then the coefficients of its derivative in tau.

    Calibrated once per (p, q, panel) by one stacked quadrature
    with one row per first-kind Chebyshev point x_j = cos(theta_j),
    theta_j = (2j+1) pi/(2n), so the coefficients of a q do not depend on
    which other q were calibrated before it; one DCT of those samples gives
    c_k = (2/n) sum_j f_j cos(k theta_j), c_0 halved. The trailing three
    coefficients must lie within max(ABS_TOL, REL_TOL |c_0|), the bound the
    quadrature itself meets; otherwise NoConvergence is raised and nothing
    is cached.
    """
    key = (p, qpow, panel)
    val = _C_CACHE.get(key)
    if val is None:
        # cos(k theta_j) with k theta_j = k (2j+1) pi/(2n) reduced mod 2 pi in
        # integers: the float product would carry k ulp of theta_j into c_k.
        # Column 1 holds x_j.
        n = _CHEB_POINTS
        dct = np.cos(np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
                     * (0.5 * math.pi / n))
        t = np.exp(_CHEB_TAU0 + _CHEB_WIDTH * (panel + 0.5 * (1.0 + dct[:, 1])))
        vals = _layer_moments(np.exp(-t), -np.expm1(-t), p, qpow)
        coeffs = (2.0 / n) * vals @ dct
        coeffs[0] *= 0.5
        tail = np.abs(coeffs[-3:]).max()
        bound = max(quadrature.ABS_TOL, quadrature.REL_TOL * abs(coeffs[0]))
        if tail > bound:
            t_lo, t_hi = np.exp(_CHEB_TAU0 + _CHEB_WIDTH * (panel + np.arange(2)))
            raise NoConvergence(
                f"Chebyshev panel t in [{t_lo:.6g}, {t_hi:.6g}] unresolved at "
                f"p = {p!r}, q = {qpow!r}: trailing coefficients "
                f"{tail:.3g} exceed {bound:.3g}")
        # dx/dtau = 2/_CHEB_WIDTH; the derivative series is one term shorter.
        slopes = np.polynomial.chebyshev.chebder(coeffs, scl=2.0 / _CHEB_WIDTH)
        val = _C_CACHE[key] = np.stack((coeffs, np.append(slopes, 0.0)))
    return val


def _moments_at_t(t: float, p: float, qs: tuple):
    """([J_q for q in qs], [dJ_q/dtau for q in qs]) at layer coordinate
    t = -ln(eps) = e^tau; a q may repeat.

    Three branches, all closed form once calibrated: up to T_SERIES, the
    power series in em = -expm1(-t) with the cached coefficients, whose tail
    after _S_TERMS = N terms is at most b_{N-1} em^N/(1 - em) < 2^-53 of the
    sum there; between the switch points, the Chebyshev series in
    tau = ln t with the cached coefficients of its panel; at or past
    T_ASYM, the asymptote with the cached B_q. Each branch reads one view
    per (p, qs, branch), stacked once from the per-q caches: the
    (2, len(qs), _S_TERMS) series coefficients, the B_q tuple, or a panel's
    (2, len(qs), points) Chebyshev coefficients, values first, then slopes.
    The series and Chebyshev views are evaluated by one np.vecdot against
    their basis, the powers em^n or T_k(x) = cos(k arccos x), each row by
    the same arithmetic, so a q's bits do not depend on its place in qs.
    """
    if t <= T_SERIES:
        branch = -1
    elif t >= T_ASYM:
        branch = _CHEB_PANELS
    else:
        s = (math.log(t) - _CHEB_TAU0) / _CHEB_WIDTH
        branch = min(int(s), _CHEB_PANELS - 1)
    key = (p, qs, branch)
    view = _VIEW_CACHE.get(key)
    if view is None:
        if branch < 0:
            view = np.stack([_series_coeffs(p, q) for q in qs], axis=1)
        elif branch == _CHEB_PANELS:
            view = tuple(_b_shift(p, q) for q in qs)
        else:
            view = np.stack([_cheb_coeffs(p, q, branch) for q in qs], axis=1)
        _VIEW_CACHE[key] = view
    if branch < 0:
        em = -math.expm1(-t)
        basis, scale = em ** _S_N, t * math.exp(-t) / em    # d(ln em)/dtau
    elif branch == _CHEB_PANELS:
        lin = t / math.sqrt(p - 1.0)
        return [lin + b for b in view], [lin] * len(qs)
    else:
        k = np.arange(float(view.shape[2]))
        basis, scale = np.cos(math.acos(2.0 * (s - branch) - 1.0) * k), 1.0
    vals, slopes = np.vecdot(view, basis).tolist()
    return vals, [slope * scale for slope in slopes]


# --- curve state at a given t -------------------------------------------------

def _log_state_at_t(t: float, p: float, qs: tuple):
    """(ln k, ln gamma, norms, slopes) at layer coordinate t, from one
    _moments_at_t call; norms holds ln ||w||_q for every q in qs, as a tuple
    in the order of qs (a q may repeat), and slopes the derivatives in
    tau = ln t of the first three entries, laid out as they are.
    d = ||w||_2, so a caller that needs d passes 2.0 in qs. Finite over the
    whole tau bracket, also where k itself under- or overflows."""
    (j0, *m), (dj0, *dm) = _moments_at_t(t, p, (0.0, *qs))
    dln_j0 = dj0 / j0
    em = -math.expm1(-t)
    ln_gamma = math.log(4.0) + 2.0 * math.log(j0)
    ln_k = (math.log(em) + ln_gamma) / (p - 1.0)
    # d(ln em)/dtau = t e^-t/em: the form t/expm1(t) overflows deep in the
    # layer.
    dln_k = (t * math.exp(-t) / em + 2.0 * dln_j0) / (p - 1.0)
    norms, slopes = [], []
    for q, jq, djq in zip(qs, m, dm):
        # ln of the ratio, not a difference of logs: deep in the layer
        # J_q/J0 is 1 - O(1/t), below the rounding of ln J_q itself.
        norms.append(ln_k + math.log(jq / j0) / q)
        slopes.append(dln_k + (djq / jq - dln_j0) / q)
    return ln_k, ln_gamma, tuple(norms), (dln_k, 2.0 * dln_j0, tuple(slopes))


def _point_from_t(t: float, p: float, state) -> LocalPoint:
    """Curve point at layer coordinate t from its log state (first norm d).

    InvalidBracket where k under- or overflows (p near 1) or d rounds to k
    (large p deep in the layer): no float point represents the curve there.
    """
    ln_k, ln_gamma, ln_norms, _ = state
    try:
        k, d = math.exp(ln_k), math.exp(ln_norms[0])
    except OverflowError:
        k = d = math.inf
    if not 0.0 < d < k < math.inf:
        raise InvalidBracket(
            f"no float curve point with 0 < d < k < inf at t = {t:.6g}, "
            f"p = {p!r} (ln k = {ln_k:.6g})")
    return LocalPoint(k=k, gamma=math.exp(ln_gamma), d=d, p=p, layer_t=t)


def _qnorm_from_t(t: float, q: float, params: LocalParams) -> float:
    return math.exp(_log_state_at_t(t, params.p, (q,))[2][0])


# --- inverse problems: root-finds in tau = ln t ------------------------------

def _seed_tau_for_k(ln_k: float, p: float, ln_k_large: float | None = None) -> float:
    # Small k: em ~ t, gamma ~ pi^2, so t ~ k^{p-1}/pi^2. Large k: em ~ 1 and
    # gamma ~ 4 t^2/(p-1), so t ~ sqrt(p-1) k^{(p-1)/2} / 2. The minimum of
    # the two exponents picks the right regime on both ends. ln_k_large, if
    # given, is the ln k the large-k exponent reads instead of ln_k.
    if ln_k_large is None:
        ln_k_large = ln_k
    tau_small = (p - 1.0) * ln_k - math.log(PI2)
    tau_large = 0.5 * (p - 1.0) * ln_k_large + 0.5 * math.log(p - 1.0) \
        - math.log(2.0)
    return min(tau_small, tau_large)


def _seed_tau_for_d(ln_d: float, p: float) -> float:
    """Seed tau for the curve point with L2 norm d = e^{ln_d}.

    Small d: w ~ k sin(pi x), so k ~ sqrt(2) d. Large d: w ~ k outside two
    layers of width O(1/sqrt(gamma)), so k ~ d; reading that end at
    sqrt(2) d too would put the seed (p-1) ln(2)/4 high in tau.
    """
    return _seed_tau_for_k(ln_d + 0.5 * math.log(2.0), p, ln_d)


def _seed_tau_for_gamma(gamma: float, p: float) -> float:
    """Closed-form seed tau for the curve point at gamma > pi^2, here and in
    the shooting oracle: t ~ gamma/pi^2 - 1 near the bifurcation, and
    t ~ sqrt((p-1) gamma)/2 at large gamma; the minimum picks the end."""
    tau_small = math.log(max(gamma / PI2 - 1.0, 1e-300))
    tau_large = 0.5 * math.log(gamma) + 0.5 * math.log(p - 1.0) - math.log(2.0)
    return min(tau_small, tau_large)


def _t_where(ln_of, target: float, seed: float, params: LocalParams):
    """(t, log state at t) where ln_of(state) = target, by safeguarded
    Newton in tau = ln t from the seed tau; the state carries d as its one
    norm. ln_of applied to the state's slopes gives the residual's slope,
    since they share the state's layout. The root's state is the one its
    last residual evaluation made. InvalidBracket where the root lies past
    a wall of tau."""
    p = params.p
    states: dict = {}

    def resid(tau: float):
        state = states[tau] = _log_state_at_t(math.exp(tau), p, (2.0,))
        return ln_of(state) - target, ln_of(state[3])

    try:
        tau = solve_monotone(resid, seed, _TAU_LO, _TAU_HI, xtol=1e-14)
    except BracketFailure as exc:
        raise _past_wall(next(reversed(states)), p) from exc
    return math.exp(tau), states[tau]


def _past_wall(tau: float, p: float) -> InvalidBracket:
    """The error for a root past the wall tau = _TAU_LO or _TAU_HI: the last
    tau a residual saw, as solve_monotone stops only at a wall it has just
    evaluated, heading one way from its seed."""
    why = "d would round to k" if tau == _TAU_HI else "t nears underflow"
    return InvalidBracket(f"the root lies beyond the wall t = exp({tau:g}) "
                          f"at p = {p!r}, where {why}")


def _t_from_k(k: float, params: LocalParams):
    check_positive("k", k)
    ln_k = math.log(k)
    return _t_where(lambda s: s[0], ln_k, _seed_tau_for_k(ln_k, params.p),
                    params)


def _t_from_gamma(gamma: float, params: LocalParams):
    check_positive("gamma", gamma)
    if gamma <= PI2:
        raise NoSolution(f"no positive solution for gamma <= pi^2 (got {gamma})")
    ln_g = math.log(gamma)
    return _t_where(lambda s: s[1], ln_g, _seed_tau_for_gamma(gamma, params.p),
                    params)


def _t_from_d(d: float, params: LocalParams):
    check_positive("d", d)
    ln_d = math.log(d)
    return _t_where(lambda s: s[2][0], ln_d, _seed_tau_for_d(ln_d, params.p),
                    params)


def _layer_t(k: float, gamma: float, p: float, name: str) -> float:
    """Layer coordinate t = -ln(1 - nu), nu = k^{p-1}/gamma, of a (k, gamma)
    pair on the curve or off it; InvalidBracket unless nu < 1.

    nu < 1 in float64 keeps t below 37, short of T_ASYM. Where k^{p-1}
    underflows, nu = 0 is the eps = 1 end; the smallest positive t reads
    the same moments there without the series slope's 0/0; where it
    overflows, it exceeds every finite gamma. exp((p-1) ln k - ln gamma)
    would round nu to ulps of (p-1) ln k, which 1 - nu magnifies near 1.
    """
    check_positive("k", k)
    check_positive("gamma", gamma)
    try:
        nu = k ** (p - 1.0) / gamma
    except OverflowError:
        nu = math.inf
    if not nu < 1.0:
        raise InvalidBracket(f"{name} needs gamma > k^(p-1); got ratio {nu}")
    return max(-math.log1p(-nu), 5e-324)


# --- public operations --------------------------------------------------------

def time_map(k: float, gamma: float, params: LocalParams) -> float:
    """Half-interval traversal time T(k, gamma); solution exists iff T = 1/2."""
    p = params.p
    t = _layer_t(k, gamma, p, "time_map")
    return _moments_at_t(t, p, (0.0,))[0][0] / math.sqrt(gamma)


def solve_gamma(k: float, params: LocalParams) -> float:
    """The unique gamma > max(k^{p-1}, pi^2) with time_map(k, gamma) = 1/2."""
    t, _ = _t_from_k(k, params)
    # gamma = k^{p-1}/em is exact given t and keeps gamma >= k^{p-1} even
    # when em has rounded to 1 (deep-layer amplitudes, gamma ~ 1e8+).
    em = -math.expm1(-t)
    return k ** (params.p - 1.0) / em


def q_norm(k: float, gamma: float, q: float, params: LocalParams) -> float:
    """||w||_q of the amplitude-k solution at eigenvalue gamma.

    Accepts any gamma > k^{p-1}, on the solution curve or off it. When the
    two are equal to within a few ulp the layer coordinate is no longer
    recoverable from the pair and accuracy degrades; curve points should go
    through point_q_norm, which keeps the layer exactly.
    """
    check_exponent("q", q)
    p = params.p
    t = _layer_t(k, gamma, p, "q_norm")
    j0, jq = _moments_at_t(t, p, (0.0, q))[0]
    return k * (jq / j0) ** (1.0 / q)


def point_q_norm(point: LocalPoint, q: float, params: LocalParams) -> float:
    """||w||_q at a curve point, evaluated in the layer coordinate.

    Uses the stored layer_t (recomputed from k when absent), so it stays
    accurate deep in the layer where gamma - k^{p-1} underflows float
    resolution and the (k, gamma) form cannot.
    """
    check_exponent("q", q)
    if point.p != params.p:
        raise ValueError("point and params disagree on p")
    t = point.layer_t
    if t is None:
        t, _ = _t_from_k(point.k, params)
    return _qnorm_from_t(t, q, params)


def point_from_k(k: float, params: LocalParams) -> LocalPoint:
    """Curve point with amplitude k."""
    t, state = _t_from_k(k, params)
    return _point_from_t(t, params.p, state)


def point_from_gamma(gamma: float, params: LocalParams) -> LocalPoint:
    """Curve point with eigenvalue gamma; gamma must exceed pi^2."""
    t, state = _t_from_gamma(gamma, params)
    return _point_from_t(t, params.p, state)


def solve_for_d(d: float, params: LocalParams) -> LocalPoint:
    """Curve point with L2 norm d, via the strictly increasing map d(k)."""
    t, state = _t_from_d(d, params)
    return _point_from_t(t, params.p, state)


def _segment_integrals(f, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """int f over [lo_j, lo_j + width_j] for every j.

    Each segment is mapped onto [0, 1] as the row width_j f(lo_j + width_j y)
    of a stacked integrate call, _PROFILE_ROWS rows per call; the rows share
    their panels and each row meets its own tolerance.
    """
    out = np.empty(len(lo))
    for i in range(0, len(lo), _PROFILE_ROWS):
        block = slice(i, i + _PROFILE_ROWS)
        a, h = lo[block, None], width[block, None]

        def rows(y, a=a, h=h):
            return h * f(a + h * y)

        out[block] = integrate(rows, 0.0, 1.0).value
    return out


def _asym_segments(p: float, n: int) -> np.ndarray:
    """Integrals of sqrt(gamma) x'(s) over the n - 2 segments between the
    first n - 1 of n uniform s-nodes, on the t >= T_ASYM branch.

    There eps <= 1e-18 contributes nothing away from s = 1, so each segment
    integrates f(s)^{-1/2}, which depends on p alone: the array is
    calibrated once per (p, n) and cached read-only.
    """
    key = (p, n)
    segs = _SEG_CACHE.get(key)
    if segs is None:
        def g(s):
            u = 1.0 - s
            return 1.0 / (math.sqrt(p - 1.0) * u
                          * np.sqrt(kernels.c_factor(u, p)))

        s_nodes = np.linspace(0.0, 1.0, n)
        lo = s_nodes[:-2]
        segs = _segment_integrals(g, lo, s_nodes[1:-1] - lo)
        segs.flags.writeable = False
        _SEG_CACHE[key] = segs
    return segs


def sample_profile(point: LocalPoint, n: int, params: LocalParams) -> Profile:
    """Sample w(x) at n nodes on [0, 1/2], mirrored to [1/2, 1].

    Nodes are uniform in s = w/k; abscissae are cumulative sums of the
    segment integrals of x'(s) = gamma^{-1/2} F(s)^{-1/2}. Every segment is
    one row of a stacked quadrature on [0, 1], _PROFILE_ROWS rows per call,
    so a profile of up to _PROFILE_ROWS + 1 nodes costs one integrate call.
    On the t >= T_ASYM branch the segment integrals depend on (p, n) alone
    and are cached, so only the first such profile per (p, n) integrates;
    later ones reuse the same array, bit for bit.
    n must be an integer >= 3; the total node count is 2n - 1.

    xs rises strictly on [0, 1/2]. Its mirror 1 - x is rounded to the 1.1e-16
    spacing of the doubles below 1, so where the layer, about gamma^{-1/2}
    wide, nears 1e-14 the right half only rises weakly: at p = 20, k = 30
    (t = 2.3e14) 4 of its 100 gaps are zero at n = 101, 841 of 1,000 at 1001.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    p = params.p
    if point.p != p:
        raise ValueError("point and params disagree on p")
    t = point.layer_t
    if t is None:
        t, _ = _t_from_k(point.k, params)
    gamma = point.gamma
    sqrt_g = math.sqrt(gamma)
    s_nodes = np.linspace(0.0, 1.0, n)
    xs_half = np.empty(n)
    xs_half[0] = 0.0

    if t < T_ASYM:
        # Layer-resolved route: segments in the sinh variable, walked from
        # v = V (s = 0) down to v = 0 (s = 1).
        eps = math.exp(-t)
        em = -math.expm1(-t)
        w0 = math.sqrt(2.0 * eps / (p - 1.0))
        vs = np.arcsinh(np.sqrt(np.maximum(1.0 - s_nodes, 0.0)) / w0)
        scale = 2.0 / (math.sqrt(p - 1.0) * sqrt_g)

        def f(v):
            return kernels.layer_integrand(v, eps, em, p)

        segs = _segment_integrals(f, vs[1:], vs[:-1] - vs[1:])
        xs_half[1:] = np.cumsum(scale * segs)
    else:
        # Boundary-layer regime: the final node takes the layer crossing
        # from the moment asymptote.
        xs_half[1:-1] = np.cumsum(_asym_segments(p, n) / sqrt_g)
        xs_half[-1] = _moments_at_t(t, p, (0.0,))[0][0] / sqrt_g

    ws_half = point.k * s_nodes
    xs = np.concatenate([xs_half, 1.0 - xs_half[-2::-1]])
    ws = np.concatenate([ws_half, ws_half[-2::-1]])
    return Profile(xs=xs, ws=ws, k=point.k, gamma=gamma, p=p)
