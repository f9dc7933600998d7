"""Deterministic numerical integration on finite intervals.

Two rules cover the two integrand classes that appear in this package:

``gauss_legendre_adaptive``
    Panel-adaptive Gauss-Legendre with an embedded error estimate by order
    doubling (12 vs 24 nodes per panel). For integrands smooth on the closed
    interval. Each refinement round bisects every panel whose error estimate
    exceeds its share of the tolerance, up to a fixed bound on the number of
    live panels.

``double_exponential``
    Tanh-sinh transformation with level-doubled trapezoid sums, for
    integrands with endpoint behavior of type (1-s)^(-1/2), removable 0/0
    endpoint limits, and square-root zeros. Previous levels are reused; the
    error estimate is the difference between successive levels.

Calling convention: the integrand ``f`` receives a NumPy array of nodes and
must return an array of values. Under the Gauss rule ``f`` may instead return
shape (m, len(nodes)), m integrands sharing the nodes: the result then holds
m values, and a panel is refined until every component meets its tolerance.
The integrator never evaluates ``f`` exactly at an interval endpoint;
integrands needing a limiting value there must build it in via a guarded
branch.

For integrands whose singular behavior at an endpoint cannot be resolved from
the absolute node coordinate in double precision (the distance to the
endpoint loses all relative accuracy below ~1e-16), set the attribute
``f.endpoint_aware = True``. The tanh-sinh driver then calls
``f(s, dist_a, dist_b)`` where the distances to both endpoints are computed
in exponential space and keep full relative precision arbitrarily close to
the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite

GAUSS_LEGENDRE = "gauss_legendre_adaptive"
DOUBLE_EXPONENTIAL = "double_exponential"

# Fixed node/weight pairs for the embedded Gauss-Legendre estimate.
_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(12)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(24)

# Most panels one Gauss refinement round may hold. Over the test suite and
# a 198-case (p, q, alpha) domain grid no round holds more than 8. An
# integrand whose rounding noise sits above the tolerance fails on every
# panel and would double the count each round, so passing the bound raises
# NoConvergence instead.
_GL_MAX_PANELS = 4096

# Tanh-sinh abscissa bound. sinh(6) ~ 201.7, so the innermost kept node sits
# ~exp(-2*pi*sinh(6)/2) ~ 1e-276 from the endpoint: deep enough for any
# integrable singularity, still clear of subnormal underflow.
_TS_TMAX = 6.0
_TS_H0 = 1.0


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy and rule selection for one integration request."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_refinements: int = 30
    rule: str = GAUSS_LEGENDRE

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if self.rule not in (GAUSS_LEGENDRE, DOUBLE_EXPONENTIAL):
            raise ValueError(f"unknown rule: {self.rule!r}")

    def with_rule(self, rule: str) -> "QuadSpec":
        return QuadSpec(self.rel_tol, self.abs_tol, self.max_refinements, rule)


@dataclass(frozen=True)
class QuadResult:
    """value and error_estimate are arrays of m entries for a stacked integrand."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


def integrate(f, a: float, b: float, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Approximate the integral of ``f`` over (a, b).

    The result satisfies |error_estimate| <= max(abs_tol, rel_tol*|value|),
    componentwise for a stacked integrand; otherwise NoConvergence is
    raised. NonFinite is raised if ``f`` returns NaN or infinity at any
    interior node actually used.
    """
    if not (a < b):
        raise ValueError("integrate requires a < b")
    if spec.rule == GAUSS_LEGENDRE:
        return _gauss_adaptive(f, float(a), float(b), spec)
    return _tanh_sinh(f, float(a), float(b), spec)


def _call(f, s: np.ndarray, da=None, db=None) -> np.ndarray:
    if getattr(f, "endpoint_aware", False):
        vals = np.asarray(f(s, da, db), dtype=float)
    else:
        vals = np.asarray(f(s), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("integrand returned a non-finite value at an interior node")
    return vals


def _gauss_adaptive(f, a: float, b: float, spec: QuadSpec) -> QuadResult:
    total_len = b - a
    panels = np.array([[a, b]])
    acc_val = 0.0
    acc_err = 0.0
    evals = 0

    for _ in range(spec.max_refinements + 1):
        mid = 0.5 * (panels[:, 0] + panels[:, 1])
        half = 0.5 * (panels[:, 1] - panels[:, 0])

        x_lo = (mid[:, None] + half[:, None] * _GL_LO_X[None, :]).ravel()
        x_hi = (mid[:, None] + half[:, None] * _GL_HI_X[None, :]).ravel()
        f_lo = _call(f, x_lo)
        f_hi = _call(f, x_hi)
        evals += x_lo.size + x_hi.size

        # (n_panels, nodes) for a scalar integrand, (m, n_panels, nodes)
        # for a stacked one.
        n = len(panels)
        i_lo = half * (f_lo.reshape(*f_lo.shape[:-1], n, -1) @ _GL_LO_W)
        i_hi = half * (f_hi.reshape(*f_hi.shape[:-1], n, -1) @ _GL_HI_W)
        perr = np.abs(i_hi - i_lo)

        if perr.ndim == 1:
            running = acc_val + float(i_hi.sum())
            tol = max(spec.abs_tol, spec.rel_tol * abs(running))
            ok = perr <= tol * (2.0 * half / total_len)
            acc_val += float(i_hi[ok].sum())
            acc_err += float(perr[ok].sum())
        else:
            # A panel is kept only when every component meets its share.
            running = acc_val + i_hi.sum(axis=1)
            tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(running))
            ok = np.all(perr <= tol[:, None] * (2.0 * half / total_len), axis=0)
            acc_val = acc_val + i_hi[:, ok].sum(axis=1)
            acc_err = acc_err + perr[:, ok].sum(axis=1)
        if np.all(ok):
            return QuadResult(acc_val, acc_err, evals)

        bad = panels[~ok]
        if 2 * len(bad) > _GL_MAX_PANELS:
            raise NoConvergence(
                f"gauss_legendre_adaptive: tolerance unmet on {len(bad)} panels; "
                f"bisecting them would pass {_GL_MAX_PANELS} panels"
            )
        mids = 0.5 * (bad[:, 0] + bad[:, 1])
        panels = np.concatenate(
            [
                np.stack([bad[:, 0], mids], axis=1),
                np.stack([mids, bad[:, 1]], axis=1),
            ]
        )

    raise NoConvergence(
        f"gauss_legendre_adaptive: tolerance unmet after {spec.max_refinements} refinement rounds"
    )


def _ts_nodes(taus: np.ndarray, a: float, b: float):
    """Map trapezoid abscissae to interval nodes with exact endpoint distances.

    Returns (s, da, db, w): node positions, distances to a and b computed in
    exponential space (full relative precision), and the transformed weights.
    """
    length = b - a
    y = 0.5 * math.pi * np.sinh(taus)
    em = np.exp(-2.0 * np.abs(y))
    near = length * em / (1.0 + em)
    far = length / (1.0 + em)
    pos = y >= 0
    da = np.where(pos, far, near)
    db = np.where(pos, near, far)
    s = np.where(pos, b - near, a + near)
    # weight = (length/2) * (pi/2) cosh(tau) sech^2(y); sech^2 via exp(-2|y|)
    sech2 = 4.0 * em / (1.0 + em) ** 2
    w = 0.5 * length * 0.5 * math.pi * np.cosh(taus) * sech2
    return s, da, db, w


def _tanh_sinh(f, a: float, b: float, spec: QuadSpec) -> QuadResult:
    aware = getattr(f, "endpoint_aware", False)
    evals = 0

    def level_sum(taus: np.ndarray) -> tuple[float, int]:
        s, da, db, w = _ts_nodes(taus, a, b)
        if aware:
            keep = (da > 0.0) & (db > 0.0) & (w > 0.0)
        else:
            # Nodes that round onto an endpoint are dropped rather than
            # evaluated there; their true terms are below float resolution.
            keep = (s > a) & (s < b) & (w > 0.0)
        if not np.any(keep):
            return 0.0, 0
        vals = _call(f, s[keep], da[keep], db[keep])
        return float(np.dot(vals, w[keep])), int(keep.sum())

    h = _TS_H0
    n0 = int(math.floor(_TS_TMAX / h))
    taus0 = h * np.arange(-n0, n0 + 1)
    total, used = level_sum(taus0)
    evals += used
    s_prev = h * total

    for _ in range(spec.max_refinements):
        h *= 0.5
        odd = h * np.arange(-(2 * n0) + 1, 2 * n0, 2)
        n0 *= 2
        part, used = level_sum(odd)
        evals += used
        s_cur = 0.5 * s_prev + h * part
        err = abs(s_cur - s_prev)
        if err <= max(spec.abs_tol, spec.rel_tol * abs(s_cur)):
            return QuadResult(s_cur, err, evals)
        s_prev = s_cur

    raise NoConvergence(
        f"double_exponential: tolerance unmet after {spec.max_refinements} level doublings"
    )
