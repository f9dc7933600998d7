"""Deterministic numerical integration on finite intervals.

One rule, ``gauss_legendre_adaptive``: panel-adaptive Gauss-Legendre with an
embedded error estimate by order doubling (12 vs 24 nodes per panel), for
integrands smooth on the closed interval. Each refinement round bisects
every panel whose error estimate exceeds its share of the tolerance, up to a
fixed bound on the number of live panels. Every integrand of this package is
brought into that class by a change of variable before it gets here. The
relative tolerance REL_TOL, the absolute floor ABS_TOL and the round budget
MAX_REFINEMENTS are the same for every request.

Calling convention: the integrand ``f`` receives a NumPy array of nodes and
must return an array of values, or shape (m, len(nodes)) for m integrands
sharing the nodes: the result then holds m values, and a panel is refined
until every component meets its tolerance. The integrator never evaluates
``f`` exactly at an interval endpoint; integrands needing a limiting value
there must build it in via a guarded branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite

# The rule's name, as error messages and serialized reports give it.
GAUSS_LEGENDRE = "gauss_legendre_adaptive"

# Fixed node/weight pairs for the embedded Gauss-Legendre estimate.
_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(12)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(24)

# Most panels one Gauss refinement round may hold. Over the test suite and
# a 198-case (p, q, alpha) domain grid no round holds more than 8. An
# integrand whose rounding noise sits above the tolerance fails on every
# panel and would double the count each round, so passing the bound raises
# NoConvergence instead.
_GL_MAX_PANELS = 4096

# Relative tolerance, the absolute error floor under it, and the most
# refinement rounds one request may take, for every request. On the 198-case
# domain grid a looser REL_TOL moves points (by up to 3.7e-7 at 1e-6) and a
# tighter one turns some into NoConvergence (6 at 1e-14, 16 at 1e-15).
REL_TOL = 1e-12
ABS_TOL = 1e-14
MAX_REFINEMENTS = 30


@dataclass(frozen=True)
class QuadResult:
    """value and error_estimate are floats for a 1-D integrand, arrays of m
    entries for a stacked one."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


def integrate(f, a: float, b: float) -> QuadResult:
    """Approximate the integral of ``f`` over (a, b).

    The result satisfies |error_estimate| <= max(ABS_TOL, REL_TOL*|value|),
    componentwise for a stacked integrand; otherwise NoConvergence is
    raised. NonFinite is raised if ``f`` returns NaN or infinity at any
    interior node actually used.
    """
    if not (a < b):
        raise ValueError("integrate requires a < b")
    total_len = float(b) - float(a)
    panels = np.array([[a, b]], dtype=float)
    acc_val = 0.0
    acc_err = 0.0
    evals = 0

    for _ in range(MAX_REFINEMENTS + 1):
        mid = 0.5 * (panels[:, 0] + panels[:, 1])
        half = 0.5 * (panels[:, 1] - panels[:, 0])

        x_lo = (mid[:, None] + half[:, None] * _GL_LO_X[None, :]).ravel()
        x_hi = (mid[:, None] + half[:, None] * _GL_HI_X[None, :]).ravel()
        f_lo = _call(f, x_lo)
        f_hi = _call(f, x_hi)
        evals += x_lo.size + x_hi.size

        # (m, n_panels) panel integrals; a 1-D integrand is row m = 1.
        n = len(panels)
        i_lo = half * (f_lo.reshape(-1, n, _GL_LO_X.size) @ _GL_LO_W)
        i_hi = half * (f_hi.reshape(-1, n, _GL_HI_X.size) @ _GL_HI_W)
        perr = np.abs(i_hi - i_lo)

        # A panel is kept only when every component meets its share.
        running = acc_val + i_hi.sum(axis=1)
        tol = np.maximum(ABS_TOL, REL_TOL * np.abs(running))
        ok = np.all(perr <= tol[:, None] * (2.0 * half / total_len), axis=0)
        acc_val = acc_val + i_hi[:, ok].sum(axis=1)
        acc_err = acc_err + perr[:, ok].sum(axis=1)
        if np.all(ok):
            if f_hi.ndim == 1:
                return QuadResult(float(acc_val[0]), float(acc_err[0]), evals)
            return QuadResult(acc_val, acc_err, evals)

        bad = panels[~ok]
        if 2 * len(bad) > _GL_MAX_PANELS:
            raise NoConvergence(
                f"{GAUSS_LEGENDRE}: tolerance unmet on {len(bad)} panels; "
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
        f"{GAUSS_LEGENDRE}: tolerance unmet after {MAX_REFINEMENTS} refinement rounds"
    )


def _call(f, s: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(s), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("integrand returned a non-finite value at an interior node")
    return vals

