"""Numerical verification of every asymptotic law the curve satisfies.

Each check reads a coefficient y that tends to its limit as x -> 0,
extrapolates it to x = 0 by Neville's scheme (Sidi, Practical Extrapolation
Methods, CUP 2003), fits the remainder order against the log of the sweep
variable, and compares against the closed-form target from the constants
module. One table per window of the layer coordinate t, small d and
large d: one _window read of the curve state at six points, no root-find,
then its rows in table order, the theorem's (x = alpha^{-(p-3)/2} or
alpha^{p-3}, alpha never formed) before the local problem's (x a power
of d), each turned into a CheckResult by _evaluate as it is taken, so a
caller that stops early fits nothing it does not take. check_laws takes
every row, theorem 2's at p = 3, whose exact law is read on the rows of
an alpha sweep; the CLI's verify exits 2 when any row fails.
Targets are never hard-coded here; they are recomputed per call so a
constants bug cannot hide behind a stale number.

rel_error convention: |estimate - target| / |target| when the target is away
from zero; checks whose target is exactly zero (identities, residuals) report
the absolute defect against a stated scale instead. pass ⟺ rel_error ≤
tolerance always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from . import constants as consts
from . import nonlocal_curve as nc
from .errors import (BiflogisError, DegenerateFit, InvalidBracket,
                     InvalidRegime)
from .quadrature import ABS_TOL, GAUSS_LEGENDRE, MAX_REFINEMENTS, REL_TOL

__all__ = [
    "CheckResult",
    "SweepReport",
    "sweep",
    "check_theorem_1",
    "check_theorem_2",
    "check_theorem_3",
    "check_laws",
    "DEFAULT_SUPER_ALPHAS",
    "DEFAULT_SUB_ALPHAS",
]

SQRT10 = math.sqrt(10.0)

DEFAULT_SUPER_ALPHAS = tuple(1e3 * SQRT10 ** i for i in range(5))
DEFAULT_SUB_ALPHAS = tuple(1e2 * SQRT10 ** i for i in range(5))

# The t-windows of the local and theorem checks: small d (alpha -> inf for
# p < 3, -> 0 for p > 3) on the series branch; large d (the reverse) on the
# asymptote branch, late enough that the non-power remainder has died out.
# That takes longer at large p, so the large-d window moves from
# ln t in [4, 6] to [8, 10] at p = 8 (_large_d_ts): at p = 300 theorem 1
# reads 0.52 on [4, 6] and 4.1e-6 on [8, 10], while below p = 8 [4, 6] is
# the more accurate (2.9e-11 against 9.2e-9 at p = 1.05).
_SMALL_D_TS = tuple(np.geomspace(1e-4, 1e-2, 6).tolist())
_LARGE_D_TS = tuple(np.exp(np.linspace(4.0, 6.0, 6)).tolist())
_LATE_LARGE_D_TS = tuple(np.exp(np.linspace(8.0, 10.0, 6)).tolist())


def _large_d_ts(p: float) -> tuple:
    """The large-d window at exponent p: ln t in [8, 10] for p >= 8,
    [4, 6] below."""
    return _LATE_LARGE_D_TS if p >= 8.0 else _LARGE_D_TS


def _window(ts, entries, params: nc.ProblemParams) -> np.ndarray:
    """The entries of the curve state nc._state_at_t(t, params) at the
    layer coordinates ts of a window, one row per entry, numbered as in
    its docstring."""
    pick = itemgetter(*entries)
    return np.array([pick(nc._state_at_t(t, params)) for t in ts]).T


@dataclass(frozen=True)
class CheckResult:
    """One verified asymptotic statement.

    fitted_order is the least-squares slope of log|remainder| vs log of the
    sweep variable (nan when the remainder is too clean to fit, e.g. exact
    identities drowned in roundoff).
    """

    name: str
    target: float
    estimate: float
    rel_error: float
    fitted_order: float
    tolerance: float
    # The other E3 reading's L0 mismatch; perfbench/workloads.py reads it.
    other_rel_error: float | None = None

    @property
    def passed(self) -> bool:
        """rel_error <= tolerance; False when rel_error is nan."""
        return bool(self.rel_error <= self.tolerance)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "estimate": self.estimate,
            "rel_error": self.rel_error,
            "fitted_order": None if math.isnan(self.fitted_order)
            else self.fitted_order,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _rel(estimate: float, target: float, floor: float = 0.0) -> float:
    """Error relative to max(|target|, floor), or absolute where that is 0."""
    return abs(estimate - target) / (max(abs(target), floor) or 1.0)


@dataclass
class SweepReport:
    """Curve rows plus check verdicts for one parameter set.

    solutions runs parallel to rows and keeps the live objects (None where a
    row failed); it is deliberately left out of serialization.
    """

    params: nc.ProblemParams
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    solutions: list = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "params": {
                "p": self.params.p, "q": self.params.q,
                "a1": self.params.a1, "a2": self.params.a2,
                "quad": {"rel_tol": REL_TOL,
                         "abs_tol": ABS_TOL,
                         "max_refinements": MAX_REFINEMENTS,
                         "rule": GAUSS_LEGENDRE},
            },
            "rows": self.rows,
            "checks": [c.to_record() for c in self.checks],
        }


def sweep(params: nc.ProblemParams, alphas) -> SweepReport:
    """Solve the curve on an alpha grid. A row's package error is recorded,
    not raised; any other exception is a bug and propagates."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if any(not (math.isfinite(a) and a > 0.0) for a in alphas):
        raise ValueError("alphas must be positive and finite")
    if len(set(alphas)) != len(alphas):
        raise ValueError("alphas must be distinct")
    report = SweepReport(params=params)
    for a in sorted(alphas):
        try:
            sol = nc.solve_alpha(a, params)
        except BiflogisError as exc:
            report.rows.append(
                {"alpha": a, "error": f"{type(exc).__name__}: {exc}"})
            report.solutions.append(None)
            continue
        report.rows.append(sol.to_record())
        report.solutions.append(sol)
    return report


def _order_in_log(ln_xs, rs) -> float:
    """Least-squares slope of log|r| against log x, given as ln_xs:
    sum(dx dy)/sum(dx^2) with dx centred. Zero and non-finite remainders
    carry no order and are dropped; on two points it is the log ratio."""
    ln_xs = np.asarray(ln_xs, dtype=float)
    rs = np.asarray(rs, dtype=float)
    keep = (rs != 0.0) & np.isfinite(rs) & np.isfinite(ln_xs)
    ln_xs, rs = ln_xs[keep], rs[keep]
    if len(ln_xs) < 2 or ln_xs.min() == ln_xs.max():
        raise DegenerateFit(
            f"need >= 2 distinct x with nonzero remainders, kept {len(ln_xs)}")
    dx = ln_xs - ln_xs.mean()
    return float(dx @ np.log(np.abs(rs)) / (dx @ dx))


def _neville_at_zero(xs, ys) -> float:
    """Value at x = 0 of the polynomial through the points (xs, ys), by
    Neville's scheme; on two points, the linear (Richardson) extrapolation.
    The xs are first scaled by the power of two that brings the largest
    |x| into [1/2, 1): the scaling is exact and leaves the value's bits,
    and the divided differences of tiny xs no longer overflow."""
    xs = np.asarray(xs, dtype=float).tolist()
    vals = np.asarray(ys, dtype=float).tolist()
    if len(xs) < 2 or len(set(xs)) < len(xs):
        raise DegenerateFit("need >= 2 distinct abscissae to extrapolate")
    shift = -math.frexp(max(map(abs, xs)))[1]
    xs = [math.ldexp(x, shift) for x in xs]
    for m in range(1, len(xs)):
        for i in range(len(xs) - m):
            slope = (vals[i] - vals[i + 1]) / (xs[i] - xs[i + m])
            vals[i] = vals[i + 1] - slope * xs[i + m]
    return vals[0]


def _evaluate(ln_s, xs, rows):
    """One CheckResult per row (name, target, ys, tolerance, floor), as it
    is taken: that ys tends to target as xs tends to 0. The estimate is ys
    extrapolated to x = 0, its error is taken relative to max(|target|,
    floor), and the order of ys - target is fitted against the sweep
    variable s, given as ln s."""
    for name, target, ys, tolerance, floor in rows:
        estimate = _neville_at_zero(xs, ys)
        try:
            order = _order_in_log(ln_s, ys - target)
        except DegenerateFit:
            order = math.nan
        yield CheckResult(name, target, estimate,
                          _rel(estimate, target, floor), order, tolerance)


def _large_d_laws(params: nc.ProblemParams, c1: float, cq: float):
    """The large-d window's rows in table order, theorem 1's at p != 3
    then the three local rows, from one read of six states at ln t in
    [4, 6] below p = 8 and [8, 10] from there.

    Theorem 1, at p != 3: lambda = alpha^{p-1}(1 + C1 sqrt(a1+a2)
    alpha^{-(p-3)/2} + O(alpha^{-(p-3)})), alpha -> infinity for p > 3
    (the paper's theorem 1), alpha -> 0 for 1 < p < 3; on the window
    lambda/alpha^{p-1} = gamma/d^{p-1}, x = N^{-1/2} d^{-(p-3)/2}.
    The local laws, with x = d^{-(p-1)/2}: the eigenvalue shift C1, the
    q-norm relation residual and the D(d) coefficient (2/(p-1)) C1
    - (2/q) Cq. The residual falls like e^{-2t} and is taken at the last
    t; at t >= 54 it is at rounding level (at most 7.8e-15 for p in
    [1.05, 300], q in [1.1, 8]), so its fitted_order is nan, as for
    theorem 2's exact law: a fit would fit the rounding.
    """
    p, q = params.p, params.q
    ln_k, ln_g, ln_dk, ln_wqk, ln_d, ln_n = _window(
        _large_d_ts(p), (0, 1, 2, 3, 8, 9), params)
    excess = np.expm1(ln_g - (p - 1.0) * ln_d)
    if params.regime != "critical":
        xs = np.exp(-0.5 * (ln_n + (p - 3.0) * ln_d))
        yield from _evaluate(ln_n / (p - 3.0) + ln_d, xs, [
            ("theorem_1_leading", c1 * math.sqrt(params.a1 + params.a2),
             excess / xs, 0.02, 0.0)])
    xs = np.exp(-0.5 * (p - 1.0) * ln_d)
    shift, dcoef = _evaluate(ln_d, xs, [
        ("large_d_gamma_shift", c1, excess / xs, 0.01, 0.0),
        ("large_d_D_coefficient", (2.0 / (p - 1.0)) * c1 - (2.0 / q) * cq,
         np.expm1(2.0 * (ln_wqk - ln_dk)) / xs, 0.02, cq)])
    ln_wq = ln_k[-1] + ln_wqk[-1]
    resid = float(np.expm1((p - 1.0) * ln_wq - ln_g[-1] - (p - 1.0) / q
                           * np.log1p(-cq * np.exp(-0.5 * ln_g[-1]))))
    yield from (shift, CheckResult("large_d_qnorm_relation", 0.0, resid,
                                   abs(resid), math.nan, 1e-6), dcoef)


def _small_d_laws(params: nc.ProblemParams, cs: consts.ConstantSet):
    """The small-d window's rows in table order, theorem 3's two at p != 3
    then the three local rows, from one read of six states at t in
    [1e-4, 1e-2]; cs is at params' (p, q, a1, a2).

    Theorem 3, at p != 3: lambda = L0 alpha^2 (1 + S alpha^{p-3} + o),
    alpha -> infinity for 1 < p < 3 (the paper's theorem 3), alpha -> 0
    for p > 3; on the window lambda/alpha^2 = N gamma/d^2, x = alpha^{p-3}
    = N d^{p-3}, and S is the limit of (lambda/(L0 alpha^2) - 1)/x.
    The local laws, with x = d^{p-1}: A3, A4 and (2/q) A2/A1. A4 is taken
    at q = 2 whatever q, through constants._amplitude_a4 as E2 takes it:
    the amplitude ratio k^2/(2 d^2) involves the L2 norm alone.
    """
    p, q = params.p, params.q
    ln_g, ln_dk, ln_wqk, ln_d, ln_n = _window(
        _SMALL_D_TS, (1, 2, 3, 8, 9), params)
    if params.regime != "critical":
        xs = np.exp(ln_n + (p - 3.0) * ln_d)
        ys = np.exp(ln_n + ln_g - 2.0 * ln_d)
        yield from _evaluate(ln_n / (p - 3.0) + ln_d, xs, [
            ("theorem_3_leading", cs.leading_coeff, ys, 0.005, 0.0),
            ("theorem_3_second", cs.second_coeff,
             (ys / cs.leading_coeff - 1.0) / xs, 0.05, 0.0)])
    xs = np.exp((p - 1.0) * ln_d)
    yield from _evaluate(ln_d, xs, [
        ("small_d_gamma_shift", cs.A3,
         math.pi * np.expm1(0.5 * ln_g - math.log(math.pi)) / xs, 0.01, 0.0),
        ("small_d_amplitude", consts._amplitude_a4(p, q, vars(cs)),
         np.expm1(-2.0 * ln_dk - math.log(2.0)) / xs, 0.02, 0.0),
        ("small_d_qnorm", (2.0 / q) * (cs.A2 / cs.A1),
         np.expm1(2.0 * ln_wqk + ln_g / q
                  - (2.0 / q) * math.log(2.0 * cs.A1)) / xs, 0.02, 0.0)])


def check_laws(report: SweepReport) -> list[CheckResult]:
    """Every law row at report.params, each window read once and the
    targets from one compute_all: theorem 1's and theorem 3's two at
    p != 3, theorem 2's two at p = 3, then the large-d and the small-d
    local rows."""
    params = report.params
    cs = consts.compute_all(params.p, params.q, params.a1, params.a2)
    large = _large_d_laws(params, cs.C1, cs.Cq)
    small = _small_d_laws(params, cs)
    theorems = (check_theorem_2(report) if params.regime == "critical"
                else (next(large), next(small), next(small)))
    return [*theorems, *large, *small]


def check_theorem_1(report: SweepReport) -> CheckResult:
    """The first row of _large_d_laws, theorem 1's, from report.params
    alone; InvalidRegime at p = 3."""
    params = report.params
    p = params.p
    if params.regime == "critical":
        raise InvalidRegime(f"theorem 1 needs p != 3, got p = {p}")
    return next(_large_d_laws(params, consts.compute_C1(p),
                              consts.compute_Cq(p, params.q)))


def check_theorem_2(report: SweepReport) -> tuple[CheckResult, CheckResult]:
    """Critical exact law lambda(alpha) = (gamma(d1)/d1^2) alpha^2 at
    p = 3; InvalidRegime at p != 3, InvalidBracket if no row solved."""
    params = report.params
    if params.regime != "critical":
        raise InvalidRegime(f"critical law needs p = 3, got p = {params.p}")
    rows = sorted((row["alpha"], sol.lam) for row, sol in
                  zip(report.rows, report.solutions) if sol is not None)
    if not rows:
        if report.rows:
            row = report.rows[0]
            raise InvalidBracket(f"no alpha of the sweep solved; alpha = "
                                 f"{row['alpha']!r} gave {row['error']}")
        raise ValueError("report contains no rows")
    alphas, lams = np.array(rows).T
    ratios = lams / alphas ** 2
    mean = float(np.mean(ratios))
    spread = float((ratios.max() - ratios.min()) / mean)
    constancy = CheckResult("theorem_2_constancy", 0.0, spread, spread,
                            math.nan, 1e-10)
    # Reference value straight from the normalization point (3.1), not from
    # the sweep itself.
    d1_sol = nc.solve_alpha(1.0, params)
    target = d1_sol.local.gamma / d1_sol.local.d ** 2
    ratio_check = CheckResult("theorem_2_ratio", target, mean,
                              _rel(mean, target), math.nan, 1e-10)
    return constancy, ratio_check


def check_theorem_3(report: SweepReport,
                    constants_paper: consts.ConstantSet,
                    constants_variant: consts.ConstantSet):
    """The first two rows of _small_d_laws, theorem 3's, from report.params
    alone; InvalidRegime at p = 3, ValueError for a ConstantSet built at
    another (p, q, a1, a2) than report.params.

    It checks constants_variant's coefficients. Where constants_paper has
    another E3 reading (perfbench/workloads.py passes paper_definition's),
    that set's leading mismatch rides along in other_rel_error. Returns
    (leading check, second-order check, constants_variant's reading).
    """
    params = report.params
    p = params.p
    if params.regime == "critical":
        raise InvalidRegime(f"theorem 3 needs p != 3, got p = {p}")
    key = (p, params.q, params.a1, params.a2)
    for cs in (constants_paper, constants_variant):
        if (cs.p, cs.q, cs.a1, cs.a2) != key:
            raise ValueError(f"ConstantSet at (p, q, a1, a2) = "
                             f"{(cs.p, cs.q, cs.a1, cs.a2)}, report at {key}")
    cs = constants_variant
    rows = _small_d_laws(params, cs)
    leading, second = next(rows), next(rows)
    if constants_paper.e3_reading != cs.e3_reading:
        leading = replace(leading, other_rel_error=_rel(
            leading.estimate, constants_paper.leading_coeff))
    return leading, second, cs.e3_reading
