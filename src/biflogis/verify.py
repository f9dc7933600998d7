"""Numerical verification of every asymptotic law the curve satisfies.

Each check reads a coefficient y that tends to its limit as x -> 0,
extrapolates it to x = 0 by Neville's scheme (Sidi, Practical Extrapolation
Methods, CUP 2003), fits the remainder order against the log of the sweep
variable, and compares against the closed-form target from the constants
module. Every check but theorem 2's reads six points on one of two fixed
windows of the layer coordinate t, with no root-find: the local checks the
local problem's log state, theorems 1 and 3 the curve's (ln N as well), with
x = alpha^{-(p-3)/2} or alpha^{p-3} formed from the state and alpha never
formed. Theorem 2's law is exact and is read on the rows of an alpha sweep.
Targets are never hard-coded here; they are recomputed per call so a
constants bug cannot hide behind a stale number.

rel_error convention: |estimate - target| / |target| when the target is away
from zero; checks whose target is exactly zero (identities, residuals) report
the absolute defect against a stated scale instead. pass ⟺ rel_error ≤
tolerance always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as consts
from . import local_logistic as ll
from . import nonlocal_curve as nc
from .errors import (AmbiguousReading, BiflogisError, DegenerateFit,
                     InvalidRegime)
from .quadrature import ABS_TOL, GAUSS_LEGENDRE, MAX_REFINEMENTS, REL_TOL

__all__ = [
    "CheckResult",
    "SweepReport",
    "sweep",
    "estimate_order",
    "check_theorem_1",
    "check_theorem_2",
    "check_theorem_3",
    "check_local_large_d",
    "check_local_small_d",
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
    # check_theorem_3's losing E3 reading; perfbench/workloads.py reads it.
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


def estimate_order(xs, rs) -> float:
    """Least-squares slope of log|r| against log x.

    Zero remainders are dropped (they carry no order information); two
    surviving points degrade gracefully to the log-ratio formula, which is
    what the least-squares fit reduces to there.
    """
    xs = np.asarray(list(xs), dtype=float)
    return _order_in_log(np.log(np.where(xs > 0.0, xs, np.nan)), rs)


def _order_in_log(ln_xs, rs) -> float:
    """estimate_order with log x given, so x itself is never formed; the
    slope in closed form, sum(dx dy)/sum(dx^2) with dx centred."""
    ln_xs = np.asarray(ln_xs, dtype=float)
    rs = np.asarray(list(rs), dtype=float)
    if ln_xs.shape != rs.shape:
        raise ValueError("xs and rs must have equal length")
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
    xs = [float(x) for x in xs]
    vals = [float(y) for y in ys]
    if len(xs) < 2 or len(set(xs)) < len(xs):
        raise DegenerateFit("need >= 2 distinct abscissae to extrapolate")
    shift = -math.frexp(max(map(abs, xs)))[1]
    xs = [math.ldexp(x, shift) for x in xs]
    for m in range(1, len(xs)):
        for i in range(len(xs) - m):
            slope = (vals[i] - vals[i + 1]) / (xs[i] - xs[i + m])
            vals[i] = vals[i + 1] - slope * xs[i + m]
    return vals[0]


def _limit_check(name: str, target: float, ln_s, xs, ys, tolerance: float,
                 floor: float = 0.0, other_rel_error: float | None = None,
                 estimate: float | None = None) -> CheckResult:
    """The check that ys tends to target as xs tends to 0, with the order of
    ys - target fitted against the sweep variable s, given as ln s. A caller
    that has already extrapolated (xs, ys) passes that estimate."""
    if estimate is None:
        estimate = _neville_at_zero(xs, ys)
    try:
        order = _order_in_log(ln_s, ys - target)
    except DegenerateFit:
        order = math.nan
    return CheckResult(name, target, estimate, _rel(estimate, target, floor),
                       order, tolerance, other_rel_error)


def _curve_log_states(ts, params: nc.ProblemParams) -> np.ndarray:
    """Rows ln gamma, ln d and ln N of the curve at the layer coordinates
    ts. There alpha = h d and h^{p-3} = N, so ln alpha = ln N/(p-3) + ln d."""
    return np.array([(s[1], s[2], ln_n) for s, ln_n, _ in
                     (nc._state_at_t(t, params) for t in ts)]).T


def check_theorem_1(report: SweepReport) -> CheckResult:
    """Large-d growth law lambda = alpha^{p-1}(1 + C1 sqrt(a1+a2)
    alpha^{-(p-3)/2} + O(alpha^{-(p-3)})): alpha -> infinity for p > 3 (the
    paper's theorem 1), alpha -> 0 for 1 < p < 3; InvalidRegime at p = 3.

    Read on the large-d window, ln t in [4, 6] below p = 8 and [8, 10]
    from there (six points), where
    lambda/alpha^{p-1} = gamma/d^{p-1} and x = alpha^{-(p-3)/2}
    = N^{-1/2} d^{-(p-3)/2}; only report.params is read.
    """
    params = report.params
    p = params.p
    if params.regime == "critical":
        raise InvalidRegime(f"theorem 1 needs p != 3, got p = {p}")
    ln_g, ln_d, ln_n = _curve_log_states(_large_d_ts(p), params)
    xs = np.exp(-0.5 * (ln_n + (p - 3.0) * ln_d))
    ys = np.expm1(ln_g - (p - 1.0) * ln_d) / xs
    target = consts.compute_C1(p) * math.sqrt(params.a1 + params.a2)
    return _limit_check("theorem_1_leading", target, ln_n / (p - 3.0) + ln_d,
                        xs, ys, 0.02)


def check_theorem_2(report: SweepReport) -> tuple[CheckResult, CheckResult]:
    """Critical exact law lambda(alpha) = (gamma(d1)/d1^2) alpha^2 at
    p = 3; InvalidRegime at p != 3."""
    params = report.params
    if params.regime != "critical":
        raise InvalidRegime(f"critical law needs p = 3, got p = {params.p}")
    rows = sorted((row["alpha"], sol.lam) for row, sol in
                  zip(report.rows, report.solutions) if sol is not None)
    if not rows:
        raise ValueError("report contains no valid rows")
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
    """Small-d law lambda = L0 alpha^2 (1 + S alpha^{p-3} + o): alpha ->
    infinity for 1 < p < 3 (the paper's theorem 3), alpha -> 0 for p > 3;
    InvalidRegime at p = 3, ValueError for a ConstantSet built at another
    (p, q, a1, a2) than report.params.

    Read on the small-d window, t in [1e-4, 1e-2] (six points), where
    lambda/alpha^2 = N gamma/d^2 and x = alpha^{p-3} = N d^{p-3}; S is the
    limit of (lambda/(L0 alpha^2) - 1)/x. Only report.params is read.

    Called with one ConstantSet twice, check_theorem_3(report, cs, cs), it
    checks that set's coefficients. Two sets of different E3 readings are
    arbitrated, as perfbench/workloads.py's check_theorem_3(report, paper,
    variant) needs: the closer passing one is chosen, the other's leading
    mismatch rides along in other_rel_error, and AmbiguousReading is raised
    if neither matches. Returns (leading check, second-order check, chosen
    reading).
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
    ln_g, ln_d, ln_n = _curve_log_states(_SMALL_D_TS, params)
    ln_alpha = ln_n / (p - 3.0) + ln_d
    xs = np.exp(ln_n + (p - 3.0) * ln_d)
    ys = np.exp(ln_n + ln_g - 2.0 * ln_d)

    estimate = _neville_at_zero(xs, ys)
    cands = {cs.e3_reading: (cs, _rel(estimate, cs.leading_coeff))
             for cs in (constants_paper, constants_variant)}
    passing = [r for r, (_, e) in cands.items() if e <= 0.005]
    if not passing and len(cands) > 1:
        raise AmbiguousReading(
            "neither E3 reading matches the computed curve: "
            + ", ".join(f"{r}: rel_error = {e:.3e}"
                        for r, (_, e) in cands.items()))
    # Both passing cannot genuinely happen (the readings differ by pi powers);
    # if tolerances ever let both through, prefer the closer one. The
    # single-set call leaves no losing reading to report.
    chosen = min(passing or cands, key=lambda r: cands[r][1])
    other = next((e for r, (_, e) in cands.items() if r != chosen), None)
    cs = cands[chosen][0]
    leading = _limit_check("theorem_3_leading", cs.leading_coeff, ln_alpha,
                           xs, ys, 0.005, other_rel_error=other,
                           estimate=estimate)
    second = _limit_check("theorem_3_second", cs.second_coeff, ln_alpha, xs,
                          (ys / cs.leading_coeff - 1.0) / xs, 0.05)
    return leading, second, chosen


def _local_log_states(ts, p: float, q: float) -> np.ndarray:
    """Rows ln k, ln gamma, ln d and ln ||w||_q of the local solutions at
    the layer coordinates ts."""
    return np.array([ll._log_state_at_t(t, p, q)[:4] for t in ts]).T


def check_local_large_d(p: float, q: float) -> list[CheckResult]:
    """Large-d laws, for every p: eigenvalue shift C1, the q-norm relation
    residual, and the D(d) coefficient (2/(p-1)) C1 - (2/q) Cq.

    Read on the large-d window, ln t in [4, 6] below p = 8 and [8, 10]
    from there (six points), with x = d^{-(p-1)/2}; the relation residual,
    which falls like e^{-2t}, is taken at the window's last t. Its
    fitted_order is nan, as for theorem 2's exact law: with t >= 54 on
    either window the residual is at rounding level (at most 7.8e-15 for p
    in [1.05, 300], q in [1.1, 8]), and a fit of it would fit the
    rounding.
    p and q outside compute_A's domain raise ValueError before any
    calibration runs.
    """
    consts._check_pq(p, q)
    _, ln_g, ln_d, ln_wq = _local_log_states(_large_d_ts(p), p, q)
    xs = np.exp(-0.5 * (p - 1.0) * ln_d)
    c1 = consts.compute_C1(p)
    cq = consts.compute_Cq(p, q)

    y1 = np.expm1(ln_g - (p - 1.0) * ln_d) / xs
    shift = _limit_check("large_d_gamma_shift", c1, ln_d, xs, y1, 0.01)

    resid = np.expm1((p - 1.0) * ln_wq - ln_g - (p - 1.0) / q
                     * np.log1p(-cq * np.exp(-0.5 * ln_g)))
    est2 = float(resid[-1])
    relation = CheckResult("large_d_qnorm_relation", 0.0, est2, abs(est2),
                           math.nan, 1e-6)

    y3 = np.expm1(2.0 * (ln_wq - ln_d)) / xs
    target3 = (2.0 / (p - 1.0)) * c1 - (2.0 / q) * cq
    dcoef = _limit_check("large_d_D_coefficient", target3, ln_d, xs, y3, 0.02,
                         floor=cq)
    return [shift, relation, dcoef]


def check_local_small_d(p: float, q: float) -> list[CheckResult]:
    """Small-d laws: the A3, A4, and (2/q) A2/A1 expansion coefficients.

    Read on t in [1e-4, 1e-2] (six points), with x = d^{p-1}. The A4 target
    is A4 at q = 2 whatever the check's q, read through
    constants._amplitude_a4 as E2 reads it: the amplitude ratio
    k^2/(2 d^2) involves the L2 norm alone. p and q outside compute_A's
    domain raise ValueError before any calibration runs.
    """
    consts._check_pq(p, q)
    ln_k, ln_g, ln_d, ln_wq = _local_log_states(_SMALL_D_TS, p, q)
    xs = np.exp((p - 1.0) * ln_d)

    A = consts.compute_A(p, q)
    a4 = consts._amplitude_a4(p, q, A)
    t32 = (2.0 / q) * (A["A2"] / A["A1"])

    y1 = math.pi * np.expm1(0.5 * ln_g - math.log(math.pi)) / xs
    y2 = np.expm1(2.0 * (ln_k - ln_d) - math.log(2.0)) / xs
    y3 = np.expm1(2.0 * (ln_wq - ln_k) + ln_g / q
                  - (2.0 / q) * math.log(2.0 * A["A1"])) / xs
    return [_limit_check("small_d_gamma_shift", A["A3"], ln_d, xs, y1, 0.01),
            _limit_check("small_d_amplitude", a4, ln_d, xs, y2, 0.02),
            _limit_check("small_d_qnorm", t32, ln_d, xs, y3, 0.02)]
