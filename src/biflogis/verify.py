"""Numerical verification of every asymptotic law the curve satisfies.

Each check sweeps the solver over a grid, extracts a limiting coefficient by
two-point Richardson extrapolation, fits the remainder order on a log-log
grid, and compares against the closed-form target from the constants module.
The extrapolation uses the last two grid points, so every caller orders its
grid toward the limit: alpha and large d increasing, small d decreasing.
Targets are never hard-coded here; they are recomputed per call so a constants
bug cannot hide behind a stale number.

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
                     WrongRegime)
from .quadrature import ABS_TOL, GAUSS_LEGENDRE, MAX_REFINEMENTS, REL_TOL

__all__ = [
    "CheckResult",
    "SweepReport",
    "sweep",
    "estimate_order",
    "extrapolate_limit",
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
    """Solve the curve on an alpha grid; row failures are recorded, not raised."""
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
        except (BiflogisError, ValueError, OverflowError) as exc:
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
    rs = np.asarray(list(rs), dtype=float)
    if xs.shape != rs.shape:
        raise ValueError("xs and rs must have equal length")
    keep = (rs != 0.0) & np.isfinite(rs) & np.isfinite(xs) & (xs > 0.0)
    xs, rs = xs[keep], rs[keep]
    if len(xs) < 2 or len(np.unique(xs)) < 2:
        raise DegenerateFit(
            f"need >= 2 distinct x with nonzero remainders, kept {len(xs)}")
    slope = np.polyfit(np.log(xs), np.log(np.abs(rs)), 1)[0]
    return float(slope)


def _order_or_nan(xs, rs) -> float:
    try:
        return estimate_order(xs, rs)
    except DegenerateFit:
        return math.nan


def extrapolate_limit(xs, ys, order: float) -> float:
    """Two-point Richardson limit of y = L + c x^{-order} from the last two
    grid points; the caller orders the grid toward the limit (x to zero
    takes a decreasing grid and a negative order)."""
    xs = np.asarray(list(xs), dtype=float)
    ys = np.asarray(list(ys), dtype=float)
    if len(xs) < 2:
        raise DegenerateFit("need >= 2 points to extrapolate")
    pa, pb = xs[-2] ** (-order), xs[-1] ** (-order)
    if pa == pb:
        raise DegenerateFit("identical extrapolation abscissae")
    c = (ys[-2] - ys[-1]) / (pa - pb)
    return float(ys[-1] - c * pb)


def _limit_check(name: str, target: float, xs, ys, order: float,
                 tolerance: float, floor: float = 0.0) -> CheckResult:
    """The check that ys tends to target, with the fitted order of
    ys - target."""
    estimate = extrapolate_limit(xs, ys, order)
    return CheckResult(name, target, estimate,
                       _rel(estimate, target, floor),
                       _order_or_nan(xs, ys - target), tolerance)


def _valid_rows(report: SweepReport):
    """Alphas and lambdas of the solved rows, in increasing alpha."""
    rows = sorted((row["alpha"], sol.lam) for row, sol in
                  zip(report.rows, report.solutions) if sol is not None)
    if not rows:
        raise ValueError("report contains no valid rows")
    return np.array(rows).T


def check_theorem_1(report: SweepReport) -> CheckResult:
    """Supercritical growth law lambda = alpha^{p-1}(1 + C1 sqrt(a1+a2)
    alpha^{-(p-3)/2} + O(alpha^{-(p-3)}))."""
    params = report.params
    p = params.p
    if params.regime != "supercritical":
        raise WrongRegime(f"supercritical law needs p > 3, got p = {p}")
    alphas, lams = _valid_rows(report)
    if len(alphas) < 4 or alphas[-1] / alphas[0] < 10.0:
        raise ValueError("need >= 4 points spanning at least a decade")
    resid = lams / alphas ** (p - 1.0) - 1.0
    ys = resid * alphas ** ((p - 3.0) / 2.0)
    estimate = extrapolate_limit(alphas, ys, (p - 3.0) / 2.0)
    c1 = consts.compute_C1(p)
    target = c1 * math.sqrt(params.a1 + params.a2)
    return CheckResult("theorem_1_leading", target, estimate,
                       _rel(estimate, target),
                       _order_or_nan(alphas, resid), 0.02)


def check_theorem_2(report: SweepReport) -> tuple[CheckResult, CheckResult]:
    """Critical exact law lambda(alpha) = (gamma(d1)/d1^2) alpha^2."""
    params = report.params
    if params.regime != "critical":
        raise WrongRegime(f"critical law needs p = 3, got p = {params.p}")
    alphas, lams = _valid_rows(report)
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
    """Subcritical law lambda = L0 alpha^2 (1 + S alpha^{p-3} + o).

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
    if params.regime != "subcritical":
        raise WrongRegime(f"subcritical law needs 1 < p < 3, got p = {p}")
    alphas, lams = _valid_rows(report)
    if len(alphas) < 3 or alphas[-1] / alphas[0] < 100.0:
        raise ValueError("need >= 3 points spanning at least two decades")
    ys = lams / alphas ** 2
    estimate = extrapolate_limit(alphas, ys, 3.0 - p)

    tol_leading = 0.005
    cands = {}
    for cs in (constants_paper, constants_variant):
        if cs.leading_coeff is None:
            raise ValueError(f"ConstantSet for reading {cs.e3_reading!r} "
                             "carries no subcritical coefficients")
        cands[cs.e3_reading] = (cs, _rel(estimate, cs.leading_coeff))
    passing = [r for r, (_, e) in cands.items() if e <= tol_leading]
    if not passing and len(cands) > 1:
        raise AmbiguousReading(
            "neither E3 reading matches the computed curve: "
            + ", ".join(f"{r}: rel_error = {e:.3e}"
                        for r, (_, e) in cands.items()))
    # Both passing cannot genuinely happen (the readings differ by pi powers);
    # if tolerances ever let both through, prefer the closer one. The
    # single-set call leaves no losing reading to report.
    chosen = min(passing or cands, key=lambda r: cands[r][1])
    others = [r for r in cands if r != chosen]
    cs, rel_lead = cands[chosen]
    lam0 = cs.leading_coeff

    remainder = ys / lam0 - 1.0
    order = _order_or_nan(alphas, remainder)
    leading = CheckResult("theorem_3_leading", lam0, estimate, rel_lead,
                          order, tol_leading,
                          other_rel_error=cands[others[0]][1]
                          if others else None)

    y2 = remainder * alphas ** (3.0 - p)
    est2 = extrapolate_limit(alphas, y2, 3.0 - p)
    target2 = cs.second_coeff
    second = CheckResult("theorem_3_second", target2, est2,
                         _rel(est2, target2), order, 0.05)
    return leading, second, chosen


def _local_states(p: float, q: float, ds):
    """Arrays d, gamma, k and ||w||_q of the local solutions at ds."""
    lp = ll.LocalParams(p=p)
    points = [ll.solve_for_d(d, lp) for d in ds]
    return (np.array([pt.d for pt in points]),
            np.array([pt.gamma for pt in points]),
            np.array([pt.k for pt in points]),
            np.array([ll.point_q_norm(pt, q, lp) for pt in points]))


def check_local_large_d(p: float, q: float, d_grid) -> list[CheckResult]:
    """Large-d laws: eigenvalue shift C1, the q-norm relation residual, and
    the D(d) coefficient (2/(p-1)) C1 - (2/q) Cq."""
    if p <= 3.0:
        raise WrongRegime(f"large-d checks need p > 3, got p = {p}")
    ds = [float(d) for d in d_grid]
    if len(ds) < 2 or any(b <= a for a, b in zip(ds, ds[1:])):
        raise ValueError("d_grid must be increasing with >= 2 points")
    if max(ds) < 1e3:
        raise ValueError("d_grid must reach 1e3")
    dd, gammas, _, wqs = _local_states(p, q, ds)
    c1 = consts.compute_C1(p)
    cq = consts.compute_Cq(p, q)
    order = (p - 1.0) / 2.0

    y1 = (gammas - dd ** (p - 1.0)) / dd ** order
    shift = _limit_check("large_d_gamma_shift", c1, dd, y1, order, 0.01)

    model = gammas * (1.0 - cq / np.sqrt(gammas)) ** ((p - 1.0) / q)
    resid = wqs ** (p - 1.0) / model - 1.0
    est2 = float(resid[-1])
    relation = CheckResult("large_d_qnorm_relation", 0.0, est2, abs(est2),
                           _order_or_nan(dd, resid), 1e-6)

    y3 = (wqs ** 2 / dd ** 2 - 1.0) * dd ** order
    target3 = (2.0 / (p - 1.0)) * c1 - (2.0 / q) * cq
    dcoef = _limit_check("large_d_D_coefficient", target3, dd, y3, order,
                         0.02, floor=cq)
    return [shift, relation, dcoef]


def check_local_small_d(p: float, q: float, d_grid) -> list[CheckResult]:
    """Small-d laws: the A3, A4, and (2/q) A2/A1 expansion coefficients.

    The A4 target is evaluated at q = 2 regardless of the sweep's q: the
    amplitude ratio k^2/(2 d^2) does not involve q, and its derivation pins
    the norm exponent to 2.
    """
    ds = [float(d) for d in d_grid]
    if len(ds) < 2 or any(b >= a for a, b in zip(ds, ds[1:])):
        raise ValueError("d_grid must be decreasing with >= 2 points")
    if min(ds) > 1e-3:
        raise ValueError("d_grid must reach down to 1e-3")
    dd, gammas, ks, wqs = _local_states(p, q, ds)
    dp = dd ** (p - 1.0)
    order = 1.0 - p

    A = consts.compute_A(p, q)
    a4 = consts.compute_A(p, 2.0)["A4"]
    t32 = (2.0 / q) * (A["A2"] / A["A1"])

    y1 = (np.sqrt(gammas) - math.pi) / dp
    y2 = (ks ** 2 / (2.0 * dd ** 2) - 1.0) / dp
    y3 = (wqs ** 2 * gammas ** (1.0 / q)
          / ((2.0 * A["A1"]) ** (2.0 / q) * ks ** 2) - 1.0) / dp
    return [_limit_check("small_d_gamma_shift", A["A3"], dd, y1, order, 0.01),
            _limit_check("small_d_amplitude", a4, dd, y2, order, 0.02),
            _limit_check("small_d_qnorm", t32, dd, y3, order, 0.02)]
