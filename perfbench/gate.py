"""Correctness gate: the acceptance criteria's checks, applied to every output.

Each function returns a list of failure messages; an empty list means the
output passed. Tolerances are the ones the acceptance tests state.
"""

from __future__ import annotations

import ast
import math
import re
from pathlib import Path

from biflogis import nonlocal_curve as nc

RESIDUAL_TOL = 1e-6      # residual_check(sol, 64), criterion 11
ALPHA_TOL = 1e-10        # alpha = h d
LAMBDA_TOL = 1e-12       # lambda = beta gamma
BETA_TOL = 1e-10         # beta = h^(p-1) off the critical branch
ROUTE_TOL = 1e-6         # time map vs shooting on k, d, ||w||_4, criterion 4
DRIFT_TOL = 1e-8         # RK4 energy drift, criterion 4
FROZEN_TOL = 1e-12       # local points vs the frozen mpmath values
BETA_ID_TOL = 1e-10      # A1 against its Beta-function form, criterion 1
PROFILE_TOL = 1e-10      # x(k) = 1/2 on a sampled profile


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _over(label: str, value: float, tol: float) -> list[str]:
    # "not <=" also rejects NaN
    return [] if value <= tol else [f"{label} = {value:.3e} > {tol:g}"]


def solution(sol: nc.NonlocalSolution, alpha: float,
             params: nc.ProblemParams) -> list[str]:
    """The defining invariants and ODE defect of one curve point."""
    out = []
    if sol.alpha != alpha:
        out.append(f"returned alpha {sol.alpha!r} for requested {alpha!r}")
    if sol.regime != params.regime:
        out.append(f"regime {sol.regime} for p = {params.p}")
    out += _over("residual_check", nc.residual_check(sol, 64, params), RESIDUAL_TOL)
    out += _over("alpha vs h d", rel(alpha, sol.h * sol.local.d), ALPHA_TOL)
    out += _over("lambda vs beta gamma", rel(sol.lam, sol.beta * sol.local.gamma), LAMBDA_TOL)
    if params.regime != "critical":
        out += _over("beta vs h^(p-1)", rel(sol.beta, sol.h ** (params.p - 1.0)), BETA_TOL)
    return out


def constants_pair(paper, variant) -> list[str]:
    """compute_all under both E3 readings: A1 against the Beta form, every
    value finite, and the reading-independent constants identical."""
    out = []
    q = variant.q
    beta_form = math.sqrt(math.pi) * math.gamma((q + 1.0) / 2.0) \
        / (2.0 * math.gamma(q / 2.0 + 1.0))
    out += _over("A1 vs Beta form", rel(variant.A1, beta_form), BETA_ID_TOL)
    for cs in (paper, variant):
        for key, val in cs.to_record().items():
            if isinstance(val, float) and not math.isfinite(val):
                out.append(f"{cs.e3_reading} {key} = {val}")
    for key in ("C1", "Cq", "A1", "A2", "A3", "A4", "A5", "A6", "E1", "E2", "E4"):
        if getattr(paper, key) != getattr(variant, key):
            out.append(f"{key} differs between E3 readings")
    return out


def check(result, **require) -> list[str]:
    """A verify CheckResult must pass; ``require`` adds bounds on its fields,
    e.g. ``fitted_order=(-1.05, -0.95)``."""
    out = [] if result.passed else [
        f"{result.name}: rel_error {result.rel_error:.3e} > {result.tolerance:g}"]
    for field, (lo, hi) in require.items():
        val = getattr(result, field)
        if not (lo <= val <= hi):
            out.append(f"{result.name}: {field} = {val} outside [{lo}, {hi}]")
    return out


def profile(prof, point, n: int) -> list[str]:
    """Anchors, symmetry point and ordering of a sampled profile."""
    out = []
    mid = n - 1
    if len(prof) != 2 * n - 1:
        out.append(f"profile has {len(prof)} nodes, expected {2 * n - 1}")
        return out
    if prof.xs[0] != 0.0 or prof.ws[0] != 0.0:
        out.append("profile does not start at (0, 0)")
    out += _over("profile |x(k) - 1/2|", abs(prof.xs[mid] - 0.5), PROFILE_TOL)
    out += _over("profile |w(1/2) - k|/k", abs(prof.ws[mid] - point.k) / point.k, FROZEN_TOL)
    if any(b < a for a, b in zip(prof.xs, prof.xs[1:])):
        out.append("profile abscissae not increasing")
    return out


def crosscheck(p: float, ref, w4_ref: float, point, w4: float, drift: float) -> list[str]:
    """Time map against shooting at one (p, gamma)."""
    worst = max(rel(point.k, ref.k), rel(point.d, ref.d), rel(w4, w4_ref))
    return _over(f"route disagreement at p = {p}", worst, ROUTE_TOL) \
        + _over(f"energy drift at p = {p}", drift, DRIFT_TOL)


_KEY = re.compile(r"^(\w+)\[p=([^,\]]+),(k|gamma|d)=([^,\]]+)\]$")


def frozen_local_keys(path: Path) -> list[tuple[str, str, float, float, float]]:
    """Local-point entries of the frozen oracle table, parsed without
    importing it: (quantity, given, p, given value, reference value)."""
    tree = ast.parse(path.read_text())
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "ORACLE" for t in node.targets))
    out = []
    for key, ref in table.items():
        m = _KEY.match(key)
        if m and m.group(1) in ("k", "d", "gamma", "eps", "w4"):
            out.append((m.group(1), m.group(3), float(m.group(2)),
                        float(m.group(4)), ref))
    return out


def frozen(values: list[tuple[str, float, float]]) -> list[str]:
    """(key, computed, reference) triples against the frozen table."""
    out = []
    for key, got, ref in values:
        out += _over(key, rel(got, ref), FROZEN_TOL)
    return out
