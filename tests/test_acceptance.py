"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Each test prints a single summary line (visible with -s or on failure) and
enforces its runtime budget. Sweeps are cached at module level so the defect
criterion at the bottom re-checks the exact rows the curve criteria produced.

Criterion 3 checks bifurcation from pi^2 against the branch
sqrt(gamma) = pi + A3 d^{p-1}, not against bare pi^2: at p = 2 the exact
gamma(k = 1e-6) lies 8.6e-8 (relative) above pi^2, so "within 1e-8 of
pi^2" is false there for the exact solution. Its target uses only pi, k and
frozen mpmath values, never the package's own constants.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from _oracle_values import ORACLE
from biflogis import constants as consts
from biflogis import local_logistic as ll
from biflogis import oracle
from biflogis.cli import main
from biflogis.nonlocal_curve import ProblemParams, residual_check
from biflogis.verify import (SweepReport, check_laws, check_theorem_1,
                             check_theorem_2, check_theorem_3, sweep)

PI = math.pi

SUPER_WEIGHTS = ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))
SUB_WEIGHTS = ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0))


def rel(a, b):
    return abs(a - b) / abs(b)


class Budget:
    """Context manager asserting the block stays inside its time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.seconds}s")
        return False


@functools.lru_cache(maxsize=None)
def super_sweeps():
    out = {}
    for a1, a2 in SUPER_WEIGHTS:
        params = ProblemParams(p=5.0, q=2.0, a1=a1, a2=a2)
        out[(a1, a2)] = sweep(params, list(np.geomspace(1e3, 1e5, 5)))
    return out


@functools.lru_cache(maxsize=None)
def critical_sweep():
    params = ProblemParams(p=3.0, q=2.0, a1=0.5, a2=0.5)
    return sweep(params, [1.0, 10.0, 100.0, 1000.0])


@functools.lru_cache(maxsize=None)
def sub_sweeps():
    out = {}
    for a1, a2 in SUB_WEIGHTS:
        params = ProblemParams(p=2.0, q=2.0, a1=a1, a2=a2)
        out[(a1, a2)] = sweep(params, list(np.geomspace(1e2, 1e4, 5)))
    return out


@functools.lru_cache(maxsize=None)
def sub_readings():
    out = {}
    for (a1, a2), rep in sub_sweeps().items():
        cp = consts.compute_all(2.0, 2.0, a1, a2, "paper_definition")
        cv = consts.compute_all(2.0, 2.0, a1, a2, "proof_variant")
        out[(a1, a2)] = check_theorem_3(rep, cp, cv)
    return out


def test_criterion_01_A1_and_beta_identity(capsys):
    """constants --q 2 gives A1 = pi/4; A1 matches the Beta form in q."""
    with Budget(1.0) as b:
        assert main(["constants", "--q", "2", "--p", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        a1_val = obj["A1"]
        err_q2 = abs(a1_val - PI / 4.0)
        assert err_q2 < 1e-12, f"A1(q=2) off by {err_q2:.3e}"
        worst = 0.0
        for q in (1.5, 3.0, 4.7):
            target = math.sqrt(PI) * math.gamma((q + 1.0) / 2.0) \
                / (2.0 * math.gamma(q / 2.0 + 1.0))
            got = consts.compute_A(2.0, q)["A1"]
            worst = max(worst, rel(got, target))
        assert worst < 1e-10, f"Beta identity off by {worst:.3e}"
    print(f"criterion 1 A1 identities: PASS abs={err_q2:.2e} "
          f"beta_rel={worst:.2e} t={b.elapsed:.2f}s")


def test_criterion_02_C1_closed_form():
    """C1 at the cubic nonlinearity equals 2 sqrt(2)."""
    with Budget(1.0) as b:
        r = rel(consts.compute_C1(3.0), 2.0 * math.sqrt(2.0))
        assert r < 1e-10, f"C1(3) off by {r:.3e}"
    print(f"criterion 2 C1(3)=2sqrt2: PASS rel={r:.2e} t={b.elapsed:.2f}s")


def test_criterion_03_bifurcation_from_pi2():
    """gamma(1e-6) is on the branch from pi^2 to 1e-8, for p in {2, 3, 5}.

    The curve leaves the trivial branch at the first Dirichlet eigenvalue
    along sqrt(gamma) = pi + A3 d^{p-1} + O(d^{2(p-1)}), and
    d = (k/sqrt 2)(1 + O(k^{p-1})) at small amplitude. The target is
    (pi + A3 (k/sqrt 2)^{p-1})^2 with A3 frozen from mpmath; at k = 1e-6 its
    truncation error is O(k^{2(p-1)}), about 1e-12 at p = 2 and smaller
    above, far inside the 1e-8 tolerance. At p = 3 and p = 5 the target is
    within 7.6e-14 and 6e-26 of pi^2; at p = 2 it is 8.6e-8 above pi^2, so a
    solver returning pi^2 there fails.
    """
    k = 1e-6
    with Budget(1.0) as b:
        rels = {}
        gaps = {}
        for p in (2.0, 3.0, 5.0):
            a3 = ORACLE[f"A3[p={p:g},q=2]"]
            target = (PI + a3 * (k / math.sqrt(2.0)) ** (p - 1.0)) ** 2
            g = ll.solve_gamma(k, ll.LocalParams(p=p))
            rels[p] = rel(g, target)
            gaps[p] = rel(g, PI * PI)
        print("criterion 3 gamma(1e-6) on the branch from pi^2: "
              + " ".join(f"p={p:g}: rel={r:.3e} (pi^2 gap {gaps[p]:.3e})"
                         for p, r in rels.items())
              + f" t={time.perf_counter() - b.t0:.2f}s")
        for p, r in rels.items():
            assert r < 1e-8, (
                f"p={p:g}: gamma(1e-6) is {r:.6e} (relative) off the branch "
                f"(pi + A3 (k/sqrt 2)^{{p-1}})^2, whose truncation error "
                f"O(k^{{2(p-1)}}) is at most about 1e-12; gamma - pi^2 is "
                f"{gaps[p]:.6e} relative")


def test_criterion_04_oracle_equivalence():
    """Time-map and shooting agree on (k, d, ||w||_4) to 1e-6; drift <= 1e-8."""
    with Budget(30.0) as b:
        worst_rel = 0.0
        worst_drift = 0.0
        for p in (2.0, 3.0, 5.0):
            lp = ll.LocalParams(p=p)
            for gamma in (15.0, 50.0):
                ref = ll.point_from_gamma(gamma, lp)
                w4_ref = ll.point_q_norm(ref, 4.0, lp)
                point, profile = oracle.solve_bvp(gamma, p)
                w4 = oracle.norms_from_profile(profile, 4.0)
                worst_rel = max(worst_rel, rel(point.k, ref.k),
                                rel(point.d, ref.d), rel(w4, w4_ref))
                m = math.sqrt(gamma * point.k ** 2
                              - 2.0 * point.k ** (p + 1.0) / (p + 1.0))
                drift = oracle.energy_drift(oracle.shoot(gamma, m, p))
                worst_drift = max(worst_drift, drift)
        assert worst_rel < 1e-6, f"route disagreement {worst_rel:.3e}"
        assert worst_drift <= 1e-8, f"energy drift {worst_drift:.3e}"
    print(f"criterion 4 oracle equivalence: PASS rel={worst_rel:.2e} "
          f"drift={worst_drift:.2e} t={b.elapsed:.2f}s")


def test_criterion_05_supercritical_growth():
    """lambda/alpha^4 - 1 carries coefficient C1 sqrt(a1+a2) at order -1."""
    with Budget(120.0) as b:
        lines = []
        for key, rep in super_sweeps().items():
            res = check_theorem_1(rep)
            assert res.tolerance == 0.02
            assert res.passed, (
                f"(a1,a2)={key}: coefficient rel error {res.rel_error:.3e}")
            assert abs(res.fitted_order - (-1.0)) <= 0.05, (
                f"(a1,a2)={key}: fitted order {res.fitted_order:.4f}")
            lines.append(f"{key}: rel={res.rel_error:.2e} "
                         f"order={res.fitted_order:+.4f}")
    print(f"criterion 5 supercritical coefficient: PASS "
          f"{'; '.join(lines)} t={b.elapsed:.2f}s")


def test_criterion_06_critical_exact_law():
    """lambda/alpha^2 is flat to 1e-10 and equals gamma(d1)/d1^2."""
    with Budget(10.0) as b:
        rep = critical_sweep()
        constancy, ratio = check_theorem_2(rep)
        assert constancy.tolerance == 1e-10 and ratio.tolerance == 1e-10
        assert constancy.passed, f"spread {constancy.rel_error:.3e}"
        assert ratio.passed, f"ratio off by {ratio.rel_error:.3e}"
        # independent target: a1 = a2 = 1/2, q = 2 normalizes at exactly
        # d1 = 1, so gamma(d1) comes straight from the local solver
        gamma_d1 = ll.solve_for_d(1.0, ll.LocalParams(p=3.0)).gamma
        ratios = [row["lambda"] / row["alpha"] ** 2 for row in rep.rows]
        worst = max(rel(r, gamma_d1) for r in ratios)
        assert worst < 1e-10, f"lambda/alpha^2 vs gamma(1) local: {worst:.3e}"
    print(f"criterion 6 critical law: PASS spread={constancy.rel_error:.2e} "
          f"local_match={worst:.2e} t={b.elapsed:.2f}s")


def test_criterion_07_subcritical_reading_arbitration():
    """Exactly one E3 reading fits lim lambda/alpha^2, identically per case."""
    with Budget(120.0) as b:
        chosen_set = set()
        lines = []
        for key, (leading, second, chosen) in sub_readings().items():
            assert leading.tolerance == 0.005
            assert leading.passed, (
                f"(a1,a2)={key}: leading rel error {leading.rel_error:.3e}")
            assert leading.other_rel_error is not None
            assert leading.other_rel_error > 0.005, (
                f"(a1,a2)={key}: both readings fit "
                f"({leading.other_rel_error:.3e})")
            assert second.tolerance == 0.05
            assert second.passed, (
                f"(a1,a2)={key}: second-order rel error {second.rel_error:.3e}")
            assert abs(leading.fitted_order - (-1.0)) <= 0.1, (
                f"(a1,a2)={key}: remainder order {leading.fitted_order:.4f}")
            chosen_set.add(chosen)
            lines.append(f"{key}: lead={leading.rel_error:.2e} "
                         f"second={second.rel_error:.2e}")
        assert len(chosen_set) == 1, f"inconsistent readings: {chosen_set}"
    print(f"criterion 7 reading arbitration: PASS chosen="
          f"{chosen_set.pop()} {'; '.join(lines)} t={b.elapsed:.2f}s")


def test_criterion_08_small_d_coefficients():
    """Small-d expansion coefficients A3, A4, (2/q) A2/A1 from the curve."""
    with Budget(60.0) as b:
        worst = {"small_d_gamma_shift": 0.0, "small_d_amplitude": 0.0,
                 "small_d_qnorm": 0.0}
        for p in (2.0, 2.5):
            for q in (2.0, 3.0):
                params = ProblemParams(p=p, q=q, a1=1.0, a2=1.0)
                results = [r for r in check_laws(SweepReport(params))
                           if r.name.startswith("small_d")]
                for r in results:
                    assert r.passed, (
                        f"p={p} q={q} {r.name}: rel {r.rel_error:.3e} "
                        f"(tol {r.tolerance})")
                    worst[r.name] = max(worst[r.name], r.rel_error)
    print(f"criterion 8 small-d coefficients: PASS "
          f"A3={worst['small_d_gamma_shift']:.2e} "
          f"A4={worst['small_d_amplitude']:.2e} "
          f"qnorm={worst['small_d_qnorm']:.2e} t={b.elapsed:.2f}s")


def test_criterion_09_subcritical_pipeline():
    """d^{p-1} E3^{(p-3)/2} / alpha^{p-3} reaches 1 within 2% by alpha = 1e4."""
    with Budget(30.0) as b:
        # compute_E's E3 is the reading the arbitration criterion chose
        chosen = {c for (_, _, c) in sub_readings().values()}.pop()
        assert chosen == "proof_variant"
        e3 = math.exp(consts.compute_E(2.0, 2.0, 1.0, 1.0)["ln_E3"])
        rep = sub_sweeps()[(1.0, 1.0)]
        row = rep.rows[-1]
        assert row["alpha"] == 1e4
        ratio = row["d"] ** 1.0 * e3 ** -0.5 / row["alpha"] ** -1.0
        err = abs(ratio - 1.0)
        assert err < 0.02, f"pipeline ratio {ratio:.6f} off by {err:.3e}"
    print(f"criterion 9 pipeline law: PASS reading={chosen} "
          f"|ratio-1|={err:.2e} t={b.elapsed:.2f}s")


def test_criterion_10_large_d_laws():
    """(gamma - d^4)/d^2 -> C1 within 1%; D coefficient within 2%."""
    with Budget(60.0) as b:
        results = check_laws(super_sweeps()[SUPER_WEIGHTS[0]])
        by_name = {r.name: r for r in results}
        shift = by_name["large_d_gamma_shift"]
        dcoef = by_name["large_d_D_coefficient"]
        assert shift.tolerance == 0.01 and dcoef.tolerance == 0.02
        assert shift.passed, f"gamma shift rel {shift.rel_error:.3e}"
        assert dcoef.passed, f"D coefficient rel {dcoef.rel_error:.3e}"
    print(f"criterion 10 large-d laws: PASS C1={shift.rel_error:.2e} "
          f"D={dcoef.rel_error:.2e} t={b.elapsed:.2f}s")


def test_criterion_11_solution_defects():
    """Every sweep row: residual <= 1e-6 and the four defining invariants."""
    with Budget(120.0) as b:
        reports = list(super_sweeps().values()) + [critical_sweep()] \
            + list(sub_sweeps().values())
        n_rows = 0
        worst_resid = 0.0
        for rep in reports:
            params = rep.params
            lp = ll.LocalParams(p=params.p)
            for sol in rep.solutions:
                assert sol is not None, "sweep row failed to solve"
                n_rows += 1
                r = residual_check(sol, 64, params)
                worst_resid = max(worst_resid, r)
                assert r <= 1e-6, f"alpha={sol.alpha}: residual {r:.3e}"
                assert rel(sol.alpha, sol.h * sol.local.d) <= 1e-10
                assert rel(sol.lam, sol.beta * sol.local.gamma) <= 1e-12
                wq = ll.point_q_norm(sol.local, params.q, lp)
                n_scaled = params.a1 * (sol.h * wq) ** 2 \
                    + params.a2 * (sol.h * sol.local.d) ** 2
                assert rel(sol.beta, n_scaled) <= 1e-10
                if params.regime != "critical":
                    assert rel(sol.beta, sol.h ** (params.p - 1.0)) <= 1e-10
        assert n_rows == 34  # 3 sweeps of 5 + 1 of 4 + 3 of 5
    print(f"criterion 11 solution defects: PASS rows={n_rows} "
          f"worst_residual={worst_resid:.2e} t={b.elapsed:.2f}s")
