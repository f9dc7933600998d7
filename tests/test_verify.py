"""Sweep bookkeeping, order fitting, and the asymptotic-law checks."""

import dataclasses
import json
import math

import numpy as np
import pytest

from biflogis import constants as consts
from biflogis import local_logistic as ll
from biflogis.errors import DegenerateFit, InvalidBracket, InvalidRegime
from biflogis import nonlocal_curve as nc
from biflogis.nonlocal_curve import ProblemParams, solve_alpha
from biflogis.verify import (_LARGE_D_TS, _SMALL_D_TS, CheckResult,
                             SweepReport, _large_d_ts,
                             _neville_at_zero, _order_in_log, _window,
                             check_local_large_d, check_local_small_d,
                             check_theorem_1, check_theorem_2,
                             check_theorem_3, DEFAULT_SUB_ALPHAS, sweep)


def params_for(p, q=2.0, a1=0.5, a2=0.5):
    return ProblemParams(p=p, q=q, a1=a1, a2=a2)


# ----------------------------------------------------------------- fitting


def test_order_in_log_power_law():
    xs = np.geomspace(1.0, 1e4, 9)
    rs = 7.0 * xs ** -2.5
    assert abs(_order_in_log(np.log(xs), rs) - (-2.5)) < 1e-12


def test_order_in_log_ignores_zero_remainders():
    xs = [1.0, 10.0, 100.0, 1000.0]
    rs = [1.0, 0.1, 0.0, 0.001]
    assert abs(_order_in_log(np.log(xs), rs) - (-1.0)) < 1e-12


def test_order_in_log_degenerate():
    with pytest.raises(DegenerateFit):
        _order_in_log(np.log([1.0, 10.0]), [0.0, 0.0])
    with pytest.raises(DegenerateFit):
        _order_in_log(np.log([2.0, 2.0]), [1.0, 1.0])
    with pytest.raises(ValueError):
        _order_in_log(np.log([1.0, 2.0, 3.0]), [1.0, 2.0])


def test_extrapolate_limit_toward_infinity():
    # a limit at large s is one at x = s^-order = 0
    xs = np.array([10.0, 100.0, 1000.0])
    ys = 4.0 + 3.0 * xs ** -2.0
    assert abs(_neville_at_zero(xs ** -2.0, ys) - 4.0) < 1e-12


def test_extrapolate_limit_toward_zero():
    xs = np.array([1e-1, 1e-2, 1e-3])
    ys = -2.0 + 5.0 * xs ** 1.5
    assert abs(_neville_at_zero(xs ** 1.5, ys) - (-2.0)) < 1e-12
    # n points of a degree n - 1 polynomial in x give its value at 0
    xs = np.geomspace(1e-3, 1e-1, 6)
    ys = np.polynomial.polynomial.polyval(xs, [0.7, -1.3, 2.1, 0.4, -0.9, 1.7])
    assert abs(_neville_at_zero(xs, ys) - 0.7) < 1e-15


@pytest.mark.parametrize("shift", (-1000, -670, -300, -1, 0, 1, 300, 1000))
def test_extrapolate_limit_is_scale_free(shift):
    # The value at 0 does not depend on the scale of xs: they are brought
    # to a largest |x| in [1/2, 1) by a power of two, which is exact, so
    # xs times 2^shift give the same bits. With ys near 1e299, as theorem
    # 3 reads them at weights near 1e-300, the divided differences of xs
    # near 2^-670 overflowed and the value read nan.
    xs = [1.0, 0.75, 0.5, 0.375, 0.25, 0.125]
    coeffs = [2.5e299, -1.5e299, 4e298, 7e298, -2e298, 1e298]
    ys = np.polynomial.polynomial.polyval(xs, coeffs)
    value = _neville_at_zero(xs, ys)
    assert abs(value - coeffs[0]) <= 1e-14 * coeffs[0]
    assert _neville_at_zero([math.ldexp(x, shift) for x in xs], ys) == value


def test_extrapolate_limit_validation():
    with pytest.raises(DegenerateFit):
        _neville_at_zero([1.0], [1.0])
    with pytest.raises(DegenerateFit):
        _neville_at_zero([1.0, 2.0, 1.0], [1.0, 2.0, 3.0])


# ------------------------------------------------------------ CheckResult


def test_check_result_consistency_enforced():
    # passed is derived from rel_error <= tolerance, so it cannot disagree
    # with them; a nan rel_error never passes.
    def check(rel_error):
        return CheckResult(name="x", target=1.0, estimate=1.0,
                           rel_error=rel_error, fitted_order=math.nan,
                           tolerance=0.01)

    assert check(0.5).passed is False
    assert check(0.01).passed is True
    assert check(np.float64(1e-3)).passed is True
    assert check(math.nan).passed is False
    assert check(0.5).to_record()["pass"] is False
    with pytest.raises(TypeError):
        CheckResult(name="x", target=1.0, estimate=1.5, rel_error=0.5,
                    fitted_order=math.nan, tolerance=0.01, passed=True)


def test_check_result_to_record():
    r = CheckResult(name="x", target=1.0, estimate=1.001, rel_error=1e-3,
                    fitted_order=math.nan, tolerance=0.01)
    rec = r.to_record()
    assert rec["pass"] is True
    assert rec["fitted_order"] is None
    assert "other_rel_error" not in rec
    # other_rel_error carries check_theorem_3's mismatch of the other E3
    # reading and is not part of the record
    r2 = dataclasses.replace(r, fitted_order=-1.0, other_rel_error=0.9)
    rec2 = r2.to_record()
    assert rec2["fitted_order"] == -1.0
    assert set(rec2) == set(rec)


# ----------------------------------------------------------------- sweeps


def test_sweep_sorts_and_solves():
    rep = sweep(params_for(5.0), [100.0, 10.0, 1000.0])
    assert [row["alpha"] for row in rep.rows] == [10.0, 100.0, 1000.0]
    assert all(sol is not None for sol in rep.solutions)
    assert all(row["lambda"] > 0.0 for row in rep.rows)


def test_sweep_records_row_failures():
    # alpha so large the scaling overflows: the row must carry the error
    # text and a None solution, and the other rows must still solve.
    rep = sweep(params_for(5.0), [10.0, 1e300])
    assert rep.solutions[0] is not None
    assert rep.solutions[1] is None
    assert "error" in rep.rows[1]
    assert rep.rows[1]["alpha"] == 1e300


def test_sweep_propagates_a_bare_error(monkeypatch):
    # Only package errors become rows: a bare ValueError from solve_alpha
    # is a bug, and sweep must not hide it in a recorded row.
    def broken(alpha, params):
        raise ValueError("not a package error")

    monkeypatch.setattr(nc, "solve_alpha", broken)
    with pytest.raises(ValueError, match="not a package error"):
        sweep(params_for(5.0), [10.0, 100.0])


def test_sweep_records_a_beta_miss(monkeypatch):
    # A point whose beta misses h^{p-1} in NonlocalSolution's check inside
    # solve_alpha is a package error (NoConvergence), so sweep records its
    # row as failed.
    monkeypatch.setattr(nc, "_BETA_LOG_TOL", -1.0)
    rep = sweep(params_for(5.0, a1=1.0, a2=1.0), [1e4])
    assert rep.solutions == [None]
    assert rep.rows[0]["alpha"] == 1e4
    assert rep.rows[0]["error"].startswith("NoConvergence: beta misses ")


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(params_for(5.0), [])
    with pytest.raises(ValueError):
        sweep(params_for(5.0), [10.0, 10.0])
    with pytest.raises(ValueError):
        sweep(params_for(5.0), [10.0, -1.0])
    with pytest.raises(ValueError):
        sweep(params_for(5.0), [10.0, math.inf])


def test_sweep_report_record_shape():
    rep = sweep(params_for(5.0), [100.0, 1000.0])
    rec = rep.to_record()
    assert rec["params"]["p"] == 5.0
    assert len(rec["rows"]) == 2
    assert rec["checks"] == []
    assert set(rec) == {"params", "rows", "checks"}


def test_sweep_report_quad_block_pinned():
    # The quad block keeps its four keys, so sweep and verify JSON stay
    # byte-stable: all four are the quadrature module's constants.
    params = ProblemParams(p=5.0, q=2.0, a1=0.5, a2=0.5)
    rec = sweep(params, [100.0]).to_record()
    assert json.dumps(rec["params"]["quad"]) == (
        '{"rel_tol": 1e-12, "abs_tol": 1e-14, "max_refinements": 30, '
        '"rule": "gauss_legendre_adaptive"}')
    assert "root_tol" not in rec["params"]


# ----------------------------------------------------- supercritical law


def test_theorem_1_passes():
    rep = sweep(params_for(5.0), list(np.geomspace(1e3, 1e5, 5)))
    res = check_theorem_1(rep)
    assert res.passed
    assert res.rel_error < 1e-3
    assert abs(res.fitted_order - (-1.0)) < 0.05


def test_theorem_1_wrong_regime():
    rep = sweep(params_for(3.0), [10.0, 100.0, 1000.0, 10000.0])
    with pytest.raises(InvalidRegime):
        check_theorem_1(rep)


@pytest.mark.parametrize("p, ts", [(5.0, _large_d_ts(5.0)),
                                   (8.0, _large_d_ts(8.0)),
                                   (1.5, _SMALL_D_TS), (2.0, _SMALL_D_TS),
                                   (8.0, _LARGE_D_TS)])
def test_theorem_windows_lie_on_the_solved_curve(p, ts):
    # The theorem checks read the curve at fixed t with alpha(t) = h d,
    # h^{p-3} = N; the solver, given that alpha, returns the same t. At
    # p = 8 the large-d window is ln t in [8, 10]; [4, 6], the window below
    # p = 8, is kept there too.
    params = params_for(p, q=3.0, a1=1.0, a2=0.5)
    ln_d, ln_n = _window(ts, (8, 9), nc._state_at_t, params)
    for t, ln_alpha in zip(ts, ln_n / (p - 3.0) + ln_d):
        sol = solve_alpha(math.exp(ln_alpha), params)
        assert abs(math.log(sol.local.layer_t / t)) <= 1e-12, (p, t)


def test_theorem_checks_read_params_alone(monkeypatch):
    # No solve and no root-find: a report without rows is read on the
    # t-windows alone.
    def fail(*args):
        raise AssertionError("a theorem check solved for a point")
    monkeypatch.setattr(nc, "solve_alpha", fail)
    monkeypatch.setattr(ll, "_t_where", fail)
    assert check_theorem_1(SweepReport(params_for(3.01))).passed
    cs = consts.compute_all(2.999, 2.0, 1.0, 1.0)
    leading, second, _ = check_theorem_3(
        SweepReport(params_for(2.999, a1=1.0, a2=1.0)), cs, cs)
    assert leading.passed and second.passed


# ---------------------------------------------------------- critical law


def test_theorem_2_passes():
    rep = sweep(params_for(3.0), [1.0, 10.0, 100.0, 1000.0])
    constancy, ratio = check_theorem_2(rep)
    assert constancy.passed and constancy.rel_error < 1e-12
    assert ratio.passed and ratio.rel_error < 1e-12


@pytest.mark.parametrize("a1, a2", ((1e-300, 0.0), (1e-300, 1e-300)))
def test_theorem_2_without_a_solved_row(a1, a2):
    # At weights near the smallest double no alpha of the default grid
    # solves: every row is an InvalidBracket, and so is the check, which
    # names one of them. A report without rows is the caller's slip.
    rep = sweep(params_for(3.0, a1=a1, a2=a2), DEFAULT_SUB_ALPHAS)
    assert all("InvalidBracket" in row["error"] for row in rep.rows)
    with pytest.raises(InvalidBracket, match="no alpha of the sweep"):
        check_theorem_2(rep)
    with pytest.raises(ValueError, match="no rows"):
        check_theorem_2(SweepReport(params_for(3.0)))


def test_theorem_2_wrong_regime():
    rep = sweep(params_for(5.0), [10.0, 100.0])
    with pytest.raises(InvalidRegime):
        check_theorem_2(rep)
    # Half a nano off p = 3 the curve's lambda/alpha^2 still varies, by
    # 4.5e-10 over this grid: theorem 2 holds at p = 3 alone.
    rep = sweep(params_for(3.0 + 5e-10), [1.0, 10.0, 100.0, 1000.0])
    with pytest.raises(InvalidRegime):
        check_theorem_2(rep)


# -------------------------------------------------------- subcritical law


@pytest.fixture(scope="module")
def sub_report():
    return sweep(params_for(2.0, a1=0.0, a2=1.0),
                 list(np.geomspace(1e2, 1e4, 5)))


def constant_sets(p=2.0, q=2.0, a1=0.0, a2=1.0):
    return (consts.compute_all(p, q, a1, a2, reading="paper_definition"),
            consts.compute_all(p, q, a1, a2, reading="proof_variant"))


def test_theorem_3_arbitrates_reading(sub_report):
    cp, cv = constant_sets()
    leading, second, chosen = check_theorem_3(sub_report, cp, cv)
    assert chosen == "proof_variant"
    assert leading.passed
    # the losing reading is off by a factor pi^4, reported alongside
    assert leading.other_rel_error is not None
    assert leading.other_rel_error > 0.9
    assert second.passed


@pytest.mark.parametrize("q,a1,a2", ((4.0, 1.0, 1.0), (1.1, 1.0, 0.0),
                                     (8.0, 1.0, 0.0)))
def test_theorem_3_second_at_q_not_2(q, a1, a2):
    # E2's a1 term takes the amplitude coefficient A4 at q = 2 whatever q
    # is; taken at the problem's q it put S 0.065, 0.125 and 0.194 off the
    # curve here. The curve's extrapolated S now matches to under 1e-9.
    report = sweep(params_for(2.0, q=q, a1=a1, a2=a2), list(DEFAULT_SUB_ALPHAS))
    leading, second, chosen = check_theorem_3(
        report, *constant_sets(p=2.0, q=q, a1=a1, a2=a2))
    assert chosen == "proof_variant" and leading.passed
    assert second.passed and second.rel_error < 1e-6


def test_theorem_3_pinned_reading(sub_report):
    # verify's single-reading call passes the same set twice; no losing
    # reading
    _, cv = constant_sets()
    leading, second, chosen = check_theorem_3(sub_report, cv, cv)
    assert chosen == "proof_variant"
    assert leading.other_rel_error is None
    # a single reading that misses is a failing check, not an ambiguity
    cp, _ = constant_sets()
    leading, _, chosen = check_theorem_3(sub_report, cp, cp)
    assert not leading.passed
    assert chosen == "paper_definition"
    assert leading.other_rel_error is None


def test_theorem_3_neither_reading_matches(sub_report):
    # Two sets that both miss the curve give a failing leading check on the
    # second set, though the first is closer, with the first set's mismatch
    # alongside; no error is raised.
    cp, cv = constant_sets()
    bad_p = dataclasses.replace(cp, leading_coeff=1e6)
    bad_v = dataclasses.replace(cv, leading_coeff=2e6)
    leading, _, chosen = check_theorem_3(sub_report, bad_p, bad_v)
    assert chosen == "proof_variant"
    assert not leading.passed
    assert leading.target == 2e6
    assert leading.rel_error == abs(leading.estimate - 2e6) / 2e6
    assert leading.other_rel_error == abs(leading.estimate - 1e6) / 1e6
    assert leading.other_rel_error < leading.rel_error


def test_theorem_3_wrong_regime():
    rep = sweep(params_for(3.0), [100.0, 1000.0, 10000.0])
    cp, cv = constant_sets()
    with pytest.raises(InvalidRegime):
        check_theorem_3(rep, cp, cv)


def test_theorem_3_rejects_critical_constants(sub_report):
    cs = consts.compute_all(3.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_theorem_3(sub_report, cs, cs)


@pytest.mark.parametrize("p, q, a1, a2", ((2.0, 3.0, 0.0, 1.0),
                                          (2.0, 2.0, 1.0, 1.0),
                                          (2.5, 2.0, 0.0, 1.0)))
def test_theorem_3_rejects_constants_of_other_params(sub_report, p, q, a1,
                                                      a2):
    # A set built at another q, other weights or another p would be read
    # against this curve as if it were its own.
    cs = consts.compute_all(p, q, a1, a2)
    with pytest.raises(ValueError):
        check_theorem_3(sub_report, cs, cs)
    _, cv = constant_sets()
    with pytest.raises(ValueError):
        check_theorem_3(sub_report, cv, cs)


# ---------------------------------------------------- the alpha -> 0 end

ZERO_END_WEIGHTS = ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0))


@pytest.mark.parametrize("q", (1.1, 2.0, 8.0))
@pytest.mark.parametrize("p", (1.05, 2.0, 2.9))
def test_theorem_1_holds_as_alpha_to_0_below_3(p, q):
    # For p < 3 large d is alpha -> 0, and x = alpha^{(3-p)/2} -> 0 there.
    for a1, a2 in ZERO_END_WEIGHTS:
        res = check_theorem_1(SweepReport(params_for(p, q, a1, a2)))
        assert res.passed, (a1, a2, res.rel_error)


@pytest.mark.parametrize("q", (1.1, 2.0, 8.0))
@pytest.mark.parametrize("p", (3.1, 5.0, 12.0))
def test_theorem_3_holds_as_alpha_to_0_above_3(p, q):
    # For p > 3 small d is alpha -> 0, and x = alpha^{p-3} -> 0 there.
    for a1, a2 in ZERO_END_WEIGHTS:
        cs = consts.compute_all(p, q, a1, a2)
        leading, second, _ = check_theorem_3(
            SweepReport(params_for(p, q, a1, a2)), cs, cs)
        assert leading.passed and second.passed, (a1, a2)


# -------------------------------------------------------- local-d checks


@pytest.fixture
def no_root_find(monkeypatch):
    """The local checks read the log state at fixed t: no local root-find."""
    def fail(*args):
        raise AssertionError("a local check called a root-find")
    monkeypatch.setattr(ll, "_t_where", fail)


@pytest.mark.usefixtures("no_root_find")
@pytest.mark.parametrize("q", (1.1, 4.0, 8.0))
@pytest.mark.parametrize("p", (1.05, 2.0, 3.0, 3.01, 5.0, 12.0, 20.0, 50.0,
                               100.0, 300.0))
def test_large_d_checks_pass_q4(p, q):
    # q != 2 keeps the D coefficient away from zero (at q = 2 it vanishes
    # identically), so all three checks carry information. At p = 100 and
    # 300 the checks failed on ln t in [4, 6] (the shift read 1.3e-2 and
    # 0.52); the window moves to [8, 10] at p = 8.
    results = check_local_large_d(p, q)
    by_name = {r.name: r for r in results}
    assert set(by_name) == {"large_d_gamma_shift", "large_d_qnorm_relation",
                            "large_d_D_coefficient"}
    assert all(r.passed for r in results)
    assert by_name["large_d_D_coefficient"].target != 0.0
    # The relation's residual is at rounding level all over the window, so
    # a fitted order would fit the rounding: it is nan, as for theorem 2.
    relation = by_name["large_d_qnorm_relation"]
    assert math.isnan(relation.fitted_order)
    assert relation.to_record()["fitted_order"] is None
    assert relation.tolerance == 1e-6


def test_large_d_D_check_sees_the_cq_term():
    # Dropping the (2/q) Cq term from the D target must fail the check.
    dcoef = check_local_large_d(5.0, 4.0)[2]
    c1 = consts.compute_C1(5.0)
    cq = consts.compute_Cq(5.0, 4.0)
    dropped = (2.0 / 4.0) * c1
    assert dcoef.target == dropped - (2.0 / 4.0) * cq
    miss = abs(dcoef.estimate - dropped) / max(abs(dropped), cq)
    assert miss > dcoef.tolerance == 0.02


def test_large_d_validation():
    # The local problem has no regime: the large-d laws hold at p = 3 and
    # below as well.
    for p in (3.0, 2.0):
        assert all(r.passed for r in check_local_large_d(p, 2.0))


@pytest.mark.parametrize("check", (check_local_small_d, check_local_large_d))
@pytest.mark.parametrize("p, q", [(5.0, 0.0), (5.0, math.inf), (5.0, math.nan),
                                  (5.0, -1.0), (1.0, 2.0), (math.nan, 2.0)])
def test_local_checks_reject_bad_pq_before_calibrating(check, p, q,
                                                       fresh_caches,
                                                       calibrations):
    # The domain compute_A accepts, checked before any calibration: q = 0
    # used to raise ZeroDivisionError, and q = -1 NoConvergence after
    # thousands of quadrature panels.
    with pytest.raises(ValueError):
        check(p, q)
    assert calibrations() == {}


@pytest.mark.usefixtures("no_root_find")
@pytest.mark.parametrize("q", (1.1, 2.0, 8.0))
@pytest.mark.parametrize("p", (1.05, 2.0, 3.0, 5.0, 20.0))
def test_small_d_checks_pass(p, q):
    results = check_local_small_d(p, q)
    names = [r.name for r in results]
    assert names == ["small_d_gamma_shift", "small_d_amplitude",
                     "small_d_qnorm"]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("p", (1.02, 1.05, 1.1, 1.2, 1.5))
def test_local_checks_near_1_read_the_ratios(p):
    # ln k reaches hundreds on the windows near p = 1, so a ratio of norms
    # taken as a difference of two logs of that size loses up to 5.7e-14 in
    # the state. The checks read ln(d/k) and ln(||w||_q/k) off the state
    # instead; the differences reached 8.4e-7, 5.5e-9 and 5.6e-10 below.
    for q in (1.1, 1.5, 2.0, 3.0, 4.0, 8.0):
        small = {r.name: r.rel_error for r in check_local_small_d(p, q)}
        large = {r.name: r.rel_error for r in check_local_large_d(p, q)}
        assert small["small_d_amplitude"] <= 1e-8, (q, small)
        assert small["small_d_qnorm"] <= 1e-10, (q, small)
        assert large["large_d_D_coefficient"] <= 1e-10, (q, large)
