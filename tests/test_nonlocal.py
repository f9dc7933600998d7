"""Curve points of the nonlocal problem: scaling invariants and defects.

Every constructed solution must satisfy the defining algebra exactly
(alpha = h d, lambda = beta gamma, beta = h^{p-1} for every p), and its
scaled profile must solve the differential equation when checked through an
independent reconstruction of u''.
"""

import copy
import dataclasses
import math
import pickle
import re
import sys
import types
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biflogis.errors import (BiflogisError, InvalidBracket, InvalidRegime,
                             MonotonicityViolation, NoConvergence, Overflow,
                             ZeroCoefficients)
from biflogis import constants as consts
from biflogis import local_logistic as ll, nonlocal_curve
from biflogis.local_logistic import LocalParams, point_q_norm
from biflogis.nonlocal_curve import (NonlocalSolution, ProblemParams, g_of_k,
                                     residual_check, solve_alpha)
from biflogis.verify import DEFAULT_SUB_ALPHAS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

# The domain grid, 11 p x 3 q x 6 alpha at a1 = a2 = 1, as
# tools/grid_shift.py solves it.
from grid_shift import ALPHAS as DOMAIN_ALPHAS  # noqa: E402
from grid_shift import PS as DOMAIN_PS, QS as DOMAIN_QS  # noqa: E402


def rel(a, b):
    return abs(a - b) / abs(b)


def wq_of(sol, params):
    # layer-aware norm: the (k, gamma) route loses the layer for the large
    # amplitudes the supercritical curve reaches
    lp = LocalParams(p=params.p)
    return point_q_norm(sol.local, params.q, lp)


def assert_invariants(sol, params, alpha_rtol=1e-12):
    assert rel(sol.alpha, sol.h * sol.local.d) < alpha_rtol
    assert rel(sol.lam, sol.beta * sol.local.gamma) < 1e-12
    wq = wq_of(sol, params)
    n_scaled = params.a1 * (sol.h * wq) ** 2 \
        + params.a2 * (sol.h * sol.local.d) ** 2
    assert rel(sol.beta, n_scaled) < 1e-9
    # The exact relation, also next to p = 3: there h^{p-3} is
    # 1 + (p-3) ln h, not 1, so beta = h^2 would hold only to ~1e-9.
    assert rel(sol.beta, sol.h ** (params.p - 1.0)) < 1e-12
    if params.regime == "critical":
        # the local point is pinned at the normalization a1||w||_q^2+a2 d^2=1
        n_val = params.a1 * wq * wq + params.a2 * sol.local.d ** 2
        assert abs(n_val - 1.0) < 1e-8


# -------------------------------------------------------------- validation


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(p=1.0, q=2.0, a1=1.0, a2=0.0)
    with pytest.raises(ValueError):
        ProblemParams(p=5.0, q=1.0, a1=1.0, a2=0.0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            ProblemParams(p=5.0, q=2.0, a1=bad, a2=1.0)
        with pytest.raises(ValueError):
            ProblemParams(p=5.0, q=2.0, a1=1.0, a2=bad)
    with pytest.raises(ZeroCoefficients):
        ProblemParams(p=5.0, q=2.0, a1=0.0, a2=0.0)


def test_regime_property():
    def regime(p):
        return ProblemParams(p=p, q=2.0, a1=1.0, a2=1.0).regime

    assert regime(5.0) == "supercritical"
    assert regime(3.1) == "supercritical"
    assert regime(2.0) == "subcritical"
    # the critical label is p = 3 exactly, as in the constants: the
    # neighbouring doubles are on the curve's two other sides
    assert regime(3.0) == "critical"
    for above in (3.0 + 5e-10, math.nextafter(3.0, math.inf)):
        assert regime(above) == "supercritical"
    for below in (3.0 - 5e-10, math.nextafter(3.0, 0.0)):
        assert regime(below) == "subcritical"


@pytest.mark.parametrize("p, q, alpha", [(6.5, 2.0, 1e4), (2.0, 3.0, 100.0),
                                         (4.0, 3.0, 100.0), (3.0, 2.0, 1.0)])
def test_params_copies_solve_to_the_same_bits(p, q, alpha):
    # An instance stores regime and ln(a1 + a2) when built and memoises its
    # seed constants on first use, outside its fields: a new instance, the
    # used one, a dataclasses.replace copy and a pickle round trip (of the
    # used instance, memo included, and of an unused one) solve alike. The
    # written-out constructor keeps the frozen dataclass's fields.
    used = ProblemParams(p=p, q=q, a1=1.0, a2=0.5)
    want = solve_alpha(alpha, used)
    assert [f.name for f in dataclasses.fields(used)] == ["p", "q", "a1", "a2"]
    for name in ("p", "regime", "_asym"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(used, name, None)
    twins = (ProblemParams(p, q, 1.0, 0.5), used,
             dataclasses.replace(used), pickle.loads(pickle.dumps(used)),
             pickle.loads(pickle.dumps(ProblemParams(p=p, q=q, a1=1.0,
                                                     a2=0.5))))
    for twin in twins:
        assert twin == used and hash(twin) == hash(used)
        assert repr(twin) == f"ProblemParams(p={p!r}, q={q!r}, a1=1.0, a2=0.5)"
        assert twin.regime == used.regime
        assert solve_alpha(alpha, twin) == want


def test_solve_alpha_validation():
    params = ProblemParams(p=5.0, q=2.0, a1=1.0, a2=0.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_alpha(bad, params)


def test_solution_validation():
    sol = solve_alpha(10.0, ProblemParams(p=5.0, q=2.0, a1=1.0, a2=0.0))
    with pytest.raises(ValueError):
        dataclasses.replace(sol, alpha=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(sol, lam=math.nan)
    with pytest.raises(ValueError):
        dataclasses.replace(sol, regime="sideways")


@pytest.mark.parametrize("bad", (0.0, -1.0, math.nan, math.inf))
@pytest.mark.parametrize("field", ("local.k", "local.gamma", "local.d",
                                   "local.p", "alpha", "h", "beta", "lam"))
def test_nonpositive_field_message_names_it(field, bad):
    # Every positive field of LocalPoint and NonlocalSolution is checked
    # first, by its own name, before any relation between the fields.
    sol = solve_alpha(10.0, ProblemParams(p=5.0, q=2.0, a1=1.0, a2=0.0))
    owner, _, name = field.rpartition(".")
    match = rf"^{name} must be finite and positive, got {bad}$"
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(sol.local if owner else sol, **{name: bad})


def test_inconsistent_solution_raises():
    # Finite positive fields that break one of the curve's relations:
    # alpha = h d, beta = h^{p-1}, lam = beta gamma.
    sol = solve_alpha(10.0, ProblemParams(p=2.5, q=2.0, a1=1.0, a2=1.0))
    with pytest.raises(ValueError, match="h d"):
        dataclasses.replace(sol, alpha=sol.alpha * (1.0 + 1e-9))
    with pytest.raises(ValueError, match=r"misses h\^\(p-1\)"):
        dataclasses.replace(sol, beta=sol.beta * (1.0 + 1e-9),
                            lam=sol.beta * (1.0 + 1e-9) * sol.local.gamma)
    with pytest.raises(ValueError, match="beta gamma"):
        dataclasses.replace(sol, lam=sol.lam * (1.0 + 1e-13))
    # The instance solve_alpha built passes the same checks when rebuilt.
    assert dataclasses.replace(sol) == sol


def test_beta_miss_is_a_typed_error(monkeypatch):
    # solve_alpha leaves the check of beta = h^{p-1} to NonlocalSolution; a
    # miss there surfaces as NoConvergence with the instance's message,
    # alpha and p. A negative bound on the miss fails every point.
    monkeypatch.setattr(nonlocal_curve, "_BETA_LOG_TOL", -1.0)
    with pytest.raises(NoConvergence, match=r"^beta misses h\^\(p-1\) by .* "
                                            r"at alpha = 10000\.0, p = 5\.0$"):
        solve_alpha(1e4, ProblemParams(p=5.0, q=2.0, a1=1.0, a2=1.0))


def test_broken_identity_check_stays_a_bare_error(monkeypatch):
    # alpha = h d and lam = beta gamma hold by construction in solve_alpha,
    # so a failed check of either is a bug: it must reach the caller as a
    # bare ValueError, not as a package error a sweep would record.
    params = ProblemParams(p=5.0, q=2.0, a1=1.0, a2=1.0)
    for name, message in (("_ALPHA_RTOL", "is not h d"),
                          ("_LAM_RTOL", "is not beta gamma")):
        with monkeypatch.context() as patch:
            patch.setattr(nonlocal_curve, name, -1.0)
            with pytest.raises(ValueError, match=message) as info:
                solve_alpha(1e4, params)
        assert not isinstance(info.value, BiflogisError)


# Field names and defaults of the two frozen result classes, as the
# generated dataclass constructors had them.
FROZEN_FIELDS = {
    "LocalPoint": (("k", "gamma", "d", "p", "layer_t"),
                   (dataclasses.MISSING,) * 4 + (None,)),
    "NonlocalSolution": (("alpha", "local", "h", "beta", "lam", "regime"),
                         (dataclasses.MISSING,) * 6),
}


@pytest.mark.parametrize("cls_name", tuple(FROZEN_FIELDS))
def test_written_constructor_keeps_the_frozen_contract(cls_name):
    # LocalPoint and NonlocalSolution store their fields through a
    # hand-written __init__; they must still behave as frozen dataclasses.
    sol = solve_alpha(1e4, ProblemParams(p=5.0, q=2.0, a1=1.0, a2=1.0))
    obj = sol if cls_name == "NonlocalSolution" else sol.local
    cls = type(obj)
    assert cls.__name__ == cls_name
    names, defaults = FROZEN_FIELDS[cls_name]
    fields = dataclasses.fields(cls)
    assert tuple(f.name for f in fields) == names
    assert tuple(f.default for f in fields) == defaults
    assert all(f.default_factory is dataclasses.MISSING for f in fields)
    # Every field is stored, and nothing else.
    values = tuple(getattr(obj, name) for name in names)
    assert vars(obj) == dict(zip(names, values))
    by_keyword = cls(**dict(zip(names, values)))
    assert cls(*values) == by_keyword == obj
    assert hash(by_keyword) == hash(obj)
    assert repr(obj) == f"{cls_name}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert vars(obj) == dict(zip(names, values))
    for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert twin is not obj
        assert twin == obj
        assert hash(twin) == hash(obj)


# -------------------------------------------------------------- invariants


CASES = [
    (5.0, 2.0, 1.0, 0.0, 100.0),
    (5.0, 2.0, 0.0, 1.0, 100.0),
    (5.0, 2.0, 0.5, 0.5, 1e4),
    (5.0, 4.0, 0.3, 0.7, 300.0),
    (2.0, 2.0, 0.0, 1.0, 100.0),
    (2.0, 2.0, 1.0, 1.0, 100.0),
    (2.5, 3.0, 0.7, 0.4, 50.0),
    (3.0, 2.0, 0.5, 0.5, 1.0),
    (3.0, 2.0, 0.5, 0.5, 1000.0),
    (3.0, 4.0, 1.0, 0.5, 25.0),
]


@pytest.mark.parametrize("p,q,a1,a2,alpha", CASES)
def test_solution_invariants(p, q, a1, a2, alpha):
    params = ProblemParams(p=p, q=q, a1=a1, a2=a2)
    sol = solve_alpha(alpha, params)
    assert sol.alpha == alpha
    assert sol.regime == params.regime
    assert_invariants(sol, params)


def assert_valid_or_typed_error(alpha, params):
    """A point that meets alpha = h d to the documented 1e-10 and the other
    invariants, or a package error; never a bare exception."""
    try:
        sol = solve_alpha(alpha, params)
    except BiflogisError:
        return
    assert sol.regime == params.regime
    assert_invariants(sol, params, alpha_rtol=1e-10)


NEAR_CRITICAL_P = (3.0 - 1e-6, 3.0 - 1e-7, 3.0 - 1e-10, 3.0, 3.0 + 1e-10,
                   3.0 + 1e-8, 3.0 + 1e-7, 3.0 + 1e-6)
NEAR_CRITICAL_QA = ((2.0, 1.0, 1.0), (4.0, 1.0, 0.5))


@pytest.mark.parametrize("p", NEAR_CRITICAL_P)
@pytest.mark.parametrize("alpha", (1e-2, 1.0, 1e2))
def test_near_critical_valid_or_typed_error(p, alpha):
    # Near p = 3 every point solves: the residual ln N - (p-3) ln(alpha/d)
    # holds no 1/(p-3) that could amplify the rounding of ln N.
    for q, a1, a2 in NEAR_CRITICAL_QA:
        params = ProblemParams(p=p, q=q, a1=a1, a2=a2)
        sol = solve_alpha(alpha, params)
        assert sol.regime == params.regime
        assert_invariants(sol, params, alpha_rtol=1e-10)


@pytest.mark.parametrize("alpha", (1e-2, 1.0, 1e2))
def test_lambda_continuous_through_p3(alpha):
    # lambda/alpha^2 is smooth in p across p = 3: its relative change stays
    # below |p - 3| (the slope is below 0.4 on these cases), and the
    # difference quotients from either side agree, so no band jumps.
    for q, a1, a2 in NEAR_CRITICAL_QA:
        def ratio(p):
            params = ProblemParams(p=p, q=q, a1=a1, a2=a2)
            return solve_alpha(alpha, params).lam / alpha ** 2

        at3 = ratio(3.0)
        slopes = {}
        for p in NEAR_CRITICAL_P:
            change = ratio(p) / at3 - 1.0
            assert abs(change) <= abs(p - 3.0) + 1e-13
            if p != 3.0:
                slopes[p] = change / (p - 3.0)
        left, right = slopes[3.0 - 1e-6], slopes[3.0 + 1e-6]
        assert abs(left - right) <= 1e-3 * abs(right) + 1e-5


def test_small_p_tiny_alpha_valid_or_typed_error():
    # At alpha = 1e-6 the root-find ends 79 alpha away from alpha; the point
    # must not be returned as a solution. At alpha = 1e6 and 1e12 the curve
    # point's N or k underflows to zero.
    for alpha in (1e-6, 1e6, 1e12):
        for q in (1.1, 2.0, 8.0):
            assert_valid_or_typed_error(alpha, ProblemParams(p=1.05, q=q, a1=1.0, a2=1.0))


@pytest.mark.parametrize("q", (2.0, 8.0))
@pytest.mark.parametrize("alpha", (1e-6, 1e6))
def test_small_p_extreme_alpha_solved(alpha, q):
    # k is about 1e228 at alpha = 1e-6 and 1e-240 at alpha = 1e6; h^2
    # underflows or overflows, and k^2 overflows in the defect check.
    params = ProblemParams(p=1.05, q=q, a1=1.0, a2=1.0)
    sol = solve_alpha(alpha, params)
    assert sol.regime == "subcritical"
    assert_invariants(sol, params, alpha_rtol=1e-10)
    assert residual_check(sol, 64, params) < 1e-8


@pytest.mark.parametrize("p,alpha", ((8.0, 1e12), (20.0, 100.0), (20.0, 1e4),
                                     (1.05, 1e-9), (1.05, 1e8), (3.0, 1e-200),
                                     (5.0, 1e100)))
def test_extreme_points_valid_or_typed_error(p, alpha):
    # Large p: deep in the layer d/k rounds to 1, and the tau wall caps k.
    # p = 1.05: k overflows at alpha = 1e-9 and h at 1e8. Extreme alpha:
    # beta leaves the float range.
    for q in (1.1, 2.0, 8.0):
        assert_valid_or_typed_error(alpha, ProblemParams(p=p, q=q, a1=1.0, a2=1.0))


def test_domain_grid_solved_or_typed_error(monkeypatch):
    # The documented domain's regression grid: 198 cases across all three
    # regimes, 3 of them within 1e-6 of p = 3. Every case returns a point
    # that meets its invariants or raises a package error other than
    # NoConvergence; the 15 refusals are float-range and tau-wall cases.
    # The grid's work is gated too: at most 268 curve-residual evaluations,
    # one state each, the count tools/grid_shift.py reports.
    evals = []
    state_at_t = nonlocal_curve._state_at_t
    monkeypatch.setattr(nonlocal_curve, "_state_at_t",
                        lambda *args: evals.append(args) or state_at_t(*args))
    valid = refused = 0
    for p in DOMAIN_PS:
        for q in DOMAIN_QS:
            params = ProblemParams(p=p, q=q, a1=1.0, a2=1.0)
            for alpha in DOMAIN_ALPHAS:
                try:
                    sol = solve_alpha(alpha, params)
                except NoConvergence as exc:
                    pytest.fail(f"p = {p!r}, q = {q}, alpha = {alpha}: {exc}")
                except BiflogisError:
                    refused += 1
                    continue
                assert_invariants(sol, params, alpha_rtol=1e-10)
                valid += 1
    assert valid >= 183
    assert refused == 15
    assert len(evals) <= 268, len(evals)


def _domain_grid_fields():
    # Every field of every point of the domain grid, or the error's class.
    out = {}
    for p in DOMAIN_PS:
        for q in DOMAIN_QS:
            params = ProblemParams(p=p, q=q, a1=1.0, a2=1.0)
            for alpha in DOMAIN_ALPHAS:
                try:
                    sol = solve_alpha(alpha, params)
                except BiflogisError as exc:
                    out[p, q, alpha] = type(exc).__name__
                    continue
                loc = sol.local
                out[p, q, alpha] = (loc.k, loc.gamma, loc.d, loc.layer_t,
                                    sol.h, sol.beta, sol.lam)
    return out


def test_last_newton_step_matches_tight_root(monkeypatch):
    # solve_alpha stops within 1e-8 in tau and takes that last step on the
    # log state it holds; the point must match a root settled to xtol 1e-16
    # in every field. At p = 1.05 tau is fixed only to the residual's
    # rounding, which ln k = (ln em + ln gamma)/(p-1) magnifies.
    got = _domain_grid_fields()
    solve_monotone = nonlocal_curve.solve_monotone
    monkeypatch.setattr(
        nonlocal_curve, "solve_monotone",
        lambda f, x0, lo, hi, xtol: solve_monotone(f, x0, lo, hi, xtol=1e-16))
    tight = _domain_grid_fields()
    assert sum(not isinstance(v, str) for v in got.values()) == 183
    for case, fields in got.items():
        assert type(fields) is type(tight[case]), case
        if isinstance(fields, str) or case[0] <= 1.05:
            continue
        for a, b in zip(fields, tight[case]):
            assert rel(a, b) <= 5e-13, case


def test_last_step_falls_back_to_a_tight_solve(monkeypatch):
    # Where the Newton stops with a step above 1e-8 in tau, here because the
    # first solve returns its seed, solve_alpha settles the root to xtol
    # 1e-12 rather than stepping that far on the slope. The root, t = 1.03,
    # lies on the Chebyshev panels, where the seed is the leading law.
    params = ProblemParams(p=4.0, q=3.0, a1=1.0, a2=1.0)
    want = solve_alpha(10.0, params)
    solve_monotone = nonlocal_curve.solve_monotone
    xtols = []

    def seed_first(f, x0, lo, hi, xtol):
        xtols.append(xtol)
        if len(xtols) == 1:
            f(x0)
            return x0
        return solve_monotone(f, x0, lo, hi, xtol=xtol)

    monkeypatch.setattr(nonlocal_curve, "solve_monotone", seed_first)
    sol = solve_alpha(10.0, params)
    assert xtols == [8e-8, 1e-12]
    assert rel(sol.local.k, want.local.k) <= 1e-12
    assert rel(sol.lam, want.lam) <= 1e-12


# tau = ln t from deep in the small-amplitude series branch to past T_ASYM.
PROPERTY_TAUS = [-40.0 + 5.0 * i for i in range(17)]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(p=st.floats(1.05, 20.0), q=st.floats(1.1, 8.0),
       log_alpha=st.floats(-6.0, 12.0),
       weights=st.sampled_from(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))))
def test_documented_domain_property(p, q, log_alpha, weights):
    # Over the documented domain: a typed error or a valid point, and a
    # residual that increases in t, so the root is unique where it exists.
    params = ProblemParams(p=p, q=q, a1=weights[0], a2=weights[1])
    alpha = 10.0 ** log_alpha
    assert_valid_or_typed_error(alpha, params)
    r = []
    for tau in PROPERTY_TAUS:
        state = nonlocal_curve._state_at_t(math.exp(tau), params)
        r.append(state[9] - (p - 3.0) * (math.log(alpha) - state[8]))
    assert all(lo < hi for lo, hi in zip(r, r[1:])), r


@pytest.mark.parametrize("p,alpha", ((8.0, 1e12), (20.0, 1e6), (20.0, 1e12)))
def test_tau_wall_raises_invalid_bracket(p, alpha):
    # The root lies past the upper wall of the layer coordinate, where
    # d/k = 1 - O(1/t) rounds to 1, so no float curve point exists.
    for q in (1.1, 2.0, 8.0):
        with pytest.raises(InvalidBracket, match="d would round to k"):
            solve_alpha(alpha, ProblemParams(p=p, q=q, a1=1.0, a2=1.0))


@pytest.mark.parametrize("route, x, p, wall", (
    ("point_from_k", 1e-300, 20.0, "-700"),
    ("solve_gamma", 1e-300, 20.0, "-700"),
    ("solve_for_d", 1e-300, 20.0, "-700"),
    ("point_from_gamma", 1e300, 1.05, "55"),
    ("solve_alpha", 1e-300, 20.0, "-700"),
    ("solve_alpha", 1e300, 1.05, "-700"),
))
def test_root_past_a_tau_wall_raises_invalid_bracket(route, x, p, wall):
    # The root in tau = ln t lies past one of the root-find's walls: below
    # exp(-700) for a tiny k or d at p = 20 (at p = 1.05 a huge alpha means
    # a tiny d), above exp(55) for gamma = 1e300. The error names the wall
    # and p.
    if route == "solve_alpha":
        params = ProblemParams(p=p, q=2.0, a1=1.0, a2=1.0)
        solve = nonlocal_curve.solve_alpha
    else:
        params = LocalParams(p=p)
        solve = getattr(ll, route)
    message = re.escape(f"wall t = exp({wall}) at p = {p!r}")
    with pytest.raises(InvalidBracket, match=message):
        solve(x, params)


@pytest.mark.parametrize("p", (1.05, 2.0, 2.9, 3.1, 5.0, 20.0))
def test_ln_g_finite_over_bracket(p):
    # ln N, the residual's only state-dependent term besides ln d, is
    # finite over the whole tau bracket, also where N under- or overflows;
    # so is the residual's slope.
    for q in (1.1, 2.0, 8.0):
        params = ProblemParams(p=p, q=q, a1=1.0, a2=1.0)
        for tau in (ll._TAU_LO, -50.0, 50.0, ll._TAU_HI):
            state = nonlocal_curve._state_at_t(math.exp(tau), params)
            assert math.isfinite(state[9])
            assert math.isfinite(state[11] + (p - 3.0) * state[10])


def test_flipped_slope_raises_monotonicity_violation(monkeypatch):
    # A residual whose slope at the root is negative, for every p, p = 3
    # included: the solver must refuse the point.
    # Every slope of the state turns sign, and with them dr/dtau.
    state_at_t = nonlocal_curve._state_at_t

    def flipped(*args):
        state = state_at_t(*args)
        return (*state[:4], *(-v for v in state[4:8]), *state[8:10],
                *(-v for v in state[10:]))

    monkeypatch.setattr(nonlocal_curve, "_state_at_t", flipped)
    for p in (2.0, 3.0, 5.0):
        with pytest.raises(MonotonicityViolation):
            solve_alpha(100.0, ProblemParams(p=p, q=2.0, a1=1.0, a2=0.0))


# The alpha grid of the benchmark's supercritical workload.
SUPER_GRID = tuple(np.geomspace(1e3, 1e6, 60).tolist())


@pytest.mark.parametrize("ps, alphas", [((2.0, 3.0, 4.0), DEFAULT_SUB_ALPHAS),
                                        ((6.0,), SUPER_GRID)])
def test_warm_solve_alpha_evaluations(ps, alphas, monkeypatch):
    # Newton in tau from the seed: at most 4 states per warm solve on
    # average.
    calls = []
    state_at_t = nonlocal_curve._state_at_t
    monkeypatch.setattr(nonlocal_curve, "_state_at_t",
                        lambda *args: calls.append(args) or state_at_t(*args))
    states = solves = 0
    for p in ps:
        params = ProblemParams(p=p, q=2.0, a1=1.0, a2=1.0)
        for alpha in alphas:
            solve_alpha(alpha, params)
        before = len(calls)
        for alpha in alphas:
            solve_alpha(alpha, params)
        states += len(calls) - before
        solves += len(alphas)
    assert solves <= states <= 4 * solves, states / solves


# The benchmark's three supercritical (q, a1, a2) combinations, and the
# nine q x weight combinations its subcritical sets draw from.
SUPER_COMBOS = ((2.0, 1.0, 0.0), (3.0, 0.0, 1.0), (4.0, 0.5, 0.5))
SUB_COMBOS = tuple((q, a1, a2) for q in (2.0, 3.0, 4.0)
                   for a1, a2 in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)))


@pytest.mark.parametrize("p, residuals, combos, alphas", [
    # The counts solve_alpha makes when it seeds from the branch its root
    # lands on, stops within 1e-8 in tau and takes that last Newton step on
    # the state it holds: one state per solve wherever the seed is within
    # 1e-8 of the root, as on the asymptote at p = 6.5 and 8 and in the
    # series at p = 2 and 3 on SUPER_GRID and at every p on
    # DEFAULT_SUB_ALPHAS.
    *(pytest.param(p, n, SUPER_COMBOS, SUPER_GRID, id=f"{p}-{n}")
      for p, n in ((5.0, 195), (6.5, 180), (8.0, 180), (2.0, 180),
                   (3.0, 180), (3.01, 313), (3.5, 635), (4.0, 384))),
    *(pytest.param(p, n, SUB_COMBOS, DEFAULT_SUB_ALPHAS, id=f"sub-{p}-{n}")
      for p, n in ((1.5, 45), (2.0, 45), (2.5, 45), (2.9, 45), (3.0, 45))),
])
def test_warm_solve_alpha_residuals_from_seed(p, residuals, combos, alphas,
                                              monkeypatch):
    # Residuals over a warm pass of every alpha for each combination: 180
    # solves on SUPER_GRID, 45 on DEFAULT_SUB_ALPHAS.
    calls = []
    state_at_t = nonlocal_curve._state_at_t
    monkeypatch.setattr(nonlocal_curve, "_state_at_t",
                        lambda *args: calls.append(args) or state_at_t(*args))

    def sweep():
        for q, a1, a2 in combos:
            params = ProblemParams(p=p, q=q, a1=a1, a2=a2)
            for alpha in alphas:
                solve_alpha(alpha, params)

    sweep()
    calls.clear()
    sweep()
    solves = len(combos) * len(alphas)
    assert solves <= len(calls) <= residuals, len(calls) / solves


def test_series_sweeps_calibrate_no_asymptote(fresh_caches):
    # The asymptote seed's constants read the offsets B_q, which cost a
    # quadrature each. They are formed the first time a root is seeded on
    # the asymptote, so sweeps whose roots all lie in the series, cold and
    # then warm, calibrate none.
    for _ in range(2):
        for p in (1.5, 2.0, 2.9):
            for q, a1, a2 in SUB_COMBOS:
                params = ProblemParams(p=p, q=q, a1=a1, a2=a2)
                for alpha in DEFAULT_SUB_ALPHAS:
                    solve_alpha(alpha, params)
    assert ll._B_CACHE == {}
    assert nonlocal_curve._ASYM_SEED_CACHE == {}
    assert len(nonlocal_curve._SEED_CACHE) == 3 * len(SUB_COMBOS)


# Roots four times nearer each end in x than the last: em falling by 4 in
# the series (x = alpha^{p-3} ~ em), t rising by 4 on the asymptote
# (x = alpha^{-(p-3)/2} ~ 1/J ~ 1/t).
SEED_ENDS = {"series": tuple(-math.log1p(-em) for em in (0.32, 0.08, 0.02)),
             "asymptote": (1e3, 4e3, 1.6e4)}
# The factor each end's seed miss must fall by from one root to the next.
# The series seed misses by O(x^{K+1}), K = _SEED_ORDER, so by 4^{K+1} a
# step; half of that still fails a miss of order K, which falls by 4^K.
# The asymptote seed misses by O(x^2), so by 16.
SEED_FALLS = {"series": 0.5 * 4.0 ** (nonlocal_curve._SEED_ORDER + 1),
              "asymptote": 12.0}


@pytest.mark.parametrize("p", (1.5, 2.0, 2.5, 4.0, 5.0, 8.0))
def test_seed_error_falls_like_x_squared(p):
    # The asymptote seed is one order past its leading law, so its miss of
    # the root in tau falls like x^2: by 16 when x falls by 4, where a seed
    # without c1 falls by 4. The series seed reverts its end's law to order
    # K and takes one Newton step on it, so its miss falls like x^{K+1}:
    # 2.4e-6 to 3.2e-6 in tau at em = 0.32, 7.6e-12 to 9.8e-12 at 0.08 (a
    # fall of 3.1e5 or more) and rounding at 0.02. Roots are placed
    # exactly, at alpha(t) = N^{1/(p-3)} d read off the state at t. At
    # p = 5 and q = 2, or a1 = 0, the asymptote seed is exact
    # (r = 2 ln(J - B_0 + B_2) + ...) and its miss is rounding.
    for q in (1.1, 2.0, 8.0):
        for a1, a2 in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (100.0, 0.01)):
            params = ProblemParams(p=p, q=q, a1=a1, a2=a2)
            for end, ts in SEED_ENDS.items():
                misses = []
                for t in ts:
                    state = nonlocal_curve._state_at_t(t, params)
                    ln_alpha = state[9] / (p - 3.0) + state[8]
                    misses.append(abs(nonlocal_curve._seed_tau(ln_alpha, params)
                                      - math.log(t)))
                for far, near in zip(misses, misses[1:]):
                    assert near <= max(far / SEED_FALLS[end], 1e-13), \
                        (q, a1, a2, end, misses)


@pytest.mark.parametrize("q", (1.1, 2.0, 8.0))
def test_seed_lands_the_critical_root(q):
    # At p = 3 the root N = 1 does not depend on alpha and lies at em of
    # 0.001 to 0.17 for these weights, where the series seed is within
    # 1e-8 of it (at most 8.6e-9, with a2 alone); the first-order seed
    # missed it by up to 7.5e-4. With a1 alone at q = 1.1 the root is at
    # em = 0.20 and the seed misses it by 3.5e-8.
    for a1, a2 in ((0.0, 1.0), (1.0, 1.0), (100.0, 0.01)):
        params = ProblemParams(p=3.0, q=q, a1=a1, a2=a2)
        tau = math.log(solve_alpha(1.0, params).local.layer_t)
        for alpha in (1e-6, 1.0, 1e6):
            seed = nonlocal_curve._seed_tau(math.log(alpha), params)
            assert abs(seed - tau) <= 1e-8, (a1, a2, alpha, seed - tau)


@pytest.mark.parametrize("p", (1.5, 2.0, 2.5, 2.9, 3.01, 4.0, 5.0, 8.0))
def test_series_seed_matches_theorem_3(p):
    # The seed's series G(em) = ln(alpha^{p-3}/em) against theorem 3's
    # closed forms, an independent route through the E constants: with
    # h = ln(lambda/alpha^2) = G - ((p-1)/2) ln R_2 as a series in em,
    # L0 = e^{h_0} and S = h_1 e^{-g_0}, since em = x e^{-g_0} + O(x^2)
    # for x = alpha^{p-3}. Agreement is within 1.2e-15.
    for q, a1, a2 in ((2.0, 1.0, 1.0), (4.0, 1.0, 0.0), (1.1, 0.0, 1.0),
                      (8.0, 100.0, 0.01)):
        g0, _, gs = nonlocal_curve._series_seed(
            ProblemParams(p=p, q=q, a1=a1, a2=a2))
        (j0, n0), (j2, n2) = ll._view(p, q, -1)[:2, :2].tolist()
        h0 = g0 - 0.5 * (p - 1.0) * math.log(j2 / j0)
        h1 = gs[-1] - 0.5 * (p - 1.0) * (n2 / j2 - n0 / j0)
        cs = consts.compute_all(p, q, a1, a2, "proof_variant")
        assert rel(math.exp(h0), cs.leading_coeff) <= 1e-14, (q, a1, a2)
        assert rel(h1 * math.exp(-g0), cs.second_coeff) <= 1e-14, (q, a1, a2)


@pytest.mark.parametrize("p,q,a1,a2,alpha", CASES)
def test_residual_small_on_solutions(p, q, a1, a2, alpha):
    params = ProblemParams(p=p, q=q, a1=a1, a2=a2)
    sol = solve_alpha(alpha, params)
    assert residual_check(sol, 64, params) < 1e-8


def test_residual_flags_wrong_lambda():
    # A NonlocalSolution with lam != beta gamma cannot be built, so the
    # defect check reads the fields from a plain copy.
    params = ProblemParams(p=5.0, q=2.0, a1=0.5, a2=0.5)
    sol = solve_alpha(100.0, params)
    bad = types.SimpleNamespace(**{**vars(sol), "lam": sol.lam * 1.01})
    assert residual_check(bad, 64, params) > 1e-3


def test_residual_needs_enough_points():
    params = ProblemParams(p=5.0, q=2.0, a1=1.0, a2=0.0)
    sol = solve_alpha(10.0, params)
    with pytest.raises(ValueError):
        residual_check(sol, 4, params)


@pytest.mark.parametrize("n", (5.5, 6.0, "7"))
def test_residual_needs_an_integer_count(n):
    # n is read through operator.index, as sample_profile reads its n.
    params = ProblemParams(p=5.0, q=2.0, a1=1.0, a2=0.0)
    sol = solve_alpha(10.0, params)
    with pytest.raises(ValueError, match="^n must be an integer"):
        residual_check(sol, n, params)


def _phi_prime_reference(s: float, p: float) -> float:
    """dphi/ds in 60-digit arithmetic, (p+1)(p-1)/4 at s = 1."""
    with mpmath.workdps(60):
        s, p = mpmath.mpf(s), mpmath.mpf(p)
        if s == 1:
            return float((p + 1) * (p - 1) / 4)
        return float((2 * s * (1 - s ** (p + 1)) - (p + 1) * s ** p * (1 - s ** 2))
                     / (1 - s ** 2) ** 2)


@pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 3.0, 8.0, 20.0, 100.0, 1000.0))
def test_phi_prime_against_mpmath(p):
    # One formula for every s < 1, no NumPy warning. The two-formula form it
    # replaced was 4.6e-7 off at p = 1.05, 1 - s = 1.5e-8, just above its
    # switch, and 2.0e-11 at p = 1000 just below it.
    s = np.concatenate((1.0 - np.logspace(-14, math.log10(0.999), 200),
                        (1.0, 1.0 - 1.5e-8, 1.0 - 9e-9)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nonlocal_curve._phi_prime(s, p)
    for si, v in zip(s.tolist(), got.tolist()):
        assert abs(v / _phi_prime_reference(si, p) - 1.0) <= 1e-12, (p, si)


# ------------------------------------------------------- curve monotonics


def test_g_of_k_consistency():
    for p, q, a1, a2, alpha in ((5.0, 2.0, 0.5, 0.5, 200.0),
                                (2.0, 2.0, 1.0, 1.0, 80.0)):
        params = ProblemParams(p=p, q=q, a1=a1, a2=a2)
        sol = solve_alpha(alpha, params)
        assert rel(g_of_k(sol.local.k, params), alpha) < 1e-9


def test_g_of_k_validation():
    params = ProblemParams(p=5.0, q=2.0, a1=1.0, a2=0.0)
    with pytest.raises(ValueError):
        g_of_k(0.0, params)
    with pytest.raises(InvalidRegime):
        g_of_k(1.0, ProblemParams(p=3.0, q=2.0, a1=1.0, a2=0.0))


@pytest.mark.parametrize("p, q, a1, a2", [(3.01, 2.0, 1e10, 1.0),
                                          (2.99, 2.0, 1e10, 1.0),
                                          (5.0, 8.0, 1e308, 1e308)])
def test_g_of_k_past_the_double_range_is_typed(p, q, a1, a2):
    # N^{1/(p-3)} near p = 3, and N = a1 ||w||_q^2 + a2 d^2 itself at
    # weights near the largest double, leave the double range: Overflow,
    # not a bare OverflowError, 0.0 or inf.
    with pytest.raises(Overflow):
        g_of_k(1.0, ProblemParams(p=p, q=q, a1=a1, a2=a2))


def test_d_monotone_along_curve():
    alphas = [10.0, 30.0, 100.0, 300.0]
    up = ProblemParams(p=5.0, q=2.0, a1=0.5, a2=0.5)
    ds = [solve_alpha(a, up).local.d for a in alphas]
    assert all(x < y for x, y in zip(ds, ds[1:]))
    down = ProblemParams(p=2.0, q=2.0, a1=0.5, a2=0.5)
    ds = [solve_alpha(a, down).local.d for a in alphas]
    assert all(x > y for x, y in zip(ds, ds[1:]))


def test_critical_q2_exact_quadratic_scaling():
    # q = 2 at p = 3: the normalized local point is independent of alpha,
    # so lambda(c alpha) = c^2 lambda(alpha) to rounding.
    params = ProblemParams(p=3.0, q=2.0, a1=0.5, a2=0.5)
    base = solve_alpha(1.0, params)
    for c in (7.3, 120.0):
        sol = solve_alpha(c, params)
        assert sol.local.d == base.local.d
        assert rel(sol.lam, c * c * base.lam) < 1e-14


def test_critical_q4_normalization_root():
    # q != 2 has no closed-form normalization point; the root-found one
    # must still satisfy a1 ||w||_q^2 + a2 d^2 = 1.
    params = ProblemParams(p=3.0, q=4.0, a1=1.0, a2=0.5)
    sol = solve_alpha(25.0, params)
    wq = wq_of(sol, params)
    assert abs(params.a1 * wq * wq + params.a2 * sol.local.d ** 2 - 1.0) < 1e-8


def test_to_record_keys():
    params = ProblemParams(p=2.0, q=2.0, a1=1.0, a2=0.0)
    rec = solve_alpha(50.0, params).to_record()
    assert set(rec) == {"alpha", "k", "d", "gamma", "h", "beta", "lambda"}
    assert rec["lambda"] == pytest.approx(rec["beta"] * rec["gamma"])
