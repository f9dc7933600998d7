"""Time-map solver against frozen references and closed-form limits.

ORACLE values are high-precision (mpmath, 60 digits) evaluations of the same
defining integrals, generated by tools/gen_oracle_values.py and committed
before this module existed; agreement is to solver tolerance, not shared code.
"""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle_values import ORACLE
from biflogis import kernels, quadrature, verify
from biflogis import local_logistic as ll
from biflogis import nonlocal_curve as nc
from biflogis.errors import InvalidBracket, NoConvergence, NoSolution
from biflogis.local_logistic import (LocalParams, LocalPoint, phi,
                                     point_from_gamma, point_from_k,
                                     point_q_norm, q_norm, sample_profile,
                                     solve_for_d, solve_gamma, time_map)
from biflogis.quadrature import integrate

PR2 = LocalParams(p=2.0)
PR3 = LocalParams(p=3.0)
PR5 = LocalParams(p=5.0)


# --- phi ---------------------------------------------------------------------

def test_phi_trivial_values():
    assert phi(0.0, 2.0) == 1.0
    assert abs(phi(1.0, 3.0) - 2.0) < 1e-14
    assert abs(phi(1.0, 2.0) - 1.5) < 1e-14
    assert abs(phi(0.5, 3.0) - 1.25) < 1e-14


def test_phi_branch_continuity():
    # Straddle 1 - s = 1e-6 by single float steps in s so the genuine slope
    # term (|dphi/du| = (p+1)(p-1)/4) stays below the bound and any jump
    # would dominate.
    for p in (2.0, 2.5, 3.0, 5.0):
        lo = 1.0 - 1e-6
        while not (1.0 - lo) > 1e-6:
            lo = math.nextafter(lo, 0.0)
        hi = 1.0 - 1e-6
        while not (1.0 - hi) < 1e-6:
            hi = math.nextafter(hi, 1.0)
        assert abs(phi(lo, p) - phi(hi, p)) < 1e-14


def _phi_reference(s: float, p: float) -> float:
    """(1 - s^{p+1})/(1 - s^2) in 50-digit arithmetic, (p+1)/2 at s = 1."""
    with mpmath.workdps(50):
        s, p = mpmath.mpf(s), mpmath.mpf(p)
        if s == 1:
            return float((p + 1) / 2)
        return float((1 - s ** (p + 1)) / (1 - s ** 2))


@pytest.mark.parametrize("p", (1.001, 1.05, 2.0, 20.0, 100.0, 300.0, 1000.0))
def test_phi_against_mpmath(p):
    # One formula for every s < 1, no NumPy warning at s = 0 or s = 1. The
    # expansion it replaced below 1 - s = 1e-6 was 3.0e-11 off at p = 1000,
    # 1 - s = 9e-7.
    s = np.concatenate((1.0 - np.logspace(-16, 0, 200),
                        (0.0, 1.0 - 9e-7, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phi(s, p)
        assert phi(0.0, p) == 1.0 and phi(1.0, p) == 0.5 * (p + 1.0)
    for si, v in zip(s.tolist(), got.tolist()):
        assert abs(v / _phi_reference(si, p) - 1.0) <= 1e-15, (p, si)


def test_phi_vectorized():
    s = np.linspace(0.0, 1.0, 11)
    vals = phi(s, 3.0)
    assert vals.shape == s.shape
    # p = 3: phi(s) = 1 + s^2 exactly
    assert np.max(np.abs(vals - (1.0 + s * s))) < 1e-12


# --- stacked moments -----------------------------------------------------------

def _quad_moment(t, p, q):
    """J_q at layer coordinate t from its own one-row quadrature."""
    return float(ll._layer_moments(math.exp(-t), -math.expm1(-t), p, q))


def _moments_off_state(state, q):
    """(J_0, J_2, J_q, dJ_0/dtau, dJ_2/dtau, dJ_q/dtau) read back off a log
    state at q: J_0 = e^{ln gamma/2}/2, J_2 = J_0 (d/k)^2 and
    J_q = J_0 (||w||_q/k)^q, each slope J_r d(ln J_r)/dtau."""
    j0 = 0.5 * math.exp(0.5 * state[1])
    j2 = j0 * math.exp(2.0 * state[2])
    jq = j0 * math.exp(q * state[3])
    dln_j0 = 0.5 * state[5]
    return (j0, j2, jq, j0 * dln_j0, j2 * (dln_j0 + 2.0 * state[6]),
            jq * (dln_j0 + q * state[7]))


def _moments_by_q(t, p, qs):
    """{q: J_q at t} for q = 0, 2 and every q in qs, read back off one log
    state per q in qs."""
    out = {}
    for q in qs:
        state = ll._log_state_at_t(t, p, q)
        assert len(state) == 8
        m = _moments_off_state(state, q)
        out.update({0.0: m[0], 2.0: m[1], q: m[2]})
    return out


@pytest.mark.parametrize("p", (1.5, 2.0, 2.5, 5.0))
def test_moments_at_t_match_single_moments(p):
    # The stacked moments of every branch against one one-row quadrature
    # per q.
    for t in (1e-6, 0.3, 5.0, 30.0):
        stacked = _moments_by_q(t, p, (3.0, 4.0))
        assert sorted(stacked) == [0.0, 2.0, 3.0, 4.0]
        for q, jq in stacked.items():
            assert abs(jq / _quad_moment(t, p, q) - 1.0) <= 1e-14


# --- small-t series branch ------------------------------------------------------

SERIES_TS = [*np.geomspace(1e-12, ll.T_SERIES, 12).tolist()[:-1], ll.T_SERIES]


@pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 2.5, 2.9, 3.0, 4.0, 8.0))
def test_series_branch_matches_quadrature(p):
    # The quadrature branch is the independent cross-check: it integrates
    # in the sinh variable, the series coefficients are integrals in theta.
    for t in SERIES_TS:
        for q, js in _moments_by_q(t, p, (1.1, 4.0, 8.0)).items():
            assert abs(js / _quad_moment(t, p, q) - 1.0) <= 1e-14, (t, q)


def test_series_tail_bound_at_switch():
    # The terms after the last cached one are at most b_{N-1} em^N/(1 - em)
    # of the sum, b_n = C(2n, n)/4^n; the bound grows with t, so holding at
    # T_SERIES it holds on the whole series branch.
    n = ll._S_TERMS - 1
    b = [math.comb(2 * m, m) / 4 ** m for m in range(n + 1)]
    assert np.max(np.abs(ll._S_BINOM / b - 1.0)) <= 1e-14
    em = -math.expm1(-ll.T_SERIES)
    assert b[n] * em ** (n + 1) / (1.0 - em) <= 2.0 ** -53


@pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 2.9, 3.0, 4.0, 8.0))
def test_log_state_monotone_across_series_switch(p):
    # Bracket and Brent need a monotone state where the branches meet:
    # ln k, ln gamma, ln(d/k) and ln(||w||_q/k), so ln d and ln ||w||_q too.
    ts = (ll.T_SERIES * (1.0 - 1e-12), ll.T_SERIES, ll.T_SERIES * (1.0 + 1e-12))
    for q in (1.1, 4.0):
        states = [ll._log_state_at_t(t, p, q)[:4] for t in ts]
        for lo, hi in zip(states, states[1:]):
            assert all(a <= b for a, b in zip(lo, hi)), q


# --- middle Chebyshev branch ----------------------------------------------------

# Interior panel edges of the interpolant in tau = ln t.
CHEB_EDGES = [math.exp(ll._CHEB_TAU0 + ll._CHEB_WIDTH * i)
              for i in range(1, ll._CHEB_PANELS)]


def _panel_mid(panel):
    return math.exp(ll._CHEB_TAU0 + (panel + 0.5) * ll._CHEB_WIDTH)


@pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 2.9, 3.0, 4.0, 8.0))
def test_log_state_monotone_across_panel_edges_and_asym_switch(p):
    # As across T_SERIES: neighbouring panels, and the last panel and the
    # asymptote, must not step backwards where they meet.
    for edge in (*CHEB_EDGES, ll.T_ASYM):
        ts = (edge * (1.0 - 1e-12), edge, edge * (1.0 + 1e-12))
        for q in (1.1, 4.0):
            states = [ll._log_state_at_t(t, p, q)[:4] for t in ts]
            for lo, hi in zip(states, states[1:]):
                assert all(a <= b for a, b in zip(lo, hi)), (edge, q)


@pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 2.5, 2.9, 3.0, 4.0, 8.0, 20.0))
def test_chebyshev_branch_matches_quadrature(p, monkeypatch):
    # Held out: random tau and every panel edge (the outer two one ulp
    # inside the branch), against one-row quadratures at rel_tol 1e-15: at
    # the default 1e-12 the reference itself can miss by more than 1e-14
    # (1.33e-14 at p = 2.5, q = 2, t = 1.30605). At 1e-15 the q = 1.1
    # weight's endpoint needs more than 30 refinement rounds deep in the
    # layer, so the reference gets 60. The Chebyshev values are read first,
    # so their cached calibrations keep the default tolerance.
    rng = np.random.default_rng(round(100 * p))
    taus = rng.uniform(math.log(ll.T_SERIES), math.log(ll.T_ASYM), 12)
    ts = [math.nextafter(ll.T_SERIES, math.inf), *CHEB_EDGES,
          math.nextafter(ll.T_ASYM, 0.0), *np.exp(taus).tolist()]
    cheb = [_moments_by_q(t, p, (1.1, 4.0, 8.0)) for t in ts]
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-15)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 60)
    for t, row in zip(ts, cheb):
        for q, jq in row.items():
            assert abs(jq / _quad_moment(t, p, q) - 1.0) <= 1e-14, (t, q)


# Every branch and where they meet: T_SERIES and T_ASYM with one ulp either
# side, and the interior panel edges.
BRANCH_TS = [math.nextafter(ll.T_SERIES, 0.0), ll.T_SERIES,
             math.nextafter(ll.T_SERIES, math.inf), *CHEB_EDGES,
             math.nextafter(ll.T_ASYM, 0.0), ll.T_ASYM,
             math.nextafter(ll.T_ASYM, math.inf)]


@pytest.mark.parametrize("p", (1.05, 2.0, 3.0, 8.0))
def test_fixed_layout_invariants(p):
    # ln k, ln gamma and ln(d/k), which J_0 and J_2 alone make, keep their
    # bits and their slopes' whichever q they are stacked with; every
    # moment read back off the state still matches its own one-row
    # quadrature. At q = 2 the ||w||_q entries are d's own, to the bit, in
    # the local state and in the curve's, whose ln d (entry 8) and its slope
    # (entry 10) are ln k plus ln(d/k); with a1 = a2 = 1 its ln N (entry 9)
    # is then 2 ln d + ln 2, and its slope (entry 11) twice ln d's.
    qs = (1.1, 2.0, 4.0)
    params = nc.ProblemParams(p=p, q=2.0, a1=1.0, a2=1.0)
    for t in BRANCH_TS:
        states = [ll._log_state_at_t(t, p, q) for q in qs]
        for state in states[1:]:
            assert state[:3] == states[0][:3], t
            assert state[4:7] == states[0][4:7], t
        for q, jq in _moments_by_q(t, p, qs).items():
            assert abs(jq / _quad_moment(t, p, q) - 1.0) <= 1e-14, (t, q)

        state = states[1]
        assert state[3] == state[2] and state[7] == state[6], t
        curve = nc._state_at_t(t, params)
        assert curve[:8] == state and curve[3] == curve[2], t
        assert curve[8] == state[0] + state[2], t
        assert curve[10] == state[4] + state[6], t
        assert curve[9] == 2.0 * curve[8] + math.log(2.0), t
        assert curve[11] == 2.0 * curve[10], t


def _ln_k_from_gamma(state, t, p):
    """ln k and its slope composed from the state's ln gamma = ln(4 J_0^2)
    and its slope at t, by k^{p-1} = 4 em J_0^2 with em, ln em and
    d(ln em)/dtau formed again."""
    em = -math.expm1(-t)
    return ((math.log(em) + state[1]) / (p - 1.0),
            (t * math.exp(-t) / em + state[5]) / (p - 1.0))


# p = 1e4 is where d(ln em)/dtau = t e^-t, at most 4.1e-17 on the
# asymptote, reaches the last bit of the slope of ln k: below p ~ 1e4 it is
# under half an ulp of 2 dJ_0/J_0.
@pytest.mark.parametrize("p", (1.05, 2.0, 3.0, 5.0, 20.0, 100.0, 1e4))
def test_log_state_matches_the_state_from_moments(p):
    # ln k and its slope are composed from ln gamma and its slope, on every
    # branch, at every switch point and one ulp either side, and at random
    # t, to the bit, ln em = 0 and d(ln em)/dtau = t e^-t on the asymptote
    # included. The other entries are held to one-row quadratures by the
    # tests above, through _moments_off_state.
    rng = np.random.default_rng(round(100 * p))
    ts = [1e-12, 0.1, *BRANCH_TS, _exact_node_t(),
          *map(_panel_mid, range(ll._CHEB_PANELS)), 1e3, 1e6,
          *np.exp(rng.uniform(math.log(1e-6), math.log(1e4), 40)).tolist()]
    for q in (1.1, 2.0, 4.0, 8.0):
        for t in ts:
            state = ll._log_state_at_t(t, p, q)
            assert (state[0], state[4]) == _ln_k_from_gamma(state, t, p), \
                (t, q)


@pytest.fixture
def cheb_cache(fresh_caches, monkeypatch):
    """An empty Chebyshev coefficient cache and the integrate calls made.
    Every other cache is emptied too: a stacked view left from an earlier
    test would answer without reading the coefficient cache."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ll, "integrate", counted)
    return ll._C_CACHE, calls


def test_cold_panel_is_one_quadrature(cheb_cache):
    # One integrate call per cold (q, panel), none once it is warm.
    store, calls = cheb_cache
    t = _panel_mid(2)
    ll._log_state_at_t(t, 3.0, 2.0)
    assert len(calls) == 2 and len(store) == 2
    ll._log_state_at_t(t * 1.01, 3.0, 2.0)
    assert len(calls) == 2
    # Only the q the panel lacks is calibrated.
    ll._log_state_at_t(t, 3.0, 4.0)
    assert len(calls) == 3 and len(store) == 3
    ll._log_state_at_t(_panel_mid(3), 3.0, 4.0)
    assert len(calls) == 6 and len(store) == 6


def test_calibration_does_not_depend_on_history(fresh_caches):
    # A q's Chebyshev coefficients come from its own quadrature, so states
    # and a curve point at q = 3 keep their bits whether or not q = 2 was
    # calibrated at the same p first. The root lies on the Chebyshev branch.
    # The params are built after the caches are emptied, so each run also
    # builds its own seed constants.
    p = 8.0
    ts = [_panel_mid(panel) for panel in range(ll._CHEB_PANELS)]
    runs = []
    for q2_first in (False, True):
        fresh_caches()
        params = nc.ProblemParams(p=p, q=3.0, a1=1.0, a2=1.0)
        if q2_first:
            for t in ts:
                ll._log_state_at_t(t, p, 2.0)
        states = [ll._log_state_at_t(t, p, 3.0) for t in ts]
        runs.append((states, nc.solve_alpha(10.0 ** 0.1, params)))
    assert ll.T_SERIES < runs[0][1].local.layer_t < ll.T_ASYM
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


# a1 = a2 per p that puts the roots below on the middle branch: at p = 3
# the root N = 1 then lies near t = 2.5.
MIDDLE_WEIGHT = {3.0: 0.02, 4.0: 1.0}


@pytest.mark.parametrize("p, q, alphas", [
    (3.0, 2.0, verify.DEFAULT_SUB_ALPHAS),
    (3.0, 3.0, verify.DEFAULT_SUB_ALPHAS),
    (4.0, 2.0, (1e3, 10.0 ** 3.5)),
])
def test_warm_solve_alpha_makes_no_quadrature(p, q, alphas, monkeypatch):
    a = MIDDLE_WEIGHT[p]
    params = nc.ProblemParams(p=p, q=q, a1=a, a2=a)
    cold = [nc.solve_alpha(alpha, params) for alpha in alphas]
    calls = []
    monkeypatch.setattr(ll, "integrate", lambda *args, **kwargs:
                        calls.append(args) or integrate(*args, **kwargs))
    warm = [nc.solve_alpha(alpha, params) for alpha in alphas]
    assert calls == []
    assert all(ll.T_SERIES < sol.local.layer_t < ll.T_ASYM for sol in warm)
    assert warm == cold


def test_warm_sweep_at_new_q_calibrates_only_that_q(fresh_caches, monkeypatch):
    # At a p calibrated for q = 2 on every branch, a sweep at q = 3 adds
    # only q = 3 calibrations, one integrate call each: the stacked views
    # are built from the per-q caches, not calibrated anew, and B_3 is
    # B_0 - C3/2, algebra on two of them. A second sweep integrates nothing.
    p = 2.5
    caches = ("_S_CACHE", "_CQ_CACHE", "_C_CACHE")
    alphas = (1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e6)
    for t in (0.1, *map(_panel_mid, range(ll._CHEB_PANELS)), 2.0 * ll.T_ASYM):
        ll._log_state_at_t(t, p, 2.0)
    for alpha in alphas:
        nc.solve_alpha(alpha, nc.ProblemParams(p=p, q=2.0, a1=1.0, a2=1.0))
    before = {name: set(getattr(ll, name)) for name in caches}
    b_before = set(ll._B_CACHE)
    calls = []
    monkeypatch.setattr(ll, "integrate", lambda *args, **kwargs:
                        calls.append(args) or integrate(*args, **kwargs))
    params = nc.ProblemParams(p=p, q=3.0, a1=1.0, a2=1.0)
    sols = [nc.solve_alpha(alpha, params) for alpha in alphas]
    added = [key for name in caches for key in getattr(ll, name)
             if key not in before[name]]
    # The roots reach all three branches.
    ts = [sol.local.layer_t for sol in sols]
    assert min(ts) <= ll.T_SERIES and max(ts) >= ll.T_ASYM
    assert any(ll.T_SERIES < t < ll.T_ASYM for t in ts)
    assert added and all(key[1] == 3.0 for key in added), added
    assert len(calls) == len(added)
    assert set(ll._B_CACHE) - b_before == {(p, 3.0)}
    calls.clear()
    assert [nc.solve_alpha(alpha, params) for alpha in alphas] == sols
    assert calls == []


def test_view_cache_holds_one_view_per_p_q_branch(fresh_caches):
    # After sweeps at two q, the second spelled once as a float and once as
    # an int, and the local routes at the same p, _VIEW_CACHE holds one view
    # per (p, q, branch) reached and no other: the rows J_0, J_2, J_q, then
    # their slopes, copied from the per-q calibrations.
    p = 2.5
    alphas = (1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e6)
    for q in (2.0, 3.0, 3):
        verify.sweep(nc.ProblemParams(p=p, q=q, a1=1.0, a2=1.0), alphas)
    lp = LocalParams(p=p)
    time_map(2.0, 50.0, lp)
    q_norm(2.0, 50.0, 3.0, lp)
    point_q_norm(point_from_k(2.0, lp), 3.0, lp)
    keys = list(ll._VIEW_CACHE)
    assert {key[:2] for key in keys} == {(p, 2.0), (p, 3.0)}
    branches = {key[2] for key in keys if key[1] == 3.0}
    assert {-1, ll._CHEB_PANELS} < branches \
        <= set(range(-1, ll._CHEB_PANELS + 1))
    assert len(keys) <= 2 * (ll._CHEB_PANELS + 2)
    for (_, q, branch), view in ll._VIEW_CACHE.items():
        qs = (0.0, 2.0, q)
        if branch == ll._CHEB_PANELS:
            assert view == tuple(ll._b_shift(p, x) for x in qs)
            continue
        rows = [ll._series_coeffs(p, x) if branch < 0
                else ll._cheb_coeffs(p, x, branch) for x in qs]
        assert view.shape == (6, rows[0].shape[1])
        for i in range(6):
            assert np.array_equal(view[i], rows[i % 3][i // 3]), (q, branch, i)


def test_unresolved_panel_raises_and_caches_nothing(cheb_cache, monkeypatch):
    # Eight points cannot hold J_q to the quadrature's tolerance.
    store, calls = cheb_cache
    monkeypatch.setattr(ll, "_CHEB_POINTS", 8)
    with pytest.raises(NoConvergence, match="Chebyshev panel"):
        ll._log_state_at_t(_panel_mid(0), 3.0, 2.0)
    assert len(calls) == 1 and store == {}


# --- slopes in tau = ln t ----------------------------------------------------------

def _exact_node_t():
    """A t whose interpolation variable is exactly a first-kind Chebyshev
    point, one of those the panel was calibrated at."""
    n = ll._CHEB_POINTS
    nodes = np.cos((2.0 * np.arange(n) + 1.0) * (0.5 * math.pi / n)).tolist()
    for panel in range(ll._CHEB_PANELS):
        for x in nodes:
            t = math.exp(ll._CHEB_TAU0 + ll._CHEB_WIDTH * (panel + 0.5 * (1.0 + x)))
            s = (math.log(t) - ll._CHEB_TAU0) / ll._CHEB_WIDTH
            if 2.0 * (s - min(int(s), ll._CHEB_PANELS - 1)) - 1.0 == x:
                return t
    raise AssertionError("no t maps exactly onto a Chebyshev point")


# Every branch: deep and near the top of the series, both sides of T_SERIES
# and T_ASYM, every panel edge and an exact Chebyshev point in between, and
# the asymptote.
SLOPE_TAUS = [-30.0, -5.0, math.log(0.2),
              *(math.log(t) + d for t in (ll.T_SERIES, *CHEB_EDGES, ll.T_ASYM)
                for d in (-1e-4, 0.0, 1e-4)),
              math.log(_exact_node_t()), math.log(_panel_mid(4)), 45.0]
SLOPE_STEP = 1e-5


def _central(f, tau):
    return (f(tau + SLOPE_STEP) - f(tau - SLOPE_STEP)) / (2.0 * SLOPE_STEP)


@pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 2.9, 3.0, 4.0, 8.0, 20.0))
def test_log_state_slopes_match_central_differences(p):
    qs = (1.1, 2.0, 8.0)

    def values(tau, q):
        return np.array(ll._log_state_at_t(math.exp(tau), p, q)[:4])

    for tau in SLOPE_TAUS:
        for q in qs:
            slopes = np.array(ll._log_state_at_t(math.exp(tau), p, q)[4:])
            refs = _central(lambda x: values(x, q), tau)
            assert np.all(np.abs(slopes - refs)
                          <= 1e-6 * np.maximum(1.0, np.abs(refs))), \
                (tau, q, slopes, refs)
            # The curve residual's slope is d(ln N)/dtau + (p-3) d(ln d)/dtau,
            # entries 11 and 10 of the curve state, the slopes of 9 and 8.
            params = nc.ProblemParams(p=p, q=q, a1=0.3, a2=0.7)
            slopes = np.array(nc._state_at_t(math.exp(tau), params)[10:])
            refs = _central(lambda x: np.array(
                nc._state_at_t(math.exp(x), params)[8:10]), tau)
            assert np.all(np.abs(slopes - refs)
                          <= 1e-6 * np.maximum(1.0, np.abs(refs))), \
                (tau, q, slopes, refs)


def test_exact_node_slopes_continue_the_interpolant():
    # A calibration point has no branch of its own: the Chebyshev series
    # and its derivative are continuous there, so one float step away the
    # value and slope barely move.
    t = _exact_node_t()
    for p in (1.05, 3.0, 20.0):
        at = _moments_off_state(ll._log_state_at_t(t, p, 2.0), 2.0)
        near = _moments_off_state(
            ll._log_state_at_t(math.nextafter(t, math.inf), p, 2.0), 2.0)
        for i in range(2):
            assert abs(near[i] / at[i] - 1.0) <= 1e-14
            assert abs(near[i + 3] / at[i + 3] - 1.0) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=st.floats(1.05, 8.0), tau=st.floats(math.log(1e-10), 0.0))
def test_log_state_monotone_in_t(p, tau):
    t = math.exp(tau)
    lo = ll._log_state_at_t(t, p, 2.0)
    hi = ll._log_state_at_t(t * (1.0 + 1e-6), p, 2.0)
    # ln k, ln gamma and ln d = ln k + ln(d/k).
    assert lo[0] <= hi[0] and lo[1] <= hi[1]
    assert lo[0] + lo[2] <= hi[0] + hi[2]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=st.floats(1.05, 8.0), tau=st.floats(math.log(1e-10), 0.0))
def test_round_trip_t_d_k(p, tau):
    # Through d, not gamma: at small t, gamma - pi^2 ~ t makes the gamma
    # inversion ill-conditioned.
    lp = LocalParams(p=p)
    t = math.exp(tau)
    point = ll._point_from_t(t, p, ll._log_state_at_t(t, p, 2.0))
    assert abs(solve_for_d(point.d, lp).k / point.k - 1.0) <= 1e-12


@pytest.mark.parametrize("p", (1.05, 2.0, 2.9, 3.1, 5.0, 20.0))
def test_inverse_residuals_finite_over_bracket(p, monkeypatch):
    # The root-find may evaluate any tau up to the walls, where k itself
    # under- or overflows: the k, gamma and d residuals and their slopes
    # must stay finite.
    resids = []

    def solve_monotone(f, *args, **kwargs):
        # As the real one, the last evaluation is at the returned root.
        resids.append(f)
        f(0.0)
        return 0.0

    monkeypatch.setattr(ll, "solve_monotone", solve_monotone)
    lp = LocalParams(p=p)
    ll._t_from_k(1.0, lp)
    ll._t_from_gamma(20.0, lp)
    ll._t_from_d(0.5, lp)
    assert len(resids) == 3
    for tau in (ll._TAU_LO, -50.0, 50.0, ll._TAU_HI):
        for resid in resids:
            r, dr = resid(tau)
            assert math.isfinite(r) and math.isfinite(dr)


# --- time_map ----------------------------------------------------------------

def test_time_map_small_k_arcsin_limit():
    for gamma in (10.0, 50.0):
        T = time_map(1e-10, gamma, PR3)
        assert abs(T - math.pi / (2.0 * math.sqrt(gamma))) < 1e-12


def test_time_map_half_at_pi2():
    T = time_map(1e-8, math.pi ** 2, PR3)
    assert abs(T - 0.5) < 1e-10


def test_time_map_frozen_value():
    T = time_map(1.0, 2.0, PR3)
    assert abs(T / ORACLE["T[p=3,k=1,gamma=2]"] - 1.0) < 1e-12


def test_time_map_independent_theta_substitution():
    # Same integral through theta = arcsin s with the package's own
    # Gauss rule: T = (1/sqrt(g)) int_0^{pi/2} (1 - mu phi(sin t))^{-1/2} dt.
    # Different substitution, different singularity handling.
    for (p, k, gamma) in ((3.0, 1.0, 2.0), (2.0, 1.0, 3.0), (5.0, 1.2, 9.0)):
        mu = 2.0 * k ** (p - 1.0) / ((p + 1.0) * gamma)

        def f(t):
            return 1.0 / np.sqrt(1.0 - mu * phi(np.sin(t), p))

        ref = integrate(f, 0.0, math.pi / 2.0).value / math.sqrt(gamma)
        T = time_map(k, gamma, LocalParams(p=p))
        assert abs(T - ref) < 1e-10


def test_time_map_monotone_in_gamma():
    # strict decrease on a 5x5 grid: the property bisection relies on
    for p in (2.0, 2.5, 3.0, 4.0, 5.0):
        pr = LocalParams(p=p)
        for k in (0.1, 0.5, 1.0, 2.0, 4.0):
            gammas = k ** (p - 1.0) + np.array([0.5, 1.0, 2.0, 4.0, 8.0])
            Ts = [time_map(k, g, pr) for g in gammas]
            assert all(a > b for a, b in zip(Ts, Ts[1:]))


@pytest.mark.parametrize("p", (1.05, 3.0, 20.0))
def test_pair_maps_match_quadrature(p):
    # time_map and q_norm read the calibrated moments at t = -ln(1 - nu),
    # nu = k^{p-1}/gamma; against the quadrature at eps = 1 - nu, on every
    # branch they reach and at nu = 1 - 1e-12, deep in the layer.
    pr = LocalParams(p=p)
    k = 2.0
    for target in (1e-3, 0.5, 0.9999, 1.0 - 1e-12):
        gamma = k ** (p - 1.0) / target
        nu = k ** (p - 1.0) / gamma
        j0, j4 = (float(ll._layer_moments(1.0 - nu, nu, p, q))
                  for q in (0.0, 4.0))
        T = time_map(k, gamma, pr)
        assert abs(T / (j0 / math.sqrt(gamma)) - 1.0) <= 1e-14, target
        w4 = q_norm(k, gamma, 4.0, pr)
        assert abs(w4 / (k * (j4 / j0) ** 0.25) - 1.0) <= 1e-14, target


def test_pair_maps_where_k_power_underflows():
    # k^{p-1} = 0 in float64 is the eps = 1 end, where J0 = pi/2 and
    # J2 = pi/4: T = pi/(2 sqrt(gamma)) and ||w||_2 = k/sqrt(2).
    gamma = 20.0
    assert 1e-200 ** 2 == 0.0
    T = time_map(1e-200, gamma, PR3)
    assert abs(T / (0.5 * math.pi / math.sqrt(gamma)) - 1.0) <= 1e-14
    d = q_norm(1e-200, gamma, 2.0, PR3)
    assert abs(d / (1e-200 / math.sqrt(2.0)) - 1.0) <= 1e-14


@pytest.mark.parametrize("route, x, p", (
    ("point_from_k", 1e-315, 1.2),
    ("point_from_k", sys.float_info.min, 1.2),
    ("solve_for_d", 1e-315, 1.2),
    # The least float gamma above pi^2 puts t at 2.2e-16, where k is
    # subnormal only near p = 1.0465 (5e-74 at p = 1.2).
    ("point_from_gamma", math.nextafter(math.pi ** 2, math.inf), 1.0465),
), ids=("k", "least-normal-k", "d", "gamma"))
def test_no_point_with_a_subnormal_field(route, x, p):
    # A subnormal d or k (d = k/sqrt(2) there) keeps a few of its digits
    # only: no float point represents the curve.
    with pytest.raises(InvalidBracket, match="^d = .* normal double range"):
        getattr(ll, route)(x, LocalParams(p=p))
    # Twice the least normal k still gives a normal d.
    point = point_from_k(2.0 * sys.float_info.min, LocalParams(p=p))
    assert point.d >= sys.float_info.min


def test_time_map_rejects_gamma_below_amplitude():
    with pytest.raises(InvalidBracket):
        time_map(2.0, 3.9, PR3)  # k^2 = 4 > gamma


@pytest.mark.parametrize("p, k, gamma", ((3.0, 1e200, 1e300),
                                         (20.0, 1e30, 1e300)))
def test_pair_maps_where_k_power_overflows(p, k, gamma):
    # k^{p-1} leaves the float range, so it exceeds every finite gamma: a
    # pair off the curve's domain, not an OverflowError.
    pr = LocalParams(p=p)
    with pytest.raises(InvalidBracket):
        time_map(k, gamma, pr)
    with pytest.raises(InvalidBracket):
        q_norm(k, gamma, 2.0, pr)


def test_pair_maps_validate_k_and_gamma():
    # Both maps share one check: a negative k would raise TypeError from a
    # complex power.
    pr = LocalParams(p=2.5)
    for k, gamma in ((-1.0, 20.0), (0.0, 20.0), (math.nan, 20.0),
                     (1.0, -1.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            time_map(k, gamma, pr)
        with pytest.raises(ValueError):
            q_norm(k, gamma, 2.0, pr)


# --- solve_gamma -------------------------------------------------------------

def test_solve_gamma_frozen_values():
    assert abs(solve_gamma(1.0, PR3) / ORACLE["gamma[p=3,k=1]"] - 1) < 1e-12
    assert abs(solve_gamma(1.0, PR2) / ORACLE["gamma[p=2,k=1]"] - 1) < 1e-12
    assert abs(solve_gamma(2.0, PR5) / ORACLE["gamma[p=5,k=2]"] - 1) < 1e-12
    # next to the bifurcation point, where gamma - pi^2 ~ k^{p-1}
    for p, pr in (("2", PR2), ("3", PR3), ("5", PR5)):
        ref = ORACLE[f"gamma[p={p},k=1e-6]"]
        assert abs(solve_gamma(1e-6, pr) / ref - 1) < 1e-12


def test_solve_gamma_small_amplitude_is_pi2():
    g = solve_gamma(1e-6, PR3)
    assert abs(g / math.pi ** 2 - 1.0) < 1e-8


def test_solve_gamma_consistency_with_time_map():
    for (pr, k) in ((PR2, 0.7), (PR3, 1.0), (PR5, 2.0)):
        g = solve_gamma(k, pr)
        assert abs(time_map(k, g, pr) - 0.5) < 1e-12


def test_solve_gamma_deep_layer_scale():
    # k = 100, p = 5: gamma = k^4 (1 + o(1)); eps underflows so the ratio
    # collapses to 1.0 exactly in float64, still inside [1, 1.01)
    g = solve_gamma(100.0, PR5)
    ratio = g / 100.0 ** 4
    assert 1.0 <= ratio < 1.01
    point = point_from_k(100.0, PR5)
    assert point.layer_t > 0.0


def test_solve_gamma_exceeds_floor():
    for (pr, k) in ((PR2, 0.01), (PR3, 1.0), (PR5, 3.0)):
        g = solve_gamma(k, pr)
        assert g > max(k ** (pr.p - 1.0), math.pi ** 2)


# --- q_norm ------------------------------------------------------------------

def test_q_norm_small_mu_limit():
    # ||w||_2 -> k sqrt(pi/(2 sqrt(g))) as mu -> 0; at g = pi^2 that is k/sqrt2
    k = 1e-7
    d = q_norm(k, math.pi ** 2, 2.0, PR3)
    assert abs(d / (k / math.sqrt(2.0)) - 1.0) < 1e-6


def test_q_norm_frozen_w4():
    g = solve_gamma(1.0, PR3)
    assert abs(q_norm(1.0, g, 4.0, PR3) / ORACLE["w4[p=3,k=1]"] - 1) < 1e-12


def test_q_norm_bounded_by_k_and_increasing_in_q():
    g = solve_gamma(1.0, PR3)
    qs = (2.0, 3.0, 4.0, 8.0, 16.0)
    norms = [q_norm(1.0, g, q, PR3) for q in qs]
    assert all(n < 1.0 for n in norms)
    assert all(a < b for a, b in zip(norms, norms[1:]))


def test_q_norm_validates_q():
    for q in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            q_norm(1.0, 15.0, q, PR3)


def test_point_q_norm_matches_pair_form():
    point = point_from_k(1.0, PR3)
    for q in (2.0, 3.0, 4.0):
        a = point_q_norm(point, q, PR3)
        b = q_norm(point.k, point.gamma, q, PR3)
        assert abs(a / b - 1.0) < 1e-12
    # ||w||_2 is d by definition
    assert abs(point_q_norm(point, 2.0, PR3) / point.d - 1.0) < 1e-13


def test_point_q_norm_deep_layer():
    # Here gamma - k^{p-1} is ~1e-43 relative: unrecoverable from the
    # rounded (k, gamma) pair, but exact through the stored layer
    # coordinate. This is the regime the pair form documents as degraded.
    pr5 = LocalParams(p=5.0)
    point = solve_for_d(10.0, pr5)
    assert point.layer_t > 50.0
    assert abs(point_q_norm(point, 2.0, pr5) / point.d - 1.0) < 1e-12


def test_point_q_norm_recomputes_missing_layer():
    point = point_from_k(1.0, PR3)
    bare = LocalPoint(k=point.k, gamma=point.gamma, d=point.d, p=point.p)
    assert bare.layer_t is None
    a = point_q_norm(bare, 4.0, PR3)
    assert abs(a / point_q_norm(point, 4.0, PR3) - 1.0) < 1e-12


def test_point_q_norm_validation():
    point = point_from_k(1.0, PR3)
    for q in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            point_q_norm(point, q, PR3)
    with pytest.raises(ValueError):
        point_q_norm(point, 2.0, LocalParams(p=5.0))


# --- curve points ------------------------------------------------------------

def test_point_from_k_small_amplitude():
    pt = point_from_k(1e-6, PR3)
    assert abs(pt.gamma / math.pi ** 2 - 1.0) < 1e-7
    assert abs(pt.d / (1e-6 / math.sqrt(2.0)) - 1.0) < 1e-6


def test_point_from_k_frozen_triples():
    pt = point_from_k(1.0, PR3)
    assert abs(pt.gamma / ORACLE["gamma[p=3,k=1]"] - 1) < 1e-12
    assert abs(pt.d / ORACLE["d[p=3,k=1]"] - 1) < 1e-12
    eps = 1.0 - pt.k ** 2 / pt.gamma
    assert abs(eps / ORACLE["eps[p=3,k=1]"] - 1) < 1e-12


def test_point_from_gamma_frozen():
    pt = point_from_gamma(15.0, PR2)
    assert abs(pt.k / ORACLE["k[p=2,gamma=15]"] - 1) < 1e-12
    assert abs(pt.d / ORACLE["d[p=2,gamma=15]"] - 1) < 1e-12
    pt3 = point_from_gamma(20.0, PR3)
    assert abs(pt3.k / ORACLE["k[p=3,gamma=20]"] - 1) < 1e-12
    assert abs(pt3.d / ORACLE["d[p=3,gamma=20]"] - 1) < 1e-12


def test_point_from_gamma_rejects_low_gamma():
    with pytest.raises(NoSolution):
        point_from_gamma(math.pi ** 2 * 0.999, PR3)


def test_d_of_k_strictly_increasing():
    ks = [0.125 * 2.0 ** i for i in range(7)]
    ds = [point_from_k(k, PR5).d for k in ks]
    assert all(a < b for a, b in zip(ds, ds[1:]))


def test_solve_for_d_frozen():
    pt = solve_for_d(1.0, PR3)
    assert abs(pt.gamma / ORACLE["gamma[p=3,d=1]"] - 1) < 1e-12
    assert abs(pt.k / ORACLE["k[p=3,d=1]"] - 1) < 1e-12


def test_solve_for_d_hits_target():
    for d in (1e-4, 0.3, 7.0):
        pt = solve_for_d(d, PR5)
        assert abs(pt.d - d) <= 1e-10 * d


def test_solve_for_d_small_d_asymptote():
    pt = solve_for_d(1e-6, PR2)
    assert abs(pt.k / (math.sqrt(2.0) * 1e-6) - 1.0) < 1e-5


def test_solve_for_d_large_d_two_term_model():
    # gamma(d) ~ d^4 + C1 d^2 for p = 5 (C1 from the constants module)
    from biflogis.constants import compute_C1
    pt = solve_for_d(1000.0, PR5)
    model = 1000.0 ** 4 + compute_C1(5.0) * 1000.0 ** 2
    assert abs(pt.gamma / model - 1.0) < 0.01


@pytest.mark.parametrize("d, states", [(10.0, 4), (1e2, 4), (1e3, 3), (1e5, 3)])
def test_solve_for_d_states_from_flat_seed(d, states, monkeypatch):
    # Log states per warm solve_for_d at p = 5, the root's own included.
    # Seeding large d from k ~ d, not k ~ sqrt(2) d, saves one.
    solve_for_d(d, PR5)
    calls = []
    log_state = ll._log_state_at_t
    monkeypatch.setattr(ll, "_log_state_at_t",
                        lambda *args: calls.append(args) or log_state(*args))
    solve_for_d(d, PR5)
    assert len(calls) <= states


def test_inverse_solves_build_the_point_from_the_root_state(monkeypatch):
    # One log state per residual evaluation, at q = 2, and none after it:
    # the point comes from the state of the root's own evaluation.
    states, resids = [], []
    log_state, solve = ll._log_state_at_t, ll.solve_monotone

    def counted(f, *args, **kwargs):
        return solve(lambda tau: resids.append(tau) or f(tau), *args, **kwargs)

    monkeypatch.setattr(ll, "_log_state_at_t",
                        lambda *args: states.append(args) or log_state(*args))
    monkeypatch.setattr(ll, "solve_monotone", counted)
    for pr in (PR2, PR3, PR5):
        for solver, x in ((point_from_k, 2.0), (point_from_gamma, 50.0),
                          (solve_for_d, 3.0)):
            del states[:], resids[:]
            point = solver(x, pr)
            assert len(states) == len(resids) > 0, (pr.p, solver.__name__)
            assert all(args[2] == 2.0 for args in states)
            assert point.layer_t == math.exp(resids[-1])


def test_round_trip_k_d_k():
    for (pr, k) in ((PR2, 0.5), (PR3, 1.0), (PR5, 2.0)):
        pt = point_from_k(k, pr)
        back = solve_for_d(pt.d, pr)
        assert abs(back.k / k - 1.0) < 1e-9


def test_local_point_validation():
    with pytest.raises(ValueError):
        LocalPoint(k=1.0, gamma=5.0, d=0.5, p=3.0)  # gamma below pi^2
    with pytest.raises(ValueError):
        LocalPoint(k=1.0, gamma=15.0, d=1.5, p=3.0)  # d above k
    with pytest.raises(ValueError):
        LocalPoint(k=-1.0, gamma=15.0, d=0.5, p=3.0)
    with pytest.raises(ValueError, match="exceed"):
        LocalPoint(k=10.0, gamma=50.0, d=0.5, p=3.0)  # gamma below k^(p-1)


# --- profiles ----------------------------------------------------------------

def test_profile_anchors_and_symmetry():
    pt = point_from_k(1.0, PR3)
    prof = sample_profile(pt, 201, PR3)
    assert prof.xs[0] == 0.0 and prof.ws[0] == 0.0
    assert abs(prof.xs[-1] - 1.0) < 1e-14 and abs(prof.ws[-1]) < 1e-14
    mid = len(prof) // 2
    assert abs(prof.xs[mid] - 0.5) < 1e-10  # x(k) = 1/2
    assert abs(prof.ws[mid] - pt.k) < 1e-12
    w = np.asarray(prof.ws)
    assert np.max(np.abs(w - w[::-1])) < 1e-10 * pt.k
    assert int(np.argmax(w)) == mid


def test_profile_x_at_half_height_frozen():
    pt = point_from_k(1.0, PR3)
    prof = sample_profile(pt, 2001, PR3)
    ws = np.asarray(prof.ws)
    xs = np.asarray(prof.xs)
    i = int(np.argmin(np.abs(ws[: len(ws) // 2] - 0.5)))
    sub = slice(max(0, i - 3), i + 4)
    x_half = float(np.interp(0.5, ws[sub], xs[sub]))
    assert abs(x_half / ORACLE["x_at_half[p=3,k=1]"] - 1.0) < 1e-10


def test_profile_small_mu_is_sine():
    pt = point_from_k(1e-6, PR3)
    prof = sample_profile(pt, 101, PR3)
    expected = math.sqrt(2.0) * pt.d * np.sin(math.pi * np.asarray(prof.xs))
    assert np.max(np.abs(np.asarray(prof.ws) - expected)) < 1e-3 * pt.d


def test_profile_energy_identity():
    # (3.10) gives w' on [0,1/2]; E = w'^2/2 + g w^2/2 - w^{p+1}/(p+1)
    # must be constant along the profile
    pt = point_from_k(1.0, PR3)
    prof = sample_profile(pt, 501, PR3)
    half = len(prof) // 2 + 1
    w = np.asarray(prof.ws)[:half]
    g, k, p = pt.gamma, pt.k, 3.0
    wp2 = g * (k * k - w * w) - 2.0 * (k ** (p + 1.0) - w ** (p + 1.0)) / (p + 1.0)
    E = 0.5 * wp2 + 0.5 * g * w * w - w ** (p + 1.0) / (p + 1.0)
    e0 = 0.5 * (g * k * k - 2.0 * k ** (p + 1.0) / (p + 1.0))
    assert np.max(np.abs(E - e0)) < 1e-8 * abs(e0)


def test_profile_node_count_and_validation():
    pt = point_from_k(1.0, PR3)
    prof = sample_profile(pt, 51, PR3)
    assert len(prof) == 101  # 2n - 1 after mirroring
    assert np.array_equal(sample_profile(pt, np.int64(51), PR3).xs, prof.xs)
    with pytest.raises(ValueError):
        sample_profile(pt, 2, PR3)
    for bad in (51.0, 50.5, "51", None):
        with pytest.raises(ValueError, match="integer"):
            sample_profile(pt, bad, PR3)
    with pytest.raises(ValueError, match="disagree on p"):
        sample_profile(pt, 51, PR5)


@pytest.mark.parametrize("solve, p, value", [
    (point_from_gamma, 3.0, 15.0),   # sinh route, t = 0.59
    (point_from_gamma, 1.05, 30.0),  # sinh route, t = 1.13
    (solve_for_d, 5.0, 10.0),        # asymptote route, t = 99
    (solve_for_d, 20.0, 2.0),        # asymptote route, t = 1589
])
def test_profile_recomputes_missing_layer(solve, p, value):
    # A point built without layer_t has its t recovered from k. On these
    # four points and seven more (p from 1.2 to 8, t up to 1.1e5) the
    # recovered t is within 7e-16 relative of the solver's and the nodes
    # move by at most 2.2e-16, one ulp below 1; 1e-14 leaves 45 times that.
    params = LocalParams(p=p)
    point = solve(value, params)
    bare = LocalPoint(k=point.k, gamma=point.gamma, d=point.d, p=p)
    prof, back = (sample_profile(pt, 101, params) for pt in (point, bare))
    assert np.array_equal(back.ws, prof.ws)
    assert np.max(np.abs(back.xs - prof.xs)) < 1e-14


# Boundary-layer profiles, sampled on the t >= T_ASYM branch: t is about
# 3.5e7 at (p = 6, k = 1000) and 2.3e14 at (p = 20, k = 30).
ASYM_PROFILE_POINTS = [(6.0, 1000.0), (20.0, 30.0)]
# Layer-resolved profiles, sampled in the sinh variable: t is 0.099 at
# (p = 3, k = 1) and 7.0 at (p = 4, k = 5).
SINH_PROFILE_POINTS = [(3.0, 1.0), (4.0, 5.0)]


@pytest.mark.parametrize("p, k", ASYM_PROFILE_POINTS)
def test_profile_asymptote_branch(p, k):
    params = LocalParams(p=p)
    pt = point_from_k(k, params)
    assert pt.layer_t >= ll.T_ASYM
    n = 101
    prof = sample_profile(pt, n, params)
    xs, ws = np.asarray(prof.xs), np.asarray(prof.ws)
    assert len(prof) == 2 * n - 1
    assert xs[0] == 0.0 and ws[0] == 0.0
    assert abs(xs[-1] - 1.0) < 1e-14 and ws[-1] == 0.0
    mid = n - 1
    assert abs(xs[mid] - 0.5) < 1e-10  # x(k) = 1/2
    assert ws[mid] == pt.k
    # Strictly increasing on [0, 1/2]. The mirror 1 - x can only be
    # nondecreasing: at p = 20 the layer nodes lie below 1e-15 and 1 - x
    # rounds several of them to the same double.
    assert np.all(np.diff(xs[:n]) > 0.0)
    assert np.all(np.diff(xs) >= 0.0)

    # Energy identity, as in test_profile_energy_identity.
    w = ws[:n]
    g = pt.gamma
    wp2 = g * (k * k - w * w) - 2.0 * (k ** (p + 1.0) - w ** (p + 1.0)) / (p + 1.0)
    E = 0.5 * wp2 + 0.5 * g * w * w - w ** (p + 1.0) / (p + 1.0)
    e0 = 0.5 * (g * k * k - 2.0 * k ** (p + 1.0) / (p + 1.0))
    assert np.max(np.abs(E - e0)) < 1e-8 * abs(e0)

    # w'' = w^p - gamma w < 0 below k, so x'(w) = 1/w' grows with w on
    # [0, k]: each segment lies between its left and right Riemann sums.
    # The last one has w' = 0 at its right end and only a lower bound.
    dx, dw = np.diff(xs[:n]), np.diff(w)
    slope = np.sqrt(np.maximum(wp2, 0.0))
    assert np.all(dx >= (1.0 - 1e-12) * dw / slope[:-1])
    assert np.all(dx[:-1] <= (1.0 + 1e-12) * dw[:-1] / slope[1:-1])


def test_profile_right_half_ties_deep_in_the_layer():
    # At p = 20, k = 30 (t = 2.3e14) the boundary layer is about
    # gamma^{-1/2} = 9e-15 wide. The left half resolves its x there, but the
    # mirror 1 - x rounds onto the doubles below 1, 1.1e-16 apart, so
    # neighbouring right-half abscissae tie: 4 of 100 gaps at n = 101, 841
    # of 1,000 at n = 1001. This is the limit sample_profile states: xs is
    # nondecreasing, its left half strictly increasing, and the ties lie in
    # the layer next to x = 1.
    params = LocalParams(p=20.0)
    pt = point_from_k(30.0, params)
    for n in (101, 1001):
        xs = sample_profile(pt, n, params).xs
        assert np.all(np.diff(xs[:n]) > 0.0)
        gaps = np.diff(xs[n - 1:])
        assert np.all(gaps >= 0.0)
        ties = gaps == 0.0
        assert np.any(ties)
        assert np.all(xs[n - 1:-1][ties] > 1.0 - 1e-13)


def _loop_profile_xs(point, n, params):
    """Half-profile abscissae by one integrate call per segment, the
    segment-at-a-time form of sample_profile."""
    p, t = params.p, point.layer_t
    sqrt_g = math.sqrt(point.gamma)
    s_nodes = np.linspace(0.0, 1.0, n)
    xs = np.zeros(n)
    if t < ll.T_ASYM:
        eps, em = math.exp(-t), -math.expm1(-t)
        w0 = math.sqrt(2.0 * eps / (p - 1.0))
        vs = np.arcsinh(np.sqrt(1.0 - s_nodes) / w0)
        scale = 2.0 / (math.sqrt(p - 1.0) * sqrt_g)

        def f(v):
            return kernels.layer_integrand(v, eps, em, p, 0.0)

        for j in range(1, n):
            xs[j] = xs[j - 1] + scale * integrate(f, vs[j], vs[j - 1]).value
    else:
        def g(s):
            u = 1.0 - s
            return 1.0 / (math.sqrt(p - 1.0) * u * np.sqrt(kernels.c_factor(u, p)))

        for j in range(1, n - 1):
            seg = integrate(g, s_nodes[j - 1], s_nodes[j]).value
            xs[j] = xs[j - 1] + seg / sqrt_g
        # J_0 off the log state's slope d(ln gamma)/dtau = 2 lin/J_0,
        # lin = t/sqrt(p-1): J_0 = e^{ln gamma/2}/2 would lose the rounding
        # of ln gamma, 1.4e-15 of it at p = 20, k = 30.
        lin = t / math.sqrt(p - 1.0)
        xs[n - 1] = 2.0 * lin / ll._log_state_at_t(t, p, 2.0)[5] / sqrt_g
    return xs


@pytest.mark.parametrize("n", [3, 101, ll._PROFILE_ROWS + 100])
@pytest.mark.parametrize("p, k", SINH_PROFILE_POINTS + ASYM_PROFILE_POINTS)
def test_stacked_profile_matches_segment_loop(p, k, n):
    params = LocalParams(p=p)
    pt = point_from_k(k, params)
    prof = sample_profile(pt, n, params)
    ref = _loop_profile_xs(pt, n, params)
    assert np.max(np.abs(prof.xs[:n] - ref)) <= 1e-15


@pytest.mark.parametrize("p, k, n", [
    (3.0, 1.0, 101),
    (6.0, 1000.0, 101),
    (3.0, 1.0, ll._PROFILE_ROWS + 1),
    (3.0, 1.0, ll._PROFILE_ROWS + 2),
    (3.0, 1.0, 2 * ll._PROFILE_ROWS + 2),
])
def test_profile_quadrature_calls(p, k, n, fresh_caches, monkeypatch):
    # One integrate call per block of segments: n - 1 of them on the sinh
    # branch (p = 3), n - 2 on the asymptote branch (p = 6), whose segment
    # cache starts empty.
    params = LocalParams(p=p)
    pt = point_from_k(k, params)
    sample_profile(pt, 3, params)  # calibrates B_0 for the layer crossing
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ll, "integrate", counted)
    sample_profile(pt, n, params)
    assert len(calls) == math.ceil((n - 1) / ll._PROFILE_ROWS)


def test_asym_profile_segments_calibrated_once_per_p_and_n(fresh_caches,
                                                          monkeypatch):
    # On the asymptote branch the segment integrals depend on (p, n) alone:
    # a second profile at another k makes no integrate call and has the
    # abscissae of a cold one, bit for bit; another p or n calibrates anew.
    lp6, lp7 = LocalParams(p=6.0), LocalParams(p=7.0)
    a, b = point_from_k(1000.0, lp6), point_from_k(5000.0, lp6)
    c = point_from_k(1000.0, lp7)
    assert min(a.layer_t, b.layer_t, c.layer_t) >= ll.T_ASYM
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ll, "integrate", counted)
    sample_profile(a, 101, lp6)
    assert len(calls) == 1
    warm = sample_profile(b, 101, lp6)
    assert len(calls) == 1
    assert all(not segs.flags.writeable for segs in ll._SEG_CACHE.values())

    # The segment cache alone: the layer crossing's B_0 stays warm.
    monkeypatch.setattr(ll, "_SEG_CACHE", {})
    cold = sample_profile(b, 101, lp6)
    assert len(calls) == 2
    assert np.array_equal(warm.xs, cold.xs) and np.array_equal(warm.ws, cold.ws)

    sample_profile(b, 51, lp6)
    assert len(calls) == 3
    sample_profile(c, 101, lp7)
    assert len(calls) == 4
