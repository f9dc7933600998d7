"""Closed-form constants: frozen reference values, exact identities, errors.

Frozen values live in _oracle_values.py and were produced by an independent
mpmath implementation (60 digits); they are compared here, never regenerated.
"""

import dataclasses
import math

import numpy as np
import pytest

from _oracle_values import ORACLE
from biflogis import constants, kernels
from biflogis import local_logistic as ll
from biflogis.constants import (READINGS, ConstantSet, compute_A, compute_all,
                                compute_C1, compute_Cq, compute_E)
from biflogis.errors import (InvalidRegime, NoConvergence, Overflow,
                             ZeroCoefficients)
from biflogis import quadrature
from biflogis.quadrature import integrate

PI = math.pi


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- A family


A_CASES = [(2.0, 2.0), (2.5, 3.0), (3.0, 2.0), (5.0, 2.0)]


@pytest.mark.parametrize("p,q", A_CASES)
def test_A_frozen_values(p, q):
    # A4 is a difference of same-order terms, so its relative accuracy sits
    # near 1e-12 at (2.5, 3); everything else lands at 1e-14 or better.
    A = compute_A(p, q)
    key = f"p={p:g},q={q:g}"
    for name in ("A1", "A2", "A3", "A4", "A5"):
        assert rel(A[name], ORACLE[f"{name}[{key}]"]) < 1e-10
    if p != 3.0:
        assert rel(A["A6"], ORACLE[f"A6[{key}]"]) < 1e-10


def test_A1_exact_small_q():
    # q = 1: integrand is sin(theta) itself; q = 2 gives the Wallis value.
    A = compute_A(2.0, 1.0)
    assert abs(A["A1"] - 1.0) < 1e-13
    A = compute_A(2.0, 2.0)
    assert abs(A["A1"] - PI / 4.0) < 1e-13


def test_A1_beta_identity():
    # int_0^{pi/2} sin^q = sqrt(pi) Gamma((q+1)/2) / (2 Gamma(q/2 + 1))
    for q in (1.5, 2.0, 3.0, 4.7):
        target = math.sqrt(PI) * math.gamma((q + 1.0) / 2.0) \
            / (2.0 * math.gamma(q / 2.0 + 1.0))
        got = compute_A(2.0, q)["A1"]
        assert rel(got, target) < 1e-10


def test_A3_closed_form_cubic():
    # p = 3: A3 = 3/(4 pi)
    A = compute_A(3.0, 2.0)
    assert rel(A["A3"], 3.0 / (4.0 * PI)) < 1e-12


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (2.5, 3.0), (5.0, 2.0)])
def test_A_linear_identities(p, q):
    # Two exact relations tie the family together independently of the
    # frozen values: pi A4 + 4 A2 = A3 and (p-3) q pi A6 = 4 A3.
    A = compute_A(p, q)
    scale = max(abs(A["A3"]), 1.0)
    assert abs(PI * A["A4"] + 4.0 * A["A2"] - A["A3"]) < 1e-13 * scale
    assert abs((p - 3.0) * q * PI * A["A6"] - 4.0 * A["A3"]) < 1e-13 * scale


def test_A6_pole_at_cubic():
    # A6 has p - 3 in its denominator: it is left out at p = 3 alone.
    assert "A6" not in compute_A(3.0, 2.0)
    assert "A6" in compute_A(3.0 + 1e-9, 2.0)


def test_A_validation():
    with pytest.raises(ValueError):
        compute_A(1.0, 2.0)
    with pytest.raises(ValueError):
        compute_A(2.0, 0.0)
    with pytest.raises(ValueError):
        compute_A(float("nan"), 2.0)


# ---------------------------------------------------------------- C family


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 5.0])
def test_C1_frozen_values(p):
    assert rel(compute_C1(p), ORACLE[f"C1[p={p:g}]"]) < 1e-12


def test_C1_cubic_closed_form():
    # p = 3: f(s) = (1 - s^2)^2 / 2, so C1 = 6/sqrt(2) int (1-s^2) = 2 sqrt(2)
    assert rel(compute_C1(3.0), 2.0 * math.sqrt(2.0)) < 1e-10


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 5.0, 8.0))
def test_C1_matches_moment_asymptote(p):
    # C1 = (p-1)(B_0 - B_2), with B_q the offsets of the moments' large-t
    # asymptote: Gauss over C2's integrand in u = 1 - s against Gauss over
    # the moments in the sinh variable, two routes that share no integral.
    b = (p - 1.0) * (ll._b_shift(p, 0.0) - ll._b_shift(p, 2.0))
    assert rel(compute_C1(p), b) < 1e-13


@pytest.mark.parametrize("p", [2.0, 2.5, 4.0, 5.0])
def test_C1_C2_ratio_identity(p):
    # compute_C1 returns ((p-1)/2) C2, which integration by parts makes
    # exact; check it against C1's defining integral (p+3) int sqrt(f),
    # taken in u = 1 - s where sqrt(f) = u sqrt((p-1) c(u)).
    direct = (p + 3.0) * integrate(
        lambda u: u * np.sqrt((p - 1.0) * kernels.c_factor(u, p)),
        0.0, 1.0).value
    assert rel(compute_C1(p), direct) < 1e-14


def test_C1_vanishes_toward_linear_limit():
    # f -> 0 pointwise as p -> 1+, so C1 does too (like sqrt(p-1)).
    assert compute_C1(1.0001) < 0.03


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (2.0, 3.0), (2.5, 3.0),
                                 (3.0, 2.0), (5.0, 2.0)])
def test_Cq_frozen_values(p, q):
    assert rel(compute_Cq(p, q), ORACLE[f"Cq[p={p:g},q={q:g}]"]) < 1e-12


def test_Cq_monotone_in_q():
    # 1 - s^q grows with q pointwise on (0, 1)
    vals = [compute_Cq(2.5, q) for q in (1.5, 2.0, 4.0)]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("p", (1.05, 1.5, 2.5, 5.0, 8.0))
def test_Cq_matches_moment_asymptote(p):
    # Cq = 2 (B_0 - B_q), from J_0 - J_q -> int (1 - s^q)/sqrt(f) as
    # eps -> 0. The frozen table has no Cq at q = 1.1 or p < 2, where the
    # u = 1 - s integrand's s^q kink at u = 1 costs the most panels.
    b0 = ll._b_shift(p, 0.0)
    for q in (1.1, 2.0, 4.0, 8.0):
        b = 2.0 * (b0 - ll._b_shift(p, q))
        assert rel(compute_Cq(p, q), b) < 1e-13, q


# ---------------------------------------------------------------- E family


def test_E_trivial_composition():
    # a1 = 0, a2 = 1, p = 2, q = 2 collapses every ingredient:
    #   E1 = pi, E2 = A3, E4 = 3 A3 / pi,
    #   E3 = pi^-4 (paper_definition) or exactly 1 (proof_variant).
    A3 = compute_A(2.0, 2.0)["A3"]
    Ep = compute_all(2.0, 2.0, 0.0, 1.0, "paper_definition")
    Ev = compute_E(2.0, 2.0, 0.0, 1.0)
    for E in (Ep.to_record(), Ev):
        assert rel(E["E1"], PI) < 1e-14
        assert rel(E["E2"], A3) < 1e-14
        assert rel(E["E4"], 3.0 * A3 / PI) < 1e-13
    assert rel(Ep.E3, PI ** -4.0) < 1e-14
    assert abs(Ev["E3"] - 1.0) < 1e-15


def test_E_reading_changes_only_pi_powers():
    # E1, E2, E4 are reading independent; E3 and E5 differ by exact powers
    # of pi whose exponent depends only on (p, q).
    p, q, a1, a2 = 2.5, 3.0, 0.7, 0.4
    Ep = compute_all(p, q, a1, a2, "paper_definition")
    Ev = compute_E(p, q, a1, a2)
    for name in ("E1", "E2", "E4"):
        assert getattr(Ep, name) == Ev[name]
    shift = -4.0 / q * (1.0 / (p - 1.0) - 1.0 / (p - 3.0))
    assert rel(Ep.E3 / Ev["E3"], PI ** shift) < 1e-13


@pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 2.5, 2.99))
def test_amplitude_A4_from_any_q(p):
    # A2 at q = 2 is sqrt(2)^{p-1} A5, so the A family at any q gives the
    # amplitude coefficient A4 at q = 2 without its own quadrature.
    ref = compute_A(p, 2.0)["A4"]
    for q in (1.1, 3.0, 4.0, 8.0):
        a4 = constants._amplitude_a4(p, q, compute_A(p, q))
        assert rel(a4, ref) < 1e-13


def test_E2_amplitude_term_moves_only_q_not_2_with_a1(monkeypatch):
    # Where q = 2 or a1 = 0, taking A4 at the problem's q (the form before
    # E2 took it at q = 2) gives the same bits; elsewhere E2 moves.
    # At p = 1.05, 2.5 and 2.7 the q = 2 amplitude formula rounds A4 apart
    # from the stored value by an ulp, so q = 2 keeps the stored one.
    same = [(p, 2.0, a1, a2) for p in (1.05, 1.5, 2.0, 2.5, 2.7, 2.9)
            for a1, a2 in ((1.0, 1.0), (1.0, 0.0), (0.02, 5.0))]
    same += [(p, q, 0.0, 1.0) for p in (1.5, 2.0, 2.9) for q in (1.1, 4.0, 8.0)]
    moved = [(2.0, q, 1.0, a2) for q in (1.1, 4.0, 8.0) for a2 in (0.0, 1.0)]
    keys = ("E2", "E5", "second_coeff")
    now = {case: compute_all(*case).to_record() for case in same + moved}
    monkeypatch.setattr(constants, "_amplitude_a4",
                        lambda p, q, A: A["A4"])
    for case in same + moved:
        before = compute_all(*case).to_record()
        for key in keys:
            if case in same:
                assert now[case][key] == before[key], (case, key)
            else:
                assert now[case][key] != before[key], (case, key)


def test_leading_coefficient_known_limit():
    # Purely nonlocal-in-L2 weights at p = 2, q = 2: the curve is
    # lambda = pi^2 alpha^2 (1 + ...), so the leading coefficient is pi^2.
    assert rel(compute_all(2.0, 2.0, 0.0, 1.0).leading_coeff, PI ** 2) < 1e-13


@pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 2.5, 2.9))
def test_paper_definition_misses_by_a_pi_power(p):
    # The settled E3 reading is proof_variant; paper_definition's L0 is
    # larger by pi^{8/(q(p-1)(3-p))}, at least pi^{8/q}, whatever the
    # weights. compute_all keeps that reading for the benchmark only.
    for q in (1.1, 2.0, 4.0, 8.0):
        for a1, a2 in ((0.0, 1.0), (0.7, 0.4), (10.0, 1.0)):
            paper = compute_all(p, q, a1, a2, "paper_definition")
            variant = compute_all(p, q, a1, a2)
            factor = PI ** (8.0 / (q * (p - 1.0) * (3.0 - p)))
            assert rel(paper.leading_coeff / variant.leading_coeff,
                       factor) < 1e-13, (q, a1, a2)


def test_leading_coefficient_positive():
    for a1, a2 in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
        for reading in READINGS:
            cs = compute_all(2.0, 2.0, a1, a2, reading)
            assert cs.leading_coeff > 0.0
            assert math.isfinite(cs.second_coeff)


@pytest.mark.parametrize("q", (1.1, 2.0, 8.0))
@pytest.mark.parametrize("reading", READINGS)
def test_near_critical_constants_finite_or_overflow(q, reading):
    # At p = 3 - 1e-6, E3 holds E1^{2/(p-3)}: either every value of the set
    # is a finite double or the package's Overflow says why; never a bare
    # OverflowError or a zero that underflowed.
    p = 3.0 - 1e-6
    try:
        rec = compute_all(p, q, 1.0, 1.0, reading).to_record()
    except Overflow:
        return
    for key, val in rec.items():
        if isinstance(val, float):
            assert math.isfinite(val) and val != 0.0, key


PROOF_VARIANT_PQ = [(p, q) for p in (1.5, 2.0, 2.5, 2.9, 2.99)
                    for q in (1.1, 2.0, 8.0)] + [(2.9975, 1.1), (2.9975, 2.0)]


@pytest.mark.parametrize("p,q", PROOF_VARIANT_PQ)
def test_proof_variant_leading_is_pi_power_times_E1(p, q):
    # Under proof_variant the pi- and E1-powers of L0 and E3 cancel to
    # L0 = pi^{2-2/q} E1 for every p; the log form loses only the rounding
    # of the (p-1)/(p-3) powers it cancels. At p = 2.9975 the pi-power of L0
    # alone is e^917 (q = 2), yet E3 and L0 are doubles.
    cs = compute_all(p, q, 0.7, 0.4)
    ratio = abs((p - 1.0) / (p - 3.0))
    assert rel(cs.leading_coeff, PI ** (2.0 - 2.0 / q) * cs.E1) \
        <= 8.0 * 2.2e-16 * (1.0 + ratio)
    assert math.isfinite(cs.second_coeff)


def test_E_validation():
    with pytest.raises(InvalidRegime):
        compute_E(3.0, 2.0, 1.0, 1.0)
    with pytest.raises(InvalidRegime):
        compute_E(5.0, 2.0, 1.0, 1.0)
    with pytest.raises(ZeroCoefficients):
        compute_E(2.0, 2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        compute_E(2.0, 2.0, -1.0, 1.0)


def test_weights_validation():
    # The weights pass ProblemParams' check: NaN and infinity are rejected
    # as a negative weight is, not carried into the constants.
    for bad in (-0.1, math.nan, math.inf):
        for a1, a2 in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError):
                compute_all(4.0, 2.0, a1, a2)
            with pytest.raises(ValueError):
                compute_E(2.0, 2.0, a1, a2)


# ---------------------------------------------------------------- full set


def test_compute_all_subcritical():
    cs = compute_all(2.0, 2.0, 0.5, 0.5)
    assert cs.e3_reading == "proof_variant"
    assert cs.E1 is not None and cs.leading_coeff is not None
    rec = cs.to_record()
    assert set(rec) == {
        "p", "q", "a1", "a2", "C1", "Cq",
        "A1", "A2", "A3", "A4", "A5", "A6",
        "E1", "E2", "E3", "E4", "E5",
        "e3_reading", "leading_coeff", "second_coeff",
    }


def test_compute_all_supercritical_has_no_E():
    cs = compute_all(5.0, 2.0, 1.0, 0.0)
    for name in ("E1", "E2", "E3", "E4", "E5",
                 "leading_coeff", "second_coeff"):
        assert getattr(cs, name) is None
    assert cs.A6 is not None


def test_compute_all_critical_drops_A6():
    cs = compute_all(3.0, 2.0, 1.0, 1.0)
    assert cs.A6 is None
    assert cs.E1 is None


def test_compute_all_rejects_bad_reading():
    with pytest.raises(ValueError):
        compute_all(2.0, 2.0, 1.0, 1.0, reading="both")


def test_constant_set_frozen():
    cs = compute_all(2.0, 2.0, 1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cs.C1 = 0.0


# ---------------------------------------------------------------- memo


@pytest.fixture
def cache(fresh_caches, monkeypatch):
    """An empty (p, q) memo for one test, and a count of the quadratures
    the constants module runs."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(constants, "integrate", counted)
    return constants._PQ_CACHE, calls


def test_memo_repeats_bit_identical(cache):
    _, calls = cache
    first = (compute_A(2.5, 3.0), compute_C1(2.5), compute_Cq(2.5, 3.0))
    assert len(calls) == 3
    again = (compute_A(2.5, 3.0), compute_C1(2.5), compute_Cq(2.5, 3.0))
    assert len(calls) == 3
    assert again == first
    # every call hands out its own dict
    assert again[0] is not first[0]
    again[0]["A1"] = 0.0
    assert compute_A(2.5, 3.0) == first[0]


def test_compute_all_readings_share_pq_values(cache):
    _, calls = cache
    paper = compute_all(2.3, 3.0, 0.7, 0.4, "paper_definition")
    variant = compute_all(2.3, 3.0, 0.7, 0.4, "proof_variant")
    assert len(calls) == 3
    for key in ("C1", "Cq", "A1", "A2", "A3", "A4", "A5", "A6"):
        assert getattr(paper, key) == getattr(variant, key)
    assert paper.E3 != variant.E3


def test_raising_input_leaves_no_entry(cache, monkeypatch):
    store, calls = cache
    with pytest.raises(ValueError):
        compute_A(1.0, 2.0)
    with pytest.raises(Overflow):
        compute_A(1e4, 2.0)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "MAX_REFINEMENTS", 1)
        with pytest.raises(NoConvergence):
            compute_Cq(2.0, 1.1)
    assert store == {}
    assert len(calls) == 1
    assert rel(compute_Cq(2.0, 2.0), ORACLE["Cq[p=2,q=2]"]) < 1e-12


@pytest.mark.parametrize("p,q", A_CASES + [(1.05, 1.1)])
def test_stacked_A_rows_match_scalar_integrals(p, q):
    half = 0.5 * PI

    def scalar(f):
        return integrate(f, 0.0, half).value

    pref = math.sqrt(2.0) ** (p - 1.0) / ((p + 1.0) * PI ** 2)
    expected = (
        scalar(lambda th: np.sin(th) ** q),
        pref * scalar(lambda th: np.sin(th) ** q * ll.phi(np.sin(th), p)),
        2.0 * pref * scalar(lambda th: ll.phi(np.sin(th), p)),
        scalar(lambda th: np.sin(th) ** 2 * ll.phi(np.sin(th), p))
        / ((p + 1.0) * PI ** 2),
    )
    got = constants._a_integrals(p, q)
    for g, e in zip(got, expected):
        assert type(g) is float
        assert rel(g, e) <= 1e-15
