"""Closed-form asymptotic constants of the bifurcation curve.

The curve's limit laws are governed by a small family of explicit integrals:

- ``C1``: large-d eigenvalue correction, gamma(d) = d^{p-1} + C1 d^{(p-1)/2} + O(1);
- ``Cq``: large-d norm deficit, ||w||_q^{p-1} = gamma (1 - Cq/sqrt(gamma))^{(p-1)/q};
- ``A1..A6``: small-d expansion coefficients (gamma, k, and ||w||_q near the
  bifurcation point pi^2);
- ``E1..E5``: the subcritical (1 < p < 3) growth-law constants assembled from
  the A family and the Kirchhoff weights (a1, a2).

E3 and E5 carry a ``reading`` switch: the source formulas for their pi-powers
circulate in two variants whose exponent denominators differ, (p-1)q versus
(p-3)q. Both are computed; numerical sweeps (verify module) arbitrate. The
composed subcritical growth law implemented by ``theorem3_coefficients`` is

    lambda(alpha) = L0 alpha^2 (1 + S alpha^{p-3} + o(alpha^{p-3})),
    L0 = pi^{2{q(p-3)-(p-1)}/(q(p-3))} E1^{(p-1)/(p-3)} / E3,
    S  = {(p-1)/(p-3) (E2/E1) + E4} E3^{-(p-3)/2} - E5,

the (p-1)/(p-3) powers of E1 and of the E2/E1 term being forced by the exact
reduction lambda = beta gamma, beta = (normalization)^{(p-1)/(p-3)}; dropping
them (a common transcription slip) fails against the computed curve under
every reading.

A1..A3, A5, C1 and Cq depend on (p, q) alone, never on the weights or the
reading. Each is integrated once per process and kept in ``_PQ_CACHE``; A4,
A6 and E1..E5 are algebra on top of the stored values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import (InvalidRegime, Overflow, check_exponent, check_positive,
                     check_weights)
from .local_logistic import phi
from .quadrature import integrate

__all__ = [
    "READINGS",
    "ConstantSet",
    "compute_A",
    "compute_C1",
    "compute_Cq",
    "compute_E",
    "theorem3_coefficients",
    "compute_all",
]

PI = math.pi

READINGS = ("paper_definition", "proof_variant")


# ln of the smallest normal and the largest double.
_LN_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def _exp_in_range(ln_v: float, name: str, p: float, q: float) -> float:
    """exp(ln_v) for a positive constant; Overflow where it would leave the
    normal double range."""
    if not _LN_RANGE[0] < ln_v < _LN_RANGE[1]:
        raise Overflow(f"{name} leaves the double range at p = {p!r}, "
                       f"q = {q!r} (ln {name} = {ln_v:.6g})")
    return math.exp(ln_v)


def _check_pq(p: float, q: float) -> None:
    check_exponent("p", p)
    check_positive("q", q)


# The reading- and weight-independent integrals, once per process: keys
# ("A", p, q) -> (A1, A2, A3, A5), ("C1", p) -> C1 and ("Cq", p, q) -> Cq.
# A call that raises stores nothing.
_PQ_CACHE: dict = {}


def _memo(key: tuple, compute):
    val = _PQ_CACHE.get(key)
    if val is None:
        val = _PQ_CACHE[key] = compute()
    return val


def compute_A(p: float, q: float) -> dict:
    """The A-family of small-d expansion constants.

    A1 = int_0^1 s^q (1-s^2)^{-1/2} ds and the phi-weighted variants A2, A3,
    A5; A4 and A6 follow algebraically. All integrals are evaluated after
    s = sin(theta), which removes the endpoint square root exactly and
    leaves smooth integrands, so the four share one stacked Gauss call. A6
    has p - 3 in its denominator and is left out at p = 3 (it backs
    constants that only serve the subcritical regime).
    """
    _check_pq(p, q)
    a1, a2, a3, a5 = _memo(("A", p, q), lambda: _a_integrals(p, q))
    out = {"A1": a1, "A2": a2, "A3": a3, "A4": (a3 - 4.0 * a2) / PI, "A5": a5}
    if p != 3.0:
        out["A6"] = 4.0 * a3 / ((p - 3.0) * q * PI)
    return out


def _a_integrals(p: float, q: float) -> tuple:
    """(A1, A2, A3, A5): rows sin^q, sin^q phi, phi and sin^2 phi over
    theta in [0, pi/2], integrated on shared panels."""

    def f(th):
        s = np.sin(th)
        ph = phi(s, p)
        sq = s ** q
        return np.stack((sq, sq * ph, ph, s * s * ph))

    try:
        pref = math.sqrt(2.0) ** (p - 1.0) / ((p + 1.0) * PI ** 2)
    except OverflowError:
        raise Overflow(f"A2 and A3 exceed the double range at p = {p}") from None
    i1, iq, i0, i2 = integrate(f, 0.0, 0.5 * PI).value.tolist()
    return i1, pref * iq, 2.0 * pref * i0, i2 / ((p + 1.0) * PI ** 2)


def compute_C1(p: float) -> float:
    """C1 = (p+3) int_0^1 sqrt(f(s)) ds, f = (p-1)/(p+1) - s^2 + 2s^{p+1}/(p+1).

    f has a double zero at s = 1, and sqrt(f) = u sqrt((p-1) c(u)) in
    u = 1 - s with the regular factor c, so the integrand is analytic on
    [0, 1] in u.
    """
    _check_pq(p, 2.0)

    def f(u):
        return u * np.sqrt((p - 1.0) * kernels.c_factor(u, p))

    return _memo(("C1", p), lambda: (p + 3.0) * integrate(f, 0.0, 1.0).value)


def compute_Cq(p: float, q: float) -> float:
    """Cq = 2 int_0^1 (1 - s^q)/sqrt(f(s)) ds.

    In u = 1 - s the integrand is (1 - (1-u)^q) / (u sqrt((p-1) c(u))):
    numerator and denominator both vanish linearly at u = 0, and forming
    the numerator as -expm1(q log1p(-u)) keeps its relative accuracy there,
    so the ratio needs no series branch.
    """
    _check_pq(p, q)

    def f(u):
        return -np.expm1(q * np.log1p(-u)) \
            / (u * np.sqrt((p - 1.0) * kernels.c_factor(u, p)))

    return _memo(("Cq", p, q), lambda: 2.0 * integrate(f, 0.0, 1.0).value)


def _check_reading(reading: str) -> None:
    if reading not in READINGS:
        raise ValueError(f"reading must be one of {READINGS}, got {reading!r}")


def compute_E(p: float, q: float, a1: float, a2: float, reading: str) -> dict:
    """The subcritical growth-law constants E1..E5 (valid for 1 < p < 3).

    ``reading`` selects the exponent denominator of the pi-powers inside E3
    and E5: (p-1)q for ``paper_definition``, (p-3)q for ``proof_variant``.
    """
    _check_pq(p, q)
    check_weights(a1, a2)
    _check_reading(reading)
    if not (1.0 < p < 3.0):
        raise InvalidRegime(f"E constants require 1 < p < 3, got p = {p}")
    return _e_from_a(p, q, a1, a2, reading, compute_A(p, q))


def _amplitude_a4(p: float, q: float, A: dict) -> float:
    """A4 at q = 2, the amplitude coefficient in k^2/(2 d^2) = 1 + A4 d^{p-1},
    from the A family at any q.

    The amplitude ratio involves the L2 norm alone, so its A4 takes A2 at
    q = 2, which is sqrt(2)^{p-1} A5 (the same integral of sin^2 phi); no
    quadrature at q = 2 is needed. At q = 2 the stored A4 is returned
    as is, keeping its bits.
    """
    if q == 2.0:
        return A["A4"]
    return (A["A3"] - 4.0 * math.sqrt(2.0) ** (p - 1.0) * A["A5"]) / PI


def _e_from_a(p: float, q: float, a1: float, a2: float, reading: str,
              A: dict) -> dict:
    """E1..E5 from the A family; arguments already validated.

    E2's a1 term carries the amplitude coefficient A4 at q = 2
    (`_amplitude_a4`), not ``A["A4"]`` at the problem's q: the expansion of
    k^2/(2 d^2) holds d = ||w||_2 whatever norm the weight a1 uses. A4 at
    the problem's q is a transcription slip of this repository, not a
    reading of the paper (see README): the curve's own second coefficient
    rules it out wherever q != 2 and a1 > 0.
    """
    a1q = a1 * 2.0 ** ((q + 2.0) / q) * A["A1"] ** (2.0 / q)
    e1 = a1q + a2 * PI ** (2.0 / q)
    e2 = a1q * (_amplitude_a4(p, q, A) + (2.0 / q) * (A["A2"] / A["A1"])) \
        + (2.0 * a2 * PI ** ((2.0 - q) / q) / q) * A["A3"]
    denom = (p - 1.0) if reading == "paper_definition" else (p - 3.0)
    # In log form: near p = 3 the pi- and E1-powers each leave the double
    # range before their product does.
    e3 = _exp_in_range((2.0 / (p - 3.0)) * math.log(e1)
                       - (4.0 / (denom * q)) * math.log(PI), "E3", p, q)
    e4 = 2.0 * (q * (p - 3.0) - (p - 1.0)) / (q * (p - 3.0) * PI) * A["A3"]
    e5 = ((2.0 / (p - 3.0)) * (e2 / e1) - A["A6"]) \
        * PI ** (2.0 * (p - 3.0) / (denom * q)) / e1
    return {"E1": e1, "E2": e2, "E3": e3, "E4": e4, "E5": e5}


def theorem3_coefficients(p: float, q: float, a1: float, a2: float,
                          reading: str) -> tuple[float, float]:
    """(leading, second) of the subcritical law lambda = L0 a^2 (1 + S a^{p-3} + o).

    Composition of the E constants per the module docstring; the E1 and
    E2/E1 terms enter with power (p-1)/(p-3) from beta = N^{(p-1)/(p-3)}.
    """
    return _theorem3_from_e(p, q, compute_E(p, q, a1, a2, reading))


def _theorem3_from_e(p: float, q: float, E: dict) -> tuple[float, float]:
    expo = (q * (p - 3.0) - (p - 1.0)) / (q * (p - 3.0))
    ratio = (p - 1.0) / (p - 3.0)
    # In log form, as for E3: under proof_variant the powers cancel to
    # pi^{2-2/q} E1, which stays finite where each power overflows.
    leading = _exp_in_range(2.0 * expo * math.log(PI)
                            + ratio * math.log(E["E1"]) - math.log(E["E3"]),
                            "L0", p, q)
    second = (ratio * (E["E2"] / E["E1"]) + E["E4"]) \
        * E["E3"] ** (-(p - 3.0) / 2.0) - E["E5"]
    return leading, second


@dataclass(frozen=True)
class ConstantSet:
    """Every constant the curve's asymptotics use, for one (p, q, a1, a2).

    E1..E5, leading_coeff, second_coeff are None outside 1 < p < 3, and A6
    is None at p = 3 (undefined there).
    """

    p: float
    q: float
    a1: float
    a2: float
    C1: float
    Cq: float
    A1: float
    A2: float
    A3: float
    A4: float
    A5: float
    A6: float | None
    E1: float | None
    E2: float | None
    E3: float | None
    E4: float | None
    E5: float | None
    e3_reading: str
    leading_coeff: float | None
    second_coeff: float | None

    def to_record(self) -> dict:
        """Flat key/value record with the canonical field names."""
        return asdict(self)


def compute_all(p: float, q: float, a1: float, a2: float,
                reading: str = "proof_variant") -> ConstantSet:
    """Assemble the full ConstantSet; regime-restricted entries become None."""
    _check_pq(p, q)
    check_weights(a1, a2)
    _check_reading(reading)
    subcritical = 1.0 < p < 3.0
    A = compute_A(p, q)
    c1 = compute_C1(p)
    cq = compute_Cq(p, q)
    if subcritical:
        E = _e_from_a(p, q, a1, a2, reading, A)
        leading, second = _theorem3_from_e(p, q, E)
    else:
        E = {f"E{i}": None for i in range(1, 6)}
        leading = second = None
    return ConstantSet(
        p=p, q=q, a1=a1, a2=a2, C1=c1, Cq=cq,
        A1=A["A1"], A2=A["A2"], A3=A["A3"], A4=A["A4"], A5=A["A5"],
        A6=A.get("A6"),
        E1=E["E1"], E2=E["E2"], E3=E["E3"], E4=E["E4"], E5=E["E5"],
        e3_reading=reading, leading_coeff=leading, second_coeff=second,
    )
