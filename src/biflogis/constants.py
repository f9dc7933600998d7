"""Closed-form asymptotic constants of the bifurcation curve.

The curve's limit laws are governed by a small family of explicit integrals:

- ``C1``: large-d eigenvalue correction, gamma(d) = d^{p-1} + C1 d^{(p-1)/2} + O(1);
- ``Cq``: large-d norm deficit, ||w||_q^{p-1} = gamma (1 - Cq/sqrt(gamma))^{(p-1)/q};
- ``A1..A6``: small-d expansion coefficients (gamma, k, and ||w||_q near the
  bifurcation point pi^2);
- ``E1..E5``: the growth-law constants of theorem 3, assembled from the A
  family and the Kirchhoff weights (a1, a2), for every p != 3.

E3 = (pi^{-2/q} E1)^{2/(p-3)}, and E5's pi-power shares its exponent
denominator (p-3)q: this ``proof_variant`` reading of the source is the one
that matches the computed curve. The other, ``paper_definition``, puts
(p-1)q there, which multiplies E3 by pi^{8/(q(p-1)(p-3))}; only
``compute_all`` still offers it. E3 is kept as ln E3 (``ln_E3``): it leaves
the double range a few thousandths from p = 3 (-1386 at p = 2.999, q = 2).
Theorem 3's law, lambda = L0 alpha^2 (1 + S alpha^{p-3} + o(alpha^{p-3})),
holds at small d: alpha -> infinity for p < 3 (the paper's statement) and
alpha -> 0 for p > 3. The paper composes its ``leading_coeff`` and
``second_coeff`` from the E family, the (p-1)/(p-3) powers forced by
lambda = beta gamma, beta = (normalization)^{(p-1)/(p-3)}:

    L0 = pi^{2{q(p-3)-(p-1)}/(q(p-3))} E1^{(p-1)/(p-3)} / E3,
    S  = {(p-1)/(p-3) (E2/E1) + E4} E3^{-(p-3)/2} - E5.

Under proof_variant E3^{-(p-3)/2} = pi^{2/q}/E1 and E5 = ((2/(p-3)) E2/E1
- A6) pi^{2/q}/E1, and two cancellations leave no 1/(p-3) term:
(p-1)/(p-3) - 2/(p-3) = 1 (the power of E1 in L0, the weight of E2/E1 in
S) and E4 + A6 = 2 (1 - 1/q) A3/pi. So they are computed as

    L0 = pi^{2-2/q} E1,   S = (pi^{2/q}/E1) (E2/E1 + 2 (1 - 1/q) A3/pi),

and under paper_definition as these times pi^{8/(q(p-1)(3-p))} (at least
pi^{8/q} for p < 3, its miss of the curve) and pi^{-4/(q(p-1))}.

A1..A3, A5 and Cq depend on (p, q) alone. This module integrates none of
them: they are moments that local_logistic calibrates to build the curve,
read off its caches. C1, A4, A6 and E1..E5 are algebra on top of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .errors import (InvalidRegime, Overflow, check_exponent, check_positive,
                     check_weights)
from .local_logistic import _norm_deficit, _series_coeffs
# Unused here: perfbench/tracer.py patches constants.integrate.
from .quadrature import integrate  # noqa: F401

__all__ = [
    "READINGS",
    "ConstantSet",
    "compute_A",
    "compute_C1",
    "compute_Cq",
    "compute_E",
    "compute_all",
]

PI = math.pi

# The E3 readings compute_all accepts: perfbench/workloads.py calls
# compute_all(p, q, a1, a2, "paper_definition").
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


def _finite(values: dict, *at: float) -> dict:
    """values, or Overflow naming the first that leaves the double range
    at (p, q, a1, a2) = at."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise Overflow(f"{name} leaves the double range at "
                           f"(p, q, a1, a2) = {at}")
    return values


def _check_pq(p: float, q: float) -> None:
    check_exponent("p", p)
    check_positive("q", q)


def compute_A(p: float, q: float) -> dict:
    """The A-family of small-d expansion constants, read off the moments'
    small-t series rows b_n a_{q,n}, a_{q,n} = int_0^{pi/2} sin^q(theta)
    (c phi(sin theta))^n dtheta, c = 2/(p+1) (local_logistic._series_coeffs):

        A1 = a_{q,0},  A2 = pref a_{q,1}/c,  A3 = 2 pref a_{0,1}/c,
        A5 = a_{2,1}/(c (p+1) pi^2),  pref = sqrt(2)^{p-1}/((p+1) pi^2).

    A4 and A6 follow algebraically; A6, with p - 3 in its denominator, is
    left out at p = 3 (it serves E5 alone).
    """
    _check_pq(p, q)
    # pref before any calibration, so that an overflow caches nothing.
    try:
        pref = math.sqrt(2.0) ** (p - 1.0) / ((p + 1.0) * PI ** 2)
    except OverflowError:
        raise Overflow(f"A2 and A3 exceed the double range at p = {p}") from None
    # Row 0 holds b_n a_{r,n}, and b_1 = 1/2: a_{r,1}/c = 2 b_1 a_{r,1}/c.
    c = 2.0 / (p + 1.0)
    rows = _series_coeffs(p, q)
    a1, iq = rows.item(0, 0), 2.0 * rows.item(0, 1) / c
    i0 = 2.0 * _series_coeffs(p, 0.0).item(0, 1) / c
    i2 = 2.0 * _series_coeffs(p, 2.0).item(0, 1) / c
    a2, a3, a5 = pref * iq, 2.0 * pref * i0, i2 / ((p + 1.0) * PI ** 2)
    out = {"A1": a1, "A2": a2, "A3": a3, "A4": (a3 - 4.0 * a2) / PI, "A5": a5}
    if p != 3.0:
        out["A6"] = 4.0 * a3 / ((p - 3.0) * q * PI)
    return out


def compute_C1(p: float) -> float:
    """C1 = (p+3) int_0^1 sqrt(f(s)) ds, f = (p-1)/(p+1) - s^2 + 2s^{p+1}/(p+1).

    (p+3) f = 2f + s f' + (p-1)(1-s^2), and (2f + s f')/sqrt(f) is the
    derivative of 2s sqrt(f), which vanishes at s = 0 and s = 1; so
    C1 = ((p-1)/2) C2 exactly, from the calibrated C2.
    """
    return 0.5 * (p - 1.0) * compute_Cq(p, 2.0)


def compute_Cq(p: float, q: float) -> float:
    """Cq = 2 int_0^1 (1 - s^q)/sqrt(f(s)) ds, read off its calibration
    local_logistic._norm_deficit (the asymptote's B_q = B_0 - Cq/2)."""
    _check_pq(p, q)
    return _norm_deficit(p, q)


def compute_E(p: float, q: float, a1: float, a2: float) -> dict:
    """The growth-law constants E1, E2, ln E3, E4 and E5 of theorem 3, for
    every p != 3."""
    _check_pq(p, q)
    check_weights(a1, a2)
    if p == 3.0:
        raise InvalidRegime("E constants have p - 3 in their powers; "
                            "undefined at p = 3")
    return _e_from_a(p, q, a1, a2, "proof_variant", compute_A(p, q))


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
    """E1, E2, ln E3, E4 and E5 from the A family; arguments already
    validated.

    E2's a1 term carries the amplitude coefficient A4 at q = 2
    (`_amplitude_a4`), not ``A["A4"]`` at the problem's q: the expansion of
    k^2/(2 d^2) holds d = ||w||_2 whatever norm the weight a1 uses. A4 at
    the problem's q is a transcription slip of this repository, not a
    reading of the paper (see README): the curve's own second coefficient
    rules it out wherever q != 2 and a1 > 0. ``reading`` is compute_all's.
    Overflow where one leaves the double range: E1 and E2 at a weight near
    the largest double, E5 at weights near the smallest and large p.
    """
    a1q = a1 * 2.0 ** ((q + 2.0) / q) * A["A1"] ** (2.0 / q)
    e1 = a1q + a2 * PI ** (2.0 / q)
    e2 = a1q * (_amplitude_a4(p, q, A) + (2.0 / q) * (A["A2"] / A["A1"])) \
        + (2.0 * a2 * PI ** ((2.0 - q) / q) / q) * A["A3"]
    denom = (p - 1.0) if reading == "paper_definition" else (p - 3.0)
    # In log form: E3 leaves the double range near p = 3.
    ln_e3 = (2.0 / (p - 3.0)) * math.log(e1) \
        - (4.0 / (denom * q)) * math.log(PI)
    e4 = 2.0 * (q * (p - 3.0) - (p - 1.0)) / (q * (p - 3.0) * PI) * A["A3"]
    e5 = ((2.0 / (p - 3.0)) * (e2 / e1) - A["A6"]) \
        * PI ** (2.0 * (p - 3.0) / (denom * q)) / e1
    return _finite({"E1": e1, "E2": e2, "ln_E3": ln_e3, "E4": e4, "E5": e5},
                   p, q, a1, a2)


@dataclass(frozen=True)
class ConstantSet:
    """Every constant the curve's asymptotics use, for one (p, q, a1, a2).

    E1..E5 (E3 as ln_E3), leading_coeff, second_coeff and A6 are None at
    p = 3 (undefined there).
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
    ln_E3: float | None
    E4: float | None
    E5: float | None
    e3_reading: str  # perfbench/gate.py's constants_pair reads it
    leading_coeff: float | None
    second_coeff: float | None

    def to_record(self) -> dict:
        """Flat key/value record with the canonical field names."""
        return asdict(self)


def compute_all(p: float, q: float, a1: float, a2: float,
                reading: str = "proof_variant") -> ConstantSet:
    """Assemble the full ConstantSet; the entries undefined at p = 3 are
    None there.

    ``reading`` takes "paper_definition" only for perfbench/workloads.py's
    compute_all(p, q, a1, a2, "paper_definition")."""
    _check_pq(p, q)
    check_weights(a1, a2)
    if reading not in READINGS:
        raise ValueError(f"reading must be one of {READINGS}, got {reading!r}")
    A = compute_A(p, q)
    c1 = compute_C1(p)
    cq = compute_Cq(p, q)
    if p == 3.0:
        E = dict.fromkeys(("E1", "E2", "ln_E3", "E4", "E5"))
        leading = second = None
    else:
        # L0 and S in the closed forms of the module docstring.
        E = _e_from_a(p, q, a1, a2, reading, A)
        e1 = E["E1"]
        leading = PI ** (2.0 - 2.0 / q) * e1
        second = PI ** (2.0 / q) / e1 \
            * (E["E2"] / e1 + 2.0 * (1.0 - 1.0 / q) * A["A3"] / PI)
        if reading == "paper_definition":
            leading *= _exp_in_range(8.0 * math.log(PI) / (q * (p - 1.0)
                                     * (3.0 - p)), "L0's pi factor", p, q)
            second *= _exp_in_range(-4.0 * math.log(PI) / (q * (p - 1.0)),
                                    "S's pi factor", p, q)
        _finite({"L0": leading, "S": second}, p, q, a1, a2)
    return ConstantSet(
        p=p, q=q, a1=a1, a2=a2, C1=c1, Cq=cq,
        A1=A["A1"], A2=A["A2"], A3=A["A3"], A4=A["A4"], A5=A["A5"],
        A6=A.get("A6"),
        E1=E["E1"], E2=E["E2"], ln_E3=E["ln_E3"], E4=E["E4"], E5=E["E5"],
        e3_reading=reading, leading_coeff=leading, second_coeff=second,
    )
