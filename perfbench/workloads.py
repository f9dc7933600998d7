"""Seeded workloads. A workload is a list of steps that one pass runs in order.

Every step's ``run`` makes only calls into ``biflogis`` (through module
attributes, so the op clock and tracer see them); its ``check`` is the
correctness gate for what ``run`` returned and runs outside the timing.
Ops inside ``curve_*`` steps are the ``solve_alpha`` calls the op clock
records; each ``xcheck`` step of ``oracle_xcheck`` is one op itself.

Draws are stratified so that every seed gives the same mix of work: the
exponent range is cut into one stratum per parameter set, and the (q,
weights) combinations are dealt out as a shuffled deck rather than drawn
independently. Why each workload exists is written in README.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from biflogis import constants as consts
from biflogis import local_logistic as ll
from biflogis import nonlocal_curve as nc
from biflogis import oracle, verify

import gate

SUB_WEIGHTS = ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
SUPER_WEIGHTS = ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))
QS = (2.0, 3.0, 4.0)

ACCEPT_SUB_ALPHAS = tuple(np.geomspace(1e2, 1e4, 5).tolist())
ACCEPT_SUPER_ALPHAS = tuple(np.geomspace(1e3, 1e5, 5).tolist())
SUPER_ALPHAS = tuple(np.geomspace(1e3, 1e6, 60).tolist())
# From p = 5 up, every residual of a supercritical sweep over SUPER_ALPHAS,
# bracket walk included, takes the closed-form t >= T_ASYM branch. Below
# about p = 4.8 the walk for the first alphas falls back to quadrature,
# which makes the cost of a pass depend on the seed.
SUPER_P_MIN = 5.0
PROFILE_EVERY = 15       # a profile at every 15th point of a supercritical set
PROFILE_N = 101          # sample_profile's n: 99 quadrature segments each

# Wall time of one untraced pass, gate and calibration samples included,
# at the reference speed. A run makes the fixed number of timed passes
# that fills --seconds at that speed, so the ops a run attempts, and the
# failed ones among them, repeat exactly for a seed.
PASS_S = {"curve_sub": 2.1, "curve_super": 0.42, "oracle_xcheck": 4.8}
MIN_PASSES = 3


@dataclass(frozen=True)
class Step:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    is_op: bool = False
    first: tuple | None = None   # (alpha, params) of a curve step's first op


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    return [round(lo + (i + rng.random()) * width, 4) for i in range(n)]


def _dealt(rng: random.Random, deck, n: int) -> list:
    """n cards from repeated shuffled copies of deck."""
    out = []
    while len(out) < n:
        cards = list(deck)
        rng.shuffle(cards)
        out += cards
    return out[:n]


# --- curve_sub ---------------------------------------------------------------

def _sub_set(p, q, a1, a2) -> Step:
    params = nc.ProblemParams(p=p, q=q, a1=a1, a2=a2)

    def run():
        verify.sweep(params, verify.DEFAULT_SUB_ALPHAS)
        return (consts.compute_all(p, q, a1, a2, "paper_definition"),
                consts.compute_all(p, q, a1, a2, "proof_variant"))

    return Step(f"sub p={p} q={q:g} a=({a1:g},{a2:g})", run,
                lambda out: gate.constants_pair(*out),
                first=(verify.DEFAULT_SUB_ALPHAS[0], params))


def _critical_set(q, a1, a2) -> Step:
    params = nc.ProblemParams(p=3.0, q=q, a1=a1, a2=a2)

    def run():
        return verify.check_theorem_2(verify.sweep(params, verify.DEFAULT_SUB_ALPHAS))

    return Step(f"critical q={q:g} a=({a1:g},{a2:g})", run,
                lambda out: gate.check(out[0]) + gate.check(out[1]))


def _acceptance_sub(a1, a2) -> Step:
    params = nc.ProblemParams(p=2.0, q=2.0, a1=a1, a2=a2)

    def run():
        report = verify.sweep(params, ACCEPT_SUB_ALPHAS)
        paper = consts.compute_all(2.0, 2.0, a1, a2, "paper_definition")
        variant = consts.compute_all(2.0, 2.0, a1, a2, "proof_variant")
        return paper, variant, verify.check_theorem_3(report, paper, variant)

    def check(out):
        paper, variant, (leading, second, _) = out
        other = leading.other_rel_error
        return gate.constants_pair(paper, variant) \
            + gate.check(leading, fitted_order=(-1.1, -0.9)) + gate.check(second) \
            + ([] if other is not None and other > leading.tolerance
               else [f"both E3 readings fit (other rel_error {other})"])

    return Step(f"theorem3 p=2 a=({a1:g},{a2:g})", run, check)


def curve_sub(rng: random.Random) -> list[Step]:
    combos = _dealt(rng, [(q, w) for q in QS for w in SUB_WEIGHTS], 9)
    ps = _strata(rng, 1.5, 2.8, len(combos))
    steps = [_sub_set(p, q, *w) for p, (q, w) in zip(ps, combos)]
    w_crit = _dealt(rng, SUB_WEIGHTS, 2)
    steps.append(_critical_set(2.0, *w_crit[0]))
    steps.append(_critical_set(rng.choice(QS[1:]), *w_crit[1]))
    steps += [_acceptance_sub(*w) for w in SUB_WEIGHTS]
    return steps


# --- curve_super -------------------------------------------------------------

def _super_set(p, q, a1, a2) -> Step:
    params = nc.ProblemParams(p=p, q=q, a1=a1, a2=a2)
    lp = ll.LocalParams(p=p)

    def run():
        report = verify.sweep(params, SUPER_ALPHAS)
        return [(sol.local, ll.sample_profile(sol.local, PROFILE_N, lp))
                for sol in report.solutions[::PROFILE_EVERY] if sol is not None]

    def check(out):
        return [msg for point, prof in out for msg in gate.profile(prof, point, PROFILE_N)]

    return Step(f"super p={p} q={q:g} a=({a1:g},{a2:g})", run, check,
                first=(SUPER_ALPHAS[0], params))


def _acceptance_super(a1, a2) -> Step:
    params = nc.ProblemParams(p=5.0, q=2.0, a1=a1, a2=a2)

    def run():
        return verify.check_theorem_1(verify.sweep(params, ACCEPT_SUPER_ALPHAS))

    return Step(f"theorem1 p=5 a=({a1:g},{a2:g})", run,
                lambda out: gate.check(out, fitted_order=(-1.05, -0.95)))


def curve_super(rng: random.Random) -> list[Step]:
    n = 4
    qs = _dealt(rng, QS, n)
    ws = _dealt(rng, SUPER_WEIGHTS, n)
    ps = _strata(rng, SUPER_P_MIN, 8.0, n)
    steps = [_super_set(p, q, *w) for p, q, w in zip(ps, qs, ws)]
    steps += [_acceptance_super(*w) for w in SUPER_WEIGHTS]
    return steps


# --- oracle_xcheck -----------------------------------------------------------

def _xcheck(p, gamma) -> Step:
    lp = ll.LocalParams(p=p)

    def run():
        ref = ll.point_from_gamma(gamma, lp)
        w4_ref = ll.point_q_norm(ref, 4.0, lp)
        point, prof = oracle.solve_bvp(gamma, p)
        w4 = oracle.norms_from_profile(prof, 4.0)
        m = math.sqrt(gamma * point.k ** 2 - 2.0 * point.k ** (p + 1.0) / (p + 1.0))
        drift = oracle.energy_drift(oracle.shoot(gamma, m, p))
        return ref, w4_ref, point, w4, drift

    return Step(f"xcheck p={p} gamma={gamma}", run,
                lambda out: gate.crosscheck(p, *out), is_op=True)


def _frozen(path: Path) -> Step:
    entries = gate.frozen_local_keys(path)
    solvers = {"k": "point_from_k", "gamma": "point_from_gamma", "d": "solve_for_d"}

    def run():
        values = []
        for qty, given, p, x, ref in entries:
            lp = ll.LocalParams(p=p)
            pt = getattr(ll, solvers[given])(x, lp)
            if qty == "w4":
                got = ll.point_q_norm(pt, 4.0, lp)
            elif qty == "eps":
                got = 1.0 - pt.k ** (p - 1.0) / pt.gamma
            else:
                got = getattr(pt, qty)
            values.append((f"{qty}[p={p:g},{given}={x:g}]", got, ref))
        return values

    return Step(f"frozen local points ({len(entries)})", run, gate.frozen)


def oracle_xcheck(rng: random.Random, frozen_table: Path) -> list[Step]:
    steps = []
    for p0 in (2.0, 3.0, 5.0):
        for g0 in (15.0, 50.0):
            p = round(p0 + rng.uniform(-0.2, 0.2), 4)
            gamma = round(g0 * math.exp(rng.uniform(-0.1, 0.1)), 4)
            steps.append(_xcheck(p, gamma))
    steps.append(_frozen(frozen_table))
    return steps


def timed_passes(name: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_S[name]))


def build(name: str, seed: int, frozen_table: Path) -> list[Step]:
    rng = random.Random(f"{name}:{seed}")
    if name == "curve_sub":
        return curve_sub(rng)
    if name == "curve_super":
        return curve_super(rng)
    if name == "oracle_xcheck":
        return oracle_xcheck(rng, frozen_table)
    raise ValueError(f"unknown workload {name!r}")


def first_op(steps: list[Step]) -> Step:
    """The workload's first op on its own, as the set-up measurement runs it."""
    step = steps[0]
    if step.is_op:
        return step
    alpha, params = step.first
    return Step("first op", lambda: nc.solve_alpha(alpha, params),
                lambda sol: gate.solution(sol, alpha, params), is_op=True)
