#!/usr/bin/env python3
"""Outcomes and relative shifts of the domain grid between a base revision
and the working tree.

    python3 tools/grid_shift.py --base HEAD~1

Runs ``solve_alpha`` on the 198 cases of
``tests/test_nonlocal.py::test_domain_grid_solved_or_typed_error``
(11 p x q in {1.1, 2, 8} x 6 alpha, a1 = a2 = 1; the test imports the
grid from here) once on the base revision's ``src/`` and once on the
working tree's, each in a fresh interpreter on the fresh copies that
``tools/bench_pair.py``'s ``sides`` makes, so the checkout is left alone.

Prints one line per case: p, q, alpha, the outcome on each side (``point``
or the error's class name) and, where both return a point, the largest
relative shift over its fields. Then the outcome counts per side with the
side's curve-residual evaluations over the grid (calls of
``nonlocal_curve._state_at_t``, one per evaluation, a deterministic work
count), in total and per regime: p < 3, the critical band (the grid's three
p within 1e-6 of 3) and p > 3, and per regime how many solves took 1, 2, 3
and 4 or more of them. Last come the number of points whose fields differ
at all, and for every field the worst relative shift and the case where it
occurs, once over p >= 1.5 and once over p < 1.5: below 1.5 the
conditioning of ln k = (ln em + ln gamma)/(p-1) near p = 1 (p = 1.05 in
the grid) magnifies a root's rounding, and sets the worst shift overall.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from bench_pair import in_fresh, sides

PS = (1.05, 1.5, 2.0, 2.9, 3.0 - 1e-6, 3.0 + 1e-6, 3.0 + 1e-8, 3.1,
      4.0, 8.0, 20.0)
QS = (1.1, 2.0, 8.0)
ALPHAS = (1e-6, 1e-2, 1.0, 1e2, 1e6, 1e12)
FIELDS = ("k", "gamma", "d", "layer_t", "h", "beta", "lam")
CASES = [(p, q, alpha) for p in PS for q in QS for alpha in ALPHAS]
# Half-width of the critical band the evaluation counts are split by.
BAND = 1e-5
REGIMES = ("p < 3", "critical band", "p > 3")
# The per-solve state counts the histogram tells apart; the last is "or more".
STATES = (1, 2, 3, 4)
# The p below which the worst shifts are reported apart.
P_SPLIT = 1.5
SPANS = (f"p >= {P_SPLIT}", f"p < {P_SPLIT}")


def regime(p: float) -> str:
    if abs(p - 3.0) <= BAND:
        return REGIMES[1]
    return REGIMES[0] if p < 3.0 else REGIMES[2]


def run_grid() -> dict:
    """{"cases": every case's fields as a dict, or its error's class name,
    "resid_evals": the curve-residual evaluations over the grid per regime,
    "states": per regime, the number of solves that took each count of
    STATES}, solved with the ``biflogis`` that ``sys.path`` finds first."""
    from biflogis import nonlocal_curve
    from biflogis.errors import BiflogisError
    from biflogis.nonlocal_curve import ProblemParams, solve_alpha

    evals = Counter()
    state_at_t = nonlocal_curve._state_at_t

    def counted(t, params):
        evals[regime(params.p)] += 1
        return state_at_t(t, params)

    nonlocal_curve._state_at_t = counted
    out = []
    states = {r: Counter() for r in REGIMES}
    for p, q, alpha in CASES:
        r = regime(p)
        before = evals[r]
        try:
            sol = solve_alpha(alpha, ProblemParams(p=p, q=q, a1=1.0, a2=1.0))
        except BiflogisError as exc:
            out.append(type(exc).__name__)
            continue
        finally:
            states[r][min(evals[r] - before, STATES[-1])] += 1
        loc = sol.local
        out.append(dict(zip(FIELDS, (loc.k, loc.gamma, loc.d, loc.layer_t,
                                     sol.h, sol.beta, sol.lam))))
    return {"cases": out, "resid_evals": evals, "states": states}


def shift(a: float, b: float) -> float:
    return 0.0 if a == b else abs(b / a - 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against")
    args = ap.parse_args(argv)

    with sides(args.base) as roots:
        base, change = (in_fresh(roots[name], "grid_shift", "run_grid")
                        for name in ("base", "change"))

    evals = {"base": base["resid_evals"], "change": change["resid_evals"]}
    states = {"base": base["states"], "change": change["states"]}
    base, change = base["cases"], change["cases"]
    worst = {(span, name): (0.0, None) for span in SPANS for name in FIELDS}
    counts = {"base": Counter(), "change": Counter()}
    moved = 0
    print("p q alpha base change max_rel_shift")
    for case, b, c in zip(CASES, base, change):
        outcomes = [r if isinstance(r, str) else "point" for r in (b, c)]
        counts["base"][outcomes[0]] += 1
        counts["change"][outcomes[1]] += 1
        line = " ".join(map(repr, case)) + " " + " ".join(outcomes)
        if outcomes == ["point", "point"]:
            shifts = {name: shift(b[name], c[name]) for name in FIELDS}
            moved += any(shifts.values())
            span = SPANS[case[0] < P_SPLIT]
            for name, s in shifts.items():
                if s > worst[span, name][0]:
                    worst[span, name] = (s, case)
            line += f" {max(shifts.values()):.3g}"
        print(line)
    for name in ("base", "change"):
        print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in
                                      sorted(counts[name].items()))
              + f"; {sum(evals[name].values())} curve-residual evaluations ("
              + ", ".join(f"{r} {evals[name].get(r, 0)}" for r in REGIMES)
              + ")")
        # JSON keys are strings: the counts of STATES read back as "1" etc.
        print(f"{name} solves by states (1, 2, 3, 4+): " + "; ".join(
            f"{r} " + ", ".join(str(states[name][r].get(str(n), 0))
                                for n in STATES) for r in REGIMES))
    print(f"points that moved: {moved}")
    for (span, name), (s, case) in worst.items():
        at = "" if case is None else " at p, q, alpha = %r, %r, %r" % case
        print(f"worst {name} ({span}): {s:.3g}{at}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
