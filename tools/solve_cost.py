#!/usr/bin/env python3
"""Warm cost of a curve solve, its seed and its two result objects, base
revision against the working tree.

    python3 tools/solve_cost.py --base HEAD~1

Times ``solve_alpha`` on three sets of solves, one per moment branch its
roots land on (a1 = a2 = 1):

- series: p = 2, q = 3 over ``verify.DEFAULT_SUB_ALPHAS``;
- Chebyshev: p = 4, q = 3 at alpha = 10, 100 and 1e3;
- asymptote: p = 6.5, q = 2 over the 60 alphas of ``curve_super``
  (``perfbench/workloads.py``'s ``SUPER_ALPHAS``).

The series and asymptote sets are timed twice: with one ``ProblemParams``
for the whole set, and with a new one built for each solve (its build
timed too), as a caller that holds no instance pays.

Each set is solved once to fill the caches, then timed as whole passes;
a row reports the best pass's microseconds per solve. The last rows time
one ``LocalPoint`` and one ``NonlocalSolution`` built from the fields of
the solved point at p = 5, q = 2, alpha = 1e4, ``_seed_tau`` at that
point (asymptote) and at p = 2, q = 3, alpha = 100 (series), and one log
state ``local_logistic._log_state_at_t`` per moment branch: series
(p = 2, q = 3, t = 1e-3), Chebyshev (p = 4, q = 3, t = 5) and asymptote
(p = 6.5, q = 2, t = 1e4). The benchmark's tracer has no span on the
state layer, so these rows are where its cost shows. Then the public
(k, gamma) routes: ``time_map`` and ``q_norm`` (q = 3) at a series t
(p = 2, k = 1, nu = k^{p-1}/gamma = 0.2, t = 0.22) and at a Chebyshev t
(p = 4, k = 2, nu = 0.99, t = 4.6).

Each of ROUNDS rounds runs, in alternating order, one fresh interpreter
on the base revision's ``src/`` and one on the working tree's, both from
the fresh copies that ``tools/bench_pair.py``'s ``sides`` makes, so the
checkout is left alone; each interpreter takes the best of REPEAT timings
per row. Prints per row the range of the rounds' values on each side, best
to worst, and the change's best as a share of the base's.
"""

from __future__ import annotations

import argparse
import math
import sys
import timeit

import numpy as np

from bench_pair import in_fresh, sides

# curve_super's alpha grid, as perfbench/workloads.py builds it.
SUPER_ALPHAS = tuple(np.geomspace(1e3, 1e6, 60).tolist())
CHEB_ALPHAS = (10.0, 100.0, 1e3)
# Seconds of calls each timing of one constructor or seed aims at.
TARGET_S = 0.02
# Interpreter runs per side, and timings per row in each run.
ROUNDS = 5
REPEAT = 7


def measure() -> dict:
    """{row name: best microseconds per call} with the ``biflogis`` that
    ``sys.path`` finds first."""
    from biflogis import local_logistic as ll
    from biflogis import nonlocal_curve as nc
    from biflogis.verify import DEFAULT_SUB_ALPHAS

    sets = {
        "solve series (p 2, q 3)": (2.0, 3.0, DEFAULT_SUB_ALPHAS, False),
        "solve Chebyshev (p 4, q 3)": (4.0, 3.0, CHEB_ALPHAS, False),
        "solve asymptote (p 6.5, q 2)": (6.5, 2.0, SUPER_ALPHAS, False),
        "solve series, new params (p 2, q 3)":
            (2.0, 3.0, DEFAULT_SUB_ALPHAS, True),
        "solve asymptote, new params (p 6.5, q 2)":
            (6.5, 2.0, SUPER_ALPHAS, True),
    }
    out = {}
    for name, (p, q, alphas, new_params) in sets.items():
        if new_params:
            def sweep(p=p, q=q, alphas=alphas):
                for alpha in alphas:
                    nc.solve_alpha(alpha, nc.ProblemParams(p=p, q=q, a1=1.0,
                                                           a2=1.0))
        else:
            def sweep(params=nc.ProblemParams(p=p, q=q, a1=1.0, a2=1.0),
                      alphas=alphas):
                for alpha in alphas:
                    nc.solve_alpha(alpha, params)

        sweep()
        number = max(1, round(TARGET_S / timeit.timeit(sweep, number=1)))
        best = min(timeit.repeat(sweep, number=number, repeat=REPEAT))
        out[name] = 1e6 * best / (number * len(alphas))

    lp2, lp4 = ll.LocalParams(p=2.0), ll.LocalParams(p=4.0)
    sup = nc.ProblemParams(p=5.0, q=2.0, a1=1.0, a2=1.0)
    sub = nc.ProblemParams(p=2.0, q=3.0, a1=1.0, a2=1.0)
    sol = nc.solve_alpha(1e4, sup)
    nc.solve_alpha(100.0, sub)
    loc = sol.local
    calls = {
        "LocalPoint": lambda: ll.LocalPoint(loc.k, loc.gamma, loc.d, loc.p,
                                            loc.layer_t),
        "NonlocalSolution": lambda: nc.NonlocalSolution(
            sol.alpha, loc, sol.h, sol.beta, sol.lam, sol.regime),
        "seed asymptote (p 5, q 2)": lambda: nc._seed_tau(math.log(1e4), sup),
        "seed series (p 2, q 3)": lambda: nc._seed_tau(math.log(100.0), sub),
        "log state series (p 2, q 3, t 1e-3)":
            lambda: ll._log_state_at_t(1e-3, 2.0, 3.0),
        "log state Chebyshev (p 4, q 3, t 5)":
            lambda: ll._log_state_at_t(5.0, 4.0, 3.0),
        "log state asymptote (p 6.5, q 2, t 1e4)":
            lambda: ll._log_state_at_t(1e4, 6.5, 2.0),
        "time_map series (p 2, k 1, nu 0.2)":
            lambda: ll.time_map(1.0, 1.0 / 0.2, lp2),
        "time_map Chebyshev (p 4, k 2, nu 0.99)":
            lambda: ll.time_map(2.0, 8.0 / 0.99, lp4),
        "q_norm series (p 2, k 1, nu 0.2, q 3)":
            lambda: ll.q_norm(1.0, 1.0 / 0.2, 3.0, lp2),
        "q_norm Chebyshev (p 4, k 2, nu 0.99, q 3)":
            lambda: ll.q_norm(2.0, 8.0 / 0.99, 3.0, lp4),
    }
    for name, call in calls.items():
        number = max(1, round(TARGET_S / timeit.timeit(call, number=100)
                              * 100))
        out[name] = 1e6 * min(timeit.repeat(call, number=number,
                                            repeat=REPEAT)) / number
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against")
    args = ap.parse_args(argv)

    runs = {"base": [], "change": []}
    with sides(args.base) as roots:
        for i in range(ROUNDS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for name in order:
                runs[name].append(in_fresh(roots[name], "solve_cost",
                                           "measure"))

    print("row: base best-worst round -> change best-worst round (us), "
          "change/base of the bests")
    for row in runs["base"][0]:
        vals = {name: [run[row] for run in runs[name]] for name in runs}
        cells = [f"{min(v):.3f}-{max(v):.3f}" for v in vals.values()]
        print(f"{row}: {cells[0]} -> {cells[1]}, "
              f"{min(vals['change']) / min(vals['base']):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
