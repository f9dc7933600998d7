#!/usr/bin/env python3
"""The shooting solver's outcome and RK4 work on a fixed (p, gamma) grid.

    python3 tools/oracle_grid.py

Runs ``oracle.solve_bvp`` at the default ``ShootConfig`` on the 56 cases
p in {1.2, 1.5, 2, 3, 5, 8, 20, 50} x gamma in {10, 12, 15, 30, 50, 80, 120}
and prints one line per case: p, gamma, the outcome (``point`` or the
error's class name), k (full precision, blank without a point), the
number of RK4 marches, the RK4 steps they asked for (the sum of
``n_steps`` over the ``kernels.rk4_shoot`` calls) and the finest level's
marches (those of the requested ``n_steps``). The last line holds the
outcome counts and the march, step and finest-march totals. Outcomes and k
compare two revisions case by case; the counts compare their work, and the
finest-march column shows whether a search change moved the coarse levels'
work or the requested march's.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from biflogis import kernels, oracle  # noqa: E402
from biflogis.errors import BiflogisError  # noqa: E402

PS = (1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 20.0, 50.0)
GAMMAS = (10.0, 12.0, 15.0, 30.0, 50.0, 80.0, 120.0)


def main() -> int:
    march = kernels.rk4_shoot
    steps = []

    def counted(gamma, m, p, n):
        steps.append(n)
        return march(gamma, m, p, n)

    kernels.rk4_shoot = counted
    n_fine = oracle.ShootConfig().n_steps
    outcomes = Counter()
    marches = total = fine_total = 0
    print("p\tgamma\toutcome\tk\tmarches\tsteps\tfinest")
    for p in PS:
        for gamma in GAMMAS:
            steps.clear()
            try:
                point, _ = oracle.solve_bvp(gamma, p)
                outcome, k = "point", repr(point.k)
            except BiflogisError as exc:
                outcome, k = type(exc).__name__, ""
            outcomes[outcome] += 1
            fine = steps.count(n_fine)
            marches += len(steps)
            total += sum(steps)
            fine_total += fine
            print(f"{p}\t{gamma}\t{outcome}\t{k}\t{len(steps)}\t{sum(steps)}"
                  f"\t{fine}")
    counts = ", ".join(f"{n} {name}" for name, n in sorted(outcomes.items()))
    print(f"total\t{len(PS) * len(GAMMAS)} cases\t{counts}\t\t{marches}\t{total}"
          f"\t{fine_total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
