#!/usr/bin/env python3
"""The shooting solver's outcome, accuracy and RK4 work on a fixed (p, gamma) grid.

    python3 tools/oracle_grid.py
    python3 tools/oracle_grid.py --base HEAD~1
    python3 tools/oracle_grid.py --xcheck 1-20 --base HEAD~1

Runs ``oracle.solve_bvp`` at the default ``ShootConfig`` on the 56 cases
p in {1.2, 1.5, 2, 3, 5, 8, 20, 50} x gamma in {10, 12, 15, 30, 50, 80, 120}
and prints one line per case: p, gamma, the outcome (``point`` or the
error's class name), k (full precision, blank without a point), the
relative misses of k and d against ``local_logistic.point_from_gamma``, the
number of RK4 marches, the RK4 steps they asked for (the sum of
``n_steps`` over the ``kernels.rk4_shoot`` calls), the fine marches (those
asking for at least half the requested ``n_steps``: the full marches of a
launch from x = 0 and the half-marches of a launch from the midpoint alike;
the half-length march of n_steps/4 that predicts the requested root counts
under marches and steps, but not under fine) and, for an error, its
message. The last line holds the outcome counts, the largest k and d misses
and the march, step and fine-march totals. Outcomes and k compare two
revisions case by case; the counts compare their work, and the fine-march
column shows whether a change moved the coarse levels' work or the
requested march's.

The solves run in a fresh interpreter on the working tree's ``src/``, and
with ``--base REV`` in a second one on REV's, both from the fresh copies
that ``tools/bench_pair.py``'s ``sides`` makes, so the checkout is left
alone. Each line then holds p, gamma, the outcome on the base and on the
working tree, the relative shift of k where both sides found a point, both
sides' k and d misses, both sides' RK4 steps and the errors' messages. The
last lines hold each side's outcome counts, largest misses and totals, the
cases whose outcome flipped, the largest k shift and the steps of the cases
solved on both sides.

With ``--xcheck SEEDS`` (``1-20``, ``3`` or ``1,4,9``) the tool runs the
``oracle_xcheck`` benchmark's solves instead: the six (p, gamma) per seed,
drawn as ``perfbench/workloads.py`` draws them. Each line holds the seed, p,
gamma, the requested half-marches (n_steps/2 steps), the half-length
marches (n_steps/4) and the RK4 steps of one ``solve_bvp``; the last line
holds their totals. With ``--base`` each of the three counts is printed for
the base and the working tree.
"""

from __future__ import annotations

import argparse
import math
import random
from collections import Counter
from contextlib import contextmanager

from bench_pair import in_fresh, parse_spec, sides

PS = (1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 20.0, 50.0)
GAMMAS = (10.0, 12.0, 15.0, 30.0, 50.0, 80.0, 120.0)


@contextmanager
def marches():
    """The n_steps of every kernels.rk4_shoot call made inside the block."""
    from biflogis import kernels

    march = kernels.rk4_shoot
    steps = []

    def counted(*args):
        steps.append(args[3])
        return march(*args)

    kernels.rk4_shoot = counted
    try:
        yield steps
    finally:
        kernels.rk4_shoot = march


def grid() -> list[list]:
    """[p, gamma, outcome, k, marches, steps, fine, k_miss, d_miss, message]
    per case on the ``biflogis`` that ``sys.path`` finds first; k and the
    misses are None without a point, the message is empty with one."""
    from biflogis import oracle
    from biflogis.errors import BiflogisError
    from biflogis.local_logistic import LocalParams, point_from_gamma

    n_fine = oracle.ShootConfig().n_steps
    rows = []
    with marches() as steps:
        for p in PS:
            for gamma in GAMMAS:
                steps.clear()
                k = k_miss = d_miss = None
                try:
                    point, _ = oracle.solve_bvp(gamma, p)
                    outcome, k, message = "point", point.k, ""
                except BiflogisError as exc:
                    outcome, message = type(exc).__name__, str(exc)
                if k is not None:
                    ref = point_from_gamma(gamma, LocalParams(p=p))
                    k_miss = abs(point.k / ref.k - 1.0)
                    d_miss = abs(point.d / ref.d - 1.0)
                rows.append([p, gamma, outcome, k, len(steps), sum(steps),
                             sum(2 * n >= n_fine for n in steps),
                             k_miss, d_miss, message])
    return rows


def xcheck_draws(seed: int) -> list[tuple[float, float]]:
    """The (p, gamma) of the oracle_xcheck benchmark's six solves for a
    seed, drawn as perfbench/workloads.py draws them."""
    rng = random.Random(f"oracle_xcheck:{seed}")
    draws = []
    for p0 in (2.0, 3.0, 5.0):
        for g0 in (15.0, 50.0):
            p = round(p0 + rng.uniform(-0.2, 0.2), 4)
            draws.append((p, round(g0 * math.exp(rng.uniform(-0.1, 0.1)), 4)))
    return draws


def xcheck(seeds: list[int]) -> list[list]:
    """[seed, p, gamma, requested, half_length, steps] per oracle_xcheck
    solve of the seeds, on the ``biflogis`` that ``sys.path`` finds first."""
    from biflogis import oracle

    n = oracle.ShootConfig().n_steps // 2
    rows = []
    with marches() as steps:
        for seed in seeds:
            for p, gamma in xcheck_draws(seed):
                steps.clear()
                oracle.solve_bvp(gamma, p)
                rows.append([seed, p, gamma, steps.count(n),
                             steps.count(n // 2), sum(steps)])
    return rows


def counts(rows: list[list]) -> str:
    tally = Counter(row[2] for row in rows)
    return ", ".join(f"{n} {name}" for name, n in sorted(tally.items()))


def miss(v) -> str:
    return "" if v is None else f"{v:.2e}"


def worst(rows: list[list]) -> str:
    """The largest k and d misses of the rows' points."""
    k = max((r[7] for r in rows if r[7] is not None), default=None)
    d = max((r[8] for r in rows if r[8] is not None), default=None)
    return f"max k miss {miss(k)}, max d miss {miss(d)}"


def print_grid(rows: list[list]) -> None:
    print("p\tgamma\toutcome\tk\tk_miss\td_miss\tmarches\tsteps\tfine"
          "\tmessage")
    for p, gamma, outcome, k, marches, steps, fine, k_miss, d_miss, msg in rows:
        print(f"{p}\t{gamma}\t{outcome}\t{'' if k is None else repr(k)}"
              f"\t{miss(k_miss)}\t{miss(d_miss)}\t{marches}\t{steps}\t{fine}"
              f"\t{msg}")
    print(f"total\t{len(rows)} cases\t{counts(rows)}\t{worst(rows)}"
          f"\t{sum(r[4] for r in rows)}\t{sum(r[5] for r in rows)}"
          f"\t{sum(r[6] for r in rows)}")


def print_diff(base: list[list], change: list[list]) -> None:
    print("p\tgamma\tbase\tchange\tk_shift\tbase_k_miss\tchange_k_miss"
          "\tbase_d_miss\tchange_d_miss\tbase_steps\tchange_steps"
          "\tbase_message\tchange_message")
    shifts, both = [], []
    for b, c in zip(base, change):
        shift = ""
        if b[3] is not None and c[3] is not None:
            rel = abs(c[3] / b[3] - 1.0)
            shifts.append((rel, b[0], b[1]))
            both.append((b[5], c[5]))
            shift = f"{rel:.2e}"
        print(f"{b[0]}\t{b[1]}\t{b[2]}\t{c[2]}\t{shift}\t{miss(b[7])}"
              f"\t{miss(c[7])}\t{miss(b[8])}\t{miss(c[8])}\t{b[5]}\t{c[5]}"
              f"\t{b[9]}\t{c[9]}")
    for name, rows in (("base", base), ("change", change)):
        print(f"total {name}\t{len(rows)} cases\t{counts(rows)}\t"
              f"{worst(rows)}\t{sum(r[4] for r in rows)} marches\t"
              f"{sum(r[5] for r in rows)} steps\t{sum(r[6] for r in rows)} fine")
    flipped = [f"({b[0]}, {b[1]}) {b[2]} -> {c[2]}"
               for b, c in zip(base, change) if b[2] != c[2]]
    print(f"flipped\t{len(flipped)}\t{'; '.join(flipped)}")
    if shifts:
        rel, p, gamma = max(shifts)
        print(f"solved by both\t{len(shifts)}\tmax k shift {rel:.2e} at "
              f"({p}, {gamma})\tsteps {sum(s[0] for s in both)} -> "
              f"{sum(s[1] for s in both)}")


def print_xcheck(rows: list[list]) -> None:
    print("seed\tp\tgamma\trequested\thalf_length\tsteps")
    for row in rows:
        print("\t".join(map(str, row)))
    print(f"total\t{len(rows)} solves\t\t{sum(r[3] for r in rows)}"
          f"\t{sum(r[4] for r in rows)}\t{sum(r[5] for r in rows)}")


def print_xcheck_diff(base: list[list], change: list[list]) -> None:
    print("seed\tp\tgamma\tbase_requested\tchange_requested"
          "\tbase_half_length\tchange_half_length\tbase_steps\tchange_steps")
    for b, c in zip(base, change):
        print("\t".join(map(str, b[:3] + [b[3], c[3], b[4], c[4], b[5], c[5]])))
    sums = [sum(r[i] for r in rows) for i in (3, 4, 5) for rows in (base, change)]
    print(f"total\t{len(change)} solves\t\t" + "\t".join(map(str, sums)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--xcheck", metavar="SEEDS",
                    type=lambda text: parse_spec(f"oracle_xcheck:{text}")[1],
                    help="run the oracle_xcheck solves of these seeds instead")
    args = ap.parse_args(argv)

    seeds = args.xcheck
    call = ("grid",) if seeds is None else ("xcheck", seeds)
    # Without --base only the change's copy runs.
    with sides(args.base or "HEAD") as roots:
        change = in_fresh(roots["change"], "oracle_grid", *call)
        if args.base is None:
            (print_grid if seeds is None else print_xcheck)(change)
            return 0
        base = in_fresh(roots["base"], "oracle_grid", *call)
    (print_diff if seeds is None else print_xcheck_diff)(base, change)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
