#!/usr/bin/env python3
"""Exit codes, stdout bytes and outcomes of the command line, base
revision against the working tree.

    python3 tools/cli_bytes.py --base HEAD~1

Runs a fixed list of ``biflogis`` invocations through ``fuzz_cli.run_all``,
all of one side's in one fresh interpreter (``bench_pair.in_fresh``), once
on the base revision's ``src/`` and once on the working tree's, both from
the fresh copies that ``bench_pair.sides`` makes, so the checkout is left
alone. ``fuzz_cli.run`` classifies every run on both sides the same way.
The list holds the README's seven examples, their ``--format csv``
(or json) variants, a default grid, a solver error, a sweep CSV whose
alpha = 1000 row is left out (p = 20, past the tau wall), two runs at
p = 1.5 (its constants, and a solve whose root lies on the moments'
Chebyshev branch), two runs near p = 1 (a Chebyshev-panel solve at
p = 1.05 and a profile on the sinh route at p = 1.2), six near-critical
runs (both ends' laws at p = 3.01, 2.999, 3 - 1e-6 and 3 +- 5e-10, and
the constants at 2.999), both ends' laws at p = 1.05 and 12 and the
constants at p = 5, three runs of the laws at weights near 1e-300, two
at p = 100 and 300 (theorem 1 on the late large-d window), the
constants and laws at p = 100 with weights near 1e-300 (S leaves the
double range), three runs at p = 3 whose grids solve no row (a solver
error, exit 1), the laws at p = 3 as CSV and at (p, q, a1, a2) =
(12, 6, 0.3, 1) and (1.5, 1.5, 2, 0), four solves whose point has a
subnormal field (beta twice, d, h; a solver error, exit 1) and a sweep
whose first row is one of them (exit 0, the row's error recorded), two
local solves at p = 1.2 whose point would have a subnormal d or k
(``--k 1e-315`` and ``--d 1e-315``; a solver error, exit 1), and the
19 flag values outside the documented domain that must be usage errors
(exit 64), ``--e3-reading`` among them.

Nothing stops a run that takes too long, so the base must reject
``--step 1e-9``, as every revision since ``3f94267`` does: one that
accepted it would start a 10**9-step march whose samples need about 9 GB.

Prints one line per invocation: the exit code on each side, ``same`` or
``differs`` for the stdout bytes, the arguments, and ``(base outcome ->
change outcome)`` where the outcomes differ, such as ``(bare ValueError
-> exit 1 InvalidBracket)``. Then the number of invocations whose exit
code changed, whose stdout differs and whose outcome changed. Exits 1 if
an invocation that exits 0 on both sides prints different stdout, or if
the working tree's outcome of one is bad as ``fuzz_cli`` defines it (a
traceback, a bare error, a warning, non-finite output, or DegenerateFit
or exit 2 out of verify), other than ``usage``: the list holds usage
errors on purpose. Such a line ends in ``BAD``.
"""

from __future__ import annotations

import argparse
import sys

from bench_pair import in_fresh, sides

INVOCATIONS = [
    # README examples and their other output format
    "constants --p 2 --q 2",
    "solve-local --p 3 --gamma 15 --q 4",
    "solve --p 5 --a1 1 --a2 0 --alpha 100",
    "solve --p 5 --a1 1 --a2 0 --alpha 100 --format csv",
    "profile --p 3 --gamma 15 --format csv",
    "profile --p 3 --gamma 15",
    "sweep --p 5 --alpha-min 10 --alpha-max 1e4 --points 9 --format csv",
    "sweep --p 5 --alpha-min 10 --alpha-max 1e4 --points 9",
    "verify --p 2 --q 2 --a1 0 --a2 1",
    "verify --p 2 --q 2 --a1 0 --a2 1 --format csv",
    "oracle-check --p 3 --gamma 15",
    # a default grid, a solver error and a sweep CSV that leaves a row out
    "verify --p 5",
    "solve-local --p 3 --gamma 5",
    "sweep --p 20 --alpha-min 1 --alpha-max 1000 --points 2 --format csv",
    # p = 1.5: the constants, and a root on the Chebyshev branch (t = 7.79)
    "constants --p 1.5 --q 2",
    "solve --p 1.5 --alpha 0.01",
    # near p = 1: a Chebyshev-panel calibration whose nodes mostly have
    # small u (t = 1.13), and a profile on the sinh route (t = 1.19)
    "solve-local --p 1.05 --gamma 30 --q 8",
    "profile --p 1.2 --gamma 30",
    # near p = 3: alpha(t) exceeds 10^400 at p = 3.01, ln E3 = -1386 at 2.999
    "verify --p 3.01",
    "verify --p 2.999",
    "constants --p 2.999",
    "verify --p 2.999999",
    # half a nano off p = 3: only p = 3 itself is critical
    "verify --p 3.0000000005",
    "verify --p 2.9999999995",
    # far from p = 3: theorems 1 and 3 at both ends, p > 3's L0 and S
    "verify --p 1.05",
    "verify --p 12",
    "constants --p 5",
    # weights near the smallest double: theorem 3 extrapolates over
    # abscissae near 1e-203
    "verify --p 5 --a1 1e-300 --a2 0",
    "verify --p 2.5 --a1 1e-300 --a2 0",
    "verify --p 2.5 --a1 1e-200 --a2 1e-200",
    # large p: theorem 1 on ln t in [8, 10], where [4, 6] read 1.35e-2 and
    # 0.517
    "verify --p 100 --q 2",
    "verify --p 300 --q 2",
    # large p at weights near 1e-300: S = O(1/(a1 + a2)) leaves the double
    # range
    "constants --p 100 --a1 1e-300 --a2 1e-300",
    "verify --p 100 --a1 1e-300 --a2 1e-300",
    # p = 3 grids on which no alpha solves: theorem 2 has no row to read
    "verify --p 3 --a1 1e-300 --a2 0",
    "verify --p 3 --a1 1e-300 --a2 1e-300",
    "verify --p 3 --alpha-min 1e200 --alpha-max 1e300",
    # the law table at p = 3, and at two more sets of (p, q, a1, a2)
    "verify --p 3 --q 4 --format csv",
    "verify --p 12 --q 6 --a1 0.3 --a2 1",
    "verify --p 1.5 --q 1.5 --a1 2 --a2 0",
    # points with a subnormal beta (twice), d and h: no float point
    # represents the curve there
    "solve --p 2.179490858021703 --q 4.1534001430986995 --a1 0.0 "
    "--a2 1.4141094583587861e+175 --alpha 2.8448645560149516e-248",
    "solve --p 4.73707040902549 --q 4.354975397032865 --a1 0.0 "
    "--a2 1.0851569583275558e-68 --alpha 9.176537363988318e-126",
    "solve --p 1.5 --q 4 --a1 0 --a2 1.0747576099256558e+234 "
    "--alpha 4.804585581786786e-52",
    "solve --p 2 --q 2 --a1 5.5088439034057426e+277 "
    "--a2 1.376834636922323e+47 --alpha 3.983715853753032e-300",
    "sweep --p 2 --q 2 --a1 5.5088439034057426e+277 "
    "--a2 1.376834636922323e+47 --alpha-min 3.983715853753032e-300 "
    "--alpha-max 1e-290 --points 3",
    # local points at p = 1.2 with a subnormal d (7.1e-316) and k (1.4e-315)
    "solve-local --p 1.2 --k 1e-315",
    "solve-local --p 1.2 --d 1e-315",
    # values outside the documented domain, the last 19 of the list
    "solve-local --p 0.5 --k 1",
    "profile --p 0.5 --k 1",
    "oracle-check --p 0.5 --gamma 20",
    "solve-local --k -1",
    "solve-local --p 3 --gamma -1",
    "profile --p 3 --d 0",
    "solve-local --p 2 --k 1 --q 0.5",
    "oracle-check --gamma 20 --step 1",
    "oracle-check --p 3 --gamma 15 --step 1e-2 --tol -1",
    "oracle-check --p 3 --gamma 15 --step 1e-9",
    "solve --p 0.5 --alpha 1",
    "solve --alpha -1",
    "constants --q 0.5",
    "solve --alpha 10 --a1 nan",
    "verify --p 5 --points 7",
    "sweep --alpha-min 1 --alpha-max 1.0000000000000002 --points 5",
    "profile --p 3 --gamma 20 --points 100000000000000000000",
    "constants --p 2 --q 2 --e3-reading proof_variant",
    "verify --p 2 --q 2 --a1 0 --a2 1 --e3-reading paper_definition",
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against")
    args = ap.parse_args(argv)

    with sides(args.base) as roots:
        runs = {side: in_fresh(root, "fuzz_cli", "run_all", INVOCATIONS)
                for side, root in roots.items()}
    changed = differs = broken = moved = bad = 0
    print("base change stdout invocation")
    for invocation, (rc_b, out_b, was, _), (rc_c, out_c, now, is_bad) in zip(
            INVOCATIONS, runs["base"], runs["change"]):
        same = out_b == out_c
        is_bad = is_bad and now != "usage"
        changed += rc_b != rc_c
        differs += not same
        broken += not same and rc_b == rc_c == 0
        moved += was != now
        bad += is_bad
        print(f"{rc_b:4d} {rc_c:6d} {'same' if same else 'differs':8s}"
              f"{invocation}{f'  ({was} -> {now})' if was != now else ''}"
              f"{'  BAD' if is_bad else ''}")
    print(f"{len(INVOCATIONS)} invocations: {changed} exit codes changed, "
          f"{differs} stdout differ, {broken} of them exit 0 on both sides, "
          f"{moved} outcomes changed and {bad} bad outcomes on the working "
          f"tree")
    return 1 if broken or bad else 0


if __name__ == "__main__":
    sys.exit(main())
