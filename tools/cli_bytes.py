#!/usr/bin/env python3
"""Exit codes and stdout bytes of the command line, base revision against
the working tree.

    python3 tools/cli_bytes.py --base HEAD~1

Runs a fixed list of ``biflogis`` invocations as ``python -m biflogis.cli``,
each in a fresh interpreter, once on the base revision's ``src/`` and once
on the working tree's, both from the fresh copies that
``tools/bench_pair.py``'s ``sides`` makes, so the checkout is left alone.
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
error, exit 1), and the flag values outside the documented domain that
must be usage errors (exit 64), ``--e3-reading`` among them.

An invocation still running after ``TIMEOUT_S`` seconds is stopped and
shows exit code -1 with empty stdout: a revision that accepts a value a
later one rejects may start work of that size (``--step 1e-9`` before the
step had a lower bound starts 10**7-step marches on the way to a 10**9-step
one, whose samples need about 9 GB).

Prints one line per invocation: the exit code on each side, ``same`` or
``differs`` for the stdout bytes, and the arguments. Then the number of
invocations whose exit code changed and whose stdout differs. Exits 1 if
an invocation that exits 0 on both sides prints different stdout, or if
one that exits 1 on the working tree names a bare ``ValueError`` or
``OverflowError`` on stderr (``biflogis <cmd>: ValueError: ...``): a
solver outcome is a package error, and a bare one is a bug. Such a line
ends in ``BARE``. It also exits 1, and the line ends in ``NONFINITE``, if
the working tree prints a non-finite number (``NaN``, ``Infinity``,
``nan`` or ``inf``, with or without a sign) as a JSON or CSV value.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from bench_pair import sides

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
    # values outside the documented domain
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


# Longest run of one invocation; the slowest in the list takes about 1 s.
TIMEOUT_S = 60


def side(root: Path, invocation: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one invocation on root's src/; -1
    and no output if it runs past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        proc = subprocess.run([sys.executable, "-m", "biflogis.cli",
                               *invocation.split()], capture_output=True,
                              env=env, cwd=root, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, b"", b""
    return proc.returncode, proc.stdout, proc.stderr


def names_bare_error(code: int, invocation: str, stderr: bytes) -> bool:
    """Whether an exit-1 run reports a bare ValueError or OverflowError."""
    command = invocation.split()[0]
    return code == 1 and any(
        f"biflogis {command}: {name}:".encode() in stderr
        for name in ("ValueError", "OverflowError"))


def prints_nonfinite(stdout: bytes) -> bool:
    """Whether stdout holds a non-finite number as a JSON or CSV value."""
    text = stdout.decode()
    found = []
    try:
        json.loads(text, parse_constant=found.append)
    except ValueError:
        found = [f for row in csv.reader(text.splitlines()) for f in row
                 if re.fullmatch(r"\s*[+-]?(nan|inf|infinity)\s*", f, re.I)]
    return bool(found)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against")
    args = ap.parse_args(argv)

    changed = differs = broken = bare = nonfinite = 0
    with sides(args.base) as roots:
        print("base change stdout invocation")
        for invocation in INVOCATIONS:
            rc_b, out_b, _ = side(roots["base"], invocation)
            rc_c, out_c, err_c = side(roots["change"], invocation)
            same = out_b == out_c
            is_bare = names_bare_error(rc_c, invocation, err_c)
            is_nonfinite = prints_nonfinite(out_c)
            changed += rc_b != rc_c
            differs += not same
            broken += not same and rc_b == rc_c == 0
            bare += is_bare
            nonfinite += is_nonfinite
            print(f"{rc_b:4d} {rc_c:6d} {'same' if same else 'differs':8s}"
                  f"{invocation}{'  BARE' if is_bare else ''}"
                  f"{'  NONFINITE' if is_nonfinite else ''}")
    print(f"{len(INVOCATIONS)} invocations: {changed} exit codes changed, "
          f"{differs} stdout differ, {broken} of them exit 0 on both sides, "
          f"{bare} bare errors and {nonfinite} non-finite outputs on the "
          f"working tree")
    return 1 if broken or bare or nonfinite else 0


if __name__ == "__main__":
    sys.exit(main())
