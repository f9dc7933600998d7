#!/usr/bin/env python3
"""Exit codes and stdout bytes of the command line, base revision against
the working tree.

    python3 tools/cli_bytes.py --base HEAD~1

Runs a fixed list of ``biflogis`` invocations as ``python -m biflogis.cli``,
each in a fresh interpreter, once on the base revision's ``src/`` and once
on the working tree's. The base revision is exported with
``tools/bench_pair.py``'s ``git archive`` helper, so the checkout is left
alone. The list holds the README's seven examples, their ``--format csv``
(or json) variants, a default grid, a solver error, two runs at
p = 1.5 (its constants, and a solve whose root lies on the moments'
Chebyshev branch), and the flag values outside the documented domain that
must be usage errors (exit 64), ``--e3-reading`` among them.

An invocation still running after ``TIMEOUT_S`` seconds is stopped and
shows exit code -1 with empty stdout: a revision that accepts a value a
later one rejects may start work of that size (``--step 1e-9`` before the
step had a lower bound starts 10**7-step marches on the way to a 10**9-step
one, whose samples need about 9 GB).

Prints one line per invocation: the exit code on each side, ``same`` or
``differs`` for the stdout bytes, and the arguments. Then the number of
invocations whose exit code changed and whose stdout differs. Exits 1 if
an invocation that exits 0 on both sides prints different stdout.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pair import ROOT, export  # noqa: E402

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
    # a default grid and a solver error
    "verify --p 5",
    "solve-local --p 3 --gamma 5",
    # p = 1.5: the constants, and a root on the Chebyshev branch (t = 7.79)
    "constants --p 1.5 --q 2",
    "solve --p 1.5 --alpha 0.01",
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


def side(root: Path, invocation: str) -> tuple[int, bytes]:
    """Exit code and stdout of one invocation on root's src/; -1 and no
    stdout if it runs past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        proc = subprocess.run([sys.executable, "-m", "biflogis.cli",
                               *invocation.split()], capture_output=True,
                              env=env, cwd=root, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, b""
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against")
    args = ap.parse_args(argv)

    changed = differs = broken = 0
    with tempfile.TemporaryDirectory(prefix="cli_bytes_") as tmp:
        export(args.base, Path(tmp))
        print("base change stdout invocation")
        for invocation in INVOCATIONS:
            rc_b, out_b = side(Path(tmp), invocation)
            rc_c, out_c = side(ROOT, invocation)
            same = out_b == out_c
            changed += rc_b != rc_c
            differs += not same
            broken += not same and rc_b == rc_c == 0
            print(f"{rc_b:4d} {rc_c:6d} {'same' if same else 'differs':8s}"
                  f"{invocation}")
    print(f"{len(INVOCATIONS)} invocations: {changed} exit codes changed, "
          f"{differs} stdout differ, {broken} of them exit 0 on both sides")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
