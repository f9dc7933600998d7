#!/usr/bin/env python3
"""Seeded fuzz of the command line over its documented domain.

    python3 tools/fuzz_cli.py --seed 1 --count 1500 verify
    python3 tools/fuzz_cli.py --seed 1 --count 10000

Draws ``--count`` argument lists, each for a subcommand picked with equal
odds from those named (all seven by default), and runs each through
``biflogis.cli.main(argv)`` in this one process, with stdout and stderr
captured and every warning recorded. The draw:

- p from [1.001, 3], [3, 20] or [20, 300], with equal odds;
- q from [1.1, 8];
- the weights a1 and a2 each s U(0, 1), with one scale s = 10^U(-300, 300)
  per draw, and one of them, either with equal odds, set to 0 in two
  draws of three;
- alpha, k, gamma and d as 10^U(-300, 300); a sweep's alpha range as two
  such values in order, and its --points from [2, 9]; a profile's
  --points from [3, 201]; solve-local's --q, given in one draw of two, and
  oracle-check's from [1.1, 8]. verify runs on its default alpha grid and
  oracle-check on its default step and tolerance.

Each run ends in one outcome: ``exit 0``, ``exit 2``, or ``exit 1``
with the name of the typed ``BiflogisError`` it reports, each counted. A
bad outcome is one of:

- ``traceback``: an exception out of ``main``;
- ``bare <name>``: an exit 1 naming an error that is not a
  ``BiflogisError``, such as ``ValueError`` or ``OverflowError``;
- ``warning``: any warning recorded during the run;
- ``nonfinite``: a non-finite number as a JSON or CSV value of stdout;
- ``exit 1 DegenerateFit`` out of verify;
- ``exit 2`` out of verify, a failed law row. The laws are theorems, so a
  failed row on an input of the domain is a wrong verdict (oracle-check's
  exit 2, a failed cross-check at its default tolerance, is counted);
- ``usage``: exit 64, a usage error on an argument list of the domain.

``run`` is the one classifier of a command-line run: ``run_all`` gives
each run's exit code, stdout, outcome and bad flag for a list of argument
strings in one process, and ``tools/cli_bytes.py`` compares two revisions
through it.

Prints the outcome table, counts per subcommand and outcome, then every
bad argument list with its outcome and stderr. Exits 1 if any run was bad.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import random
import re
import sys
import traceback
import warnings
from collections import Counter

from biflogis import errors
from biflogis.cli import main as cli_main

COMMANDS = ("constants", "solve-local", "solve", "profile", "sweep",
            "verify", "oracle-check")
P_RANGES = ((1.001, 3.0), (3.0, 20.0), (20.0, 300.0))
TYPED = {name for name, obj in vars(errors).items()
         if isinstance(obj, type) and issubclass(obj, errors.BiflogisError)}


def _magnitude(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-300.0, 300.0)


def draw(rng: random.Random, command: str) -> list[str]:
    """One argument list for command, drawn as the module docstring says."""
    argv = [command, "--p", repr(rng.uniform(*rng.choice(P_RANGES)))]
    if command in ("solve-local", "profile"):
        argv += [rng.choice(("--k", "--gamma", "--d")),
                 repr(_magnitude(rng))]
        if command == "profile":
            argv += ["--points", str(rng.randint(3, 201))]
        elif rng.random() < 0.5:
            argv += ["--q", repr(rng.uniform(1.1, 8.0))]
        return argv
    argv += ["--q", repr(rng.uniform(1.1, 8.0))]
    if command == "oracle-check":
        return argv + ["--gamma", repr(_magnitude(rng))]
    scale = 10.0 ** rng.uniform(-300.0, 300.0)
    weights = [scale * rng.random(), scale * rng.random()]
    if rng.random() < 2.0 / 3.0:
        weights[rng.randrange(2)] = 0.0
    argv += ["--a1", repr(weights[0]), "--a2", repr(weights[1])]
    if command == "solve":
        argv += ["--alpha", repr(_magnitude(rng))]
    elif command == "sweep":
        lo, hi = sorted((_magnitude(rng), _magnitude(rng)))
        argv += ["--alpha-min", repr(lo), "--alpha-max", repr(hi),
                 "--points", str(rng.randint(2, 9))]
    return argv


def prints_nonfinite(stdout: str) -> bool:
    """Whether stdout holds a non-finite number as a JSON or CSV value."""
    found = []
    try:
        json.loads(stdout, parse_constant=found.append)
    except ValueError:
        found = [f for row in csv.reader(stdout.splitlines()) for f in row
                 if re.fullmatch(r"\s*[+-]?(nan|inf|infinity)\s*", f, re.I)]
    return bool(found)


def run(argv: list[str]) -> tuple[int, str, str, bool, str]:
    """(exit code, stdout, outcome, whether it is bad, stderr) of one
    in-process invocation, as the module docstring classifies it; stderr
    is the traceback or the warnings where those made the run bad. An
    exception out of main exits 1, as under ``python -m``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli_main(argv)
        except Exception:
            return 1, out.getvalue(), "traceback", True, traceback.format_exc()
    stdout, stderr = out.getvalue(), err.getvalue()
    # main reports "biflogis <command>: <error name>: <message>".
    name = stderr.partition(": ")[2].partition(":")[0]
    if caught:
        outcome, stderr = "warning", "\n".join(str(w.message) for w in caught)
    elif prints_nonfinite(stdout):
        outcome = "nonfinite"
    elif code == 1:
        outcome = f"exit 1 {name}" if name in TYPED else f"bare {name}"
    else:
        outcome = "usage" if code == 64 else f"exit {code}"
    # Every outcome but a plain exit is bad, and so are two of verify's.
    bad = not outcome.startswith("exit ") or (
        argv[0] == "verify" and outcome in ("exit 1 DegenerateFit", "exit 2"))
    return code, stdout, outcome, bad, stderr


def run_all(invocations: list[str]) -> list[tuple[int, str, str, bool]]:
    """(exit code, stdout, outcome, whether it is bad) of each invocation,
    an argument string split on spaces, all in this one process."""
    return [run(invocation.split())[:4] for invocation in invocations]


def fuzz(seed: int, count: int, commands=COMMANDS):
    """Counter of (command, outcome) and the list of bad runs as (argv,
    outcome, stderr), over count draws of one seed."""
    rng = random.Random(seed)
    table, bad = Counter(), []
    for _ in range(count):
        argv = draw(rng, rng.choice(commands))
        _, _, outcome, is_bad, stderr = run(argv)
        table[argv[0], outcome] += 1
        if is_bad:
            bad.append((argv, outcome, stderr))
    return table, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("commands", nargs="*", metavar="COMMAND",
                    help=f"subcommands to draw, of {', '.join(COMMANDS)} "
                         f"(default: all)")
    args = ap.parse_args(argv)
    unknown = set(args.commands) - set(COMMANDS)
    if unknown:
        ap.error(f"unknown subcommands {sorted(unknown)}")
    table, bad = fuzz(args.seed, args.count, args.commands or COMMANDS)
    print("runs command outcome")
    for (command, outcome), n in sorted(table.items()):
        print(f"{n:4d} {command} {outcome}")
    print(f"{args.count} runs, seed {args.seed}: {len(bad)} bad")
    for argv_bad, outcome, stderr in bad:
        print(f"BAD {outcome}: biflogis {' '.join(argv_bad)}")
        print("    " + stderr.strip().replace("\n", "\n    "))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
