#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/bench_pair.py --base HEAD~1 --out BENCH_7.json \\
        oracle_xcheck:1-10 curve_sub:1 curve_super:1

Each WORKLOAD:SEEDS argument names a workload of ``perfbench/run.py`` and
its seeds (``1-10``, ``3`` or ``1,4,9``). ``sides`` exports the base
revision with ``git archive`` into a temporary directory, and copies the
working tree's tracked files (``git ls-files``, as they are on disk, so
uncommitted edits count and untracked files do not) into a second one.
Both sides thus run from fresh trees without build leftovers, and the
repository's own checkout and git metadata are left alone. The other
comparison tools run their two sides from the same pair: ``cli_bytes``
runs its command lines there, and ``grid_shift``, ``solve_cost`` and
``oracle_grid`` call their own functions there through ``in_fresh``. For
every seed the benchmark runs once on each side, each side with its own ``perfbench/run.py`` and
``src/``; the side that runs first alternates from pair to pair, so a
drift in the host's speed does not favour either side. Runs use the
command and ``run_seconds`` declared in the working tree's
``BENCHMARK.json``, with ``--trace 0``.

The output file holds every run's result and environment lines, and for
each workload and end-to-end metric the median and quartiles of both sides,
the number of pairs the change won (ties count for neither) and a verdict,
and per workload every run's attempted and failed ops, listed per side in
pair order. It is rewritten after every pair, so an interrupted session
keeps what it ran. The verdicts are printed once all pairs have run.

A verdict is "gain met" when at least 10 pairs ran, the change won at
least 9 of every 10 of them and its median is better than the base's by
more than the base's interquartile range q3 - q1; on fewer pairs such a
metric reads "too few pairs", as a few runs of an untouched workload can
all fall one way. Otherwise it is "worse than bound" when the change's
median is worse than the base's by more than the metric's relative
``bound`` in ``BENCHMARK.json``, and "within bound" when it is not. A
"within bound" reads "unresolved" instead when the base's own q3 - q1
exceeds that bound times its median, unless every change run beats every
base run: the runs then spread too widely to tell.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
# The fewest pairs a "gain met" verdict can rest on.
GAIN_PAIRS = 10


def parse_spec(text: str) -> tuple[str, list[int]]:
    """'oracle_xcheck:1-5' -> ('oracle_xcheck', [1, 2, 3, 4, 5])."""
    workload, sep, seeds = text.partition(":")
    if not sep or not workload or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    out = []
    for part in seeds.split(","):
        lo, dash, hi = part.partition("-")
        try:
            out += range(int(lo), int(hi) + 1) if dash else [int(lo)]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed list {seeds!r}") from None
    return workload, out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


@contextmanager
def sides(rev: str):
    """{"base": the tree of rev as committed, "change": the working tree's
    tracked files as they are on disk}, each in a fresh temporary directory
    that the block's exit removes."""
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        roots = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        with tempfile.TemporaryFile() as tar:
            subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                           check=True, stdout=tar)
            tar.seek(0)
            with tarfile.open(fileobj=tar) as tf:
                tf.extractall(roots["base"], filter="data")
        for name in git("ls-files", "-z").split("\0"):
            if name and (ROOT / name).is_file():
                (roots["change"] / name).parent.mkdir(parents=True,
                                                      exist_ok=True)
                shutil.copy2(ROOT / name, roots["change"] / name)
        yield roots


# Runs the tools module argv[1]'s function argv[2] on the JSON argument
# list argv[3], with argv[4:] first on sys.path, and prints its result as
# JSON.
_FRESH = ("import importlib, json, sys; sys.path[:0] = sys.argv[4:]; "
          "func = getattr(importlib.import_module(sys.argv[1]), sys.argv[2]); "
          "print(json.dumps(func(*json.loads(sys.argv[3]))))")


def in_fresh(root: Path, module: str, func: str, *args):
    """tools/<module>.<func>(*args) in a fresh interpreter on root's src/,
    with these tools beside it on sys.path; the result read back through
    JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, module, func, json.dumps(args),
         str(root / "src"), str(TOOLS)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{module}.{func} on {root} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_once(root: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in root; its parsed result and environment lines."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def verdict(base: dict, change: dict, wins: int, pairs: int, sign: float,
            bound: float) -> str:
    """The change's verdict on one metric from both sides' spread; sign is
    +1 where higher is better, -1 where lower is."""
    gain = sign * (change["median"] - base["median"])
    if wins >= 0.9 * pairs and gain > base["q3"] - base["q1"]:
        return "gain met" if pairs >= GAIN_PAIRS else "too few pairs"
    limit = bound * abs(base["median"])
    if -gain > limit:
        return "worse than bound"
    worst, best = ("min", "max") if sign > 0 else ("max", "min")
    if (base["q3"] - base["q1"] > limit
            and not sign * change[worst] > sign * base[best]):
        return "unresolved"
    return "within bound"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: both sides' spread and the change's wins."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        row = {"pairs": len(pairs),
               **{count: {side: [p[side][count] for p in pairs]
                          for side in ("base", "change")}
                  for count in ("attempted", "failed")},
               "correct": all(p[s]["correct"] for p in pairs for s in p)}
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            vals = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                    for side in ("base", "change")}
            wins = sum(sign * (c - b) > 0.0
                       for b, c in zip(vals["base"], vals["change"]))
            base, change = spread(vals["base"]), spread(vals["change"])
            row[name] = {"unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"], "base": base,
                         "change": change, "change_wins": wins,
                         "verdict": verdict(base, change, wins, len(pairs),
                                            sign, metric["bound"])}
        out[workload] = row
    return out


def report(summary: dict, end_to_end: list[dict]) -> None:
    """One line per workload and metric: medians, wins and the verdict."""
    for workload, row in summary.items():
        for name in (m["name"] for m in end_to_end):
            m = row[name]
            base, change = m["base"], m["change"]
            print(f"{workload} {name}: {base['median']:.4g} "
                  f"[{base['q1']:.4g}, {base['q3']:.4g}] -> "
                  f"{change['median']:.4g}, {m['change_wins']}/{row['pairs']} "
                  f"pairs won, {m['verdict']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("specs", nargs="+", type=parse_spec, metavar="WORKLOAD:SEEDS")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record = {
        "base": {"rev": git("rev-parse", args.base)},
        "change": {"rev": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "command": bench["command"], "seconds": seconds, "trace": 0,
        "runs": [], "summary": {},
    }
    with sides(args.base) as roots:
        n_pair = 0
        for workload, seeds in args.specs:
            for seed in seeds:
                order = ("base", "change") if n_pair % 2 == 0 else ("change", "base")
                for pos, side in enumerate(order):
                    print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                    out = run_once(roots[side], bench["command"], workload, seed, seconds)
                    record["runs"].append({"workload": workload, "seed": seed,
                                           "side": side, "position": pos, **out})
                n_pair += 1
                record["summary"] = summarize(record["runs"], bench["end_to_end"])
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    report(record["summary"], bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
