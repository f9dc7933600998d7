#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads curve_sub ...]
                                [--trace 0] [--out perfbench/out/spread.json]

For every workload and seed it runs ``run.py`` once (run_seconds from
BENCHMARK.json) and keeps the result line. For each end-to-end metric it
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (q3 - q1) / median against the metric's bound;
a spread above a third of the bound is flagged. ``--out`` writes every
result line and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else None,
                          "bound": m.get("bound")}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    record = {}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            result["env"] = json.loads(lines[-2])["env"]
            results.append(result)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"calibration_mean_ms={result['env']['calibration_ms']['timed_mean']:.3f} "
                  f"wall_s={result['env']['wall_s']:.1f}",
                  flush=True)
        summary = summarize(results, metrics)
        record[workload] = {"results": results, "summary": summary}
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and s["spread"] is not None:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread:>8s} {flag}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
