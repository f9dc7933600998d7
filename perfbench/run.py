#!/usr/bin/env python3
"""Benchmark of biflogis: seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload curve_sub --seed 1 --seconds 28 --trace 0

Runs from a checkout of the repository and imports the package from its
``src/``, on the pure-NumPy kernels. Load is one client in a closed loop:
one process, one thread, BLAS pinned to one thread, each op starting when
the previous one has returned.

A run runs one warm-up pass of the workload, then the fixed number of
timed passes that fills ``--seconds`` at the reference speed. A fixed
calibration loop runs between steps, and the end-to-end times are scaled
to the reference speed with it, because the speed of a shared host can
change by up to 1.8x as other load comes and goes. Set-up is measured in
fresh child interpreters run among the timed passes. With ``--trace 0``
every pass is untraced and the run reports the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate, and the run reports
per-layer metrics of the traced passes, the tracing overhead, and whether
the work counters repeat exactly (across the traced passes, and between
this process's cold first pass and the same pass in a fresh interpreter).
Every output goes through the correctness gate.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics declared in BENCHMARK.json for the mode. Lines before it are a
readable report and an environment record. README.md beside this file says
what each workload and metric is for.
"""

import os

# Before numpy loads: the gated configuration, and BLAS on one thread.
os.environ["BIFLOGIS_PURE"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FROZEN = ROOT / "tests" / "_oracle_values.py"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

SETUP_CHILDREN = 7
# A calibration sample's time at the reference speed. End-to-end times are
# scaled to that speed with calibration samples taken through the run.
CAL_REF_S = 0.010
CHILD_TIMEOUT_S = 120
WORKLOADS = ("curve_sub", "curve_super", "oracle_xcheck")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "repeat"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def calibration_s() -> float:
    """One sample of a fixed loop that mixes the program's kinds of work:
    pure-Python integer arithmetic, float powers as in the RK4 kernel, and
    small-array numpy calls as in the quadrature. About 10 ms on one core
    of a 2 GHz Xeon."""
    import numpy as np
    x = np.linspace(0.01, 1.0, 64)
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    w, z = 0.1, 1.0
    for _ in range(10_000):
        k = math.copysign(abs(w) ** 2.7, w) - 3.0 * w
        w += 1e-4 * z
        z += 1e-4 * k
    for _ in range(300):
        np.sum(np.sqrt(x) * x ** 1.5)
    return time.perf_counter() - t0


def slowdown(samples) -> float:
    """The machine's slowdown against the reference speed: the mean
    calibration sample over CAL_REF_S. Times divide by it, rates multiply.

    A shared host can switch between a fast and a slow state (1.7x apart
    on a 2 GHz Xeon) that each last for seconds; the mean weighs them as
    an op of several samples' length does, the median does not.
    """
    return statistics.fmean(samples) / CAL_REF_S


class PassResult:
    def __init__(self):
        self.step_times = []       # wall time of each step, in plan order
        self.op_times = []         # latency of each op in order, None if it failed
        self.op_steps = []         # index of the step each op ran in
        self.failures = Counter()  # failed ops by exception type or "gate"
        self.calibration = []      # calibration samples: before the first step, after each
        self.wrong = []            # gate rejections and failed non-op steps
        self.layers = None
        self.counts = None
        self.spans = None
        self.b_calibrations = 0


class Runner:
    """Runs passes of one workload with the op clock always installed."""

    def __init__(self, steps):
        from biflogis import local_logistic
        from tracer import OpClock, Tracer
        self.steps = steps
        self.clock = OpClock()
        self.tracer = Tracer(self.clock)
        self.b_cache = local_logistic._B_CACHE
        self.clock.install_solve_alpha()

    def close(self):
        self.clock.uninstall()

    def run_pass(self, traced: bool) -> PassResult:
        res = PassResult()
        res.calibration.append(calibration_s())
        cache_before = len(self.b_cache)
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            for step in self.steps:
                self._run_step(step, res, traced)
        finally:
            if traced:
                self.tracer.uninstall()
        res.b_calibrations = len(self.b_cache) - cache_before
        if traced:
            res.layers = self.tracer.layer_metrics()
            res.counts = self.tracer.work_counts()
            res.counts["local_logistic.B_calibrations"] = res.b_calibrations
            res.spans = self.tracer.spans
        return res

    def _run_step(self, step, res: PassResult, traced: bool):
        import gate
        run = self.tracer.wrap("bench.step", step.run) if traced else step.run
        if step.is_op:
            self.clock.count += 1
        t0 = time.perf_counter()
        try:
            out, exc = run(), None
        except Exception as e:  # the pass goes on; the failure is counted
            out, exc = None, e
        dt = time.perf_counter() - t0
        res.step_times.append(dt)

        ops = self.clock.take()
        if step.is_op:
            ops.append((dt, None, out, exc))
        elif exc is not None:
            res.wrong.append(f"{step.name}: {type(exc).__name__}: {exc}")
        elif out is not None:
            res.wrong += [f"{step.name}: {msg}" for msg in step.check(out)]

        for latency, args, result, op_exc in ops:
            if op_exc is not None:
                res.failures[type(op_exc).__name__] += 1
                latency = None
            else:
                msgs = step.check(result) if args is None else gate.solution(result, *args)
                if msgs:
                    res.failures["gate"] += 1
                    res.wrong += [f"{step.name}: {m}" for m in msgs]
                    latency = None
            res.op_times.append(latency)
            res.op_steps.append(len(res.step_times) - 1)
        res.calibration.append(calibration_s())


def run_children(args, mode: str, count: int) -> list:
    """Run this script as ``count`` fresh interpreters; (wall_s, payload) each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child failed ({proc.returncode}):\n{proc.stderr}")
        out.append((wall, json.loads(proc.stdout.splitlines()[-1])))
    return out


def child_setup(args) -> int:
    t0 = time.perf_counter()
    import biflogis  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    step = workloads.first_op(workloads.build(args.workload, args.seed, FROZEN))
    failures = step.check(step.run())
    print(json.dumps({"import_s": import_s, "failures": failures}))
    return 0


def child_repeat(args) -> int:
    import workloads
    runner = Runner(workloads.build(args.workload, args.seed, FROZEN))
    print(json.dumps(runner.run_pass(traced=True).counts))
    return 0


def step_slowdowns(p: PassResult) -> list:
    """Each step's slowdown, from the calibration samples on either side of it."""
    c = p.calibration
    return [slowdown(pair) for pair in zip(c, c[1:])]


def run_slowdown(passes) -> float:
    return slowdown([c for p in passes for c in p.calibration])


def _slowdowns(p: PassResult, scaled: bool) -> list:
    return step_slowdowns(p) if scaled else [1.0] * len(p.step_times)


def op_medians(passes, scaled: bool = True) -> list:
    """Per op of a pass, its median latency over the passes; None where it
    failed in any of them. Every op repeats once per pass with the same
    inputs. Scaled to the reference speed unless ``scaled`` is false."""
    rows = []
    for p in passes:
        slow = _slowdowns(p, scaled)
        rows.append([None if x is None else x / slow[i]
                     for x, i in zip(p.op_times, p.op_steps)])
    return [None if None in col else statistics.median(col) for col in zip(*rows)]


def ops_per_s(passes, scaled: bool = True) -> float:
    """Verified ops per second of step time (gate work excluded); each step's
    time is scaled to the reference speed unless ``scaled`` is false."""
    done = sum(x is not None for p in passes for x in p.op_times)
    busy = 0.0
    for p in passes:
        slow = _slowdowns(p, scaled)
        busy += sum(t / s for t, s in zip(p.step_times, slow))
    return done / busy


def tail(latencies):
    """(value, percentile, n): the highest percentile with >= 10 samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def count_mismatches(reference: dict, other: dict) -> list[str]:
    keys = sorted(set(reference) | set(other))
    return [f"{k}: {reference.get(k, 0)} vs {other.get(k, 0)}"
            for k in keys if reference.get(k, 0) != other.get(k, 0)]


def measure(args, steps):
    """One warm-up pass, then the timed passes that fill ``args.seconds`` at
    the reference speed, alternating untraced and traced ones in a traced
    run. The set-up children run spread out among the timed passes, so that
    they meet the same states of the machine as the passes do.
    Returns (warm, untraced, traced, setup)."""
    import workloads
    n = workloads.timed_passes(args.workload, args.seconds)
    due = Counter(j * n // SETUP_CHILDREN for j in range(SETUP_CHILDREN))
    runner = Runner(steps)
    try:
        warm = runner.run_pass(traced=bool(args.trace))
        untraced, traced, setup = [], [], []
        for i in range(n):
            setup += run_children(args, "setup", due[i])
            if args.trace and len(traced) < len(untraced):
                traced.append(runner.run_pass(traced=True))
            else:
                untraced.append(runner.run_pass(traced=False))
    finally:
        runner.close()
    return warm, untraced, traced, setup


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "biflogis" / "__init__.py").is_file() or not FROZEN.is_file() \
            or not SPEC.is_file():
        print(f"perfbench: needs {SRC}/biflogis, {FROZEN} and {SPEC} "
              "(run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child == "setup":
        return child_setup(args)
    if args.child == "repeat":
        return child_repeat(args)

    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    import biflogis
    import numpy
    from biflogis import kernels
    import workloads
    if Path(biflogis.__file__).resolve().parent != SRC / "biflogis":
        print(f"perfbench: imported biflogis from {biflogis.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if kernels.IMPLEMENTATION != "pure":
        print(f"perfbench: kernels.IMPLEMENTATION is {kernels.IMPLEMENTATION!r}, "
              "the gated configuration is 'pure'", file=sys.stderr)
        return 2

    steps = workloads.build(args.workload, args.seed, FROZEN)
    warm, untraced, traced, setup = measure(args, steps)
    timed = untraced + traced

    wrong = [f"setup: {m}" for _, child in setup for m in child["failures"]]
    for p in [warm] + timed:
        wrong += p.wrong
    attempted = sum(len(p.op_times) for p in timed)
    failures = Counter()
    for p in timed:
        failures.update(p.failures)
    failed = sum(failures.values())

    report = [f"workload {args.workload} seed {args.seed}: {len(steps)} steps per pass, "
              f"{len(untraced)} untraced + {len(traced)} traced timed passes"]
    metrics = {}
    if args.trace:
        mismatches = []
        for p in traced[1:]:
            mismatches += count_mismatches(traced[0].counts, p.counts)
        (_, repeat), = run_children(args, "repeat", 1)
        mismatches += [f"cold pass, fresh process: {m}"
                       for m in count_mismatches(warm.counts, repeat)]
        wrong += [f"work counter does not repeat: {m}" for m in mismatches]
        for name, first in traced[0].layers.items():
            # counts repeat exactly (checked above); times take the median
            metrics[name] = statistics.median(p.layers[name] for p in traced) \
                if name.endswith("_s") else first
        metrics["local_logistic.B_calibrations"] = warm.b_calibrations
        metrics["biflogis.import_s"] = statistics.median(c["import_s"] for _, c in setup)
        metrics["trace.overhead_frac"] = 1.0 - ops_per_s(traced) / ops_per_s(untraced)
        metrics["counters.mismatches"] = len(mismatches)
        report += layer_report(metrics, traced, untraced)
        write_spans(args, traced[-1].spans)
    else:
        lat = [x for x in op_medians(timed) if x is not None]
        raw = [x for x in op_medians(timed, scaled=False) if x is not None]
        tail_s, tail_pct, n = tail(lat)
        metrics["ops_per_s"] = ops_per_s(timed)
        metrics["op_p50_ms"] = statistics.median(lat) * 1e3
        metrics["op_tail_ms"] = tail_s * 1e3
        # A fresh interpreter's time, mostly imports, does not follow the
        # calibration samples next to it, but does follow the run's mean.
        setup_raw = statistics.median(w for w, _ in setup)
        metrics["setup_s"] = setup_raw / run_slowdown(timed)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report.append("times scaled to the reference speed:")
        report += [f"{name:14s} {metrics[name]:12.6g} {declared[name]}" for name in declared]
        report.append(f"as measured: ops_per_s {ops_per_s(timed, scaled=False):.6g}, "
                      f"op_p50_ms {statistics.median(raw) * 1e3:.6g}, "
                      f"op_tail_ms {tail(raw)[0] * 1e3:.6g}, setup_s {setup_raw:.6g}")
        above = "10 above it" if n >= 11 else "the slowest, fewer than 11"
        report.append(f"op_tail_ms is p{tail_pct:.2f} of n = {n} verified ops per pass "
                      f"({above}); op times are each op's median over "
                      f"{len(timed)} timed passes")
        report.append(f"failed_frac    {failed / max(attempted, 1):12.6g} 1 "
                      f"({failed} of {attempted} ops)")
    if failures:
        report.append("failed ops by type: " + ", ".join(
            f"{k} {v}" for k, v in sorted(failures.items())))
    report += [f"WRONG: {m}" for m in wrong[:20]]

    if set(metrics) != set(declared):
        print("perfbench: metrics do not match BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(metrics))}, "
              f"undeclared {sorted(set(metrics) - set(declared))}", file=sys.stderr)
        return 2

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "kernels.IMPLEMENTATION": kernels.IMPLEMENTATION,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "calibration_ms": calibration_record(timed),
        "wall_s": time.perf_counter() - started,
    }
    print("\n".join(report))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }))
    return 0


def calibration_record(timed) -> dict:
    """The calibration loop's reference time and the samples of this run, in ms."""
    samples = [c * 1e3 for p in timed for c in p.calibration]
    return {"reference": CAL_REF_S * 1e3,
            "timed_mean": statistics.fmean(samples),
            "timed_min": min(samples), "timed_max": max(samples),
            "timed_samples": len(samples)}


def layer_report(metrics, traced, untraced) -> list[str]:
    from tracer import LAYERS
    pass_s = statistics.median(sum(p.step_times) for p in traced)
    lines = [f"traced ops/s {ops_per_s(traced):.6g}, untraced ops/s "
             f"{ops_per_s(untraced):.6g}, overhead {metrics['trace.overhead_frac']:.3f}",
             f"self time per traced pass ({pass_s:.4f} s):"]
    for layer in sorted(LAYERS, key=lambda L: -metrics[L + ".self_s"]):
        s = metrics[layer + ".self_s"]
        lines.append(f"  {layer:15s} {s:9.4f} s  {100.0 * s / pass_s:5.1f}%")
    for k, v in sorted(metrics.items()):
        if k.endswith(".busy_s"):
            lines.append(f"{k:40s} {v:12.6g}  {100.0 * v / pass_s:5.1f}% of pass")
        elif not k.endswith(".self_s"):
            lines.append(f"{k:40s} {v:12.6g}")
    return lines


def write_spans(args, spans):
    """Spans of the last traced pass, times relative to its first span."""
    OUT.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    path = OUT / f"{args.workload}-seed{args.seed}.spans.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                   "spans": [[n, s - t0, e - t0, par, op] for n, s, e, par, op in spans]},
                  fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
