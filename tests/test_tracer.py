"""The benchmark's tracer against the package it patches.

perfbench/tracer.py wraps package functions by module attribute name, so a
renamed function breaks every traced benchmark run. Installing it here, on
the file as it stands, makes such a rename fail the test suite instead.
"""

import importlib.util
from pathlib import Path

from biflogis import local_logistic as ll
from biflogis import nonlocal_curve as nc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer(tracer_mod.OpClock())
    tracer.install()
    try:
        patched = list(tracer._patches)
        lp = ll.LocalParams(p=3.0)
        point = ll.point_from_k(1.0, lp)
        ll.point_q_norm(point, 4.0, lp)
        nc.solve_alpha(10.0, nc.ProblemParams(p=3.0, q=2.0, a1=1.0, a2=1.0))
    finally:
        tracer.uninstall()
    counts = tracer.counts
    for name in ("local_logistic.point_from_k", "local_logistic.point_q_norm",
                 "nonlocal_curve.solve_alpha"):
        assert counts[name + ".calls"] == 1, name
    assert counts["local_logistic.resid.calls"] > 0
    assert counts["nonlocal_curve.resid.calls"] > 0
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
