"""The benchmark's workloads against the package they call.

perfbench/workloads.py builds ProblemParams and LocalParams and calls
compute_all with the reading passed positionally; perfbench/gate.py checks
what they return. A changed signature or call shape breaks every benchmark
run, so each workload's first op and one of its acceptance steps run here,
through their own gate.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The acceptance step run per workload, by name prefix. oracle_xcheck's
# first op is an xcheck already, so its frozen local points run instead.
ACCEPTANCE = {"curve_sub": "theorem3 p=2", "curve_super": "theorem1 p=5",
              "oracle_xcheck": "frozen local points"}


@pytest.mark.parametrize("name", sorted(ACCEPTANCE))
def test_workload_steps_pass_their_gate(name, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    # Leave no bytecode beside the benchmark's files.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    steps = workloads.build(name, 1, ROOT / "tests" / "_oracle_values.py")
    accept = next(s for s in steps if s.name.startswith(ACCEPTANCE[name]))
    for step in (workloads.first_op(steps), accept):
        assert step.check(step.run()) == [], step.name
