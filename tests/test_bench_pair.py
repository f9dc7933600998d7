"""The verdicts of tools/bench_pair.py on one metric's paired runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pair import spread, verdict  # noqa: E402


BASE = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


@pytest.mark.parametrize("shift, wins, expected", [
    # lower is better: the base's median is 10.9, its q3 - q1 is 0.9
    (-1.0, 10, "gain met"),
    (-1.0, 9, "gain met"),
    (-1.0, 8, "within bound"),     # too few pairs won
    (-0.5, 10, "within bound"),    # inside the base's quartile spread
    (2.7, 0, "within bound"),      # 24.8% worse, inside the 25% bound
    (2.8, 0, "worse than bound"),  # 25.7% worse
])
def test_verdict_lower_is_better(shift, wins, expected):
    base = spread(BASE)
    change = spread([v + shift for v in BASE])
    assert verdict(base, change, wins, len(BASE), -1.0, 0.25) == expected


def test_verdict_higher_is_better():
    base = spread(BASE)
    faster = spread([v + 1.0 for v in BASE])
    slower = spread([v - 3.0 for v in BASE])
    assert verdict(base, faster, 10, len(BASE), 1.0, 0.25) == "gain met"
    assert verdict(base, slower, 0, len(BASE), 1.0, 0.25) == "worse than bound"


# curve_sub op_tail_ms in ms, 16 pairs of BENCH_52_draft3.json: the base's
# q3 - q1 is 44% of its median, wider than the 25% bound.
WIDE_BASE = [0.06183, 0.05529, 0.103, 0.10068, 0.11607, 0.06401, 0.05969,
             0.05125, 0.04961, 0.05227, 0.05249, 0.04786, 0.11808, 0.04914,
             0.04952, 0.04803]
WIDE_CHANGE = [0.11868, 0.12006, 0.09537, 0.10856, 0.09232, 0.04965, 0.05217,
               0.05737, 0.05343, 0.07336, 0.06253, 0.05383, 0.05593, 0.0476,
               0.05055, 0.04792]


def test_verdict_unresolved_when_the_base_spreads_past_the_bound():
    # The change's median is 5% worse and it won 7 of 16 pairs; the base's
    # own runs spread too widely to call that within the bound.
    base = spread(WIDE_BASE)
    assert base["q3"] - base["q1"] > 0.4 * base["median"]
    assert verdict(base, spread(WIDE_CHANGE), 7, 16, -1.0, 0.25) \
        == "unresolved"


def test_verdict_wide_base_resolved_when_every_change_run_wins():
    # Every change run below the base's fastest run: too small a gain to
    # claim against the base's spread, but not unresolved.
    base = spread(WIDE_BASE)
    change = spread([0.047 - 1e-4 * i for i in range(16)])
    assert change["max"] < base["min"]
    assert verdict(base, change, 16, 16, -1.0, 0.25) == "within bound"
    assert verdict(spread([-v for v in WIDE_BASE]),
                   spread([-0.047 + 1e-4 * i for i in range(16)]),
                   16, 16, 1.0, 0.25) == "within bound"


def test_verdict_gain_needs_ten_pairs():
    # Three pairs that all read a gain are too few to claim one; a loss on
    # three pairs is still judged against the bound.
    base = spread(BASE[:3])
    faster = spread([v - 1.0 for v in BASE[:3]])
    slower = spread([v + 3.0 for v in BASE[:3]])
    assert verdict(base, faster, 3, 3, -1.0, 0.25) == "too few pairs"
    assert verdict(base, slower, 0, 3, -1.0, 0.25) == "worse than bound"
    assert verdict(spread(BASE[:9]), spread([v - 1.0 for v in BASE[:9]]),
                   9, 9, -1.0, 0.25) == "too few pairs"
