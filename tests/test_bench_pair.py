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
