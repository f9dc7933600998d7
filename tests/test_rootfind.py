import math

import pytest

from biflogis.errors import BracketFailure, NoConvergence
from biflogis import rootfind
from biflogis.rootfind import bracket_monotone, brentq, solve_monotone


def test_brentq_cubic():
    root = brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-12


def test_brentq_transcendental():
    root = brentq(lambda x: math.cos(x) - x, 0.0, 1.0)
    assert abs(math.cos(root) - root) < 1e-12


def test_brentq_exact_endpoint():
    assert brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_brentq_precomputed_values():
    f = lambda x: x * x - 2.0
    root = brentq(f, 1.0, 2.0, fa=f(1.0), fb=f(2.0))
    assert abs(root - math.sqrt(2.0)) < 1e-12


def test_brentq_rejects_same_sign():
    with pytest.raises(BracketFailure):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_maxiter(monkeypatch):
    monkeypatch.setattr(rootfind, "BRENT_MAXITER", 2)
    with pytest.raises(NoConvergence, match="in 2 iterations"):
        brentq(lambda x: math.tanh(50.0 * (x - 0.3)), -10.0, 10.0)


def test_bracket_monotone_expands_right():
    a, b, fa, fb = bracket_monotone(lambda x: x - 37.0, 0.0, -1e6, 1e6)
    assert a <= 37.0 <= b
    assert fa * fb <= 0.0


def test_bracket_monotone_expands_left():
    a, b, fa, fb = bracket_monotone(lambda x: x + 41.0, 0.0, -1e6, 1e6)
    assert a <= -41.0 <= b
    assert fa * fb <= 0.0


def test_bracket_monotone_decreasing_function():
    a, b, fa, fb = bracket_monotone(lambda x: 5.0 - x, 0.0, -1e6, 1e6)
    assert a <= 5.0 <= b


def test_bracket_monotone_respects_limits():
    with pytest.raises(BracketFailure):
        bracket_monotone(lambda x: x - 100.0, 0.0, -1.0, 1.0)


def test_bracket_monotone_exact_seed():
    a, b, fa, fb = bracket_monotone(lambda x: x, 0.0, -1.0, 1.0)
    assert a == b == 0.0


def test_solve_monotone_log_residual():
    # the package uses it on log-transformed curve residuals; emulate one
    f = lambda t: math.log1p(math.exp(t)) - 3.0
    df = lambda t: 1.0 / (1.0 + math.exp(-t))
    t = solve_monotone(lambda t: (f(t), df(t)), 0.0, -50.0, 50.0)
    assert abs(f(t)) < 1e-10


def test_solve_monotone_xtol():
    root = solve_monotone(lambda x: (x - math.pi, 1.0), 0.0, -10.0, 10.0,
                          xtol=1e-13)
    assert abs(root - math.pi) < 1e-10


class Counted:
    """A residual (f, df) that records the points it was evaluated at."""

    def __init__(self, f, df):
        self.f, self.df, self.xs = f, df, []

    def __call__(self, x):
        self.xs.append(x)
        return self.f(x), self.df(x)


def test_solve_monotone_cubic_and_transcendental_to_xtol():
    # The root returned is the last point the residual saw.
    cubic = Counted(lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x)
    root = solve_monotone(cubic, 0.5, -10.0, 10.0, xtol=1e-13)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-13 and cubic.xs[-1] == root
    kepler = Counted(lambda x: x - 0.5 * math.sin(x) - 1.0,
                     lambda x: 1.0 - 0.5 * math.cos(x))
    root = solve_monotone(kepler, 0.0, -10.0, 10.0, xtol=1e-14)
    assert abs(root - 0.5 * math.sin(root) - 1.0) <= 1e-14
    assert kepler.xs[-1] == root


def test_solve_monotone_root_at_seed():
    f = Counted(lambda x: x - 1.5, lambda x: 1.0)
    assert solve_monotone(f, 1.5, -10.0, 10.0) == 1.5
    assert f.xs == [1.5]


def test_solve_monotone_clamps_seed_to_walls():
    f = Counted(lambda x: x - 0.5, lambda x: 1.0)
    root = solve_monotone(f, 1e6, -1.0, 1.0)
    assert f.xs[0] == 1.0 and abs(root - 0.5) <= 1e-13
    f = Counted(lambda x: x + 0.5, lambda x: 1.0)
    root = solve_monotone(f, -1e6, -1.0, 1.0)
    assert f.xs[0] == -1.0 and abs(root + 0.5) <= 1e-13


@pytest.mark.parametrize("x0", (-5.0, -1.0, 0.25, 3.0, 7.0, -math.inf,
                                math.inf, math.nan))
def test_solve_monotone_starts_from_min_max_of_the_seed(x0, monkeypatch):
    # The first evaluation is at the builtins' min(max(x0, lo), hi), NaN
    # included: a NaN seed stays NaN, where a `not x >= lo` clamp would
    # move it to lo.
    monkeypatch.setattr(rootfind, "MAX_EVALS", 1)
    f = Counted(lambda x: x - 0.5, lambda x: 1.0)
    with pytest.raises(NoConvergence):
        solve_monotone(f, x0, -1.0, 3.0)
    (x,) = f.xs
    want = min(max(x0, -1.0), 3.0)
    if math.isnan(want):
        assert math.isnan(x)
    else:
        assert x == want


@pytest.mark.parametrize("slope", (0.0, -1.0, math.nan))
def test_solve_monotone_bad_slope_bisects(slope):
    # Without a usable slope the walk and bisection alone find the root.
    f = Counted(lambda x: math.tanh(x - 0.3), lambda x: slope)
    root = solve_monotone(f, 5.0, -50.0, 50.0, xtol=1e-13)
    assert abs(root - 0.3) <= 1e-13
    assert all(-50.0 <= x <= 50.0 for x in f.xs)


def test_solve_monotone_steep_newton_step_stays_in_bracket():
    # A tangent at the flat end of tanh points far outside the bracket.
    f = Counted(lambda x: math.tanh(50.0 * (x - 0.3)),
                lambda x: 50.0 / math.cosh(50.0 * (x - 0.3)) ** 2)
    root = solve_monotone(f, -2.0, -10.0, 10.0, xtol=1e-13)
    assert abs(root - 0.3) <= 1e-13
    assert all(-10.0 <= x <= 10.0 for x in f.xs)


def test_solve_monotone_no_sign_change_raises():
    f = Counted(lambda x: x - 100.0, lambda x: 1.0)
    with pytest.raises(BracketFailure):
        solve_monotone(f, 0.0, -1.0, 1.0)
    # The walk ended on the wall it could not pass.
    assert f.xs[-1] == 1.0
    with pytest.raises(BracketFailure):
        solve_monotone(lambda x: (x * x + 1.0, 2.0 * x), 0.0, -1.0, 1.0)


def test_solve_monotone_budget_exhausted_raises(monkeypatch):
    f = lambda x: (math.tanh(50.0 * (x - 0.3)), math.nan)
    monkeypatch.setattr(rootfind, "MAX_EVALS", 5)
    with pytest.raises(NoConvergence, match="in 5 evaluations"):
        solve_monotone(f, -10.0, -10.0, 10.0)
