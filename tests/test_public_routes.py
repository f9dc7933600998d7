"""Every public route of the curve and constants modules ends in a value or
a typed error, over the whole documented domain and just outside it.

Inside the domain a call returns a value, which passed its dataclass checks
as it was built and holds only finite floats, or raises a BiflogisError.
Outside it (NaN, infinite or nonpositive inputs, p <= 1, negative weights)
it raises ValueError, and only there. Warnings are raised as errors, so a
NumPy overflow counts as a stray exception.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biflogis import constants as consts
from biflogis import local_logistic as ll
from biflogis import nonlocal_curve as nc
from biflogis.errors import BiflogisError


def _local(v):
    return ll.LocalParams(p=v["p"])


def _problem(v):
    return nc.ProblemParams(p=v["p"], q=v["q"], a1=v["a1"], a2=v["a2"])


def _e_args(v):
    return v["p"], v["q"], v["a1"], v["a2"]


class _Unreached(Exception):
    """The curve point or solution a route takes raised a typed error, so
    the route itself was never called."""


def _point(v):
    try:
        return ll.point_from_k(v["k"], _local(v))
    except BiflogisError as exc:
        raise _Unreached from exc


def _solution(v):
    try:
        return nc.solve_alpha(v["alpha"], _problem(v))
    except BiflogisError as exc:
        raise _Unreached from exc


# Route name -> (the inputs it reads, the call). A route that takes a curve
# point or a solution builds it first, through its own public solver.
ROUTES = {
    "time_map": (("p", "k", "gamma"),
                 lambda v: ll.time_map(v["k"], v["gamma"], _local(v))),
    "solve_gamma": (("p", "k"), lambda v: ll.solve_gamma(v["k"], _local(v))),
    "q_norm": (("p", "q", "k", "gamma"),
               lambda v: ll.q_norm(v["k"], v["gamma"], v["q"], _local(v))),
    "point_q_norm": (("p", "q", "k"),
                     lambda v: ll.point_q_norm(_point(v), v["q"], _local(v))),
    "point_from_k": (("p", "k"), lambda v: ll.point_from_k(v["k"], _local(v))),
    "point_from_gamma": (("p", "gamma"),
                         lambda v: ll.point_from_gamma(v["gamma"], _local(v))),
    "solve_for_d": (("p", "d"), lambda v: ll.solve_for_d(v["d"], _local(v))),
    "sample_profile": (("p", "k"),
                       lambda v: ll.sample_profile(_point(v), v["n"], _local(v))),
    "phi": (("p",), lambda v: ll.phi(np.linspace(0.0, 1.0, v["n"]), v["p"])),
    "g_of_k": (("p", "q", "a1", "a2", "k"),
               lambda v: nc.g_of_k(v["k"], _problem(v))),
    "solve_alpha": (("p", "q", "a1", "a2", "alpha"),
                    lambda v: nc.solve_alpha(v["alpha"], _problem(v))),
    "residual_check": (("p", "q", "a1", "a2", "alpha"), lambda v:
                       nc.residual_check(_solution(v), v["n"] + 5, _problem(v))),
    "compute_A": (("p", "q"), lambda v: consts.compute_A(v["p"], v["q"])),
    "compute_C1": (("p",), lambda v: consts.compute_C1(v["p"])),
    "compute_Cq": (("p", "q"), lambda v: consts.compute_Cq(v["p"], v["q"])),
    "compute_E": (("p", "q", "a1", "a2"),
                  lambda v: consts.compute_E(*_e_args(v))),
    "compute_all": (("p", "q", "a1", "a2"),
                    lambda v: consts.compute_all(*_e_args(v), v["reading"])),
}

# Values outside the domain, per input. q excludes (0, 1], which the
# constants accept; the magnitudes include zero and the weights do not.
BAD = {
    "p": (math.nan, math.inf, -math.inf, 1.0, 0.5, -2.0),
    "q": (math.nan, math.inf, -math.inf, -1.0),
    "a1": (math.nan, math.inf, -math.inf, -0.5),
    "a2": (math.nan, math.inf, -math.inf, -0.5),
}
MAGNITUDE_BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0)

magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def _floats(value):
    """Every float a returned value holds."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    if isinstance(value, dict):
        return [x for item in value.values() for x in _floats(item)]
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _floats(item)]
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value)
                for x in _floats(getattr(value, f.name))]
    return []


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p=st.floats(1.05, 20.0), q=st.floats(1.1, 8.0),
       k=magnitudes, gamma=magnitudes, d=magnitudes, alpha=magnitudes,
       a1=magnitudes, a2=magnitudes, n=st.integers(3, 40),
       reading=st.sampled_from(consts.READINGS), data=st.data())
def test_public_route_returns_value_or_typed_error(route, data, **v):
    reads, call = ROUTES[route]
    bad = None
    if data.draw(st.booleans(), label="outside the domain"):
        bad = data.draw(st.sampled_from(reads), label="bad input")
        v[bad] = data.draw(st.sampled_from(BAD.get(bad, MAGNITUDE_BAD)),
                           label="bad value")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(v)
        except _Unreached:
            return
        except ValueError:
            assert bad is not None, "ValueError inside the domain"
            return
        except BiflogisError:
            assert bad is None, f"{bad} = {v[bad]} not rejected as a ValueError"
            return
    assert bad is None, f"{bad} = {v[bad]} not rejected"
    assert all(math.isfinite(x) for x in _floats(value)), value
