"""Command-line front end.

Subcommands: constants, solve-local, solve, profile, sweep, verify,
oracle-check. Flags mirror the problem symbols (--p --q --a1 --a2 --alpha).
verify prints every law row of verify.check_laws: 9 off p = 3, 8 at it.
Exit codes: 0 success, 1 solver outcome (NoSolution, InvalidBracket, ...),
2 failed verification check (any law row of verify, or oracle-check's
cross-check), 64 usage error. Any flag value outside the
documented domain is a usage error on every subcommand: p > 1 and q > 1;
a1, a2 finite and >= 0 with a1 + a2 > 0; k, gamma, d, alpha and tol
positive and finite; step in [1e-6, 1e-2]; --points at most 10**6, and
>= 3 for profile and >= 2 for sweep and verify, where it needs
--alpha-min/--alpha-max and a grid whose points stay distinct in float.
No environment variable is read: the quadrature tolerance is the constant
quadrature.REL_TOL.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import constants as consts
from . import local_logistic as ll
from . import nonlocal_curve as nc
from . import oracle
from . import verify as ver
from .errors import BiflogisError

__all__ = ["main"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CHECK = 2
EXIT_USAGE = 64

_CSV_HEADER = "alpha,k,d,gamma,h,beta,lambda"
_CHECK_CSV_HEADER = "name,target,estimate,rel_error,fitted_order,tolerance,pass"

# Largest --points: each point is a profile node or a curve solve.
_MAX_POINTS = 10 ** 6

# The alpha grid of sweep and verify when no range is given, per regime.
_DEFAULT_ALPHAS = {"supercritical": ver.DEFAULT_SUPER_ALPHAS,
                   "subcritical": ver.DEFAULT_SUB_ALPHAS,
                   "critical": (1.0, 10.0, 100.0, 1000.0)}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _magnitude(text: str) -> float:
    """argparse type of every magnitude flag: a positive finite float."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not 0.0 < val < math.inf:
        raise argparse.ArgumentTypeError(
            f"need a positive finite number, got {text!r}")
    return val


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _field(value) -> str:
    """One CSV field: a str as is, None as empty, a bool as true/false and
    a number to 17 significant digits."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return _g17(value)


def _csv(header: str, records) -> str:
    """header, then one line per record of the fields it names."""
    columns = header.split(",")
    lines = [header]
    lines += [",".join(_field(rec[c]) for c in columns) for rec in records]
    return "\n".join(lines) + "\n"


# The input domain of solve and sweep, shown in their --help.
_CURVE_DOMAIN = (
    "Domain: p > 1 (p = 3 and its neighbourhood included), q > 1, "
    "a1, a2 >= 0 with a1 + a2 > 0, alpha > 0. Exits 1 where no float point "
    "represents the curve: k out of the double range, h, beta, lambda or d "
    "out of the normal double range (p near 1, extreme alpha or weights), or "
    "d equal to k in float (large p deep in the layer). Tested over p in "
    "[1.001, 300], q in [1.1, 8], weights and alpha from 1e-300 to 1e300.")


def _build_parser() -> _Parser:
    parser = _Parser(prog="biflogis",
                     description="Bifurcation curve of the nonlocal "
                                 "logistic problem in the L2 frame.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, problem=True, formats=("json", "csv"), **kw):
        """A subcommand that runs `run(args)`, with the shared flags. It
        leaves itself in `args.parser`, which reports later usage errors."""
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(run=run, parser=sp)
        sp.add_argument("--p", type=float, default=2.5)
        if problem:
            sp.add_argument("--q", type=float, default=2.0)
            sp.add_argument("--a1", type=float, default=1.0)
            sp.add_argument("--a2", type=float, default=1.0)
        sp.add_argument("--output", default=None, metavar="PATH")
        sp.add_argument("--format", choices=formats, default="json")
        return sp

    command("constants", _run_constants, formats=("json",),
            help="closed-form constants")
    solve_local = command("solve-local", _run_solve_local, problem=False,
                          formats=("json",), help="local problem at one point")
    solve_local.add_argument("--q", type=float, default=None,
                             help="also report ||w||_q for this exponent")
    sp = command("solve", _run_solve, help="nonlocal curve at one alpha",
                 description=_CURVE_DOMAIN)
    sp.add_argument("--alpha", type=_magnitude, required=True)
    profile = command("profile", _run_profile, problem=False,
                      help="sampled solution profile")
    profile.add_argument("--points", type=int, default=101,
                         help="half-interval node count n in [3, 10**6] "
                              "(total 2n-1)")
    sweep = command("sweep", _run_sweep, help="curve rows over an alpha grid",
                    description=_CURVE_DOMAIN)
    verify = command("verify", _run_verify,
                     help="sweep plus asymptotic checks")
    sp = command("oracle-check", _run_oracle_check, problem=False,
                 formats=("json",),
                 help="time-map vs shooting cross-validation")
    sp.add_argument("--gamma", type=_magnitude, required=True)
    sp.add_argument("--q", type=float, default=4.0)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--tol", type=_magnitude, default=1e-6)

    for sp in (solve_local, profile):
        group = sp.add_mutually_exclusive_group(required=True)
        for flag in ("--k", "--gamma", "--d"):
            group.add_argument(flag, type=_magnitude)
    for sp in (sweep, verify):
        sp.add_argument("--alpha-min", type=_magnitude, required=sp is sweep)
        sp.add_argument("--alpha-max", type=_magnitude, required=sp is sweep)
        sp.add_argument("--points", type=int, default=None,
                        help="grid size in [2, 10**6] (default 5)")
    return parser


def _resolve(args, parser) -> None:
    """Adds the solvers' inputs to args: `params` (ProblemParams) or `local`
    (LocalParams), `shoot` (ShootConfig) and `alphas` where the subcommand
    takes them. A value outside their domain is a usage error, reported
    by the subcommand's parser."""
    try:
        if "a1" in args:
            args.params = nc.ProblemParams(p=args.p, q=args.q, a1=args.a1,
                                           a2=args.a2)
        else:
            args.local = ll.LocalParams(p=args.p)
        if "step" in args:
            args.shoot = oracle.ShootConfig(step=args.step)
    except (ValueError, BiflogisError) as exc:
        parser.error(str(exc))
    q = getattr(args, "q", None)
    if q is not None and not 1.0 < q < math.inf:
        parser.error(f"--q: need a finite number > 1, got {q}")
    points = getattr(args, "points", None)
    if points is not None and points > _MAX_POINTS:
        parser.error(f"--points: need <= {_MAX_POINTS}, got {points}")
    if args.command == "profile" and points < 3:
        parser.error(f"--points: need >= 3, got {points}")
    if "alpha_min" not in args:
        return
    lo, hi = args.alpha_min, args.alpha_max
    if lo is None and hi is None:
        if points is not None:
            parser.error("--points: needs --alpha-min and --alpha-max")
        args.alphas = _DEFAULT_ALPHAS[args.params.regime]
        return
    if lo is None or hi is None:
        parser.error("--alpha-min/--alpha-max: give both or neither")
    if not lo < hi:
        parser.error("--alpha-min/--alpha-max: need min < max")
    points = 5 if points is None else points
    if points < 2:
        parser.error(f"--points: need >= 2, got {points}")
    args.alphas = [float(a) for a in np.geomspace(lo, hi, points)]
    if len(set(args.alphas)) < points:
        parser.error("--alpha-min/--alpha-max: the grid rounds to "
                     "repeated alphas")


def _local_point(args) -> ll.LocalPoint:
    if args.k is not None:
        return ll.point_from_k(args.k, args.local)
    if args.gamma is not None:
        return ll.point_from_gamma(args.gamma, args.local)
    return ll.solve_for_d(args.d, args.local)


def _run_constants(args) -> tuple[str, bool]:
    p = args.params
    rec = consts.compute_all(p.p, p.q, p.a1, p.a2).to_record()
    return _json_text(rec), True


def _run_solve_local(args) -> tuple[str, bool]:
    point = _local_point(args)
    rec = {"p": point.p, "k": point.k, "gamma": point.gamma, "d": point.d}
    if args.q is not None:
        rec["q_norm"] = ll.point_q_norm(point, args.q, args.local)
    return _json_text(rec), True


def _run_solve(args) -> tuple[str, bool]:
    sol = nc.solve_alpha(args.alpha, args.params)
    rec = sol.to_record()
    if args.format == "csv":
        return _csv(_CSV_HEADER, [rec]), True
    return _json_text(rec), True


def _run_profile(args) -> tuple[str, bool]:
    prof = ll.sample_profile(_local_point(args), args.points, args.local)
    if args.format == "csv":
        lines = ["x,w"]
        lines += [f"{_g17(x)},{_g17(w)}"
                  for x, w in zip(prof.xs, prof.ws)]
        return "\n".join(lines) + "\n", True
    rec = {"p": prof.p, "k": prof.k, "gamma": prof.gamma,
           "xs": [float(x) for x in prof.xs],
           "ws": [float(w) for w in prof.ws]}
    return _json_text(rec), True


def _run_sweep(args) -> tuple[str, bool]:
    report = ver.sweep(args.params, args.alphas)
    if args.format == "csv":
        # CSV has no column for a row's error: name each dropped row.
        for row in report.rows:
            if "error" in row:
                print(f"biflogis sweep: alpha = {row['alpha']!r} left out: "
                      f"{row['error']}", file=sys.stderr)
        return _csv(_CSV_HEADER, [row for row in report.rows
                                  if "error" not in row]), True
    return _json_text(report.to_record()), True


def _run_verify(args) -> tuple[str, bool]:
    report = ver.sweep(args.params, args.alphas)
    report.checks.extend(ver.check_laws(report))
    passed = all(c.passed for c in report.checks)
    if args.format == "csv":
        return _csv(_CHECK_CSV_HEADER,
                    [c.to_record() for c in report.checks]), passed
    return _json_text(report.to_record()), passed


def _run_oracle_check(args) -> tuple[str, bool]:
    p, gamma, q, lp = args.p, args.gamma, args.q, args.local
    point = ll.point_from_gamma(gamma, lp)
    wq_map = ll.point_q_norm(point, q, lp)

    shot_point, profile, shot = oracle._solve_shot(gamma, p, args.shoot)
    wq_shoot = oracle.norms_from_profile(profile, q)
    drift = oracle.energy_drift(shot)

    rels = {
        "k": abs(shot_point.k / point.k - 1.0),
        "d": abs(shot_point.d / point.d - 1.0),
        "q_norm": abs(wq_shoot / wq_map - 1.0),
    }
    rec = {
        "p": p, "gamma": gamma, "q": q,
        "time_map": {"k": point.k, "d": point.d, "q_norm": wq_map},
        "shooting": {"k": shot_point.k, "d": shot_point.d,
                     "q_norm": wq_shoot},
        "rel_error": rels,
        "energy_drift": drift,
        "tolerance": args.tol,
    }
    ok = all(v <= args.tol for v in rels.values()) and drift <= 1e-8
    return _json_text(rec), ok


def main(argv=None) -> int:
    """Runs one invocation and returns its exit code. Each handler returns
    its output text and whether every check in it passed."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(args, args.parser)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        text, passed = args.run(args)
    except (BiflogisError, ValueError, OverflowError) as exc:
        print(f"biflogis {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_SOLVER
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    return EXIT_OK if passed else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
