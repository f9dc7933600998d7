"""Command-line front end.

Subcommands: constants, solve-local, solve, profile, sweep, verify,
oracle-check. Flags mirror the problem symbols (--p --q --a1 --a2 --alpha).
Exit codes: 0 success, 1 solver error, 2 failed verification check, 64 usage
error. BIFLOGIS_QUAD_TOL overrides the default quadrature relative tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import constants as consts
from . import local_logistic as ll
from . import nonlocal_curve as nc
from . import oracle
from . import verify as ver
from .errors import BiflogisError
from .quadrature import QuadSpec

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CHECK = 2
EXIT_USAGE = 64

_CSV_HEADER = "alpha,k,d,gamma,h,beta,lambda"
_CHECK_CSV_HEADER = "name,target,estimate,rel_error,fitted_order,tolerance,pass"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    params: nc.ProblemParams | None = None
    alpha: float | None = None
    alpha_range: tuple[float, float] | None = None
    grid_points: int | None = None
    output_path: str | None = None
    format: str = "json"
    e3_reading: str = "both"
    extra: dict = field(default_factory=dict)


def _default_quad() -> QuadSpec:
    tol = os.environ.get("BIFLOGIS_QUAD_TOL")
    if tol is None:
        return QuadSpec()
    try:
        val = float(tol)
        if not (0.0 < val < 1.0):
            raise ValueError
    except ValueError:
        print(f"biflogis: error: BIFLOGIS_QUAD_TOL must be a number in (0, 1), "
              f"got {tol!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    return QuadSpec(rel_tol=val)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _rows_csv(rows) -> str:
    lines = [_CSV_HEADER]
    for row in rows:
        if "error" in row:
            continue
        lines.append(",".join(_g17(row[c])
                              for c in _CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def _checks_csv(checks) -> str:
    lines = [_CHECK_CSV_HEADER]
    for c in checks:
        rec = c.to_record()
        order = rec["fitted_order"]
        lines.append(",".join([
            rec["name"], _g17(rec["target"]), _g17(rec["estimate"]),
            _g17(rec["rel_error"]),
            "" if order is None else _g17(order),
            _g17(rec["tolerance"]),
            "true" if rec["pass"] else "false",
        ]))
    return "\n".join(lines) + "\n"


def _add_problem_flags(sp, with_weights=True):
    sp.add_argument("--p", type=float, default=2.5)
    sp.add_argument("--q", type=float, default=2.0)
    if with_weights:
        sp.add_argument("--a1", type=float, default=1.0)
        sp.add_argument("--a2", type=float, default=1.0)


def _add_output_flags(sp, formats=("json", "csv")):
    sp.add_argument("--output", default=None, metavar="PATH")
    sp.add_argument("--format", choices=formats, default="json")


# The input domain of solve and sweep, shown in their --help.
_CURVE_DOMAIN = (
    "Domain: p > 1 (p = 3 and its neighbourhood included), q > 1, "
    "a1, a2 >= 0 with a1 + a2 > 0, alpha > 0. Exits 1 where no float point "
    "represents the curve: k, h, beta or lambda out of the double range "
    "(p near 1, extreme alpha), or d equal to k in float (large p deep in "
    "the layer). Tested over p in [1.05, 20], q in [1.1, 8], alpha in "
    "[1e-6, 1e12].")


def _build_parser() -> _Parser:
    parser = _Parser(prog="biflogis",
                     description="Bifurcation curve of the nonlocal "
                                 "logistic problem in the L2 frame.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", parents=[], help="closed-form constants")
    _add_problem_flags(sp)
    sp.add_argument("--e3-reading", dest="e3_reading",
                    choices=("paper_definition", "proof_variant", "both"),
                    default="both")
    _add_output_flags(sp, formats=("json",))

    sp = sub.add_parser("solve-local", help="local problem at one point")
    sp.add_argument("--p", type=float, default=2.5)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=float)
    group.add_argument("--gamma", type=float)
    group.add_argument("--d", type=float)
    sp.add_argument("--q", type=float, default=None,
                    help="also report ||w||_q for this exponent")
    _add_output_flags(sp, formats=("json",))

    sp = sub.add_parser("solve", help="nonlocal curve at one alpha",
                        description=_CURVE_DOMAIN)
    _add_problem_flags(sp)
    sp.add_argument("--alpha", type=float, required=True)
    _add_output_flags(sp)

    sp = sub.add_parser("profile", help="sampled solution profile")
    sp.add_argument("--p", type=float, default=2.5)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=float)
    group.add_argument("--gamma", type=float)
    group.add_argument("--d", type=float)
    sp.add_argument("--points", type=int, default=101,
                    help="half-interval node count n >= 3 (total 2n-1)")
    _add_output_flags(sp)

    sp = sub.add_parser("sweep", help="curve rows over an alpha grid",
                        description=_CURVE_DOMAIN)
    _add_problem_flags(sp)
    sp.add_argument("--alpha-min", type=float, required=True)
    sp.add_argument("--alpha-max", type=float, required=True)
    sp.add_argument("--points", type=int, default=5)
    _add_output_flags(sp)

    sp = sub.add_parser("verify", help="sweep plus asymptotic checks")
    _add_problem_flags(sp)
    sp.add_argument("--alpha-min", type=float, default=None)
    sp.add_argument("--alpha-max", type=float, default=None)
    sp.add_argument("--points", type=int, default=5)
    sp.add_argument("--e3-reading", dest="e3_reading",
                    choices=("paper_definition", "proof_variant", "both"),
                    default="both")
    _add_output_flags(sp)

    sp = sub.add_parser("oracle-check",
                        help="time-map vs shooting cross-validation")
    sp.add_argument("--p", type=float, default=2.5)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--q", type=float, default=4.0)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--tol", type=float, default=1e-6)
    _add_output_flags(sp, formats=("json",))

    return parser


def _config_from_args(args, parser) -> RunConfig:
    quad = _default_quad()
    cfg = RunConfig(command=args.command,
                    output_path=getattr(args, "output", None),
                    format=getattr(args, "format", "json"),
                    e3_reading=getattr(args, "e3_reading", "both"))
    if args.command in ("constants", "solve", "sweep", "verify"):
        try:
            cfg.params = nc.ProblemParams(p=args.p, q=args.q,
                                          a1=args.a1, a2=args.a2, quad=quad)
        except (ValueError, BiflogisError) as exc:
            parser.error(f"--p/--q/--a1/--a2: {exc}")
    if args.command == "solve":
        if not (math.isfinite(args.alpha) and args.alpha > 0):
            parser.error(f"--alpha: must be positive, got {args.alpha}")
        cfg.alpha = args.alpha
    if args.command in ("sweep", "verify"):
        amin = getattr(args, "alpha_min", None)
        amax = getattr(args, "alpha_max", None)
        if (amin is None) != (amax is None):
            parser.error("--alpha-min/--alpha-max: give both or neither")
        if amin is not None:
            if not (0 < amin < amax):
                parser.error("--alpha-min/--alpha-max: need 0 < min < max")
            if args.points < 2:
                parser.error(f"--points: need >= 2, got {args.points}")
            cfg.alpha_range = (amin, amax)
            cfg.grid_points = args.points
        elif args.command == "sweep":
            parser.error("--alpha-min/--alpha-max: required for sweep")
    if args.command == "profile" and args.points < 3:
        parser.error(f"--points: need >= 3, got {args.points}")
    cfg.extra = {k: getattr(args, k) for k in
                 ("k", "gamma", "d", "points", "q", "step", "tol", "p")
                 if hasattr(args, k)}
    return cfg


def _alpha_grid(cfg: RunConfig) -> list[float]:
    if cfg.alpha_range is not None:
        lo, hi = cfg.alpha_range
        return [float(a) for a in np.geomspace(lo, hi, cfg.grid_points)]
    regime = cfg.params.regime
    if regime == "supercritical":
        return list(ver.DEFAULT_SUPER_ALPHAS)
    if regime == "subcritical":
        return list(ver.DEFAULT_SUB_ALPHAS)
    return [1.0, 10.0, 100.0, 1000.0]


def _local_point(cfg: RunConfig, lp: ll.LocalParams) -> ll.LocalPoint:
    ex = cfg.extra
    if ex.get("k") is not None:
        return ll.point_from_k(ex["k"], lp)
    if ex.get("gamma") is not None:
        return ll.point_from_gamma(ex["gamma"], lp)
    return ll.solve_for_d(ex["d"], lp)


def _run_constants(cfg: RunConfig) -> int:
    p = cfg.params
    readings = (("paper_definition", "proof_variant")
                if cfg.e3_reading == "both" else (cfg.e3_reading,))
    recs = {r: consts.compute_all(p.p, p.q, p.a1, p.a2, r, p.quad).to_record()
            for r in readings}
    obj = recs[readings[0]] if len(readings) == 1 else recs
    _emit(_json_text(obj), cfg.output_path)
    return EXIT_OK


def _run_solve_local(cfg: RunConfig) -> int:
    lp = ll.LocalParams(p=cfg.extra["p"], quad=_default_quad())
    point = _local_point(cfg, lp)
    rec = {"p": point.p, "k": point.k, "gamma": point.gamma, "d": point.d}
    if cfg.extra.get("q") is not None:
        rec["q_norm"] = ll.point_q_norm(point, cfg.extra["q"], lp)
    _emit(_json_text(rec), cfg.output_path)
    return EXIT_OK


def _run_solve(cfg: RunConfig) -> int:
    sol = nc.solve_alpha(cfg.alpha, cfg.params)
    rec = sol.to_record()
    if cfg.format == "csv":
        _emit(_rows_csv([rec]), cfg.output_path)
    else:
        _emit(_json_text(rec), cfg.output_path)
    return EXIT_OK


def _run_profile(cfg: RunConfig) -> int:
    lp = ll.LocalParams(p=cfg.extra["p"], quad=_default_quad())
    point = _local_point(cfg, lp)
    prof = ll.sample_profile(point, cfg.extra["points"], lp)
    if cfg.format == "csv":
        lines = ["x,w"]
        lines += [f"{_g17(x)},{_g17(w)}"
                  for x, w in zip(prof.xs, prof.ws)]
        _emit("\n".join(lines) + "\n", cfg.output_path)
    else:
        rec = {"p": prof.p, "k": prof.k, "gamma": prof.gamma,
               "xs": [float(x) for x in prof.xs],
               "ws": [float(w) for w in prof.ws]}
        _emit(_json_text(rec), cfg.output_path)
    return EXIT_OK


def _run_sweep(cfg: RunConfig) -> int:
    report = ver.sweep(cfg.params, _alpha_grid(cfg))
    if cfg.format == "csv":
        _emit(_rows_csv(report.rows), cfg.output_path)
    else:
        _emit(_json_text(report.to_record()), cfg.output_path)
    return EXIT_OK


def _run_verify(cfg: RunConfig) -> int:
    params = cfg.params
    report = ver.sweep(params, _alpha_grid(cfg))
    regime = params.regime
    if regime == "supercritical":
        report.checks.append(ver.check_theorem_1(report))
    elif regime == "critical":
        report.checks.extend(ver.check_theorem_2(report))
    else:
        cs_paper = consts.compute_all(params.p, params.q, params.a1,
                                      params.a2, "paper_definition",
                                      params.quad)
        cs_var = consts.compute_all(params.p, params.q, params.a1,
                                    params.a2, "proof_variant", params.quad)
        if cfg.e3_reading == "both":
            lead, second, chosen = ver.check_theorem_3(report, cs_paper,
                                                       cs_var)
        else:
            cs = cs_paper if cfg.e3_reading == "paper_definition" else cs_var
            lead, second, chosen = ver.check_theorem_3(report, cs, cs)
        report.checks.extend([lead, second])
        report.chosen_e3_reading = chosen
        print(f"chosen E3 reading: {chosen}", file=sys.stderr)
    if cfg.format == "csv":
        _emit(_checks_csv(report.checks), cfg.output_path)
    else:
        _emit(_json_text(report.to_record()), cfg.output_path)
    return EXIT_OK if all(c.passed for c in report.checks) else EXIT_CHECK


def _run_oracle_check(cfg: RunConfig) -> int:
    ex = cfg.extra
    p, gamma, q = ex["p"], ex["gamma"], ex["q"]
    lp = ll.LocalParams(p=p, quad=_default_quad())
    point = ll.point_from_gamma(gamma, lp)
    wq_map = ll.point_q_norm(point, q, lp)

    scfg = oracle.ShootConfig(step=ex["step"])
    shot_point, profile, shot = oracle._solve_shot(gamma, p, scfg)
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
        "tolerance": ex["tol"],
    }
    _emit(_json_text(rec), cfg.output_path)
    ok = all(v <= ex["tol"] for v in rels.values()) and drift <= 1e-8
    return EXIT_OK if ok else EXIT_CHECK


_DISPATCH = {
    "constants": _run_constants,
    "solve-local": _run_solve_local,
    "solve": _run_solve,
    "profile": _run_profile,
    "sweep": _run_sweep,
    "verify": _run_verify,
    "oracle-check": _run_oracle_check,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one resolved config; returns the process exit code."""
    try:
        return _DISPATCH[cfg.command](cfg)
    except (BiflogisError, ValueError, OverflowError) as exc:
        print(f"biflogis {cfg.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_SOLVER


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args, parser)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
