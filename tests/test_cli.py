"""Command-line interface: output formats, determinism, exit codes.

Everything runs in-process through main(argv) so coverage and failures stay
debuggable; one subprocess test at the bottom confirms that
`python -m biflogis.cli`, run on this process's import path, wires up to the
same main.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biflogis import constants, kernels
from biflogis import local_logistic as ll
from biflogis.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
# The command lines tools/cli_bytes.py compares across revisions, and the
# seeded draw over the documented domain and the run classifier of
# tools/fuzz_cli.py.
from cli_bytes import INVOCATIONS  # noqa: E402
from fuzz_cli import fuzz, run_all  # noqa: E402

CSV_HEADER = "alpha,k,d,gamma,h,beta,lambda"
CHECK_HEADER = "name,target,estimate,rel_error,fitted_order,tolerance,pass"
# The local problem's laws, which verify checks at every p: large d, then
# small d.
LOCAL_ROWS = ["large_d_gamma_shift", "large_d_qnorm_relation",
              "large_d_D_coefficient", "small_d_gamma_shift",
              "small_d_amplitude", "small_d_qnorm"]
# verify's checks off p = 3: theorem 1 at large d, theorem 3 at small d,
# then the local laws.
BOTH_ENDS = ["theorem_1_leading", "theorem_3_leading",
             "theorem_3_second"] + LOCAL_ROWS


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ----------------------------------------------------------------- outputs


def test_constants_single_reading(capsys):
    # one flat ConstantSet record, under the settled E3 reading
    code, out, err = run_cli(capsys, "constants", "--p", "2", "--q", "2")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj == constants.compute_all(2.0, 2.0, 1.0, 1.0).to_record()
    assert obj["e3_reading"] == "proof_variant"
    assert abs(obj["leading_coeff"]) > 0.0


def test_json_is_canonical(capsys):
    # sorted keys, two-space indent, trailing newline: byte-stable output
    _, out, _ = run_cli(capsys, "constants", "--p", "2.5")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_solve_json_keys(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "5", "--q", "2",
                           "--a1", "1", "--a2", "0", "--alpha", "100")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == set(CSV_HEADER.split(","))
    assert obj["alpha"] == 100.0
    assert obj["lambda"] == pytest.approx(obj["beta"] * obj["gamma"])


def test_solve_csv(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "5", "--alpha", "100",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    row = dict(zip(CSV_HEADER.split(","), map(float, lines[1].split(","))))
    assert row["alpha"] == 100.0


def test_solve_deterministic(capsys):
    args = ("solve", "--p", "2", "--alpha", "50")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_solve_local_with_norm(capsys):
    code, out, _ = run_cli(capsys, "solve-local", "--p", "3",
                           "--gamma", "15", "--q", "4")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"p", "k", "gamma", "d", "q_norm"}
    # gamma round-trips through the layer coordinate: ulp-level, not exact
    assert obj["gamma"] == pytest.approx(15.0, rel=1e-13)
    assert 0.0 < obj["d"] < obj["k"]


def test_profile_csv(capsys):
    code, out, _ = run_cli(capsys, "profile", "--p", "3", "--gamma", "15",
                           "--points", "51", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,w"
    assert len(lines) == 1 + 2 * 51 - 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--p", "5", "--alpha-min", "10",
                           "--alpha-max", "1000", "--points", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert alphas == sorted(alphas)
    assert alphas[0] == 10.0 and alphas[-1] == 1000.0


def test_sweep_csv_names_left_out_rows(capsys):
    # CSV has no error column: the alpha = 1000 row, past the tau wall at
    # p = 20, is left out of stdout and named on stderr.
    code, out, err = run_cli(capsys, "sweep", "--p", "20", "--alpha-min",
                             "1", "--alpha-max", "1000", "--points", "2",
                             "--format", "csv")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == [
        "alpha", "1"]
    assert err == ("biflogis sweep: alpha = 1000.0 left out: InvalidBracket: "
                   "the root lies beyond the wall t = exp(55) at p = 20.0, "
                   "where d would round to k\n")


def test_sweep_json_keeps_failed_rows(capsys):
    code, out, err = run_cli(capsys, "sweep", "--p", "20", "--alpha-min",
                             "1", "--alpha-max", "1000", "--points", "2")
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["alpha"] for row in rows] == [1.0, 1000.0]
    assert "error" not in rows[0]
    assert rows[1]["error"].startswith("InvalidBracket: the root lies beyond")


@pytest.mark.parametrize("flag, solve", [("--k", ll.point_from_k),
                                         ("--d", ll.solve_for_d)])
def test_solve_local_from_k_or_d(capsys, flag, solve):
    code, out, err = run_cli(capsys, "solve-local", "--p", "3", flag, "0.5")
    assert (code, err) == (0, "")
    point = solve(0.5, ll.LocalParams(p=3.0))
    assert json.loads(out) == {"p": 3.0, "k": point.k, "gamma": point.gamma,
                               "d": point.d}


def test_output_file(tmp_path, capsys):
    target = tmp_path / "row.json"
    code, out, _ = run_cli(capsys, "solve", "--p", "3", "--alpha", "10",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["alpha"] == 10.0


# ------------------------------------------------------------ verification


def test_verify_critical_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--q", "2")
    assert code == 0
    obj = json.loads(out)
    names = [c["name"] for c in obj["checks"]]
    assert names == ["theorem_2_constancy", "theorem_2_ratio"] + LOCAL_ROWS
    assert all(c["pass"] for c in obj["checks"])


@pytest.mark.parametrize("q", ("2", "4"))
def test_verify_critical_reports_every_law(capsys, q):
    # At p = 3 verify reports theorem 2's exact law and the six local laws;
    # the worst of them reads 3.1e-11.
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--q", q)
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == \
        ["theorem_2_constancy", "theorem_2_ratio"] + LOCAL_ROWS
    assert all(c["pass"] for c in checks)
    assert max(c["rel_error"] for c in checks) < 1e-10


def test_verify_subcritical_passes(capsys):
    # theorem 3 is checked under the settled E3 reading alone: no reading
    # is arbitrated or reported
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--q", "2",
                             "--a1", "0", "--a2", "1")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert set(obj) == {"params", "rows", "checks"}
    names = [c["name"] for c in obj["checks"]]
    assert names == BOTH_ENDS
    assert all(c["pass"] and "other_rel_error" not in c for c in obj["checks"])


@pytest.mark.parametrize("p, names", [
    ("3.01", BOTH_ENDS), ("3.1", BOTH_ENDS), ("3.3", BOTH_ENDS),
    ("2.99", BOTH_ENDS), ("2.999", BOTH_ENDS), ("3.0000000005", BOTH_ENDS),
    ("2.9999999995", BOTH_ENDS), ("3.0000000000000004", BOTH_ENDS)])
def test_verify_near_critical_passes(capsys, p, names):
    # Near p = 3 the theorems' alpha exceeds 10^400 (theorem 1 at p = 3.01)
    # and E3 leaves the double range (ln E3 = -1386 at p = 2.999); the laws
    # are read at fixed layer coordinates, and L0 and S are closed forms.
    # Only p = 3 itself is critical: half a nano off it the curve misses
    # theorem 2's exact law (lambda/alpha^2 varies by 2.4e-10), and there
    # and at the next double theorems 1 and 3 hold.
    code, out, err = run_cli(capsys, "verify", "--p", p, "--q", "2",
                             "--a1", "1", "--a2", "1")
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == names
    assert all(c["pass"] for c in checks)


@pytest.mark.parametrize("q", ("1.1", "2", "8"))
def test_verify_just_below_critical_reads_S(capsys, q):
    # At p = 3 - 1e-6 the composed L0 missed its closed form by up to
    # 7.5e-10, and theorem_3_second read that miss divided by x: 9.1e-6 to
    # 1.7e-5. The closed forms leave the curve's own error, 4.7e-13 to
    # 1.6e-11.
    code, out, err = run_cli(capsys, "verify", "--p", "2.999999", "--q", q)
    assert (code, err) == (0, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks) == BOTH_ENDS
    assert checks["theorem_3_second"]["rel_error"] < 1e-9


@pytest.mark.parametrize("p, a1, a2", [("5", "1e-300", "0"),
                                        ("2.5", "1e-300", "0"),
                                        ("2.5", "1e-200", "1e-200")])
def test_verify_tiny_weights_pass(capsys, p, a1, a2):
    # With the weights times s, L0 -> s L0 and S -> S/s exactly, so here
    # theorem 3 extrapolates over abscissae near 1e-203. Their divided
    # differences overflowed and theorem_3_second read nan (exit 2); with
    # the abscissae scaled by a power of two it reads 4.9e-10 to 7.9e-10.
    code, out, err = run_cli(capsys, "verify", "--p", p, "--a1", a1,
                             "--a2", a2)
    assert (code, err) == (0, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks) == BOTH_ENDS
    assert all(c["pass"] for c in checks.values())
    assert checks["theorem_3_second"]["rel_error"] < 1e-9


@pytest.mark.parametrize("p", ("100", "300"))
def test_verify_large_p_reads_theorem_1_late(capsys, p):
    # On ln t in [4, 6] the large-d remainder had not died out at large p:
    # theorem_1_leading read 1.35e-2 at p = 100 and 0.517 at p = 300
    # (exit 2). From p = 8 on the window is [8, 10], where it reads 4.3e-10
    # and 4.0e-6.
    code, out, err = run_cli(capsys, "verify", "--p", p, "--q", "2")
    assert (code, err) == (0, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks) == BOTH_ENDS
    assert all(c["pass"] for c in checks.values())
    assert checks["theorem_1_leading"]["rel_error"] <= 1e-5


@pytest.mark.parametrize("p", ("2.999", "2.9999"))
def test_constants_near_critical(capsys, p):
    code, out, err = run_cli(capsys, "constants", "--p", p)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["ln_E3"] < -1000.0
    assert obj["leading_coeff"] > 0.0 and obj["second_coeff"] > 0.0


def test_repeat_runs_print_identical_output(capsys, fresh_caches,
                                           calibrations):
    # The second run of each command reads every (p, q) calibration the
    # first run filled, constants included, and adds none.
    for argv in (("constants", "--p", "2.2", "--q", "3"),
                 ("verify", "--p", "2.2", "--q", "3", "--a1", "1", "--a2", "1")):
        first = run_cli(capsys, *argv)
        filled = calibrations()
        second = run_cli(capsys, *argv)
        again = calibrations()
        assert filled and again.keys() == filled.keys()
        assert all(again[key] is val for key, val in filled.items())
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_verify_checks_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CHECK_HEADER
    assert len(lines) == 9
    assert all(line.endswith(",true") for line in lines[1:])


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--p", "3",
                           "--gamma", "15", "--step", "1e-3")
    assert code == 0
    obj = json.loads(out)
    assert obj["energy_drift"] <= 1e-8
    assert all(v <= 1e-6 for v in obj["rel_error"].values())


# -------------------------------------------------------------- exit codes


def test_exit_solver_error(capsys):
    # gamma below pi^2 has no solution: runtime failure, not usage
    code, out, err = run_cli(capsys, "solve-local", "--p", "3", "--gamma", "5")
    assert code == 1
    assert out == ""
    assert "NoSolution" in err


@pytest.mark.parametrize("argv", [
    ("--a1", "1e-300", "--a2", "0"),
    ("--a1", "1e-300", "--a2", "1e-300"),
    ("--alpha-min", "1e200", "--alpha-max", "1e300"),
])
def test_exit_solver_error_when_no_row_solves(capsys, argv):
    # At p = 3 every row of these grids is an InvalidBracket. Theorem 2
    # then has nothing to read and says so with a package error, not with
    # a bare ValueError.
    code, out, err = run_cli(capsys, "verify", "--p", "3", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("biflogis verify: InvalidBracket: "), err
    assert "ValueError" not in err


@pytest.mark.parametrize("command", ("constants", "verify"))
def test_exit_solver_error_when_S_overflows(capsys, command):
    # At p = 100 and weights near the smallest double, S = O(1/(a1 + a2))
    # leaves the double range. constants printed "second_coeff": Infinity,
    # which is not JSON, and exited 0; verify printed numpy warnings and a
    # theorem_3_second row reading inf and nan, and exited 2.
    code, out, err = run_cli(capsys, command, "--p", "100", "--a1", "1e-300",
                             "--a2", "1e-300")
    assert (code, out) == (1, "")
    assert err.startswith(f"biflogis {command}: Overflow: S leaves "), err


# A point with a subnormal field: beta (1.1e-320 and 9.1e-319, where beta =
# h^{p-1} missed by 1.9e-4 and 1.2e-6 in log), d (7.8e-315) and h
# (8.7e-322, where alpha = h d missed by 2.8e-4).
SUBNORMAL_SOLVES = [
    "--p 2.179490858021703 --q 4.1534001430986995 --a1 0.0 "
    "--a2 1.4141094583587861e+175 --alpha 2.8448645560149516e-248",
    "--p 4.73707040902549 --q 4.354975397032865 --a1 0.0 "
    "--a2 1.0851569583275558e-68 --alpha 9.176537363988318e-126",
    "--p 1.5 --q 4 --a1 0 --a2 1.0747576099256558e+234 "
    "--alpha 4.804585581786786e-52",
    "--p 2 --q 2 --a1 5.5088439034057426e+277 --a2 1.376834636922323e+47 "
    "--alpha 3.983715853753032e-300",
]


@pytest.mark.parametrize("argv, field", zip(SUBNORMAL_SOLVES, "hhdh"),
                         ids=("beta-1", "beta-2", "d", "h"))
def test_exit_solver_error_on_a_subnormal_field(capsys, argv, field):
    # No float point represents the curve there: a package error that names
    # the fields, not NoConvergence or a bare ValueError. The point's own
    # range test names d, solve_alpha's names h, beta and lambda.
    code, out, err = run_cli(capsys, "solve", *argv.split())
    assert (code, out) == (1, "")
    assert err.startswith(f"biflogis solve: InvalidBracket: {field} = "), err
    assert "out of the normal double range" in err


def test_sweep_records_a_subnormal_field(capsys):
    # The alpha = 3.98e-300 row's h is subnormal; the sweep records its
    # error and goes on.
    code, out, err = run_cli(
        capsys, "sweep", "--p", "2", "--q", "2",
        "--a1", "5.5088439034057426e+277", "--a2", "1.376834636922323e+47",
        "--alpha-min", "3.983715853753032e-300", "--alpha-max", "1e-290",
        "--points", "3")
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert rows[0]["alpha"] == 3.983715853753032e-300
    assert rows[0]["error"].startswith("InvalidBracket: h = ")
    assert "error" not in rows[-1]


def test_exit_check_failure(capsys):
    # unreachable tolerance turns the cross-check into a failed check
    code, out, _ = run_cli(capsys, "oracle-check", "--p", "3", "--gamma", "15",
                           "--step", "1e-2", "--tol", "1e-15")
    assert code == 2
    assert json.loads(out)["tolerance"] == 1e-15


def test_cli_bytes_invocations_end_as_listed():
    # Every command line tools/cli_bytes.py compares, run on this tree: no
    # traceback, bare error, warning, non-finite output or wrong verify
    # verdict, and a usage error on exactly the list's last 19 entries, the
    # flag values outside the documented domain.
    runs = dict(zip(INVOCATIONS, run_all(INVOCATIONS)))
    assert [argv for argv, (_, _, outcome, bad) in runs.items()
            if bad and outcome != "usage"] == []
    assert [argv for argv, (_, _, outcome, _) in runs.items()
            if outcome == "usage"] == INVOCATIONS[-19:]


def test_verify_fuzz_has_no_wrong_verdict():
    # 200 verify runs of the fuzz's draw at a fixed seed: p up to 300 and
    # weights at scales 10^+-300. A typed exit is counted, not failed; a
    # traceback, a bare error, a warning, non-finite output, DegenerateFit
    # or a failed law row (exit 2) is a wrong verdict.
    table, bad = fuzz(1, 200, ("verify",))
    assert sum(table.values()) == 200
    assert bad == []


def test_exit_usage(capsys, monkeypatch):
    # A value outside the documented domain is a usage error on every
    # subcommand, whichever solver object would have rejected it, and it is
    # found before any solver runs: a march at --step 1e-9 would keep 10**9
    # samples.
    def no_march(*args):
        raise AssertionError(f"march started: {args}")

    monkeypatch.setattr(kernels, "rk4_shoot", no_march)
    # argv whose message the test also reads
    messages = {
        ("solve", "--alpha", "abc"):
            "argument --alpha: need a positive finite number, got 'abc'",
        ("verify", "--alpha-min", "1"):
            "--alpha-min/--alpha-max: give both or neither",
        ("verify", "--alpha-min", "1", "--alpha-max", "10", "--points", "1"):
            "--points: need >= 2, got 1",
    }
    for argv in (
        ("solve", "--p", "5"),  # --alpha missing
        ("solve", "--alpha", "10", "--p", "5", "--bogus"),
        ("solve", "--alpha", "-3"),
        ("solve", "--alpha", "10", "--a1", "0", "--a2", "0"),
        ("sweep", "--p", "5"),
        ("sweep", "--p", "5", "--alpha-min", "10", "--alpha-max", "5"),
        ("solve-local", "--k", "1", "--gamma", "15"),
        ("solve-local", "--p", "0.5", "--k", "1"),
        ("profile", "--p", "0.5", "--k", "1"),
        ("oracle-check", "--p", "0.5", "--gamma", "20"),
        ("solve-local", "--k", "-1"),
        ("solve-local", "--p", "3", "--gamma", "-1"),
        ("profile", "--p", "3", "--d", "0"),
        ("solve-local", "--p", "2", "--k", "1", "--q", "0.5"),
        ("oracle-check", "--gamma", "20", "--step", "1"),
        ("oracle-check", "--p", "3", "--gamma", "15", "--step", "1e-2",
         "--tol", "-1"),
        ("oracle-check", "--p", "3", "--gamma", "15", "--step", "1e-9"),
        ("solve", "--p", "0.5", "--alpha", "1"),
        ("solve", "--alpha", "-1"),
        ("constants", "--q", "0.5"),
        ("solve", "--alpha", "10", "--a1", "nan"),
        ("verify", "--p", "5", "--points", "7"),  # --points needs a range
        ("sweep", "--alpha-min", "1", "--alpha-max", "1.0000000000000002",
         "--points", "5"),  # the grid rounds to repeated alphas
        ("profile", "--p", "3", "--gamma", "20", "--points",
         "100000000000000000000"),  # --points is at most 10**6
        ("sweep", "--alpha-min", "1", "--alpha-max", "10", "--points",
         "10000000"),
        # E3 has one reading, so no flag selects it
        ("constants", "--p", "2", "--e3-reading", "proof_variant"),
        ("verify", "--p", "2", "--q", "2", "--a1", "0", "--a2", "1",
         "--e3-reading", "paper_definition"),
        *messages,
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (64, ""), argv
        assert messages.get(argv, "") in err, argv
        # The errors found after parsing (--points, --q, --step, the alpha
        # range) show the subcommand's usage line, as argparse's own do;
        # argparse leaves only an unknown flag to the top-level parser.
        if not {"--bogus", "--e3-reading"} & set(argv):
            assert err.startswith(f"usage: biflogis {argv[0]} "), argv


def test_exit_usage_profile_points(capsys):
    # a profile needs n >= 3 half-interval nodes: usage, not solver error
    for points in ("2", "0", "-5"):
        code, out, err = run_cli(capsys, "profile", "--p", "3", "--gamma",
                                 "15", "--points", points)
        assert code == 64
        assert out == ""
        assert "--points: need >= 3" in err
    assert run_cli(capsys, "profile", "--p", "3", "--gamma", "15",
                   "--points", "3")[0] == 0


def test_environment_is_not_read(capsys, monkeypatch):
    # The quadrature tolerance is a constant: a value in the environment
    # that once set it changes neither the exit code nor a byte of output.
    argv = ("solve", "--p", "5", "--alpha", "100")
    plain = run_cli(capsys, *argv)
    monkeypatch.setenv("BIFLOGIS_QUAD_TOL", "banana")
    assert run_cli(capsys, *argv) == plain
    assert plain[0] == 0 and plain[2] == ""


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "biflogis.cli", "constants", "--p", "2"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["e3_reading"] == "proof_variant"
