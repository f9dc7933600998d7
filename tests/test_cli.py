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

import pytest

from biflogis import constants, kernels
from biflogis.cli import main

CSV_HEADER = "alpha,k,d,gamma,h,beta,lambda"
CHECK_HEADER = "name,target,estimate,rel_error,fitted_order,tolerance,pass"


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
    assert names == ["theorem_2_constancy", "theorem_2_ratio"]
    assert all(c["pass"] for c in obj["checks"])


def test_verify_subcritical_passes(capsys):
    # theorem 3 is checked under the settled E3 reading alone: no reading
    # is arbitrated or reported
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--q", "2",
                             "--a1", "0", "--a2", "1")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert set(obj) == {"params", "rows", "checks"}
    names = [c["name"] for c in obj["checks"]]
    assert names == ["theorem_3_leading", "theorem_3_second"]
    assert all(c["pass"] and "other_rel_error" not in c for c in obj["checks"])


def test_repeat_runs_print_identical_output(capsys, fresh_caches):
    # The second run of each command reads every (p, q) integral from the
    # constants memo the first run filled.
    store = constants._PQ_CACHE
    for argv in (("constants", "--p", "2.2", "--q", "3"),
                 ("verify", "--p", "2.2", "--q", "3", "--a1", "1", "--a2", "1")):
        first = run_cli(capsys, *argv)
        filled = dict(store)
        second = run_cli(capsys, *argv)
        assert filled and store == filled
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_verify_checks_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CHECK_HEADER
    assert len(lines) == 3
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


def test_exit_check_failure(capsys):
    # unreachable tolerance turns the cross-check into a failed check
    code, out, _ = run_cli(capsys, "oracle-check", "--p", "3", "--gamma", "15",
                           "--step", "1e-2", "--tol", "1e-15")
    assert code == 2
    assert json.loads(out)["tolerance"] == 1e-15


def test_exit_usage(capsys, monkeypatch):
    # A value outside the documented domain is a usage error on every
    # subcommand, whichever solver object would have rejected it, and it is
    # found before any solver runs: a march at --step 1e-9 would keep 10**9
    # samples.
    def no_march(*args):
        raise AssertionError(f"march started: {args}")

    monkeypatch.setattr(kernels, "rk4_shoot", no_march)
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
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (64, ""), argv
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
