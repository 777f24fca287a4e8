"""Command-line driver: subcommands, CSV output and exit codes."""

import csv
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bcslab import cli

ROOT = Path(__file__).resolve().parents[1]


SMALL_CONFIG = """
# small lattice for fast runs
d = 1
L = 4
beta = 2
nu = 4
lambda_factor = 2.0
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    values = {}
    for line in out.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            values[parts[0]] = parts[1]
    return values


def test_lattice_info(config_path, capsys):
    code, out, _ = run_cli(["lattice-info", "--config", config_path], capsys)
    assert code == 0
    kv = parse_kv(out)
    assert kv["momenta"] == "4"
    assert kv["transfers"] == "9"
    assert kv["nondegenerate"] == "True"
    assert float(kv["kappa"]) == pytest.approx(2.0 * 4.0)


def test_lattice_info_defaults(capsys):
    code, out, _ = run_cli(["lattice-info"], capsys)
    assert code == 0
    kv = parse_kv(out)
    assert kv["momenta"] == "300"
    assert kv["transfers"] == "1485"


def test_gap(config_path, capsys):
    code, out, _ = run_cli(["gap", "--config", config_path], capsys)
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["residual"]) <= 1e-12
    assert float(kv["r0"]) > 0
    assert kv["trivial"] == "False"
    assert float(kv["lambda_over_lambda_c"]) == pytest.approx(2.0)


def test_gap_external(config_path, capsys):
    code, out, _ = run_cli(
        ["gap", "--config", config_path, "--external", "1e-2"], capsys
    )
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["y0"]) < 0


def test_eval(config_path, capsys):
    code, out, _ = run_cli(
        ["eval", "--config", config_path, "--seed", "3", "--scale", "0.5"], capsys
    )
    assert code == 0
    kv = parse_kv(out)
    assert abs(float(kv["re_v_full"]) - float(kv["re_v_reduced"])) <= 1e-9


def test_verify_bound(config_path, tmp_path, capsys):
    out_csv = str(tmp_path / "bound.csv")
    code, out, _ = run_cli(
        [
            "verify-bound",
            "--config",
            config_path,
            "--count",
            "5",
            "--output",
            out_csv,
        ],
        capsys,
    )
    assert code == 0
    assert "all_chains_ok True" in out
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # BCS row plus 5 seeded rows
    assert rows[0]["seed"] == "bcs"
    for row in rows:
        assert row["chain_ok"] == "1"
        assert float(row["re_v"]) >= float(row["rhs26"]) - 1e-6
        assert float(row["rhs26"]) >= float(row["vbcs_norm"]) - 1e-6


def test_verify_bound_explicit_count(config_path, tmp_path, capsys):
    # --count 10 evaluates ten seeded fields, not the default 200
    out_csv = str(tmp_path / "bound.csv")
    code, out, _ = run_cli(
        ["verify-bound", "--config", config_path, "--count", "10", "--output", out_csv],
        capsys,
    )
    assert code == 0
    assert "configurations 11" in out
    with open(out_csv) as fh:
        assert len(list(csv.DictReader(fh))) == 11


def test_verify_bound_default_count(config_path, capsys):
    code, out, _ = run_cli(
        ["verify-bound", "--config", config_path, "--output", "-"], capsys
    )
    assert code == 0
    assert "configurations 201" in out


def test_expand(config_path, tmp_path, capsys):
    out_csv = str(tmp_path / "expand.csv")
    code, out, _ = run_cli(
        ["expand", "--config", config_path, "--output", out_csv], capsys
    )
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["max_identity_residual"]) <= 1e-12
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert {"q", "alpha", "beta", "gamma", "identity_residual"} <= set(rows[0])
    by_q = {row["q"]: row for row in rows}
    assert float(by_q["(0;0)"]["alpha"]) == pytest.approx(0.0, abs=1e-10)


def test_hessian_check(config_path, capsys):
    code, out, _ = run_cli(
        ["hessian-check", "--config", config_path, "--count", "3"], capsys
    )
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["hessian_rel_error_re"]) <= 1e-4
    assert float(kv["hessian_rel_error_im"]) <= 1e-4
    assert 6.0 <= float(kv["remainder_ratio_min"])
    assert float(kv["remainder_ratio_max"]) <= 10.0
    assert kv["pass"] == "True"


def test_hessian_check_explicit_tol(config_path, capsys):
    # an explicit tolerance is used as given, not replaced by the default 1e-4
    code, out, _ = run_cli(
        ["hessian-check", "--config", config_path, "--count", "3", "--tol", "1e-12"],
        capsys,
    )
    kv = parse_kv(out)
    assert float(kv["hessian_rel_error_re"]) > 1e-12
    assert kv["pass"] == "False"
    assert code == 1


def test_hessian_check_lambda_zero(tmp_path, capsys):
    path = tmp_path / "free.cfg"
    path.write_text(SMALL_CONFIG + "lambda = 0\n")
    code, out, _ = run_cli(["hessian-check", "--config", str(path)], capsys)
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["lambda0_identity_error"]) <= 1e-6


def test_gaussian(config_path, tmp_path, capsys):
    out_csv = str(tmp_path / "gauss.csv")
    code, out, _ = run_cli(
        ["gaussian", "--config", config_path, "--output", out_csv], capsys
    )
    assert code == 0
    kv = parse_kv(out)
    assert "log_z2" in kv and "eps_int2" in kv
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8  # all transfers except q = 0


def test_gaussian_lambda_zero(tmp_path, capsys):
    path = tmp_path / "free.cfg"
    path.write_text(SMALL_CONFIG + "lambda = 0\n")
    code, _, err = run_cli(["gaussian", "--config", str(path)], capsys)
    assert code == 2
    assert "free bubble" in err


def test_scan(config_path, tmp_path, capsys):
    out_csv = str(tmp_path / "scan.csv")
    code, out, _ = run_cli(
        [
            "scan",
            "--config",
            config_path,
            "--sweep",
            "lambda_factor=1.5:2.5:3",
            "--output",
            out_csv,
        ],
        capsys,
    )
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    r0s = [float(r["r0"]) for r in rows]
    assert r0s == sorted(r0s)  # gap grows with the coupling


def test_scan_requires_sweep(config_path, capsys):
    code, _, err = run_cli(["scan", "--config", config_path], capsys)
    assert code == 2
    assert "sweep" in err


def test_external(config_path, capsys):
    code, out, _ = run_cli(
        ["external", "--config", config_path, "--external", "1e-2,0.4"], capsys
    )
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["shift"]) > 0
    assert float(kv["y0"]) < 0


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("volume = 12\n")
    code, _, err = run_cli(["lattice-info", "--config", str(path)], capsys)
    assert code == 2
    assert "unknown key" in err


def test_bad_config_value(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("beta = warm\n")
    code, _, err = run_cli(["lattice-info", "--config", str(path)], capsys)
    assert code == 2


def test_missing_config_file(capsys):
    code, _, err = run_cli(["lattice-info", "--config", "/no/such/file.cfg"], capsys)
    assert code == 2


def test_bad_external(config_path, capsys):
    code, _, err = run_cli(
        ["gap", "--config", config_path, "--external", "nope"], capsys
    )
    assert code == 2


def test_bad_tol(config_path, capsys):
    code, _, err = run_cli(["gap", "--config", config_path, "--tol", "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("tol", ["0", "nan"])
@pytest.mark.parametrize("command", ["gap", "hessian-check", "external"])
def test_bad_tol_on_every_tol_command(config_path, capsys, command, tol):
    code, _, err = run_cli([command, "--config", config_path, "--tol", tol], capsys)
    assert code == 2
    assert "--tol must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--sweep", "lambda=1:2:3", "--orbits", "7"],
        ["lattice-info", "--seed", "1"],
        ["gap", "--count", "3"],
        ["eval", "--output", "v.csv"],
        ["verify-bound", "--tol", "1e-3"],
        ["expand", "--scale", "2"],
        ["hessian-check", "--external", "1e-2"],
        ["gaussian", "--seed", "1"],
        ["scan", "--orbits", "2"],
        ["external", "--include-zero-mode", "false"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[1]}",
)
def test_foreign_option_exits_2(argv, capsys):
    # each subcommand declares only the options it reads
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_argv_parse_and_run(tmp_path, monkeypatch, capsys):
    # every benchmark command line parses to the same options as before, with
    # nothing dropped, and runs on the small lattice
    w = load_workloads(monkeypatch)
    cfg, out = w.CONFIG, w.CSV_OUT
    expected = [
        (w.SETUP_ARGV, {"command": "lattice-info", "config": cfg}),
        (
            w.bound_argv(0),
            {"command": "verify-bound", "config": cfg, "seed": 0,
             "count": w.BOUND_COUNT, "scale": 1.0, "output": out},
        ),
        (
            w.hessian_argv(0),
            {"command": "hessian-check", "config": cfg, "seed": 0, "count": 10,
             "tol": w.HESSIAN_TOL, "orbits": 3},
        ),
        (
            w.gaussian_argv(0),
            {"command": "gaussian", "config": cfg, "include_zero_mode": True,
             "output": out},
        ),
    ]
    (tmp_path / cfg).write_text(SMALL_CONFIG)
    monkeypatch.chdir(tmp_path)
    for argv, want in expected:
        assert vars(cli.build_parser().parse_args(argv)) == want
        code, _, _ = run_cli(argv, capsys)
        assert code == 0


def test_subprocess_entry_point(config_path):
    # the child imports the package under test, also when pytest put it on the
    # path itself (pyproject's pythonpath) and PYTHONPATH is unset
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bcslab.cli", "lattice-info", "--config", config_path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "momenta 4" in proc.stdout
