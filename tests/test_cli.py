"""Command-line driver: subcommands, CSV output and exit codes."""

import concurrent.futures
import csv
import dataclasses
import importlib.util
import io
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import bcslab as bl
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


DESK_CONFIG = """
d = 1
L = 16
beta = 8
nu = 20
lambda_factor = 2.0
"""


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The max_workers of every thread pool started while the test runs."""
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes


def bound_run(config, tmp_path, capsys, *argv):
    """verify-bound's exit code, stdout and CSV bytes."""
    out_csv = tmp_path / "bound.csv"
    code, out, _ = run_cli(
        ["verify-bound", "--config", config, "--output", str(out_csv), *argv], capsys
    )
    return code, out, out_csv.read_bytes()


@pytest.mark.parametrize("lattice, count", [("small", 20), ("desk", 8)])
def test_verify_bound_same_output_on_any_core_count(
    lattice, count, tmp_path, monkeypatch, capsys, pool_sizes
):
    # one worker per usable core, each field drawn and evaluated on its own:
    # one core and three give the same stdout and CSV, byte for byte
    config = tmp_path / "lattice.cfg"
    config.write_text(SMALL_CONFIG if lattice == "small" else DESK_CONFIG)
    runs = []
    for cores in (1, 3):
        monkeypatch.setattr(cli, "usable_cores", lambda cores=cores: cores)
        runs.append(bound_run(str(config), tmp_path, capsys, "--count", str(count)))
    assert pool_sizes == [1, 3]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and f"configurations {count + 1}\n" in runs[0][1]


def test_verify_bound_workers_fit_memory(config_path, tmp_path, monkeypatch, capsys, pool_sizes):
    # physical memory for one worker's matrices, not two: one worker runs,
    # with the output of three
    monkeypatch.setattr(cli, "usable_cores", lambda: 3)
    wide = bound_run(config_path, tmp_path, capsys)
    Q = cli.build_transfer_set(cli.build_spec(cli.parse_config(config_path))[1])
    each = cli.worker_bytes("verify-bound", Q)
    monkeypatch.setattr(cli, "physical_memory", lambda: 2 * each - 1)
    narrow = bound_run(config_path, tmp_path, capsys)
    assert pool_sizes == [3, 1]
    assert narrow == wide and wide[0] == 0
    monkeypatch.setattr(cli, "physical_memory", lambda: 2 * each)
    assert cli.dense_preflight("verify-bound", Q, 3) == 2


def test_verify_bound_field_error_exits_2(config_path, monkeypatch, capsys, pool_sizes):
    # the --scale error of a later field exits 2 with nothing on stdout, and
    # the fields still queued are dropped, not evaluated
    scaled, report, evaluated = cli._scaled_field, cli.bound_report, []

    def field(spec, M, Q, scale, seed, **kwargs):
        return scaled(spec, M, Q, 1e300 if seed == 3 else scale, seed, **kwargs)

    def slow_report(spec, M, phi):
        evaluated.append(phi)
        time.sleep(0.005)
        return report(spec, M, phi)

    monkeypatch.setattr(cli, "_scaled_field", field)
    monkeypatch.setattr(cli, "bound_report", slow_report)
    monkeypatch.setattr(cli, "usable_cores", lambda: 2)
    code, out, err = run_cli(
        ["verify-bound", "--config", config_path, "--output", "-"], capsys
    )
    assert pool_sizes == [2]
    assert (code, out) == (2, "")
    assert err == "error: --scale must be small enough for finite matrices, not 1e+300\n"
    assert len(evaluated) < 100  # of 200 fields


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


@pytest.mark.parametrize("command", ["gaussian", "hessian-check"])
def test_trivial_phase_exits_2(tmp_path, capsys, command):
    # 0 < lambda <= lambda_c: r0 = 0, where the Gaussian radial mode is flat
    # and the analytic Hessian's zero-mode block does not hold.  lambda =
    # lambda_c is refused too, whichever way the gap equation at Delta = 0
    # rounds there (below 1 on desk, at or above 1 on small), and the
    # message must not read "1 < 1"
    path = tmp_path / "trivial.cfg"
    for config, reads in [
        (SMALL_CONFIG + "lambda_factor = 0.5\n", "0.5 < 1"),
        (DESK_CONFIG + "lambda_factor = 1\n", "1 <= 1"),
        (SMALL_CONFIG + "lambda_factor = 1\n", "1 <= 1"),
    ]:
        path.write_text(config)
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: lambda/lambda_c = {reads}, so r0 = 0: ")
        assert err.count("\n") == 1


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


BAD_SWEEP = [
    ("lambda=1:2", "bad --sweep value"),
    ("mu=0:1:2", "cannot sweep key"),
    ("lambda=1:2:0", "sweep grid is empty"),
    # non-finite endpoints, which the config file rejects too
    ("beta=inf:inf:1", "bad --sweep value"),
    ("lambda=nan:1:2", "bad --sweep value"),
    ("L=4:-inf:3", "bad --sweep value"),
]


@pytest.mark.parametrize("sweep, message", BAD_SWEEP, ids=[s for s, _ in BAD_SWEEP])
def test_bad_sweep(config_path, capsys, sweep, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may leak either
        code, out, err = run_cli(["scan", "--config", config_path, "--sweep", sweep], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# the subcommands that write a CSV, with what else each needs to run
CSV_COMMANDS = {
    "verify-bound": ["--count", "1"],
    "expand": [],
    "gaussian": [],
    "scan": ["--sweep", "lambda_factor=2:2:1"],
}


@pytest.mark.parametrize("kind", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", list(CSV_COMMANDS))
def test_unwritable_output_exits_2(config_path, tmp_path, monkeypatch, capsys, command, kind):
    path = tmp_path / "missing" / "out.csv" if kind == "missing-directory" else tmp_path
    monkeypatch.setattr(cli, "build_spec", None)  # refused before any lattice work
    argv = [command, "--config", config_path, "--output", str(path)]
    code, out, err = run_cli(argv + CSV_COMMANDS[command], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --output {path}: ")
    assert err.count("\n") == 1


def test_external_default(config_path, capsys):
    # the default field is declared, so --help shows it, and it is the one used
    with pytest.raises(SystemExit):
        cli.main(["external", "--help"])
    assert "(default 1e-2)" in capsys.readouterr().out
    runs = [
        run_cli(["external", "--config", config_path] + extra, capsys)
        for extra in ([], ["--external", "1e-2"])
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_external(config_path, capsys):
    code, out, _ = run_cli(
        ["external", "--config", config_path, "--external", "1e-2,0.4"], capsys
    )
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["shift"]) > 0
    assert float(kv["y0"]) < 0


# stdout of both external-field commands on the small lattice, to 17 digits:
# a change in the order of any |r|/g formula shows here
EXTERNAL_STDOUT = {
    "gap": """y0 -0.50317309403053601
r0 0.50317309403053601
delta_sq 2.4988176554470116
residual 8.2143146451496563e-13
v_min_sum -0.79805334275130013
v_min_cosh -1.7165037990854892
trivial False
lambda_over_lambda_c 2
""",
    "external": """y0 -0.50317309403053601
delta_sq 2.4988176554470116
residual 8.2143146451496563e-13
v_min -0.79805334275130013
beta0 0.49997999053676273
shift 0.0063260514117329464
""",
}


@pytest.mark.parametrize("command", ["gap", "external"])
def test_external_stdout_pinned(config_path, capsys, command):
    argv = [command, "--config", config_path, "--external", "1e-2,0.4"]
    assert run_cli(argv, capsys) == (0, EXTERNAL_STDOUT[command], "")


@pytest.mark.parametrize("argv", [["gap", "--external", "1e-2"], ["external"]], ids="".join)
def test_external_lambda_zero_exits_2(free_config, monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "solve_gap_external", None)  # refused before any solve
    code, out, err = run_cli(argv + ["--config", free_config], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --external needs lambda > 0") and err.count("\n") == 1


def test_external_overflow_exits_2(config_path):
    # E_k^2 E_p^2 overflows once lam y0^2 passes ~1e154: one line naming
    # --external, not numpy's overflow warning and an underflowed beta0 of 0
    proc = run_child(
        ["-m", "bcslab.cli", "external", "--config", config_path, "--external", "1e100"]
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --external") and proc.stderr.count("\n") == 1
    assert "RuntimeWarning" not in proc.stderr


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("volume = 12\n")
    code, _, err = run_cli(["lattice-info", "--config", str(path)], capsys)
    assert code == 2
    assert "unknown key" in err


def test_config_keys_are_model_spec_fields(tmp_path):
    # the config file's keys are ModelSpec's fields, lam given as lambda or
    # lambda_factor, so a setting is declared once and passed through
    names = [f.name for f in dataclasses.fields(bl.ModelSpec)]
    assert set(cli.CONFIG_KEYS) == set(names) - {"lam"} | {"lambda", "lambda_factor"}
    types = {"d": int, "dispersion": str}
    assert cli.CONFIG_KEYS == {key: types.get(key, float) for key in cli.CONFIG_KEYS}
    path = tmp_path / "every.cfg"
    path.write_text(
        "d = 2\nL = 6\nbeta = 3\nnu = 5\nmu = 0.1\ndispersion = quadratic\nt = 0.5\n"
        "energy_window = 3\nlambda = 1.5\nlambda_factor = 3\n"
    )
    spec, _, _ = cli.build_spec(cli.parse_config(str(path)))
    assert spec == bl.ModelSpec(d=2, L=6.0, beta=3.0, nu=5.0, mu=0.1, dispersion="quadratic",
                                t=0.5, lam=1.5, energy_window=3.0)


BAD_CONFIG_LINES = [
    ("beta = warm", "bad value for 'beta'"),
    # non-finite numbers, whatever the key
    ("L = inf", "bad value for 'L'"),
    ("nu = inf", "bad value for 'nu'"),
    ("lambda = nan", "bad value for 'lambda'"),
    ("lambda = inf", "bad value for 'lambda'"),
    ("lambda_factor = inf", "bad value for 'lambda_factor'"),
    ("beta = nan", "bad value for 'beta'"),
    ("mu = nan", "bad value for 'mu'"),
    ("t = nan", "bad value for 't'"),
    ("dispersion = cubic", "unknown dispersion kind 'cubic'"),
    # finite but too strong: the gap solver cannot bracket the root
    ("lambda = 1e300", "could not bracket the gap equation"),
    ("lambda_factor = 1e200", "could not bracket the gap equation"),
]


@pytest.mark.parametrize(
    "line, message", BAD_CONFIG_LINES, ids=[line.replace(" ", "") for line, _ in BAD_CONFIG_LINES]
)
def test_bad_config_value(tmp_path, capsys, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CONFIG + line + "\n")
    code, out, err = run_cli(["gap", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_non_integer_L_exits_2(tmp_path, config_path, capsys):
    # tight_binding's L counts sites: a fractional L, from the config file or
    # from a point of an L sweep (5.5 here), is refused before any output
    path = tmp_path / "half.cfg"
    path.write_text("d = 1\nL = 7.5\nbeta = 2\nnu = 4\n")
    for argv in (["lattice-info", "--config", str(path)],
                 ["scan", "--config", config_path, "--sweep", "L=4:7:3",
                  "--output", str(tmp_path / "scan.csv")]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: L must be an integer") and err.count("\n") == 1
    assert (tmp_path / "scan.csv").read_text() == ""  # created by the --output probe alone


def test_missing_config_file(capsys):
    code, _, err = run_cli(["lattice-info", "--config", "/no/such/file.cfg"], capsys)
    assert code == 2


BAD_EXTERNAL = [
    (["gap", "--external", "nope"], "bad --external value"),
    (["gap", "--external", "inf"], "magnitude must be positive and finite"),
    (["gap", "--external", "nan"], "magnitude must be positive and finite"),
    (["external", "--external", "inf,0.4"], "magnitude must be positive and finite"),
    (["gap", "--external", "1e-2,nan"], "phase must be finite"),
    (["external", "--external", "1e-2,inf"], "phase must be finite"),
    # one comma: all after it is the phase
    (["gap", "--external", "1e-2,0.4,junk"], "bad --external value"),
    (["external", "--external", "1e-2,0.4,junk"], "bad --external value"),
    (["gap", "--external", "1e-2,"], "bad --external value"),
    # finite, but the minimizer's y^2 overflows
    (["gap", "--external", "1e300"], "too large"),
    (["external", "--external", "1e300"], "too large"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_EXTERNAL, ids=["".join(argv) for argv, _ in BAD_EXTERNAL]
)
def test_bad_external(config_path, capsys, argv, message):
    code, out, err = run_cli(argv + ["--config", config_path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("Yes", True), ("TRUE", True), ("0", False), ("No", False), ("False", False)],
)
def test_include_zero_mode_spellings(value, expected):
    args = cli.build_parser().parse_args(["gaussian", "--include-zero-mode", value])
    assert args.include_zero_mode is expected


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
        ["hessian-check", "--count", "0"],
        ["verify-bound", "--count", "0"],
        ["verify-bound", "--count", "-3"],
        ["hessian-check", "--orbits", "0"],
        ["eval", "--seed", "-1"],
        ["verify-bound", "--seed", "-1"],
        ["hessian-check", "--seed", "-1"],
        ["eval", "--scale", "-1"],
        ["eval", "--scale", "nan"],
        ["eval", "--scale", "inf"],
        ["verify-bound", "--scale", "-0.5"],
        ["verify-bound", "--scale", "nan"],
        ["verify-bound", "--scale=-inf"],
        # finite, but the matrices of the field overflow
        ["eval", "--scale", "1e200"],
        ["verify-bound", "--scale", "1e200"],
        # the matrices stay finite, the Hadamard side's squares of
        # (lambda/kappa) A(q), |A(q)| up to sum |phi_q|^2, do not
        ["verify-bound", "--scale", "1e100"],
        # spellings that once silently meant false
        ["gaussian", "--include-zero-mode", "maybe"],
        ["scan", "--include-zero-mode", "ture"],
        ["gaussian", "--include-zero-mode", ""],
    ],
    ids=lambda argv: "".join(argv),
)
def test_bad_count_orbits_seed_scale(config_path, capsys, argv):
    # rejected before any work, with one line naming the option
    code, out, err = run_cli(argv + ["--config", config_path], capsys)
    opt = argv[1].split("=")[0]
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {opt} must be ") and err.count("\n") == 1


def test_scale_ranges(config_path, tmp_path, capsys):
    # verify-bound's --scale guard covers the Hadamard side as well, whose
    # overlaps square (lambda/kappa) A(q), but stops short of refusing a
    # field that runs: 1e70 still gives finite rows.  eval builds no overlaps
    # and keeps the range its matrices allow
    out_csv = str(tmp_path / "bound.csv")
    code, _, _ = run_cli(
        ["verify-bound", "--config", config_path, "--count", "1", "--scale", "1e70",
         "--output", out_csv],
        capsys,
    )
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["bcs", "0"]
    assert all(np.isfinite(float(r[k])) for r in rows for k in ("re_v", "rhs26", "vbcs_norm"))
    code, _, _ = run_cli(["eval", "--config", config_path, "--scale", "1e100"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["hessian-check", "--count", "1", "--orbits", "1", "--seed", "0"],
        ["verify-bound", "--count", "1", "--seed", "0", "--output", "-"],
        ["eval", "--scale", "0", "--seed", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_smallest_valid_values_run(config_path, capsys, argv):
    code, _, _ = run_cli(argv + ["--config", config_path], capsys)
    assert code == 0


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


def run_child(args):
    """Run python with `args` in a fresh process that imports the package under
    test, also when pytest put it on the path itself (pyproject's pythonpath)
    and PYTHONPATH is unset."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable] + args,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_subprocess_entry_point(config_path):
    proc = run_child(["-m", "bcslab.cli", "lattice-info", "--config", config_path])
    assert proc.returncode == 0
    assert "momenta 4" in proc.stdout


def test_hessian_check_orbits_bound(config_path, capsys):
    # the small lattice has |Q| = 9 transfers: (9 - 1) / 2 = 4 {q, -q} orbits
    code, out, _ = run_cli(
        ["hessian-check", "--config", config_path, "--count", "1", "--orbits", "4"],
        capsys,
    )
    assert code == 0 and parse_kv(out)["pass"] == "True"
    code, out, err = run_cli(
        ["hessian-check", "--config", config_path, "--orbits", "5"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --orbits must be at most 4") and err.count("\n") == 1


@pytest.mark.parametrize("lattice", ["desk", "d2-L4"])
def test_hessian_coords_break_ties_by_index(request, lattice):
    # q and -q always tie in |q|, and so do permuted spatial vectors: the
    # orbits taken must not depend on which sort kernel numpy dispatches to
    if lattice == "desk":
        Q = request.getfixturevalue("desk_Q")
    else:
        spec = bl.ModelSpec(d=2, L=4.0, beta=2.0, nu=4.0, lam=1.0)
        Q = bl.build_transfer_set(bl.build_momentum_set(spec))
    every = (len(Q) - 1) // 2
    for k in [*range(1, 7), every]:
        coords, seen = [2 * Q.zero_index, 2 * Q.zero_index + 1], {Q.zero_index}
        for i in sorted(range(len(Q)), key=lambda i: (Q.qnorm[i], i)):
            if i not in seen and len(seen) < 1 + 2 * k:
                j = int(Q.neg_index[i])
                seen.update((i, j))
                coords += [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
        assert cli._hessian_coords(Q, k).tolist() == coords, k
    # every orbit: each of the 2|Q| real coordinates exactly once
    assert sorted(coords) == list(range(2 * len(Q)))


def test_hessian_check_d2_remainder_passes(tmp_path, capsys):
    # the reduced route keeps Im V on one branch: with the full route one of
    # these ten remainder ratios read 1.02e8 and the check failed
    path = tmp_path / "d2.cfg"
    path.write_text("d = 2\nL = 4\nbeta = 2\nnu = 4\nlambda_factor = 2\n")
    code, out, _ = run_cli(
        ["hessian-check", "--config", str(path), "--orbits", "3", "--count", "10",
         "--seed", "0"],
        capsys,
    )
    kv = parse_kv(out)
    assert 6.0 <= float(kv["remainder_ratio_min"])
    assert float(kv["remainder_ratio_max"]) <= 10.0
    assert kv["pass"] == "True"
    assert code == 0


@pytest.mark.parametrize("factor", ["300", "1e3"])
def test_hessian_check_large_coupling_branch(tmp_path, capsys, factor):
    # at lambda >= 300 lambda_c one direction's Im V steps by -2 pi at the
    # probe's t: without remainder's branch rule its ratio read 1.55e9 (300)
    # and 1.37e9 (1e3), and the check exited 1
    path = tmp_path / "desk.cfg"
    path.write_text(DESK_CONFIG + f"lambda_factor = {factor}\n")
    code, out, _ = run_cli(["hessian-check", "--config", str(path), "--seed", "0"], capsys)
    kv = parse_kv(out)
    assert float(kv["remainder_ratio_max"]) <= 10.0
    assert kv["pass"] == "True"
    assert code == 0


def test_hessian_check_away_from_half_filling(tmp_path, capsys):
    # at mu = 0 gamma_q vanishes, so the imaginary Hessians compare zeros; at
    # mu = 0.3 the (+-1, 0) frequency transfers give the compared block
    # imaginary entries of ~0.18, which the finite differences must match
    path = tmp_path / "mu.cfg"
    path.write_text("d = 2\nL = 4\nbeta = 2\nnu = 4\nmu = 0.3\nlambda_factor = 2\n")
    code, out, _ = run_cli(
        ["hessian-check", "--config", str(path), "--orbits", "3", "--count", "3",
         "--seed", "0"],
        capsys,
    )
    assert parse_kv(out)["pass"] == "True"
    assert code == 0
    spec, M, _ = cli.build_spec(cli.parse_config(str(path)))
    Q = bl.build_transfer_set(M)
    qf = bl.coefficients(spec, M, Q, bl.solve_gap(spec, M).r0, 0.0)
    _, him = bl.analytic_hessian(spec, qf, coords=cli._hessian_coords(Q, 3))
    assert np.max(np.abs(him)) > 0.1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: bound_report's fixed slack "
                   "of 1e-9 kappa is below one rounding of Re V at large fields")
def test_verify_bound_large_field_chain(config_path, tmp_path, capsys):
    # seed 0 gives re_v 4.3938585973106797e+17 one rounding below rhs26
    # 4.3938585973106803e+17, so the chain's verdict is decided by rounding
    code, out, _ = run_cli(
        ["verify-bound", "--config", config_path, "--count", "3",
         "--scale", "177827941.00389227", "--output", str(tmp_path / "bound.csv")],
        capsys,
    )
    assert "all_chains_ok True" in out.splitlines()
    assert code == 0


@pytest.fixture()
def free_config(tmp_path):
    path = tmp_path / "free.cfg"
    path.write_text(SMALL_CONFIG + "lambda = 0\n")
    return str(path)


def _fake_fd_hessian(monkeypatch, err):
    """Replace the FD Hessian by 2 Id + err, recording the coords it is asked for."""
    seen = []

    def fake(spec, M, base, h, coords=None):
        seen.append(list(coords))
        return 2.0 * np.eye(len(coords)) + err, np.zeros((len(coords), len(coords)))

    monkeypatch.setattr(cli, "fd_hessian", fake)
    return seen


@pytest.mark.parametrize("orbits", [1, 3])
def test_hessian_check_lambda_zero_uses_orbits(free_config, monkeypatch, capsys, orbits):
    seen = _fake_fd_hessian(monkeypatch, 0.0)
    code, out, _ = run_cli(
        ["hessian-check", "--config", free_config, "--orbits", str(orbits)], capsys
    )
    assert code == 0
    Q = cli.build_transfer_set(cli.build_spec(cli.parse_config(free_config))[1])
    assert seen == [cli._hessian_coords(Q, orbits).tolist()]
    assert len(seen[0]) == 2 + 4 * orbits


@pytest.mark.parametrize(
    "err, argv, code",
    [
        (5e-7, [], 0),
        (5e-7, ["--tol", "1e-7"], 1),  # --tol tightens the bound
        (5e-6, ["--tol", "1e-3"], 1),  # but never loosens 1e-6
        (5e-6, [], 1),
    ],
)
def test_hessian_check_lambda_zero_tol(free_config, monkeypatch, capsys, err, argv, code):
    _fake_fd_hessian(monkeypatch, err)
    got, out, _ = run_cli(["hessian-check", "--config", free_config] + argv, capsys)
    assert float(parse_kv(out)["lambda0_identity_error"]) == pytest.approx(err, rel=1e-6)
    assert got == code


def test_import_skips_scipy_optimize(config_path):
    # nothing needs scipy.optimize, scipy.sparse or scipy.linalg: every LU
    # comes from scipy's LAPACK extension, loaded from its file without
    # scipy.linalg's package init, so no subcommand imports scipy.linalg
    script = (
        "import contextlib, os, sys, bcslab.cli\n"
        "def has(name): return name in sys.modules\n"
        "print(has('scipy.optimize'), has('scipy.sparse'), has('scipy.linalg'))\n"
        "with contextlib.redirect_stdout(open(os.devnull, 'w')):\n"
        f"    bcslab.cli.main(['lattice-info', '--config', {config_path!r}])\n"
        f"    bcslab.cli.main(['gaussian', '--config', {config_path!r}, '--output', os.devnull])\n"
        "print(has('scipy.linalg'))\n"
        f"bcslab.cli.main(['verify-bound', '--config', {config_path!r}, '--count', '2',"
        " '--output', os.devnull])\n"
        "print(has('scipy.linalg'))\n"
        "with contextlib.redirect_stdout(open(os.devnull, 'w')):\n"
        f"    ev = bcslab.cli.main(['eval', '--config', {config_path!r}])\n"
        f"    hessian = bcslab.cli.main(['hessian-check', '--config', {config_path!r}])\n"
        "print(ev, hessian, has('scipy.sparse'), has('scipy.linalg'))\n"
        "with contextlib.redirect_stdout(open(os.devnull, 'w')):\n"
        f"    ext = bcslab.cli.main(['external', '--config', {config_path!r}])\n"
        f"    gap = bcslab.cli.main(['gap', '--config', {config_path!r}, '--external', '1e-2'])\n"
        "print(ext, gap, has('scipy.optimize'), has('scipy.linalg'))\n"
    )
    proc = run_child(["-c", script])
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines == [
        "False False False", "False", "configurations 3", "all_chains_ok True", "False",
        "0 0 False False",
        "0 0 False False",
    ]


def test_lapack_handle_with_scipy_linalg_either_side():
    # scipy's LAPACK extension initialised by the package alone, then by
    # scipy.linalg as well (or the other way round) gives the same values
    script = (
        "import hashlib, sys, numpy as np\n"
        "if sys.argv[1] == 'before': import scipy.linalg\n"
        "import bcslab as bl\n"
        "rng = np.random.default_rng(3)\n"
        "A = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))\n"
        "ab = np.zeros((7, 50), dtype=complex, order='F')\n"
        "ab[4] = 1.0 + rng.random(50)\n"
        "ab[3, 1:] = ab[5, :-1] = rng.standard_normal(49) + 0.5j\n"
        "first = (bl.logdet(A), bl.logdet(bl.Banded(ab, 2, 2)))\n"
        "import scipy.linalg\n"
        "again = (bl.logdet(A), bl.logdet(bl.Banded(ab, 2, 2)))\n"
        "print(first == again, repr(first))\n"
        "print(hashlib.sha256(scipy.linalg.lapack.zgetrf(A)[0].tobytes()).hexdigest())\n"
    )
    before, after = (run_child(["-c", script, order]) for order in ("before", "after"))
    assert before.returncode == after.returncode == 0, before.stderr + after.stderr
    assert before.stdout.startswith("True ")
    assert before.stdout == after.stdout


@pytest.mark.parametrize("command", ["eval", "verify-bound", "hessian-check"])
def test_dense_preflight_exits_2(config_path, monkeypatch, capsys, command):
    # the small lattice has N = 4 momenta; physical memory one byte short of
    # one worker's count
    Q = cli.build_transfer_set(cli.build_spec(cli.parse_config(config_path))[1])
    need = cli.worker_bytes(command, Q)
    monkeypatch.setattr(cli, "physical_memory", lambda: need - 1)
    # no field is drawn and no gap solved after the preflight: no matrix gets built
    monkeypatch.setattr(cli, "random_config", None)
    monkeypatch.setattr(cli, "solve_gap", None)
    code, out, err = run_cli([command, "--config", config_path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {command} on N = 4 momenta needs ")
    assert err.count("\n") == 1
    monkeypatch.setattr(cli, "physical_memory", lambda: need)
    assert cli.dense_preflight(command, Q) == 1  # an estimate that fits passes


# inputs whose arrays fit in no machine's memory: the extra config lines or
# flags on the small lattice, and the start of the refusal's one stderr line
OVERSIZED = {
    "frequencies": ("lattice-info", "nu = 1e15\n", [], "error: nu = 1e+15 at beta = 2 gives "),
    "grid": ("lattice-info", "d = 3\nL = 2000\n", [], "error: L = 2000 at d = 3 gives "),
    "count": ("verify-bound", "", ["--count", "10000000000000"],
              "error: --count 10000000000000 queues "),
    "sweep": ("scan", "", ["--sweep", "lambda_factor=1:2:100000000000000"],
              "error: --sweep lambda_factor=1:2:100000000000000 gives "),
}


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_input_exits_2(tmp_path, case):
    # refused before anything is allocated, so within 2 s; the child's address
    # space is capped at 4 GB, so an allocation that gets through fails there
    # rather than fill the host's memory
    command, lines, flags, message = OVERSIZED[case]
    path = tmp_path / "oversized.cfg"
    path.write_text(SMALL_CONFIG + lines)
    script = (
        "import resource, sys, time\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, hard))\n"
        "from bcslab import cli\n"
        "start = time.monotonic()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, time.monotonic() - start)\n"
    )
    proc = run_child(["-W", "error", "-c", script, command, "--config", str(path)] + flags)
    assert proc.returncode == 0, proc.stderr
    code, seconds = proc.stdout.split()
    assert code == "2" and float(seconds) < 2.0
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
    assert "GiB, more than the " in proc.stderr


def test_first_bound_report_fits_worker_bytes(tmp_path):
    # a worker's first field on a fresh lattice builds the two scratch
    # buffers, and at d = 3 L = 4 (N = 1600) the Hadamard side's FFT box
    # (198 x 18^3) outweighs reduced_matrix's N^2/4 block: its traced peak
    # stays within the preflight's count, whose FFT box is built beforehand
    path = tmp_path / "d3.cfg"
    path.write_text("d = 3\nL = 4\nbeta = 8\nnu = 20\nlambda_factor = 2\n")
    spec, M, _ = cli.build_spec(cli.parse_config(str(path)))
    Q = cli.build_transfer_set(M)
    each = cli.worker_bytes("verify-bound", Q)
    phi = cli.random_config(spec, Q, 1.0, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli.bound_report(spec, M, phi)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= each
