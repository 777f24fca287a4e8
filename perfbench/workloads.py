"""Workloads of the benchmark: lattices, CLI arguments and output checks.

Each workload is one bcslab subcommand with every option and every
configuration key given explicitly, so a change of CLI defaults leaves the
amount of work unchanged.  Its checks compare the output with the CLI output
recorded in reference/ by record_reference.py, each quantity with its tier-1
tolerance.  A check list has the same length whatever the output, so a crash
counts every check of the run as failed.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

CONFIG = "bench.cfg"
CSV_OUT = "out.csv"

# verify-bound rows are recorded for seeds 0 .. BOUND_SEEDS - 1; a workload
# seed picks which BOUND_COUNT consecutive fields a run evaluates
BOUND_SEEDS = 999
BOUND_COUNT = 200

# tier-1 tolerances (tests/test_acceptance.py, tests/test_gaussian.py,
# tests/test_cli.py) for the quantities the checks compare
POTENTIAL_REL = 1e-10  # criterion 3: |x - ref| <= 1e-10 (1 + |ref|)
VMIN_REL = 1e-10  # criterion 2: Re V at the BCS field against v_min_sum
LOG_Z2_REL = 1e-12  # criterion 7: z2 spread <= 1e-12 max(1, |log z2|)
EPS_INT2_REL = 1e-10  # test_eps_int2_real_and_split
LAMBDA2_ZERO_REL = 1e-8  # test_lambda2_zero_moment
LAMBDA2_REL = 1e-12  # test_lambda2_formula, pytest.approx(rel=1e-12)
APPROX_ABS = 1e-12  # pytest.approx's absolute floor in those tests
HESSIAN_TOL = 1e-4  # criterion 4 and test_hessian_check
REMAINDER_RATIO = (6.0, 10.0)  # criterion 5 and test_hessian_check
LATTICE_REL = 1e-12  # lambda_c, lambda and kappa: no looser than the gap residual


@dataclass(frozen=True)
class Lattice:
    d: int
    L: int
    beta: float
    nu: float

    def config(self) -> str:
        """Every configuration key the CLI reads; none is left to a default."""
        return (
            f"d = {self.d}\nL = {self.L}\nbeta = {self.beta}\nnu = {self.nu}\n"
            "mu = 0\nt = 1\ndispersion = tight_binding\n"
            "energy_window = 1\nlambda_factor = 2\n"
        )


# "desk": the ROADMAP ladder's d=1 L=16 and d=2 L=8; "smoke": the tier-1
# small lattice, so a whole run takes seconds
LATTICES = {
    "desk": {1: Lattice(1, 16, 8.0, 20.0), 2: Lattice(2, 8, 8.0, 20.0)},
    "smoke": {1: Lattice(1, 4, 2.0, 4.0), 2: Lattice(2, 4, 2.0, 4.0)},
}


@dataclass
class Output:
    """What one child left behind: exit code (None if killed), stdout, CSV."""

    code: int | None
    stdout: str
    csv_text: str | None = None

    def values(self) -> dict:
        return parse_values(self.stdout)

    def rows(self) -> list:
        return [] if self.csv_text is None else list(csv.reader(io.StringIO(self.csv_text)))


def parse_values(text: str) -> dict:
    """The CLI's `key value` stdout lines as a dict of strings."""
    values = {}
    for line in text.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            values[parts[0]] = parts[1]
    return values


def number(values: dict, key: str) -> float:
    try:
        return float(values[key])
    except (KeyError, ValueError):
        return math.nan


def within(x: float, ref: float, tol: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= tol


def floats(cells) -> list | None:
    try:
        vals = [float(c) for c in cells]
    except ValueError:
        return None
    return vals if all(math.isfinite(v) for v in vals) else None


@dataclass
class Reference:
    """CLI outputs recorded at the commit that defined the benchmark."""

    scale: str
    _cache: dict = field(default_factory=dict)

    def values(self, name: str) -> dict:
        path = REFERENCE / self.scale / f"{name}.out"
        if path not in self._cache:
            self._cache[path] = parse_values(path.read_text())
        return self._cache[path]

    def rows(self, name: str) -> list:
        path = REFERENCE / self.scale / f"{name}.csv.gz"
        if path not in self._cache:
            with gzip.open(path, "rt") as fh:
                self._cache[path] = list(csv.reader(fh))
        return self._cache[path]


def gated(out: Output, checks: list) -> list:
    """Prepend the exit-code check; an unexpected exit fails every check."""
    if out.code != 0:
        return [False] * (len(checks) + 1)
    return [True] + checks


def check_setup(d: int, out: Output, ref: Reference) -> list:
    got, want = out.values(), ref.values(f"lattice-info-d{d}")
    checks = [got.get(k) == want[k] for k in ("momenta", "transfers", "nondegenerate")]
    for key in ("lambda_c", "lambda", "kappa"):
        w = number(want, key)
        checks.append(within(number(got, key), w, LATTICE_REL * abs(w)))
    return gated(out, checks)


def bound_start(seed: int) -> int:
    return seed % (BOUND_SEEDS - BOUND_COUNT + 1)


def bound_argv(seed: int) -> list:
    return [
        "verify-bound", "--config", CONFIG, "--count", str(BOUND_COUNT),
        "--scale", "1.0", "--seed", str(bound_start(seed)), "--output", CSV_OUT,
    ]


def check_bound(out: Output, ref: Reference, seed: int) -> list:
    start = bound_start(seed)
    labels = ["bcs"] + [str(s) for s in range(start, start + BOUND_COUNT)]
    got = out.values()
    rows = out.rows()
    by_label = {r[0]: r for r in rows[1:] if len(r) == 5}
    want = {r[0]: r for r in ref.rows("verify-bound-d1")[1:]}
    checks = [
        got.get("configurations") == str(len(labels)),
        got.get("all_chains_ok") == "True",
        rows[:1] == [["seed", "re_v", "rhs26", "vbcs_norm", "chain_ok"]],
        [r[0] for r in rows[1:]] == labels,
    ]
    for label in labels:
        row = by_label.get(label)
        vals = floats(row[1:4]) if row else None
        ref_v, ref_rhs = float(want[label][1]), float(want[label][2])
        checks += [
            vals is not None,
            row is not None and row[4] == "1",
            vals is not None and within(vals[0], ref_v, POTENTIAL_REL * (1.0 + abs(ref_v))),
            vals is not None and within(vals[1], ref_rhs, POTENTIAL_REL * (1.0 + abs(ref_rhs))),
        ]
    # the BCS field's Re V is the gap solver's minimum, whatever the seed
    v_min = number(ref.values("gap-d1"), "v_min_sum")
    bcs = floats(by_label["bcs"][1:2]) if "bcs" in by_label else None
    checks.append(bcs is not None and within(bcs[0], v_min, VMIN_REL * abs(v_min)))
    return gated(out, checks)


def hessian_argv(seed: int) -> list:
    return [
        "hessian-check", "--config", CONFIG, "--orbits", "3", "--count", "10",
        "--tol", str(HESSIAN_TOL), "--seed", str(seed),
    ]


def check_hessian(out: Output, ref: Reference, seed: int) -> list:
    got = out.values()
    lo, hi = REMAINDER_RATIO
    checks = [
        got.get("pass") == "True",
        number(got, "hessian_rel_error_re") <= HESSIAN_TOL,
        number(got, "hessian_rel_error_im") <= HESSIAN_TOL,
        lo <= number(got, "remainder_ratio_min") <= hi,
        lo <= number(got, "remainder_ratio_max") <= hi,
    ]
    return gated(out, checks)


def gaussian_argv(seed: int) -> list:
    # no random field: the seed does not enter
    return ["gaussian", "--config", CONFIG, "--include-zero-mode", "true", "--output", CSV_OUT]


def check_gaussian(out: Output, ref: Reference, seed: int) -> list:
    got, want = out.values(), ref.values("gaussian-d2")
    rows, want_rows = out.rows(), ref.rows("gaussian-d2")
    n_q = int(ref.values("lattice-info-d2")["transfers"])
    log_z2, eps, zero = (number(want, k) for k in ("log_z2", "eps_int2", "lambda2_zero"))
    checks = [
        within(number(got, "log_z2"), log_z2, LOG_Z2_REL * max(1.0, abs(log_z2))),
        within(number(got, "eps_int2"), eps, max(EPS_INT2_REL * abs(eps), APPROX_ABS)),
        within(number(got, "lambda2_zero"), zero, max(LAMBDA2_ZERO_REL * abs(zero), APPROX_ABS)),
        got.get("zero_mode") == want["zero_mode"],
        rows[:1] == [["q", "re_lambda2", "im_lambda2"]],
        len(rows) == n_q,  # a header and a row per q != 0
    ]
    for i, w in enumerate(want_rows[1:], 1):
        row = rows[i] if i < len(rows) else None
        vals = floats(row[1:3]) if row is not None and len(row) == 3 else None
        ok = vals is not None and row[0] == w[0]
        if ok:
            ref_l2 = complex(float(w[1]), float(w[2]))
            ok = abs(complex(*vals) - ref_l2) <= max(LAMBDA2_REL * abs(ref_l2), APPROX_ABS)
        checks.append(ok)
    return gated(out, checks)


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    argv: Callable[[int], list]
    check: Callable[[Output, Reference, int], list]


SETUP_ARGV = ["lattice-info", "--config", CONFIG]

WORKLOADS = {
    w.name: w
    for w in (
        Workload("bound-d1", 1, bound_argv, check_bound),
        Workload("hessian-d1", 1, hessian_argv, check_hessian),
        Workload("gaussian-d2", 2, gaussian_argv, check_gaussian),
    )
}
