"""Benchmark of the bcslab command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload bound-d1 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout.  For --seconds it repeats a cycle of
fresh processes: `lattice-info` (the set-up) and the workload subcommand.
With --trace 1 the set-up and one workload process per cycle are traced, and
one untraced workload process per cycle is the base of the tracing overhead.
Every process's output is checked.  The last line of stdout is one JSON
object: correct, attempted and failed (output checks) and the metrics named
in BENCHMARK.json.  NOTES.md says why the workloads and metrics were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Summary, percentile_ms
from workloads import (
    CONFIG, CSV_OUT, LATTICES, SETUP_ARGV, WORKLOADS, Lattice, Output, Reference,
    check_setup,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS = "spans.npz"

# BLAS threads are pinned in the children only: with the default two threads
# on two cores the workloads are not steady within a tenth
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# children still running this long (per workload) after the run started are
# killed, so a run ends within 180 s
RUN_LIMIT_S = 170.0


@dataclass
class Child:
    out: Output
    wall_s: float
    usage: resource.struct_rusage
    spans: Summary | None


class Runner:
    """Runs one child per call, each in a fresh working directory."""

    def __init__(self, lattice: Lattice, deadline: float):
        self.config = lattice.config()
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONHASHSEED"] = "0"  # the same set and dict order every run
        SCRATCH.mkdir(exist_ok=True)

    def run(self, argv: list, traced: bool = False) -> Child:
        workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
        try:
            (workdir / CONFIG).write_text(self.config)
            cmd = [sys.executable, str(CHILD)] + (["--spans", SPANS] if traced else []) + argv
            env = dict(self.env, TMPDIR=str(workdir))
            with open(workdir / "stdout", "wb") as stdout, open(workdir / "stderr", "wb") as stderr:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=stdout, stderr=stderr)
                # os.wait4 gives this child's own rusage; RUSAGE_CHILDREN
                # would report the largest peak of every child reaped so far
                killer = threading.Timer(
                    max(self.deadline - start, 0.0), os.kill, (proc.pid, signal.SIGKILL)
                )
                killer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    killer.cancel()
                wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                tail = (workdir / "stderr").read_text(errors="replace")[-2000:]
                print(f"child {argv[0]} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
            csv_path = workdir / CSV_OUT
            out = Output(
                code=proc.returncode if proc.returncode >= 0 else None,
                stdout=(workdir / "stdout").read_text(errors="replace"),
                csv_text=csv_path.read_text() if csv_path.exists() else None,
            )
            spans = Summary(workdir / SPANS) if traced and (workdir / SPANS).exists() else None
            return Child(out, wall_s, usage, spans)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def self_s(fn):
    return (fn,), lambda s: s.self_s(fn)


def total_s(fn):
    return (fn,), lambda s: s.total_s(fn)


def calls(fn):
    return (fn,), lambda s: float(s.calls(fn))


def pct_ms(fn, pct):
    return (fn,), lambda s: percentile_ms(s.durations(fn), pct)


def lu_gflop(s: Summary) -> float:
    """LU flops at 8/3 n^3 per complex factorization of the orders logdet saw."""
    n = s.extras("potential.logdet")
    return float(np.nansum(8.0 / 3.0 * n**3)) / 1e9


def lu_gflops(s: Summary) -> float:
    busy = s.self_s("potential.logdet")
    return lu_gflop(s) / busy if busy > 0 else 0.0


def analytic_hessian_mb(s: Summary) -> float:
    nbytes = s.extras("expansion.analytic_hessian")
    return float(np.nanmax(nbytes)) / 1e6 if len(nbytes) else 0.0


LAYERS = ("model", "potential", "gap", "bound", "expansion", "gaussian", "cli")

# per-layer metric -> (functions it reads, value from one traced process)
WORKLOAD_TRACE = {
    **{f"layer.{m}_s": ((), lambda s, m=m: s.layer_self_s(m)) for m in LAYERS},
    "model.build_transfer_set_s": self_s("model.build_transfer_set"),
    "model.autocorrelation_all_s": self_s("model.autocorrelation_all"),
    "potential.logdet_s": self_s("potential.logdet"),
    "potential.logdet_calls": calls("potential.logdet"),
    "potential.logdet_p50_ms": pct_ms("potential.logdet", 50),
    "potential.logdet_p95_ms": pct_ms("potential.logdet", 95),
    "potential.lu_gflop": (("potential.logdet",), lu_gflop),
    "potential.lu_gflops": (("potential.logdet",), lu_gflops),
    "potential.reduced_matrix_s": self_s("potential.reduced_matrix"),
    "potential.phi_matrix_s": self_s("potential.phi_matrix"),
    "potential.assemble_block_s": self_s("potential.assemble_block"),
    "bound.hadamard_rhs_s": self_s("bound.hadamard_rhs"),
    "bound.bound_report_p50_ms": pct_ms("bound.bound_report", 50),
    "bound.bound_report_p95_ms": pct_ms("bound.bound_report", 95),
    "expansion.fd_hessian_total_s": total_s("expansion.fd_hessian"),
    "expansion.fd_hessian_evals": (
        ("expansion.fd_hessian", "potential.logdet"),
        lambda s: float(s.calls_under("potential.logdet", "expansion.fd_hessian")),
    ),
    "expansion.analytic_hessian_s": self_s("expansion.analytic_hessian"),
    "expansion.analytic_hessian_mb": (("expansion.analytic_hessian",), analytic_hessian_mb),
    "expansion.coefficients_s": self_s("expansion.coefficients"),
    "expansion.remainder_total_s": total_s("expansion.remainder"),
    "gap.solve_gap_s": self_s("gap.solve_gap"),
    "gap.solve_gap_iterations": (
        ("gap.solve_gap",), lambda s: float(np.nansum(s.extras("gap.solve_gap")))
    ),
    "gaussian.gaussian_report_s": self_s("gaussian.gaussian_report"),
    "gaussian.lambda2_zero_s": self_s("gaussian.lambda2_zero"),
    "gaussian.eps_int2_s": self_s("gaussian.eps_int2"),
    "cli.import_s": ((), lambda s: s.import_s),
    "cli.emit_csv_s": self_s("cli.emit_csv"),
}
# nondegeneracy_check runs in the set-up process only
SETUP_TRACE = {
    "model.nondegeneracy_check_s": self_s("model.nondegeneracy_check"),
}


@dataclass
class Measurement:
    setups: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def tally(self, checks: list):
        self.attempted += len(checks)
        self.failed += checks.count(False)


def measure(workload, ref: Reference, runner: Runner, seed: int, seconds: float,
            trace: bool) -> Measurement:
    """Repeat set-up + workload cycles while the next one fits in `seconds`.

    Untraced runs then fill the time left with more set-up processes: a
    set-up is short and noisier than the workload, so it needs more samples.
    """
    m = Measurement()
    argv = workload.argv(seed)
    start = time.perf_counter()

    def setup():
        child = runner.run(SETUP_ARGV, traced=trace)
        m.tally(check_setup(workload.d, child.out, ref))
        m.setups.append(child)

    def fits(last: float) -> bool:
        return time.perf_counter() - start + last <= seconds

    while True:
        cycle = time.perf_counter()
        setup()
        for traced in (False, True) if trace else (False,):
            child = runner.run(argv, traced=traced)
            m.tally(workload.check(child.out, ref, seed))
            (m.traced if traced else m.plain).append(child)
        if not fits(time.perf_counter() - cycle):
            break
    while not trace and fits(m.setups[-1].wall_s):
        setup()
    return m


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(m: Measurement) -> dict:
    return {
        "wall_s": median(c.wall_s for c in m.plain),
        "setup_s": median(c.wall_s for c in m.setups),
        "peak_rss_mb": median(c.usage.ru_maxrss / 1024.0 for c in m.plain),
        "pass_frac": (m.attempted - m.failed) / m.attempted,
    }


def traced_values(table: dict, children: list, absent: set) -> dict:
    """Median over the traced processes of each metric in `table`."""
    summaries = [c.spans for c in children if c.spans is not None]
    out = {}
    for metric, (fns, get) in table.items():
        vals = []
        for s in summaries:
            missing = [f for f in fns if f not in s.wrapped]
            absent.update(missing)
            vals.append(0.0 if missing else get(s))
        out[metric] = median(vals) if vals else 0.0
    return out


def per_layer(m: Measurement) -> dict:
    absent: set = set()
    values = traced_values(WORKLOAD_TRACE, m.traced, absent)
    values.update(traced_values(SETUP_TRACE, m.setups, absent))
    values["proc.cpu_s"] = median(c.usage.ru_utime + c.usage.ru_stime for c in m.plain)
    values["proc.sys_s"] = median(c.usage.ru_stime for c in m.plain)
    values["proc.minflt"] = median(float(c.usage.ru_minflt) for c in m.plain)
    values["trace.overhead_frac"] = (
        median(c.wall_s for c in m.traced) / median(c.wall_s for c in m.plain) - 1.0
    )
    covered = [
        (c.spans.all_self_s() + c.spans.import_s) / c.wall_s
        for c in m.traced if c.spans is not None
    ]
    values["trace.coverage_frac"] = median(covered) if covered else 0.0
    values["trace.absent_count"] = float(len(absent))
    if absent:
        print("absent from the program, reported as 0: " + ", ".join(sorted(absent)))
    last = next((c.spans for c in reversed(m.traced) if c.spans is not None), None)
    if last is not None:
        print("top self time: " + ", ".join(f"{n} {t:.3f} s" for t, n in last.top(5)))
    return values


def report(metrics: dict, spec: list, prefix: str = "") -> dict:
    """Metrics in BENCHMARK.json order with their units, printed one a line."""
    if set(metrics) != {d["name"] for d in spec}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    out = {}
    for d in spec:
        value = metrics[d["name"]]
        print(f"{prefix}{d['name']} {value:.6g} {d['unit']}")
        out[prefix + d["name"]] = {"value": value, "unit": d["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small lattices: a whole run takes seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bcslab" / "cli.py").is_file():
        print(f"error: no bcslab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if args.trace else "end_to_end"]
    scale = "smoke" if args.smoke else "desk"
    ref = Reference(scale)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)

    probe = Runner(LATTICES[scale][1], deadline).run(["--env"])
    if probe.out.code != 0:
        print("error: the bcslab package does not import", file=sys.stderr)
        return 1
    print("env " + probe.out.stdout.strip())

    metrics, attempted, failed = {}, 0, 0
    for name in names:
        workload = WORKLOADS[name]
        runner = Runner(LATTICES[scale][workload.d], deadline)
        m = measure(workload, ref, runner, args.seed, args.seconds, bool(args.trace))
        attempted += m.attempted
        failed += m.failed
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"{prefix}runs {len(m.plain)} workload, {len(m.setups)} set-up, "
              f"{len(m.traced)} traced")
        if not args.trace:
            print(f"{prefix}fail_frac {m.failed / m.attempted:.6g} ratio "
                  f"({m.failed} of {m.attempted} checks failed)")
        values = per_layer(m) if args.trace else end_to_end(m)
        metrics.update(report(values, spec, prefix))
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
