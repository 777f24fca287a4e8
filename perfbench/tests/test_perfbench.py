"""The benchmark on the small lattices, its output checks and its span arithmetic.

No test asserts a timing.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Summary, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BOUND_COUNT, WORKLOADS, Output, Reference, bound_start, check_bound, check_gaussian,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_end_to_end():
    res = result(bench("--workload", "bound-d1", "--seed", "5", "--seconds", "1",
                       "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert res["metrics"]["pass_frac"]["value"] == 1.0


def test_smoke_traced_all_workloads():
    res = result(bench("--workload", "all", "--seed", "5", "--seconds", "1",
                       "--trace", "1", "--smoke"))
    assert res["correct"] and res["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(res["metrics"]) == [f"{w}.{n}" for w in WORKLOADS for n in names]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["bound-d1.potential.logdet_calls"] == BOUND_COUNT + 1
    assert metrics["hessian-d1.expansion.fd_hessian_evals"] == 393  # 14 coordinates
    assert metrics["gaussian-d2.potential.logdet_calls"] == 0
    assert all(metrics[f"{w}.trace.absent_count"] == 0 for w in WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("--workload", "bound-d1", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_bound_checks_catch_a_perturbed_row():
    ref = Reference("smoke")
    seed = 17
    start = bound_start(seed)
    labels = {"bcs"} | {str(s) for s in range(start, start + BOUND_COUNT)}
    rows = [r for i, r in enumerate(ref.rows("verify-bound-d1")) if i == 0 or r[0] in labels]
    stdout = f"configurations {len(rows) - 1}\nall_chains_ok True\n"
    good = check_bound(Output(0, stdout, "\n".join(",".join(r) for r in rows)), ref, seed)
    assert all(good)

    bad_rows = [list(r) for r in rows]
    bad_rows[5][1] = repr(float(bad_rows[5][1]) * (1.0 + 1e-8))
    bad = check_bound(Output(0, stdout, "\n".join(",".join(r) for r in bad_rows)), ref, seed)
    assert len(bad) == len(good) and bad.count(False) == 1

    crashed = check_bound(Output(1, "", None), ref, seed)
    assert len(crashed) == len(good) and not any(crashed)


def test_gaussian_checks_catch_a_perturbed_row():
    ref = Reference("smoke")
    stdout = (BENCH / "reference" / "smoke" / "gaussian-d2.out").read_text()
    rows = [list(r) for r in ref.rows("gaussian-d2")]
    good = check_gaussian(Output(0, stdout, "\n".join(",".join(r) for r in rows)), ref, 0)
    assert all(good)

    rows[3][2] = repr(float(rows[3][2]) + 1e-9)
    bad = check_gaussian(Output(0, stdout, "\n".join(",".join(r) for r in rows)), ref, 0)
    assert len(bad) == len(good) and bad.count(False) == 1


TOY = '''
def leaf(x):
    return x + 1

def middle(x):
    return leaf(x) + leaf(x)

def top(x):
    return middle(x) + leaf(x)

def _private(x):
    return x
'''


def test_spans_self_time_and_nesting(tmp_path, monkeypatch):
    pkg = types.ModuleType("toypkg")
    mod = types.ModuleType("toypkg.layer")
    exec(TOY, mod.__dict__)
    pkg.top = mod.top  # re-exported, as bcslab/__init__ does
    monkeypatch.setitem(sys.modules, "toypkg", pkg)
    monkeypatch.setitem(sys.modules, "toypkg.layer", mod)

    tracer = Tracer()
    tracer.install("toypkg")
    assert sorted(tracer.wrapped) == ["layer.leaf", "layer.middle", "layer.top"]
    assert pkg.top is mod.top  # the package binding is the same wrapper
    assert pkg.top(1) == 6
    tracer.write(str(tmp_path / "spans.npz"), import_s=0.5)

    s = Summary(tmp_path / "spans.npz")
    assert (s.calls("layer.top"), s.calls("layer.middle"), s.calls("layer.leaf")) == (1, 1, 3)
    assert s.calls_under("layer.leaf", "layer.middle") == 2
    assert s.calls("layer._private") == 0
    assert s.all_self_s() == pytest.approx(s.total_s("layer.top"), rel=1e-9)
    assert s.layer_self_s("layer") == pytest.approx(s.all_self_s(), rel=1e-9)
    assert s.self_s("layer.middle") <= s.total_s("layer.middle")
    assert s.import_s == 0.5
