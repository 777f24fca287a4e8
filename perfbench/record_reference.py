"""Record the CLI outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs the checkout's CLI on the desk and smoke lattices, with the workloads'
options and pinned BLAS threads, and rewrites reference/.  Every later run is
checked against these files, so record them only from a commit whose outputs
the tier-1 tests accept.
"""

from __future__ import annotations

import gzip
import sys
import time

from run import RUN_LIMIT_S, Runner
from workloads import (
    BOUND_SEEDS, CONFIG, CSV_OUT, LATTICES, REFERENCE, SETUP_ARGV, gaussian_argv,
)


def run(lattice, argv):
    child = Runner(lattice, time.perf_counter() + RUN_LIMIT_S).run(argv)
    if child.out.code != 0:
        sys.exit(f"{' '.join(argv)} exited with {child.out.code}")
    return child.out


def main() -> int:
    for scale, lattices in LATTICES.items():
        d1, d2 = lattices[1], lattices[2]
        target = REFERENCE / scale
        target.mkdir(parents=True, exist_ok=True)
        for d, lattice in lattices.items():
            (target / f"lattice-info-d{d}.out").write_text(run(lattice, SETUP_ARGV).stdout)
        gap = run(d1, ["gap", "--config", CONFIG, "--tol", "1e-12"])
        (target / "gap-d1.out").write_text(gap.stdout)
        bound = run(d1, [
            "verify-bound", "--config", CONFIG, "--count", str(BOUND_SEEDS),
            "--scale", "1.0", "--seed", "0", "--output", CSV_OUT,
        ])
        (target / "verify-bound-d1.csv.gz").write_bytes(
            gzip.compress(bound.csv_text.encode(), mtime=0)
        )
        gauss = run(d2, gaussian_argv(0))
        (target / "gaussian-d2.out").write_text(gauss.stdout)
        (target / "gaussian-d2.csv.gz").write_bytes(
            gzip.compress(gauss.csv_text.encode(), mtime=0)
        )
        print(f"recorded {scale} references in {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
