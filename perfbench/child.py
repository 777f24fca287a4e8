"""One bcslab subcommand in a fresh interpreter, as the benchmark runs it.

    python3 child.py [--spans FILE] SUBCOMMAND [OPTIONS]   run bcslab.cli.main
    python3 child.py --env                                  print library versions

With --spans every public function of the bcslab modules is traced (see
spans.py) and the spans are written to FILE when the subcommand returns.
The --env form also compiles and caches the package's bytecode before any
timed run.
"""

import json
import os
import sys
import time


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var)
    return info


def main(argv: list) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import bcslab.cli

    import_s = time.perf_counter() - start
    if argv == ["--env"]:
        print(json.dumps(environment()))
        return 0
    if spans_path is None:
        return bcslab.cli.main(argv)
    from spans import Tracer

    tracer = Tracer()
    tracer.install("bcslab")
    try:
        return bcslab.cli.main(argv)
    finally:
        tracer.write(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
