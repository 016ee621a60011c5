"""One benchmark pass in a fresh interpreter: set up, run a workload, report.

Started by run.py; prints one JSON object as its last line.  ``--t0-ns`` is
the parent's CLOCK_MONOTONIC reading just before it started this process,
so setup_s covers interpreter start, imports and the workload's set-up.

    python3 perfbench/worker.py --workload macdonald-trace --seed 1 --mode pass --trace 0
"""

import argparse
import json
import time
from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import hfrac
    if Path(hfrac.__file__).resolve().parent != ROOT / "src" / "hfrac":
        raise SystemExit(f"hfrac was imported from {hfrac.__file__}, not from this checkout")


def environment(seed) -> dict:
    import ctypes
    import os
    import platform
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = None, None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_threads.restype = ctypes.c_int
        get_config.restype = ctypes.c_char_p
        threads, config = get_threads(), get_config().decode()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int, default=None)
    args = ap.parse_args()
    t0_ns = time.monotonic_ns() if args.t0_ns is None else args.t0_ns

    _import_program()
    import resource
    from workloads import WORKLOADS, Checks

    setup, run = WORKLOADS[args.workload]
    ctx = setup(args.seed)
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9
    out = {"setup_s": setup_s}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        checks = Checks()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        verify = run(ctx, checks)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics(wall_s)
            out["missing_targets"] = tracer.missing
        if verify is not None:
            verify(checks)
        out.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
                   checks=checks.items, env=environment(args.seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
