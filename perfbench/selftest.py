"""Checks of the benchmark itself; exits non-zero when one fails.

    python3 perfbench/selftest.py                      # every workload
    python3 perfbench/selftest.py macdonald-trace      # some of them

Per workload it makes one traced run the way run.py does (an untraced pass,
then a traced one: every check must pass, tracing must leave every gated
value unchanged, every target must be wrapped, the workload's own layers
must show work and time, and at most 1% of traced wall time may go
unattributed),
then one more traced pass.  The work counts of the two traced passes must be
identical, since they are computed from the inputs alone.  Finally it runs
run.py in a directory holding only BENCHMARK.json and perfbench/, where it
must fail without printing a result.
"""

import argparse
import shutil
import subprocess
import sys
import time

import run


def counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s") and k != "trace_overhead_frac"}


def check_workload(name: str) -> list:
    args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=1)
    res = run.run(args)
    problems = [f"{name}: check {c['suite']}/{c['name']} failed"
                for c in res["all_checks"] if not c["passed"]]
    again = run._worker(args, "pass", 1, time.monotonic() + run.RUN_LIMIT_S)
    first, second = counts(res["layers"]), counts(again["layers"])
    problems += [f"{name}: {k} was {first[k]} then {second[k]}"
                 for k in first if first[k] != second[k]]
    print(f"{name}: {len(res['all_checks'])} checks, {len(first)} counts compared, "
          f"{len(problems)} problems", flush=True)
    return problems


def check_bare_directory() -> list:
    bare = run.ROOT / ".selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               run.WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py succeeded or printed a result without the program's sources"]
    print("bare directory: run.py exits with code", proc.returncode)
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOAD_NAMES))
    names = ap.parse_args().workloads
    problems = []
    for name in names:
        problems += check_workload(name)
    problems += check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
