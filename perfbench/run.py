"""hfrac benchmark: whole verification suites, timed end to end and per layer.

    python3 perfbench/run.py --workload conformal-ladder --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and builds nothing: the program is imported
from ./src.  Every pass runs in a fresh interpreter (perfbench/worker.py), one
pass after another, one client, default BLAS threads.  A run first starts a
few set-up-only interpreters for setup_s, then runs passes until --seconds is
used up (at least one; a pass is not started when the previous one says it
would not fit).  With --trace 1 one more pass runs with every layer wrapped,
and the run reports per-layer metrics instead of end-to-end ones.

The last line of standard output is the result JSON; the lines above it give
every metric with its unit, each check, and the environment.  The exit code
is 0 only when a result was printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# workload -> the work counts of the layers it exists to measure; a traced run
# fails when one of them, or the self time of its layer, is not above zero
LAYERS_USED = {
    "conformal-ladder": ("kernels.spectrum.calls", "lagspec.analyze.recurrence_steps",
                         "lagspec.synth.calls", "group.stencil.passes"),
    "macdonald-trace": ("lagspec.synth.calls",),
    "square-pointwise": ("lagspec.synth_batch.rows", "lagspec.slices_batch.rows",
                         "lagspec.synth_at.points", "group.stencil.passes",
                         "squarefn.gstar.kernel_evals", "singular.quad.samples"),
}
WORKLOAD_NAMES = tuple(LAYERS_USED)
RUN_LIMIT_S = 170.0            # a run must end within 180 s
SETUP_PROBES = 2               # set-up-only interpreters per run, besides each pass's own
UNATTRIBUTED_MAX_SHARE = 0.01  # traced wall time that no layer may leave unclaimed

END_TO_END = {                 # name -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "gate_ratio_max": "ratio",
    "pass_frac": "ratio",
}
PER_LAYER_UNITS = {"self_s": "s", "bytes_computed": "B", "cache_hit_ratio": "ratio"}


class RunError(Exception):
    pass


def _worker(args, mode, trace, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the next pass")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--trace", str(trace),
           "--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} pass did not finish within the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _gated(checks):
    """Report gates in order; used to show that tracing changes no value."""
    return [(c["suite"], c["name"], c["value"]) for c in checks if c.get("gate_ratio") is not None]


def _trace_checks(workload, traced, layers):
    """Checks that the traced pass attributed its time to the layers."""
    unattributed = layers["unattributed_s"] / traced["wall_s"]
    checks = [
        {"suite": "trace", "name": "unattributed_share", "value": unattributed,
         "tolerance": UNATTRIBUTED_MAX_SHARE, "passed": unattributed <= UNATTRIBUTED_MAX_SHARE},
        {"suite": "trace", "name": "every_target_wrapped", "value": len(traced["missing_targets"]),
         "passed": not traced["missing_targets"]},
    ]
    for count in LAYERS_USED[workload]:
        self_s = count.rsplit(".", 1)[0] + ".self_s"
        checks.append({"suite": "trace", "name": f"{count}_above_0", "value": layers[count],
                       "passed": layers[count] > 0})
        checks.append({"suite": "trace", "name": f"{self_s}_above_0", "value": layers[self_s],
                       "passed": layers[self_s] > 0})
    return checks


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = [_worker(args, "setup", 0, deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    passes = []
    t_measure = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(_worker(args, "pass", 0, deadline))
        last = time.monotonic() - t0
        if time.monotonic() - t_measure + last > args.seconds:
            break
    setup += [p["setup_s"] for p in passes]
    checks = [c for p in passes for c in p["checks"]]
    wall = [p["wall_s"] for p in passes]
    cpu = [p["cpu_s"] for p in passes]
    gates = [c["gate_ratio"] for c in checks if c.get("gate_ratio") is not None]
    samples = {
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": setup,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    end_to_end = {k: statistics.median(v) for k, v in samples.items()}
    end_to_end["gate_ratio_max"] = max(gates) if gates else 0.0
    end_to_end["pass_frac"] = sum(c["passed"] for c in checks) / len(checks) if checks else 0.0

    result = {"passes": passes, "samples": samples, "end_to_end": end_to_end,
              "env": passes[0]["env"]}
    if args.trace:
        traced = _worker(args, "pass", 1, deadline)
        layers = dict(traced["layers"])
        base = statistics.median(wall)
        layers["trace_overhead_frac"] = (traced["wall_s"] - base) / base
        extra = _trace_checks(args.workload, traced, layers) + [
            {"suite": "trace", "name": "gates_unchanged_by_tracing",
             "passed": _gated(traced["checks"]) == _gated(passes[0]["checks"])},
        ]
        result.update(traced=traced, layers=layers)
        checks = checks + traced["checks"] + extra
    result["attempted"] = len(checks)
    result["failed"] = sum(not c["passed"] for c in checks)
    result["all_checks"] = checks
    return result


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_result(args, res) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(res['passes'])}")
    print("environment " + json.dumps(res["env"], sort_keys=True))
    for c in res["all_checks"]:
        tol = "" if c.get("tolerance") is None else f" tol {c['tolerance']:.3g}"
        val = "" if "value" not in c else f" value {c['value']:.6g}"
        err = f" {c['error']}" if "error" in c else ""
        print(f"check {'ok  ' if c['passed'] else 'FAIL'} {c['suite']}/{c['name']}{val}{tol}{err}")
    for name, unit in END_TO_END.items():
        line = f"end_to_end {name} {_fmt(res['end_to_end'][name])} {unit}"
        if name in res["samples"]:
            vals = res["samples"][name]
            q1, q3 = _quartiles(vals)
            line += f"  (median of {len(vals)}; quartiles {_fmt(q1)}, {_fmt(q3)})"
        print(line)
    for name, value in res.get("layers", {}).items():
        print(f"per_layer {name} {_fmt(value)} {layer_unit(name)}")
    if res.get("traced", {}).get("missing_targets"):
        print("untraced (missing from the program): " + ", ".join(res["traced"]["missing_targets"]))


def layer_unit(name) -> str:
    if name in ("unattributed_s",):
        return "s"
    if name == "trace_overhead_frac":
        return "ratio"
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hfrac" / "__init__.py").is_file():
        print(f"no hfrac sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        res = run(args)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print_result(args, res)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": res["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
