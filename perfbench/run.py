"""End-to-end and per-layer benchmark of suscav.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; suscav is imported from ./src.
Inputs are generated from the seed under ./.perfbench_work and removed
afterwards.  Every process runs one thread with BLAS/OpenMP pinned to one
thread.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1.  The line before it is a record of the
seed, the workload's inputs, the environment, warning counts and the
figures that are not gated (error_rate, output_ok, op_p50_ms, op_p95_ms).

`--smoke` shrinks every input for a quick check of the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 9
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
CHILD_TIMEOUT_S = 150


def _child_env():
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _child(script, *args):
    """Run one benchmark process to completion and return its JSON result."""
    with tempfile.NamedTemporaryFile(dir=os.path.dirname(args[0]), suffix=".json",
                                     delete=False) as fh:
        out = fh.name
    subprocess.run([sys.executable, os.path.join(HERE, script), args[0], out, *args[1:]],
                   env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S, check=True)
    with open(out) as fh:
        return json.load(fh)


def _setup_seconds(plan_path, probes):
    _child("probe.py", plan_path)           # fills the bytecode and file caches
    return statistics.median(_child("probe.py", plan_path)["setup_s"] for _ in range(probes))


def _environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "thread_pins": THREAD_PINS,
    }


def _select(metrics, spec):
    """The metrics BENCHMARK.json names, in its order, with matching units."""
    out = {}
    for entry in spec:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"perfbench: {entry['name']} has unit {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "suscav", "__init__.py")):
        print(f"perfbench: no suscav sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    environment = _environment()

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        plan = workloads.plan(args.workload, args.seed, ROOT, work, smoke=args.smoke)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        result = _child("worker.py", plan_path, str(args.seconds), args.trace)
        if args.trace == "0":
            setup_s = _setup_seconds(plan_path, 2 if args.smoke else SETUP_PROBES)
            result["metrics"]["setup_s"] = (setup_s, "s")
    try:
        os.rmdir(scratch)
    except OSError:
        pass                        # another run is still using it

    if not result["versions"]["suscav_path"].startswith(os.path.join(ROOT, "src")):
        print(f"perfbench: imported {result['versions']['suscav_path']}, "
              f"not the checkout's suscav", file=sys.stderr)
        return 2
    section = "end_to_end" if args.trace == "0" else "per_layer"
    metrics = _select(result.pop("metrics"), spec[section])
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "parameters": plan["parameters"],
        "environment": environment,
        "error_rate": failed / attempted,
        **result,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and result["output_ok"] == 1.0 and result["checks_passed"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
