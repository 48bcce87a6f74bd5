"""The benchmark's client: one process, one thread, one operation at a time.

    python3 perfbench/worker.py PLAN.json RESULT.json SECONDS TRACE

Runs whole rounds of the plan's cycle until SECONDS have passed (closed
loop: the next operation starts when the previous one has finished).
With TRACE 0 it reports the end-to-end metrics; with TRACE 1 it
alternates an untraced and a traced round and reports per-layer metrics
and the tracing overhead.  Outputs are checked after every operation and,
in depth, after the timed loop, so checks count neither as operation time
nor towards the peak RSS.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import warnings

import numpy as np
import suscav
import suscav.cli
import suscav.scenario
import suscav.spectra

from tracer import Tracer


def _execute(op):
    """One CLI command, looked up at call time so the tracer's wrappers apply."""
    return suscav.cli.main([op["command"], "--config", op["config"],
                            "--out", op["out"], "--grid", op["grid"]])


def _positive_if_number(value):
    return not isinstance(value, (int, float)) or (np.isfinite(value) and value > 0.0)


class Client:
    """Runs operations, times them and checks what they produce.

    No check pins a physics value (rms_m, vco_margin_ratio): they test
    exit codes, identities, lossless round trips and repeatability only.
    """

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.ok_ops = 0
        self.problems = []          # first few check failures, for the record
        self.digests = {}           # op key -> digest of its first output

    def problem(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)
        return False

    def run(self, op, tracer=None):
        """Run one operation; return its wall time in seconds."""
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            exit_code, error = _execute(op), None
        except Exception as exc:     # a failed operation is counted, not fatal
            exit_code, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if error is not None or exit_code != 0:
            self.failed += 1
            self.problem(f"{op['key']}: failed ({error!r}, exit {exit_code})")
            return elapsed
        try:
            ok = self._check_repeat(op)
        except OSError as exc:
            ok = self.problem(f"{op['key']}: output unreadable ({exc})")
        self.ok_ops += ok
        return elapsed

    # -- after every operation -----------------------------------------
    def _check_repeat(self, op):
        """Every run of the same input writes byte-identical files."""
        digest = hashlib.sha256()
        for name in sorted(os.listdir(op["out"])):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(op["out"], name), "rb") as fh:
                # in chunks, so that hashing does not raise the peak RSS
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        first = self.digests.setdefault(op["key"], digest.hexdigest())
        if first != digest.hexdigest():
            return self.problem(f"{op['key']}: repeated operation gave different output")
        return True

    # -- in depth, once per distinct input, after the timed loop -------
    def deep_check(self):
        ok = True
        seen = set()
        for op in [self.plan["warmup"]] + self.plan["cycle"]:
            if op["key"] in seen:
                continue
            seen.add(op["key"])
            try:
                ok = self._check_files(op) and ok
                if op["command"] == "budget":
                    ok = self._check_budget_csv(op) and ok
            except OSError as exc:
                ok = self.problem(f"{op['key']}: output unreadable ({exc})")
        return ok

    def _check_files(self, op):
        grid = suscav.cli.parse_grid(op["grid"]).values
        for name in sorted(os.listdir(op["out"])):
            path = os.path.join(op["out"], name)
            if name.endswith(".json"):
                with open(path) as fh:
                    try:
                        payload = json.load(fh)
                    except ValueError:
                        return self.problem(f"{op['key']}: {name} is not valid JSON")
                if isinstance(payload, dict) and not _positive_if_number(payload.get("rms_m")):
                    return self.problem(f"{op['key']}: {name} rms_m not finite and positive")
            elif name.endswith(".csv"):
                with open(path) as fh:
                    rows = [line.rstrip("\n").split(",") for line in fh][1:]
                if not rows:
                    return self.problem(f"{op['key']}: {name} has no rows")
                if len(rows) != grid.size:
                    continue    # a table (modes.csv), not a spectrum on the grid
                data = np.array(rows, dtype=float)
                if data[:, 0].tobytes() != grid.tobytes():
                    return self.problem(f"{op['key']}: {name} grid differs from --grid")
                if not np.all(np.isfinite(data)):
                    return self.problem(f"{op['key']}: {name} has non-finite values")
        return True

    def _check_budget_csv(self, op):
        """budget.csv read back equals the in-memory budget bit for bit."""
        scenario = suscav.scenario.Scenario.from_dict(
            suscav.cli.load_config(op["config"]),
            grid_override=suscav.cli.parse_grid(op["grid"]))
        budget = suscav.scenario.assemble_budget(scenario)
        grid, columns = suscav.spectra.read_budget_csv(os.path.join(op["out"], "budget.csv"))
        expected = {**budget.components, **budget.references, "total": budget.total}
        if grid.values.tobytes() != budget.grid.values.tobytes():
            return self.problem(f"{op['key']}: budget.csv grid is not the budget grid")
        if set(columns) != set(expected):
            return self.problem(f"{op['key']}: budget.csv columns {sorted(columns)}")
        for name, spectrum in expected.items():
            if columns[name].tobytes() != spectrum.asd.tobytes():
                return self.problem(f"{op['key']}: budget.csv column {name} not bit-exact")
        psd = sum(c.psd for c in budget.components.values())
        if not np.allclose(psd, budget.total.psd, rtol=1e-12, atol=0.0):
            return self.problem(f"{op['key']}: component PSDs do not sum to the total")
        return True


def _timed_rounds(client, cycle, seconds):
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.extend(client.run(op) for op in cycle)
    n = len(times)
    beyond = n - int(0.95 * n) - 1     # samples above the p95 sample
    return {
        "metrics": {
            "points_per_s": (sum(op["points"] for op in cycle) * n / len(cycle) / sum(times),
                             "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        # Not gated: see README, "Why latency percentiles are not gated".
        "latency": {
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p95_ms": sorted(times)[int(0.95 * n)] * 1e3 if beyond >= 10 else None,
            "samples": n,
            "samples_beyond_p95": max(beyond, 0),
        },
    }


def _traced_rounds(client, cycle, seconds):
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sum(client.run(op) for op in cycle))
        tracer.install()
        try:
            traced.append(sum(client.run(op, tracer) for op in cycle))
        finally:
            tracer.uninstall()
    if not tracer.self_time_balanced():
        client.problem("trace: self times do not add up to the root spans")
    return {
        "metrics": tracer.metrics(len(traced) * len(cycle), sum(traced), sum(untraced)),
        "unmeasured": tracer.unmeasured,
        "balanced": tracer.self_time_balanced(),
    }


def main(plan_path, out_path, seconds, trace):
    with open(plan_path) as fh:
        plan = json.load(fh)
    client = Client(plan)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        client.run(plan["warmup"])
        rounds = _traced_rounds if trace == "1" else _timed_rounds
        result = rounds(client, plan["cycle"], float(seconds))
        counts = {}
        for w in caught:
            counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
        balanced = result.pop("balanced", True)
        checks_passed = client.deep_check() and balanced
    result.update(
        attempted=client.attempted,
        failed=client.failed,
        output_ok=client.ok_ops / client.attempted,
        checks_passed=checks_passed,
        problems=client.problems,
        warnings=counts,
        versions={"suscav": suscav.__version__, "suscav_path": suscav.__file__,
                  "numpy": np.__version__, "python": sys.version.split()[0]},
    )
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:5])
