"""Seeded inputs for the benchmark workloads.

Standard library only: the orchestrator builds every input from the seed
before any suscav code runs, and the program sees nothing but the
generated configs and CSV files.  `plan(...)` returns a JSON-able dict
that the worker executes:

* ``setup``  -- what a set-up probe loads: config name or path, grid;
* ``warmup`` -- one untimed operation that fills lazy state;
* ``cycle``  -- the operations of one closed-loop round; a run repeats
  whole rounds, so every input is executed more than once and a repeat
  must give byte-identical output.

Every operation is one ``suscav.cli.main`` command.
"""

from __future__ import annotations

import json
import math
import os
import random

SHIPPED = ("paper_default", "sql_design", "cryo_projection")
INGEST_COMMANDS = ("isolation", "suspension-tf", "quantum")


def _shipped_config(root, name):
    with open(os.path.join(root, "src", "suscav", "configs", name + ".json")) as fh:
        return json.load(fh)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cli_op(command, config, grid_spec, out, key):
    return {
        "key": key,
        "command": command,
        "config": config,
        "grid": grid_spec,
        "out": out,
        "points": int(grid_spec.rsplit(",", 1)[1]),
    }


def _budget(root, work, rng, smoke):
    cfg = _shipped_config(root, "paper_default")
    params = {
        "suspension.stiffness_mismatch": _log_uniform(rng, 5e-3, 2e-2),
        "thermal.temperature_k": rng.uniform(280.0, 300.0),
        "isolation.ground.level_m_rthz": _log_uniform(rng, 5e-8, 2e-7),
    }
    cfg["suspension"]["stiffness_mismatch"] = params["suspension.stiffness_mismatch"]
    cfg["thermal"]["temperature_k"] = params["thermal.temperature_k"]
    cfg["isolation"]["ground"]["level_m_rthz"] = params["isolation.ground.level_m_rthz"]
    path = _write_json(os.path.join(work, "budget.json"), cfg)
    grid = "0.1,1e4,2000" if smoke else "0.1,1e4,100000"
    return {
        "parameters": params,
        "setup": {"config": path, "grid": grid},
        "warmup": _cli_op("budget", path, "0.1,1e4,1000",
                          os.path.join(work, "out", "warmup"), "warmup"),
        "cycle": [_cli_op("budget", path, grid,
                          os.path.join(work, "out", "budget"), "budget")],
    }


def _write_asd_csv(path, column, freqs, values):
    # %.17g of Python floats: lossless and parseable by float().
    with open(path, "w") as fh:
        fh.write(f"frequency_hz,{column}\n")
        for f, a in zip(freqs, values):
            fh.write("%.17g,%.17g\n" % (f, a))


def _measured_looking(rng, rows, shape):
    """Strictly increasing log-spaced frequencies and a noisy positive ASD."""
    fmin = rng.uniform(0.01, 0.05)
    fmax = rng.uniform(2e4, 5e4)
    step = math.log(fmax / fmin) / (rows - 1)
    freqs = [fmin * math.exp(i * step) for i in range(rows)]
    return freqs, [shape(f) * math.exp(rng.gauss(0.0, 0.25)) for f in freqs]


def _ingest(root, work, rng, smoke):
    rows_lo, rows_hi = (800, 1200) if smoke else (29000, 31000)
    grid = "0.1,1e4,500" if smoke else "0.1,1e4,10000"
    params, cycle, setup = {}, [], None
    for name in SHIPPED:
        cfg = _shipped_config(root, name)
        level = _log_uniform(rng, 5e-8, 2e-7)
        corner = rng.uniform(0.5, 2.0)
        micro = rng.uniform(0.1, 0.3)
        rin = _log_uniform(rng, 1e-4, 3e-4)
        rin_knee = rng.uniform(10.0, 100.0)

        def ground(f):
            bump = 1.0 + 3.0 / (1.0 + ((f - micro) / (0.3 * micro)) ** 2)
            return level * min(1.0, (corner / f) ** 2) * bump

        ground_csv = os.path.join(work, f"{name}_ground.csv")
        rin_csv = os.path.join(work, f"{name}_rin.csv")
        _write_asd_csv(ground_csv, "asd_m_rthz",
                       *_measured_looking(rng, rng.randint(rows_lo, rows_hi), ground))
        _write_asd_csv(rin_csv, "rin_per_rthz",
                       *_measured_looking(rng, rng.randint(rows_lo, rows_hi),
                                          lambda f: rin * (1.0 + rin_knee / f)))
        cfg["isolation"]["ground"] = {"csv": ground_csv}
        cfg["intensity"]["rin_per_rthz"] = {"csv": rin_csv}
        path = _write_json(os.path.join(work, f"{name}_ingest.json"), cfg)
        params[name] = {"ground_level_m_rthz": level, "ground_corner_hz": corner,
                        "microseism_hz": micro, "rin_per_rthz": rin, "rin_knee_hz": rin_knee}
        setup = setup or {"config": path, "grid": grid}
        for command in INGEST_COMMANDS:
            cycle.append(_cli_op(command, path, grid,
                                 os.path.join(work, "out", f"{name}-{command}"),
                                 f"{name}:{command}"))
    warmup = _cli_op("isolation", setup["config"], "0.1,1e4,1000",
                     os.path.join(work, "out", "warmup"), "warmup")
    return {"parameters": params, "setup": setup, "warmup": warmup, "cycle": cycle}


BUILDERS = {"budget-1e5": _budget, "ingest-1e4": _ingest}


def plan(workload, seed, root, work, smoke=False):
    """Generate the inputs of `workload` for `seed` under `work`."""
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    result = BUILDERS[workload](root, work, rng, smoke)
    result.update(workload=workload, seed=seed)
    return result
