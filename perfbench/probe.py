"""Set-up probe: one fresh interpreter, timed to a ready `Scenario`.

    python3 perfbench/probe.py PLAN.json RESULT.json

Times from this script's first statement through import suscav,
resolve_config, load_config and Scenario.from_dict, with the plan's set-up
config and grid (so the ingest workload includes its CSV reads).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(plan_path, out_path):
    with open(plan_path) as fh:
        spec = json.load(fh)["setup"]
    import suscav  # noqa: F401  (timed: the package import is part of set-up)
    import suscav.cli as cli

    grid = cli.parse_grid(spec["grid"]) if spec["grid"] else None
    cfg = cli.load_config(cli.resolve_config(spec["config"]))
    scenario = cli.Scenario.from_dict(cfg, grid_override=grid)
    elapsed = time.perf_counter() - _T0
    with open(out_path, "w") as fh:
        json.dump({"setup_s": elapsed, "points": len(scenario.grid)}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
