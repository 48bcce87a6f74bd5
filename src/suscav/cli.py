"""Command-line entry point.

    suscav budget|suspension-tf|isolation|quantum [--config PATH]
           [--out DIR] [--grid fmin,fmax,n]

`--config` accepts a file path or the name of a shipped/installed config;
names are resolved against $SUSCAV_CONFIG_DIR and then the packaged
configs.  Exit codes: 0 success, 1 config or I/O error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from importlib.resources import files

import numpy as np

from .errors import ConfigError, NumericalError
from .scenario import (
    Scenario,
    load_config,
    run_budget,
    run_isolation,
    run_quantum_design,
    run_suspension_tf,
)
from .spectra import make_log_grid

COMMANDS = {
    "budget": run_budget,
    "suspension-tf": run_suspension_tf,
    "isolation": run_isolation,
    "quantum": run_quantum_design,
}

ENV_CONFIG_DIR = "SUSCAV_CONFIG_DIR"
DEFAULT_CONFIG = "paper_default"


def packaged_config_dir():
    return files("suscav").joinpath("configs")


def resolve_config(name_or_path):
    """A real path wins; otherwise search the config directories."""
    if os.path.exists(name_or_path):
        return name_or_path
    candidates = []
    base = name_or_path if name_or_path.endswith(".json") else name_or_path + ".json"
    env_dir = os.environ.get(ENV_CONFIG_DIR)
    if env_dir:
        candidates.append(os.path.join(env_dir, base))
    candidates.append(str(packaged_config_dir().joinpath(base)))
    for c in candidates:
        if os.path.exists(c):
            return c
    raise ConfigError(
        f"config {name_or_path!r} not found (searched {candidates})"
    )


def parse_grid(text):
    try:
        fmin, fmax, n = text.split(",")
        return make_log_grid(float(fmin), float(fmax), int(n))
    except ValueError as exc:
        raise ConfigError(f"--grid expects fmin,fmax,n (got {text!r}): {exc}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="suscav",
        description="Noise-budget and control-loop simulator for a suspended "
                    "high-finesse Fabry-Perot cavity.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=DEFAULT_CONFIG,
                        help="config file path or shipped config name")
    parser.add_argument("--out", default="suscav_out", help="output directory")
    parser.add_argument("--grid", default=None,
                        help="override the analysis grid as fmin,fmax,n")
    return parser


def _one_line(message, category, filename, lineno, line=None):
    return f"suscav: warning: {message}\n"


def main(argv=None):
    args = build_parser().parse_args(argv)
    # a warning is printed as one line naming no source file; showwarning is
    # left alone, so warnings.catch_warnings(record=True) still records it
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line
    try:
        grid = parse_grid(args.grid) if args.grid else None
        cfg = load_config(resolve_config(args.config))
        # every non-finite value is refused by a check that names it, so
        # numpy's overflow and invalid-value warnings would only be noise;
        # catch_warnings resets the once-per-location registry, so every
        # call prints its warnings, and leaves showwarning to outer recorders
        with np.errstate(all="ignore"), warnings.catch_warnings():
            scenario = Scenario.from_dict(cfg, grid_override=grid)
            COMMANDS[args.command](scenario, args.out)
    except ConfigError as exc:
        print(f"suscav: config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"suscav: numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"suscav: I/O error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning
    print(f"suscav: {args.command} results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
