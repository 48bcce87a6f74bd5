"""Regenerate the committed output digests in this directory.

    PYTHONPATH=src python tests/golden/update.py

Each case runs one `suscav` command in process and stores, for every
output file, its sha256 (information only) and a sampled digest: every
k-th CSV data row and the last, as written (`%.17g` text), and every
value of a JSON output.  `tests/test_golden.py` reruns the cases and
compares the digests.  Before it overwrites a digest, this script prints
each file that moved and the largest relative change among its sampled
values, for the change log of a change that moves outputs on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = ("paper_default", "cryo_projection", "sql_design")
COMMANDS = ("budget", "suspension-tf", "isolation", "quantum")
# case name -> (command, config, --grid or None)
CASES = {f"{config}-{command}": (command, config, None)
         for config in CONFIGS for command in COMMANDS}
# not a whole number of the budget's blocks
CASES["paper_default-budget-20001"] = ("budget", "paper_default", "0.1,1e4,20001")

SAMPLES_PER_CSV = 100     # about this many rows of each CSV are kept


def run_case(case, outdir):
    """Run one case's command into `outdir`; its exit code."""
    from suscav.cli import main

    command, config, grid = CASES[case]
    argv = [command, "--config", config, "--out", outdir]
    if grid is not None:
        argv += ["--grid", grid]
    with warnings.catch_warnings(), contextlib.redirect_stdout(None):
        warnings.simplefilter("ignore")     # the free-mass note on the shipped grids
        return main(argv)


def _flatten(value, where=""):
    """{dotted path: leaf} of a JSON value."""
    if isinstance(value, dict):
        return {path: leaf for key, sub in value.items()
                for path, leaf in _flatten(sub, f"{where}.{key}" if where else key).items()}
    if isinstance(value, list):
        return {path: leaf for i, sub in enumerate(value)
                for path, leaf in _flatten(sub, f"{where}[{i}]").items()}
    return {where: value}


def digest_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.endswith(".json"):
        entry["values"] = _flatten(json.loads(data))
        return entry
    header, *rows = data.decode().splitlines()
    every = max(1, len(rows) // SAMPLES_PER_CSV)
    picked = sorted({*range(0, len(rows), every), len(rows) - 1} - {-1})
    entry.update(header=header, rows=len(rows), every=every,
                 sample={str(i): rows[i] for i in picked})
    return entry


def digest(outdir):
    """{file name: digest} of one command's output directory."""
    return {name: digest_file(os.path.join(outdir, name)) for name in sorted(os.listdir(outdir))}


def _value_change(want, got):
    """0 for the same bits; the relative change of two nonzero finite
    numbers of one type; inf for any other difference, so zeros and
    signs of zero compare exactly."""
    if type(want) is not type(got):
        return float("inf")
    if repr(want) == repr(got):
        return 0.0
    if isinstance(want, (int, float)) and not isinstance(want, bool) and want and got:
        return abs(got - want) / abs(want)
    return float("inf")


def _cells(text):
    """The cells of a CSV row, as numbers where they parse."""
    out = []
    for cell in text.split(","):
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def _pairs(a, b):
    """The sampled values of two digests of one file, paired; None if the
    two differ in shape: keys, header, row count or sampled rows."""
    if "values" in a:
        if a["values"].keys() != b.get("values", {}).keys():
            return None
        return [(a["values"][key], b["values"][key]) for key in a["values"]]
    shape = ("header", "rows", "every")
    if [a[k] for k in shape] != [b.get(k) for k in shape] or a["sample"].keys() != b["sample"].keys():
        return None
    pairs = []
    for i, row in a["sample"].items():
        if row != b["sample"][i]:
            x, y = _cells(row), _cells(b["sample"][i])
            if len(x) != len(y):
                return None
            pairs += zip(x, y)
    return pairs


def changes(want, got):
    """{file name: largest relative change} of every file whose sampled
    digest differs from `want`'s; inf for a file added, removed or reshaped."""
    moved = {}
    for name in sorted(want.keys() | got.keys()):
        pairs = _pairs(want[name], got[name]) if name in want and name in got else None
        worst = float("inf") if pairs is None else max(
            (_value_change(x, y) for x, y in pairs), default=0.0)
        if worst > 0.0:
            moved[name] = worst
    return moved


def golden_path(case):
    return os.path.join(HERE, f"{case}.json")


def main():
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            if run_case(case, out) != 0:
                sys.exit(f"{case}: the command failed")
            files = digest(out)
        path = golden_path(case)
        if os.path.exists(path):
            with open(path) as fh:
                old = json.load(fh)["files"]
            for name, worst in changes(old, files).items():
                print(f"{case}/{name}: largest relative change {worst:.3g}")
            for name in old.keys() & files.keys():
                if old[name]["sha256"] != files[name]["sha256"]:
                    print(f"{case}/{name}: sha256 moved")
        command, config, grid = CASES[case]
        with open(path, "w") as fh:
            json.dump({"command": command, "config": config, "grid": grid, "files": files},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
