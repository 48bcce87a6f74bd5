"""The CLI cases of `cli_cases.json`, and how to run and check one.

Each case of the table gives a `name`; a shipped `config`; a `patch` of
dotted keys set on a copy of it (`{}` runs the config by name); the
`argv` after `suscav`, less `--config` and, unless it gives one, `--out`;
the `exit` code; the `stderr` lines; and whether a `golden` digest of its
outputs is kept as `golden/<name>.json`.  Three consumers read the table:

- `test_golden.py` runs every case in process;
- `golden/update.py` regenerates the kept digests;
- `.github/scripts/packaged_cli_smoke.sh` runs this file as a script,
  which runs every case with the installed `suscav` command, each in its
  own directory under DIR:

      python tests/cli_cases.py DIR

A case is checked for its exit code and stderr lines; a failing one for
an untouched working directory (no output and no staging file), a
passing one for a manifest that lists exactly the other files of its
output directory, and a kept one for its digest.  The digest of an
output directory keeps, for every file, its sha256 (information only)
and a sampled digest: every k-th CSV data row and the last, as written
(`%.17g` text), and every value of a JSON output.  A sampled value, and
a number in a stderr line, must keep its bits or move by at most RTOL
relative; zeros compare exactly, since numpy's transcendental functions
may differ in the last bit across versions and CPUs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from importlib.resources import files

from suscav.cli import main as suscav_main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
with open(os.path.join(HERE, "cli_cases.json")) as _fh:
    TABLE = json.load(_fh)
CASES = {case["name"]: case for case in TABLE}

RTOL = 1e-12
SAMPLES_PER_CSV = 100     # about this many rows of each CSV are kept
PATCHED = "config.json"   # a patched case's config, in its working directory


def argv(case):
    """The argv after `suscav` of one case."""
    config = PATCHED if case["patch"] else case["config"]
    out = [] if "--out" in case["argv"] else ["--out", "out"]
    return [*case["argv"], "--config", config, *out]


def out_dir(case):
    args = argv(case)
    return args[args.index("--out") + 1]


def prepare(case, workdir):
    """Write a patched case's config into its working directory."""
    if not case["patch"]:
        return
    cfg = json.loads(files("suscav").joinpath("configs", f"{case['config']}.json").read_text())
    for dotted, value in case["patch"].items():
        *path, key = dotted.split(".")
        section = cfg
        for name in path:
            section = section.setdefault(name, {})
        section[key] = value
    with open(os.path.join(workdir, PATCHED), "w") as fh:
        json.dump(cfg, fh)


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Python's own showwarning, to the sys.stderr of the moment."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_in_process(case, workdir):
    """Run one case with `suscav.cli.main` in `workdir`, warnings shown as
    a fresh process shows them: (exit code, stderr lines)."""
    prepare(case, workdir)
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("default")
            warnings.showwarning = _print_warning
            code = suscav_main(argv(case))
    finally:
        os.chdir(cwd)
    return code, err.getvalue().splitlines()


def run_installed(case, workdir):
    """Run one case with the `suscav` command in `workdir`: (exit code,
    stderr lines)."""
    prepare(case, workdir)
    run = subprocess.run(["suscav", *argv(case)], cwd=workdir, capture_output=True, text=True)
    return run.returncode, run.stderr.splitlines()


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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def line_change(want, got):
    """The largest relative change among the numbers of two stderr lines;
    inf if their text around the numbers differs."""
    if _NUMBER.split(want) != _NUMBER.split(got):
        return float("inf")
    return max((_value_change(float(x), float(y))
                for x, y in zip(_NUMBER.findall(want), _NUMBER.findall(got))), default=0.0)


def golden_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


def golden_header(case):
    """What a digest file records of its case besides the digests."""
    args = case["argv"]
    header = {"command": args[0], "config": case["config"],
              "grid": args[args.index("--grid") + 1] if "--grid" in args else None}
    if case["patch"]:
        header["patch"] = case["patch"]
    return header


def check(case, workdir, code, stderr):
    """What is wrong with one case's run in `workdir`: a list of lines."""
    problems = []
    if code != case["exit"]:
        problems.append(f"exit code {code}, want {case['exit']}")
    if len(stderr) != len(case["stderr"]) or any(
            line_change(want, got) > RTOL for want, got in zip(case["stderr"], stderr)):
        problems.append(f"stderr {stderr}, want {case['stderr']}")
    if code != 0:
        left = set(os.listdir(workdir)) - {PATCHED}
        if left:
            problems.append(f"a failing run left {sorted(left)}")
        return problems
    outdir = os.path.join(workdir, out_dir(case))
    with open(os.path.join(outdir, "manifest.json")) as fh:
        listed = sorted(json.load(fh)["files"].values())
    if listed != sorted(set(os.listdir(outdir)) - {"manifest.json"}):
        problems.append(f"the manifest lists {listed}, the directory holds "
                        f"{sorted(os.listdir(outdir))}")
    if case["golden"]:
        with open(golden_path(case["name"])) as fh:
            want = json.load(fh)
        if {key: want[key] for key in want if key != "files"} != golden_header(case):
            problems.append("the digest file records another case; run tests/golden/update.py")
        moved = {name: worst for name, worst in changes(want["files"], digest(outdir)).items()
                 if worst > RTOL}
        if moved:
            problems.append(f"largest relative change of each moved file: {moved}")
    return problems


def main(top):
    """Run every case with the installed `suscav` under `top`; exit 1
    naming each case that fails its checks."""
    failed = 0
    for name, case in CASES.items():
        workdir = os.path.join(top, name)
        os.makedirs(workdir)
        for problem in check(case, workdir, *run_installed(case, workdir)):
            failed += 1
            print(f"{name}: {problem}", file=sys.stderr)
    if failed:
        sys.exit(1)
    print(f"{len(CASES)} CLI cases pass under {top}")


if __name__ == "__main__":
    main(sys.argv[1])
