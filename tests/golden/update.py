"""Regenerate the committed output digests in this directory.

    PYTHONPATH=src python tests/golden/update.py

Each kept case of `tests/cli_cases.json` runs in process, in a temporary
working directory, and its digest (described in `tests/cli_cases.py`)
is written here as `<case name>.json`.  Before it overwrites a digest,
this script prints each file that moved and the largest relative change
among its sampled values, for the change log of a change that moves
outputs on purpose; it names each digest it writes for the first time.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import cli_cases  # noqa: E402


def main():
    for name, case in cli_cases.CASES.items():
        if not case["golden"]:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            if cli_cases.run_in_process(case, tmp)[0] != 0:
                sys.exit(f"{name}: the command failed")
            files = cli_cases.digest(os.path.join(tmp, cli_cases.out_dir(case)))
        path = cli_cases.golden_path(name)
        if os.path.exists(path):
            with open(path) as fh:
                old = json.load(fh)["files"]
            for file, worst in cli_cases.changes(old, files).items():
                print(f"{name}/{file}: largest relative change {worst:.3g}")
            for file in old.keys() & files.keys():
                if old[file]["sha256"] != files[file]["sha256"]:
                    print(f"{name}/{file}: sha256 moved")
        else:
            print(f"{name}: new digest")
        with open(path, "w") as fh:
            json.dump({**cli_cases.golden_header(case), "files": files}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
