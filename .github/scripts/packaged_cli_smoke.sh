#!/bin/sh
# Smoke test of an installed (non-editable) suscav, run from a directory
# outside the checkout.  tests/cli_cases.py runs every case of
# tests/cli_cases.json with the installed `suscav` command and checks its
# exit code and stderr lines, that a failing case leaves no output and no
# staging file, that each manifest lists exactly the other files of its
# directory, and each kept case's outputs against its digest in
# tests/golden/.  An unpatched case names its shipped config, and a
# patched one copies it from the package, so a wheel without
# configs/*.json fails.  This script adds what only runs of the installed
# command can show:
# - two runs of every case write byte-identical trees, and so does a third
#   on one CPU with `taskset`, where one process writes each budget file
#   that two share otherwise (from 3 blocks, for example the 1e5-point
#   budgets);
# - every number of the 1e5-point budget with two terms and the ISS off
#   (zero columns, and the two intensity columns in swapped roles) is its
#   own "%.17g" text;
# - one seeded 3e4-row ground CSV written with LF and with CRLF line ends,
#   read by the reader's kernel and by np.loadtxt, gives byte-identical
#   `isolation` outputs.
#
#   python -m pip install . && sh .github/scripts/packaged_cli_smoke.sh
set -eu
checkout=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
unset SUSCAV_CONFIG_DIR PYTHONPATH || true

module=$(python -c 'import suscav; print(suscav.__file__)')
case "$module" in
  "$checkout"/*)
    echo "suscav is imported from the checkout ($module), not installed" >&2
    exit 1 ;;
esac
echo "suscav from $module"

cases="$checkout/tests/cli_cases.py"
python "$cases" run1
python "$cases" run2
diff -r run1 run2
taskset -c 0 python "$cases" serial
diff -r run1 serial

# the installed writer against its definition at full size
python - run1/paper_default-terms_off-budget-100000/out/budget.csv \
  run1/paper_default-terms_off-budget-100000/out/budget_rms.csv <<'PY'
import sys
for path in sys.argv[1:]:
    with open(path) as fh:
        next(fh)
        for line_no, line in enumerate(fh, 2):
            for tok in line.rstrip("\n").split(","):
                if "%.17g" % float(tok) != tok:
                    sys.exit(f"{path}:{line_no}: {tok!r} is not its %.17g text")
PY

# one seeded 3e4-row ground CSV written with LF and with CRLF line ends:
# the reader's kernel takes the first and np.loadtxt the second, and
# `isolation` must write the same bytes from both
python - <<'PY'
import json, math, random
from importlib.resources import files
rng = random.Random(2024)
rows = []
for i in range(30000):
    f = 0.02 * math.exp(i * math.log(2e6) / 29999)
    rows.append("%.17g,%.17g" % (f, 1e-7 * min(1.0, (1.3 / f) ** 2) * math.exp(rng.gauss(0, 0.25))))
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
    with open(f"ground_{name}.csv", "w", newline="") as fh:
        fh.write(newline.join(["frequency_hz,asd_m_rthz"] + rows) + newline)
    cfg["isolation"]["ground"] = {"csv": f"ground_{name}.csv"}
    with open(f"ground_{name}.json", "w") as fh:
        json.dump(cfg, fh)
PY
for name in lf crlf; do
  suscav isolation --config "ground_$name.json" --out "ground/$name"
done
diff -r ground/lf ground/crlf

echo "packaged CLI smoke test: $(ls run1 | wc -l) CLI cases pass, identical across two" \
  "runs and on one CPU; the full-size budget is its %.17g text; LF and CRLF ground" \
  "files give the same isolation output"
