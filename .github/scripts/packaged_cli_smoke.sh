#!/bin/sh
# Smoke test of an installed (non-editable) suscav, run from a directory
# outside the checkout: every command on every shipped config, named rather
# than given as a path so the configs must have been packaged, a budget on a
# 1e5-point grid (above 16,384 points numpy evaluates some expressions in
# place), one on 20001 points (not a whole number of the budget's blocks)
# and one on 1e5 points with two budget.include terms off (zero columns),
# twice; the two output trees must be byte-identical, and so must the 1e5
# budget run on one CPU with `taskset`, which writes it in one process; each
# run's manifest.json must list exactly the other files of its directory, and
# every number of the terms-off budget's two CSVs must be its own "%.17g"
# text.  A
# copy of paper_default with a misspelled key must fail with one hinted line,
# one that sets the retired cavity.input_power_w with one line saying why,
# a budget on a grid too high for its summary must fail with one line before
# its first block and leave no output directory and no staging file, a
# default `quantum` must print one stderr line, the free-mass warning, and
# one on a grid whose noise overflows must exit 2 and print only its
# numerical error, and
# a copy whose ground CSV file is absent must run the commands that do not
# read it and fail `isolation`, which does, with one line and no output.
# One seeded ground CSV written with LF and with CRLF line ends, read by the
# reader's kernel and by np.loadtxt, must give byte-identical `isolation`
# outputs.
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

# paper_default with the acoustic and pll terms switched off
python - terms_off.json <<'PY'
import json, sys
from importlib.resources import files
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
cfg.setdefault("budget", {}).setdefault("include", {}).update(acoustic=False, pll=False)
with open(sys.argv[1], "w") as fh:
    json.dump(cfg, fh)
PY

for run in 1 2; do
  for config in paper_default cryo_projection sql_design; do
    for command in budget suspension-tf isolation quantum; do
      suscav "$command" --config "$config" --out "run$run/$config/$command"
    done
  done
  suscav budget --grid 0.1,1e4,100000 --out "run$run/budget-1e5"
  suscav budget --grid 0.1,1e4,20001 --out "run$run/budget-20001"
  suscav budget --config terms_off.json --grid 0.1,1e4,100000 \
    --out "run$run/budget-1e5-terms-off"
done
diff -r run1 run2

# the 1e5 budget once more on one CPU, where one process writes it: the same
# bytes as the default run, which splits it between two processes when it
# may use two CPUs
taskset -c 0 suscav budget --grid 0.1,1e4,100000 --out serial/budget-1e5
[ "$(ls run1/budget-1e5)" = "$(ls serial/budget-1e5)" ]
for name in $(ls run1/budget-1e5); do
  cmp "run1/budget-1e5/$name" "serial/budget-1e5/$name"
done

# every run's manifest lists exactly the other files of its directory
python - run1 <<'PY'
import json, os, sys
for top, _, names in os.walk(sys.argv[1]):
    if names:
        with open(os.path.join(top, "manifest.json")) as fh:
            listed = sorted(json.load(fh)["files"].values())
        if listed != sorted(set(names) - {"manifest.json"}):
            sys.exit(f"{top}: manifest lists {listed}, the directory holds {sorted(names)}")
PY

# the installed writer against its definition at full size, over the zero
# columns of the terms switched off and the flat pll column
python - run1/budget-1e5-terms-off/budget.csv run1/budget-1e5-terms-off/budget_rms.csv <<'PY'
import sys
for path in sys.argv[1:]:
    with open(path) as fh:
        next(fh)
        for line_no, line in enumerate(fh, 2):
            for tok in line.rstrip("\n").split(","):
                if "%.17g" % float(tok) != tok:
                    sys.exit(f"{path}:{line_no}: {tok!r} is not its %.17g text")
PY

# a copy of paper_default with one misspelled key: exit 1, one hinted line
python - misspelled.json <<'PY'
import json, sys
from importlib.resources import files
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
cfg["thermal"]["temprature_k"] = cfg["thermal"].pop("temperature_k")
with open(sys.argv[1], "w") as fh:
    json.dump(cfg, fh)
PY
code=0
suscav budget --config misspelled.json --out misspelled 2>misspelled.err || code=$?
if [ "$code" != 1 ] || [ "$(wc -l <misspelled.err)" -ne 1 ] \
    || ! grep -q "did you mean" misspelled.err; then
  echo "misspelled key: want exit 1 and one 'did you mean' line, got exit $code:" >&2
  cat misspelled.err >&2
  exit 1
fi
# a copy of paper_default that sets the retired cavity.input_power_w: exit 1,
# one config error line that says why
python - retired.json <<'PY'
import json, sys
from importlib.resources import files
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
cfg["cavity"]["input_power_w"] = 0.000128
with open(sys.argv[1], "w") as fh:
    json.dump(cfg, fh)
PY
code=0
suscav budget --config retired.json --out retired 2>retired.err || code=$?
if [ "$code" != 1 ] || [ "$(wc -l <retired.err)" -ne 1 ] \
    || ! grep -q "^suscav: config error: .*retired, it was never read" retired.err; then
  echo "retired key: want exit 1 and one 'retired, it was never read' config error" \
    "line, got exit $code:" >&2
  cat retired.err >&2
  exit 1
fi

# a budget whose grid starts above 0.5 Hz fails before its first block: exit
# 1 with one stderr line, the config error and no warning before it, no
# output and no staging file
code=0
suscav budget --grid 1,1e4,100 --out failed 2>failed.err || code=$?
staged=$(find . -name '.suscav-staging-*')
if [ "$code" != 1 ] || [ "$(wc -l <failed.err)" -ne 1 ] \
    || ! grep -q "^suscav: config error: " failed.err \
    || [ -e failed ] || [ -n "$staged" ]; then
  echo "failing budget: want exit 1, one config error line, no 'failed' directory" \
    "and no staging file, got exit $code and staging '$staged':" >&2
  cat failed.err >&2
  exit 1
fi
# a command warns once its results are computed: a default quantum run prints
# the free-mass warning alone, one whose noise overflows only its numerical
# error
suscav quantum --out quantum 2>quantum.err
if [ "$(wc -l <quantum.err)" -ne 1 ] || ! grep -qxF "suscav: warning: grid extends to 0.1 Hz,\
 below the free-mass validity floor of 10 Hz; results there are indicative only" quantum.err; then
  echo "default quantum: want one stderr line, the free-mass warning, got:" >&2
  cat quantum.err >&2
  exit 1
fi
code=0
suscav quantum --grid 0.1,1e308,100 --out quantum-failed 2>quantum-failed.err || code=$?
if [ "$code" != 2 ] || [ "$(wc -l <quantum-failed.err)" -ne 1 ] \
    || ! grep -q "^suscav: numerical error: " quantum-failed.err; then
  echo "overflowing quantum: want exit 2 and one numerical error line, got exit $code:" >&2
  cat quantum-failed.err >&2
  exit 1
fi
# a copy of paper_default whose ground CSV file is absent: suspension-tf and
# quantum do not read it and run; isolation exits 1 with one line naming it
# and leaves no output directory
python - absent.json <<'PY'
import json, sys
from importlib.resources import files
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
cfg["isolation"]["ground"] = {"csv": "absent_ground.csv"}
with open(sys.argv[1], "w") as fh:
    json.dump(cfg, fh)
PY
for command in suspension-tf quantum; do
  suscav "$command" --config absent.json --out "absent/$command"
done
code=0
suscav isolation --config absent.json --out absent/isolation 2>absent.err || code=$?
if [ "$code" != 1 ] || [ "$(wc -l <absent.err)" -ne 1 ] \
    || ! grep -q "absent_ground.csv" absent.err || [ -e absent/isolation ]; then
  echo "absent ground file: want isolation to exit 1 with one line naming it and" \
    "no output directory, got exit $code:" >&2
  cat absent.err >&2
  exit 1
fi
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

echo "packaged CLI smoke test: $(find run1 -type f | wc -l) files, identical across runs" \
  "and listed by their manifests; a misspelled key exits 1 with a hint" \
  "and a retired key with its reason;" \
  "a failing command writes nothing and warns of nothing; an absent input file" \
  "fails only the command that reads it; LF and CRLF ground files give the same" \
  "isolation output"
