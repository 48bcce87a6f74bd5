#!/bin/sh
# Smoke test of an installed (non-editable) suscav, run from a directory
# outside the checkout: every command on every shipped config, named rather
# than given as a path so the configs must have been packaged, a budget on a
# 1e5-point grid (above 16,384 points numpy evaluates some expressions in
# place), one on 20001 points (not a whole number of the budget's blocks)
# and one on 1e5 points with two budget.include terms off (zero columns) and
# the ISS off (the two intensity columns swap roles), and one with the active
# isolation off (the passive platform), twice; the two output
# trees must be byte-identical, and so must the two 1e5 budget runs on one
# CPU with `taskset`, which writes each in one process; each run's
# manifest.json must list exactly the other files of its directory, and
# every number of the terms-off budget's two CSVs must be its own "%.17g"
# text.  A copy of paper_default with a misspelled key must fail with one
# hinted line, one that sets the retired cavity.input_power_w with one line
# saying why, one that sets the retired cavity.mirror_mass_kg with one line
# naming suspension.final_stage.mass_kg,
# a budget on a grid too high for its summary must fail with one line before
# its first block and leave no output directory and no staging file, a copy
# with the servo gain negated must fail `budget` with one line naming the
# unstable loop and no output directory, and run `isolation`, which reports
# the loop unstable, a
# default `quantum` must print one stderr line, the free-mass warning, and
# one on a grid whose noise overflows, and one on a copy whose kappa = 1
# frequency overflows (quantum.circulating_power_w 1e296, on a grid from
# 100 Hz where its noise is finite), must each exit 2, print only its
# numerical error and leave no output directory, a copy whose cavity is
# short (cavity.length_m 1e-80) must give its kappa = 1 frequency, whose
# closed form once cancelled to nothing,
# `quantum --config paper_default --out paper_default` must
# run twice (a directory named like a config is not a config), `quantum` on a
# grid above 100 Hz must give the default run's 100 Hz SQL text, `isolation`
# on a grid above 0.5 Hz must write no 0.5-50 Hz RMS, and
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

# paper_default with the acoustic and pll terms and the ISS switched off
python - terms_off.json <<'PY'
import json, sys
from importlib.resources import files
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
cfg.setdefault("budget", {}).setdefault("include", {}).update(acoustic=False, pll=False)
cfg["intensity"]["iss"]["enabled"] = False
with open(sys.argv[1], "w") as fh:
    json.dump(cfg, fh)
PY
# paper_default with the active isolation off, and with the servo gain negated
python - <<'PY'
import json
from importlib.resources import files
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
iso = cfg["isolation"]
servo = dict(iso["servo"], gain=-iso["servo"]["gain"])
for name, changed in (("passive", {"active": False}), ("unstable", {"servo": servo})):
    with open(f"{name}.json", "w") as fh:
        json.dump(dict(cfg, isolation=dict(iso, **changed)), fh)
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
  suscav budget --config passive.json --out "run$run/budget-passive"
done
diff -r run1 run2

# the 1e5 budgets once more on one CPU, where one process writes each: the
# same bytes as the default runs, which split them between two processes
# when they may use two CPUs
taskset -c 0 suscav budget --grid 0.1,1e4,100000 --out serial/budget-1e5
taskset -c 0 suscav budget --config terms_off.json --grid 0.1,1e4,100000 \
  --out serial/budget-1e5-terms-off
for run in budget-1e5 budget-1e5-terms-off; do
  [ "$(ls "run1/$run")" = "$(ls "serial/$run")" ]
  for name in $(ls "run1/$run"); do
    cmp "run1/$run/$name" "serial/$run/$name"
  done
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
# columns of the terms switched off and the ISS-off intensity columns
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
# copies of paper_default that set a retired cavity key: exit 1, one config
# error line with the reason, that cavity.input_power_w was never read and
# that the mass cavity.mirror_mass_kg gave is suspension.final_stage.mass_kg
python - <<'PY'
import json
from importlib.resources import files
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
for key, value in (("input_power_w", 0.000128), ("mirror_mass_kg", 0.01)):
    with open(f"retired_{key}.json", "w") as fh:
        json.dump(dict(cfg, cavity=dict(cfg["cavity"], **{key: value})), fh)
PY
for key in input_power_w mirror_mass_kg; do
  case $key in
    input_power_w) reason="retired, it was never read" ;;
    mirror_mass_kg) reason="retired, .*suspension\.final_stage\.mass_kg" ;;
  esac
  code=0
  suscav budget --config "retired_$key.json" --out "retired_$key" 2>retired.err || code=$?
  if [ "$code" != 1 ] || [ "$(wc -l <retired.err)" -ne 1 ] \
      || ! grep -q "^suscav: config error: cavity: unknown key '$key' ($reason" retired.err; then
    echo "retired cavity.$key: want exit 1 and one config error line matching" \
      "'$reason', got exit $code:" >&2
    cat retired.err >&2
    exit 1
  fi
done

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
# an unstable isolation loop: budget exits 1 with one config error line and
# writes nothing; isolation exits 0 and reports the loop unstable
code=0
suscav budget --config unstable.json --out unstable 2>unstable.err || code=$?
if [ "$code" != 1 ] || [ "$(wc -l <unstable.err)" -ne 1 ] \
    || ! grep -qxF "suscav: config error: the horizontal isolation loop is unstable" unstable.err \
    || [ -e unstable ]; then
  echo "unstable loop: want budget to exit 1 with one config error line and no" \
    "output directory, got exit $code:" >&2
  cat unstable.err >&2
  exit 1
fi
suscav isolation --config unstable.json --out unstable-isolation
if ! grep -q '"closed_loop_stable": false' unstable-isolation/isolation_summary.json; then
  echo "unstable loop: want isolation to report closed_loop_stable false, got:" >&2
  cat unstable-isolation/isolation_summary.json >&2
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
python - <<'PY'
import json
from importlib.resources import files
cfg = json.loads(files("suscav").joinpath("configs", "paper_default.json").read_text())
for name, section, key, value in (("short", "cavity", "length_m", 1e-80),
                                  ("powerful", "quantum", "circulating_power_w", 1e296)):
    with open(f"{name}.json", "w") as fh:
        json.dump(dict(cfg, **{section: dict(cfg[section], **{key: value})}), fh)
PY
for run in grid powerful; do
  code=0
  case $run in
    grid) suscav quantum --grid 0.1,1e308,100 --out quantum-failed 2>quantum-failed.err || code=$? ;;
    powerful) suscav quantum --config powerful.json --grid 100,1e4,10 --out quantum-failed \
      2>quantum-failed.err || code=$? ;;
  esac
  if [ "$code" != 2 ] || [ "$(wc -l <quantum-failed.err)" -ne 1 ] \
      || ! grep -q "^suscav: numerical error: " quantum-failed.err || [ -e quantum-failed ]; then
    echo "overflowing quantum ($run): want exit 2, one numerical error line and no" \
      "output directory, got exit $code:" >&2
    cat quantum-failed.err >&2
    exit 1
  fi
done
suscav quantum --config short.json --out quantum-short
if ! grep -q '"kappa_unity_hz": 1046\.90880979' quantum-short/quantum_summary.json; then
  echo "short cavity: want kappa_unity_hz 1046.90880979..., got:" >&2
  cat quantum-short/quantum_summary.json >&2
  exit 1
fi
# the output directory of one run, named like the config, is not read as the
# config by the next
for run in 1 2; do
  suscav quantum --config paper_default --out paper_default
done
# a value named for a frequency is taken there on any grid; a band value
# is left out when the grid does not cover the band
suscav quantum --grid 200,1e4,50 --out quantum-200
sql_100='"sql_asd_at_100_hz_m_rthz": [^,]*'
want=$(grep -o "$sql_100" quantum/quantum_summary.json || true)
if [ -z "$want" ] || [ "$(grep -o "$sql_100" quantum-200/quantum_summary.json || true)" != "$want" ]; then
  echo "quantum on 200 Hz-10 kHz: want the default run's 100 Hz SQL text, got:" >&2
  grep sql_asd quantum-200/quantum_summary.json quantum/quantum_summary.json >&2
  exit 1
fi
suscav isolation --grid 60,1e4,100 --out isolation-60
if grep -q '"rms_[a-z]*_0p5_50hz"' isolation-60/isolation_summary.json; then
  echo "isolation on 60 Hz-10 kHz: want no 0.5-50 Hz RMS, got:" >&2
  cat isolation-60/isolation_summary.json >&2
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
  "and a retired key with its reason; an unstable loop fails budget alone;" \
  "100 Hz values are the same on any grid and band values absent off the band;" \
  "a failing command writes nothing and warns of nothing; a short cavity has its" \
  "kappa = 1 frequency; an absent input file" \
  "fails only the command that reads it; LF and CRLF ground files give the same" \
  "isolation output"
