"""Reduced-size smoke test of the benchmark harness.

    python -m pytest perfbench/check_smoke.py -q

The file name matches neither ``test_*.py`` nor ``*_test.py``, so the
repository's own test run does not collect it; name it explicitly.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_names_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    record = json.loads(record_line)["record"]
    assert record["seed"] == 7 and record["output_ok"] == 1.0
    assert record.get("unmeasured", []) == []


def test_same_seed_gives_same_inputs(tmp_path):
    def generate(name, seed):
        work = tmp_path / f"{name}-{seed}"
        plan = workloads.plan("ingest-1e4", seed, ROOT, str(work), smoke=True)
        files = {p.name: p.read_bytes() for p in sorted(work.glob("*.csv"))}
        return json.dumps(plan).replace(str(work), "WORK"), files

    assert generate("a", 3) == generate("b", 3)
    assert generate("a", 3)[1] != generate("c", 4)[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "ingest-1e4", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_name_is_unmeasured_and_uninstall_restores(monkeypatch):
    import suscav.cli
    import suscav.scenario

    monkeypatch.delattr(suscav.scenario, "_write_csv")
    original = suscav.cli.COMMANDS["budget"]
    tracer = Tracer()
    tracer.install()
    try:
        assert suscav.cli.COMMANDS["budget"] is not original
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == ["suscav.scenario:_write_csv"]
    assert suscav.cli.COMMANDS["budget"] is original
    assert isinstance(suscav.scenario.Scenario.__dict__["from_dict"], classmethod)
