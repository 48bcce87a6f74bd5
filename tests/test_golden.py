"""Every command's outputs on the shipped configs against the digests
committed in tests/golden/; `tests/golden/update.py` regenerates them.

A sampled value must keep its bits or move by at most RTOL relative;
zeros compare exactly.  The sha256 of each file is stored as
information only, since numpy's transcendental functions may differ in the
last bit across versions and CPUs.
"""

import importlib.util
import json
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_update", os.path.join(os.path.dirname(__file__), "golden", "update.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RTOL = 1e-12


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_outputs_match_committed_digest(case, tmp_path):
    with open(golden.golden_path(case)) as fh:
        want = json.load(fh)
    assert (want["command"], want["config"], want["grid"]) == golden.CASES[case]
    out = str(tmp_path / "out")
    assert golden.run_case(case, out) == 0
    moved = {name: worst for name, worst in golden.changes(want["files"], golden.digest(out)).items()
             if worst > RTOL}
    assert not moved, f"{case}: largest relative change of each moved file: {moved}"


def test_digest_comparison(tmp_path):
    (tmp_path / "a.csv").write_text("f,x\n1,0\n2,0.5\n3,-0\n")
    (tmp_path / "s.json").write_text('{"rms": 0.25, "note": "unbounded"}')
    want = golden.digest(str(tmp_path))
    assert golden.changes(want, want) == {}

    def moved(name, text):
        (tmp_path / name).write_text(text)
        return golden.changes(want, golden.digest(str(tmp_path))).get(name)

    assert moved("a.csv", "f,x\n1,0\n2,0.50000000000000011\n3,-0\n") == pytest.approx(2.2e-16, rel=0.01)
    assert moved("a.csv", "f,x\n1,1e-300\n2,0.5\n3,-0\n") == float("inf")     # zeros are exact
    assert moved("a.csv", "f,x\n1,0\n2,0.5\n3,0\n") == float("inf")
    assert moved("a.csv", "f,y\n1,0\n2,0.5\n3,-0\n") == float("inf")
    assert moved("a.csv", "f,x\n1,0\n2,0.5\n") == float("inf")
    (tmp_path / "a.csv").write_text("f,x\n1,0\n2,0.5\n3,-0\n")
    assert moved("s.json", '{"rms": 0.25, "note": "bounded"}') == float("inf")
    assert moved("s.json", '{"rms": 0.5, "note": "unbounded"}') == 1.0
