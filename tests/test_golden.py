"""Every case of tests/cli_cases.json, run in process, each in its own
working directory: its exit code, its stderr lines, and its outputs
against the digest committed in tests/golden/ where one is kept;
`tests/golden/update.py` regenerates the digests.  Also the table
itself, against the shipped configs, the commands and tests/golden/.

A sampled value, or a number in a stderr line, must keep its bits or
move by at most RTOL relative; zeros compare exactly.  The sha256 of
each file is stored as information only, since numpy's transcendental
functions may differ in the last bit across versions and CPUs.
"""

import os
from importlib.resources import files

import pytest

import cli_cases
from suscav.cli import COMMANDS


@pytest.mark.parametrize("name", sorted(cli_cases.CASES))
def test_outputs_match_committed_digest(name, tmp_path):
    case = cli_cases.CASES[name]
    problems = cli_cases.check(case, tmp_path, *cli_cases.run_in_process(case, tmp_path))
    assert not problems, f"{name}: {problems}"


def table_problems(table, golden_dir):
    """What is wrong with a table of cases and a directory of digests."""
    names = [case["name"] for case in table]
    problems = [f"{name}: named twice" for name in sorted({n for n in names if names.count(n) > 1})]
    configs = sorted(p.name[:-len(".json")] for p in files("suscav").joinpath("configs").iterdir()
                     if p.name.endswith(".json"))
    problems += [f"{config} {command}: no case" for config in configs for command in COMMANDS
                 if not any(case["config"] == config and not case["patch"]
                            and case["argv"] == [command] for case in table)]
    problems += [f"{case['name']}: a kept case exits {case['exit']}" for case in table
                 if case["golden"] and case["exit"] != 0]
    kept = {f"{case['name']}.json" for case in table if case["golden"]}
    present = {name for name in os.listdir(golden_dir)
               if os.path.isfile(os.path.join(golden_dir, name))} - {"update.py"}
    problems += [f"{name}: no digest" for name in sorted(kept - present)]
    problems += [f"{name}: no kept case" for name in sorted(present - kept)]
    return problems


def test_table_covers_every_command_and_digest():
    assert table_problems(cli_cases.TABLE, cli_cases.GOLDEN) == []


def test_table_guard_names_what_is_wrong(tmp_path):
    for name in os.listdir(cli_cases.GOLDEN):
        (tmp_path / name).touch()
    (tmp_path / "retired-case.json").touch()
    (tmp_path / "paper_default-budget.json").unlink()
    table = [dict(case, exit=2) if case["name"] == "paper_default-budget" else
             dict(case, patch={"thermal.temperature_k": 4.0}) if case["name"] == "sql_design-quantum"
             else case for case in cli_cases.TABLE]
    assert table_problems([*table, table[1]], tmp_path) == [
        f"{table[1]['name']}: named twice",
        "sql_design quantum: no case",
        "paper_default-budget: a kept case exits 2",
        "paper_default-budget.json: no digest",
        "retired-case.json: no kept case",
    ]


def test_digest_comparison(tmp_path):
    (tmp_path / "a.csv").write_text("f,x\n1,0\n2,0.5\n3,-0\n")
    (tmp_path / "s.json").write_text('{"rms": 0.25, "note": "unbounded"}')
    want = cli_cases.digest(str(tmp_path))
    assert cli_cases.changes(want, want) == {}

    def moved(name, text):
        (tmp_path / name).write_text(text)
        return cli_cases.changes(want, cli_cases.digest(str(tmp_path))).get(name)

    assert moved("a.csv", "f,x\n1,0\n2,0.50000000000000011\n3,-0\n") == pytest.approx(2.2e-16, rel=0.01)
    assert moved("a.csv", "f,x\n1,1e-300\n2,0.5\n3,-0\n") == float("inf")     # zeros are exact
    assert moved("a.csv", "f,x\n1,0\n2,0.5\n3,0\n") == float("inf")
    assert moved("a.csv", "f,y\n1,0\n2,0.5\n3,-0\n") == float("inf")
    assert moved("a.csv", "f,x\n1,0\n2,0.5\n") == float("inf")
    (tmp_path / "a.csv").write_text("f,x\n1,0\n2,0.5\n3,-0\n")
    assert moved("s.json", '{"rms": 0.25, "note": "bounded"}') == float("inf")
    assert moved("s.json", '{"rms": 0.5, "note": "unbounded"}') == 1.0


def test_stderr_line_comparison():
    line = "suscav: numerical error: asd contains non-finite values: inf m/rtHz (at 1.41747e+80 Hz)"
    assert cli_cases.line_change(line, line) == 0.0
    assert cli_cases.line_change(line, line.replace("1.41747e+80", "1.41747e80")) == 0.0
    assert cli_cases.line_change(line, line.replace("1.41747e+80", "1.41748e+80")) == (
        pytest.approx(7.1e-6, rel=0.01))
    assert cli_cases.line_change(line, line.replace("inf", "nan")) == float("inf")
    assert cli_cases.line_change("at 0 Hz", "at 1e-300 Hz") == float("inf")     # zeros are exact
    assert cli_cases.line_change("in 3 blocks", "in 3 blocks, 2 left") == float("inf")
