import filecmp
import functools
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from suscav.cli import COMMANDS, main, parse_grid, resolve_config
from suscav.errors import ConfigError
from suscav.quantum import FreeMassValidityWarning, sql_psd
from suscav.scenario import (
    AT,
    BAND,
    BUDGET_BLOCK_ROWS,
    CONFIG,
    GRID,
    MODEL,
    SUMMARY,
    TERMS,
    Scenario,
    _split_row,
    _write_split,
    assemble_budget,
    load_config,
    load_scenario,
    run_budget,
    run_isolation,
    run_quantum_design,
    run_suspension_tf,
)
from suscav.spectra import (
    MAX_GRID_POINTS,
    FrequencyGrid,
    Spectrum,
    make_log_grid,
    read_budget_csv,
)
from suscav.suspension import (
    tf_suspoint_to_differential,
    tf_suspoint_to_mirror,
)


@pytest.fixture(autouse=True)
def quiet_free_mass():
    # the default grid starts below the free-mass floor by design
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FreeMassValidityWarning)
        yield


def _write_asd_csv(path, column, f, asd):
    np.savetxt(path, np.column_stack([f, asd]), fmt="%.17g", delimiter=",",
               header=f"frequency_hz,{column}", comments="")


@pytest.fixture(scope="session")
def csv_inputs(tmp_path_factory):
    """paper_default with its ground and RIN read from measured-looking CSV
    files of a few thousand noisy rows: (config path, ground file, RIN file)."""
    work = tmp_path_factory.mktemp("csv_inputs")
    rng = np.random.default_rng(12)
    ground, rin = work / "ground.csv", work / "rin.csv"
    f = np.geomspace(0.03, 3e4, 3001)
    noise = np.exp(rng.normal(0.0, 0.25, (2, f.size)))
    _write_asd_csv(ground, "asd_m_rthz", f, 1e-7 * np.minimum(1.0, (1.3 / f) ** 2) * noise[0])
    _write_asd_csv(rin, "rin_per_rthz", f[::-1], 2e-4 * (1.0 + 40.0 / f[::-1]) * noise[1])
    cfg = load_config(resolve_config("paper_default"))
    cfg["isolation"]["ground"] = {"csv": str(ground)}
    cfg["intensity"]["rin_per_rthz"] = {"csv": str(rin)}
    path = work / "csv_inputs.json"
    path.write_text(json.dumps(cfg))
    return str(path), str(ground), str(rin)


@pytest.mark.parametrize("name", ["paper_default", "sql_design", "cryo_projection"])
def test_shipped_configs_load(name):
    scenario = load_scenario(resolve_config(name))
    assert len(scenario.grid) == 1000


def test_missing_section_reported():
    with pytest.raises(ConfigError, match="cavity"):
        Scenario.from_dict({"grid": {"fmin_hz": 1, "fmax_hz": 10, "n": 4}})


def test_missing_key_reported(config_factory):
    cfg = config_factory()
    del cfg["cavity"]["length_m"]
    with pytest.raises(ConfigError, match="length_m"):
        Scenario.from_dict(cfg)


def test_budget_csv_roundtrip_exact(default_scenario, tmp_path):
    run_budget(default_scenario, tmp_path)
    budget = assemble_budget(default_scenario)
    grid, columns = read_budget_csv(tmp_path / "budget.csv")
    assert np.array_equal(grid.values, default_scenario.grid.values)
    for name, s in budget.components.items():
        assert np.array_equal(columns[name], s.asd)
    assert np.array_equal(columns["total"], budget.total.asd)


def test_budget_components_present(default_scenario, tmp_path):
    run_budget(default_scenario, tmp_path)
    budget = assemble_budget(default_scenario)
    assert set(budget.components) == {
        "seismic", "suspension_thermal", "intensity_rp_iss_on", "adc", "pll",
        "acoustic", "quantum_total", "sql",
    }
    assert set(budget.references) == {"intensity_rp_iss_off"}
    for name in ("budget.csv", "budget_rms.csv", "budget_summary.json", "manifest.json"):
        assert (tmp_path / name).exists()


def test_all_sources_disabled_total_is_sql(config_factory):
    cfg = config_factory()
    cfg["budget"] = {"include": {k: False for k in
                                 ("seismic", "thermal", "intensity", "adc",
                                  "pll", "acoustic", "quantum")}}
    budget = assemble_budget(Scenario.from_dict(cfg))
    assert np.allclose(budget.total.asd, budget.components["sql"].asd, rtol=1e-15)


def test_iss_toggle_raises_band(config_factory):
    cfg_on = config_factory()
    cfg_off = config_factory()
    cfg_off["intensity"]["iss"]["enabled"] = False
    total_on = assemble_budget(Scenario.from_dict(cfg_on)).total
    total_off = assemble_budget(Scenario.from_dict(cfg_off)).total
    f = total_on.grid.values
    band = (f >= 30.0) & (f <= 100.0)
    ratio = total_off.asd[band] / total_on.asd[band]
    assert 2.5 <= ratio.max() <= 6.0
    assert np.all(total_off.asd >= total_on.asd - 1e-30)


@pytest.mark.parametrize("iss", [True, False])
def test_iss_choice_sets_column_roles_and_order(config_factory, tmp_path, iss):
    cfg = config_factory()
    cfg["intensity"]["iss"]["enabled"] = iss
    scenario = Scenario.from_dict(cfg, grid_override=make_log_grid(0.1, 1e4, 50))
    run_budget(scenario, tmp_path)
    budget = assemble_budget(scenario)
    on, off = "intensity_rp_iss_on", "intensity_rp_iss_off"
    active, inactive = (on, off) if iss else (off, on)
    # the README order: the active intensity column third, the other last
    expected = ["seismic", "suspension_thermal", active, "adc", "pll", "acoustic",
                "quantum_total", "sql"]
    assert list(budget.components) == expected
    assert list(budget.references) == [inactive]
    header = (tmp_path / "budget.csv").read_text().splitlines()[0].split(",")
    assert header == ["frequency_hz"] + expected + [inactive, "total"]
    traces = json.loads((tmp_path / "manifest.json").read_text())["traces"]
    assert [(t["column"], t["in_total"]) for t in traces] == (
        [(c, True) for c in expected] + [(inactive, False), ("total", False)])


@pytest.mark.parametrize("part, columns", [
    ("seismic", ["seismic"]),
    ("thermal", ["suspension_thermal"]),
    ("intensity", ["intensity_rp_iss_on", "intensity_rp_iss_off"]),
    ("adc", ["adc"]),
    ("pll", ["pll"]),
    ("acoustic", ["acoustic"]),
    ("quantum", ["quantum_total"]),
])
def test_switched_off_part_is_zero_and_leaves_the_rest(config_factory, part, columns):
    grid = make_log_grid(0.1, 1e4, 200)

    def traces(cfg):
        budget = assemble_budget(Scenario.from_dict(cfg, grid_override=grid))
        return {name: s.asd for name, s in {**budget.components, **budget.references}.items()}

    full = traces(config_factory())
    cfg = config_factory()
    cfg["budget"] = {"include": {part: False}}
    reduced = traces(cfg)
    assert list(reduced) == list(full)
    for name in full:
        if name in columns:
            assert np.all(reduced[name] == 0.0), name
        else:
            assert reduced[name].tobytes() == full[name].tobytes(), name


class _Log:
    """Items appended to a file, one JSON line each, so that a forked budget
    writer's calls are recorded too."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def append(self, item):
        with open(self.path, "a") as fh:
            fh.write(json.dumps(item) + "\n")

    def read(self):
        return [tuple(item) if isinstance(item, list) else item
                for item in map(json.loads, self.path.read_text().splitlines())]


def _counting(monkeypatch, tmp_path):
    """Record every model build (axis) and tree solve (axis, forced)."""
    import suscav.scenario
    import suscav.suspension

    builds, solves = _Log(tmp_path / "builds.log"), _Log(tmp_path / "solves.log")
    build, solve = suscav.suspension.build_model, suscav.suspension._tree_solve

    def counted_build(chain, axis):
        builds.append(axis)
        return build(chain, axis)

    def counted_solve(model, grid, *args, **kwargs):
        solves.append((model.axis, kwargs.get("force_at") is not None))
        return solve(model, grid, *args, **kwargs)

    for module in (suscav.scenario, suscav.suspension):
        monkeypatch.setattr(module, "build_model", counted_build)
    monkeypatch.setattr(suscav.suspension, "_tree_solve", counted_solve)
    return builds, solves


def test_budget_builds_and_solves_each_response_once(default_scenario, monkeypatch, tmp_path):
    builds, solves = _counting(monkeypatch, tmp_path)
    assemble_budget(default_scenario)
    assert sorted(builds.read()) == ["horizontal", "vertical"]
    assert sorted(solves.read()) == [
        ("horizontal", False), ("horizontal", True), ("vertical", False)]


def test_budget_makes_each_spectrum_once(config_factory, monkeypatch, tmp_path):
    """Every term on and the ISS on: the budget's arrays come from `_columns`,
    which makes no spectrum; `assemble_budget` makes one per column and one
    for the total, and `run_budget` in one process makes the same number on
    any grid (the total and its cumulative RMS).  Each call evaluates the
    ground once, and the SQL once: its own column and the quantum total
    share it."""
    import suscav.scenario

    cfg = config_factory()
    scenario = Scenario.from_dict(cfg)
    assert all(scenario.config["budget"]["include"].values())
    assert scenario.config["intensity"]["iss"]["enabled"]
    made, post_init = [], Spectrum.__post_init__
    monkeypatch.setattr(Spectrum, "__post_init__", lambda s: made.append(1) or post_init(s))
    grounds, ground_asd = [], suscav.scenario.CornerAsd.asd
    monkeypatch.setattr(suscav.scenario.CornerAsd, "asd",
                        lambda source, grid: grounds.append(1) or ground_asd(source, grid))
    sqls, sql_psd = [], suscav.scenario.qn.sql_psd
    monkeypatch.setattr(suscav.scenario.qn, "sql_psd",
                        lambda mass, grid: sqls.append(1) or sql_psd(mass, grid))
    suscav.scenario._columns(scenario, scenario.grid)
    assert (len(made), len(grounds), len(sqls)) == (0, 1, 1)
    assemble_budget(scenario)
    assert (len(made), len(grounds), len(sqls)) == (len(TERMS) + 1, 2, 2) == (10, 2, 2)
    _forking(monkeypatch, cpus={0})
    counts = []
    for n in (1000, 100_000):
        made.clear()
        run_budget(Scenario.from_dict(cfg, grid_override=make_log_grid(0.1, 1e4, n)),
                   tmp_path / str(n))
        counts.append(len(made))
    assert counts == [2, 2]


def test_suspension_tf_builds_the_model_once(default_scenario, monkeypatch, tmp_path):
    builds, solves = _counting(monkeypatch, tmp_path)
    run_suspension_tf(default_scenario, tmp_path)
    assert builds.read() == ["horizontal"]
    # on the grid, then at the slope's two frequencies
    assert solves.read() == [("horizontal", False)] * 2


def test_streamed_budget_builds_the_grid_free_parts_once(config_factory, monkeypatch,
                                                         tmp_path):
    """Counted in both processes of a split budget: the forked writer
    inherits the models, their tree plans, the open-loop platforms, the
    loop gains and the loops' stability and builds none of them."""
    import suscav.isolation
    import suscav.scenario
    import suscav.suspension

    n = 100_000
    scenario = Scenario.from_dict(config_factory(), grid_override=make_log_grid(0.1, 1e4, n))
    builds, solves = _counting(monkeypatch, tmp_path)
    roots, find_roots = _Log(tmp_path / "roots.log"), np.roots
    monkeypatch.setattr(np, "roots", lambda p: roots.append(len(p)) or find_roots(p))
    gains, gain = _Log(tmp_path / "gains.log"), suscav.isolation.loop_gain
    passives, passive = _Log(tmp_path / "passives.log"), suscav.isolation.PlatformParams.passive
    plans, plan = _Log(tmp_path / "plans.log"), suscav.suspension._tree_plan

    def counted_gain(platform, geophone, actuator, servo, axis="horizontal"):
        gains.append(axis)
        return gain(platform, geophone, actuator, servo, axis)

    for module in (suscav.isolation, suscav.scenario):
        monkeypatch.setattr(module, "loop_gain", counted_gain)
    monkeypatch.setattr(suscav.isolation.PlatformParams, "passive",
                        lambda platform, axis: passives.append(axis) or passive(platform, axis))
    monkeypatch.setattr(suscav.suspension, "_tree_plan",
                        lambda model, *key: plans.append([model.axis, *key]) or plan(model, *key))
    forks = _forking(monkeypatch, cpus={0, 1})
    run_budget(scenario, tmp_path / "b")
    assert len(forks) == 2      # one writer for each of the two CSV files
    # each block's, and the summary's at 100 Hz
    assert len(solves.read()) == 3 * (-(-n // BUDGET_BLOCK_ROWS) + 1)
    # and for every other grid the scenario is evaluated on
    assemble_budget(scenario)
    assemble_budget(scenario, FrequencyGrid(scenario.grid.values[::7]))
    assemble_budget(scenario, make_log_grid(2.0, 3.0, 5))
    run_suspension_tf(scenario, tmp_path / "s")
    run_isolation(scenario, tmp_path / "i")
    assert sorted(builds.read()) == ["horizontal", "vertical"]
    assert len(roots.read()) == 2      # each isolation loop's stability, once
    assert sorted(gains.read()) == ["horizontal", "vertical"]
    assert sorted(passives.read()) == ["horizontal", "vertical"]
    # one plan per model, root, output and leaves: the differential and the
    # force responses of the horizontal model, the mirror's of the vertical
    a, b = scenario.horizontal_model.mirror_a, scenario.horizontal_model.mirror_b
    assert sorted(plans.read()) == [("horizontal", -1, a - 1, [a, b]),
                                    ("horizontal", a, a, []),
                                    ("vertical", -1, scenario.vertical_model.mirror_a, [])]


def test_budget_never_finds_loop_crossings(default_scenario, monkeypatch, tmp_path):
    import suscav.isolation

    def refuse(*args, **kwargs):
        raise AssertionError("unity-gain crossings computed")
    monkeypatch.setattr(suscav.isolation, "_crossings", refuse)
    assemble_budget(default_scenario)
    with pytest.raises(AssertionError, match="crossings"):
        run_isolation(default_scenario, tmp_path)


@pytest.mark.parametrize("iss", [True, False])
def test_budget_computes_the_intensity_displacement_once_a_block(config_factory, monkeypatch,
                                                                  tmp_path, iss):
    """Both intensity columns come from one radiation-pressure response: one
    call for each block of both processes and one for the 100 Hz value."""
    import suscav.scenario

    cfg = config_factory()
    cfg["intensity"]["iss"]["enabled"] = iss
    n = 2 * BUDGET_BLOCK_ROWS + 100
    scenario = Scenario.from_dict(cfg, grid_override=make_log_grid(0.1, 1e4, n))
    calls, compute = _Log(tmp_path / "calls.log"), suscav.scenario.intensity_rp_displacement
    monkeypatch.setattr(suscav.scenario, "intensity_rp_displacement",
                        lambda *a, **k: calls.append(1) or compute(*a, **k))
    forks = _forking(monkeypatch, cpus={0, 1})
    run_budget(scenario, tmp_path / "b")
    assert len(forks) == 2
    assert len(calls.read()) == -(-n // BUDGET_BLOCK_ROWS) + 1


def test_switched_off_parts_skip_their_responses(config_factory, monkeypatch, tmp_path):
    cfg = config_factory()
    cfg["budget"] = {"include": {"seismic": False, "thermal": False, "intensity": False}}
    scenario = Scenario.from_dict(cfg)
    builds, solves = _counting(monkeypatch, tmp_path)
    assemble_budget(scenario)
    assert builds.read() == [] and solves.read() == []


def test_zero_mismatch_warns_and_zero_trace(config_factory, tmp_path):
    cfg = config_factory()
    cfg["suspension"]["stiffness_mismatch"] = 0.0
    scenario = Scenario.from_dict(cfg)
    with pytest.warns(UserWarning, match="mismatch"):
        h = run_suspension_tf(scenario, tmp_path)
    assert np.all(h == 0.0)


def test_suspension_tf_outputs(default_scenario, tmp_path):
    run_suspension_tf(default_scenario, tmp_path)
    summary = json.loads((tmp_path / "suspension_summary.json").read_text())
    assert all(f < 10.0 for f in summary["eigenfrequencies_hz"])
    assert summary["low_frequency_slope"] == pytest.approx(2.0, abs=0.2)
    modes = (tmp_path / "modes.csv").read_text().strip().splitlines()
    assert modes[0] == "frequency_hz,q,dominant_stage"
    assert len(modes) == 6


def test_suspension_tf_normalized_option(config_factory, tmp_path):
    cfg = config_factory()
    cfg["suspension_tf"] = {"normalize": True}
    run_suspension_tf(Scenario.from_dict(cfg), tmp_path)
    lines = (tmp_path / "suspension_tf.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[-1] == "magnitude_normalized"
    peak = max(float(line.split(",")[-1]) for line in lines[1:])
    assert peak == 1.0


def test_isolation_outputs(default_scenario, tmp_path):
    run_isolation(default_scenario, tmp_path)
    summary = json.loads((tmp_path / "isolation_summary.json").read_text())
    assert summary["closed_loop_stable"]
    assert summary["rms_reduction_ratio"] >= 5.0
    assert all(pm >= 30.0 for pm in summary["phase_margins_deg"])


def test_isolation_zero_gain_reproduces_passive(config_factory, tmp_path):
    cfg = config_factory()
    cfg["isolation"]["servo"]["gain"] = 0.0
    run_isolation(Scenario.from_dict(cfg), tmp_path)
    rows = (tmp_path / "isolation.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        _, _, passive, active = row.split(",")
        assert passive == active



def test_passive_isolation_budget_uses_the_passive_platform(config_factory):
    """With the loop off, the ground reaches the suspension through each
    axis's passive platform transmissibility."""
    grid = make_log_grid(0.1, 1e4, 200)
    cfg = config_factory()
    active = assemble_budget(Scenario.from_dict(cfg, grid_override=grid))
    cfg["isolation"]["active"] = False
    s = Scenario.from_dict(cfg, grid_override=grid)
    ground = s.ground.asd(grid)
    horiz_plat = s.platform.passive("horizontal").evaluate(grid)
    horiz_tf = tf_suspoint_to_differential(s.horizontal_model, grid)
    horiz = np.abs(horiz_plat * horiz_tf) * ground
    vert_tf = s.platform.passive("vertical").evaluate(grid) * tf_suspoint_to_mirror(
        s.vertical_model, grid)
    vert = np.abs(vert_tf) * s.chain.vertical_coupling * ground
    expected = np.sqrt(2.0 * (horiz ** 2 + vert ** 2))
    seismic = assemble_budget(s).components["seismic"].asd
    assert seismic.tobytes() == expected.tobytes()
    assert not np.array_equal(seismic, active.components["seismic"].asd)


def test_zero_circulating_power(config_factory, tmp_path, capsys):
    """No light in the cavity: no quantum noise in the budget, and no
    quantum design to report."""
    cfg = config_factory()
    cfg["quantum"]["circulating_power_w"] = 0.0
    budget = assemble_budget(Scenario.from_dict(cfg, grid_override=make_log_grid(0.1, 1e4, 200)))
    assert np.all(budget.components["quantum_total"].asd == 0.0)
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(cfg))
    code = main(["quantum", "--config", str(path), "--out", str(tmp_path / "q")])
    assert code == 1
    assert "quantum design needs a positive circulating power" in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


def test_quantum_design_self_consistency(config_factory, tmp_path):
    cfg = config_factory()
    del cfg["quantum"]["circulating_power_w"]
    cfg["quantum"]["power_for_sql_at_hz"] = 100.0
    run_quantum_design(Scenario.from_dict(cfg), tmp_path)
    summary = json.loads((tmp_path / "quantum_summary.json").read_text())
    assert summary["kappa_unity_hz"] == pytest.approx(100.0, rel=1e-2)
    assert summary["sql_asd_at_100_hz_m_rthz"] == pytest.approx(4.62e-19, rel=5e-3)
    assert summary["free_mass_floor_hz"] == 10.0
    assert summary["grid_extends_below_floor"] is True
    assert summary["power_for_sql_w"] == pytest.approx(0.1384, rel=1e-3)


@pytest.mark.parametrize("grid", [None, "0.1,1e4,20001"])
@pytest.mark.parametrize("name", ["paper_default", "cryo_projection", "sql_design"])
def test_budget_and_quantum_write_the_same_quantum_noise(tmp_path, name, grid):
    """Both commands compose the quantum noise in one way: the budget's sql
    and quantum_total columns are the quantum report's sql and total as
    written, on the shipped grid and on one of several budget blocks."""
    columns = {}
    for command in ("budget", "quantum"):
        out = tmp_path / command
        assert main([command, "--config", name, "--out", str(out),
                     *(["--grid", grid] if grid else [])]) == 0
        with open(out / f"{command}.csv") as fh:
            header = next(fh).rstrip("\n").split(",")
            rows = [line.rstrip("\n").split(",") for line in fh]
        columns[command] = dict(zip(header, zip(*rows)))
    budget, quantum = columns["budget"], columns["quantum"]
    assert budget["frequency_hz"] == quantum["frequency_hz"]
    assert budget["sql"] == quantum["sql"]
    assert budget["quantum_total"] == quantum["total"]


def test_ground_csv_ingestion(config_factory, tmp_path):
    path = tmp_path / "ground.csv"
    f = np.geomspace(0.05, 2e4, 40)
    with open(path, "w") as fh:
        fh.write("frequency_hz,asd\n")
        for fi in f:
            fh.write(f"{fi},{2e-7 / fi ** 2}\n")
    cfg = config_factory()
    cfg["isolation"]["ground"] = {"csv": str(path)}
    scenario = Scenario.from_dict(cfg)
    g = scenario.grid.values
    assert np.allclose(scenario.ground.asd(scenario.grid), 2e-7 / g ** 2, rtol=1e-6)


def test_rin_csv_ingestion(config_factory, tmp_path):
    path = tmp_path / "rin.csv"
    with open(path, "w") as fh:
        fh.write("frequency_hz,rin_per_rtHz\n")
        fh.write("0.01,1e-4\n")
        fh.write("20000,1e-4\n")
    cfg = config_factory()
    cfg["intensity"]["rin_per_rthz"] = {"csv": str(path)}
    scenario = Scenario.from_dict(cfg)
    assert np.allclose(scenario.rin.asd(scenario.grid), 1e-4, rtol=1e-9)


def test_all_emitted_csvs_reparse_losslessly(default_scenario, tmp_path):
    from suscav.spectra import CSV_FORMAT
    run_budget(default_scenario, tmp_path)
    run_isolation(default_scenario, tmp_path)
    run_quantum_design(default_scenario, tmp_path)
    run_suspension_tf(default_scenario, tmp_path)
    for name in sorted(os.listdir(tmp_path)):
        if not name.endswith(".csv") or name == "modes.csv":
            continue
        lines = (tmp_path / name).read_text().strip().splitlines()
        for line in lines[1:]:
            for token in line.split(","):
                assert CSV_FORMAT % float(token) == token, (name, token)


def test_emitted_csvs_end_lines_with_lf(default_scenario, tmp_path):
    run_budget(default_scenario, tmp_path)
    run_isolation(default_scenario, tmp_path)
    run_quantum_design(default_scenario, tmp_path)
    run_suspension_tf(default_scenario, tmp_path)
    names = [n for n in sorted(os.listdir(tmp_path)) if n.endswith(".csv")]
    assert "budget.csv" in names and "modes.csv" in names
    for name in names:
        assert b"\r" not in (tmp_path / name).read_bytes(), name
    lines = (tmp_path / "modes.csv").read_text().splitlines()
    summary = json.loads((tmp_path / "suspension_summary.json").read_text())
    assert lines[0] == "frequency_hz,q,dominant_stage"
    assert len(lines) == len(summary["eigenfrequencies_hz"]) + 1


def test_deterministic_outputs(default_scenario, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_budget(default_scenario, out)
        run_isolation(default_scenario, out)
        run_quantum_design(default_scenario, out)
        run_suspension_tf(default_scenario, out)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_lists_every_other_file(tmp_path, command):
    out = tmp_path / "o"
    assert main([command, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert sorted(manifest["files"].values()) == sorted(set(os.listdir(out)) - {"manifest.json"})


# a grid on which each command fails inside its pipeline, and the exit code
FAILING_GRIDS = {
    "budget": ("1,1e4,100", 1),     # the saturation report needs 0.5 Hz
    "suspension-tf": ("0.1,1e308,100", 2),
    "isolation": ("0.1,1e308,100", 2),
    "quantum": ("0.1,1e308,100", 2),
}


@pytest.mark.parametrize("command", sorted(FAILING_GRIDS))
def test_failing_command_writes_nothing(tmp_path, capsys, command):
    grid, code = FAILING_GRIDS[command]
    out = tmp_path / "o"
    assert main([command, "--grid", grid, "--out", str(out)]) == code
    assert not out.exists()
    assert main([command, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([command, "--grid", grid, "--out", str(out)]) == code
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(e.startswith("suscav: ") for e in errors)


def test_budget_grid_above_half_hz_is_refused_before_any_block(tmp_path, capsys, monkeypatch):
    def no_block(*args, **kwargs):
        raise AssertionError("a budget block was assembled")

    monkeypatch.setattr("suscav.scenario.assemble_budget", no_block)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["budget", "--grid", "1,1e4,100000", "--out", str(out)]) == 1
    assert caught == []
    assert capsys.readouterr().err.splitlines() == [
        "suscav: config error: budget grid must extend down to 0.5 Hz or lower"]
    assert not out.exists()


@pytest.mark.parametrize("command, mismatch, code", [
    ("quantum", 0.01, 2),
    ("budget", 0.01, 2),
    ("suspension-tf", 0.0, 2),
])
def test_failing_command_warns_of_nothing(tmp_path, capsys, config_factory, command, mismatch,
                                          code):
    """A command warns once its results are computed, so one that fails
    prints only its error line, though its grid starts below the free-mass
    floor or its stiffness mismatch is zero."""
    cfg = config_factory()
    cfg["suspension"]["stiffness_mismatch"] = mismatch
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(path), "--grid", "0.1,1e308,100",
                     "--out", str(tmp_path / "o")]) == code
    assert [str(w.message) for w in caught] == []
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_assembled_budget_warns_of_nothing(default_scenario):
    """Warnings are the commands'; the budget is silent on any grid."""
    values = default_scenario.grid.values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_budget(default_scenario)
        for rows in (slice(0, 10), slice(500, None)):
            assemble_budget(default_scenario, FrequencyGrid(values[rows]))


def _columns(budget):
    return {name: s.asd for name, s in
            {**budget.components, **budget.references, "total": budget.total}.items()}


@functools.cache
def _whole_grid_budget(path, n):
    scenario = load_scenario(path, grid_override=make_log_grid(0.1, 1e4, n))
    return scenario, _columns(assemble_budget(scenario))


@pytest.mark.parametrize("n", [1000, 20_000])
@pytest.mark.parametrize("name", ["paper_default", "cryo_projection", "sql_design",
                                  "csv_inputs"])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_budget_on_some_rows_has_the_whole_grid_bits(name, n, csv_inputs, data):
    """The budget on a grid of some of the whole grid's frequencies, a
    contiguous run and scattered points, has the whole-grid bits."""
    # csv_inputs interpolates its ground and RIN files on each grid
    path = csv_inputs[0] if name == "csv_inputs" else resolve_config(name)
    scenario, whole = _whole_grid_budget(path, n)
    start = data.draw(st.integers(0, n - 1), label="start")
    run = data.draw(st.integers(0, n - start), label="run")
    scattered = data.draw(st.lists(st.integers(0, n - 1), min_size=0 if run else 1,
                                   max_size=200), label="scattered")
    rows = np.union1d(np.arange(start, start + run), np.array(scattered, dtype=int))
    part = _columns(assemble_budget(scenario, FrequencyGrid(scenario.grid.values[rows])))
    assert list(part) == list(whole)
    for column, asd in part.items():
        assert asd.tobytes() == whole[column][rows].tobytes(), column


def test_streamed_budget_warns_and_writes_as_one_block(config_factory, monkeypatch, tmp_path):
    import suscav.scenario
    from suscav.readout import SaturationWarning

    cfg = config_factory()
    cfg["readout"]["vco_range_hz"] = 1.0        # the beat RMS saturates it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def run(out):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["budget", "--config", str(path), "--grid", "0.1,1e4,100000",
                         "--out", str(tmp_path / out)]) == 0
        return [(w.category, str(w.message)) for w in caught]

    streamed = run("streamed")
    monkeypatch.setattr(suscav.scenario, "BUDGET_BLOCK_ROWS", 100_000)
    assert run("whole") == streamed
    assert [category for category, _ in streamed] == [FreeMassValidityWarning, SaturationWarning]
    assert streamed[0][1].startswith("grid extends to 0.1 Hz")
    names = sorted(os.listdir(tmp_path / "whole"))
    assert names == sorted(os.listdir(tmp_path / "streamed"))
    for name in names:
        assert filecmp.cmp(tmp_path / "whole" / name, tmp_path / "streamed" / name,
                           shallow=False), name


def test_failure_in_the_last_block_writes_nothing(config_factory, tmp_path, capsys):
    grid = f"0.1,1e4,{2 * BUDGET_BLOCK_ROWS + 100}"
    cfg = config_factory()
    w = 2.0 * np.pi * 1e4       # the last grid point
    cfg["readout"]["whitening"]["poles"] += [{"real": 0.0, "imag": w}, {"real": 0.0, "imag": -w}]
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    failing = ["budget", "--config", str(path), "--grid", grid, "--out", str(out)]
    assert main(failing) == 2
    assert ("pole on the imaginary axis at an evaluated frequency (at 10000 Hz)"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["pole.json"]
    assert main(["budget", "--grid", grid, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(failing) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(os.listdir(tmp_path)) == ["o", "pole.json"]


def _forking(monkeypatch, cpus):
    """Make `run_budget` see the CPU set `cpus`; returns a list that gets one
    item per fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("config, n", [
    ("paper_default", 2 * BUDGET_BLOCK_ROWS + 100),
    ("sql_design", 2 * BUDGET_BLOCK_ROWS + 100),
    ("cryo_projection", 2 * BUDGET_BLOCK_ROWS + 100),
    ("terms_off", 2 * BUDGET_BLOCK_ROWS + 100),
    ("paper_default", 100_000),
])
def test_split_budget_is_byte_identical_to_one_process(monkeypatch, tmp_path, config, n):
    if config == "terms_off":
        cfg = load_config(resolve_config("paper_default"))
        cfg["budget"] = {"include": {"seismic": False, "pll": False, "acoustic": False}}
        config = str(tmp_path / "terms_off.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
    outputs = []
    for cpus in ({0}, {0, 1}):
        forks = _forking(monkeypatch, cpus)
        out = tmp_path / f"cpus{len(cpus)}"
        assert main(["budget", "--config", config, "--grid", f"0.1,1e4,{n}",
                     "--out", str(out)]) == 0
        assert len(forks) == 2 * (len(cpus) - 1)    # a writer for each CSV file
        outputs.append(_files(out))
    assert sorted(outputs[0]) == sorted(outputs[1])
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".suscav-staging-")]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("grid, side", [("0.1,1e100,40000", "forked"),
                                        ("0.1,1e308,40000", "parent")])
def test_split_budget_fails_as_one_process_does(monkeypatch, tmp_path, capsys, grid, side):
    """The first error in row order, whichever process met it; the previous
    output stays, and no staging file nor child process is left."""
    out = tmp_path / "o"
    assert main(["budget", "--out", str(out)]) == 0
    before = _files(out)
    errors = []
    for cpus in ({0}, {0, 1}):
        forks = _forking(monkeypatch, cpus)
        capsys.readouterr()
        assert main(["budget", "--grid", grid, "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert len(forks) == len(cpus) - 1
        assert _files(out) == before
        assert os.listdir(tmp_path) == ["o"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert errors[0] == errors[1]
    assert errors[0].startswith("suscav: numerical error: ") and errors[0].count("\n") == 1
    # the failing frequency lies in the rows of the process the case names
    frequency = float(errors[0].rsplit("(at ", 1)[1].split(" Hz)")[0])
    row = np.searchsorted(parse_grid(grid).values, frequency)
    assert (row >= _split_row(40_000)) == (side == "forked")


def _rows(fail=(), exit_at=(), sleep_at=()):
    """A `_write_split` work function that writes a header and one line per
    row, and raises, exits or sleeps in the processes whose first row is
    listed."""
    def work(path, lo, hi):
        if lo in exit_at:
            os._exit(3)
        if lo in sleep_at:
            time.sleep(60)
        if lo in fail:
            raise ValueError(f"rows {lo}..")
        with open(path, "w") as fh:
            fh.write("row\n" + "".join(f"{i}\n" for i in range(lo, hi)))
    return work


def test_split_writer_appends_the_forked_rows(monkeypatch, tmp_path):
    _forking(monkeypatch, {0, 1})
    n = 3 * BUDGET_BLOCK_ROWS - 5
    path = tmp_path / "t.csv"
    _write_split(str(path), n, _rows())
    assert path.read_text() == "row\n" + "".join(f"{i}\n" for i in range(n))
    assert os.listdir(tmp_path) == ["t.csv"]


def test_split_writer_raises_the_first_error_in_row_order(monkeypatch, tmp_path):
    _forking(monkeypatch, {0, 1})
    n, path = 3 * BUDGET_BLOCK_ROWS, str(tmp_path / "t.csv")
    mid = _split_row(n)
    with pytest.raises(ValueError, match=rf"^rows {mid}\.\.$"):
        _write_split(path, n, _rows(fail={mid}))
    with pytest.raises(ValueError, match=r"^rows 0\.\.$"):
        _write_split(path, n, _rows(fail={0, mid}))
    with pytest.raises(ChildProcessError, match="ended with status 3"):
        _write_split(path, n, _rows(exit_at={mid}))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_writer_kills_the_child_when_its_own_rows_fail(monkeypatch, tmp_path):
    _forking(monkeypatch, {0, 1})
    n = 3 * BUDGET_BLOCK_ROWS
    start = time.monotonic()
    with pytest.raises(ValueError, match=r"^rows 0\.\.$"):
        _write_split(str(tmp_path / "t.csv"), n, _rows(fail={0}, sleep_at={_split_row(n)}))
    assert time.monotonic() - start < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus, threads, n, split", [
    ({0, 1}, 1, 3 * BUDGET_BLOCK_ROWS, True),
    ({0, 1}, 1, 2 * BUDGET_BLOCK_ROWS + 1, True),
    ({0, 1}, 1, 2 * BUDGET_BLOCK_ROWS, False),
    ({0}, 1, 100_000, False),
    ({0, 1}, 2, 100_000, False),
])
def test_budget_splits_with_three_blocks_two_cpus_and_one_thread(monkeypatch, cpus, threads,
                                                                  n, split):
    import threading

    _forking(monkeypatch, cpus)
    monkeypatch.setattr(threading, "active_count", lambda: threads)
    mid = _split_row(n)
    assert (mid is not None) == split
    if split:
        assert 0 < mid < n and mid % BUDGET_BLOCK_ROWS == 0


def test_budget_working_set_is_the_total_and_a_block(default_config, tmp_path):
    """Peak traced allocation of run_budget: the total ASD and its RMS curve
    (8 B a point each) plus one block's working arrays, which stay under
    1 KiB a row.  A budget held whole takes over 100 B a point."""
    import tracemalloc

    n = 200_000
    scenario = Scenario.from_dict(default_config, grid_override=make_log_grid(0.1, 1e4, n))
    tracemalloc.start()
    try:
        run_budget(scenario, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n + 1024 * BUDGET_BLOCK_ROWS


def test_parse_holds_nothing_of_grid_length_but_the_grid(default_config):
    """The input spectra are kept as their sources, not as arrays on the
    grid: 16 B a point when they were."""
    import tracemalloc

    grid = make_log_grid(0.1, 1e4, 1_000_000)
    tracemalloc.start()
    try:
        scenario = Scenario.from_dict(default_config, grid_override=grid)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert scenario.grid is grid
    assert held <= 1 << 20


def _with_inputs(cfg_path, tmp_path, ground=None, rin=None):
    """A copy of the config at cfg_path with other ground/RIN file paths."""
    cfg = load_config(cfg_path)
    for (section, key), path in ((("isolation", "ground"), ground),
                                 (("intensity", "rin_per_rthz"), rin)):
        if path is not None:
            cfg[section][key] = {"csv": str(path)}
    out = tmp_path / "inputs.json"
    out.write_text(json.dumps(cfg))
    return str(out)


@pytest.mark.parametrize("command, absent", [
    ("suspension-tf", ("ground", "rin")), ("quantum", ("ground", "rin")), ("isolation", ("rin",)),
], ids=["suspension-tf", "quantum", "isolation"])
def test_command_reads_no_file_it_does_not_use(csv_inputs, tmp_path, capsys, command, absent):
    config = _with_inputs(csv_inputs[0], tmp_path,
                          **{name: tmp_path / f"absent_{name}.csv" for name in absent})
    assert main([command, "--config", config, "--out", str(tmp_path / "absent")]) == 0
    assert main([command, "--config", csv_inputs[0], "--out", str(tmp_path / "valid")]) == 0
    names = sorted(os.listdir(tmp_path / "valid"))
    assert names == sorted(os.listdir(tmp_path / "absent"))
    for name in names:
        assert filecmp.cmp(tmp_path / "valid" / name, tmp_path / "absent" / name,
                           shallow=False), name


@pytest.mark.parametrize("command, absent", [
    ("isolation", "ground"), ("budget", "ground"), ("budget", "rin")])
def test_command_fails_on_an_absent_file_it_uses(csv_inputs, tmp_path, capsys, command,
                                                 absent):
    missing = tmp_path / f"absent_{absent}.csv"
    config = _with_inputs(csv_inputs[0], tmp_path, **{absent: missing})
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("suscav: ") and err.count("\n") == 1
    assert str(missing) in err
    assert not out.exists()


def test_each_input_file_is_read_once_by_the_commands_that_use_it(csv_inputs, tmp_path,
                                                                   monkeypatch):
    import suscav.scenario

    config, ground, rin = csv_inputs
    reads, read = [], suscav.scenario.read_asd_csv
    monkeypatch.setattr(suscav.scenario, "read_asd_csv",
                        lambda path: reads.append(path) or read(path))
    n = 100_000
    assert -(-n // BUDGET_BLOCK_ROWS) == 13
    for command, files in (("budget", [ground, rin]), ("isolation", [ground]),
                           ("suspension-tf", []), ("quantum", [])):
        reads.clear()
        assert main([command, "--config", config, "--grid", f"0.1,1e4,{n}",
                     "--out", str(tmp_path / command)]) == 0
        assert sorted(reads) == sorted(files), command


MISTYPED = [
    (("isolation", "platform", "quality_factor"), "10"),
    (("thermal", "temperature_k"), "293"),
    (("thermal", "temperature_k"), True),
    (("thermal", "temperature_k"), float("nan")),
    (("isolation", "ground", "level_m_rthz"), float("inf")),
    (("cavity", "wavelength_m"), None),
    (("cavity", "length_m"), [0.095]),
    (("suspension", "stiffness_mismatch"), "0.01"),
    (("suspension", "stages"), 5),
    (("suspension", "stages"), [5]),
    (("acoustic", "peaks"), {"center_hz": 230.0}),
    (("intensity", "iss", "band_hz"), "30"),
    (("intensity", "iss", "band_hz"), [30.0]),
    (("intensity", "iss", "band_hz"), [30.0, "100"]),
    (("grid", "n"), "1000x"),
    (("grid", "n"), 1000.5),
    (("readout", "adc_bits"), 16.7),
    (("intensity", "rin_per_rthz"), "abc"),
    (("intensity", "rin_per_rthz", "csv"), 5),
    (("isolation", "servo", "gain"), "1e10"),
    (("quantum", "pole_model"), "bogus"),
    (("intensity", "iss", "enabled"), "false"),
    (("isolation", "active"), "false"),
    (("budget", "include", "thermal"), "no"),
    (("suspension_tf", "normalize"), "yes"),
]


# Every command's summary table is walked on these grids (None: the
# config's own), then on grids of its own that stop short of a named
# frequency or cover only part of a band.
WALK_GRIDS = (None, "0.1,1e4,300", "0.1,1e4,1001", "0.1,1e4,10000")
OWN_GRIDS = {"budget": ("0.1,50,200", "0.1,150,1000"), "suspension-tf": ("0.01,0.2,100",),
             "isolation": ("10,1e4,1000", "60,1e4,100"), "quantum": ("200,1e4,50",)}


def _direct_slope(s):
    ends = FrequencyGrid([0.1, 0.25])
    log_mag = np.log10(np.abs(tf_suspoint_to_differential(s.horizontal_model, ends)))
    return float((log_mag[1] - log_mag[0]) / np.diff(np.log10(ends.values))[0])


# Each value at named frequencies, evaluated there directly, not by its source.
DIRECT = {
    "asd_at_100_hz_m_rthz":
        lambda s: float(assemble_budget(s, FrequencyGrid([100.0])).total.asd[0]),
    "sql_asd_at_100_hz_m_rthz":
        lambda s: float(sql_psd(s.cavity.mirror_mass, FrequencyGrid([100.0]))[0]),
    "low_frequency_slope": _direct_slope,
}


@functools.cache
def _walked(command, config):
    """(scenario, {grid: the summary `command` writes on it})."""
    summaries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for grid in (*WALK_GRIDS, *OWN_GRIDS[command]):
            out = os.path.join(tmp, str(len(summaries)))
            assert main([command, "--config", config, "--out", out,
                         *(["--grid", grid] if grid else [])]) == 0
            with open(os.path.join(out, f"{command.split('-')[0]}_summary.json")) as fh:
                summaries[grid] = json.load(fh)
    return load_scenario(resolve_config(config)), summaries


def _check_by_kind(table, scenario, summaries):
    """Each key of a summary table, in the summaries a command wrote on
    several grids, checked by its declared kind."""
    grids = {text: parse_grid(text) if text else scenario.grid for text in summaries}
    kinds = {v.key: v.kind for v in table}
    bits = {v.key: {json.dumps(summary.get(v.key)) for summary in summaries.values()}
            for v in table}
    assert all(set(summary) <= set(kinds) for summary in summaries.values())
    # one key set on every grid, apart from the band values
    assert len({frozenset(key for key in summary if kinds[key] != BAND)
                for summary in summaries.values()}) == 1
    for v in table:
        if v.kind == BAND:
            assert ({text: v.key in summary for text, summary in summaries.items()}
                    == {text: grids[text].covers(*v.freqs) for text in summaries}), v.key
        if v.kind in (CONFIG, MODEL, AT):
            assert len(bits[v.key]) == 1, v.key
        if v.kind == AT:
            assert bits[v.key] == {json.dumps(DIRECT[v.key](scenario))}, v.key


@pytest.mark.parametrize("config", ["paper_default", "sql_design"])
@pytest.mark.parametrize("command", sorted(SUMMARY))
def test_summary_values_are_taken_by_their_kind(command, config):
    """A value named for a frequency is computed there, not read off the
    grid: every grid, including one that stops short of it, gives the bits
    of a direct evaluation there.  A band value is written exactly when the
    grid covers its band, since a band clipped by the grid would give
    another band's value.  Config echoes and model values keep their bits
    on every grid."""
    _check_by_kind(SUMMARY[command], *_walked(command, config))


WRONG_KINDS = [
    ("asd_at_100_hz_m_rthz", BAND, (100.0, 1000.0)),
    ("min_asd_100_1000_hz_m_rthz", AT, (100.0,)),
    ("min_asd_100_1000_hz_m_rthz", BAND, (100.0, 1e5)),    # the wrong band
    ("rms_m", MODEL, ()),
    ("iss_enabled", BAND, (100.0, 1000.0)),
    ("rms_passive_m_0p5_50hz", MODEL, ()),
    ("unity_gain_hz", MODEL, ()),
    ("grid_extends_below_floor", CONFIG, ()),
]


@pytest.mark.parametrize("key, kind, freqs", WRONG_KINDS,
                         ids=[f"{key}-as-{kind}" for key, kind, _ in WRONG_KINDS])
def test_a_kind_declared_wrongly_fails_the_walk(key, kind, freqs):
    command = next(name for name, table in SUMMARY.items() if key in [v.key for v in table])
    table = [v._replace(kind=kind, freqs=freqs) if v.key == key else v
             for v in SUMMARY[command]]
    with pytest.raises(AssertionError):
        _check_by_kind(table, *_walked(command, "paper_default"))


# README's table of summary values: its columns, and the kinds each lists
README_COLUMNS = {"at its frequency, on any grid": {AT},
                  "over its band, when the grid covers it": {BAND},
                  "from the grid": {GRID}, "no grid enters": {CONFIG, MODEL}}


def test_readme_lists_each_summary_value_under_its_kind():
    lines = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | " + " | ".join(README_COLUMNS) + " |")
    listed = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        command, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        for column, cell in zip(README_COLUMNS, cells, strict=True):
            listed.update({(command.strip("`"), key): column
                           for key in re.findall(r"`(\w+)`", cell)})
    assert listed == {(command, v.key): column for command, table in SUMMARY.items()
                      for v in table for column, kinds in README_COLUMNS.items()
                      if v.kind in kinds}


class TestCli:
    def test_grid_override(self, tmp_path):
        code = main(["quantum", "--out", str(tmp_path / "q"),
                     "--grid", "10,1000,16"])
        assert code == 0
        rows = (tmp_path / "q" / "quantum.csv").read_text().strip().splitlines()
        assert len(rows) == 17

    @pytest.mark.parametrize("command, key, own_grid", [
        ("budget", "asd_at_100_hz_m_rthz", "0.1,50,200"),
        ("quantum", "sql_asd_at_100_hz_m_rthz", "200,1e4,50"),
        ("suspension-tf", "low_frequency_slope", "0.01,0.2,100"),
    ])
    def test_named_frequency_value_is_taken_there_on_every_grid(self, tmp_path, command, key,
                                                                own_grid):
        """A value named for a frequency is computed at that frequency, not
        read off the grid: every grid gives the bits of a direct evaluation
        there, including grids that stop short of it, and the same keys
        apart from the band values a grid does not cover."""
        summaries = []
        for grid in ("0.1,1e4,300", "0.1,1e4,1001", "0.1,1e4,10000", own_grid):
            out = tmp_path / grid
            assert main([command, "--out", str(out), "--grid", grid]) == 0
            name = "suspension" if command == "suspension-tf" else command
            summaries.append(json.loads((out / f"{name}_summary.json").read_text()))
        direct = DIRECT[key](load_scenario(resolve_config("paper_default")))
        assert [summary[key] for summary in summaries] == [direct] * 4
        band = {"min_asd_100_1000_hz_m_rthz"}
        assert len({frozenset(set(summary) - band) for summary in summaries}) == 1

    def test_staging_error_names_the_out_directory(self, tmp_path, monkeypatch, capsys):
        """Not the staging directory's random name, which the user never gave."""
        def refuse(prefix, dir):
            raise PermissionError(13, "Permission denied", os.path.join(dir, prefix + "q7x2"))
        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        out = str(tmp_path / "q")
        assert main(["quantum", "--out", out, "--grid", "10,100,5"]) == 1
        assert (capsys.readouterr().err
                == f"suscav: I/O error: [Errno 13] Permission denied: {out!r}\n")
        assert os.listdir(tmp_path) == []

    def test_directory_named_like_a_config_is_not_a_config(self, tmp_path, monkeypatch):
        """`--config NAME` skips a directory called NAME, such as the
        output of an earlier `--out NAME`, and finds the shipped config."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "paper_default").mkdir()
        for _ in range(2):
            assert main(["quantum", "--config", "paper_default", "--out", "paper_default"]) == 0
        assert resolve_config("paper_default") != "paper_default"

    @pytest.mark.parametrize("command, grid", [
        ("isolation", "10,1e4,1000"), ("isolation", "60,1e4,100"), ("budget", "0.1,150,1000"),
    ])
    def test_no_band_value_over_a_band_the_grid_only_partly_covers(self, tmp_path, command,
                                                                   grid):
        """A band RMS or minimum over a band clipped by the grid would be
        the value over another band; the summary leaves it out."""
        keys = {"isolation": ["rms_passive_m_0p5_50hz", "rms_active_m_0p5_50hz",
                              "rms_reduction_ratio"],
                "budget": ["min_asd_100_1000_hz_m_rthz"]}[command]
        for args in ([], ["--grid", grid]):
            out = tmp_path / str(len(args))
            assert main([command, "--out", str(out), *args]) == 0
            summary = json.loads((out / f"{command}_summary.json").read_text())
            assert all((key in summary) == (not args) for key in keys)

    def test_iss_peak_below_one_is_a_config_error(self, tmp_path, config_factory, capsys):
        cfg = config_factory()
        cfg["intensity"]["iss"]["peak_suppression"] = 0.5
        path = tmp_path / "iss.json"
        path.write_text(json.dumps(cfg))
        assert main(["budget", "--config", str(path), "--out", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err == (
            "suscav: config error: peak suppression must be >= 1\n")
        assert not (tmp_path / "b").exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["budget", "--config", "no_such_config",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["budget", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1

    def test_numerical_error_exit_code(self, tmp_path, config_factory, capsys):
        # a servo pole sitting exactly on a grid point trips the evaluator
        cfg = config_factory()
        w = 2.0 * np.pi * 0.1  # 0.1 Hz is the first point of the default grid
        cfg["isolation"]["servo"]["poles"] = [
            {"real": 0.0, "imag": w}, {"real": 0.0, "imag": -w},
        ]
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(cfg))
        code = main(["isolation", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "numerical error" in capsys.readouterr().err

    def test_singular_at_100_hz_is_a_numerical_error_on_any_grid(self, tmp_path,
                                                                 config_factory, capsys):
        """The summary's 100 Hz value is computed at 100 Hz, so a budget
        singular there fails, naming it, on a grid that does not hold it."""
        cfg = config_factory()
        w = 2.0 * np.pi * 100.0
        cfg["readout"]["whitening"]["poles"] = [{"real": 0.0, "imag": w},
                                                {"real": 0.0, "imag": -w}]
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(cfg))
        assert 100.0 not in Scenario.from_dict(cfg).grid.values
        code = main(["budget", "--config", str(path), "--out", str(tmp_path / "b")])
        assert code == 2
        assert capsys.readouterr().err == ("suscav: numerical error: transfer-function pole on "
                                           "the imaginary axis at an evaluated frequency "
                                           "(at 100 Hz)\n")
        assert not (tmp_path / "b").exists()

    def test_env_config_dir(self, tmp_path, config_factory, monkeypatch):
        cfg = config_factory()
        (tmp_path / "mine.json").write_text(json.dumps(cfg))
        monkeypatch.setenv("SUSCAV_CONFIG_DIR", str(tmp_path))
        assert resolve_config("mine") == str(tmp_path / "mine.json")

    @pytest.mark.parametrize("key", ["natural_frequency_hz", "generator_constant_v_per_m_s",
                                     "quality_factor"])
    @pytest.mark.parametrize("value", [0.0, -0.3])
    def test_nonpositive_geophone_is_config_error(self, tmp_path, config_factory, capsys,
                                                  key, value):
        cfg = config_factory()
        cfg["isolation"]["geophone"][key] = value
        path = tmp_path / "geophone.json"
        path.write_text(json.dumps(cfg))
        code = main(["isolation", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["mirror,test", "mirror\ntest", "mirror\rtest",
                                      "mirror\0test", 3, None])
    def test_bad_stage_name_is_config_error(self, tmp_path, config_factory, capsys, name):
        cfg = config_factory()
        cfg["suspension"]["stages"][-1]["name"] = name
        path = tmp_path / "name.json"
        path.write_text(json.dumps(cfg))
        code = main(["suspension-tf", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("suscav: config error: ") and err.count("\n") == 1
        assert "'name'" in err
        assert not (tmp_path / "o" / "modes.csv").exists()

    def test_budget_refuses_unstable_loop(self, tmp_path, config_factory, capsys):
        cfg = config_factory()
        cfg["isolation"]["servo"]["gain"] = -cfg["isolation"]["servo"]["gain"]
        scenario = Scenario.from_dict(cfg)
        for grid in (None, FrequencyGrid(scenario.grid.values[500:]),
                     make_log_grid(2.0, 3.0, 5)):
            with pytest.raises(ConfigError, match="^the horizontal isolation loop is unstable$"):
                assemble_budget(scenario, grid)
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(cfg))
        blocks = ["--grid", f"0.1,1e4,{2 * BUDGET_BLOCK_ROWS + 100}"]
        for grid in ([], blocks):
            code = main(["budget", "--config", str(path), *grid, "--out", str(tmp_path / "b")])
            assert code == 1
            assert capsys.readouterr().err == (
                "suscav: config error: the horizontal isolation loop is unstable\n")
        assert not (tmp_path / "b").exists()
        code = main(["isolation", "--config", str(path), "--out", str(tmp_path / "i")])
        assert code == 0
        summary = json.loads((tmp_path / "i" / "isolation_summary.json").read_text())
        assert summary["closed_loop_stable"] is False

    def test_out_under_regular_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["quantum", "--out", str(blocker / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("suscav: ") and err.count("\n") == 1

    def test_missing_ground_csv_is_io_error(self, tmp_path, config_factory, capsys):
        cfg = config_factory()
        cfg["isolation"]["ground"] = {"csv": str(tmp_path / "absent.csv")}
        path = tmp_path / "ground.json"
        path.write_text(json.dumps(cfg))
        code = main(["isolation", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("suscav: ") and "absent.csv" in err

    @pytest.mark.parametrize("body", [
        "1,abc\n",
        "1,2e-7\n3\n",
        "",
        "1,2e-7\n10,3e-9\n1,4e-7\n",
        "1,2e-7\n10,nan\n",
        "1,2e-7\n10,inf\n",
    ], ids=["non_numeric", "one_column", "no_rows", "duplicate_frequency", "nan", "inf"])
    def test_rejected_ground_csv_is_config_error(self, tmp_path, config_factory, capsys,
                                                  body):
        csv_path = tmp_path / "bad_ground.csv"
        csv_path.write_text("frequency_hz,asd\n" + body)
        cfg = config_factory()
        cfg["isolation"]["ground"] = {"csv": str(csv_path)}
        path = tmp_path / "ground.json"
        path.write_text(json.dumps(cfg))
        code = main(["isolation", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("suscav: config error: ") and err.count("\n") == 1
        assert "bad_ground.csv" in err

    @pytest.mark.parametrize("path, value", MISTYPED, ids=[
        ".".join(p) + "=" + json.dumps(v) for p, v in MISTYPED])
    def test_mistyped_value_is_config_error(self, tmp_path, config_factory, capsys,
                                            path, value):
        cfg = config_factory()
        section = cfg
        for key in path[:-1]:
            if not isinstance(section.get(key), dict):
                section[key] = {}
            section = section[key]
        section[path[-1]] = value
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(cfg))
        code = main(["budget", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("suscav: config error: ") and err.count("\n") == 1
        assert ".".join(path) in err
        assert not (tmp_path / "o").exists()

    def test_integral_float_count_accepted(self, tmp_path, config_factory):
        cfg = config_factory()
        cfg["grid"]["n"] = 16.0
        config = tmp_path / "n.json"
        config.write_text(json.dumps(cfg))
        assert main(["quantum", "--config", str(config), "--out", str(tmp_path / "q")]) == 0
        rows = (tmp_path / "q" / "quantum.csv").read_text().splitlines()
        assert len(rows) == 17

    def test_grid_size_bounded_before_allocation(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated before the size check")
        monkeypatch.setattr(np, "linspace", refuse)
        too_many = f"0.1,1e4,{MAX_GRID_POINTS + 1}"
        with pytest.raises(ConfigError, match=str(MAX_GRID_POINTS)):
            parse_grid(too_many)
        code = main(["quantum", "--grid", too_many, "--out", str(tmp_path / "q")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_config_grid_size_bounded_before_allocation(self, tmp_path, config_factory,
                                                        capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated before the size check")
        monkeypatch.setattr(np, "linspace", refuse)
        cfg = config_factory()
        cfg["grid"]["n"] = 10 ** 12
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        code = main(["quantum", "--config", str(path), "--out", str(tmp_path / "q")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("suscav: config error: ") and err.count("\n") == 1
        assert str(MAX_GRID_POINTS) in err
        assert not (tmp_path / "q").exists()

    @pytest.mark.parametrize("rows_before", [1, 2000], ids=["first_chunk", "later"])
    def test_non_utf8_ground_csv_is_config_error(self, tmp_path, config_factory, capsys,
                                                 rows_before):
        # readline decodes the first 8 KiB at once; loadtxt decodes the rest
        rows = [b"%d,2e-7" % (i + 1) for i in range(rows_before)]
        body = b"\n".join([b"frequency_hz,asd", *rows, b"5000,3\xb5e-9", b"6000,4e-9", b""])
        csv_path = tmp_path / "latin1_ground.csv"
        csv_path.write_bytes(body)
        assert (len(body) > 8192) == (rows_before > 1)
        cfg = config_factory()
        cfg["isolation"]["ground"] = {"csv": str(csv_path)}
        path = tmp_path / "ground.json"
        path.write_text(json.dumps(cfg))
        code = main(["isolation", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("suscav: config error: ") and err.count("\n") == 1
        assert "latin1_ground.csv" in err

    @pytest.mark.parametrize("key, value", [
        ("isolation.ground", "0.0"),
        ("isolation.ground", "-2e-7"),
        ("intensity.rin_per_rthz", "-1e-4"),
    ])
    def test_nonpositive_ingested_value_names_key_and_file(self, tmp_path, config_factory,
                                                           capsys, key, value):
        csv_path = tmp_path / "spectrum.csv"
        csv_path.write_text(f"frequency_hz,asd\n1,2e-7\n10,{value}\n100,2e-9\n")
        cfg = config_factory()
        section, name = key.split(".")
        cfg[section][name] = {"csv": str(csv_path)}
        path = tmp_path / "ingest.json"
        path.write_text(json.dumps(cfg))
        code = main(["budget", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("suscav: config error: ") and err.count("\n") == 1
        assert f"{key}.csv" in err and str(csv_path) in err and "positive" in err

    @pytest.mark.parametrize("grid", ["0.1,1e308,100", "0.1,1e120,100"])
    def test_overflowing_suspension_response_is_numerical_error(self, tmp_path, capsys, grid):
        code = main(["suspension-tf", "--grid", grid, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("suscav: numerical error: ") and err.count("\n") == 1
        assert "suspension response is not finite (at " in err
        assert not (tmp_path / "o" / "suspension_tf.csv").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("grid", ["0.1,1e308,100", "1e-320,1e4,100"])
    def test_extreme_grid_raises_no_runtime_warning(self, tmp_path, capsys, command, grid):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            main([command, "--grid", grid, "--out", str(tmp_path / "o")])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    FREE_MASS_LINE = ("suscav: warning: grid extends to 0.1 Hz, below the free-mass "
                      "validity floor of 10 Hz; results there are indicative only\n")

    @staticmethod
    def run_python(tmp_path, *args):
        """`python *args` in a new process in tmp_path, with suscav on its
        path and no PYTHONWARNINGS."""
        import suscav

        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        src = os.path.dirname(os.path.dirname(suscav.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                              cwd=tmp_path)

    def test_warning_is_one_line_naming_no_source_file(self, tmp_path):
        run = self.run_python(tmp_path, "-m", "suscav.cli", "quantum", "--out", "q")
        assert run.returncode == 0
        assert run.stderr == self.FREE_MASS_LINE

    def test_every_call_prints_its_warnings(self, tmp_path):
        """Python prints a warning once per source line by default; each
        main call in one process prints its own."""
        run = self.run_python(tmp_path, "-c", "from suscav.cli import main\n"
                              "for out in 'ab':\n"
                              "    assert main(['quantum', '--out', out]) == 0")
        assert run.returncode == 0
        assert run.stderr == 2 * self.FREE_MASS_LINE

    def test_warning_format_is_restored_and_warnings_are_recorded(self, tmp_path):
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["quantum", "--out", str(tmp_path / "q")]) == 0
        assert warnings.formatwarning is formatwarning
        assert [w.category for w in caught] == [FreeMassValidityWarning]

    def test_non_finite_spectrum_names_frequency_and_unit(self, config_factory, tmp_path,
                                                         capsys):
        """The line names the array: the horizontal seismic ASD, refused
        before the vertical axis is solved, else the first budget column in
        TERMS order, then the total."""
        ground, power = config_factory(), config_factory()
        ground["isolation"]["ground"]["level_m_rthz"] = 1e300
        power["quantum"]["circulating_power_w"] = 1e296
        for cfg, argv, subject, frequency in [
            (None, ["--grid", "1e-320,1e4,100"], "the horizontal seismic ASD", 1e-320),
            (ground, [], "budget column 'seismic'", 0.1),
            (power, [], "budget column 'total'", 0.1),
        ]:
            if cfg is not None:
                path = tmp_path / "config.json"
                path.write_text(json.dumps(cfg))
                argv = [*argv, "--config", str(path)]
            code = main(["budget", *argv, "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"suscav: numerical error: {subject} contains non-finite "
                                  "values: ") and err.count("\n") == 1
            assert f"m/rtHz (at {frequency:.6g} Hz)" in err
