import filecmp
import json
import os
import warnings

import numpy as np
import pytest

from suscav.cli import MAX_GRID_POINTS, main, parse_grid, resolve_config
from suscav.errors import ConfigError
from suscav.quantum import FreeMassValidityWarning
from suscav.scenario import (
    Scenario,
    assemble_budget,
    load_scenario,
    run_budget,
    run_isolation,
    run_quantum_design,
    run_suspension_tf,
)
from suscav.spectra import read_budget_csv


@pytest.fixture(autouse=True)
def quiet_free_mass():
    # the default grid starts below the free-mass floor by design
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FreeMassValidityWarning)
        yield


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
    budget = run_budget(default_scenario, tmp_path)
    grid, columns = read_budget_csv(tmp_path / "budget.csv")
    assert np.array_equal(grid.values, default_scenario.grid.values)
    for name, s in budget.components.items():
        assert np.array_equal(columns[name], s.asd)
    assert np.array_equal(columns["total"], budget.total.asd)


def test_budget_components_present(default_scenario, tmp_path):
    budget = run_budget(default_scenario, tmp_path)
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
    assert np.allclose(scenario.ground.asd, 2e-7 / g ** 2, rtol=1e-6)


def test_rin_csv_ingestion(config_factory, tmp_path):
    path = tmp_path / "rin.csv"
    with open(path, "w") as fh:
        fh.write("frequency_hz,rin_per_rtHz\n")
        fh.write("0.01,1e-4\n")
        fh.write("20000,1e-4\n")
    cfg = config_factory()
    cfg["intensity"]["rin_per_rthz"] = {"csv": str(path)}
    scenario = Scenario.from_dict(cfg)
    assert np.allclose(scenario.rin_asd, 1e-4, rtol=1e-9)


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


class TestCli:
    def test_quantum_command(self, tmp_path, capsys):
        code = main(["quantum", "--out", str(tmp_path / "q")])
        assert code == 0
        assert (tmp_path / "q" / "quantum.csv").exists()

    def test_grid_override(self, tmp_path):
        code = main(["quantum", "--out", str(tmp_path / "q"),
                     "--grid", "10,1000,16"])
        assert code == 0
        rows = (tmp_path / "q" / "quantum.csv").read_text().strip().splitlines()
        assert len(rows) == 17

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

    def test_budget_refuses_unstable_loop(self, tmp_path, config_factory, capsys):
        cfg = config_factory()
        cfg["isolation"]["servo"]["gain"] = -cfg["isolation"]["servo"]["gain"]
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(cfg))
        code = main(["budget", "--config", str(path), "--out", str(tmp_path / "b")])
        assert code == 1
        assert "horizontal isolation loop is unstable" in capsys.readouterr().err
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

    def test_grid_size_bounded_before_allocation(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated before the size check")
        monkeypatch.setattr(np, "geomspace", refuse)
        too_many = f"0.1,1e4,{MAX_GRID_POINTS + 1}"
        with pytest.raises(ConfigError, match=str(MAX_GRID_POINTS)):
            parse_grid(too_many)
        code = main(["quantum", "--grid", too_many, "--out", str(tmp_path / "q")])
        assert code == 1
        assert "config error" in capsys.readouterr().err
