"""The config table: unknown keys, exclusive alternatives, defaults, docs."""

import copy
import difflib
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from suscav.cli import main, resolve_config
from suscav.errors import ConfigError
from suscav.quantum import POLE_INPUT, POLE_TOTAL, FreeMassValidityWarning
from suscav.scenario import (
    FLAG,
    INTEGER,
    NUMBER,
    PAIR,
    PATH,
    POLE_MODEL,
    SCHEMA,
    Choice,
    Key,
    Scenario,
    _RETIRED,
    load_config,
)
from suscav.spectra import MAX_GRID_POINTS, make_log_grid

SHIPPED = {name: load_config(resolve_config(name))
           for name in ("paper_default", "sql_design", "cryo_projection")}
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(tmp_path, capsys, cfg, *args, command="budget"):
    """Exit code and stderr lines of one command on `cfg`."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *args])
    return code, capsys.readouterr().err.splitlines()


def config_error(tmp_path, capsys, cfg, *args):
    """The one `suscav: config error:` line `cfg` fails with; no output written."""
    code, err = run_cli(tmp_path, capsys, cfg, *args)
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith("suscav: config error: ")
    assert not (tmp_path / "o").exists()
    return err[0]


@pytest.mark.parametrize("path, key, hint", [
    ((), "cavty", "cavity"),
    (("thermal",), "temprature_k", "temperature_k"),
    (("suspension",), "stiffness_mismatc", "stiffness_mismatch"),
    (("isolation", "servo", "zeros", 0), "rael", "real"),
    (("isolation", "ground"), "cvs", "csv"),
    (("budget", "include"), "thermall", "thermal"),
    ((), "notes", None),
])
def test_unknown_key_is_refused_with_a_hint(tmp_path, capsys, config_factory, path, key, hint):
    cfg = config_factory()
    section = cfg
    for part in path:
        section = section.setdefault(part, {}) if isinstance(part, str) else section[part]
    if hint in section:
        section[key] = section.pop(hint)
    else:
        section[key] = 1.0
    err = config_error(tmp_path, capsys, cfg)
    where = re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, path))) or "top level"
    assert f"{where}: unknown key {key!r}" in err
    assert ("did you mean" in err) == (hint is not None)
    if hint:
        assert f"did you mean {hint!r}?" in err


@pytest.mark.parametrize("power, target", [(15.0, 100.0), (None, None)])
def test_quantum_needs_exactly_one_power_source(tmp_path, capsys, config_factory,
                                                power, target):
    cfg = config_factory()
    cfg["quantum"].pop("circulating_power_w")
    for key, value in (("circulating_power_w", power), ("power_for_sql_at_hz", target)):
        if value is not None:
            cfg["quantum"][key] = value
    err = config_error(tmp_path, capsys, cfg)
    assert "exactly one of 'circulating_power_w' and 'power_for_sql_at_hz'" in err


@pytest.mark.parametrize("section, key, extra", [
    ("isolation", "ground", {"level_m_rthz": 1e-7}),
    ("isolation", "ground", {"corner_hz": 1.0}),
    ("intensity", "rin_per_rthz", {"level": 1e-4}),
])
def test_csv_spectrum_excludes_other_keys(tmp_path, capsys, config_factory,
                                          section, key, extra):
    csv_path = tmp_path / "spectrum.csv"
    csv_path.write_text("frequency_hz,asd\n0.01,1e-7\n2e4,1e-7\n")
    cfg = config_factory()
    cfg[section][key] = {"csv": str(csv_path), **extra}
    err = config_error(tmp_path, capsys, cfg)
    assert f"{section}.{key}" in err


def test_present_grid_is_checked_under_grid_option(tmp_path, capsys, config_factory,
                                                   monkeypatch):
    cfg = config_factory()
    cfg["grid"]["n"] = "1000x"
    err = config_error(tmp_path, capsys, cfg, "--grid", "0.1,1e4,50")
    assert "grid.n must be an integer" in err
    cfg["grid"] = {"fmin_hz": 10, "fmax_hz": 1, "n": 1}
    err = config_error(tmp_path, capsys, cfg, "--grid", "0.1,1e4,50")
    assert "need 0 < fmin < fmax, got (10, 1)" in err
    cfg["grid"] = {"fmin_hz": 0.1, "fmax_hz": 1e4, "n": 10 ** 12}
    grid = make_log_grid(0.1, 1e4, 50)
    monkeypatch.setattr(np, "linspace", None)     # the range check allocates nothing
    with pytest.raises(ConfigError, match=str(MAX_GRID_POINTS)):
        Scenario.from_dict(cfg, grid_override=grid)
    monkeypatch.undo()
    del cfg["grid"]
    with pytest.warns(FreeMassValidityWarning):
        code, err = run_cli(tmp_path, capsys, cfg, "--grid", "0.1,1e4,50", command="quantum")
    assert code == 0 and err == []
    with pytest.raises(ConfigError, match="missing key 'grid'"):
        Scenario.from_dict(cfg)


@pytest.mark.parametrize("grid, message", [
    ({"fmin_hz": 10, "fmax_hz": 1, "n": 1}, "grid: need 0 < fmin < fmax, got (10, 1)"),
    ({"fmin_hz": 0.1, "fmax_hz": 1e4, "n": 1}, "grid: need at least 2 points, got 1"),
], ids=["reversed_range", "one_point"])
@pytest.mark.parametrize("args", [(), ("--grid", "0.1,1e4,50")], ids=["config", "grid_option"])
def test_grid_range_error_names_its_key(tmp_path, capsys, config_factory, grid, message, args):
    cfg = config_factory()
    cfg["grid"] = grid
    assert config_error(tmp_path, capsys, cfg, *args) == "suscav: config error: " + message


def test_two_mirror_masses_are_refused(tmp_path, capsys, config_factory):
    cfg = config_factory()
    cfg["cavity"]["mirror_mass_kg"] = 0.5
    err = config_error(tmp_path, capsys, cfg)
    assert "cavity.mirror_mass_kg = 0.5" in err
    assert "suspension.final_stage.mass_kg = 0.01" in err


RETIRED = {
    "suspension.final_stage.vertical_stiffness_n_per_m":
        "vertically the mirrors ride the last of suspension.stages",
    "cavity.input_power_w":
        "the power is quantum.circulating_power_w or quantum.power_for_sql_at_hz",
}


@pytest.mark.parametrize("dotted", sorted(RETIRED.keys() | _RETIRED.keys()))
def test_retired_key_is_refused_with_its_reason(tmp_path, capsys, config_factory, dotted):
    """A key no command ever read is refused on one line that says why."""
    *path, key = dotted.split(".")
    cfg = config_factory()
    section = cfg
    for part in path:
        section = section[part]
    section[key] = 1.0
    assert config_error(tmp_path, capsys, cfg) == (
        f"suscav: config error: {'.'.join(path)}: unknown key {key!r} "
        f"(retired, it was never read: {RETIRED[dotted]})")


@pytest.mark.parametrize("count", [1, 2, 4])
def test_budget_takes_any_vertical_stage_count(tmp_path, capsys, config_factory, count):
    """The vertical model, like the horizontal one, hangs any number of
    blade stages in a line."""
    cfg = config_factory()
    stages = cfg["suspension"]["stages"]
    cfg["suspension"]["stages"] = (stages + [dict(stages[-1], name="extra")])[:count]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(tmp_path, capsys, cfg) == (0, [])
    assert [w.category for w in caught] == [FreeMassValidityWarning]
    summary = json.loads((tmp_path / "o" / "budget_summary.json").read_text())
    assert 0.0 < summary["rms_m"] < math.inf


def test_resolved_config_fills_defaults(config_factory):
    cfg = config_factory()
    del cfg["isolation"]["geophone"]["quality_factor"]
    del cfg["intensity"]["iss"]
    scenario = Scenario.from_dict(cfg, grid_override=make_log_grid(1.0, 10.0, 4))
    resolved = scenario.config
    assert resolved["isolation"]["geophone"]["quality_factor"] == 0.3
    assert resolved["intensity"]["iss"] == {"enabled": True, "peak_suppression": 5.0,
                                            "band_hz": (30.0, 100.0)}
    assert resolved["budget"]["include"] == dict.fromkeys(resolved["budget"]["include"], True)
    assert resolved["acoustic"]["peaks"] == cfg["acoustic"]["peaks"]
    assert resolved["quantum"]["power_for_sql_at_hz"] is None
    assert scenario.geophone.quality_factor == 0.3


COMMANDS = ("budget", "isolation", "suspension-tf", "quantum")
POLE_MODELS = {POLE_INPUT: POLE_TOTAL, POLE_TOTAL: POLE_INPUT}


def _value_leaves(value, path=()):
    """(path, value) of every number, switch and pole model of a resolved
    config, `grid` aside since --grid sets it.  Stage names are left out: a
    name reaches modes.csv only when its stage dominates a mode, and the
    penultimate stage of paper_default dominates none."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        if value is not None and path[0] != "grid" and path[-1] != "name":
            yield path, value
        return
    for key, sub in items:
        yield from _value_leaves(sub, path + (key,))


def _moved(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return POLE_MODELS[value]
    if value == 0:
        return 1e-3
    return round(value * 1.25) if isinstance(value, int) else value * 1.25


def _outputs(tmp_path, capsys, cfg, command):
    """Exit code and the bytes of every output file of `command` on `cfg`."""
    # None stands for the power alternative the config does not give
    cfg = {key: {k: v for k, v in sub.items() if v is not None} for key, sub in cfg.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, _ = run_cli(tmp_path, capsys, cfg, "--grid", "0.1,1e4,200", command=command)
    out = tmp_path / "o"
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    shutil.rmtree(out, ignore_errors=True)
    return code, files


def test_every_config_value_moves_an_output(tmp_path, capsys, default_scenario):
    """No config value is silently ignored: changing any one of them changes
    an output file or the exit code of some command, under paper_default or
    under its total_loss pole model."""
    bases = []
    for pole_model in POLE_MODELS:
        cfg = copy.deepcopy(default_scenario.config)
        cfg["quantum"]["pole_model"] = pole_model
        bases.append((cfg, [_outputs(tmp_path, capsys, cfg, command) for command in COMMANDS]))
    paths = [path for path, _ in _value_leaves(default_scenario.config)]
    assert len(paths) > 80

    def moves(path, cfg, outputs):
        cfg = copy.deepcopy(cfg)
        section = cfg
        for part in path[:-1]:
            section = section[part]
        section[path[-1]] = _moved(section[path[-1]])
        return any(_outputs(tmp_path, capsys, cfg, command) != base
                   for command, base in zip(COMMANDS, outputs))

    unread = [".".join(map(str, path)) for path in paths
              if not any(moves(path, cfg, outputs) for cfg, outputs in bases)]
    assert unread == []


def test_huge_integer_is_not_a_number(config_factory):
    cfg = config_factory()
    cfg["cavity"]["length_m"] = 10 ** 400
    with pytest.raises(ConfigError, match="cavity.length_m must be a finite number"):
        Scenario.from_dict(cfg)


# -- property tests over the whole table ------------------------------------

REQUIRED = Key(NUMBER).default   # the default of a key that must be given
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10 ** 6, 10 ** 6),
                    st.sampled_from([0, -1.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]))
IN_TYPE = {
    NUMBER: NUMBERS,
    INTEGER: st.integers(-3, 3000),     # grid.n: a larger grid is slow, not wrong
    FLAG: st.booleans(),
    PAIR: st.lists(NUMBERS, min_size=2, max_size=2),
    POLE_MODEL: st.sampled_from(["input_transmission", "total_loss"]),
}


@st.composite
def _variant(draw, node, value, odds):
    """`value` with optional keys dropped or added and leaves redrawn in type,
    each with chance 1/odds."""
    if isinstance(node, Key):
        # file paths are kept: a missing file is an I/O error, not a config error
        drawn = IN_TYPE.get(node.kind, st.text(max_size=8) if node.kind != PATH else None)
        return value if drawn is None or draw(st.integers(1, odds)) > 1 else draw(drawn)
    if isinstance(node, Choice):
        picked = next(alt for alt in node if isinstance(value, dict) == isinstance(alt, dict))
        return draw(_variant(picked, value, odds))
    if isinstance(node, list):
        items = draw(st.lists(st.sampled_from(value), max_size=4)) if value else []
        return [draw(_variant(node[0], copy.deepcopy(item), odds)) for item in items]
    out = {}
    for key, sub in node.items():
        optional = not isinstance(sub, Key) or sub.default is not REQUIRED
        if key in value:
            if not optional or draw(st.integers(1, odds)) > 1:
                out[key] = draw(_variant(sub, value[key], odds))
        elif optional and draw(st.integers(1, odds)) == 1:
            out[key] = draw(_variant(sub, {} if isinstance(sub, dict) else sub.default, odds))
    return out


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(name=st.sampled_from(sorted(SHIPPED)), data=st.data())
def test_random_valid_config_parses_or_raises_config_error(name, data):
    odds = data.draw(st.sampled_from([2, 8, 64]))   # from many changes to about one
    cfg = data.draw(_variant(SCHEMA, copy.deepcopy(SHIPPED[name]), odds))
    try:
        Scenario.from_dict(cfg)
    except ConfigError:
        pass


# Values whose square or power overflowed as a Python float, an OverflowError
# that escaped `main` as a traceback: each is a numerical error now.
OVERFLOWS = [
    *[(command, ("cavity", "length_m"), value)
      for command in ("budget", "quantum") for value in (1e300, 1e-300)],
    ("budget", ("readout", "adc_bits"), 1e300),
    *[("budget", ("acoustic", "peaks", i, key), 1e300)
      for i in range(3) for key in ("width_hz", "height_m_rthz")],
]


@pytest.mark.parametrize("command, path, value", OVERFLOWS)
def test_python_scalar_overflow_is_a_numerical_error(tmp_path, capsys, config_factory,
                                                     command, path, value):
    cfg = config_factory()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, err = run_cli(tmp_path, capsys, cfg, "--grid", "0.1,1e4,60", command=command)
    assert code == 2 and len(err) == 1, err
    assert err[0].startswith("suscav: numerical error: ")
    assert not (tmp_path / "o").exists()


def _refuse(constant):
    raise ValueError(f"{constant} in a JSON output")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(SHIPPED)), data=st.data())
def test_random_valid_config_runs_every_command_without_a_traceback(tmp_path, capsys, name,
                                                                    data):
    """Every command exits 0, 1 or 2; a failure prints one line, a success
    writes JSON without NaN or Infinity and finite spectra."""
    odds = data.draw(st.sampled_from([2, 8, 64]))
    cfg = data.draw(_variant(SCHEMA, copy.deepcopy(SHIPPED[name]), odds))
    for command in ("budget", "suspension-tf", "isolation", "quantum"):
        shutil.rmtree(tmp_path / "o", ignore_errors=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # printed only by a command that succeeds
            code, err = run_cli(tmp_path, capsys, cfg, "--grid", "0.1,1e4,60",
                                command=command)
        assert code in (0, 1, 2), (command, err)
        if code:
            assert len(err) == 1, (command, err)
            continue
        for path in (tmp_path / "o").iterdir():
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_refuse)
            elif path.name != "modes.csv":      # a lossless mode's q is inf
                assert np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1)).all(), path


def _leaf_paths(node, path=""):
    """The dotted path of every leaf of `node`; `[]` marks a list item."""
    if isinstance(node, Key):
        yield path
    elif isinstance(node, Choice):
        for alt in node:
            yield from _leaf_paths(alt, path)
    elif isinstance(node, list):
        yield from _leaf_paths(node[0], path + "[]")
    else:
        for key, sub in node.items():
            yield from _leaf_paths(sub, f"{path}.{key}" if path else key)


def _key_paths(value, path=()):
    """(path to the containing section, key) for every key at any depth."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield path, key
            yield from _key_paths(sub, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _key_paths(item, path + (i,))


def _section_keys(path):
    """The keys the table allows in the section at `path` (all alternatives)."""
    nodes = [SCHEMA]
    for part in path:
        nodes = [n[0] if isinstance(n, list) else n[part] for n in nodes]
        nodes = [alt for n in nodes for alt in (n if isinstance(n, Choice) else (n,))
                 if isinstance(alt, (dict, list))]
    return [key for n in nodes for key in n]


SCHEMA_KEYS = {part.removesuffix("[]") for path in _leaf_paths(SCHEMA)
               for part in path.split(".")}
_LETTERS = "abcdefghijklmnopqrstuvwxyz_0123456789"


@st.composite
def _one_char_edit(draw, key):
    i = draw(st.integers(0, len(key)))
    c = draw(st.sampled_from(_LETTERS))
    op = draw(st.sampled_from(["insert", "delete", "replace"] if i < len(key) else ["insert"]))
    if op == "insert":
        return key[:i] + c + key[i:]
    return key[:i] + ("" if op == "delete" else c) + key[i + 1:]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(SHIPPED)), data=st.data())
def test_one_character_key_edit_is_named_with_a_hint(tmp_path, capsys, name, data):
    cfg = copy.deepcopy(SHIPPED[name])
    path, key = data.draw(st.sampled_from(list(_key_paths(cfg))))
    edited = data.draw(_one_char_edit(key))
    assume(edited not in SCHEMA_KEYS)
    section = cfg
    for part in path:
        section = section[part]
    section[edited] = section.pop(key)

    code, err = run_cli(tmp_path, capsys, cfg)
    assert code == 1 and len(err) == 1, err
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
    assert err[0].startswith(f"suscav: config error: {where or 'top level'}: "
                             f"unknown key {edited!r}"), err
    close = difflib.get_close_matches(edited, _section_keys(path), 1)
    assert ("did you mean" in err[0]) == bool(close)
    if close:
        assert err[0].endswith(f"(did you mean {close[0]!r}?)")


# -- the README key reference -----------------------------------------------

def test_readme_lists_every_config_key():
    text = README.read_text()
    section = text[text.index("## Configuration"):]
    section = section[:section.index("\n## ", 1)]
    rows = set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.M))
    leaves = set(_leaf_paths(SCHEMA))
    assert len(leaves) > 70
    assert leaves <= rows, sorted(leaves - rows)
    assert rows <= leaves, sorted(rows - leaves)
