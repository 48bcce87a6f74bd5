"""Scenario configuration and the four analysis pipelines.

A scenario is one JSON file that mirrors the module parameter types.  The
pipelines emit CSV data plus a small JSON manifest describing traces and
axes; no plotting happens here.  Everything is deterministic: the same
config produces bit-identical output files.
"""

from __future__ import annotations

import difflib
import json
import math
import mmap
import os
import pickle
import shutil
import signal
import sys
import tempfile
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from . import quantum as qn
from .cavity import CavityParams, disp_per_hz
from .errors import ConfigError, GridError
from .isolation import (
    ActuatorParams,
    GeophoneParams,
    PlatformParams,
    ZPK,
    _crossings,
    closed_loop,
    loop_gain,
)
from .readout import (
    AcousticPeak,
    ReadoutConfig,
    SaturationWarning,
    acoustic_peaks,
    adc_noise_asd,
    check_saturation_grid,
    intensity_rp_displacement,
    iss_profile,
    pll_noise_asd,
)
from .spectra import (
    CSV_BLOCK_ROWS,
    UNIT_DISPLACEMENT,
    FrequencyGrid,
    NoiseBudget,
    Spectrum,
    _write_csv_blocks,
    band_rms,
    check_asd,
    check_log_grid,
    cumulative_rms,
    interp_loglog,
    make_log_grid,
    read_asd_csv,
    write_csv,
)
from .suspension import (
    HORIZONTAL,
    VERTICAL,
    Stage,
    SuspensionChain,
    build_model,
    eigenmodes,
    mirror_force_susceptibility,
    tf_suspoint_to_differential,
    tf_suspoint_to_mirror,
    write_mode_table,
)
from .thermal import ThermalConfig, thermal_displacement

ROOT2 = math.sqrt(2.0)


def _platform_suppression(s, grid, axis):
    """Ground-to-payload TF of one axis, active loop closed if enabled.

    The instrument runs one scalar loop per degree of freedom after
    sensor diagonalisation, so the same servo closes each axis against
    its own platform resonance.  An unstable active loop is refused: its
    passive/(1 + G) describes no physical platform.
    """
    if not s.config["isolation"]["active"]:
        return s.passive[axis].evaluate(grid)
    result = closed_loop(s.loop_gain[axis], s.passive[axis], grid)
    if not s.loop_stable[axis]:
        raise ConfigError(f"the {axis} isolation loop is unstable")
    return result.suppression


class _Shared:
    """What two terms share on one grid, computed on first use, as arrays:
    the mirror's force susceptibility (thermal and intensity), the intensity
    radiation-pressure displacement ASD (both intensity columns) and the
    SQL ASD (its own column and the quantum total)."""

    def __init__(self, scenario, grid):
        self.scenario, self.grid = scenario, grid

    @cached_property
    def chi(self):
        return mirror_force_susceptibility(self.scenario.horizontal_model, self.grid)

    @cached_property
    def intensity(self):
        s = self.scenario
        return intensity_rp_displacement(s.rin.asd(self.grid), s.quantum.circulating_power,
                                         self.chi)

    @cached_property
    def sql(self):
        return qn.sql_psd(self.scenario.cavity.mirror_mass, self.grid)


def _seismic(s, grid, shared):
    # ground motion through each axis's platform and suspension; the
    # horizontal axis reaches the cavity through the stage mismatch, and is
    # refused non-finite before the vertical axis is solved
    ground = s.ground.asd(grid)
    plat = _platform_suppression(s, grid, HORIZONTAL)
    # named, so numpy cannot elide it and swap the complex product's operands
    h = tf_suspoint_to_differential(s.horizontal_model, grid)
    horiz = np.abs(plat * h) * ground
    check_asd(horiz, grid, "the horizontal seismic ASD")
    vert_tf = tf_suspoint_to_mirror(s.vertical_model, grid)
    vert_plat = _platform_suppression(s, grid, VERTICAL)
    vert_asd = np.abs(vert_plat * vert_tf) * s.chain.vertical_coupling * ground
    return np.sqrt(2.0 * (horiz ** 2 + vert_asd ** 2))


def _quantum_total(s, grid, shared):
    if s.quantum.circulating_power > 0.0:
        return qn.quantum_noise_asd(s.quantum, shared.sql, grid)[2]
    return np.zeros(len(grid))


def _iss_on(s):
    return s.config["intensity"]["iss"]["enabled"]


def _intensity_iss_on(s, grid, shared):
    # the ISS divides the shared radiation-pressure displacement in its band
    iss = s.config["intensity"]["iss"]
    suppression = iss_profile(grid, iss["peak_suppression"], iss["band_hz"])
    return shared.intensity / suppression * ROOT2


class Term(NamedTuple):
    """One budget column, like a pygwinc `nb.Noise` node: `calc` gives its ASD
    array [m/rtHz], `switch` is its `budget.include` key (None: always on),
    `in_total` puts it in the total, else among the references."""

    column: str
    switch: str | None
    calc: Callable
    in_total: Callable = lambda s: True


# Per-cavity terms enter the two-cavity beat uncorrelated, hence sqrt(2); the
# readout (ADC, PLL) enters once; quantum traces are single-cavity references,
# and with every switch off the total is the SQL.  Thermal noise is also
# uncorrelated between a cavity's two mirrors, a second sqrt(2); the
# correlated path through the common penultimate mass is second order in the
# stage mismatch and neglected.  Row order is column order.
TERMS = (
    Term("seismic", "seismic", _seismic),
    Term("suspension_thermal", "thermal",
         lambda s, grid, shared: thermal_displacement(s.thermal, shared.chi, grid) * ROOT2 * ROOT2),
    Term("intensity_rp_iss_on", "intensity", _intensity_iss_on, _iss_on),
    Term("intensity_rp_iss_off", "intensity",
         lambda s, grid, shared: shared.intensity * ROOT2, lambda s: not _iss_on(s)),
    Term("adc", "adc", lambda s, grid, shared: adc_noise_asd(s.readout, s.cavity, grid)),
    Term("pll", "pll", lambda s, grid, shared: pll_noise_asd(s.readout, s.cavity, grid)),
    Term("acoustic", "acoustic", lambda s, grid, shared: acoustic_peaks(s.acoustic, grid)),
    Term("quantum_total", "quantum", _quantum_total),
    Term("sql", None, lambda s, grid, shared: shared.sql),
)
BUDGET_PARTS = tuple(dict.fromkeys(t.switch for t in TERMS if t.switch))


def _is_number(value):
    # json reads NaN and Infinity as floats, and an integer of any size as an int
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# Kinds of leaf value: (accepts, description).
NUMBER = (_is_number, "a finite number")
POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
NON_NEGATIVE = (lambda v: _is_number(v) and v >= 0, "a number >= 0")
INTEGER = (lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), "an integer")
FLAG = (lambda v: isinstance(v, bool), "true or false")
PATH = (lambda v: isinstance(v, str), "a file path")
PAIR = (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
        "a list of two numbers")
POLE_MODEL = (lambda v: v in (qn.POLE_INPUT, qn.POLE_TOTAL),
              f"{qn.POLE_INPUT!r} or {qn.POLE_TOTAL!r}")
ANY = (lambda v: True, "any value")
_REQUIRED = object()     # the default of a key that must be given


class Key(NamedTuple):
    """A leaf of SCHEMA: accepted values, default, parameter-object argument."""

    kind: tuple
    default: object = _REQUIRED
    arg: str | None = None


class Choice(tuple):
    """A value written in one of these alternatives, sections or leaves."""


_STAGE = {
    "name": Key(ANY, "", "name"),   # Stage checks it: it becomes a field of modes.csv
    "mass_kg": Key(NUMBER, arg="mass"),
    "wire_length_m": Key(NUMBER, arg="wire_length"),
    "vertical_stiffness_n_per_m": Key(NUMBER, 0.0, "vertical_stiffness"),
    "viscous_damping_ns_per_m": Key(NUMBER, 0.0, "viscous_damping_to_parent"),
    "loss_angle": Key(NUMBER, 0.0, "loss_angle"),
}
# vertically the mirrors ride the last of `stages`: a mirror has no blade spring
_FINAL_STAGE = {key: node for key, node in _STAGE.items() if key != "vertical_stiffness_n_per_m"}
_ROOTS = [{"real": Key(NUMBER, 0.0), "imag": Key(NUMBER, 0.0)}]     # rad/s
_ZPK = {"zeros": _ROOTS, "poles": _ROOTS, "gain": Key(NUMBER)}
_CSV = {"csv": Key(PATH)}

# The config in the shape of the JSON.  A section is a dict and may be left
# out when every key in it has a default; [section] is a list of objects,
# empty by default.  Range checks are the parameter objects' own; the
# closed-form input spectra check nothing, so their keys' kinds hold the range.
SCHEMA = {
    "grid": {"fmin_hz": Key(NUMBER, arg="fmin"), "fmax_hz": Key(NUMBER, arg="fmax"),
             "n": Key(INTEGER, arg="n")},
    "cavity": {
        "wavelength_m": Key(NUMBER, arg="wavelength"),
        "length_m": Key(NUMBER, arg="length"),
        "input_transmission": Key(NUMBER, arg="input_transmission"),
        "end_transmission": Key(NUMBER, 0.0, "end_transmission"),
        "excess_loss": Key(NUMBER, 0.0, "excess_loss"),
    },
    "quantum": {    # exactly one of the first two
        "circulating_power_w": Key(NUMBER, None),
        "power_for_sql_at_hz": Key(NUMBER, None),
        "validity_floor_hz": Key(NUMBER, 10.0, "validity_floor_hz"),
        "pole_model": Key(POLE_MODEL, qn.POLE_INPUT, "pole_model"),
    },
    "suspension": {
        "stages": [_STAGE],
        "final_stage": _FINAL_STAGE,
        "stiffness_mismatch": Key(NUMBER, 0.01, "stiffness_mismatch"),
        "vertical_coupling": Key(NUMBER, 1e-3, "vertical_coupling"),
    },
    "thermal": {"temperature_k": Key(NUMBER, arg="temperature")},
    "isolation": {
        "platform": {
            "payload_mass_kg": Key(NUMBER, arg="payload_mass"),
            "horizontal_resonance_hz": Key(NUMBER, arg="horizontal_resonance"),
            "vertical_resonance_hz": Key(NUMBER, arg="vertical_resonance"),
            "quality_factor": Key(NUMBER, arg="quality_factor"),
        },
        "actuator": {
            "coil_resistance_ohm": Key(NUMBER, arg="coil_resistance"),
            "coil_inductance_h": Key(NUMBER, arg="coil_inductance"),
            "force_constant_n_per_a": Key(NUMBER, arg="force_constant"),
        },
        "geophone": {
            "natural_frequency_hz": Key(NUMBER, arg="natural_frequency"),
            "generator_constant_v_per_m_s": Key(NUMBER, arg="generator_constant"),
            "quality_factor": Key(NUMBER, 0.3, "quality_factor"),
        },
        "servo": _ZPK,
        "ground": Choice(({"level_m_rthz": Key(NON_NEGATIVE), "corner_hz": Key(POSITIVE, 1.0)},
                          _CSV)),
        "active": Key(FLAG, True),
    },
    "readout": {
        "vco_range_hz": Key(NUMBER, arg="vco_range"),
        "pll_noise_floor_hz_rthz": Key(NUMBER, arg="pll_noise_floor"),
        "adc_bits": Key(INTEGER, arg="adc_bits"),
        "adc_fullscale_vpp": Key(NUMBER, arg="adc_fullscale"),
        "sample_rate_hz": Key(NUMBER, arg="sample_rate"),
        "volts_to_hz": Key(NUMBER, arg="volts_to_hz"),
        "whitening": _ZPK,
    },
    "intensity": {
        "rin_per_rthz": Choice((_CSV, Key(NON_NEGATIVE))),
        "iss": {"enabled": Key(FLAG, True), "peak_suppression": Key(NUMBER, 5.0),
                "band_hz": Key(PAIR, (30.0, 100.0))},
    },
    "acoustic": {"peaks": [{
        "center_hz": Key(NUMBER, arg="center"),
        "width_hz": Key(NUMBER, arg="width"),
        "height_m_rthz": Key(NUMBER, arg="height"),
    }]},
    "budget": {"include": {part: Key(FLAG, True) for part in BUDGET_PARTS}},
    "suspension_tf": {"normalize": Key(FLAG, False)},
}


def _default(node):
    """What an absent node resolves to; _REQUIRED if it must be given."""
    if isinstance(node, dict):
        filled = {key: _default(sub) for key, sub in node.items()}
        return _REQUIRED if _REQUIRED in filled.values() else filled
    return () if isinstance(node, list) else getattr(node, "default", _REQUIRED)


# Keys once accepted and now refused, each with the reason as its hint.
_RETIRED = {
    "suspension.final_stage.vertical_stiffness_n_per_m":
        "retired, it was never read: vertically the mirrors ride the last of suspension.stages",
    "cavity.input_power_w":
        "retired, it was never read: the power is quantum.circulating_power_w"
        " or quantum.power_for_sql_at_hz",
    "cavity.mirror_mass_kg":
        "retired, the mirror is stated once: its mass is suspension.final_stage.mass_kg",
}


def _known(value, keys, where):
    for key in value:
        if key not in keys:
            close = difflib.get_close_matches(str(key), keys, 1)
            hint = _RETIRED.get(f"{where}.{key}", f"did you mean {close[0]!r}?" if close else "")
            raise ConfigError(f"{where or 'top level'}: unknown key {key!r}"
                              + (f" ({hint})" if hint else ""))


def _choose(choice, value, where):
    """The alternative `value` is written in: for an object, the first
    section holding all its keys; else the first leaf accepting it."""
    if isinstance(value, dict):
        sections = [alt for alt in choice if isinstance(alt, dict)]
        _known(value, [key for section in sections for key in section], where)
        fits = [alt for alt in sections if value.keys() <= alt.keys()]
    else:
        fits = [alt for alt in choice if isinstance(alt, Key) and alt.kind[0](value)]
    if not fits:
        what = [a.kind[1] if isinstance(a, Key) else "{" + ", ".join(a) + "}" for a in choice]
        raise ConfigError(f"{where} must be {' or '.join(what)}, got {value!r}")
    return fits[0]


def _resolve(node, value, where=""):
    """`value` checked against the SCHEMA node, defaults filled in.

    Values are never coerced.  The first fault raises a one-line
    ConfigError naming its dotted key, e.g. isolation.servo.zeros[0].
    """
    if isinstance(node, Choice):
        node = _choose(node, value, where)
    if isinstance(node, Key):
        if not node.kind[0](value):
            raise ConfigError(f"{where} must be {node.kind[1]}, got {value!r}")
        return value
    if not isinstance(value, type(node)):
        what = "an object" if isinstance(node, dict) else "a list"
        raise ConfigError(f"{where or 'a config'} must be {what}, got {value!r}")
    if isinstance(node, list):
        return [_resolve(node[0], item, f"{where}[{i}]") for i, item in enumerate(value)]
    _known(value, node, where)
    resolved = {}
    for key, sub in node.items():
        path = f"{where}.{key}" if where else key
        resolved[key] = _resolve(sub, value[key], path) if key in value else _default(sub)
        if resolved[key] is _REQUIRED:
            raise ConfigError(f"missing key {path!r}")
    return resolved


def _args(section, values):
    """The parameter-object arguments of a resolved `section`."""
    return {node.arg: values[key] for key, node in section.items()
            if isinstance(node, Key) and node.arg}


# The input spectra, each kept as its source and evaluated on whatever grid
# asks, like a pygwinc `nb.Noise` on any frequency vector: `asd(grid)`.
class CornerAsd(NamedTuple):
    """`level` below `corner` [Hz], falling as 1/f² above: the closed-form ground."""

    level: float
    corner: float

    def asd(self, grid):
        return self.level * np.minimum(1.0, (self.corner / grid.values) ** 2)


class FlatAsd(NamedTuple):
    """The same `value` at every frequency: a constant RIN."""

    value: float

    def asd(self, grid):
        return np.full(len(grid), self.value)


class CsvAsd:
    """The ASD file at `path`, the value of config key `<key>.csv`, log-log
    interpolated.  The file is read and checked on the first `asd` call and
    only its points are kept, so a command reads it at most once, and only
    if one of its outputs needs it."""

    def __init__(self, path, key):
        self.path, self.key = path, key

    @cached_property
    def points(self):
        return read_asd_csv(self.path)

    def asd(self, grid):
        f_src, a_src = self.points
        try:
            return interp_loglog(f_src, a_src, grid)
        except ConfigError as exc:
            raise ConfigError(f"{self.key}.csv {self.path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Scenario:
    """The parameter objects of one configured scenario, and `config`: the
    config resolved against SCHEMA, defaults filled in."""

    grid: FrequencyGrid
    cavity: CavityParams
    chain: SuspensionChain
    thermal: ThermalConfig
    platform: PlatformParams
    actuator: ActuatorParams
    geophone: GeophoneParams
    servo: ZPK
    ground: CornerAsd | CsvAsd
    readout: ReadoutConfig
    rin: FlatAsd | CsvAsd
    acoustic: tuple
    quantum: qn.QuantumConfig     # circulating power 0 disables the quantum traces
    config: dict

    # What no grid enters, made on first use and kept for every grid the
    # scenario is evaluated on: the suspension models, each axis's open-loop
    # platform and isolation loop gain, and that loop's stability.
    @cached_property
    def horizontal_model(self):
        return build_model(self.chain, HORIZONTAL)

    @cached_property
    def vertical_model(self):
        return build_model(self.chain, VERTICAL)

    @cached_property
    def passive(self):
        return {axis: self.platform.passive(axis) for axis in (HORIZONTAL, VERTICAL)}

    @cached_property
    def loop_gain(self):
        return {axis: loop_gain(self.platform, self.geophone, self.actuator, self.servo, axis)
                for axis in (HORIZONTAL, VERTICAL)}

    @cached_property
    def loop_stable(self):
        return {axis: gain.feedback_stable() for axis, gain in self.loop_gain.items()}

    @classmethod
    def from_dict(cls, cfg, grid_override=None):
        schema = SCHEMA
        if grid_override is not None and isinstance(cfg, dict) and "grid" not in cfg:
            schema = {key: node for key, node in SCHEMA.items() if key != "grid"}
        config = _resolve(schema, cfg)
        if "grid" in config:     # checked under --grid too
            try:
                check_log_grid(**_args(SCHEMA["grid"], config["grid"]))
            except GridError as exc:
                raise GridError(f"grid: {exc}") from exc
        grid = grid_override if grid_override is not None else make_log_grid(
            **_args(SCHEMA["grid"], config["grid"]))
        s = config["suspension"]
        mirror = Stage(**_args(_FINAL_STAGE, s["final_stage"]))
        cavity = CavityParams(mirror_mass=mirror.mass, **_args(SCHEMA["cavity"], config["cavity"]))
        chain = SuspensionChain(stages=tuple(Stage(**_args(_STAGE, e)) for e in s["stages"]),
                                final_stage=mirror, **_args(SCHEMA["suspension"], s))

        iso, isolation = config["isolation"], SCHEMA["isolation"]
        g, rin = iso["ground"], config["intensity"]["rin_per_rthz"]
        ground = (CsvAsd(g["csv"], "isolation.ground") if "csv" in g
                  else CornerAsd(g["level_m_rthz"], g["corner_hz"]))
        rin = (CsvAsd(rin["csv"], "intensity.rin_per_rthz") if isinstance(rin, dict)
               else FlatAsd(float(rin)))

        q = config["quantum"]
        power, target = q["circulating_power_w"], q["power_for_sql_at_hz"]
        if (power is None) == (target is None):
            raise ConfigError("quantum: give exactly one of 'circulating_power_w' "
                              "and 'power_for_sql_at_hz'")
        if target is not None:
            power = qn.power_for_sql(cavity, target, pole_model=q["pole_model"])

        return cls(
            grid=grid, cavity=cavity, chain=chain, ground=ground, rin=rin, config=config,
            thermal=ThermalConfig(**_args(SCHEMA["thermal"], config["thermal"])),
            platform=PlatformParams(**_args(isolation["platform"], iso["platform"])),
            actuator=ActuatorParams(**_args(isolation["actuator"], iso["actuator"])),
            geophone=GeophoneParams(**_args(isolation["geophone"], iso["geophone"])),
            servo=ZPK.from_config(iso["servo"]),
            readout=ReadoutConfig(whitening=ZPK.from_config(config["readout"]["whitening"]),
                                  **_args(SCHEMA["readout"], config["readout"])),
            acoustic=tuple(AcousticPeak(**_args(SCHEMA["acoustic"]["peaks"][0], e))
                           for e in config["acoustic"]["peaks"]),
            quantum=qn.QuantumConfig(cavity=cavity, circulating_power=power,
                                     **_args(SCHEMA["quantum"], q)),
        )


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def load_scenario(path, grid_override=None):
    return Scenario.from_dict(load_config(path), grid_override=grid_override)


def _columns(scenario, grid):
    """The budget's ASD arrays on `grid`: each TERMS column in TERMS order,
    then the total, the root-sum-square of the in-total columns.  Each is
    refused non-finite by `check_asd`, naming it, as it is made.  Every term
    is pointwise in frequency, so each value has the same bits on any grid
    that holds its frequency.  A switched-off term is zeros and computes no
    shared response."""
    shared = _Shared(scenario, grid)
    include = scenario.config["budget"]["include"]
    columns = []
    for term in TERMS:
        if term.switch is None or include[term.switch]:
            asd = term.calc(scenario, grid, shared)
            check_asd(asd, grid, f"budget column {term.column!r}")
        else:
            asd = np.zeros(len(grid))
        columns.append(asd)
    # summed once every term is made, so no PSD is held through their solves
    psd = np.zeros(len(grid))
    for term, asd in zip(TERMS, columns):
        if term.in_total(scenario):
            psd += asd ** 2
    total = np.sqrt(psd)
    check_asd(total, grid, "budget column 'total'")
    return columns + [total]


def assemble_budget(scenario, grid=None):
    """Displacement budget of the beat readout, one `Spectrum` per column,
    on `grid` (the scenario's grid by default); see `_columns`."""
    grid = scenario.grid if grid is None else grid
    *columns, total = _columns(scenario, grid)
    components, references = {}, {}
    for term, asd in zip(TERMS, columns):
        target = components if term.in_total(scenario) else references
        target[term.column] = Spectrum(grid, asd)
    return NoiseBudget(components, Spectrum(grid, total), references)


def _below_floor(s):
    """Whether the grid starts below the free-mass validity floor of the
    quantum model."""
    return s.grid.fmin < s.quantum.validity_floor_hz


# Warnings are decided here, by each command once its results are computed.
def _warn_below_floor(s):
    warnings.warn(f"grid extends to {s.grid.fmin:.3g} Hz, below the free-mass validity "
                  f"floor of {s.quantum.validity_floor_hz:.3g} Hz; results there are "
                  "indicative only", qn.FreeMassValidityWarning, stacklevel=2)


CONFIG, MODEL, AT, BAND, GRID = "config", "model", "at", "band", "grid"
OMIT = object()     # what a source gives for a value it does not write


class Value(NamedTuple):
    """A summary key; its kind, which says where the value is taken from;
    and its source, which says how:
    - CONFIG: the resolved config at the dotted key `source`, unless unset;
    - MODEL: `source(s, r)`, which no grid enters;
    - AT: `source(s, grid)` on FrequencyGrid(`freqs`), the same on any grid;
    - BAND: `source(s, r, *freqs)` over the band `freqs`, only when the
      grid covers it;
    - GRID: `source(s, r)`, read off the command's grid.
    `r` holds the command's results and the values taken before."""

    key: str
    kind: str
    source: str | Callable
    freqs: tuple = ()


def _band_min(s, r, lo, hi):
    # over the grid points in the band, of which a sparse grid may have none
    f = s.grid.values
    band = r["total"][np.searchsorted(f, lo, side="left"):np.searchsorted(f, hi, side="right")]
    return float(np.min(band)) if band.size else OMIT


def _vco_margin(s, r):
    # the VCO range over the beat RMS; "unbounded" for a zero budget or
    # where the ratio overflows
    if r["rms_hz"] == 0.0:
        return "unbounded"
    ratio = s.readout.vco_range / r["rms_hz"]
    return ratio if np.isfinite(ratio) else "unbounded"


def _slope(s, grid):
    # of log |H| against log f; None where H is zero, as at stiffness mismatch 0
    mag = np.abs(tf_suspoint_to_differential(s.horizontal_model, grid))
    if np.all(mag > 0.0):
        return float(np.diff(np.log10(mag))[0] / np.diff(np.log10(grid.values))[0])
    return None


# Each command's summary values, in the order they are taken; README's
# table of summary values lists them by kind.
SUMMARY = {
    "budget": (
        Value("iss_enabled", CONFIG, "intensity.iss.enabled"),
        Value("asd_at_100_hz_m_rthz", AT, lambda s, f: float(_columns(s, f)[-1][0]), (100.0,)),
        Value("rms_m", GRID, lambda s, r: float(r["rms"][0])),
        Value("rms_hz", GRID, lambda s, r: r["rms_m"] / disp_per_hz(s.cavity)),
        Value("vco_margin_ratio", GRID, _vco_margin),
        Value("min_asd_100_1000_hz_m_rthz", BAND, _band_min, (100.0, 1000.0)),
    ),
    "suspension-tf": (
        Value("eigenfrequencies_hz", MODEL, lambda s, r: [m.frequency_hz for m in r["modes"]]),
        Value("low_frequency_slope", AT, _slope, (0.1, 0.25)),
        Value("stiffness_mismatch", CONFIG, "suspension.stiffness_mismatch"),
    ),
    "isolation": (
        Value("rms_passive_m_0p5_50hz", BAND,
              lambda s, r, *f: band_rms(s.grid, r["passive"], *f), (0.5, 50.0)),
        Value("rms_active_m_0p5_50hz", BAND,
              lambda s, r, *f: band_rms(s.grid, r["active"], *f), (0.5, 50.0)),
        Value("rms_reduction_ratio", BAND, lambda s, r, *f: r["rms_passive_m_0p5_50hz"]
              / r["rms_active_m_0p5_50hz"] if r["rms_active_m_0p5_50hz"] > 0.0 else "unbounded",
              (0.5, 50.0)),
        Value("unity_gain_hz", GRID, lambda s, r: list(r["crossings"][0])),
        Value("phase_margins_deg", GRID, lambda s, r: list(r["crossings"][1])),
        Value("closed_loop_stable", MODEL, lambda s, r: s.loop_stable[HORIZONTAL]),
    ),
    "quantum": (
        Value("circulating_power_w", MODEL, lambda s, r: s.quantum.circulating_power),
        Value("sql_asd_at_100_hz_m_rthz", AT,
              lambda s, f: float(qn.sql_psd(s.cavity.mirror_mass, f)[0]), (100.0,)),
        Value("kappa_unity_hz", MODEL, lambda s, r: qn.kappa_unity_frequency(s.quantum)),
        Value("free_mass_floor_hz", CONFIG, "quantum.validity_floor_hz"),
        Value("grid_extends_below_floor", GRID, lambda s, r: _below_floor(s)),
        Value("sql_target_hz", CONFIG, "quantum.power_for_sql_at_hz"),
        Value("power_for_sql_w", MODEL,
              lambda s, r: r["circulating_power_w"] if "sql_target_hz" in r else OMIT),
    ),
}


def _summary(s, command, r):
    """`command`'s summary: each of its SUMMARY values taken by the rule of
    its kind, on the scenario's grid, with the command's results `r`."""
    summary = {}
    for v in SUMMARY[command]:
        value = OMIT
        if v.kind == CONFIG:
            value = reduce(dict.__getitem__, v.source.split("."), s.config)
            value = OMIT if value is None else value
        elif v.kind == AT:
            value = v.source(s, FrequencyGrid(v.freqs))
        elif v.kind != BAND or s.grid.covers(*v.freqs):
            value = v.source(s, r, *v.freqs)
        if value is not OMIT:
            summary[v.key] = r[v.key] = value
    return summary


def _emit(outdir, command, files, summary, traces, unit=UNIT_DISPLACEMENT):
    """Write one command's output directory.

    `files` maps each manifest role to (file name, writer, writer arguments
    after the path).  The writers run in that order, then
    `<command stem>_summary.json` is written from `summary`, which a writer
    may fill in, and `manifest.json`, which lists every file by role.  All
    of it goes to a staging directory and moves into `outdir` only when
    everything is written, so a command that fails, before or during this
    call, leaves `outdir` as it was and no staging file behind.
    """
    names = {role: name for role, (name, *_) in files.items()}
    names["summary"] = f"{command.split('-')[0]}_summary.json"
    manifest = {
        "command": command,
        "files": names,
        "x_axis": {"column": "frequency_hz", "log": True, "unit": "Hz"},
        "y_axis": {"log": True, "unit": unit},
        "traces": traces,
    }
    # inside outdir if it exists, else in its nearest existing ancestor:
    # either way on outdir's file system, and no directory is made early
    near = os.path.abspath(outdir)
    while not os.path.isdir(near):
        near = os.path.dirname(near)
    try:
        stage = tempfile.mkdtemp(prefix=".suscav-staging-", dir=near)
    except OSError as exc:      # named by the path the user gave, not the random one
        raise OSError(exc.errno, exc.strerror, outdir) from exc
    try:
        for name, writer, *args in files.values():
            writer(os.path.join(stage, name), *args)
        for name, payload in ((names["summary"], summary), ("manifest.json", manifest)):
            with open(os.path.join(stage, name), "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        os.makedirs(outdir, exist_ok=True)
        for name in [*names.values(), "manifest.json"]:
            os.replace(os.path.join(stage, name), os.path.join(outdir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


# Grid points per block of `run_budget`: a block's working arrays take a
# few MB, and only the total ASD is kept from one block to the next.
BUDGET_BLOCK_ROWS = 4 * CSV_BLOCK_ROWS


def _split_row(n):
    """The row from which a forked process writes an n-row budget file, a
    block boundary near the middle, or None when this process writes it all.

    A file of three blocks or more is split when this process may run on
    two CPUs and runs one thread: forking a threaded process could copy a
    lock that another thread holds."""
    blocks = -(-n // BUDGET_BLOCK_ROWS)
    if (blocks < 3 or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2 or threading.active_count() != 1):
        return None
    return BUDGET_BLOCK_ROWS * (blocks // 2)


def _write_split(path, n, work):
    """Write an n-row CSV file as `work(path, lo, hi)` writes its header and
    rows [lo, hi).

    When `_split_row` splits the file, a forked child writes rows [mid, n)
    to a part file beside `path` while this process writes [0, mid); the
    part's rows are then appended.  The child sends an exception up a pipe
    and always ends in os._exit, so it never unwinds into its parent's
    frames (`_emit` would remove the staging directory) nor flushes stdio.
    This process always reaps the child, killing it first when its own rows
    fail; an error in the lower rows is raised before the child's, as a run
    in one process would raise it.
    """
    mid = _split_row(n)
    if mid is None:
        work(path, 0, n)
        return
    part = path + ".part"
    down, up = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(down)
        os.close(up)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(down)
            try:
                work(part, mid, n)
                status = 0
            except BaseException as exc:
                os.write(up, pickle.dumps(exc))
        finally:
            os._exit(status)
    os.close(up)
    try:
        work(path, 0, mid)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        with open(down, "rb") as fh:
            sent = fh.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if sent:
        raise pickle.loads(sent)
    if status:
        raise ChildProcessError(f"the process writing rows {mid}.. of {path} "
                                f"ended with status {status}")
    # copy_file_range refuses a destination opened O_APPEND
    with open(part, "rb") as src, open(path, "r+b", buffering=0) as dst:
        offset = len(src.readline())        # past the part's own header line
        dst.seek(0, os.SEEK_END)
        while copied := os.copy_file_range(src.fileno(), dst.fileno(), 1 << 30, offset):
            offset += copied
    os.remove(part)


def run_budget(scenario, outdir):
    """Write the budget CSVs, summary and manifest; return the summary.

    The budget is assembled and written a block of BUDGET_BLOCK_ROWS grid
    points at a time, holding only the total ASD from block to block; the
    cumulative RMS, the summary values read off the grid and the warnings
    come from it once the last block is written.  Each
    CSV file may be split between this process and a forked one
    (`_write_split`), which assembles the upper blocks and puts their
    total in the shared buffer.  `assemble_budget(scenario)` gives the
    whole budget.  A grid too high for the summary is refused before the
    first block.  `budget.csv` holds the in-total columns, then the
    references, each set in TERMS order, then the total.
    """
    grid = scenario.grid
    check_saturation_grid(grid)
    n = len(grid)
    # shared with a forked writer, so its rows of the total come back
    total = np.frombuffer(mmap.mmap(-1, 8 * n), float)
    summary = {}
    # `_columns` indices in file order; sorted is stable
    order = [*sorted(range(len(TERMS)), key=lambda i: not TERMS[i].in_total(scenario)),
             len(TERMS)]
    traces = [{"column": TERMS[i].column, "in_total": TERMS[i].in_total(scenario)}
              for i in order[:-1]] + [{"column": "total", "in_total": False}]

    def budget_rows(path, lo, hi):
        def blocks():
            for start in range(lo, hi, BUDGET_BLOCK_ROWS):
                rows = slice(start, min(start + BUDGET_BLOCK_ROWS, hi))
                columns = (first.pop() if start == 0 else
                           _columns(scenario, FrequencyGrid(grid.values[rows])))
                total[rows] = columns[-1]
                yield [grid.values[rows], *(columns[i] for i in order)]
        _write_csv_blocks(path, ["frequency_hz", *(t["column"] for t in traces)], blocks())

    def write_rms(path):
        rms = cumulative_rms(grid, total, "budget column 'rms_m'")
        summary.update(_summary(scenario, "budget", {"total": total, "rms": rms}))
        if (scenario.config["budget"]["include"]["quantum"]
                and scenario.quantum.circulating_power > 0.0 and _below_floor(scenario)):
            _warn_below_floor(scenario)
        ratio = summary["vco_margin_ratio"]
        if ratio != "unbounded" and ratio < 1.0:
            warnings.warn(f"predicted beat RMS {summary['rms_hz']:.3g} Hz exceeds the VCO range "
                          f"{scenario.readout.vco_range:.3g} Hz", SaturationWarning, stacklevel=2)
        _write_split(path, n, lambda part, lo, hi: write_csv(
            part, ["frequency_hz", "rms_m"], [grid.values[lo:hi], rms[lo:hi]]))

    # block 0 first, here: what the budget needs and no grid enters (the
    # suspension models and their tree plans, the platform and loop ZPKs, the
    # loops' stability, an input CSV) is made once, before a forked writer inherits it
    first = [_columns(scenario, FrequencyGrid(grid.values[:BUDGET_BLOCK_ROWS]))]
    _emit(outdir, "budget", {
        "budget": ("budget.csv", _write_split, n, budget_rows),
        "cumulative_rms": ("budget_rms.csv", write_rms),
    }, summary, traces)
    return summary


def run_suspension_tf(scenario, outdir):
    """Differential suspension transfer function and mode table."""
    grid = scenario.grid
    h = tf_suspoint_to_differential(scenario.horizontal_model, grid)
    mag = np.abs(h)
    phase = np.degrees(np.angle(h))
    header = ["frequency_hz", "magnitude", "phase_deg"]
    columns = [grid.values, mag, phase]
    if scenario.config["suspension_tf"]["normalize"]:
        peak = mag.max()
        header.append("magnitude_normalized")
        columns.append(mag / peak if peak > 0.0 else mag)
    modes = eigenmodes(scenario.horizontal_model)
    summary = _summary(scenario, "suspension-tf", {"modes": modes})
    if scenario.chain.stiffness_mismatch == 0.0:
        warnings.warn("stiffness mismatch is zero: the differential transfer "
                      "function vanishes identically", UserWarning, stacklevel=2)
    _emit(outdir, "suspension-tf", {
        "transfer_function": ("suspension_tf.csv", write_csv, header, columns),
        "modes": ("modes.csv", write_mode_table, modes),
    }, summary, [{"column": "magnitude"}, {"column": "phase_deg", "unit": "deg"}], unit="m/m")
    return h


def run_isolation(scenario, outdir):
    """Passive/active platform comparison; returns the RMS summary."""
    grid = scenario.grid
    ground = scenario.ground.asd(grid)
    result = closed_loop(scenario.loop_gain[HORIZONTAL], scenario.passive[HORIZONTAL], grid)
    passive, active = np.abs(result.passive) * ground, np.abs(result.suppression) * ground
    check_asd(passive, grid, "isolation column 'payload_passive'")
    check_asd(active, grid, "isolation column 'payload_active'")
    # before the band values, so that an overflow is named by its column
    rms = [cumulative_rms(grid, passive, "isolation column 'rms_passive_m'"),
           cumulative_rms(grid, active, "isolation column 'rms_active_m'")]
    summary = _summary(scenario, "isolation", {"passive": passive, "active": active,
                                               "crossings": _crossings(grid, result.loop_gain)})
    del result      # its three complex arrays are not written
    spectra = ["ground", "payload_passive", "payload_active"]
    _emit(outdir, "isolation", {
        "spectra": ("isolation.csv", write_csv, ["frequency_hz", *spectra],
                    [grid.values, ground, passive, active]),
        "cumulative_rms": ("isolation_rms.csv", write_csv,
                           ["frequency_hz", "rms_passive_m", "rms_active_m"], [grid.values, *rms]),
    }, summary, [{"column": name} for name in spectra])
    return summary


def run_quantum_design(scenario, outdir):
    """Quantum design curves and the kappa = 1 operating report."""
    grid = scenario.grid
    config = scenario.quantum
    if config.circulating_power <= 0.0:
        raise ConfigError("quantum design needs a positive circulating power")
    budget = qn.quantum_noise_psd(config, grid)
    summary = _summary(scenario, "quantum", {})
    if summary["grid_extends_below_floor"]:
        _warn_below_floor(scenario)
    curves = {**budget.components, **budget.references, "total": budget.total}
    _emit(outdir, "quantum", {"spectra": ("quantum.csv", write_csv, ["frequency_hz", *curves],
                                          [grid.values, *(c.asd for c in curves.values())])},
          summary, [{"column": name} for name in curves])
    return budget
