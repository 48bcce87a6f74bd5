"""Scenario configuration and the four analysis pipelines.

A scenario is one JSON file that mirrors the module parameter types.  The
pipelines emit CSV data plus a small JSON manifest describing traces and
axes; no plotting happens here.  Everything is deterministic: the same
config produces bit-identical output files.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import quantum as qn
from .cavity import CavityParams
from .errors import ConfigError
from .isolation import (
    HORIZONTAL,
    VERTICAL,
    ActuatorParams,
    GeophoneParams,
    PlatformParams,
    ZPK,
    closed_loop,
)
from .readout import (
    AcousticPeak,
    IntensityNoiseConfig,
    ReadoutConfig,
    acoustic_peaks,
    adc_noise_asd,
    intensity_rp_displacement,
    iss_profile,
    pll_noise_asd,
    saturation_margin,
)
from .spectra import (
    UNIT_DISPLACEMENT,
    UNIT_RELATIVE,
    NoiseBudget,
    Spectrum,
    band_rms,
    cumulative_rms,
    interp_loglog,
    make_log_grid,
    read_asd_csv,
    write_budget_csv,
    write_csv,
    zero_spectrum,
)
from .suspension import (
    Stage,
    SuspensionChain,
    build_model,
    eigenmodes,
    mirror_force_susceptibility,
    seismic_to_cavity,
    tf_suspoint_to_differential,
    tf_suspoint_to_mirror,
    write_mode_table,
)
from .thermal import ThermalConfig, thermal_displacement

ROOT2 = math.sqrt(2.0)

_REQUIRED = object()


def _is_number(value):
    # json reads NaN and Infinity as floats; isfinite would overflow on a huge int
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _read(section, key, where, default, ok, what):
    """section[key] if `ok` accepts it, `default` when absent; never coerced."""
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"config error in {where!r}: missing key {key!r}")
        return default
    value = section[key]
    if not ok(value):
        raise ConfigError(f"{where}.{key} must be {what}, got {value!r}")
    return value


def _number(section, key, where, default=_REQUIRED):
    return _read(section, key, where, default, _is_number, "a finite number")


def _integer(section, key, where):
    return int(_read(section, key, where, _REQUIRED,
                     lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
                     "an integer"))


def _flag(section, key, where, default):
    return _read(section, key, where, default, lambda v: isinstance(v, bool), "true or false")


def _object(section, key, where, default=_REQUIRED):
    return _read(section, key, where, default, lambda v: isinstance(v, dict), "an object")


def _path(section, key, where):
    return _read(section, key, where, _REQUIRED, lambda v: isinstance(v, str), "a file path")


def _entries(section, key, where, default=_REQUIRED):
    """The objects of a list value, each with its own `where` label."""
    items = _read(section, key, where, default, lambda v: isinstance(v, list), "a list")
    labelled = [(f"{where}.{key}[{i}]", item) for i, item in enumerate(items)]
    for label, item in labelled:
        if not isinstance(item, dict):
            raise ConfigError(f"{label} must be an object, got {item!r}")
    return labelled


def _section(cfg, name, default=_REQUIRED):
    if name not in cfg and default is _REQUIRED:
        raise ConfigError(f"config section {name!r} is missing")
    section = cfg.get(name, default)
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object, got {section!r}")
    return section


def _zpk(section, key, where):
    cfg = _object(section, key, where)
    where = f"{where}.{key}"
    for name in ("zeros", "poles"):
        for label, root in _entries(cfg, name, where, []):
            _number(root, "real", label, 0.0)
            _number(root, "imag", label, 0.0)
    _number(cfg, "gain", where)
    return ZPK.from_config(cfg)


def _csv_spectrum(section, where, grid):
    """The ASD file named by section["csv"], log-log interpolated onto grid."""
    path = _path(section, "csv", where)
    f_src, a_src = read_asd_csv(path)
    try:
        return interp_loglog(f_src, a_src, grid)
    except ConfigError as exc:
        raise ConfigError(f"{where}.csv {path}: {exc}") from exc


def _build_stage(entry, where):
    return Stage(
        mass=_number(entry, "mass_kg", where),
        wire_length=_number(entry, "wire_length_m", where),
        vertical_stiffness=_number(entry, "vertical_stiffness_n_per_m", where, 0.0),
        viscous_damping_to_parent=_number(entry, "viscous_damping_ns_per_m", where, 0.0),
        loss_angle=_number(entry, "loss_angle", where, 0.0),
        name=entry.get("name", ""),
    )


@dataclass(frozen=True, eq=False)
class Scenario:
    """All parameter objects of one configured scenario."""

    grid: "FrequencyGrid"
    cavity: CavityParams
    chain: SuspensionChain
    thermal: ThermalConfig
    platform: PlatformParams
    actuator: ActuatorParams
    geophone: GeophoneParams
    servo: ZPK
    ground: Spectrum
    readout: ReadoutConfig
    rin_asd: np.ndarray
    iss_enabled: bool
    iss_peak: float
    iss_band: tuple
    acoustic: tuple
    quantum_power: float          # [W]; 0 disables the quantum traces
    quantum_target_hz: float | None
    validity_floor_hz: float
    pole_model: str
    isolation_active: bool
    include: dict
    tf_normalize: bool

    @classmethod
    def from_dict(cls, cfg, grid_override=None):
        if not isinstance(cfg, dict):
            raise ConfigError(f"a config must be a JSON object, got {cfg!r}")
        if grid_override is not None:
            grid = grid_override
        else:
            g = _section(cfg, "grid")
            grid = make_log_grid(
                _number(g, "fmin_hz", "grid"),
                _number(g, "fmax_hz", "grid"),
                _integer(g, "n", "grid"),
            )

        c = _section(cfg, "cavity")
        cav = CavityParams(
            wavelength=_number(c, "wavelength_m", "cavity"),
            length=_number(c, "length_m", "cavity"),
            input_transmission=_number(c, "input_transmission", "cavity"),
            end_transmission=_number(c, "end_transmission", "cavity", 0.0),
            excess_loss=_number(c, "excess_loss", "cavity", 0.0),
            mirror_mass=_number(c, "mirror_mass_kg", "cavity"),
            input_power=_number(c, "input_power_w", "cavity", 0.0),
        )

        s = _section(cfg, "suspension")
        stages = tuple(_build_stage(e, label) for label, e in _entries(s, "stages", "suspension"))
        final = _build_stage(_object(s, "final_stage", "suspension"), "suspension.final_stage")
        chain = SuspensionChain(
            stages=stages,
            final_stages=(final, final),
            stiffness_mismatch=_number(s, "stiffness_mismatch", "suspension", 0.01),
            vertical_coupling=_number(s, "vertical_coupling", "suspension", 1e-3),
        )

        t = _section(cfg, "thermal")
        thermal_cfg = ThermalConfig(temperature=_number(t, "temperature_k", "thermal"))

        iso = _section(cfg, "isolation")
        where = "isolation.platform"
        p = _object(iso, "platform", "isolation")
        platform = PlatformParams(
            payload_mass=_number(p, "payload_mass_kg", where),
            horizontal_resonance=_number(p, "horizontal_resonance_hz", where),
            vertical_resonance=_number(p, "vertical_resonance_hz", where),
            quality_factor=_number(p, "quality_factor", where),
        )
        where = "isolation.actuator"
        a = _object(iso, "actuator", "isolation")
        actuator = ActuatorParams(
            coil_resistance=_number(a, "coil_resistance_ohm", where),
            coil_inductance=_number(a, "coil_inductance_h", where),
            force_constant=_number(a, "force_constant_n_per_a", where),
        )
        where = "isolation.geophone"
        geo = _object(iso, "geophone", "isolation")
        geophone = GeophoneParams(
            natural_frequency=_number(geo, "natural_frequency_hz", where),
            generator_constant=_number(geo, "generator_constant_v_per_m_s", where),
            quality_factor=_number(geo, "quality_factor", where, 0.3),
        )
        servo = _zpk(iso, "servo", "isolation")

        gsec = _object(iso, "ground", "isolation")
        if "csv" in gsec:
            ground_asd = _csv_spectrum(gsec, "isolation.ground", grid)
        else:
            level = _number(gsec, "level_m_rthz", "isolation.ground")
            corner = _number(gsec, "corner_hz", "isolation.ground", 1.0)
            ground_asd = level * np.minimum(1.0, (corner / grid.values) ** 2)
        ground = Spectrum(grid, ground_asd, UNIT_DISPLACEMENT)

        r = _section(cfg, "readout")
        readout = ReadoutConfig(
            vco_range=_number(r, "vco_range_hz", "readout"),
            pll_noise_floor=_number(r, "pll_noise_floor_hz_rthz", "readout"),
            adc_bits=_integer(r, "adc_bits", "readout"),
            adc_fullscale=_number(r, "adc_fullscale_vpp", "readout"),
            sample_rate=_number(r, "sample_rate_hz", "readout"),
            whitening=_zpk(r, "whitening", "readout"),
            volts_to_hz=_number(r, "volts_to_hz", "readout"),
        )

        i = _section(cfg, "intensity")
        rin_spec = _read(i, "rin_per_rthz", "intensity", _REQUIRED,
                         lambda v: _is_number(v) or isinstance(v, dict),
                         'a finite number or {"csv": path}')
        if isinstance(rin_spec, dict):
            rin_asd = _csv_spectrum(rin_spec, "intensity.rin_per_rthz", grid)
        else:
            rin_asd = np.full(len(grid), float(rin_spec))
        iss = _object(i, "iss", "intensity", {})
        iss_band = _read(iss, "band_hz", "intensity.iss", (30.0, 100.0),
                         lambda v: isinstance(v, list) and len(v) == 2
                         and all(map(_is_number, v)), "a list of two numbers")

        peaks = tuple(
            AcousticPeak(
                center=_number(e, "center_hz", label),
                width=_number(e, "width_hz", label),
                height=_number(e, "height_m_rthz", label),
            )
            for label, e in _entries(_section(cfg, "acoustic", {}), "peaks", "acoustic", [])
        )

        q = _section(cfg, "quantum")
        target = _read(q, "power_for_sql_at_hz", "quantum", None,
                       lambda v: v is None or _is_number(v), "a finite number or null")
        pole_model = _read(q, "pole_model", "quantum", qn.POLE_INPUT,
                           lambda v: v in (qn.POLE_INPUT, qn.POLE_TOTAL),
                           f"{qn.POLE_INPUT!r} or {qn.POLE_TOTAL!r}")
        if target is not None:
            power = qn.power_for_sql(cav, target, pole_model=pole_model)
        else:
            power = _number(q, "circulating_power_w", "quantum")

        given = _object(_section(cfg, "budget", {}), "include", "budget", {})
        unknown = set(given) - set(BUDGET_PARTS)
        if unknown:
            raise ConfigError(f"unknown budget components {sorted(unknown)}")

        return cls(
            grid=grid,
            cavity=cav,
            chain=chain,
            thermal=thermal_cfg,
            platform=platform,
            actuator=actuator,
            geophone=geophone,
            servo=servo,
            ground=ground,
            readout=readout,
            rin_asd=rin_asd,
            iss_enabled=_flag(iss, "enabled", "intensity.iss", True),
            iss_peak=_number(iss, "peak_suppression", "intensity.iss", 5.0),
            iss_band=tuple(iss_band),
            acoustic=peaks,
            quantum_power=power,
            quantum_target_hz=target,
            validity_floor_hz=_number(q, "validity_floor_hz", "quantum", 10.0),
            pole_model=pole_model,
            isolation_active=_flag(iso, "active", "isolation", True),
            include={k: _flag(given, k, "budget.include", True) for k in BUDGET_PARTS},
            tf_normalize=_flag(_section(cfg, "suspension_tf", {}), "normalize",
                               "suspension_tf", False),
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


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _quantum_config(scenario):
    return qn.QuantumConfig(
        cavity=scenario.cavity,
        circulating_power=scenario.quantum_power,
        validity_floor_hz=scenario.validity_floor_hz,
        pole_model=scenario.pole_model,
    )


def platform_suppression_tf(scenario, grid, axis=HORIZONTAL):
    """Ground-to-payload TF of one axis, active loop closed if enabled.

    The instrument runs one scalar loop per degree of freedom after
    sensor diagonalisation, so the same servo closes each axis against
    its own platform resonance.  An unstable active loop is refused:
    its passive/(1 + G) describes no physical platform.
    """
    if not scenario.isolation_active:
        return scenario.platform.passive(axis).evaluate(grid)
    result = closed_loop(scenario.platform, scenario.geophone, scenario.actuator,
                         scenario.servo, grid, axis=axis)
    if not result.stable:
        raise ConfigError(f"the {axis} isolation loop is unstable")
    return result.suppression


class _Shared:
    """Responses terms share, each computed on first use; arrays only."""

    def __init__(self, scenario, grid):
        self.scenario, self.grid = scenario, grid

    @cached_property
    def horizontal(self):
        return build_model(self.scenario.chain, HORIZONTAL)

    @cached_property
    def chi(self):
        return mirror_force_susceptibility(self.horizontal, self.grid)

    @cached_property
    def intensity(self):
        s, grid = self.scenario, self.grid
        return IntensityNoiseConfig(
            rin=Spectrum(grid, s.rin_asd, UNIT_RELATIVE),
            iss_suppression=iss_profile(grid, s.iss_peak, s.iss_band),
            circulating_power=s.quantum_power,
            susceptibility=self.chi,
        )


def _seismic(s, grid, shared):
    horiz = seismic_to_cavity(shared.horizontal, s.ground, platform_suppression_tf(s, grid), grid)
    vert_tf = tf_suspoint_to_mirror(build_model(s.chain, VERTICAL), grid)
    vert_plat = platform_suppression_tf(s, grid, axis=VERTICAL)
    vert_asd = np.abs(vert_plat * vert_tf) * s.chain.vertical_coupling * s.ground.asd
    return Spectrum.from_psd(grid, 2.0 * (horiz.psd + vert_asd ** 2), UNIT_DISPLACEMENT)


def _quantum_total(s, grid, shared):
    if s.quantum_power > 0.0:
        return qn.quantum_noise_psd(_quantum_config(s), grid).total
    return zero_spectrum(grid, UNIT_DISPLACEMENT)


class Term(NamedTuple):
    """One budget column, like a pygwinc `nb.Noise` node: `calc` gives its ASD,
    `switch` is its `budget.include` key (None: always on), `in_total` puts
    it in the total, else among the references."""

    column: str
    switch: str | None
    calc: Callable
    in_total: Callable = lambda s: True


# Per-cavity terms enter the two-cavity beat uncorrelated, hence sqrt(2); the
# readout (ADC, PLL) enters once; quantum traces are single-cavity references,
# and with every switch off the total is the SQL.  Row order is column order.
TERMS = (
    Term("seismic", "seismic", _seismic),
    Term("suspension_thermal", "thermal", lambda s, grid, shared: thermal_displacement(
        s.thermal, shared.chi, grid, differential=True).scaled(ROOT2)),
    Term("intensity_rp_iss_on", "intensity", lambda s, grid, shared: intensity_rp_displacement(
        shared.intensity, grid, iss_on=True).scaled(ROOT2), lambda s: s.iss_enabled),
    Term("intensity_rp_iss_off", "intensity", lambda s, grid, shared: intensity_rp_displacement(
        shared.intensity, grid, iss_on=False).scaled(ROOT2), lambda s: not s.iss_enabled),
    Term("adc", "adc", lambda s, grid, shared: adc_noise_asd(s.readout, s.cavity, grid)),
    Term("pll", "pll", lambda s, grid, shared: pll_noise_asd(s.readout, s.cavity, grid)),
    Term("acoustic", "acoustic", lambda s, grid, shared: acoustic_peaks(s.acoustic, grid)),
    Term("quantum_total", "quantum", _quantum_total),
    Term("sql", None, lambda s, grid, shared: qn.sql_psd(s.cavity.mirror_mass, grid)),
)
BUDGET_PARTS = tuple(dict.fromkeys(t.switch for t in TERMS if t.switch))


def assemble_budget(scenario):
    """Full displacement budget of the beat readout, one column per term.
    A switched-off term is zeros and computes no shared response."""
    grid = scenario.grid
    shared = _Shared(scenario, grid)
    zeros = zero_spectrum(grid, UNIT_DISPLACEMENT)
    components, references = {}, {}
    for term in TERMS:
        on = term.switch is None or scenario.include[term.switch]
        target = components if term.in_total(scenario) else references
        target[term.column] = term.calc(scenario, grid, shared) if on else zeros
    return NoiseBudget.from_components(components, references=references)


def _asd_at(spectrum, f):
    return float(np.interp(f, spectrum.grid.values, spectrum.asd))


def run_budget(scenario, outdir):
    """Assemble the full budget and write CSVs plus manifest/summary."""
    os.makedirs(outdir, exist_ok=True)
    budget = assemble_budget(scenario)
    write_budget_csv(os.path.join(outdir, "budget.csv"), budget)

    rms = cumulative_rms(budget.total)
    write_csv(
        os.path.join(outdir, "budget_rms.csv"),
        ["frequency_hz", "rms_m"],
        [scenario.grid.values, rms.asd],
    )

    report = saturation_margin(budget, scenario.readout, scenario.cavity)
    summary = {
        "asd_at_100_hz_m_rthz": _asd_at(budget.total, 100.0),
        "rms_m": report.rms_m,
        "rms_hz": report.rms_hz,
        "vco_margin_ratio": report.margin_ratio if np.isfinite(report.margin_ratio) else "unbounded",
        "iss_enabled": scenario.iss_enabled,
    }
    sel = (scenario.grid.values >= 100.0) & (scenario.grid.values <= 1000.0)
    if np.any(sel):
        summary["min_asd_100_1000_hz_m_rthz"] = float(np.min(budget.total.asd[sel]))
    _write_json(os.path.join(outdir, "budget_summary.json"), summary)

    manifest = {
        "command": "budget",
        "files": {
            "budget": "budget.csv",
            "cumulative_rms": "budget_rms.csv",
            "summary": "budget_summary.json",
        },
        "x_axis": {"column": "frequency_hz", "log": True, "unit": "Hz"},
        "y_axis": {"log": True, "unit": UNIT_DISPLACEMENT},
        "traces": [
            {"column": name, "in_total": True} for name in budget.components
        ] + [
            {"column": name, "in_total": False} for name in budget.references
        ] + [{"column": "total", "in_total": False}],
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
    return budget


def run_suspension_tf(scenario, outdir):
    """Differential suspension transfer function and mode table."""
    os.makedirs(outdir, exist_ok=True)
    grid = scenario.grid
    if scenario.chain.stiffness_mismatch == 0.0:
        warnings.warn(
            "stiffness mismatch is zero: the differential transfer "
            "function vanishes identically",
            UserWarning,
            stacklevel=2,
        )
    model = build_model(scenario.chain, HORIZONTAL)
    h = tf_suspoint_to_differential(model, grid)
    mag = np.abs(h)
    phase = np.degrees(np.angle(h))
    header = ["frequency_hz", "magnitude", "phase_deg"]
    columns = [grid.values, mag, phase]
    if scenario.tf_normalize:
        peak = mag.max()
        header.append("magnitude_normalized")
        columns.append(mag / peak if peak > 0.0 else mag)
    write_csv(os.path.join(outdir, "suspension_tf.csv"), header, columns)

    modes = eigenmodes(model)
    write_mode_table(os.path.join(outdir, "modes.csv"), modes)

    f = grid.values
    i0, i1 = np.searchsorted(f, 0.1), np.searchsorted(f, 0.25)
    slope = None
    if i1 > i0 and mag[i0] > 0.0 and mag[i1] > 0.0:
        slope = float(
            (np.log10(mag[i1]) - np.log10(mag[i0])) / (np.log10(f[i1]) - np.log10(f[i0]))
        )
    _write_json(os.path.join(outdir, "suspension_summary.json"), {
        "eigenfrequencies_hz": [m.frequency_hz for m in modes],
        "low_frequency_slope": slope,
        "stiffness_mismatch": scenario.chain.stiffness_mismatch,
    })
    _write_json(os.path.join(outdir, "manifest.json"), {
        "command": "suspension-tf",
        "files": {
            "transfer_function": "suspension_tf.csv",
            "modes": "modes.csv",
            "summary": "suspension_summary.json",
        },
        "x_axis": {"column": "frequency_hz", "log": True, "unit": "Hz"},
        "y_axis": {"log": True, "unit": "m/m"},
        "traces": [{"column": "magnitude"}, {"column": "phase_deg", "unit": "deg"}],
    })
    return h


def run_isolation(scenario, outdir):
    """Passive/active platform comparison with RMS summary."""
    os.makedirs(outdir, exist_ok=True)
    grid = scenario.grid
    result = closed_loop(scenario.platform, scenario.geophone, scenario.actuator,
                         scenario.servo, grid)

    passive = Spectrum(grid, np.abs(result.passive) * scenario.ground.asd, UNIT_DISPLACEMENT)
    active = Spectrum(grid, np.abs(result.suppression) * scenario.ground.asd, UNIT_DISPLACEMENT)
    write_csv(
        os.path.join(outdir, "isolation.csv"),
        ["frequency_hz", "ground", "payload_passive", "payload_active"],
        [grid.values, scenario.ground.asd, passive.asd, active.asd],
    )
    write_csv(
        os.path.join(outdir, "isolation_rms.csv"),
        ["frequency_hz", "rms_passive_m", "rms_active_m"],
        [grid.values, cumulative_rms(passive).asd, cumulative_rms(active).asd],
    )

    rms_passive = band_rms(passive, 0.5, 50.0)
    rms_active = band_rms(active, 0.5, 50.0)
    _write_json(os.path.join(outdir, "isolation_summary.json"), {
        "rms_passive_m_0p5_50hz": rms_passive,
        "rms_active_m_0p5_50hz": rms_active,
        "rms_reduction_ratio": rms_passive / rms_active if rms_active > 0.0 else "unbounded",
        "unity_gain_hz": list(result.unity_gain_hz),
        "phase_margins_deg": list(result.phase_margins_deg),
        "closed_loop_stable": result.stable,
    })
    _write_json(os.path.join(outdir, "manifest.json"), {
        "command": "isolation",
        "files": {
            "spectra": "isolation.csv",
            "cumulative_rms": "isolation_rms.csv",
            "summary": "isolation_summary.json",
        },
        "x_axis": {"column": "frequency_hz", "log": True, "unit": "Hz"},
        "y_axis": {"log": True, "unit": UNIT_DISPLACEMENT},
        "traces": [
            {"column": "ground"},
            {"column": "payload_passive"},
            {"column": "payload_active"},
        ],
    })
    return result


def run_quantum_design(scenario, outdir):
    """Quantum design curves and the kappa = 1 operating report."""
    os.makedirs(outdir, exist_ok=True)
    grid = scenario.grid
    if scenario.quantum_power <= 0.0:
        raise ConfigError("quantum design needs a positive circulating power")
    config = _quantum_config(scenario)
    budget = qn.quantum_noise_psd(config, grid)
    write_csv(
        os.path.join(outdir, "quantum.csv"),
        ["frequency_hz", "shot_noise", "radiation_pressure", "sql", "total"],
        [
            grid.values,
            budget.components["shot_noise"].asd,
            budget.components["radiation_pressure"].asd,
            budget.references["sql"].asd,
            budget.total.asd,
        ],
    )
    summary = {
        "circulating_power_w": scenario.quantum_power,
        "kappa_unity_hz": qn.kappa_unity_frequency(config),
        "free_mass_floor_hz": scenario.validity_floor_hz,
        "grid_extends_below_floor": grid.fmin < scenario.validity_floor_hz,
        "sql_asd_at_100_hz_m_rthz": _asd_at(budget.references["sql"], 100.0),
    }
    if scenario.quantum_target_hz is not None:
        summary["sql_target_hz"] = scenario.quantum_target_hz
        summary["power_for_sql_w"] = qn.power_for_sql(
            scenario.cavity, scenario.quantum_target_hz, pole_model=scenario.pole_model
        )
    _write_json(os.path.join(outdir, "quantum_summary.json"), summary)
    _write_json(os.path.join(outdir, "manifest.json"), {
        "command": "quantum",
        "files": {"spectra": "quantum.csv", "summary": "quantum_summary.json"},
        "x_axis": {"column": "frequency_hz", "log": True, "unit": "Hz"},
        "y_axis": {"log": True, "unit": UNIT_DISPLACEMENT},
        "traces": [
            {"column": "shot_noise"},
            {"column": "radiation_pressure"},
            {"column": "sql"},
            {"column": "total"},
        ],
    })
    return budget
