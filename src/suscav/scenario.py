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
from dataclasses import dataclass

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

BUDGET_PARTS = ("seismic", "thermal", "intensity", "adc", "pll", "acoustic", "quantum")


def _section(cfg, name):
    if name not in cfg:
        raise ConfigError(f"config section {name!r} is missing")
    return cfg[name]


def _get(section, key, where):
    if key not in section:
        raise ConfigError(f"config error in {where!r}: missing key {key!r}")
    return section[key]


def _build_stage(entry, where):
    return Stage(
        mass=_get(entry, "mass_kg", where),
        wire_length=_get(entry, "wire_length_m", where),
        vertical_stiffness=entry.get("vertical_stiffness_n_per_m", 0.0),
        viscous_damping_to_parent=entry.get("viscous_damping_ns_per_m", 0.0),
        loss_angle=entry.get("loss_angle", 0.0),
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
        if grid_override is not None:
            grid = grid_override
        else:
            g = _section(cfg, "grid")
            grid = make_log_grid(
                _get(g, "fmin_hz", "grid"),
                _get(g, "fmax_hz", "grid"),
                int(_get(g, "n", "grid")),
            )

        c = _section(cfg, "cavity")
        cav = CavityParams(
            wavelength=_get(c, "wavelength_m", "cavity"),
            length=_get(c, "length_m", "cavity"),
            input_transmission=_get(c, "input_transmission", "cavity"),
            end_transmission=c.get("end_transmission", 0.0),
            excess_loss=c.get("excess_loss", 0.0),
            mirror_mass=_get(c, "mirror_mass_kg", "cavity"),
            input_power=c.get("input_power_w", 0.0),
        )

        s = _section(cfg, "suspension")
        stages = tuple(
            _build_stage(e, "suspension.stages") for e in _get(s, "stages", "suspension")
        )
        final = _build_stage(_get(s, "final_stage", "suspension"), "suspension.final_stage")
        chain = SuspensionChain(
            stages=stages,
            final_stages=(final, final),
            stiffness_mismatch=s.get("stiffness_mismatch", 0.01),
            vertical_coupling=s.get("vertical_coupling", 1e-3),
        )

        t = _section(cfg, "thermal")
        thermal_cfg = ThermalConfig(temperature=_get(t, "temperature_k", "thermal"))

        iso = _section(cfg, "isolation")
        p = _get(iso, "platform", "isolation")
        platform = PlatformParams(
            payload_mass=_get(p, "payload_mass_kg", "isolation.platform"),
            horizontal_resonance=_get(p, "horizontal_resonance_hz", "isolation.platform"),
            vertical_resonance=_get(p, "vertical_resonance_hz", "isolation.platform"),
            quality_factor=_get(p, "quality_factor", "isolation.platform"),
        )
        a = _get(iso, "actuator", "isolation")
        actuator = ActuatorParams(
            coil_resistance=_get(a, "coil_resistance_ohm", "isolation.actuator"),
            coil_inductance=_get(a, "coil_inductance_h", "isolation.actuator"),
            force_constant=_get(a, "force_constant_n_per_a", "isolation.actuator"),
        )
        geo = _get(iso, "geophone", "isolation")
        geophone = GeophoneParams(
            natural_frequency=_get(geo, "natural_frequency_hz", "isolation.geophone"),
            generator_constant=_get(geo, "generator_constant_v_per_m_s", "isolation.geophone"),
            quality_factor=geo.get("quality_factor", 0.3),
        )
        try:
            servo = ZPK.from_config(_get(iso, "servo", "isolation"))
        except KeyError as exc:
            raise ConfigError(f"config error in 'isolation.servo': missing {exc}") from exc

        gsec = _get(iso, "ground", "isolation")
        if "csv" in gsec:
            f_src, a_src = read_asd_csv(gsec["csv"])
            ground_asd = interp_loglog(f_src, a_src, grid)
        else:
            level = _get(gsec, "level_m_rthz", "isolation.ground")
            corner = gsec.get("corner_hz", 1.0)
            ground_asd = level * np.minimum(1.0, (corner / grid.values) ** 2)
        ground = Spectrum(grid, ground_asd, UNIT_DISPLACEMENT)

        r = _section(cfg, "readout")
        try:
            whitening = ZPK.from_config(_get(r, "whitening", "readout"))
        except KeyError as exc:
            raise ConfigError(f"config error in 'readout.whitening': missing {exc}") from exc
        readout = ReadoutConfig(
            vco_range=_get(r, "vco_range_hz", "readout"),
            pll_noise_floor=_get(r, "pll_noise_floor_hz_rthz", "readout"),
            adc_bits=int(_get(r, "adc_bits", "readout")),
            adc_fullscale=_get(r, "adc_fullscale_vpp", "readout"),
            sample_rate=_get(r, "sample_rate_hz", "readout"),
            whitening=whitening,
            volts_to_hz=_get(r, "volts_to_hz", "readout"),
        )

        i = _section(cfg, "intensity")
        rin_spec = _get(i, "rin_per_rthz", "intensity")
        if isinstance(rin_spec, dict):
            f_src, a_src = read_asd_csv(rin_spec["csv"])
            rin_asd = interp_loglog(f_src, a_src, grid)
        else:
            rin_asd = np.full(len(grid), float(rin_spec))
        iss = i.get("iss", {})
        iss_enabled = bool(iss.get("enabled", True))
        iss_peak = iss.get("peak_suppression", 5.0)
        iss_band = tuple(iss.get("band_hz", (30.0, 100.0)))

        ac = cfg.get("acoustic", {})
        peaks = tuple(
            AcousticPeak(
                center=_get(e, "center_hz", "acoustic.peaks"),
                width=_get(e, "width_hz", "acoustic.peaks"),
                height=_get(e, "height_m_rthz", "acoustic.peaks"),
            )
            for e in ac.get("peaks", [])
        )

        q = _section(cfg, "quantum")
        target = q.get("power_for_sql_at_hz")
        pole_model = q.get("pole_model", qn.POLE_INPUT)
        if target is not None:
            power = qn.power_for_sql(cav, target, pole_model=pole_model)
        else:
            power = _get(q, "circulating_power_w", "quantum")

        include = dict.fromkeys(BUDGET_PARTS, True)
        include.update(cfg.get("budget", {}).get("include", {}))
        unknown = set(include) - set(BUDGET_PARTS)
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
            iss_enabled=iss_enabled,
            iss_peak=iss_peak,
            iss_band=iss_band,
            acoustic=peaks,
            quantum_power=power,
            quantum_target_hz=target,
            validity_floor_hz=q.get("validity_floor_hz", 10.0),
            pole_model=pole_model,
            isolation_active=bool(iso.get("active", True)),
            include=include,
            tf_normalize=bool(cfg.get("suspension_tf", {}).get("normalize", False)),
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


def assemble_budget(scenario):
    """Full displacement budget of the beat readout.

    Per-cavity contributions (seismic, thermal, intensity) enter the
    two-cavity beat as uncorrelated, hence the sqrt(2) factors; the
    readout chain (ADC, PLL) reads the single beat note and enters once.
    The quantum traces are single-cavity design references; the SQL curve
    is carried as a component so a budget with everything disabled
    reduces to it.
    """
    grid = scenario.grid
    zeros = zero_spectrum(grid, UNIT_DISPLACEMENT)
    root2 = math.sqrt(2.0)

    if scenario.include["seismic"]:
        supp = platform_suppression_tf(scenario, grid)
        horiz = seismic_to_cavity(scenario.chain, scenario.ground, supp, grid)
        model_v = build_model(scenario.chain, VERTICAL)
        vert_tf = tf_suspoint_to_mirror(model_v, grid)
        vert_plat = platform_suppression_tf(scenario, grid, axis=VERTICAL)
        vert_asd = (
            np.abs(vert_plat * vert_tf)
            * scenario.chain.vertical_coupling
            * scenario.ground.asd
        )
        seismic = Spectrum.from_psd(
            grid, 2.0 * (horiz.psd + vert_asd ** 2), UNIT_DISPLACEMENT
        )
    else:
        seismic = zeros

    model_h = build_model(scenario.chain, HORIZONTAL)

    if scenario.include["thermal"]:
        thermal = thermal_displacement(
            scenario.thermal, model_h, grid, differential=True
        ).scaled(root2)
    else:
        thermal = zeros

    if scenario.include["intensity"]:
        chi = mirror_force_susceptibility(model_h, grid)
        icfg = IntensityNoiseConfig(
            rin=Spectrum(grid, scenario.rin_asd, UNIT_RELATIVE),
            iss_suppression=iss_profile(grid, scenario.iss_peak, scenario.iss_band),
            circulating_power=scenario.quantum_power,
            susceptibility=chi,
        )
        intensity_on = intensity_rp_displacement(icfg, grid, iss_on=True).scaled(root2)
        intensity_off = intensity_rp_displacement(icfg, grid, iss_on=False).scaled(root2)
    else:
        intensity_on = intensity_off = zeros

    adc = adc_noise_asd(scenario.readout, scenario.cavity, grid) \
        if scenario.include["adc"] else zeros
    pll = pll_noise_asd(scenario.readout, scenario.cavity, grid) \
        if scenario.include["pll"] else zeros
    acoustic = acoustic_peaks(scenario.acoustic, grid) \
        if scenario.include["acoustic"] else zeros

    if scenario.include["quantum"] and scenario.quantum_power > 0.0:
        qbudget = qn.quantum_noise_psd(_quantum_config(scenario), grid)
        quantum_total = qbudget.total
        sql = qbudget.references["sql"]
    else:
        quantum_total = zeros
        sql = qn.sql_psd(scenario.cavity.mirror_mass, grid)

    active, inactive = (intensity_on, intensity_off) if scenario.iss_enabled \
        else (intensity_off, intensity_on)
    active_name = "intensity_rp_iss_on" if scenario.iss_enabled else "intensity_rp_iss_off"
    inactive_name = "intensity_rp_iss_off" if scenario.iss_enabled else "intensity_rp_iss_on"

    components = {
        "seismic": seismic,
        "suspension_thermal": thermal,
        active_name: active,
        "adc": adc,
        "pll": pll,
        "acoustic": acoustic,
        "quantum_total": quantum_total,
        "sql": sql,
    }
    return NoiseBudget.from_components(components, references={inactive_name: inactive})


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
    h = tf_suspoint_to_differential(scenario.chain, grid)
    mag = np.abs(h)
    phase = np.degrees(np.angle(h))
    header = ["frequency_hz", "magnitude", "phase_deg"]
    columns = [grid.values, mag, phase]
    if scenario.tf_normalize:
        peak = mag.max()
        header.append("magnitude_normalized")
        columns.append(mag / peak if peak > 0.0 else mag)
    write_csv(os.path.join(outdir, "suspension_tf.csv"), header, columns)

    modes = eigenmodes(build_model(scenario.chain, HORIZONTAL))
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
