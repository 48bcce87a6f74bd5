"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with `pytest -s` to see
them inline).  Tolerances are fixed here, not configurable.
"""

import filecmp
import math
import os
import time
import warnings

import numpy as np
import pytest

from suscav.cavity import CavityParams, disp_per_hz, finesse, fwhm
from suscav.cli import resolve_config
from suscav.constants import C_LIGHT, K_B
from suscav.isolation import (
    ActuatorParams,
    GeophoneParams,
    PlatformParams,
    closed_loop,
    loop_gain,
)
from suscav.quantum import (
    FreeMassValidityWarning,
    QuantumConfig,
    kappa,
    power_for_sql,
    quantum_noise_psd,
    sql_psd,
)
from suscav.readout import saturation_margin
from suscav.scenario import assemble_budget, load_scenario, run_budget
from suscav.spectra import (
    UNIT_DISPLACEMENT,
    FrequencyGrid,
    Spectrum,
    band_rms,
    cumulative_rms,
    make_log_grid,
)
from suscav.suspension import (
    build_model,
    eigenmodes,
    mirror_force_susceptibility,
    tf_suspoint_to_differential,
    tf_suspoint_to_mirror,
)
from suscav.thermal import ThermalConfig, thermal_displacement
from oracles import mirror_admittance, single_oscillator
from test_suspension import default_chain

HBAR = 1.054571817e-34


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, detail


@pytest.fixture(autouse=True)
def quiet_free_mass():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FreeMassValidityWarning)
        yield


@pytest.fixture(scope="module")
def paper_cavity_module():
    return CavityParams(
        wavelength=1.55e-6, length=0.095, input_transmission=7.5e-6,
        end_transmission=7.5e-6, excess_loss=1e-6, mirror_mass=0.01,
    )


def test_criterion_1_cavity_consistency(paper_cavity_module):
    """Finesse 3.9e5 +/- 3% and FWHM 4020 Hz +/- 5% from the loss budget."""
    t0 = time.perf_counter()
    f = finesse(paper_cavity_module)
    bw = fwhm(paper_cavity_module)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(f - 3.9e5) / 3.9e5 <= 0.03
        and abs(bw - 4020.0) / 4020.0 <= 0.05
        and elapsed < 1.0
    )
    report(1, ok, f"finesse={f:.4g} (3.9e5 ±3%), fwhm={bw:.4g} Hz (4020 ±5%), "
                  f"runtime={elapsed*1e3:.2f} ms")


def test_criterion_2_sql_design_point(paper_cavity_module):
    """kappa(power_for_sql) = 1 to 1e-9; SQL(100 Hz, 10 g) vs hand value
    to 0.5%; quantum total PSD >= SQL PSD everywhere."""
    pc = power_for_sql(paper_cavity_module, 100.0)
    grid_100 = FrequencyGrid(np.array([100.0]))
    config = QuantumConfig(cavity=paper_cavity_module, circulating_power=pc)
    k = kappa(config, grid_100)[0]

    # independent evaluation of sqrt(8*hbar/(m*(2*pi*f)^2))
    sql_hand = math.sqrt(8.0 * HBAR / (0.01 * (2.0 * math.pi * 100.0) ** 2))
    sql_code = sql_psd(0.01, grid_100)[0]

    grid = make_log_grid(0.1, 1e4, 1000)
    budget = quantum_noise_psd(config, grid)
    am_gm = bool(np.all(budget.total.psd >= budget.references["sql"].psd))

    ok = (
        abs(k - 1.0) <= 1e-9
        and abs(sql_code - sql_hand) / sql_hand <= 0.005
        and abs(sql_hand - 4.62e-19) / 4.62e-19 <= 0.005
        and am_gm
    )
    report(2, ok, f"kappa(100 Hz)={k:.12f} (1 ± 1e-9), Pc={pc:.4g} W, "
                  f"sql={sql_code:.6g} vs hand {sql_hand:.6g} (±0.5%), "
                  f"total>=SQL everywhere: {am_gm}")


def test_criterion_3_thermal_oracle():
    """Single-oscillator FDT integral reproduces kB*T/k within 5%;
    closed-form Re(Y) matches the matrix path to 1e-9 relative."""
    m, f0, q, temp = 0.1, 5.0, 5.0, 293.0
    k = m * (2.0 * math.pi * f0) ** 2
    c = m * (2.0 * math.pi * f0) / q
    model = single_oscillator(m, k, viscous_damping=c)
    grid = make_log_grid(f0 / 1000.0, f0 * 1000.0, 40000)
    s = thermal_displacement(ThermalConfig(temp), mirror_force_susceptibility(model, grid), grid)
    integral = np.trapezoid(s ** 2, grid.values)
    equipartition = K_B * temp / k
    frac = abs(integral - equipartition) / equipartition

    w = grid.angular
    closed_form = c * w ** 2 / ((k - m * w ** 2) ** 2 + (c * w) ** 2)
    matrix_path = np.real(mirror_admittance(model, grid))
    max_rel = float(np.max(np.abs(matrix_path - closed_form) / closed_form))

    ok = frac <= 0.05 and max_rel <= 1e-9
    report(3, ok, f"equipartition deviation {frac*100:.3f}% (<=5%), "
                  f"Re(Y) closed-form vs matrix max rel {max_rel:.2e} (<=1e-9)")


def test_criterion_4_suspension_shape():
    """Default chain: modes < 10 Hz; +2 slope below the first resonance;
    zero differential at zero mismatch; -8 high-frequency rolloff."""
    chain = default_chain()
    modes = eigenmodes(build_model(chain, "horizontal"))
    below_10 = all(mo.frequency_hz < 10.0 for mo in modes)

    # first resonance is at 0.74 Hz; the +2 asymptote is measured well
    # below it (0.10-0.25 Hz) where pole corrections stay inside +/-10%
    grid_lo = make_log_grid(0.1, 0.25, 40)
    h = tf_suspoint_to_differential(build_model(chain, "horizontal"), grid_lo)
    slope_lo = np.polyfit(np.log10(grid_lo.values), np.log10(np.abs(h)), 1)[0]

    h_zero = tf_suspoint_to_differential(build_model(default_chain(eps=0.0), "horizontal"),
                                         make_log_grid(0.1, 1e4, 400))
    identically_zero = bool(np.all(h_zero == 0.0))

    grid_hi = make_log_grid(30.0, 100.0, 120)
    h_hi = tf_suspoint_to_mirror(
        build_model(default_chain(damping=0.0, phi=0.0), "horizontal"), grid_hi
    )
    slope_hi = np.polyfit(np.log10(grid_hi.values), np.log10(np.abs(h_hi)), 1)[0]

    ok = (
        below_10
        and abs(slope_lo - 2.0) <= 0.2
        and identically_zero
        and abs(slope_hi + 8.0) <= 0.2
    )
    freqs = ", ".join(f"{mo.frequency_hz:.2f}" for mo in modes)
    report(4, ok, f"modes [{freqs}] Hz (<10), low-f slope {slope_lo:+.3f} (2 ±0.2), "
                  f"eps=0 trace identically zero: {identically_zero}, "
                  f"rolloff {slope_hi:+.3f} (-8 ±0.2)")


def test_criterion_5_active_isolation():
    """Shipped servo: cumulative-RMS reduction >= 5 over 0.5-50 Hz and
    the suppression identity passive/active == |1+G| to 1e-12."""
    platform = PlatformParams(140.0, 3.9, 7.0, 10.0)
    actuator = ActuatorParams(41.4, 0.0178, 1.7)
    grid = make_log_grid(0.1, 1e4, 1000)
    gain = loop_gain(platform, GeophoneParams(1.0, 276.0, 0.3), actuator,
                     load_scenario(resolve_config("paper_default")).servo)
    result = closed_loop(gain, platform.passive("horizontal"), grid)

    ground = Spectrum(grid, 1e-7 * np.minimum(1.0, (1.0 / grid.values) ** 2),
                      UNIT_DISPLACEMENT)
    passive = Spectrum(grid, np.abs(result.passive) * ground.asd, UNIT_DISPLACEMENT)
    active = Spectrum(grid, np.abs(result.suppression) * ground.asd, UNIT_DISPLACEMENT)
    ratio = band_rms(passive, 0.5, 50.0) / band_rms(active, 0.5, 50.0)

    identity = np.abs(result.passive) / np.abs(result.suppression)
    max_rel = float(np.max(np.abs(identity / np.abs(1.0 + result.loop_gain) - 1.0)))

    ok = ratio >= 5.0 and max_rel <= 1e-12
    report(5, ok, f"RMS reduction x{ratio:.2f} (>=5, target 10), "
                  f"identity |1+G| max rel dev {max_rel:.2e} (<=1e-12), "
                  f"margins {[f'{pm:.1f}' for pm in result.phase_margins_deg]} deg")


def test_criterion_6_range_budget(paper_cavity_module):
    """50 MHz VCO range converts to the hand value of 24.56 nm to 0.1%;
    the shipped scenario stays under 1 nm RMS with margin >= 20."""
    conversion = 50e6 * disp_per_hz(paper_cavity_module)
    hand = 50e6 * 0.095 * 1.55e-6 / C_LIGHT
    conv_ok = abs(conversion - hand) / hand <= 1e-3 and abs(conversion - 24.6e-9) / 24.6e-9 <= 0.01

    scenario = load_scenario(resolve_config("paper_default"))
    budget = assemble_budget(scenario)
    rep = saturation_margin(cumulative_rms(budget.total), scenario.readout, scenario.cavity)
    ok = conv_ok and rep.rms_m < 1e-9 and rep.margin_ratio >= 20.0
    report(6, ok, f"50 MHz <-> {conversion*1e9:.3f} nm (hand {hand*1e9:.3f}, 0.1%), "
                  f"budget rms {rep.rms_m*1e9:.3f} nm (<1), margin x{rep.margin_ratio:.1f} (>=20)")


def test_criterion_7_full_budget(tmp_path):
    """paper_default: total(100 Hz) within x2 of 2e-15 m/rtHz, minimum over
    100-1000 Hz within x2 of 5e-16, ISS off/on reaches ~x5 in 30-100 Hz,
    and the 1000-point run finishes in under 10 s."""
    scenario = load_scenario(resolve_config("paper_default"))
    t0 = time.perf_counter()
    run_budget(scenario, tmp_path / "budget")
    elapsed = time.perf_counter() - t0
    budget = assemble_budget(scenario)

    f = scenario.grid.values
    at_100 = float(np.interp(100.0, f, budget.total.asd))
    sel = (f >= 100.0) & (f <= 1000.0)
    minimum = float(np.min(budget.total.asd[sel]))

    comps_off = dict(budget.components)
    comps_off["intensity_rp_iss_on"] = budget.references["intensity_rp_iss_off"]
    psd_off = np.zeros(len(f))
    for s in comps_off.values():
        psd_off += s.psd
    total_off = np.sqrt(psd_off)
    band = (f >= 30.0) & (f <= 100.0)
    iss_ratio = float(np.max(total_off[band] / budget.total.asd[band]))

    ok = (
        0.5 <= at_100 / 2e-15 <= 2.0
        and 0.5 <= minimum / 5e-16 <= 2.0
        and 2.5 <= iss_ratio <= 6.5
        and elapsed < 10.0
    )
    report(7, ok, f"total(100 Hz)={at_100:.3g} (2e-15 x/2), "
                  f"min(100-1000)={minimum:.3g} (5e-16 x/2), "
                  f"ISS off/on max x{iss_ratio:.2f} (~5), runtime {elapsed:.2f} s (<10)")


def test_criterion_8_determinism(tmp_path):
    """Identical scenario runs produce bit-identical CSV output."""
    scenario = load_scenario(resolve_config("paper_default"))
    a, b = tmp_path / "a", tmp_path / "b"
    run_budget(scenario, a)
    run_budget(scenario, b)
    names = sorted(n for n in os.listdir(a) if n.endswith(".csv"))
    same = all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)
    report(8, same, f"bit-identical CSVs across two runs: {names}")
