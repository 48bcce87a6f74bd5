"""Quantum-noise limits of the suspended cavity.

The total quantum noise PSD is (1/kappa + kappa)/2 times the standard
quantum limit PSD, where kappa is the dimensionless opto-mechanical
coupling.  kappa is linear in circulating power, so the power placing
the minimum at a target frequency has a closed form.

The underlying free-mass treatment is only valid well above the highest
suspension resonance, above `validity_floor_hz`.  The functions here do not
warn below it; the commands of `scenario` do, with `FreeMassValidityWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams
from .constants import C_LIGHT, HBAR
from .errors import ConfigError
from .spectra import UNIT_DISPLACEMENT, NoiseBudget, Spectrum

# The idealised model takes the cavity pole from the input coupler alone
# (lossless, zero end-mirror transmission); "total_loss" instead uses the
# measured round-trip loss, i.e. the bandwidth actually observed.
POLE_INPUT = "input_transmission"
POLE_TOTAL = "total_loss"


class FreeMassValidityWarning(UserWarning):
    """Evaluation requested below the free-mass validity floor."""


@dataclass(frozen=True)
class QuantumConfig:
    cavity: CavityParams
    circulating_power: float           # [W], explicit operating point
    validity_floor_hz: float = 10.0    # highest suspension resonance bound
    pole_model: str = POLE_INPUT

    def __post_init__(self):
        if self.circulating_power < 0.0:
            raise ConfigError("circulating power must be >= 0")
        if self.validity_floor_hz <= 0.0:
            raise ConfigError("validity floor must be positive")
        if self.pole_model not in (POLE_INPUT, POLE_TOTAL):
            raise ConfigError(f"unknown pole model {self.pole_model!r}")


def _cavity_pole(cavity, pole_model):
    """Half-linewidth [rad/s] entering the coupling factor."""
    loss = (
        cavity.input_transmission
        if pole_model == POLE_INPUT
        else cavity.round_trip_loss
    )
    return np.float64(loss * C_LIGHT / (4.0 * cavity.length))


def sql_psd(mirror_mass, grid):
    """Standard-quantum-limit ASD sqrt(8*hbar/(m*omega**2)) [m/rtHz]."""
    if mirror_mass <= 0.0:
        raise ConfigError("mirror mass must be positive")
    omega = grid.angular
    return Spectrum(grid, np.sqrt(8.0 * HBAR / mirror_mass) / omega, UNIT_DISPLACEMENT)


def kappa(config, grid):
    """Frequency-dependent opto-mechanical coupling (dimensionless array),
    on any grid: below `config.validity_floor_hz` it is indicative only."""
    cav = config.cavity
    omega = grid.angular
    gamma = _cavity_pole(cav, config.pole_model)
    return (
        cav.omega0 * cav.input_transmission * config.circulating_power
        / (cav.mirror_mass * np.float64(cav.length) ** 2 * omega ** 2 * (omega ** 2 + gamma ** 2))
    )


def power_for_sql(cavity, f_target, pole_model=POLE_INPUT):
    """Circulating power [W] putting kappa = 1 at `f_target` (closed form)."""
    if f_target <= 0.0:
        raise ConfigError("target frequency must be positive")
    omega = np.float64(2.0 * np.pi * f_target)
    gamma = _cavity_pole(cavity, pole_model)
    with np.errstate(over="ignore"):     # refused below
        power = (
            cavity.mirror_mass * np.float64(cavity.length) ** 2 * omega ** 2
            * (omega ** 2 + gamma ** 2)
            / (cavity.omega0 * cavity.input_transmission)
        )
    if not np.isfinite(power):
        raise ConfigError(f"the power for the SQL at {f_target:.6g} Hz overflows")
    return float(power)


def kappa_unity_frequency(config):
    """Frequency [Hz] where kappa crosses 1, closed form."""
    cav = config.cavity
    if config.circulating_power <= 0.0:
        raise ConfigError("kappa never reaches 1 without circulating power")
    gamma = _cavity_pole(cav, config.pole_model)
    a = (
        cav.omega0 * cav.input_transmission * config.circulating_power
        / (cav.mirror_mass * np.float64(cav.length) ** 2)
    )
    omega_sq = 0.5 * (-gamma ** 2 + np.sqrt(gamma ** 4 + 4.0 * a))
    return float(np.sqrt(omega_sq) / (2.0 * np.pi))


def quantum_noise_psd(config, grid):
    """Shot-noise / radiation-pressure decomposition as a `NoiseBudget`.

    Components "shot_noise" and "radiation_pressure" sum (in PSD) to the
    total quantum noise; the SQL curve rides along as a reference that is
    not part of the total.
    """
    if config.circulating_power <= 0.0:
        raise ConfigError("circulating power must be positive (shot noise diverges)")
    sql = sql_psd(config.cavity.mirror_mass, grid)
    k = kappa(config, grid)
    qsn = Spectrum.from_psd(grid, sql.psd / (2.0 * k), UNIT_DISPLACEMENT)
    qrpn = Spectrum.from_psd(grid, sql.psd * k / 2.0, UNIT_DISPLACEMENT)
    return NoiseBudget.from_components(
        {"shot_noise": qsn, "radiation_pressure": qrpn},
        references={"sql": sql},
    )
