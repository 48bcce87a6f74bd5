"""Suspension thermal noise from the fluctuation-dissipation theorem.

The displacement noise PSD is 4*kB*T*Re(Y)/omega^2 with Y = i*omega*chi
the mechanical admittance seen by a force at the mirror and chi its force
susceptibility.  All dissipation information lives in the suspension
model (loss angles and dashpots); temperature is the only extra parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import K_B
from .errors import ConfigError, GridError
from .spectra import UNIT_DISPLACEMENT, Spectrum
from .suspension import mirror_force_susceptibility


@dataclass(frozen=True)
class ThermalConfig:
    temperature: float  # [K]

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be positive")


def mirror_admittance(model, grid, mirror="a"):
    """Y(omega) = i*omega * x/F at the mirror coordinate [m/(N s)].

    A lossless model simply returns Re(Y) = 0 everywhere.
    """
    chi = mirror_force_susceptibility(model, grid, mirror=mirror)
    return 1j * grid.angular * chi


def thermal_displacement(config, chi, grid, differential=False):
    """FDT displacement ASD at one mirror [m/rtHz].

    `chi` is the mirror's force susceptibility x/F [m/N] on `grid` (see
    `mirror_force_susceptibility`), so a caller that also needs chi solves
    the model once.  With `differential=True` the two (uncorrelated)
    mirrors of a cavity are combined, i.e. sqrt(2) times the single-mirror
    result; the correlated path through the common penultimate mass is
    second order in the stage mismatch and neglected.
    """
    chi = np.asarray(chi)
    if chi.shape != grid.values.shape:
        raise GridError("susceptibility does not match the grid")
    omega = grid.angular
    re_y = np.real(1j * omega * chi)
    psd = 4.0 * K_B * config.temperature * re_y / omega ** 2
    asd = np.sqrt(psd)
    if differential:
        asd = asd * np.sqrt(2.0)
    return Spectrum(grid, asd, UNIT_DISPLACEMENT)
