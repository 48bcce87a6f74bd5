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


@dataclass(frozen=True)
class ThermalConfig:
    temperature: float  # [K]

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be positive")


def thermal_displacement(config, chi, grid):
    """FDT displacement ASD at one mirror [m/rtHz].

    `chi` is the mirror's force susceptibility x/F [m/N] on `grid` (see
    `mirror_force_susceptibility`), so a caller that also needs chi solves
    the model once.
    """
    chi = np.asarray(chi)
    if chi.shape != grid.values.shape:
        raise GridError("susceptibility does not match the grid")
    omega = grid.angular
    re_y = np.real(1j * omega * chi)
    psd = 4.0 * K_B * config.temperature * re_y / omega ** 2
    return np.sqrt(psd)
