"""Static optical relations of a two-mirror Fabry-Perot cavity.

High-finesse approximations are used throughout (finesse = 2*pi / total
round-trip power loss, Lorentzian resonance); with losses at the tens of
ppm level the corrections are O(loss) and far below any tolerance used
here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .errors import ConfigError


@dataclass(frozen=True)
class CavityParams:
    """Optical cavity and mirror parameters.

    Transmissions and losses are power fractions per pass / round trip.
    """

    wavelength: float          # [m]
    length: float              # [m]
    input_transmission: float  # T1
    end_transmission: float = 0.0    # T2
    excess_loss: float = 0.0         # round-trip loss on top of T1+T2
    mirror_mass: float = 1e-2        # [kg]

    def __post_init__(self):
        if self.wavelength <= 0.0 or self.length <= 0.0:
            raise ConfigError("wavelength and length must be positive")
        if self.mirror_mass <= 0.0:
            raise ConfigError("mirror mass must be positive")
        if self.input_transmission <= 0.0:
            raise ConfigError("input transmission must be positive")
        if self.end_transmission < 0.0 or self.excess_loss < 0.0:
            raise ConfigError("end transmission and excess loss must be >= 0")
        if self.round_trip_loss >= 1.0:
            raise ConfigError("total round-trip loss must stay below 1")

    @property
    def round_trip_loss(self):
        return self.input_transmission + self.end_transmission + self.excess_loss

    @property
    def optical_frequency(self):
        """Laser carrier frequency c/lambda [Hz]."""
        return C_LIGHT / self.wavelength

    @property
    def omega0(self):
        """Carrier angular frequency 2*pi*c/lambda [rad/s], always derived."""
        return 2.0 * np.pi * self.optical_frequency


def fsr(cav):
    """Free spectral range c/(2L) [Hz]."""
    return C_LIGHT / (2.0 * cav.length)


def finesse(cav):
    """2*pi / round-trip loss (high-finesse limit)."""
    rho = cav.round_trip_loss
    if rho <= 0.0:
        raise ConfigError("round-trip loss must be positive for a finesse")
    return 2.0 * np.pi / rho


def fwhm(cav):
    """Cavity bandwidth FSR/finesse [Hz]."""
    return fsr(cav) / finesse(cav)


def disp_per_hz(cav):
    """Conversion from cavity detuning to mirror displacement, L*lambda/c [m/Hz].

    dL = dnu * L/nu: a frequency offset dnu on the lock point corresponds
    to this much cavity-length change.
    """
    return cav.length * cav.wavelength / C_LIGHT
