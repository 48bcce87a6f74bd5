"""Classical noise of the beat-note readout chain.

The beat frequency between the two cavity-locked lasers is tracked by a
PLL whose control voltage passes an analogue whitening filter before
digitisation.  ADC quantisation noise is therefore divided by the
whitening gain when referred to the input; both ADC and PLL noise are
frequency noises that convert to displacement through the static cavity
relation dL = dnu * L * lambda / c.

Laser intensity noise pushes the light mirrors through classical
radiation pressure; the intensity stabilisation servo (ISS) divides that
coupling by a frequency-dependent factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import disp_per_hz
from .constants import C_LIGHT
from .errors import ConfigError, GridError, NumericalError, UnitError
from .spectra import UNIT_DISPLACEMENT


class SaturationWarning(UserWarning):
    """Predicted RMS exceeds the linear range of the readout."""


@dataclass(frozen=True)
class ReadoutConfig:
    vco_range: float            # [Hz] linear range of the beat tracking
    pll_noise_floor: float      # [Hz/rtHz] flat residual of the PLL
    adc_bits: int
    adc_fullscale: float        # [V peak-to-peak]
    sample_rate: float          # [Hz]
    whitening: "ZPK"            # analogue filter ahead of the ADC
    volts_to_hz: float          # [Hz/V] PLL control-voltage calibration

    def __post_init__(self):
        if self.vco_range <= 0.0:
            raise ConfigError("VCO range must be positive")
        if self.pll_noise_floor < 0.0:
            raise ConfigError("PLL noise floor must be >= 0")
        if self.adc_bits < 1:
            raise ConfigError("ADC needs at least one bit")
        if self.adc_fullscale <= 0.0 or self.sample_rate <= 0.0:
            raise ConfigError("ADC full scale and sample rate must be positive")
        if self.volts_to_hz <= 0.0:
            raise ConfigError("volts-to-hertz calibration must be positive")


def adc_noise_asd(config, cav, grid):
    """ADC quantisation noise referred to displacement [m/rtHz].

    Quantisation ASD = LSB / sqrt(12 * f_nyquist) spread over the first
    Nyquist zone, divided by the whitening magnitude, then through the
    voltage and cavity calibrations.
    """
    levels = np.float64(2.0) ** float(config.adc_bits)
    if not np.isfinite(levels):
        raise NumericalError(f"2 ** adc_bits overflows at {config.adc_bits:.6g} bits")
    lsb = config.adc_fullscale / levels
    volts = lsb / np.sqrt(12.0 * config.sample_rate / 2.0)
    whitening = np.abs(config.whitening.evaluate(grid))
    hz = volts / whitening * config.volts_to_hz
    return hz * disp_per_hz(cav)


def pll_noise_asd(config, cav, grid):
    """Flat PLL frequency-noise floor as displacement [m/rtHz]."""
    level = config.pll_noise_floor * disp_per_hz(cav)
    return np.full(len(grid), level)


def intensity_rp_displacement(rin, circulating_power, susceptibility):
    """Classical radiation-pressure displacement ASD [m/rtHz] from intensity
    noise, without the ISS (`iss_profile` gives the factor the ISS divides
    it by).

    Force ASD = 2 * P_c * RIN / c on the mirror, for the RIN ASD `rin`
    [1/rtHz], times the mirror's mechanical susceptibility `susceptibility`
    [m/N], both on one grid.
    """
    force = 2.0 * circulating_power * rin / C_LIGHT
    return np.abs(susceptibility) * force


def iss_profile(grid, peak=5.0, band=(30.0, 100.0)):
    """Smooth ISS suppression factor: `peak` at the band centre, 1 far away.

    Log-Gaussian bump with sigma = ln(f2/fc); the factor stays well above
    1 across the band and approaches `peak` at its geometric centre.
    """
    if peak < 1.0:
        raise ConfigError("peak suppression must be >= 1")
    f1, f2 = band
    if not (0.0 < f1 < f2):
        raise ConfigError("ISS band must satisfy 0 < f1 < f2")
    centre = np.sqrt(f1 * f2)
    sigma = np.log(f2 / centre)
    bump = np.exp(-np.log(grid.values / centre) ** 2 / (2.0 * sigma ** 2))
    return 1.0 + (peak - 1.0) * bump


@dataclass(frozen=True)
class AcousticPeak:
    center: float   # [Hz]
    width: float    # full width at half power [Hz]
    height: float   # peak ASD [m/rtHz]

    def __post_init__(self):
        if self.center <= 0.0 or self.width <= 0.0 or self.height < 0.0:
            raise ConfigError("acoustic peaks need positive centre/width")


def acoustic_peaks(peaks, grid):
    """Sum of Lorentzian ASD bumps (in quadrature) [m/rtHz]."""
    f = grid.values
    psd = np.zeros(len(grid))
    for p in peaks:
        half = np.float64(0.5 * p.width)
        psd += np.float64(p.height) ** 2 * half ** 2 / ((f - p.center) ** 2 + half ** 2)
    return np.sqrt(psd)


@dataclass(frozen=True)
class SaturationReport:
    rms_m: float
    rms_hz: float
    margin_ratio: float     # inf for a zero budget

    @property
    def saturated(self):
        return self.margin_ratio < 1.0


def check_saturation_grid(grid):
    """Refuse a grid that stops above 0.5 Hz, too high for the total RMS
    that `saturation_margin` reads at its bottom."""
    if grid.fmin > 0.5:
        raise GridError("budget grid must extend down to 0.5 Hz or lower")


def saturation_margin(rms, config, cav):
    """Beat-frequency RMS of a displacement budget against the VCO range.

    `rms` is the cumulative RMS of the budget's total (`cumulative_rms`);
    its value at the bottom of the grid, which must reach at or below
    0.5 Hz, is the total displacement RMS.  It converts to hertz via the
    inverse of the frequency-to-displacement relation.
    """
    if rms.unit != UNIT_DISPLACEMENT:
        raise UnitError("saturation margin needs a displacement budget")
    check_saturation_grid(rms.grid)
    rms_m = float(rms.asd[0])
    if rms_m == 0.0:
        return SaturationReport(rms_m=0.0, rms_hz=0.0,
                                margin_ratio=np.inf)
    rms_hz = rms_m / disp_per_hz(cav)
    return SaturationReport(rms_m=rms_m, rms_hz=rms_hz,
                            margin_ratio=config.vco_range / rms_hz)
