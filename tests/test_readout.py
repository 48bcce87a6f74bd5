import numpy as np
import pytest

from suscav.errors import ConfigError, GridError, UnitError
from suscav.isolation import ZPK
from suscav.readout import (
    AcousticPeak,
    ReadoutConfig,
    acoustic_peaks,
    adc_noise_asd,
    intensity_rp_displacement,
    iss_profile,
    pll_noise_asd,
    saturation_margin,
)
from suscav.scenario import assemble_budget
from suscav.spectra import (
    UNIT_DISPLACEMENT,
    UNIT_RELATIVE,
    FrequencyGrid,
    Spectrum,
    cumulative_rms,
    make_log_grid,
)

ADC_V_ASD = 4.924752993529532e-07      # (20/2^16)/sqrt(12*32000) [V/rtHz]
M_PER_HZ = 4.911731301792789e-16       # 95 mm, 1550 nm cavity
BEAT_RMS_1NM = 2035941.989813243       # 1e-9 m / M_PER_HZ [Hz]
MARGIN_1NM = 24.558656508963942        # 50 MHz / BEAT_RMS_1NM


def unity_whitening():
    return ZPK(zeros=(), poles=(), gain=1.0)


def readout_config(whitening=None, bits=16, pll=1.0):
    return ReadoutConfig(
        vco_range=50e6,
        pll_noise_floor=pll,
        adc_bits=bits,
        adc_fullscale=20.0,
        sample_rate=64000.0,
        whitening=whitening or unity_whitening(),
        volts_to_hz=5e6,
    )


class TestAdcNoise:
    def test_quantisation_level_oracle(self, paper_cavity):
        grid = FrequencyGrid(np.array([100.0]))
        s = adc_noise_asd(readout_config(), paper_cavity, grid)
        assert s[0] == pytest.approx(ADC_V_ASD * 5e6 * M_PER_HZ, rel=1e-9)

    def test_whitening_divides(self, paper_cavity):
        grid = make_log_grid(1, 1e3, 20)
        flat10 = ZPK(zeros=(), poles=(), gain=10.0)
        plain = adc_noise_asd(readout_config(), paper_cavity, grid)
        whitened = adc_noise_asd(readout_config(whitening=flat10), paper_cavity, grid)
        assert np.allclose(whitened, plain / 10.0, rtol=1e-12)

    def test_extra_bit_halves(self, paper_cavity):
        grid = make_log_grid(1, 1e3, 20)
        b16 = adc_noise_asd(readout_config(bits=16), paper_cavity, grid)
        b17 = adc_noise_asd(readout_config(bits=17), paper_cavity, grid)
        assert np.allclose(b17, b16 / 2.0, rtol=1e-12)

    def test_two_to_minus_bits_scaling(self, paper_cavity):
        grid = FrequencyGrid(np.array([100.0]))
        levels = [adc_noise_asd(readout_config(bits=b), paper_cavity, grid)[0]
                  for b in (8, 12, 16, 20)]
        for i, b in enumerate((8, 12, 16, 20)):
            assert levels[i] * 2.0 ** b == pytest.approx(levels[0] * 2.0 ** 8, rel=1e-12)

    def test_unit_tagged_displacement(self, default_scenario):
        # the array is tagged where the budget hands its columns out
        assert assemble_budget(default_scenario).components["adc"].unit == UNIT_DISPLACEMENT


class TestPllNoise:
    def test_flat_conversion(self, paper_cavity, grid_band):
        s = pll_noise_asd(readout_config(pll=1.0), paper_cavity, grid_band)
        assert np.allclose(s, M_PER_HZ, rtol=1e-12)

    def test_zero_floor(self, paper_cavity, grid_band):
        s = pll_noise_asd(readout_config(pll=0.0), paper_cavity, grid_band)
        assert np.all(s == 0.0)


def intensity(grid, pc=15.0, rin=1.8e-4):
    """Intensity displacement of a free 10 g mass, chi = 1/(m w^2)."""
    return intensity_rp_displacement(np.full(len(grid), rin), pc,
                                     1.0 / (0.01 * grid.angular ** 2))


class TestIntensityNoise:
    def test_zero_rin_zero_output(self, grid_band):
        assert np.all(intensity(grid_band, rin=0.0) == 0.0)

    def test_free_mass_asymptote(self, grid_band):
        # chi = 1/(m w^2): ASD = 2 Pc RIN / (c m w^2)
        from suscav.constants import C_LIGHT
        expected = 2.0 * 15.0 * 1.8e-4 / (C_LIGHT * 0.01 * grid_band.angular ** 2)
        assert np.allclose(intensity(grid_band), expected, rtol=1e-12)

    def test_iss_divides_the_budget_columns_pointwise(self, default_scenario):
        budget = assemble_budget(default_scenario)
        on = budget.components["intensity_rp_iss_on"].asd
        off = budget.references["intensity_rp_iss_off"].asd
        iss = default_scenario.config["intensity"]["iss"]
        suppression = iss_profile(default_scenario.grid, iss["peak_suppression"],
                                  iss["band_hz"])
        assert np.allclose(on * suppression, off, rtol=1e-12)
        assert np.all(on <= off)


class TestIssProfile:
    def test_peak_at_band_centre(self, grid_band):
        prof = iss_profile(grid_band, peak=5.0, band=(30.0, 100.0))
        centre = np.sqrt(30.0 * 100.0)
        i = np.argmin(np.abs(grid_band.values - centre))
        assert prof[i] == pytest.approx(5.0, rel=1e-3)
        assert np.all(prof >= 1.0)

    def test_far_from_band_unity(self, grid_band):
        prof = iss_profile(grid_band, peak=5.0, band=(30.0, 100.0))
        assert prof[0] == pytest.approx(1.0, abs=1e-3)
        assert prof[-1] == pytest.approx(1.0, abs=1e-3)

    def test_peak_below_one_rejected(self, grid_band):
        with pytest.raises(ConfigError, match="peak suppression must be >= 1"):
            iss_profile(grid_band, peak=0.5)


class TestAcousticPeaks:
    def test_empty_list_zero(self, grid_band):
        assert np.all(acoustic_peaks([], grid_band) == 0.0)

    def test_single_peak_shape(self):
        # grid containing the centre and both half-power points exactly
        grid = FrequencyGrid(np.array([100.0, 240.0, 250.0, 260.0, 400.0]))
        s = acoustic_peaks([AcousticPeak(center=250.0, width=20.0, height=1e-14)], grid)
        assert s[2] == pytest.approx(1e-14, rel=1e-12)
        assert s[1] ** 2 == pytest.approx(0.5e-28, rel=1e-12)
        assert s[3] ** 2 == pytest.approx(0.5e-28, rel=1e-12)
        assert int(np.argmax(s)) == 2

    def test_disjoint_peaks_independent(self, grid_band):
        peaks = [AcousticPeak(230.0, 10.0, 4e-15), AcousticPeak(360.0, 10.0, 3e-15)]
        both = acoustic_peaks(peaks, grid_band)
        lone = acoustic_peaks(peaks[:1], grid_band)
        i = np.argmin(np.abs(grid_band.values - 230.0))
        assert both[i] == pytest.approx(lone[i], rel=1e-2)

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigError):
            AcousticPeak(center=100.0, width=0.0, height=1e-15)


def flat_total(grid, rms_target):
    # flat ASD whose band RMS from fmin equals rms_target
    level = rms_target / np.sqrt(grid.fmax - grid.fmin)
    return Spectrum(grid, np.full(len(grid), level), UNIT_DISPLACEMENT)


class TestSaturationMargin:
    def test_one_nanometre_reference(self, paper_cavity):
        grid = FrequencyGrid(np.linspace(0.5, 5000.0, 20000))
        total = flat_total(grid, 1e-9)
        report = saturation_margin(cumulative_rms(total), readout_config(), paper_cavity)
        assert report.rms_hz == pytest.approx(BEAT_RMS_1NM, rel=1e-6)
        assert report.margin_ratio == pytest.approx(MARGIN_1NM, rel=1e-6)
        assert not report.saturated

    def test_range_edge_saturates(self, paper_cavity):
        # the command warns of it (test_scenario); the report itself is silent
        grid = FrequencyGrid(np.linspace(0.5, 5000.0, 20000))
        total = flat_total(grid, 24.6e-9)
        report = saturation_margin(cumulative_rms(total), readout_config(), paper_cavity)
        assert report.margin_ratio == pytest.approx(1.0, rel=1e-2)
        assert report.saturated

    def test_zero_budget_unbounded(self, paper_cavity, grid_band):
        total = flat_total(grid_band, 0.0)
        report = saturation_margin(cumulative_rms(total), readout_config(), paper_cavity)
        assert report.margin_ratio == np.inf
        assert not report.saturated

    def test_grid_must_reach_low_frequency(self, paper_cavity):
        grid = make_log_grid(1.0, 1e4, 100)
        with pytest.raises(GridError):
            saturation_margin(cumulative_rms(flat_total(grid, 1e-9)), readout_config(),
                              paper_cavity)

    def test_displacement_unit_required(self, paper_cavity, grid_band):
        s = Spectrum(grid_band, np.ones(len(grid_band)), UNIT_RELATIVE)
        with pytest.raises(UnitError):
            saturation_margin(cumulative_rms(s), readout_config(), paper_cavity)
