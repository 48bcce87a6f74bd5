import numpy as np
import pytest

from suscav.cavity import (
    CavityParams,
    disp_per_hz,
    finesse,
    fsr,
    fwhm,
)
from suscav.constants import C_LIGHT
from suscav.errors import ConfigError

# Independently computed reference values (hand arithmetic on the defining
# formulas; see each test).
FSR_95MM = 1577855042.1052632          # c / (2 * 0.095)
FINESSE_16PPM = 392699.0816987242      # 2*pi / 16e-6
FWHM_16PPM = 4017.974870936373         # c/(2L) * rho/(2*pi)
FWHM_161PPM = 4043.0872138797245       # same, rho = 16.1 ppm
DISP_50MHZ = 2.4558656508963944e-08    # 50e6 * L * lambda / c


class TestParams:
    def test_loss_budget_validated(self):
        with pytest.raises(ConfigError):
            CavityParams(wavelength=1.55e-6, length=0.095, input_transmission=0.6,
                         end_transmission=0.5)

    def test_omega0_derived(self, paper_cavity):
        assert paper_cavity.omega0 == pytest.approx(
            2.0 * np.pi * C_LIGHT / 1.55e-6, rel=1e-15
        )


class TestFsr:
    def test_paper_length(self, paper_cavity):
        assert fsr(paper_cavity) == pytest.approx(FSR_95MM, rel=1e-12)

    def test_inverse_proportionality(self, paper_cavity):
        doubled = CavityParams(
            wavelength=1.55e-6, length=0.19, input_transmission=7.5e-6,
            end_transmission=7.5e-6, excess_loss=1e-6, mirror_mass=0.01,
        )
        assert fsr(doubled) == pytest.approx(fsr(paper_cavity) / 2.0, rel=1e-12)

    def test_huge_cavity_scaling(self):
        cav = CavityParams(wavelength=1.55e-6, length=1.5e8, input_transmission=1e-5)
        assert fsr(cav) == pytest.approx(C_LIGHT / 3e8, rel=1e-12)


class TestFinesse:
    def test_paper_loss(self, paper_cavity):
        # measured: 3.9e5 for ~16 ppm round-trip loss
        assert finesse(paper_cavity) == pytest.approx(FINESSE_16PPM, rel=1e-12)
        assert finesse(paper_cavity) == pytest.approx(3.9e5, rel=0.03)

    def test_exact_definition(self):
        cav = CavityParams(wavelength=1.55e-6, length=0.1,
                           input_transmission=2.0 * np.pi * 1e-6)
        assert finesse(cav) == pytest.approx(1e6, rel=1e-12)

    def test_loss_doubling_halves(self, paper_cavity):
        doubled = CavityParams(
            wavelength=1.55e-6, length=0.095, input_transmission=1.5e-5,
            end_transmission=1.5e-5, excess_loss=2e-6, mirror_mass=0.01,
        )
        assert finesse(doubled) == pytest.approx(finesse(paper_cavity) / 2.0, rel=1e-12)


class TestFwhm:
    def test_paper_bandwidth(self, paper_cavity):
        # measured 4020 Hz; the L-derived value is ~4018 Hz (0.05% off)
        assert fwhm(paper_cavity) == pytest.approx(FWHM_16PPM, rel=1e-12)
        assert fwhm(paper_cavity) == pytest.approx(4020.0, rel=0.05)

    def test_known_loss_oracle(self):
        cav = CavityParams(wavelength=1.55e-6, length=0.095,
                           input_transmission=16.1e-6)
        assert fwhm(cav) == pytest.approx(FWHM_161PPM, rel=1e-12)

    def test_high_finesse_limit(self):
        cav = CavityParams(wavelength=1.55e-6, length=0.095, input_transmission=1e-9)
        assert fwhm(cav) < 1.0

    def test_finesse_fwhm_fsr_identity(self, paper_cavity):
        assert finesse(paper_cavity) * fwhm(paper_cavity) == pytest.approx(
            fsr(paper_cavity), rel=1e-12
        )


class TestFreqToDisp:
    def test_vco_range_conversion(self, paper_cavity):
        # 50 MHz offset -> 24.56 nm for the 95 mm, 1550 nm cavity
        assert 50e6 * disp_per_hz(paper_cavity) == pytest.approx(DISP_50MHZ, rel=1e-12)

    def test_length_doubles_output(self, paper_cavity):
        doubled = CavityParams(wavelength=1.55e-6, length=0.19, input_transmission=7.5e-6)
        assert disp_per_hz(doubled) == pytest.approx(2.0 * disp_per_hz(paper_cavity), rel=1e-12)
