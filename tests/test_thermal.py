import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suscav.constants import K_B
from suscav.errors import GridError
from suscav.scenario import assemble_budget
from suscav.spectra import FrequencyGrid, make_log_grid
from suscav.suspension import mirror_force_susceptibility
from suscav.thermal import ThermalConfig, thermal_displacement
from oracles import mirror_admittance, single_oscillator
from test_suspension import default_chain
from suscav.suspension import build_model


def oscillator_params():
    m, f0 = 0.1, 5.0
    k = m * (2.0 * np.pi * f0) ** 2
    return m, k


class TestMirrorAdmittance:
    def test_viscous_closed_form(self):
        # Re(Y) = c*w^2 / ((k - m w^2)^2 + c^2 w^2)
        m, k = oscillator_params()
        c = 0.4
        model = single_oscillator(m, k, viscous_damping=c)
        grid = make_log_grid(0.5, 500.0, 300)
        w = grid.angular
        expected = c * w ** 2 / ((k - m * w ** 2) ** 2 + (c * w) ** 2)
        assert np.allclose(np.real(mirror_admittance(model, grid)), expected, rtol=1e-9)

    def test_structural_closed_form(self):
        # complex stiffness k(1+i*phi): Re(Y) = w k phi / ((k - m w^2)^2 + k^2 phi^2)
        m, k = oscillator_params()
        phi = 1e-3
        model = single_oscillator(m, k, loss_angle=phi)
        grid = make_log_grid(0.5, 500.0, 300)
        w = grid.angular
        expected = w * k * phi / ((k - m * w ** 2) ** 2 + (k * phi) ** 2)
        assert np.allclose(np.real(mirror_admittance(model, grid)), expected, rtol=1e-9)

    def test_lossless_exactly_zero(self):
        m, k = oscillator_params()
        model = single_oscillator(m, k)
        grid = make_log_grid(0.5, 500.0, 100)
        assert np.all(np.real(mirror_admittance(model, grid)) == 0.0)

    def test_chain_passivity(self, grid_band):
        model = build_model(default_chain(), "horizontal")
        assert np.all(np.real(mirror_admittance(model, grid_band)) >= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        mass=st.floats(0.01, 5.0),
        f0=st.floats(0.3, 30.0),
        phi=st.floats(1e-5, 0.1),
        c_rel=st.floats(0.0, 0.2),
    )
    def test_passivity_property(self, mass, f0, phi, c_rel):
        k = mass * (2.0 * np.pi * f0) ** 2
        c = c_rel * np.sqrt(k * mass)
        model = single_oscillator(mass, k, viscous_damping=c, loss_angle=phi)
        grid = make_log_grid(0.5, 2000.0, 120)
        assert np.all(np.real(mirror_admittance(model, grid)) >= 0.0)


class TestThermalDisplacement:
    def test_equipartition_oracle(self):
        # brute-force integral of the FDT spectrum against kB*T/k
        m, k = oscillator_params()
        q = 5.0
        c = m * (2.0 * np.pi * 5.0) / q
        model = single_oscillator(m, k, viscous_damping=c)
        grid = make_log_grid(5.0 / 1000.0, 5.0 * 1000.0, 40000)
        cfg = ThermalConfig(temperature=293.0)
        s = thermal_displacement(cfg, mirror_force_susceptibility(model, grid), grid)
        integral = np.trapezoid(s.psd, grid.values)
        assert integral == pytest.approx(K_B * 293.0 / k, rel=0.05)

    def test_temperature_scaling(self):
        m, k = oscillator_params()
        model = single_oscillator(m, k, loss_angle=1e-4)
        grid = make_log_grid(1.0, 100.0, 50)
        chi = mirror_force_susceptibility(model, grid)
        s1 = thermal_displacement(ThermalConfig(73.25), chi, grid)
        s4 = thermal_displacement(ThermalConfig(293.0), chi, grid)
        assert np.allclose(s4.asd, 2.0 * s1.asd, rtol=1e-12)

    def test_room_to_cryo_ratio(self):
        m, k = oscillator_params()
        model = single_oscillator(m, k, loss_angle=1e-4)
        grid = make_log_grid(1.0, 100.0, 50)
        chi = mirror_force_susceptibility(model, grid)
        warm = thermal_displacement(ThermalConfig(293.0), chi, grid)
        cold = thermal_displacement(ThermalConfig(10.0), chi, grid)
        assert np.allclose(warm.asd, np.sqrt(29.3) * cold.asd, rtol=1e-12)

    def test_structural_high_frequency_slope(self):
        # structural damping, f >> f0: ASD ~ f**(-5/2)
        m, k = oscillator_params()
        model = single_oscillator(m, k, loss_angle=1e-4)
        grid = make_log_grid(50.0, 500.0, 100)
        chi = mirror_force_susceptibility(model, grid)
        s = thermal_displacement(ThermalConfig(293.0), chi, grid)
        slope = np.polyfit(np.log10(grid.values), np.log10(s.asd), 1)[0]
        assert slope == pytest.approx(-2.5, abs=0.05)

    def test_differential_sqrt2(self, default_scenario):
        # the budget term: the two uncorrelated mirrors of a cavity, then the
        # two cavities of the beat, sqrt(2) each
        model = default_scenario.horizontal_model
        grid = make_log_grid(1.0, 100.0, 30)
        single = thermal_displacement(default_scenario.thermal,
                                      mirror_force_susceptibility(model, grid), grid)
        term = assemble_budget(default_scenario, grid).components["suspension_thermal"]
        assert np.allclose(term.asd, 2.0 * single.asd, rtol=1e-12)

    def test_point_local_evaluation(self):
        # value at one frequency is independent of the rest of the grid
        m, k = oscillator_params()
        model = single_oscillator(m, k, loss_angle=1e-3)
        cfg = ThermalConfig(100.0)
        fine, one = make_log_grid(1.0, 100.0, 91), FrequencyGrid(np.array([10.0]))
        full = thermal_displacement(cfg, mirror_force_susceptibility(model, fine), fine)
        lone = thermal_displacement(cfg, mirror_force_susceptibility(model, one), one)
        i = np.argmin(np.abs(full.grid.values - 10.0))
        assert full.grid.values[i] == pytest.approx(10.0, rel=1e-12)
        assert full.asd[i] == pytest.approx(lone.asd[0], rel=1e-12)

    def test_susceptibility_on_another_grid_rejected(self):
        m, k = oscillator_params()
        model = single_oscillator(m, k, loss_angle=1e-3)
        chi = mirror_force_susceptibility(model, make_log_grid(1.0, 100.0, 50))
        with pytest.raises(GridError):
            thermal_displacement(ThermalConfig(293.0), chi, make_log_grid(1.0, 100.0, 51))
