import dataclasses

import numpy as np
import pytest

from suscav.cli import resolve_config
from suscav.errors import ConfigError, NumericalError
from suscav.isolation import (
    ActuatorParams,
    GeophoneParams,
    PlatformParams,
    ZPK,
    closed_loop,
    loop_gain,
)
from suscav.scenario import load_scenario
from suscav.spectra import (
    UNIT_DISPLACEMENT,
    FrequencyGrid,
    Spectrum,
    band_rms,
    make_log_grid,
)
from suscav.suspension import build_model, tf_suspoint_to_differential
from test_suspension import default_chain

ACTUATOR_DC = 0.04106280193236715      # 1.7 / 41.4 [N/V]
ACTUATOR_CORNER = 370.16936202272285   # 41.4 / (2*pi*0.0178) [Hz]


@pytest.fixture
def platform():
    return PlatformParams(payload_mass=140.0, horizontal_resonance=3.9,
                          vertical_resonance=7.0, quality_factor=10.0)


@pytest.fixture
def actuator():
    return ActuatorParams(coil_resistance=41.4, coil_inductance=0.0178,
                          force_constant=1.7)


def ground_model(grid):
    asd = 1e-7 * np.minimum(1.0, (1.0 / grid.values) ** 2)
    return Spectrum(grid, asd, UNIT_DISPLACEMENT)


def shipped_servo(gain=None):
    """The servo every shipped config states, with `gain` if one is given."""
    servo = load_scenario(resolve_config("paper_default")).servo
    return servo if gain is None else dataclasses.replace(servo, gain=gain)


def default_gain(platform, actuator, gain=None, axis="horizontal"):
    return loop_gain(platform, GeophoneParams(1.0, 276.0, 0.3), actuator,
                     shipped_servo(gain), axis)


def default_loop(platform, actuator, grid, gain=None):
    return closed_loop(default_gain(platform, actuator, gain), platform.passive("horizontal"),
                       grid)


class TestZPK:
    def test_conjugate_pairs_required(self):
        with pytest.raises(ConfigError):
            ZPK(zeros=(), poles=(complex(-1.0, 2.0),), gain=1.0)

    def test_conjugate_pairs_accepted(self):
        z = ZPK(zeros=(), poles=(complex(-1, 2), complex(-1, -2)), gain=3.0)
        assert len(z.poles) == 2

    def test_first_order_lowpass_magnitude(self):
        w0 = 2.0 * np.pi * 10.0
        z = ZPK(zeros=(), poles=(-w0,), gain=w0)
        grid = FrequencyGrid(np.array([10.0]))
        assert abs(z.evaluate(grid)[0]) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_pole_on_grid_rejected(self):
        w = 2.0 * np.pi * 5.0
        z = ZPK(zeros=(), poles=(complex(0, w), complex(0, -w)), gain=1.0)
        grid = FrequencyGrid(np.array([1.0, 5.0, 10.0]))
        with pytest.raises(NumericalError) as err:
            z.evaluate(grid)
        assert err.value.frequency_hz == 5.0

    @pytest.mark.parametrize("real", [0.0, -0.0])
    @pytest.mark.parametrize("upper_first", [True, False], ids=["upper_first", "lower_first"])
    def test_imaginary_axis_pole_on_grid_names_its_frequency(self, real, upper_first):
        # s = i*omega has a real part of exactly +0.0, so only a pole with
        # real part +-0.0 is checked against the grid
        grid = FrequencyGrid(np.geomspace(0.1, 1e4, 1001))
        f = grid.values[700]
        pair = (complex(real, 2.0 * np.pi * f), complex(real, -2.0 * np.pi * f))
        z = ZPK(zeros=(), poles=pair if upper_first else pair[::-1], gain=1.0)
        with pytest.raises(NumericalError) as err:
            z.evaluate(grid)
        assert err.value.frequency_hz == f

    def test_config_roundtrip(self):
        cfg = {"zeros": [{"real": -1.0}], "poles": [{"real": -2.0}, {"real": 0.0}],
               "gain": 7.5}
        z = ZPK.from_config(cfg)
        assert z.zeros == (complex(-1.0),)
        assert z.gain == 7.5

    def test_polynomials(self):
        z = ZPK(zeros=(-2.0,), poles=(-3.0, -5.0), gain=4.0)
        num, den = z.polynomials()
        assert num == pytest.approx([4.0, 8.0])
        assert den == pytest.approx([1.0, 8.0, 15.0])

    def test_series_product(self):
        a = ZPK(zeros=(-2.0,), poles=(complex(-1, 2), complex(-1, -2)), gain=3.0)
        b = ZPK(zeros=(), poles=(-5.0,), gain=0.5)
        grid = make_log_grid(0.1, 10.0, 7)
        assert np.allclose((a * b).evaluate(grid), a.evaluate(grid) * b.evaluate(grid),
                           rtol=1e-14, atol=0.0)

    def test_same_bits_on_any_grid_length(self):
        # above 16,384 complex points numpy reuses temporaries in place; the
        # response at a frequency must not depend on that
        tp = 2.0 * np.pi
        z = ZPK(zeros=(-tp * 3.0, complex(-tp * 20.0, tp * 90.0), complex(-tp * 20.0, -tp * 90.0)),
                poles=(-tp * 0.5, -tp * 700.0, -tp * 900.0), gain=3.7)
        grid = make_log_grid(0.1, 1e4, 20_000)
        pieces = [z.evaluate(FrequencyGrid(grid.values[i:i + 2048]))
                  for i in range(0, len(grid), 2048)]
        assert np.concatenate(pieces).tobytes() == z.evaluate(grid).tobytes()


class TestPlatform:
    def test_peak_at_resonance(self, platform):
        grid = make_log_grid(0.5, 50.0, 2000)
        mag = np.abs(platform.passive("horizontal").evaluate(grid))
        assert grid.values[int(np.argmax(mag))] == pytest.approx(3.9, rel=2e-2)

    def test_transmissibility_asymptote(self):
        # Q >> 1: |H(10*f0)| ~ (f0/f)^2 = 0.01
        stiff = PlatformParams(140.0, 3.9, 7.0, 1000.0)
        grid = FrequencyGrid(np.array([39.0]))
        mag = abs(stiff.passive("horizontal").evaluate(grid)[0])
        assert mag == pytest.approx(0.01, rel=2e-2)

    def test_dc_unity(self, platform):
        grid = FrequencyGrid(np.array([1e-3]))
        assert abs(platform.passive("horizontal").evaluate(grid)[0]) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_vertical_axis_uses_vertical_resonance(self, platform):
        grid = make_log_grid(0.5, 50.0, 2000)
        mag = np.abs(platform.passive("vertical").evaluate(grid))
        assert grid.values[int(np.argmax(mag))] == pytest.approx(7.0, rel=2e-2)


class TestGeophone:
    def test_inertial_plateau(self):
        grid = FrequencyGrid(np.array([100.0]))
        h = GeophoneParams(1.0, 276.0, 0.707).zpk().evaluate(grid)
        assert abs(h[0]) == pytest.approx(276.0, rel=1e-3)

    def test_corner_magnitude(self):
        # |H(f0)| = G*Q; at Q = 0.707 that is G/sqrt(2)
        grid = FrequencyGrid(np.array([1.0]))
        h = GeophoneParams(1.0, 276.0, 1.0 / np.sqrt(2.0)).zpk().evaluate(grid)
        assert abs(h[0]) == pytest.approx(276.0 / np.sqrt(2.0), rel=1e-12)

    def test_low_frequency_second_order(self):
        grid = FrequencyGrid(np.array([0.01, 0.02]))
        h = np.abs(GeophoneParams(1.0, 276.0, 0.707).zpk().evaluate(grid))
        assert h[1] / h[0] == pytest.approx(4.0, rel=1e-3)


class TestActuator:
    def test_dc_response(self, actuator):
        grid = FrequencyGrid(np.array([1e-3]))
        assert abs(actuator.zpk().evaluate(grid)[0]) == pytest.approx(ACTUATOR_DC, rel=1e-9)

    def test_corner_frequency(self, actuator):
        grid = FrequencyGrid(np.array([ACTUATOR_CORNER]))
        assert abs(actuator.zpk().evaluate(grid)[0]) == pytest.approx(
            ACTUATOR_DC / np.sqrt(2.0), rel=1e-9
        )

    def test_monotone_decreasing(self, actuator):
        grid = make_log_grid(0.1, 1e4, 200)
        mag = np.abs(actuator.zpk().evaluate(grid))
        assert np.all(np.diff(mag) < 0.0)


class TestClosedLoop:
    def test_zero_gain_reproduces_passive(self, platform, actuator, grid_band):
        result = default_loop(platform, actuator, grid_band, gain=0.0)
        assert np.array_equal(result.suppression, result.passive)

    def test_high_gain_limit(self, platform, actuator, grid_band):
        result = default_loop(platform, actuator, grid_band)
        big = np.abs(result.loop_gain) > 100.0
        assert np.any(big)
        ratio = np.abs(result.suppression[big]) * np.abs(result.loop_gain[big]) \
            / np.abs(result.passive[big])
        assert np.allclose(ratio, 1.0, rtol=2e-2)

    def test_low_gain_region_matches_passive(self, platform, actuator, grid_band):
        result = default_loop(platform, actuator, grid_band)
        small = np.abs(result.loop_gain) < 0.01
        assert np.any(small)
        assert np.allclose(np.abs(result.suppression[small]),
                           np.abs(result.passive[small]), rtol=2e-2)

    def test_suppression_identity(self, platform, actuator, grid_band):
        result = default_loop(platform, actuator, grid_band)
        lhs = np.abs(result.passive) / np.abs(result.suppression)
        assert np.allclose(lhs, np.abs(1.0 + result.loop_gain), rtol=1e-12)

    def test_rms_reduction_order_of_magnitude(self, platform, actuator, grid_band):
        result = default_loop(platform, actuator, grid_band)
        ground = ground_model(grid_band)
        passive = Spectrum(grid_band, np.abs(result.passive) * ground.asd, UNIT_DISPLACEMENT)
        active = Spectrum(grid_band, np.abs(result.suppression) * ground.asd, UNIT_DISPLACEMENT)
        ratio = band_rms(passive, 0.5, 50.0) / band_rms(active, 0.5, 50.0)
        assert 5.0 <= ratio <= 20.0

    def test_conditioning_error_named(self, platform, actuator, grid_band):
        # force G = -1 at every point through a servo that inverts the
        # rest of the loop
        geophone = GeophoneParams(1.0, 276.0, 0.3)
        rest = platform.force("horizontal") * ZPK(zeros=(0.0,), poles=(), gain=1.0) \
            * geophone.zpk() * actuator.zpk()
        servo = ZPK(zeros=rest.poles, poles=rest.zeros, gain=-1.0 / rest.gain)
        with pytest.raises(NumericalError):
            closed_loop(loop_gain(platform, geophone, actuator, servo),
                        platform.passive("horizontal"), grid_band)

    def test_default_design_check(self, platform, actuator, grid_band):
        report = default_loop(platform, actuator, grid_band)
        assert default_gain(platform, actuator).feedback_stable()
        assert len(report.unity_gain_hz) == 2
        assert all(pm >= 30.0 for pm in report.phase_margins_deg)

    def test_vertical_axis_loop_stable(self, platform, actuator):
        assert default_gain(platform, actuator, axis="vertical").feedback_stable()

    def test_closed_loop_poles_of_damped_oscillator(self, platform, actuator):
        # sanity for the characteristic-polynomial path: open loop (gain 0)
        # has the platform poles, all in the left half plane
        poles = loop_gain(platform, GeophoneParams(1.0, 276.0, 0.3), actuator,
                          ZPK(zeros=(), poles=(), gain=0.0)).feedback_poles()
        assert np.all(np.real(poles) < 0.0)

    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    def test_negated_servo_is_unstable(self, platform, actuator, axis):
        gain = default_gain(platform, actuator, -shipped_servo().gain, axis)
        assert gain.feedback_stable() is False

    def test_in_loop_suppression_matches_cavity_witness(self, platform, actuator, grid_band):
        # the reduction predicted at the platform equals the reduction seen
        # in the cavity-coupled seismic spectrum at every frequency
        result = default_loop(platform, actuator, grid_band)
        ground = ground_model(grid_band)
        h = tf_suspoint_to_differential(build_model(default_chain(), "horizontal"), grid_band)
        active = Spectrum(grid_band, np.abs(result.suppression * h) * ground.asd,
                          UNIT_DISPLACEMENT)
        passive = Spectrum(grid_band, np.abs(result.passive * h) * ground.asd, UNIT_DISPLACEMENT)
        predicted = np.abs(result.suppression) / np.abs(result.passive)
        witnessed = np.where(passive.asd > 0.0, active.asd / passive.asd, 0.0)
        ok = passive.asd > 0.0
        assert np.allclose(witnessed[ok], predicted[ok], rtol=1e-12)


def _exact_suppression(scenario, axis, omega):
    """passive/(1 + G) at 40 digits from the physical formulas of each element."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.mpc(0, float(omega))
        p, g, a, servo = scenario.platform, scenario.geophone, scenario.actuator, scenario.servo
        w0 = mpmath.mpf(2.0 * np.pi * p.resonance(axis))
        q = mpmath.mpf(p.quality_factor)
        res = s ** 2 + w0 / q * s + w0 ** 2
        wg = mpmath.mpf(2.0 * np.pi * g.natural_frequency)
        geo = g.generator_constant * s ** 2 / (s ** 2 + wg / g.quality_factor * s + wg ** 2)
        act = mpmath.mpf(a.force_constant) / (a.coil_resistance + s * a.coil_inductance)
        h = mpmath.mpf(servo.gain)
        for z in servo.zeros:
            h *= s - mpmath.mpc(z.real, z.imag)
        for pole in servo.poles:
            h /= s - mpmath.mpc(pole.real, pole.imag)
        loop = s * geo * h * act / (p.payload_mass * res)
        return (w0 ** 2 + w0 / q * s) / res / (1 + loop)


def test_suppression_matches_mpmath_oracle():
    """Both axes of the shipped loop, at both platform resonances and every
    unity-gain crossing, against the loop formed at 40 digits."""
    scenario = load_scenario(resolve_config("paper_default"))

    def loop(axis, grid):
        return closed_loop(scenario.loop_gain[axis], scenario.passive[axis], grid)

    crossings = [f for axis in ("horizontal", "vertical")
                 for f in loop(axis, scenario.grid).unity_gain_hz]
    grid = FrequencyGrid(np.unique(np.concatenate([
        np.geomspace(0.1, 1e4, 30),
        [scenario.platform.horizontal_resonance, scenario.platform.vertical_resonance],
        crossings,
    ])))
    for axis in ("horizontal", "vertical"):
        supp = loop(axis, grid).suppression
        for i, omega in enumerate(grid.angular):
            exact = complex(_exact_suppression(scenario, axis, omega))
            assert supp[i] == pytest.approx(exact, rel=1e-13, abs=0.0)

