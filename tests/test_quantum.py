import json
import warnings

import numpy as np
import pytest

from suscav.cli import main
from suscav.constants import C_LIGHT
from suscav.errors import ConfigError, NumericalError
from suscav.quantum import (
    POLE_INPUT,
    POLE_TOTAL,
    FreeMassValidityWarning,
    QuantumConfig,
    kappa,
    kappa_unity_frequency,
    power_for_sql,
    quantum_noise_psd,
    sql_psd,
)
from suscav.spectra import FrequencyGrid, make_log_grid

# Direct evaluation of sqrt(8*hbar/(m*(2*pi*100)**2)) for m = 10 g
SQL_100HZ_10G = 4.622779785676381e-19
# Independent bisection on the coupling-factor expression (see scratch oracle)
PC_SQL_100HZ = 0.13840231011780701


def config(cav, pc):
    return QuantumConfig(cavity=cav, circulating_power=pc)


@pytest.fixture
def audio_grid():
    return make_log_grid(10.0, 1e4, 400)


class TestSqlPsd:
    def test_reference_point(self, audio_grid):
        grid = FrequencyGrid(np.array([50.0, 100.0, 200.0]))
        sql = sql_psd(0.01, grid)
        assert sql[1] == pytest.approx(SQL_100HZ_10G, rel=1e-12)

    def test_frequency_scaling(self, audio_grid):
        grid = FrequencyGrid(np.array([100.0, 200.0]))
        sql = sql_psd(0.01, grid)
        assert sql[1] == pytest.approx(sql[0] / 2.0, rel=1e-12)

    def test_mass_scaling(self):
        grid = FrequencyGrid(np.array([100.0]))
        assert sql_psd(0.04, grid)[0] == pytest.approx(
            sql_psd(0.01, grid)[0] / 2.0, rel=1e-12
        )

    def test_nonpositive_mass_rejected(self, audio_grid):
        with pytest.raises(ConfigError):
            sql_psd(0.0, audio_grid)


class TestKappa:
    def test_zero_power(self, paper_cavity, audio_grid):
        k = kappa(config(paper_cavity, 0.0), audio_grid)
        assert np.all(k == 0.0)

    def test_strictly_decreasing(self, paper_cavity, audio_grid):
        k = kappa(config(paper_cavity, 1.0), audio_grid)
        assert np.all(np.diff(k) < 0.0)

    def test_design_power_oracle(self, paper_cavity):
        grid = FrequencyGrid(np.array([100.0]))
        k = kappa(config(paper_cavity, PC_SQL_100HZ), grid)
        assert k[0] == pytest.approx(1.0, rel=1e-9)

    def test_linear_in_power(self, paper_cavity, audio_grid):
        k1 = kappa(config(paper_cavity, 0.3), audio_grid)
        k2 = kappa(config(paper_cavity, 0.6), audio_grid)
        assert np.allclose(k2, 2.0 * k1, rtol=1e-12)


class TestPowerForSql:
    def test_matches_bisection_oracle(self, paper_cavity):
        assert power_for_sql(paper_cavity, 100.0) == pytest.approx(
            PC_SQL_100HZ, rel=1e-9
        )

    def test_closed_form_self_consistent(self, paper_cavity):
        grid = FrequencyGrid(np.array([37.0]))
        pc = power_for_sql(paper_cavity, 37.0)
        assert kappa(config(paper_cavity, pc), grid)[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("f_target", [1e100, 1e200, 1.7e308])
    def test_overflow_is_config_error(self, paper_cavity, f_target):
        with pytest.raises(ConfigError, match="overflows"):
            power_for_sql(paper_cavity, f_target)

    def test_low_frequency_quadratic(self, paper_cavity):
        # well below the cavity pole the required power scales as f**2
        ratio = power_for_sql(paper_cavity, 2.0) / power_for_sql(paper_cavity, 1.0)
        assert ratio == pytest.approx(4.0, rel=1e-4)

    def test_mass_linearity(self, paper_cavity):
        import dataclasses
        heavy = dataclasses.replace(paper_cavity, mirror_mass=0.02)
        assert power_for_sql(heavy, 100.0) == pytest.approx(
            2.0 * power_for_sql(paper_cavity, 100.0), rel=1e-12
        )

    def test_kappa_unity_frequency_roundtrip(self, paper_cavity):
        pc = power_for_sql(paper_cavity, 250.0)
        assert kappa_unity_frequency(config(paper_cavity, pc)) == pytest.approx(
            250.0, rel=1e-9
        )

    @pytest.mark.parametrize("pole_model", [POLE_INPUT, POLE_TOTAL])
    @pytest.mark.parametrize("power", [1e-30, 1e-3, 1.0, 1e20])
    @pytest.mark.parametrize("length", [1e-80, 1e-40, 1e-10, 1e-6, 0.095, 1e3, 1e12])
    def test_kappa_unity_frequency_matches_mpmath(self, paper_cavity, length, power,
                                                  pole_model):
        """The root of omega**4 + gamma**2 omega**2 = a, taken as
        (sqrt(gamma**4 + 4a) - gamma**2)/2 in enough digits to hold what the
        subtraction cancels: a short cavity's pole dwarfs a, and on paper_default
        copies the same form in doubles gave 0 Hz at 1e-10 m and was off by
        3e-8 at 1e-6 m."""
        import dataclasses
        mpmath = pytest.importorskip("mpmath")
        cav = dataclasses.replace(paper_cavity, length=length)
        cfg = QuantumConfig(cavity=cav, circulating_power=power, pole_model=pole_model)
        loss = cav.input_transmission if pole_model == POLE_INPUT else cav.round_trip_loss
        with mpmath.workdps(60):
            gamma = mpmath.mpf(loss) * C_LIGHT / (4 * mpmath.mpf(length))
            a = (mpmath.mpf(cav.omega0) * cav.input_transmission * power
                 / (mpmath.mpf(cav.mirror_mass) * mpmath.mpf(length) ** 2))
            cancelled = max(0, int(mpmath.log10(gamma ** 4 / a)))
        with mpmath.workdps(60 + cancelled):
            omega_sq = (mpmath.sqrt(gamma ** 4 + 4 * a) - gamma ** 2) / 2
            want = mpmath.sqrt(omega_sq) / (2 * mpmath.pi)
        assert kappa_unity_frequency(cfg) == pytest.approx(float(want), rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("length", [1e-300])
    def test_overflowing_kappa_unity_frequency_is_numerical_error(self, paper_cavity, length):
        import dataclasses
        short = dataclasses.replace(paper_cavity, length=length)
        with pytest.raises(NumericalError, match="kappa = 1 frequency overflows"):
            kappa_unity_frequency(config(short, 1.0))

    def test_sql_design_puts_kappa_unity_at_its_target(self, tmp_path):
        """The shipped design solves the power for kappa = 1 at 100 Hz, and
        the report gives that frequency back to the last bit."""
        out = tmp_path / "q"
        assert main(["quantum", "--config", "sql_design", "--grid", "10,1e4,10",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "quantum_summary.json").read_text())
        assert summary["sql_target_hz"] == 100.0
        assert summary["kappa_unity_hz"] == 100.0


class TestQuantumNoise:
    def test_total_equals_sql_where_kappa_unity(self, paper_cavity):
        grid = FrequencyGrid(np.array([50.0, 100.0, 200.0]))
        pc = power_for_sql(paper_cavity, 100.0)
        budget = quantum_noise_psd(config(paper_cavity, pc), grid)
        sql = budget.references["sql"]
        # at kappa = 1 the (1/kappa + kappa)/2 factor is 1 to the ulp
        assert budget.total.psd[1] == pytest.approx(sql.psd[1], rel=5e-16)

    def test_total_never_below_sql(self, paper_cavity, audio_grid):
        budget = quantum_noise_psd(config(paper_cavity, 0.05), audio_grid)
        assert np.all(budget.total.psd >= budget.references["sql"].psd)

    def test_power_scaling_of_components(self, paper_cavity, audio_grid):
        b1 = quantum_noise_psd(config(paper_cavity, 0.01), audio_grid)
        b2 = quantum_noise_psd(config(paper_cavity, 1.0), audio_grid)
        assert np.allclose(
            b2.components["radiation_pressure"].asd,
            10.0 * b1.components["radiation_pressure"].asd, rtol=1e-12,
        )
        assert np.allclose(
            b2.components["shot_noise"].asd,
            b1.components["shot_noise"].asd / 10.0, rtol=1e-12,
        )

    def test_component_product_invariant(self, paper_cavity, audio_grid):
        budget = quantum_noise_psd(config(paper_cavity, 0.37), audio_grid)
        sql = budget.references["sql"]
        product = budget.components["shot_noise"].psd * budget.components["radiation_pressure"].psd
        assert np.allclose(product, (sql.psd / 2.0) ** 2, rtol=1e-12)

    def test_zero_power_rejected(self, paper_cavity, audio_grid):
        with pytest.raises(ConfigError):
            quantum_noise_psd(config(paper_cavity, 0.0), audio_grid)

    def test_minimum_over_power_is_sql(self, paper_cavity):
        # golden-section search over circulating power at a fixed frequency
        # must bottom out on the SQL, attained at kappa = 1
        f0 = 37.0
        grid = FrequencyGrid(np.array([f0]))
        sql = sql_psd(0.01, grid)[0] ** 2

        def total(pc):
            return quantum_noise_psd(config(paper_cavity, pc), grid).total.psd[0]

        lo, hi = np.log(1e-4), np.log(1e3)
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = total(np.exp(c)), total(np.exp(d))
        for _ in range(200):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = total(np.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = total(np.exp(d))
        p_min = np.exp(0.5 * (a + b))
        assert total(p_min) == pytest.approx(sql, rel=1e-9)
        assert p_min == pytest.approx(power_for_sql(paper_cavity, f0), rel=1e-4)


class TestValidityFloor:
    """`suscav quantum` warns once when its grid starts below the config's
    free-mass validity floor, and its summary says so."""

    @staticmethod
    def run(tmp_path, cfg, grid):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / grid
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["quantum", "--config", str(path), "--grid", grid,
                         "--out", str(out)]) == 0
        summary = json.loads((out / "quantum_summary.json").read_text())
        return [(w.category, str(w.message)) for w in caught], summary

    def test_warns_below_floor(self, tmp_path, config_factory):
        caught, summary = self.run(tmp_path, config_factory(), "1,100,16")
        assert caught == [(FreeMassValidityWarning,
                           "grid extends to 1 Hz, below the free-mass validity floor of "
                           "10 Hz; results there are indicative only")]
        assert summary["grid_extends_below_floor"] is True

    def test_silent_above_floor(self, tmp_path, config_factory):
        for grid in ("10,100,16", "20,100,16"):     # at the floor and above it
            caught, summary = self.run(tmp_path, config_factory(), grid)
            assert caught == [], grid
            assert summary["grid_extends_below_floor"] is False

    def test_floor_configurable(self, tmp_path, config_factory):
        cfg = config_factory()
        cfg["quantum"]["validity_floor_hz"] = 2.0
        assert self.run(tmp_path, cfg, "5,100,16")[0] == []
        cfg["quantum"]["validity_floor_hz"] = 8.0
        (category, message), = self.run(tmp_path, cfg, "5,100,17")[0]
        assert category is FreeMassValidityWarning
        assert message.startswith("grid extends to 5 Hz, below the free-mass validity "
                                  "floor of 8 Hz;")
