import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suscav.errors import ConfigError, GridError, UnitError
from suscav.spectra import (
    UNIT_DISPLACEMENT,
    UNIT_FREQUENCY,
    CSV_BLOCK_ROWS,
    CSV_FORMAT,
    FrequencyGrid,
    NoiseBudget,
    Spectrum,
    band_rms,
    cumulative_rms,
    default_grid,
    interp_loglog,
    make_log_grid,
    read_asd_csv,
    read_budget_csv,
    sum_uncorrelated,
    write_budget_csv,
    write_csv,
    zero_spectrum,
)


def flat(grid, level, unit=UNIT_DISPLACEMENT):
    return Spectrum(grid, np.full(len(grid), float(level)), unit)


class TestMakeLogGrid:
    def test_log_midpoint(self):
        assert np.allclose(make_log_grid(1, 100, 3).values, [1.0, 10.0, 100.0], rtol=1e-15)

    def test_endpoints_exact(self):
        g = make_log_grid(0.1, 1e4, 1000)
        assert g.values[0] == 0.1
        assert g.values[-1] == 1e4
        assert len(g) == 1000

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(GridError):
            make_log_grid(10, 10, 2)

    @pytest.mark.parametrize("fmin,fmax,n", [(0, 1, 10), (-1, 1, 10), (2, 1, 10), (1, 2, 1)])
    def test_bad_arguments_rejected(self, fmin, fmax, n):
        with pytest.raises(GridError):
            make_log_grid(fmin, fmax, n)

    def test_default_grid_band(self):
        g = default_grid()
        assert (g.fmin, g.fmax, len(g)) == (0.1, 1e4, 1000)


class TestFrequencyGrid:
    def test_must_increase(self):
        with pytest.raises(GridError):
            FrequencyGrid(np.array([1.0, 1.0, 2.0]))

    def test_must_be_positive(self):
        with pytest.raises(GridError):
            FrequencyGrid(np.array([0.0, 1.0]))

    def test_values_frozen(self):
        g = make_log_grid(1, 10, 5)
        with pytest.raises(ValueError):
            g.values[0] = 2.0


class TestSpectrum:
    def test_asd_psd_roundtrip(self, grid_band):
        rng = np.random.default_rng(7)
        s = Spectrum(grid_band, rng.uniform(1e-20, 1e-10, len(grid_band)), UNIT_DISPLACEMENT)
        back = Spectrum.from_psd(grid_band, s.psd, s.unit)
        assert np.allclose(back.asd, s.asd, rtol=1e-15, atol=0)

    def test_rejects_negative(self, grid_band):
        asd = np.ones(len(grid_band))
        asd[3] = -1.0
        with pytest.raises(ConfigError):
            Spectrum(grid_band, asd, UNIT_DISPLACEMENT)

    def test_rejects_nan(self, grid_band):
        asd = np.ones(len(grid_band))
        asd[3] = np.nan
        with pytest.raises(ConfigError):
            Spectrum(grid_band, asd, UNIT_DISPLACEMENT)

    def test_rejects_length_mismatch(self, grid_band):
        with pytest.raises(GridError):
            Spectrum(grid_band, np.ones(3), UNIT_DISPLACEMENT)

    def test_rejects_unknown_unit(self, grid_band):
        with pytest.raises(UnitError):
            Spectrum(grid_band, np.ones(len(grid_band)), "furlong/rtHz")


class TestSumUncorrelated:
    def test_zero_component_is_identity(self, grid_band):
        a = flat(grid_band, 2.5)
        out = sum_uncorrelated([a, zero_spectrum(grid_band, UNIT_DISPLACEMENT)])
        assert np.allclose(out.asd, a.asd, rtol=1e-15)

    def test_three_four_five(self, grid_band):
        out = sum_uncorrelated([flat(grid_band, 3.0), flat(grid_band, 4.0)])
        assert np.allclose(out.asd, 5.0, rtol=1e-15)

    def test_equal_components(self, grid_band):
        a = flat(grid_band, 1.7)
        out = sum_uncorrelated([a, a])
        assert np.allclose(out.asd, 1.7 * np.sqrt(2.0), rtol=1e-15)

    def test_unit_mismatch_rejected(self, grid_band):
        with pytest.raises(UnitError):
            sum_uncorrelated([flat(grid_band, 1), flat(grid_band, 1, UNIT_FREQUENCY)])

    def test_grid_mismatch_rejected(self, grid_band):
        other = make_log_grid(0.1, 1e4, 999)
        with pytest.raises(GridError):
            sum_uncorrelated([flat(grid_band, 1), flat(other, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            sum_uncorrelated([])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=6), st.randoms())
    def test_permutation_invariant(self, levels, rnd):
        grid = make_log_grid(1, 100, 32)
        comps = [flat(grid, lv) for lv in levels]
        ref = sum_uncorrelated(comps)
        shuffled = list(comps)
        rnd.shuffle(shuffled)
        assert np.allclose(sum_uncorrelated(shuffled).asd, ref.asd, rtol=1e-12)

    def test_associative(self, grid_band):
        a, b, c = flat(grid_band, 1.0), flat(grid_band, 2.0), flat(grid_band, 3.0)
        left = sum_uncorrelated([sum_uncorrelated([a, b]), c])
        right = sum_uncorrelated([a, sum_uncorrelated([b, c])])
        assert np.allclose(left.asd, right.asd, rtol=1e-12)


class TestCumulativeRms:
    def test_flat_analytic(self):
        # flat ASD a over [f1, f2]: RMS(f1) = a*sqrt(f2 - f1)
        grid = FrequencyGrid(np.linspace(2.0, 50.0, 481))
        a = 1.3e-9
        rms = cumulative_rms(flat(grid, a))
        assert rms.asd[0] == pytest.approx(a * np.sqrt(48.0), rel=1e-12)
        assert rms.asd[-1] == 0.0

    def test_zero_spectrum(self, grid_band):
        rms = cumulative_rms(zero_spectrum(grid_band, UNIT_DISPLACEMENT))
        assert np.all(rms.asd == 0.0)

    def test_single_bin_peak_trapezoid_oracle(self):
        # 3-point grid [1,2,3], asd [0,p,0]: trapezoid segments are each
        # p**2/2, so RMS = [p, p/sqrt(2), 0].
        grid = FrequencyGrid(np.array([1.0, 2.0, 3.0]))
        p = 4.0e-12
        s = Spectrum(grid, np.array([0.0, p, 0.0]), UNIT_DISPLACEMENT)
        rms = cumulative_rms(s)
        assert rms.asd == pytest.approx([p, p / np.sqrt(2.0), 0.0], rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1e3), min_size=2, max_size=40))
    def test_monotone_non_increasing(self, values):
        grid = FrequencyGrid(np.linspace(1.0, 10.0, len(values)))
        rms = cumulative_rms(Spectrum(grid, np.array(values), UNIT_DISPLACEMENT))
        assert np.all(np.diff(rms.asd) <= 0.0)


class TestBandRms:
    def test_flat_band(self):
        grid = make_log_grid(0.1, 100, 2000)
        a = 2.0e-8
        # exact edges are interpolated, flat PSD makes this analytic
        assert band_rms(flat(grid, a), 0.5, 50.0) == pytest.approx(
            a * np.sqrt(49.5), rel=1e-6
        )

    def test_band_outside_grid_clamps(self):
        grid = make_log_grid(1.0, 10.0, 50)
        assert band_rms(flat(grid, 1.0), 20.0, 30.0) == 0.0


class TestNoiseBudget:
    def test_total_is_rss(self, grid_band):
        budget = NoiseBudget.from_components(
            {"a": flat(grid_band, 3.0), "b": flat(grid_band, 4.0)}
        )
        assert np.allclose(budget.total.asd, 5.0, rtol=1e-15)

    def test_reference_not_in_total(self, grid_band):
        budget = NoiseBudget.from_components(
            {"a": flat(grid_band, 3.0)}, references={"r": flat(grid_band, 100.0)}
        )
        assert np.allclose(budget.total.asd, 3.0, rtol=1e-15)

    def test_csv_roundtrip_exact(self, tmp_path, grid_band):
        rng = np.random.default_rng(3)
        budget = NoiseBudget.from_components(
            {
                "alpha": Spectrum(grid_band, rng.uniform(0, 1e-12, len(grid_band)), UNIT_DISPLACEMENT),
                "beta": Spectrum(grid_band, rng.uniform(0, 1e-12, len(grid_band)), UNIT_DISPLACEMENT),
            },
            references={"gamma": flat(grid_band, 1e-13)},
        )
        path = tmp_path / "budget.csv"
        write_budget_csv(path, budget)
        grid, columns = read_budget_csv(path)
        assert np.array_equal(grid.values, grid_band.values)
        assert set(columns) == {"alpha", "beta", "gamma", "total"}
        assert np.array_equal(columns["alpha"], budget.components["alpha"].asd)
        assert np.array_equal(columns["total"], budget.total.asd)


class TestCsvWriter:
    SPECIAL = [0.0, -0.0, np.inf, 5e-324, 1.7e308, -179.99999999999997, -1e-300]

    @staticmethod
    def reference(header, columns):
        """Per-element formatting, the writer's definition."""
        rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
        return ",".join(header) + "\n" + "".join(
            ",".join(CSV_FORMAT % v for v in row) + "\n" for row in rows
        )

    @pytest.mark.parametrize("n", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 5])
    def test_matches_per_element_format(self, tmp_path, n):
        rng = np.random.default_rng(n)
        mixed = np.resize(self.SPECIAL, n) * rng.choice([1.0, -1.0], n)
        phase = -180.0 * rng.random(n)
        wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        header = ["frequency_hz", "mixed", "phase_deg", "wide"]
        columns = [np.arange(1, n + 1) * 0.1, mixed, phase, wide]
        path = tmp_path / "t.csv"
        write_csv(path, header, columns)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode() == self.reference(header, columns)

    def test_text_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["f", "q", "name"], [[1.5, 2.0], [np.inf, 1e3], ["upper", "mirror_a"]])
        assert path.read_bytes() == b"f,q,name\n1.5,inf,upper\n2,1000,mirror_a\n"


class TestCsvIngestion:
    def test_spectrum_roundtrip(self, tmp_path):
        grid = make_log_grid(1, 100, 64)
        s = flat(grid, 3.14e-9)
        path = tmp_path / "s.csv"
        write_csv(path, ["frequency_hz", "asd"], [grid.values, s.asd])
        f, a = read_asd_csv(path)
        assert np.array_equal(f, grid.values)
        assert np.array_equal(a, s.asd)

    def test_interp_loglog_power_law(self):
        f_src = np.array([1.0, 10.0, 100.0])
        a_src = 1e-6 / f_src ** 2
        grid = make_log_grid(1.0, 100.0, 41)
        out = interp_loglog(f_src, a_src, grid)
        assert np.allclose(out, 1e-6 / grid.values ** 2, rtol=1e-12)

    def test_interp_rejects_nonpositive(self):
        grid = make_log_grid(1, 10, 5)
        with pytest.raises(ConfigError):
            interp_loglog([1.0, 2.0], [1.0, 0.0], grid)

    def test_read_is_bit_exact_against_float(self, tmp_path):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2 ** 63, size=20000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        values = values * rng.choice([1.0, -1.0], values.size)
        values = np.concatenate([values, [5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308]])
        formats = ["%.17g", "%r", "%.6e"]
        tokens = [formats[i % 3] % v for i, v in enumerate(values.tolist())]
        freqs = np.arange(1, len(tokens) + 1)
        path = tmp_path / "asd.csv"
        with open(path, "w") as fh:
            fh.write("frequency_hz,asd\n")
            fh.writelines(f"{f},{t}\n" for f, t in zip(freqs, tokens))
        f, a = read_asd_csv(path)
        assert np.array_equal(f, freqs)
        assert a.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    def test_read_sorts_and_ignores_extra_columns(self, tmp_path):
        path = tmp_path / "asd.csv"
        path.write_text("frequency_hz,asd,note\n10,2,0\n1,3,0\n\n5,4,0\n")
        f, a = read_asd_csv(path)
        assert f.tolist() == [1.0, 5.0, 10.0]
        assert a.tolist() == [3.0, 4.0, 2.0]


REJECTED_BODIES = {
    "non_numeric": "1,abc\n",
    "one_column": "1,2\n3\n",
    "no_rows": "",
    "duplicate_frequency": "1,2\n5,3\n1,4\n",
    "nan": "1,2\n2,nan\n",
    "inf": "1,inf\n",
    "negative_inf": "1,2\n-inf,3\n",
}


@pytest.mark.parametrize("body", REJECTED_BODIES.values(), ids=REJECTED_BODIES.keys())
def test_read_asd_csv_rejects(tmp_path, body):
    path = tmp_path / "bad_asd.csv"
    path.write_text("frequency_hz,asd\n" + body)
    with pytest.raises(ConfigError, match="bad_asd.csv"):
        read_asd_csv(path)


@pytest.mark.parametrize("body", list(REJECTED_BODIES.values()) + ["1,2,3\n"],
                         ids=list(REJECTED_BODIES.keys()) + ["header_mismatch"])
def test_read_budget_csv_rejects(tmp_path, body):
    path = tmp_path / "bad_budget.csv"
    path.write_text("frequency_hz,total\n" + body)
    with pytest.raises(ConfigError, match="bad_budget.csv"):
        read_budget_csv(path)
