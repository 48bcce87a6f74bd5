import decimal
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import suscav.scenario
import suscav.spectra
from suscav.cli import resolve_config
from suscav.errors import ConfigError, GridError, NumericalError, UnitError
from suscav.spectra import (
    UNIT_DISPLACEMENT,
    CSV_BLOCK_CELLS,
    CSV_BLOCK_ROWS,
    CSV_FORMAT,
    CSV_READ_CHUNK,
    FrequencyGrid,
    Spectrum,
    band_rms,
    cumulative_rms,
    default_grid,
    interp_loglog,
    make_log_grid,
    read_asd_csv,
    read_budget_csv,
    write_csv,
)
from suscav.scenario import Scenario, Term, _columns, load_config
from suscav.spectra import _kernel_tables, _parse_lines


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

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 999, 1000, 16385, 100_000])
    @pytest.mark.parametrize("fmin,fmax", [(0.1, 1e4), (1, 100), (1e-5, 5e-3), (3.3, 7.7)])
    def test_values_are_geomspace_bits(self, fmin, fmax, n):
        expected = np.geomspace(fmin, fmax, n)
        expected[0], expected[-1] = fmin, fmax
        assert make_log_grid(fmin, fmax, n).values.tobytes() == expected.tobytes()

    def test_builds_in_the_one_array_it_keeps(self):
        """Peak traced allocation at 1e6 points: the grid's 8 B a point and
        the 9 B a point of FrequencyGrid's order check (np.diff and its
        comparison).  np.geomspace took twice the grid, and FrequencyGrid
        then copied it: 25 B a point."""
        import tracemalloc

        n = 1_000_000
        tracemalloc.start()
        try:
            grid = make_log_grid(0.1, 1e4, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not grid.values.flags.writeable
        assert peak <= 17 * n + (1 << 16)

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
        back = Spectrum(grid_band, np.sqrt(s.psd), s.unit)
        assert np.allclose(back.asd, s.asd, rtol=1e-15, atol=0)

    def test_rejects_negative(self, grid_band):
        asd = np.ones(len(grid_band))
        asd[3] = -1.0
        with pytest.raises(ConfigError):
            Spectrum(grid_band, asd, UNIT_DISPLACEMENT)

    def test_rejects_nan(self, grid_band):
        """Input ASDs are refused non-finite where they are read, so a
        non-finite one is a numerical error, at its frequency."""
        asd = np.ones(len(grid_band))
        asd[3] = np.nan
        with pytest.raises(NumericalError) as info:
            Spectrum(grid_band, asd, UNIT_DISPLACEMENT)
        assert info.value.frequency_hz == grid_band.values[3]

    @pytest.mark.parametrize("bad, message", [
        (-1.0, "non-negative"), (np.inf, "non-finite values: inf"),
        (-np.inf, "non-finite values: -inf"), (np.nan, "non-finite values: nan"),
    ])
    def test_names_the_first_fault(self, grid_band, bad, message):
        asd = np.ones(len(grid_band))
        asd[3] = bad
        error = ConfigError if np.isfinite(bad) else NumericalError
        with pytest.raises(error, match=message):
            Spectrum(grid_band, asd, UNIT_DISPLACEMENT)

    def test_shares_a_read_only_array_and_copies_a_writable_one(self, grid_band):
        writable = np.ones(len(grid_band))
        copied = Spectrum(grid_band, writable, UNIT_DISPLACEMENT).asd
        assert copied is not writable and writable.flags.writeable
        assert not copied.flags.writeable
        assert Spectrum(grid_band, copied, UNIT_DISPLACEMENT).asd is copied

    def test_rejects_length_mismatch(self, grid_band):
        with pytest.raises(GridError):
            Spectrum(grid_band, np.ones(3), UNIT_DISPLACEMENT)

    def test_rejects_unknown_unit(self, grid_band):
        with pytest.raises(UnitError):
            Spectrum(grid_band, np.ones(len(grid_band)), "furlong/rtHz")
        with pytest.raises(UnitError):      # frequency noise is displacement first
            Spectrum(grid_band, np.ones(len(grid_band)), "Hz/rtHz")


def budget_columns(grid, levels, references=()):
    """`_columns` of paper_default with TERMS replaced by flat terms at
    `levels` in the total and at `references` out of it."""
    def term(name, level, in_total):
        return Term(name, None, lambda s, g, shared: np.full(len(g), float(level)),
                    lambda s: in_total)

    terms = ([term(f"c{i}", v, True) for i, v in enumerate(levels)]
             + [term(f"r{i}", v, False) for i, v in enumerate(references)])
    with mock.patch.object(suscav.scenario, "TERMS", tuple(terms)):
        return _columns(_paper_default(), grid)


@functools.cache
def _paper_default():
    return Scenario.from_dict(load_config(resolve_config("paper_default")))


def budget_total(grid, levels):
    return budget_columns(grid, levels)[-1]


class TestSumUncorrelated:
    """The budget total: the root-sum-square of its in-total columns."""

    def test_zero_component_is_identity(self, grid_band):
        out = budget_total(grid_band, [2.5, 0.0])
        assert np.allclose(out, 2.5, rtol=1e-15)

    def test_three_four_five(self, grid_band):
        out = budget_total(grid_band, [3.0, 4.0])
        assert np.allclose(out, 5.0, rtol=1e-15)

    def test_equal_components(self, grid_band):
        out = budget_total(grid_band, [1.7, 1.7])
        assert np.allclose(out, 1.7 * np.sqrt(2.0), rtol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=6), st.randoms())
    def test_permutation_invariant(self, levels, rnd):
        grid = make_log_grid(1, 100, 32)
        ref = budget_total(grid, levels)
        shuffled = list(levels)
        rnd.shuffle(shuffled)
        assert np.allclose(budget_total(grid, shuffled), ref, rtol=1e-12)

    def test_associative(self, grid_band):
        ab = budget_total(grid_band, [1.0, 2.0])[0]
        bc = budget_total(grid_band, [2.0, 3.0])[0]
        left = budget_total(grid_band, [ab, 3.0])
        right = budget_total(grid_band, [1.0, bc])
        assert np.allclose(left, right, rtol=1e-12)


class TestCumulativeRms:
    def test_flat_analytic(self):
        # flat ASD a over [f1, f2]: RMS(f1) = a*sqrt(f2 - f1)
        grid = FrequencyGrid(np.linspace(2.0, 50.0, 481))
        a = 1.3e-9
        rms = cumulative_rms(flat(grid, a))
        assert rms.asd[0] == pytest.approx(a * np.sqrt(48.0), rel=1e-12)
        assert rms.asd[-1] == 0.0

    def test_zero_spectrum(self, grid_band):
        rms = cumulative_rms(Spectrum(grid_band, np.zeros(len(grid_band)), UNIT_DISPLACEMENT))
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

    @pytest.mark.parametrize("n", sorted({1, 2, 3, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                          CSV_BLOCK_ROWS + 2, 3 * CSV_BLOCK_ROWS + 7}))
    def test_blocks_add_as_one_sequential_sum(self, n):
        # the reference: one cumulative sum from the top over the whole grid
        grid = make_log_grid(0.1, 1e4, n) if n > 1 else FrequencyGrid(np.array([3.0]))
        asd = np.random.default_rng(n).random(n) * 10.0 ** np.linspace(-8, -16, n)
        psd, f = asd ** 2, grid.values
        segments = 0.5 * (psd[1:] + psd[:-1]) * np.diff(f)
        tail = np.concatenate([np.cumsum(segments[::-1])[::-1], [0.0]])
        rms = cumulative_rms(Spectrum(grid, asd, UNIT_DISPLACEMENT))
        assert rms.asd.tobytes() == np.sqrt(tail).tobytes()


class TestBandRms:
    def test_flat_band(self):
        grid = make_log_grid(0.1, 100, 2000)
        a = 2.0e-8
        # exact edges are interpolated, flat PSD makes this analytic
        assert band_rms(flat(grid, a), 0.5, 50.0) == pytest.approx(
            a * np.sqrt(49.5), rel=1e-6
        )

    @pytest.mark.parametrize("fmin, fmax", [(20.0, 30.0), (5.0, 30.0), (0.01, 1.0)])
    def test_band_the_grid_does_not_cover_is_refused(self, fmin, fmax):
        """Clipped to the grid, these bands would give 0, the RMS over 5-10 Hz
        and that over 0.1-1 Hz."""
        grid = make_log_grid(0.1, 10.0, 100)
        with pytest.raises(GridError, match=f"band {fmin:g}-{fmax:g} Hz is not covered "
                                            "by the grid 0.1-10 Hz"):
            band_rms(flat(grid, 1.0), fmin, fmax)


class TestNoiseBudget:
    def test_total_is_rss(self, grid_band):
        columns = budget_columns(grid_band, [3.0, 4.0])
        assert np.allclose(columns[-1], 5.0, rtol=1e-15)

    def test_reference_not_in_total(self, grid_band):
        columns = budget_columns(grid_band, [3.0], references=[100.0])
        assert np.allclose(columns[-1], 3.0, rtol=1e-15)


def written_tokens(path, values):
    """The tokens write_csv writes for `values` as a one-column CSV."""
    write_csv(path, ["v"], [np.asarray(values, dtype=float)])
    return path.read_bytes().decode().split("\n")[1:-1]


def bit_patterns(n, seed):
    return np.random.default_rng(seed).integers(0, 2 ** 64, n, dtype=np.uint64).view(float)


class TestCsvWriter:
    SPECIAL = [0.0, -0.0, np.inf, 5e-324, 1.7e308, -179.99999999999997, -1e-300]

    @staticmethod
    def reference(header, columns):
        """Per-element formatting, the writer's definition."""
        cells = [[CSV_FORMAT % v for v in c.tolist()] if np.issubdtype(c.dtype, np.number)
                 else [str(v) for v in c] for c in map(np.asarray, columns)]
        return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))

    # six columns: a block is CSV_BLOCK_CELLS // 6 rows
    @pytest.mark.parametrize("n", sorted({1, 1023, 1024, 1025, 3077, CSV_BLOCK_ROWS - 1,
                                          CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                          3 * CSV_BLOCK_ROWS + 5, CSV_BLOCK_CELLS // 6 - 1,
                                          CSV_BLOCK_CELLS // 6, CSV_BLOCK_CELLS // 6 + 1}))
    def test_matches_per_element_format(self, tmp_path, n):
        rng = np.random.default_rng(n)
        mixed = np.resize(self.SPECIAL, n) * rng.choice([1.0, -1.0], n)
        phase = -180.0 * rng.random(n)
        wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        # text cells longer than a number's cell, multi-byte UTF-8 included
        names = np.array(["stage_%d" % i + "_µ" * (i % 23) for i in range(n)])
        header = ["frequency_hz", "mixed", "name", "phase_deg", "wide", "bits"]
        columns = [np.arange(1, n + 1) * 0.1, mixed, names, phase, wide, bit_patterns(n, n)]
        path = tmp_path / "t.csv"
        write_csv(path, header, columns)
        data = path.read_bytes()
        assert b"\r" not in data and b"\0" not in data
        assert data.decode("utf-8") == self.reference(header, columns)

    def test_text_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["f", "q", "name"], [[1.5, 2.0], [np.inf, 1e3], ["upper", "mirror_a"]])
        assert path.read_bytes() == b"f,q,name\n1.5,inf,upper\n2,1000,mirror_a\n"

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [[1.0, 2.0], [1.0]]),
        (["a", "b"], [[1.0], [1.0, 2.0]]),
        (["a", "b", "c"], [[1.0], [2.0]]),
        (["a"], [[1.0], [2.0]]),
    ], ids=["second_shorter", "second_longer", "extra_name", "missing_name"])
    def test_rejects_malformed_table(self, tmp_path, header, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(path, header, columns)
        assert not path.exists()

    # powers of ten and their neighbours, across and past the kernel's range
    POWERS = [v for k in range(-325, 310) for p in [10.0 ** k if k < 309 else np.inf]
              for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))]
    BOUNDARIES = [
        # fixed/exponent switch
        1e-5, 1e-4, 9.9999999999999991e-5, 0.0001000000000000001, 0.00012345678901234567,
        1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1.0000000000000002e16,
        123456789012345678.0,
        # 3-digit exponents and the 2-digit border
        1e99, 1e100, 1.2345e-123, 9.87e250, 1e-99, 1e-100, 2.2250738585072014e-308,
        # doubles just below a power of ten whose 17 digits round up to it
        1e-14, 1e98, 1e-243,
        # exact ties at the 17th digit, rounded half to even
        123456789012345.625, 123456789012345.375, 3 * 2.0 ** -24,
        # text the kernel does not make
        0.0, np.nan, np.inf, 5e-324, 4.9406564584124654e-320,
    ]

    def test_boundary_table(self, tmp_path):
        values = np.array(self.POWERS + self.BOUNDARIES)
        values = np.concatenate([values, -values])
        assert written_tokens(tmp_path / "t.csv", values) == [
            CSV_FORMAT % v for v in values.tolist()
        ]

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                  st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]),
                  st.integers(0, 2 ** 64 - 1).map(
                      lambda b: float(np.array(b, np.uint64).view(float)))),
        min_size=1, max_size=200))
    def test_matches_csv_format_property(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        assert written_tokens(path, values) == [CSV_FORMAT % v for v in values]

    @pytest.mark.parametrize("values", [
        [0.0] * 9, [-0.0] * 9, [0.0, -0.0, 1.5, -2.5e-300, 0.0, 7e250, -0.0, np.nan, 0.0],
    ], ids=["zeros", "negative_zeros", "mixed"])
    def test_zeros_take_the_kernel(self, tmp_path, values):
        from suscav.spectra import _decimal, _kernel_tables

        x = np.array(values)
        assert written_tokens(tmp_path / "t.csv", x) == [CSV_FORMAT % v for v in values]
        _, _, slow = _decimal(x, _kernel_tables())
        assert not np.any(x[slow] == 0.0)

    def test_random_bit_patterns(self, tmp_path):
        values = bit_patterns(50_000, 2024)
        assert written_tokens(tmp_path / "t.csv", values) == [
            CSV_FORMAT % v for v in values.tolist()
        ]

    @staticmethod
    def fast_block(n=1000):
        """Values whose every product is settled by `_decimal`'s whole-array
        tests (in 1e9..1e16 many doubles lie exactly on a 17-digit tie)."""
        rng = np.random.default_rng(5)
        return rng.choice([1.0, -1.0], n) * 10.0 ** rng.uniform(-30.0, 5.0, n)

    @staticmethod
    def scaled_sizes(monkeypatch):
        """The sizes of the arrays `_scaled` is called with, from now on."""
        scaled, sizes = suscav.spectra._scaled, []
        monkeypatch.setattr(suscav.spectra, "_scaled",
                            lambda a, k, t: sizes.append(a.size) or scaled(a, k, t))
        return sizes

    def test_fast_block_needs_no_per_element_test(self, tmp_path, monkeypatch):
        sizes = self.scaled_sizes(monkeypatch)
        values = self.fast_block()
        assert written_tokens(tmp_path / "t.csv", values) == [
            CSV_FORMAT % v for v in values.tolist()
        ]
        assert sizes == [values.size]

    # doubles below a power of ten whose exponent moves by one
    SHIFTED = [float(np.nextafter(1e-14, 0.0)),
               1e98]                    # below 10**98; its 17 digits carry to 1e+98
    PLANTED = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300, 1e-279, 1e279,
               *SHIFTED,
               123456789012345.625]     # a tie at the 17th digit

    @pytest.mark.parametrize("at", [0, 500, 999], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("value", PLANTED, ids=[repr(v) for v in PLANTED])
    def test_value_planted_in_a_fast_block(self, tmp_path, monkeypatch, value, at):
        """A planted value costs its block no second pass: one whose
        exponent moves adds a `_scaled` call of its own, any other none, and
        only a nonzero value out of the kernel's range or a tie is left to
        CSV_FORMAT."""
        sizes = self.scaled_sizes(monkeypatch)
        values = self.fast_block()
        values[at] = value
        assert written_tokens(tmp_path / "t.csv", values) == [
            CSV_FORMAT % v for v in values.tolist()
        ]
        shifted = value in self.SHIFTED
        assert sizes == [values.size] + [1] * shifted
        _, _, slow = suscav.spectra._decimal(values, _kernel_tables())
        assert slow.tolist() == ([] if shifted or value == 0.0 else [at])

    def test_grid_ends_and_rms_zero_need_no_per_element_call(self, tmp_path, monkeypatch):
        """Products of exactly 1e16, from the grid's ends 0.1 and 1e4 and
        the 0.0 that ends a cumulative RMS curve, lie in the kernel's range:
        over blocks that hold them, each number is scaled once."""
        grid = make_log_grid(0.1, 1e4, 3 * CSV_BLOCK_ROWS + 5)
        rms = cumulative_rms(Spectrum(grid, 1e-12 / np.sqrt(grid.values), UNIT_DISPLACEMENT))
        assert rms.asd[-1] == 0.0
        sizes = self.scaled_sizes(monkeypatch)
        header, columns = ["frequency_hz", "rms"], [grid.values, rms.asd]
        path = tmp_path / "t.csv"
        write_csv(path, header, columns)
        assert path.read_text() == self.reference(header, columns)
        assert len(sizes) == 4 and sum(sizes) == 2 * len(grid)

    def test_multiply_shift_is_integer_division(self):
        from suscav.spectra import _div10k

        v = np.concatenate([[0, 9999, 10_000, 99_999_999], np.arange(0, 10 ** 8, 997)])
        assert np.array_equal(_div10k(v), np.divmod(v, 10_000)[0])

    def test_constant_columns_are_formatted_once(self, tmp_path, monkeypatch):
        """A column of one bit pattern in a block skips the kernel there;
        0.0 and -0.0 differ, so a column that mixes them does not."""
        fmt, widths = suscav.spectra._format_numbers, []
        monkeypatch.setattr(suscav.spectra, "_format_numbers",
                            lambda x: widths.append(x.shape[1]) or fmt(x))
        step = CSV_BLOCK_CELLS // 6
        n = 2 * step + 7
        i = np.arange(n)
        signed = np.zeros(n)
        signed[1::2] = -0.0                  # the first block starts and ends with 0.0
        header = ["f", "zero", "negative_zero", "flat", "switch", "signed"]
        columns = [(i + 1) * 0.1, np.zeros(n), np.full(n, -0.0),
                   np.full(n, 4.9117313017927888e-16),
                   np.where(i < step, 2.5, i * 1e-3), signed]
        path = tmp_path / "t.csv"
        write_csv(path, header, columns)
        assert path.read_text() == self.reference(header, columns)
        assert widths == [2, 3, 3]

    def test_more_columns_than_cells_in_a_block(self, tmp_path):
        n = CSV_BLOCK_CELLS + 1
        header = [f"c{j}" for j in range(n)]
        columns = list(bit_patterns(3 * n, 7).reshape(n, 3))
        path = tmp_path / "t.csv"
        write_csv(path, header, columns)
        assert path.read_text() == self.reference(header, columns)


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


def decimal_token(sign, digits, point, exponent):
    """`digits` with `sign`, a point after `point` digits, and `exponent`."""
    text = sign + digits
    if point is not None and point < len(digits):
        text = sign + digits[:point] + "." + digits[point:]
    if exponent is not None:
        mark, exp_sign, value, width = exponent
        text += f"{mark}{exp_sign}{value:0{width}d}"
    return text


decimal_tokens = st.builds(
    decimal_token,
    sign=st.sampled_from(["", "+", "-"]),
    digits=st.text("0123456789", min_size=1, max_size=25)
    | st.builds(lambda z, d: "0" * z + d, st.integers(1, 12), st.text("0123456789", min_size=1,
                                                                       max_size=18)),
    point=st.none() | st.integers(1, 24),
    exponent=st.none() | st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                                   st.integers(0, 400), st.integers(1, 4)),
)


def float_bits(tokens):
    return np.array([float(t) for t in tokens]).tobytes()


def refuse_loadtxt(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")
    monkeypatch.setattr(np, "loadtxt", refuse)


class TestCsvReadKernel:
    """The reader's integer-token kernel against float() and np.loadtxt."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(decimal_tokens, min_size=1, max_size=40))
    def test_random_decimals_are_float_bits(self, tokens):
        lines = "".join(t + "\n" for t in tokens).encode()
        values = _parse_lines(lines, _kernel_tables())
        assert values is not None and values.shape == (len(tokens), 1)
        assert values.tobytes() == float_bits(tokens)

    @staticmethod
    def near_ties(x, neighbour):
        """The exact midpoint of the doubles x and `neighbour`, and the
        midpoint rounded down and up to 16-19 significant digits."""
        with decimal.localcontext(decimal.Context(prec=2000)):
            mid = (decimal.Decimal(x) + decimal.Decimal(neighbour)) / 2
        return [f"{mid:e}"] + [
            f"{decimal.Context(prec=digits, rounding=rounding).create_decimal(mid):e}"
            for digits in range(16, 20)
            for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING)
        ]

    def test_midpoints_and_powers_of_two(self):
        rng = np.random.default_rng(11)
        xs = [2.0 ** 53, 2.0 ** 54, 2.0 ** 60 + 2 ** 9, 9007199254740993.0, 1.0, 0.1, 1e-7,
              5e-8, 123456.789, 1e22, 1e23, 2.0 ** -800, 2.0 ** 900]
        xs += list(rng.uniform(1, 2, 20) * 2.0 ** rng.integers(-850, 950, 20))
        xs += [2.0 ** k for k in range(-860, 960, 37)]
        tokens = []
        for x in xs:
            for neighbour in (np.nextafter(x, np.inf), np.nextafter(x, 0.0)):
                tokens += self.near_ties(x, float(neighbour))
                tokens += [repr(float(neighbour)), "%.17g" % neighbour, "%.16e" % neighbour]
        lines = "".join(t + "\n" for t in tokens).encode()
        values = _parse_lines(lines, _kernel_tables())
        assert values.tobytes() == float_bits(tokens)

    def test_tie_integers(self):
        # 2**53 + 1 and its like: exact ties that round to even
        tokens = [str(2 ** 53 + k) for k in range(-3, 8)] + [str(2 ** 60 + 2 ** 6 * k)
                                                              for k in range(-3, 8)]
        tokens += ["-" + t for t in tokens] + ["0", "-0", "+0.0", "0e-999", "-0.000e5"]
        values = _parse_lines("".join(t + "\n" for t in tokens).encode(), _kernel_tables())
        assert values.tobytes() == float_bits(tokens)

    def test_range_ends(self):
        tokens = ["5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308",
                  "2.2250738585072009e-308", "1.7976931348623157e308", "1.7976931348623159e308",
                  "1e309", "-1e309", "1e-400", "1e-265", "1e-264", "9.999e295", "1e296",
                  "1e99999999999999999999", "1e-99999999999999999999", "-1e+00000000000000000007"]
        values = _parse_lines("".join(t + "\n" for t in tokens).encode(), _kernel_tables())
        assert values.tobytes() == float_bits(tokens)

    def test_long_mantissas(self):
        """Leading zeros, and the point among them, are not significant; 19
        significant digits may not fit an int64."""
        tokens = ["0.9999999999999999999", "9.999999999999999999", "99999999999999999999",
                  "0.000009999999999999999999", "0000000999999999999999999999",
                  "00000000000000000000000000000000001", "0.000000000000000000001234",
                  "0.012345678901234567", "-0.0012345678901234567e3", "1234567890.1234567890e-5"]
        values = _parse_lines("".join(t + "\n" for t in tokens).encode(), _kernel_tables())
        assert values.tobytes() == float_bits(tokens)

    # (token, the shift that puts its product 2**-33 past a rounding boundary)
    SHIFTED = [
        ("9007199254740992.9", 0.1 + 2.0 ** -33),   # above the middle of a gap
        ("4503599627370496.2", 0.3 + 2.0 ** -33),
        ("9007199254740991.6", -0.1 - 2.0 ** -33),  # below it
        ("-9007199254740991.6", -0.1 - 2.0 ** -33),
        ("9007199254740991.4", 0.1 + 2.0 ** -33),   # a quarter gap below 2**53
        ("18014398509481983.2", -0.2 - 2.0 ** -33),
    ]

    @pytest.mark.parametrize("token, shift", SHIFTED, ids=[t for t, _ in SHIFTED])
    def test_product_next_to_a_rounding_boundary_goes_to_float(self, monkeypatch, token, shift):
        """The kernel's product is trusted only where it is further than
        2**-30 of a gap from a rounding boundary: moved to just past one,
        it rounds the wrong way, and float() must convert the number."""
        scaled = suscav.spectra._scaled

        def shifted(a, k, t):
            h, r = scaled(a, k, t)
            return h, r + shift
        monkeypatch.setattr(suscav.spectra, "_scaled", shifted)
        values = _parse_lines(token.encode() + b"\n", _kernel_tables())
        assert values.tobytes() == float_bits([token])

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_row_across_a_chunk_boundary(self, tmp_path, monkeypatch, delta):
        """A line ends CSV_READ_CHUNK + delta bytes into the body; every row
        is 20 bytes but the first, which is padded to put it there."""
        rows = [f"{i + 2:09d},{1.25e-7 * (i + 1):.3e}\n" for i in range(2 * CSV_READ_CHUNK // 20)]
        pad = (CSV_READ_CHUNK + delta) % 20
        rows.insert(0, "1," + "1." + "0" * (pad + 15) + "\n")
        body = "".join(rows)
        assert (CSV_READ_CHUNK + delta - len(rows[0])) % 20 == 0
        assert body[CSV_READ_CHUNK + delta - 1] == "\n"
        path = tmp_path / "asd.csv"
        path.write_text("frequency_hz,asd\n" + body)
        expected = [float(r.split(",")[1]) for r in rows]
        refuse_loadtxt(monkeypatch)
        f, a = read_asd_csv(path)
        assert a.tolist() == expected and f[0] == 1.0 and f[-1] == len(rows)

    def test_lines_longer_than_a_chunk(self, tmp_path, monkeypatch):
        values = bit_patterns(300, 5)
        path = tmp_path / "asd.csv"
        path.write_text("frequency_hz,asd\n" + "".join(
            "%d,%.17g\n" % (i + 1, v) for i, v in enumerate(values[np.isfinite(values)])))
        reference = read_asd_csv(path)
        monkeypatch.setattr(suscav.spectra, "CSV_READ_CHUNK", 7)
        refuse_loadtxt(monkeypatch)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(read_asd_csv(path), reference))

    def test_kernel_and_fallback_read_the_same_values(self, tmp_path):
        """LF lines (the kernel), CRLF lines and a blank line (np.loadtxt) and a
        third column of numbers (the kernel) or text (np.loadtxt)."""
        rng = np.random.default_rng(4)
        f = np.sort(rng.uniform(0.01, 5e4, 12_000))
        a = rng.lognormal(-16, 2, f.size)
        rows = ["%.17g,%.17g" % fa for fa in zip(f, a)]
        variants = {
            "lf": "\n".join(rows) + "\n",
            "no_final_lf": "\n".join(rows),
            "crlf": "\r\n".join(rows) + "\r\n",
            "blank_line": "\n".join(rows[:5000] + [""] + rows[5000:]) + "\n",
            "third_column": "".join(r + ",1e-3\n" for r in rows),
            "text_column": "".join(r + ",note\n" for r in rows),
        }
        for name, body in variants.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(("frequency_hz,asd\n" + body).encode())
            got = read_asd_csv(path)
            assert got[0].tobytes() == f.tobytes() and got[1].tobytes() == a.tobytes(), name
            assert (suscav.spectra._read_numbers(path, (0, 1)) is None) == (
                name in ("crlf", "blank_line", "text_column")), name

    def test_seeded_17_digit_file_skips_loadtxt(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2024)
        f = np.geomspace(0.03, 4e4, 30_000)
        a = 1e-7 * np.minimum(1.0, (1.3 / f) ** 2) * np.exp(rng.normal(0.0, 0.25, f.size))
        path = tmp_path / "ground.csv"
        path.write_text("frequency_hz,asd_m_rthz\n"
                        + "".join("%.17g,%.17g\n" % fa for fa in zip(f, a)))
        refuse_loadtxt(monkeypatch)
        freqs, values = read_asd_csv(path)
        assert freqs.tobytes() == f.tobytes() and values.tobytes() == a.tobytes()

    def test_read_holds_the_result_and_a_chunk(self, tmp_path):
        """Peak traced allocation of a 3e5-row read: the two columns it
        returns, a comparison mask of a byte a row and the working arrays
        of one chunk, where np.loadtxt, its sort and copies took 2.5 times
        the result."""
        import tracemalloc

        n = 300_000
        f = np.geomspace(0.01, 5e4, n)
        write_csv(tmp_path / "big.csv", ["frequency_hz", "asd"], [f, 1e-7 / (1.0 + f)])
        tracemalloc.start()
        try:
            result = read_asd_csv(tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result[0].tobytes() == f.tobytes()
        assert peak <= 2 * 8 * n + n + 20 * CSV_READ_CHUNK


REJECTED_BODIES = {
    "non_numeric": "1,abc\n",
    "one_column": "1,2\n3\n",
    "no_rows": "",
    "duplicate_frequency": "1,2\n5,3\n1,4\n",
    "nan": "1,2\n2,nan\n",
    "inf": "1,inf\n",
    "negative_inf": "1,2\n-inf,3\n",
    "bare_sign": "1,2\n2,-\n",
    "empty_exponent": "1,2\n2,1e+\n",
}


@pytest.mark.parametrize("body", REJECTED_BODIES.values(), ids=REJECTED_BODIES.keys())
def test_read_asd_csv_rejects(tmp_path, body):
    path = tmp_path / "bad_asd.csv"
    path.write_text("frequency_hz,asd\n" + body)
    with pytest.raises(ConfigError, match="bad_asd.csv"):
        read_asd_csv(path)


# more than a chunk of valid rows, frequencies above those of the bodies
CHUNK_OF_ROWS = "".join("%d,%.17g\n" % (10 ** 6 + i, 1e-7 / (i + 1))
                        for i in range(CSV_READ_CHUNK // 20))
LATE_BODIES = {**{k: v.encode() for k, v in REJECTED_BODIES.items() if v},
               "non_utf8": b"1,3\xb5e-9\n"}


@pytest.mark.parametrize("reader", [read_asd_csv, read_budget_csv])
@pytest.mark.parametrize("body", LATE_BODIES.values(), ids=LATE_BODIES.keys())
def test_rejected_rows_after_a_chunk_fail_as_under_loadtxt(tmp_path, monkeypatch, reader,
                                                           body):
    path = tmp_path / "late_bad.csv"
    path.write_bytes(("frequency_hz,asd\n" + CHUNK_OF_ROWS).encode() + body)
    assert len(CHUNK_OF_ROWS) > CSV_READ_CHUNK
    with pytest.raises(ConfigError, match="late_bad.csv") as kernel:
        reader(path)
    monkeypatch.setattr(suscav.spectra, "_read_numbers", lambda path, usecols: None)
    with pytest.raises(ConfigError) as loadtxt:
        reader(path)
    assert str(kernel.value) == str(loadtxt.value)


@pytest.mark.parametrize("body", list(REJECTED_BODIES.values()) + ["1,2,3\n"],
                         ids=list(REJECTED_BODIES.keys()) + ["header_mismatch"])
def test_read_budget_csv_rejects(tmp_path, body):
    path = tmp_path / "bad_budget.csv"
    path.write_text("frequency_hz,total\n" + body)
    with pytest.raises(ConfigError, match="bad_budget.csv"):
        read_budget_csv(path)
