"""Frequency grids, amplitude spectral densities and noise budgets.

Conventions used throughout the package:

* all spectral densities are one-sided,
* a `Spectrum` carries the amplitude spectral density (ASD); the power
  spectral density is ASD**2 by definition,
* every spectrum carries an explicit unit tag and operations refuse to
  combine spectra with mismatched units or grids — silent mixing of
  Hz/rtHz and m/rtHz is the main bug class this guards against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridError, UnitError

# Recognised ASD unit tags ("rtHz" = square root of hertz).
UNIT_DISPLACEMENT = "m/rtHz"
UNIT_FREQUENCY = "Hz/rtHz"
UNIT_VOLTAGE = "V/rtHz"
UNIT_VELOCITY = "(m/s)/rtHz"
UNIT_FORCE = "N/rtHz"
UNIT_RELATIVE = "1/rtHz"

UNITS = frozenset({
    UNIT_DISPLACEMENT,
    UNIT_FREQUENCY,
    UNIT_VOLTAGE,
    UNIT_VELOCITY,
    UNIT_FORCE,
    UNIT_RELATIVE,
})

# 17 significant digits round-trip any IEEE double exactly.
CSV_FORMAT = "%.17g"

# Rows formatted per `%` operation in write_csv.  Blocks of 1024 rows
# format as fast as 4096-row ones and keep a block's Python floats and
# text well under 1 MB at 12 columns, so writing adds no peak memory.
CSV_BLOCK_ROWS = 1024


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing, positive frequency points [Hz]."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 1 or arr.size < 1:
            raise GridError("frequency grid must be a 1-d array")
        if not np.all(np.isfinite(arr)):
            raise GridError("frequency grid contains non-finite values")
        if arr[0] <= 0.0:
            raise GridError("frequency grid must be strictly positive")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise GridError("frequency grid must be strictly increasing")
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return self.values.size

    @property
    def fmin(self):
        return float(self.values[0])

    @property
    def fmax(self):
        return float(self.values[-1])

    def same_as(self, other):
        return self.values.shape == other.values.shape and np.array_equal(
            self.values, other.values
        )

    @property
    def angular(self):
        """2*pi*f [rad/s]."""
        return 2.0 * np.pi * self.values


def make_log_grid(fmin, fmax, n):
    """Log-spaced grid of `n` points with exact endpoints."""
    if not (0.0 < fmin < fmax):
        raise GridError(f"need 0 < fmin < fmax, got ({fmin}, {fmax})")
    if n < 2:
        raise GridError(f"need at least 2 points, got {n}")
    values = np.geomspace(fmin, fmax, int(n))
    values[0] = fmin
    values[-1] = fmax
    return FrequencyGrid(values)


def default_grid():
    """The standard analysis band: 0.1 Hz - 10 kHz, 1000 points."""
    return make_log_grid(0.1, 1.0e4, 1000)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided amplitude spectral density on a frequency grid."""

    grid: FrequencyGrid
    asd: np.ndarray
    unit: str

    def __post_init__(self):
        if self.unit not in UNITS:
            raise UnitError(f"unknown unit tag {self.unit!r}")
        arr = _frozen_array(self.asd)
        if arr.shape != self.grid.values.shape:
            raise GridError("asd length does not match grid length")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("asd contains non-finite values")
        if np.any(arr < 0.0):
            raise ConfigError("asd must be non-negative")
        object.__setattr__(self, "asd", arr)

    @property
    def psd(self):
        """Power spectral density, ASD**2."""
        return self.asd ** 2

    @classmethod
    def from_psd(cls, grid, psd, unit):
        return cls(grid, np.sqrt(np.asarray(psd, dtype=float)), unit)

    def scaled(self, factor, unit=None):
        """Pointwise multiply by a scalar or array; optionally retag unit."""
        return Spectrum(self.grid, self.asd * factor, unit or self.unit)


def zero_spectrum(grid, unit):
    return Spectrum(grid, np.zeros(len(grid)), unit)


def sum_uncorrelated(components):
    """Root-sum-square of spectra sharing one grid and unit."""
    components = list(components)
    if not components:
        raise ConfigError("cannot sum an empty list of spectra")
    first = components[0]
    for s in components[1:]:
        if s.unit != first.unit:
            raise UnitError(f"unit mismatch: {s.unit!r} vs {first.unit!r}")
        if not s.grid.same_as(first.grid):
            raise GridError("grid mismatch in uncorrelated sum")
    psd = np.zeros(len(first.grid))
    for s in components:
        psd += s.psd
    return Spectrum.from_psd(first.grid, psd, first.unit)


def cumulative_rms(spectrum):
    """RMS(f) = sqrt(integral of ASD**2 from f to fmax), trapezoidal.

    Integrated from high to low frequency, so the curve is monotonically
    non-increasing and reaches zero at the top of the grid.  The result
    keeps the input unit tag; values are in the unit's numerator (the
    usual convention when an RMS curve is overlaid on an ASD plot).
    """
    f = spectrum.grid.values
    psd = spectrum.psd
    segments = 0.5 * (psd[1:] + psd[:-1]) * np.diff(f)
    tail = np.concatenate([np.cumsum(segments[::-1])[::-1], [0.0]])
    return Spectrum(spectrum.grid, np.sqrt(tail), spectrum.unit)


def band_rms(spectrum, fmin, fmax):
    """RMS over [fmin, fmax]; PSD is interpolated linearly at the edges."""
    if not (fmin < fmax):
        raise GridError(f"need fmin < fmax, got ({fmin}, {fmax})")
    f = spectrum.grid.values
    lo = max(fmin, f[0])
    hi = min(fmax, f[-1])
    if lo >= hi:
        return 0.0
    psd = spectrum.psd
    inside = (f > lo) & (f < hi)
    fs = np.concatenate([[lo], f[inside], [hi]])
    ps = np.concatenate([
        [np.interp(lo, f, psd)], psd[inside], [np.interp(hi, f, psd)]
    ])
    return float(np.sqrt(np.trapezoid(ps, fs)))


@dataclass(frozen=True, eq=False)
class NoiseBudget:
    """Named noise components plus their uncorrelated total.

    `references` holds curves that are reported next to the budget but do
    not enter the total (for example a disabled configuration of one
    component, or a design-limit curve).
    """

    components: dict
    total: Spectrum
    references: dict = field(default_factory=dict)

    @classmethod
    def from_components(cls, components, references=None):
        components = dict(components)
        references = dict(references or {})
        total = sum_uncorrelated(list(components.values()))
        for name, s in references.items():
            if s.unit != total.unit:
                raise UnitError(f"reference {name!r} has unit {s.unit!r}")
            if not s.grid.same_as(total.grid):
                raise GridError(f"reference {name!r} is on a different grid")
        return cls(components=components, total=total, references=references)

    @property
    def grid(self):
        return self.total.grid

    @property
    def unit(self):
        return self.total.unit


def write_csv(path, header, columns):
    """Write equal-length `columns` under `header`, one LF-ended line per row.

    Numeric columns are written with CSV_FORMAT, so every double reads back
    bit-exact; any other column (text) with %s.  Rows are formatted a block
    of CSV_BLOCK_ROWS at a time, so the whole table is never held as
    Python objects.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join(
        CSV_FORMAT if np.issubdtype(c.dtype, np.number) else "%s" for c in columns
    ) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = np.array(
                [c[start:start + CSV_BLOCK_ROWS] for c in columns], dtype=object
            ).T
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_budget_csv(path, budget):
    """CSV with header `frequency_hz,<component>...,total`, full precision."""
    names = list(budget.components) + list(budget.references)
    columns = [budget.components.get(n) or budget.references[n] for n in names]
    write_csv(
        path,
        ["frequency_hz"] + names + ["total"],
        [budget.grid.values] + [c.asd for c in columns] + [budget.total.asd],
    )


def _read_csv(path, usecols=None):
    """(header names, float rows) of a CSV file with a frequency first column.

    Every malformed input raises ConfigError naming the file: a cell that
    is not a number, a row with fewer than two columns, no data rows, a
    NaN or infinite value, or a frequency that appears twice.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            # an empty body is rejected below, with the file name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                  usecols=usecols)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    if data.shape[0] == 0:
        raise ConfigError(f"{path}: no data rows")
    if data.shape[1] < 2:
        raise ConfigError(f"{path}: rows need at least two columns")
    finite = np.all(np.isfinite(data), axis=1)
    if not np.all(finite):
        raise ConfigError(
            f"{path}: non-finite value in data row {np.argmin(finite) + 1}"
        )
    f = np.sort(data[:, 0])
    repeated = f[1:][f[1:] == f[:-1]]
    if repeated.size:
        raise ConfigError(f"{path}: duplicate frequency {repeated[0]!r} Hz")
    return header, data


def read_budget_csv(path):
    """Inverse of `write_budget_csv`: (grid, {name: asd array})."""
    header, data = _read_csv(path)
    if header[0] != "frequency_hz":
        raise ConfigError(f"{path}: expected a frequency_hz leading column")
    if len(header) != data.shape[1]:
        raise ConfigError(
            f"{path}: header names {len(header)} columns, rows have {data.shape[1]}"
        )
    try:
        grid = FrequencyGrid(data[:, 0])
    except GridError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return grid, {name: data[:, i + 1] for i, name in enumerate(header[1:])}


def read_asd_csv(path):
    """Two-column `frequency_hz,<value>` file -> (freqs, values) arrays.

    Columns past the second are ignored; rows are returned sorted by
    frequency.
    """
    _, data = _read_csv(path, usecols=(0, 1))
    order = np.argsort(data[:, 0])
    return data[order, 0], data[order, 1]


def interp_loglog(f_src, a_src, grid):
    """Log-log interpolation onto `grid`, flat extension past the ends.

    Requires strictly positive source values (measured spectra are).
    """
    f_src = np.asarray(f_src, dtype=float)
    a_src = np.asarray(a_src, dtype=float)
    if np.any(a_src <= 0.0) or np.any(f_src <= 0.0):
        raise ConfigError("log-log interpolation needs positive data")
    out = np.interp(np.log(grid.values), np.log(f_src), np.log(a_src))
    return np.exp(out)
