"""Frequency grids, amplitude spectral densities and noise budgets.

Conventions used throughout the package:

* all spectral densities are one-sided,
* a `Spectrum` carries the amplitude spectral density (ASD); the power
  spectral density is ASD**2 by definition,
* computation works on plain ASD arrays; a `Spectrum` is what the library
  hands out: an ASD array checked finite and non-negative by `check_asd`,
  frozen, on its grid and tagged with its unit.  No operation combines
  spectra.  Frequency noise (ADC, PLL) is converted to displacement
  before it becomes a budget column.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, GridError, NumericalError, UnitError

# Recognised ASD unit tags ("rtHz" = square root of hertz).
UNIT_DISPLACEMENT = "m/rtHz"
UNIT_RELATIVE = "1/rtHz"

UNITS = frozenset({
    UNIT_DISPLACEMENT,
    UNIT_RELATIVE,
})

# 17 significant digits round-trip any IEEE double exactly.  This is the
# definition of every number written to CSV: `write_csv` produces the same
# bytes with a vectorised kernel and formats with CSV_FORMAT itself the few
# values that the kernel leaves out, and once each column that is constant
# over a block.
CSV_FORMAT = "%.17g"

# Rows per block of write_csv's formatting and of cumulative_rms's sum.  A
# table wider than four columns takes fewer rows a block, CSV_BLOCK_CELLS
# cells at most but one row at least: a block's working arrays, about
# 200 B a cell, then stay near 1.6 MB, small enough for the C allocator to
# keep reusing rather than return to the system after each block and fault
# back in.
CSV_BLOCK_ROWS = 2048
CSV_BLOCK_CELLS = 4 * CSV_BLOCK_ROWS

# The kernel formats 1e-279 < |x| < 1e279: there the power-of-ten table,
# every Veltkamp split and every partial product stay clear of overflow
# and of subnormals; it also formats 0 and -0.  Inf, nan and anything
# outside take CSV_FORMAT.
_FAST_EXP = 280
# Bytes per formatted number: a NUL-padded text of at most 30 bytes, then
# the separator.  `bytes.translate` deletes the NULs before writing.
_CELL = 32
_WORD = np.dtype("<u8")


def _frozen_array(values, dtype=float):
    """`values` as a read-only array: shared if it is one already, else a copy."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
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

    def covers(self, fmin, fmax):
        """Whether the grid spans the whole band [fmin, fmax]."""
        return self.fmin <= fmin and fmax <= self.fmax

    @property
    def angular(self):
        """2*pi*f [rad/s]."""
        return 2.0 * np.pi * self.values


# Most points a grid may have, from `--grid` or a config's `grid.n`;
# checked before the grid is allocated.
MAX_GRID_POINTS = 10_000_000


def check_log_grid(fmin, fmax, n):
    """Refuse what make_log_grid(fmin, fmax, n) refuses, allocating nothing."""
    if not (0.0 < fmin < fmax):
        raise GridError(f"need 0 < fmin < fmax, got ({fmin}, {fmax})")
    if n < 2:
        raise GridError(f"need at least 2 points, got {n}")
    if n > MAX_GRID_POINTS:
        raise GridError(f"n = {n} is above the limit of {MAX_GRID_POINTS} points")


def make_log_grid(fmin, fmax, n):
    """Log-spaced grid of `n` points with exact endpoints: np.geomspace's
    values by its own steps, but in the one array that the grid keeps."""
    check_log_grid(fmin, fmax, n)
    values = np.linspace(np.log10(fmin), np.log10(fmax), int(n))
    np.power(10.0, values, out=values)
    values[0], values[-1] = fmin, fmax
    values.setflags(write=False)
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
        check_asd(arr, self.grid, "asd", self.unit)
        object.__setattr__(self, "asd", arr)

    @property
    def psd(self):
        """Power spectral density, ASD**2."""
        return self.asd ** 2


def check_asd(asd, grid, name, unit=UNIT_DISPLACEMENT):
    """Refuse an ASD array on `grid` that is not finite and non-negative: a
    NumericalError naming `name`, the first non-finite value and its
    frequency, else a ConfigError."""
    # NaN and inf show in the extremes, so a valid array costs no mask.
    # Every input ASD is refused non-finite where it is read, so a
    # non-finite one here was computed
    if not (np.isfinite(asd.max()) and asd.min() >= 0.0):
        finite = np.isfinite(asd)
        if not finite.all():
            i = np.argmin(finite)
            raise NumericalError(f"{name} contains non-finite values: {asd[i]} {unit}",
                                 frequency_hz=float(grid.values[i]))
        raise ConfigError(f"{name} must be non-negative")


def cumulative_rms(spectrum):
    """RMS(f) = sqrt(integral of ASD**2 from f to fmax), trapezoidal.

    Integrated from high to low frequency, so the curve is monotonically
    non-increasing and reaches zero at the top of the grid.  The result
    keeps the input unit tag; values are in the unit's numerator (the
    usual convention when an RMS curve is overlaid on an ASD plot).

    The segments are summed top-down in blocks of CSV_BLOCK_ROWS, each
    block's cumulative sum seeded with the sum above it: the additions of
    one sequential sum, in its order, with O(block) working arrays.
    """
    f, asd = spectrum.grid.values, spectrum.asd
    rms = np.empty(f.size)
    rms[-1] = 0.0
    carry = 0.0
    for hi in range(f.size - 1, 0, -CSV_BLOCK_ROWS):
        lo = max(hi - CSV_BLOCK_ROWS, 0)
        psd = asd[lo:hi + 1] ** 2
        segments = (0.5 * (psd[1:] + psd[:-1]) * np.diff(f[lo:hi + 1]))[::-1]
        segments[0] += carry
        tail = np.cumsum(segments)
        carry = tail[-1]
        rms[lo:hi] = np.sqrt(tail[::-1])
    rms.setflags(write=False)
    return Spectrum(spectrum.grid, rms, spectrum.unit)


def band_rms(spectrum, fmin, fmax):
    """RMS over [fmin, fmax]; PSD is interpolated linearly at the edges.
    A band the grid does not cover is refused: its RMS would be another band's."""
    if not (fmin < fmax):
        raise GridError(f"need fmin < fmax, got ({fmin}, {fmax})")
    grid = spectrum.grid
    if not grid.covers(fmin, fmax):
        raise GridError(f"band {fmin:g}-{fmax:g} Hz is not covered by the grid "
                        f"{grid.fmin:g}-{grid.fmax:g} Hz")
    f, psd = grid.values, spectrum.psd
    inside = (f > fmin) & (f < fmax)
    fs = np.concatenate([[fmin], f[inside], [fmax]])
    ps = np.concatenate([
        [np.interp(fmin, f, psd)], psd[inside], [np.interp(fmax, f, psd)]
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
    references: dict

    @property
    def grid(self):
        return self.total.grid


class _KernelTables(NamedTuple):
    pow_hi: np.ndarray        # 10**e rounded to a double, e = 16 - k
    pow_head: np.ndarray      # Veltkamp split of pow_hi: head + tail == pow_hi
    pow_tail: np.ndarray
    pow_lo: np.ndarray        # the remainder 10**e - pow_hi, rounded
    chunk_text: np.ndarray    # ASCII digits of 0..9999, four bytes in a word
    chunk_kept: np.ndarray    # digits of a chunk left after its trailing zeros
    keep_int: np.ndarray      # (4 words, code): byte mask of the integer digits
    keep_frac: np.ndarray     # byte mask of the digits after the point
    point: np.ndarray         # the "." byte
    exp_text: np.ndarray      # (4 words, k): "0.000" prefix or "e+NNN" suffix
    exp_code: np.ndarray      # 18 * (digits before the point), per k


@cache
def _kernel_tables():
    """The %.17g kernel's lookup tables, built on first use (a few ms).

    A cell is 32 bytes; byte 0 holds the sign, bytes 1-5 the "0.000" prefix
    of fixed notation below 1, bytes 7-23 the digits before the point
    (digit i at 7 + i), byte 7 + alen the point, bytes 8-24 the digits after
    it (digit i at 8 + i), bytes 25-29 the exponent and byte 31 the
    separator.  `alen` is the number of digits before the point and `nd`
    the number of significant digits; code = 18 * alen + nd.
    """
    hi, lo = [], []
    for e in range(16 - _FAST_EXP, 17 + _FAST_EXP):
        p = 10 ** abs(e)
        h = float(p) if e >= 0 else 1 / p         # int / int is correctly rounded
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((p * den - num) / den if e >= 0 else (den - num * p) / (den * p))
    hi = np.array(hi)
    head, tail = _split(hi)

    chunk = np.arange(10_000)
    text = np.stack([chunk // 1000, chunk // 100 % 10, chunk // 10 % 10, chunk % 10], 1)
    trailing = sum((chunk % 10 ** i == 0).astype(np.int64) for i in range(1, 5))

    alen, nd = np.divmod(np.arange(18 * 18)[:, None], 18)
    digit = np.arange(17)
    keep_int = np.zeros((18 * 18, _CELL), np.uint8)
    keep_frac = np.zeros_like(keep_int)
    point = np.zeros_like(keep_int)
    keep_int[:, 7:24] = np.where(digit < alen, 255, 0)
    keep_frac[:, 8:25] = np.where((digit >= alen) & (digit < nd), 255, 0)
    point[:, 7:25] = np.where((np.arange(18) == alen) & (alen >= 1) & (alen < nd), ord("."), 0)

    k = np.arange(-_FAST_EXP, _FAST_EXP + 1)
    sci = (k < -4) | (k >= 17)
    exp_text = np.zeros((k.size, _CELL), np.uint8)
    for i, c in enumerate(b"0.000"):
        exp_text[:, 1 + i] = np.where((k < 0) & (i <= -k) & ~sci, c, 0)
    exp_text[:, 25] = np.where(sci, ord("e"), 0)
    exp_text[:, 26] = np.where(sci, np.where(k < 0, ord("-"), ord("+")), 0)
    exp_text[:, 27] = np.where(sci & (abs(k) >= 100), 48 + abs(k) // 100, 0)
    exp_text[:, 28] = np.where(sci, 48 + abs(k) // 10 % 10, 0)
    exp_text[:, 29] = np.where(sci, 48 + abs(k) % 10, 0)

    tables = _KernelTables(
        hi, head, tail, np.array(lo),
        (text + 48).astype(np.uint8).view("<u4").ravel().astype(_WORD),
        np.where(chunk == 0, -100, 4 - trailing).astype(np.int8),
        *(np.ascontiguousarray(m.view(_WORD).T) for m in (keep_int, keep_frac, point, exp_text)),
        18 * np.where(sci, 1, np.maximum(k + 1, 0)),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _split(x):
    """Veltkamp's split: head + tail == x, each with at most 26 significant bits."""
    c = x * 134217729.0                            # 2**27 + 1
    head = c - (c - x)
    return head, x - head


def _scaled(a, k, t):
    """a * 10**(16 - k) as a normalised double-double (h, r).

    Dekker's exact product of a with the double nearest 10**(16 - k), plus
    a times the table's remainder; within about 1e-14 of the exact value.
    """
    i = _FAST_EXP - k
    hi, head, tail, lo = (c.take(i) for c in (t.pow_hi, t.pow_head, t.pow_tail, t.pow_lo))
    a_head, a_tail = _split(a)
    p = a * hi
    r = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail + a * lo
    h = p + r
    return h, r - (h - p)


def _decimal(x, t):
    """(q, k, slow): |x| ~ q * 10**(k - 16) with q a 17-digit integer, for
    a non-empty x.

    The decimal exponent k starts as floor(log10|x|) and moves by one when
    |x| * 10**(16 - k) falls outside [1e16, 1e17).  That product, rounded to
    an integer, gives the 17 significant digits; its error is far below the
    1e-9 kept from a rounding tie, so the digits are the correctly rounded
    ones CSV_FORMAT prints; a zero gets q = k = 0.  `slow` indexes the
    near-ties and the other nonzero values outside the range; their q and k
    are meaningless.

    Every value takes one path, and no array is computed twice: a
    whole-array min or max tests each condition (the range, the exponent
    shift, the tie), and only the values that one flags are found and
    handled one by one.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log10(a)
    slow = zero = np.empty(0, np.intp)
    # the log10 of a zero, nan or inf (-inf, nan, inf) fails through the min or max
    if not (lg.min() > 1 - _FAST_EXP and lg.max() < _FAST_EXP - 1):
        out = np.flatnonzero(~((lg > 1 - _FAST_EXP) & (lg < _FAST_EXP - 1)))
        zero, slow = out[a[out] == 0.0], out[a[out] != 0.0]
        # 1.0 stands in: its product is exactly 1e16
        a[out], lg[out] = 1.0, 0.0
    k = np.floor(lg).astype(np.int64)
    del lg
    h, r = _scaled(a, k, t)
    # a product on a bound of [1e16, 1e17) or outside it
    edge = not (h.min() > 1e16 and h.max() < 1e17)
    if edge:
        # compare the pair (h, r) itself: h + r would round onto the bound
        shift = ((h > 1e17) | ((h == 1e17) & (r >= 0))).astype(np.int64) - (
            (h < 1e16) | ((h == 1e16) & (r < 0)))
        redo = np.flatnonzero(shift)
        if redo.size:
            k[redo] += shift[redo]
            h[redo], r[redo] = _scaled(a[redo], k[redo], t)
    # h >= 2**53 is an integer, so the rounding is all in r
    r_int = np.rint(r)
    r -= r_int
    np.abs(r, out=r)
    if r.max() > 0.5 - 1e-9:
        slow = np.concatenate([slow, np.flatnonzero(r > 0.5 - 1e-9)])
    q = h.astype(np.int64) + r_int.astype(np.int64)
    if edge:
        # |r| is at most half the gap of 16 between doubles below 1e17, so
        # only a product on the bound 1e17 carries to 18 digits
        carry = q == 10 ** 17
        q[carry] = 10 ** 16
        k += carry
    q[zero] = 0
    return q, k, slow


def _div10k(v):
    """v // 10_000 for int64 0 <= v < 10**8, exactly.

    109951163 / 2**40 is 1e-4 * (1 + 2.1e-9), so the product exceeds
    v / 1e4 by less than 2.1e-5, short of the 1e-4 that separates v / 1e4
    from the next integer; and v * 109951163 < 2**63.
    """
    return (v * 109951163) >> 40


def _format_numbers(x):
    """(n, 4) words: the 32-byte cell of CSV_FORMAT % v for each double of x.

    Values that `_decimal` leaves out are formatted with CSV_FORMAT itself.
    """
    t = _kernel_tables()
    x = np.asarray(x, dtype=float).ravel()
    q, k, slow = _decimal(x, t)
    # a leading digit over two 8-digit halves, each split into 4-digit chunks
    high = q // 10 ** 8
    low = q - high * 10 ** 8
    c0 = high // 10 ** 8
    high -= c0 * 10 ** 8
    c1 = _div10k(high)
    c2 = high - c1 * 10_000
    c3 = _div10k(low)
    c4 = low - c3 * 10_000
    # free the integers before the cells' arrays are made
    del q, high, low
    # significant digits from the last nonzero chunk, which is c4 but for
    # the numbers that end in 0000
    nd = t.chunk_kept.take(c4) + 13
    ends = np.flatnonzero(nd < 0)
    if ends.size:
        nd[ends] = np.maximum.reduce([np.ones(ends.size, nd.dtype)] + [
            t.chunk_kept.take(c[ends]) + 1 + 4 * i for i, c in enumerate((c1, c2, c3))
        ])
    row = k + _FAST_EXP
    code = t.exp_code.take(row) + nd
    w0 = (c0 + 48).astype(_WORD) << _WORD.type(56)
    w1 = t.chunk_text.take(c1) | t.chunk_text.take(c2) << _WORD.type(32)
    w2 = t.chunk_text.take(c3) | t.chunk_text.take(c4) << _WORD.type(32)
    s8, s56 = _WORD.type(8), _WORD.type(56)
    cells = np.empty((x.size, 4), _WORD)
    # each word's last operation writes it into the cells
    np.bitwise_or((w0 & t.keep_int[0].take(code)) | t.exp_text[0].take(row),
                  (x.view(_WORD) >> _WORD.type(63)) * _WORD.type(ord("-")), out=cells[:, 0])
    # the digits after the point are the same bytes moved up by one
    np.bitwise_or((w1 & t.keep_int[1].take(code)) | t.point[1].take(code),
                  (w1 << s8 | w0 >> s56) & t.keep_frac[1].take(code), out=cells[:, 1])
    np.bitwise_or((w2 & t.keep_int[2].take(code)) | t.point[2].take(code),
                  (w2 << s8 | w1 >> s56) & t.keep_frac[2].take(code), out=cells[:, 2])
    np.bitwise_or(w2 >> s56 & t.keep_frac[3].take(code), t.exp_text[3].take(row),
                  out=cells[:, 3])
    if slow.size:
        text = [(CSV_FORMAT % v).encode() for v in x[slow].tolist()]
        cells[slow] = np.array(text, dtype=f"S{_CELL}").view(_WORD).reshape(-1, 4)
    return cells


def write_csv(path, header, columns):
    """Write equal-length `columns` under `header`, one LF-ended line per row.

    A numeric column is written as doubles, each exactly as CSV_FORMAT
    prints it, so every value reads back bit-exact; any other column is
    text, written as str(v).  The file is UTF-8.  Rows are laid out a block
    of CSV_BLOCK_ROWS, or of CSV_BLOCK_CELLS cells but at least one row, at
    a time in NUL-padded cells, which are dropped before the block is written.
    """
    _write_csv_blocks(path, header, [columns])


def _table(header, columns):
    """`columns` as arrays, refused unless there is one per name of `header`
    and all have one length."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    if any(len(c) != len(columns[0]) for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    return columns


def _write_csv_blocks(path, header, blocks):
    """`write_csv` of a table given as consecutive blocks of rows, each a
    list of columns, so that no more than a block need exist at a time.
    A malformed first block is refused before the file is created."""
    blocks = iter(blocks)
    first = _table(header, next(blocks))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, first)
        for columns in blocks:
            _write_rows(fh, _table(header, columns))


def _write_rows(fh, columns):
    """Append the rows of `_table`-checked `columns` to the binary file `fh`."""
    n = len(columns[0])
    numeric = [j for j, c in enumerate(columns) if np.issubdtype(c.dtype, np.number)]
    text = {j: np.array([str(v).encode() for v in c.tolist()], dtype=bytes)
            for j, c in enumerate(columns) if j not in numeric}
    # a cell holds the longest text and its separator, in whole 8-byte words
    width = max([_CELL] + [-(-(t.itemsize + 1) // 8) * 8 for t in text.values()])
    separators = np.full(len(columns), ord(","), np.uint8)
    separators[-1] = ord("\n")
    step = max(1, min(CSV_BLOCK_ROWS, CSV_BLOCK_CELLS // len(columns)))
    for start in range(0, n, step):
        rows = min(step, n - start)
        block = np.zeros((rows, len(columns), width), np.uint8)
        cells = block.view(_WORD)[:, :, :_CELL // 8]
        varying = []
        for j in numeric:
            c = np.asarray(columns[j][start:start + rows], dtype=float)
            bits = c.view(_WORD)
            # a column of one bit pattern in this block, such as a term
            # switched off, is formatted once
            if bits[0] == bits[-1] and (bits == bits[0]).all():
                cells[:, j] = np.frombuffer((CSV_FORMAT % c[0]).encode().ljust(_CELL, b"\0"),
                                            _WORD)
            else:
                varying.append(j)
        if varying:
            x = np.stack([columns[j][start:start + rows] for j in varying], axis=1)
            _put_columns(cells, varying, _format_numbers(x).reshape(rows, len(varying), -1))
        for j, t in text.items():
            block[:, j, :t.itemsize] = t[start:start + rows].view(np.uint8).reshape(rows, -1)
        block[:, :, -1] = separators
        fh.write(block.tobytes().translate(None, b"\0"))


def _put_columns(cells, at, words):
    """cells[:, at] = words, each run of consecutive columns of `at` as one
    slice: assigning through an index list copies a cell at a time."""
    for _, run in itertools.groupby(enumerate(at), lambda p: p[1] - p[0]):
        run = list(run)
        (i, j), m = run[0], len(run)
        cells[:, j:j + m] = words[:, i:i + m]


# Bytes of whole lines that `_read_csv` converts at a time.  A chunk's
# working arrays come to about eight times its size.
CSV_READ_CHUNK = 1 << 17

# Marks: the bytes of a number in the reader's grammar that are not digits.
_SEP, _SIGN, _EXP_SIGN, _DOT, _EXP, _OTHER = range(6)
_MARK = np.full(256, _OTHER, np.int8)
_MARK[[ord(","), ord("\n")]] = _SEP
_MARK[[ord("+"), ord("-")]] = _SIGN
_MARK[ord(".")] = _DOT
_MARK[[ord("e"), ord("E")]] = _EXP
# _FOLLOWS[6 * previous mark + mark]: the grammar [+-]?D[.D]([eE][+-]?D)?
# for D a run of digits, between separators
_FOLLOWS = np.zeros((6, 6), bool)
_FOLLOWS[[_SEP, _SIGN, _EXP_SIGN, _DOT, _EXP], _SEP] = True
_FOLLOWS[_SEP, _SIGN] = True
_FOLLOWS[_EXP, _EXP_SIGN] = True
_FOLLOWS[[_SEP, _SIGN], _DOT] = True
_FOLLOWS[[_SEP, _SIGN, _DOT], _EXP] = True
_FOLLOWS = _FOLLOWS.ravel()
# every number becomes its mantissa's digits, then its exponent's, as integers
_TO_INTEGERS = bytes.maketrans(b"eE\n", b",,,")
# significant digits that an int64 always holds
_MAX_DIGITS = 18


def _parse_lines(lines, t):
    """(rows, columns) doubles of `lines`, LF-ended lines of numbers in the
    grammar of `_FOLLOWS` separated by commas, each the double float() gives;
    None if `lines` is outside the grammar or the rows differ in length.

    A number is an integer mantissa m and a decimal exponent e, and
    x = m * 10**e is the double-double product of `_scaled`.  Numbers with
    more than 18 significant digits, out of the kernel's range, or whose
    product lies too near a rounding boundary to round with certainty are
    converted by float() itself.
    """
    fields = _fields(lines)
    if fields is None:
        return None
    start, end, neg, has_exp, frac, digits, columns = fields
    ints = _integers(lines, has_exp)
    if ints is None:
        return None
    m, e10 = ints
    e10 -= frac
    # 1e-264 <= x < 1e296: the writer's table holds 10**e, and no partial
    # product of `_scaled` overflows or loses bits below the normal range
    fast = ((digits <= _MAX_DIGITS) & (e10 >= 16 - _FAST_EXP)
            & (e10 + digits <= 16 + _FAST_EXP))
    e10 = np.where(fast, e10, 0)
    m = np.where(fast, np.abs(m), 0)
    a = m.astype(float)
    h, r = _scaled(a, 16 - e10, t)
    # above 2**53 the mantissa is a + (m - a), the remainder below 2**7
    r += (m - a.astype(np.int64)) * np.take(t.pow_hi, e10 + _FAST_EXP - 16)
    x = h + r
    r -= x - h
    # x is the double nearest x + r, which is within 2**-40 of a gap of
    # m * 10**e.  The rounding boundaries lie half a gap either side of x,
    # but a quarter of the gap above it below a power of two: a product
    # near either fraction of np.spacing(x) goes to float()
    gaps = np.abs(r) / np.spacing(x)
    near = (np.abs(gaps - 0.5) < 2.0 ** -30) | (np.abs(gaps - 0.25) < 2.0 ** -30)
    np.negative(x, out=x, where=neg)
    slow = np.flatnonzero(~fast | near)
    if slow.size:
        x[slow] = [float(lines[i:j]) for i, j in zip(start[slow].tolist(), end[slow].tolist())]
    return x.reshape(-1, columns)


def _fields(lines):
    """Where the numbers of `lines` are, from their marks: per number its
    first byte, its separator, its sign, whether it has an exponent, its
    digits after the point and its significant digits (19 stands for more
    than 18, and for a long exponent), then the column count.  None outside
    the grammar or if the rows differ in length.
    """
    u = np.frombuffer(lines, np.uint8)
    # the marks all sort below "0" or above "9"; a separator at -1 leads
    pos = np.concatenate(([-1], np.flatnonzero(u - np.uint8(48) > 9)))
    mark = _MARK.take(u.take(pos))
    mark[0] = _SEP
    sign = mark[1:] == _SIGN
    # a sign right after an exponent mark becomes _EXP_SIGN, _SIGN + 1
    mark[1:] += sign & (mark[:-1] == _EXP)
    # a sign leads its digits; every other mark follows at least one digit
    if not (_FOLLOWS.take(6 * mark[:-1] + mark[1:]).all()
            and np.array_equal(np.diff(pos) == 1, sign)):
        return None
    at = np.flatnonzero(mark == _SEP)
    start, end = pos.take(at[:-1]) + 1, pos.take(at[1:])
    lf = np.flatnonzero(u.take(end) == ord("\n"))
    columns = int(lf[0]) + 1
    if not np.array_equal(lf, np.arange(columns - 1, end.size, columns)):
        return None
    # the last marks of a number: its exponent, then its point
    last = at[1:] - 1
    e_at = last - (mark.take(last) == _EXP_SIGN)
    has_exp = mark.take(e_at) == _EXP
    m_end = np.where(has_exp, pos.take(e_at), end)
    d_at = e_at - has_exp
    frac = np.where(mark.take(d_at) == _DOT, m_end - pos.take(d_at) - 1, 0)
    lead = u.take(start)
    neg = lead == ord("-")
    m_start = start + (neg | (lead == ord("+")))
    digits = m_end - m_start - (frac > 0)
    # leading zeros, and the point among them, are not significant: count
    # the run of "0" and "." bytes in the first eight of a long mantissa
    long = np.flatnonzero(digits > _MAX_DIGITS)
    if long.size:
        words = np.ndarray((u.size - 7,), _WORD, lines, 0, (1,))[m_start[long]]
        zero = (words - _WORD.type(0x2E2E2E2E2E2E2E2E)) & _WORD.type(0xFDFDFDFDFDFDFDFD)
        # the lowest set bit of `zero` is bit 8 * run + k, k < 8; 0 stays slow
        run = np.where(zero == 0, 0,
                       (np.frexp((zero & (~zero + _WORD.type(1))).astype(float))[1] - 1) // 8)
        point = m_end[long] - frac[long] - 1
        digits[long] -= run - ((frac[long] > 0) & (point < m_start[long] + run))
    # an exponent of more than five characters goes to float(), so that
    # every token the kernel takes is exact and in range
    digits[end - m_end > 6] = _MAX_DIGITS + 1
    return start, end, neg, has_exp, frac, digits, columns


def _integers(lines, has_exp):
    """(mantissas, exponents) of the numbers of `lines` as int64, an
    exponent 0 where there is none; None if numpy refuses a token or
    reads a count of them that the marks do not give."""
    with warnings.catch_warnings():
        # numpy before 2.3 warns, where later versions raise, on a bad token
        warnings.simplefilter("error", DeprecationWarning)
        try:
            ints = np.fromstring(lines.translate(_TO_INTEGERS, b"."), np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    m_at = np.arange(has_exp.size) + np.cumsum(has_exp) - has_exp
    if ints.size != m_at[-1] + 1 + has_exp[-1]:
        return None
    return ints.take(m_at), np.where(has_exp, ints.take(m_at + has_exp), 0)


def _whole_lines(fh):
    """The rest of the binary file `fh` in chunks of whole LF-ended lines:
    CSV_READ_CHUNK bytes and the rest of the line they end in; a last line
    without its LF gets one."""
    for lines in iter(lambda: fh.read(CSV_READ_CHUNK), b""):
        lines += fh.readline()
        yield lines if lines.endswith(b"\n") else lines + b"\n"


def _read_numbers(path, usecols):
    """`_read_csv`'s (header names, float rows) by `_parse_lines`, into the
    one array returned; None for a file outside its grammar: UTF-8 header
    names, then one or more rows of numbers, all of at least two columns
    and of one length, every line ended by LF but maybe the last.  The
    rows are counted first, so the array is allocated once.
    """
    t = _kernel_tables()
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n") or b"\r" in header:
            return None
        try:
            names = header[:-1].decode("utf-8").split(",")
        except UnicodeDecodeError:
            return None
        body = fh.tell()
        rows, tail = 0, b"\n"
        for block in iter(lambda: fh.read(CSV_READ_CHUNK), b""):
            rows += np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
            tail = block[-1:]
        rows += tail != b"\n"
        fh.seek(body)
        data, row = None, 0
        for lines in _whole_lines(fh):
            values = _parse_lines(lines, t)
            if values is None or row + len(values) > rows:
                return None
            if data is None:
                columns = values.shape[1]
                if columns < 2 or usecols and max(usecols) >= columns:
                    return None
                # column by column, so that a column is one contiguous array
                data = np.empty((len(usecols) if usecols else columns, rows)).T
            if values.shape[1] != columns:
                return None
            data[row:row + len(values)] = values[:, usecols] if usecols else values
            row += len(values)
    if data is None or row != rows:
        return None
    return names, data


def _read_csv(path, usecols=None):
    """(header names, float rows) of a CSV file with a frequency first column.

    Every malformed input raises ConfigError naming the file: bytes that
    are not UTF-8, a cell that is not a number, a row with fewer than two
    columns, no data rows, a NaN or infinite value, or a frequency that
    appears twice.

    A file in `_read_numbers`' grammar, such as any budget.csv, is read by
    `_parse_lines`; any other goes to `np.loadtxt`, which accepts and
    refuses what it always has.  Both give the doubles float() gives.
    """
    parsed = _read_numbers(path, usecols)
    if parsed is None:
        parsed = _read_csv_loadtxt(path, usecols)
    header, data = parsed
    if data.shape[0] == 0:
        raise ConfigError(f"{path}: no data rows")
    if data.shape[1] < 2:
        raise ConfigError(f"{path}: rows need at least two columns")
    # NaN and inf show in the extremes, and increasing frequencies repeat
    # none, so a valid file in frequency order costs no sort and no mask
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        finite = np.all(np.isfinite(data), axis=1)
        raise ConfigError(
            f"{path}: non-finite value in data row {np.argmin(finite) + 1}"
        )
    if not _increasing(data[:, 0]):
        f = np.sort(data[:, 0])
        repeated = f[1:][f[1:] == f[:-1]]
        if repeated.size:
            raise ConfigError(f"{path}: duplicate frequency {repeated[0]!r} Hz")
    return header, data


def _increasing(f):
    return bool(np.all(f[1:] > f[:-1]))


def _read_csv_loadtxt(path, usecols):
    """`_read_csv`'s (header names, float rows) by `np.loadtxt`."""
    # UnicodeDecodeError is a ValueError, raised by readline for a bad byte
    # in the first buffered chunk and by loadtxt for one further on
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            with warnings.catch_warnings():
                # an empty body is rejected by the caller, with the file name
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                  usecols=usecols)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return header, data


def read_budget_csv(path):
    """A `budget.csv` as `run_budget` writes it -> (grid, {name: asd array})."""
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
    if _increasing(data[:, 0]):
        return data[:, 0], data[:, 1]
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
