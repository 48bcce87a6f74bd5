"""Active inertial isolation of the cryostat platform.

The platform is a payload on soft rubber feet (second-order ground-to-
payload transmissibility).  Geophones sense payload velocity, a servo
filters the signal and coil-magnet actuators push against the rigid
support frame, closing a per-axis feedback loop.

Loop sign convention: the servo output drives a force opposing payload
velocity, so a positive servo gain damps.  The ground-to-payload
suppression is passive/(1 + G) with loop gain
G = (force response) * s * geophone * servo * actuator.  `loop_gain`
builds G of one axis as one ZPK with no grid, which gives the stability
verdict; `closed_loop` evaluates a given G on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericalError
from .spectra import FrequencyGrid
from .suspension import HORIZONTAL, VERTICAL


@dataclass(frozen=True)
class ZPK:
    """Rational transfer function as zeros/poles [rad/s] and gain.

    Complex zeros and poles must come in conjugate pairs so the system
    has real coefficients.
    """

    zeros: tuple
    poles: tuple
    gain: float

    def __post_init__(self):
        zeros = tuple(complex(z) for z in self.zeros)
        poles = tuple(complex(p) for p in self.poles)
        for label, roots in (("zeros", zeros), ("poles", poles)):
            unmatched = [r for r in roots if r.imag != 0.0]
            while unmatched:
                r = unmatched.pop()
                conj = r.conjugate()
                if conj in unmatched:
                    unmatched.remove(conj)
                else:
                    raise ConfigError(
                        f"complex {label} must come in conjugate pairs ({r} unmatched)"
                    )
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "poles", poles)

    def evaluate(self, grid):
        """H(i*omega) on the grid; rejects poles sitting on grid points."""
        s = 1j * grid.angular
        h = np.full(s.shape, self.gain, dtype=complex)
        for z in self.zeros:
            # the temporary on the left: where numpy reuses it in place
            # (above 16,384 points) the product keeps its operand order, so
            # H at one frequency has the same bits on any grid
            h = (s - z) * h
        for p in self.poles:
            d = s - p
            # the real part of s is exactly +0.0: only a pole on the
            # imaginary axis can meet a grid point
            if p.real == 0.0 and not d.all():
                raise NumericalError(
                    "transfer-function pole on the imaginary axis at an evaluated frequency",
                    frequency_hz=grid.values[np.argmin(d != 0.0)])
            h = h / d
        return h

    def polynomials(self):
        """(numerator, denominator) coefficient arrays, highest power first."""
        num = self.gain * np.atleast_1d(np.poly(self.zeros) if self.zeros else 1.0)
        den = np.atleast_1d(np.poly(self.poles) if self.poles else 1.0)
        return np.real(num), np.real(den)

    def feedback_poles(self):
        """Poles of the loop closed around this loop gain: roots of den + num."""
        num, den = self.polynomials()
        return np.roots(np.polyadd(den, num))

    def feedback_stable(self):
        """No closed-loop pole right of the imaginary axis beyond 1e-9 of the
        largest |p|; an exact root at 0 (a servo integrator) counts as stable."""
        poles = self.feedback_poles()
        return bool(np.all(np.real(poles) < 1e-9 * np.max(np.abs(poles))))

    @classmethod
    def from_config(cls, cfg):
        """Build from {'zeros': [{'real':..,'imag':..}], 'poles': [...], 'gain': g}."""
        def roots(items):
            return tuple(complex(d.get("real", 0.0), d.get("imag", 0.0)) for d in items)
        return cls(roots(cfg.get("zeros", [])), roots(cfg.get("poles", [])), float(cfg["gain"]))

    def __mul__(self, other):
        """Series connection: roots concatenate, gains multiply."""
        return ZPK(self.zeros + other.zeros, self.poles + other.poles, self.gain * other.gain)


def _resonance_poles(w0, q):
    """Roots of s^2 + (w0/q) s + w0^2.

    Under-damped roots are built as one root and its exact conjugate.
    Over-damped roots take the large root without cancellation and the
    small one from the product of the roots, w0^2.  The large root is zero
    only when w0/q and w0^2 both underflow; both roots are zero then.
    """
    a = -w0 / (2.0 * q)
    disc = a * a - w0 * w0
    if disc < 0.0:
        p = complex(a, math.sqrt(-disc))
        return (p, p.conjugate())
    p1 = a - math.sqrt(disc)
    return (p1, w0 * w0 / p1 if p1 else p1)


@dataclass(frozen=True)
class PlatformParams:
    payload_mass: float            # [kg]
    horizontal_resonance: float    # [Hz]
    vertical_resonance: float      # [Hz]
    quality_factor: float          # resonance Q of the rubber feet

    def __post_init__(self):
        if min(self.payload_mass, self.horizontal_resonance,
               self.vertical_resonance, self.quality_factor) <= 0.0:
            raise ConfigError("all platform parameters must be positive")

    def resonance(self, axis):
        if axis == HORIZONTAL:
            return self.horizontal_resonance
        if axis == VERTICAL:
            return self.vertical_resonance
        raise ConfigError(f"unknown axis {axis!r}")

    def passive(self, axis):
        """Ground-to-payload transmissibility (w0^2 + w0/q s) / (s^2 + w0/q s + w0^2)."""
        w0 = 2.0 * math.pi * self.resonance(axis)
        q = self.quality_factor
        return ZPK(zeros=(-w0 * q,), poles=self.force(axis).poles, gain=w0 / q)

    def force(self, axis):
        """Force-to-payload displacement response [m/N]."""
        w0 = 2.0 * math.pi * self.resonance(axis)
        return ZPK(zeros=(), poles=_resonance_poles(w0, self.quality_factor),
                   gain=1.0 / self.payload_mass)


@dataclass(frozen=True)
class ActuatorParams:
    coil_resistance: float   # [ohm]
    coil_inductance: float   # [H]
    force_constant: float    # [N/A]

    def __post_init__(self):
        if min(self.coil_resistance, self.coil_inductance, self.force_constant) <= 0.0:
            raise ConfigError("all actuator parameters must be positive")

    def zpk(self):
        """Voltage-driven coil-magnet actuator, newtons per volt."""
        return ZPK(zeros=(), poles=(-self.coil_resistance / self.coil_inductance,),
                   gain=self.force_constant / self.coil_inductance)


@dataclass(frozen=True)
class GeophoneParams:
    natural_frequency: float     # [Hz]
    generator_constant: float    # [V/(m/s)]
    quality_factor: float = 0.3  # strongly shunt-damped instrument

    def __post_init__(self):
        if min(self.natural_frequency, self.generator_constant, self.quality_factor) <= 0.0:
            raise ConfigError("all geophone parameters must be positive")

    def zpk(self):
        """Volts per unit case velocity.

        Second-order high-pass around the proof-mass resonance; in the
        inertial regime above it the output is generator_constant * velocity.
        """
        w0 = 2.0 * math.pi * self.natural_frequency
        return ZPK(zeros=(0.0, 0.0), poles=_resonance_poles(w0, self.quality_factor),
                   gain=self.generator_constant)


@dataclass(frozen=True, eq=False)
class LoopResult:
    grid: FrequencyGrid
    loop_gain: np.ndarray
    suppression: np.ndarray        # ground -> payload with the loop closed
    passive: np.ndarray            # ground -> payload with the loop open

    @cached_property
    def _margins(self):
        # only the isolation report reads these, so a budget never finds them
        return _crossings(self.grid, self.loop_gain)

    @property
    def unity_gain_hz(self):
        return self._margins[0]

    @property
    def phase_margins_deg(self):
        return self._margins[1]


def _wrap_deg(angle):
    return (angle + 180.0) % 360.0 - 180.0


def _crossings(grid, loop_gain):
    """Unity-gain frequencies and phase margins, log-interpolated."""
    mag = np.abs(loop_gain)
    if not np.any(mag > 1.0):
        return (), ()
    phase = np.degrees(np.unwrap(np.angle(loop_gain)))
    with np.errstate(divide="ignore"):
        logmag = np.log10(mag)
    f = grid.values
    crossings = []
    margins = []
    sign = np.sign(logmag)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        t = -logmag[i] / (logmag[i + 1] - logmag[i])
        fc = f[i] * (f[i + 1] / f[i]) ** t
        pc = phase[i] + t * (phase[i + 1] - phase[i])
        crossings.append(float(fc))
        margins.append(float(180.0 - abs(_wrap_deg(pc))))
    return tuple(crossings), tuple(margins)


def loop_gain(platform, geophone, actuator, servo, axis=HORIZONTAL):
    """The loop gain G of one axis as one ZPK; no grid enters."""
    velocity = ZPK(zeros=(0.0,), poles=(), gain=1.0)
    return platform.force(axis) * velocity * geophone.zpk() * servo * actuator.zpk()


def closed_loop(gain, passive, grid):
    """Close the loop gain `gain` (a ZPK from `loop_gain`) on `grid` around
    `passive`, the open-loop ZPK of the same axis (`PlatformParams.passive`).

    The loop gain's frequency response gives the suppression and, on
    first read, the unity-gain frequencies and phase margins.
    """
    loop = gain.evaluate(grid)
    one_plus = 1.0 + loop
    small = np.abs(one_plus) < 1e-9
    if small.any():
        raise NumericalError("closed loop is ill-conditioned (|1+G| < 1e-9)",
                             frequency_hz=grid.values[np.argmax(small)])
    passive = passive.evaluate(grid)
    return LoopResult(grid=grid, loop_gain=loop, suppression=passive / one_plus, passive=passive)
