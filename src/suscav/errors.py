"""Exception types shared across the package.

ConfigError covers everything a user can fix by editing parameters or a
config file; NumericalError covers failures that surface during evaluation
(singular matrices, ill-conditioned loops).  The CLI maps the former to
exit code 1 and the latter to exit code 2.
"""


class ConfigError(ValueError):
    """Invalid parameter, grid or configuration input."""


class GridError(ConfigError):
    """Frequency grids do not match or are malformed."""


class NumericalError(RuntimeError):
    """Numerical failure during evaluation (singularity, conditioning)."""

    def __init__(self, message, frequency_hz=None):
        if frequency_hz is not None:
            message = f"{message} (at {frequency_hz:.6g} Hz)"
        super().__init__(message)
        self.frequency_hz = frequency_hz
