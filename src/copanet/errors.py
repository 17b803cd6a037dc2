"""Exception types shared across the package.

Exit-code mapping used by the CLI: ConfigurationError and UsageError are
usage failures (1), DataError and any OSError from a file the CLI reads or
writes are data failures (2), NumericError is a numeric failure (3).
"""


class CoPaNetError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CoPaNetError):
    """Invalid configuration: bad shapes, bad hyperparameters, bad keys."""


class UsageError(CoPaNetError):
    """API misuse: wrong call order, wrong argument kinds."""


class DataError(CoPaNetError):
    """Corrupt or out-of-contract input data."""


class NumericError(CoPaNetError):
    """Non-finite values or numeric divergence during computation."""
