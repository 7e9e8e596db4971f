"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, everything else
derived from WorkbenchError -> 2.
"""


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(WorkbenchError):
    """Tensor shapes incompatible with an operation; message names the dims."""


class ValidationError(WorkbenchError):
    """Arguments or data outside an operation's contract."""


class FormatError(WorkbenchError):
    """Malformed bytes or text in an external file (IDX, fixtures)."""


class NumericsError(WorkbenchError):
    """Non-finite values encountered; message names the tensor or layer."""


class ConfigError(WorkbenchError):
    """Bad experiment configuration; message carries the offending key path."""


class ProviderError(WorkbenchError):
    """A chat provider failed to produce a usable response."""


class UnavailableMetricError(WorkbenchError):
    """A score component was requested but has no computable value."""
