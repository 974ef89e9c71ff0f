"""Exception taxonomy shared across the package.

Three families, matching the CLI exit-code contract:
config errors (bad parameters, exit 2), numerical errors (divergence,
corrupt caches, exit 3), precondition errors (invalid inputs to an
otherwise well-configured operation, exit 4).
"""


class ConfigError(ValueError):
    """Invalid configuration value (range, type, missing field)."""


class PreconditionError(ValueError):
    """Operation precondition violated by the input."""


class BandwidthError(PreconditionError):
    """Bandwidth exceeds what the target representation can hold."""


class GridSizeError(PreconditionError):
    """Sample grid too small for the requested bandwidth."""


class AdmissibilityError(PreconditionError):
    """Index tuple fails the angular selection rule."""


class SingularRadiusError(PreconditionError):
    """Evaluation requested at (or too near) a singular radius."""


class NumericalError(RuntimeError):
    """Numerical failure: divergence, bad data."""


class DivergenceError(NumericalError):
    """Iteration or integral diverged."""


class CacheError(NumericalError):
    """Tensor cache file corrupt, truncated, or checksum mismatch."""
