"""Exception types shared across the package, and the exit of a run they stop."""

import sys


class CarfieldError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(CarfieldError):
    """Operand dimensions are incompatible."""


class SizeCapError(CarfieldError):
    """A construction would exceed the configured dimension cap."""


class ResourceLimitError(CarfieldError):
    """A state-level evaluation would exceed the configured memory budget."""


class ConfigError(CarfieldError):
    """Invalid run or lattice configuration."""


class PreconditionError(CarfieldError):
    """A mathematical precondition (e.g. special-unitarity) failed."""


class UnsupportedMassError(CarfieldError):
    """Massless kinematics requested; only m > 0 is supported."""


class DegenerateVacuumError(CarfieldError):
    """Vacuum profile is identically zero."""


class UndefinedResidualError(CarfieldError):
    """Residual of a zero vector is undefined."""


def exit_unfinished(exc: CarfieldError) -> int:
    """Print a run that cannot finish as one stderr line; exit 2, as 1 means a check failed."""
    kind = "configuration error" if isinstance(exc, ConfigError) else type(exc).__name__
    print(f"{kind}: {exc}", file=sys.stderr)
    return 2
