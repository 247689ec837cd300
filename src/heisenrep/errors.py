"""Exception hierarchy shared by all heisenrep modules, and the type and
order checks that raise its ConfigurationError."""

import numbers
import sys


class HeisenrepError(Exception):
    """Base class for all library errors."""


class ConfigurationError(HeisenrepError, ValueError):
    """Invalid grid, suite, or algorithm configuration."""


class GridMismatchError(HeisenrepError, ValueError):
    """Two sampled functions live on different grids."""


class CapabilityError(HeisenrepError, ValueError):
    """Requested operation exceeds a descriptor's smoothness or order budget."""


class NotExactlyIntegrable(HeisenrepError, TypeError):
    """Descriptor has no closed-form moment; caller should fall back to quadrature."""


class ClassMembershipError(HeisenrepError, ValueError):
    """A function failed a class certification (support or moment defect)."""


class SemigroupDomainError(HeisenrepError, ValueError):
    """Group element lies outside the semigroup required by the operation."""


class PrecisionError(HeisenrepError, ValueError):
    """Grid-mode operation requested with a non-commensurate parameter."""


def require_type(name: str, value, kind, label: str) -> None:
    """Raise ConfigurationError unless value is an instance of kind; a real
    number must also convert to a float."""
    # bool is an int subclass, so it passes isinstance and is refused here
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigurationError(f"{name} must be {label}, got {value!r}")
    if kind is numbers.Real and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigurationError(f"{name} is too large for a float")


def require_order(name: str, k) -> None:
    """Raise ConfigurationError unless k is a nonnegative integer."""
    if type(k) is not int:  # the ABC check is slow; a bool is refused there
        require_type(name, k, numbers.Integral, "an integer")
    if k < 0:
        raise ConfigurationError(f"{name} must be nonnegative, got {k}")
