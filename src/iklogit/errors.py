"""Exception types, and the value checks of the specs, shared across the package."""

import math
import numbers


class InputError(ValueError):
    """Caller-supplied data or parameters violate a documented precondition."""


class ParseError(InputError):
    """A data file could not be parsed; message carries file, line and column."""


class ConfigError(InputError):
    """A configuration file or override is malformed or inconsistent."""


class ResourceError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a usable result.

    ``trace`` is the partial solve trace of a fit that stopped, else None.
    """

    def __init__(self, message: str, trace=None) -> None:
        super().__init__(message)
        self.trace = trace


def check_number(name: str, value, positive: bool = True, error=InputError) -> None:
    """Raise ``error`` unless ``value`` is a finite real number, not a
    bool, that is > 0 (``positive``) or >= 0."""
    if not (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0)
    ):
        bound = "> 0" if positive else ">= 0"
        raise error(f"{name} must be a finite number {bound}, got {value!r}")


def check_integer(name: str, value, minimum: int = 1, error=InputError) -> None:
    """Raise ``error`` unless ``value`` is an int, not a bool, >= ``minimum``."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= minimum):
        what = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise error(f"{name} must be {what}, got {value!r}")


def check_type(name: str, value, kinds: tuple, what: str, error=InputError) -> None:
    """Raise ``error`` unless ``value`` is an instance of ``kinds``, a bool
    only where ``kinds`` holds bool; ``what`` names them in the message."""
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise error(f"{name} must be {what}, got {value!r}")
