"""Shared exception types, and the integer and real-number rules that inputs are checked by."""

import numbers

import numpy as np


class MtsgenError(Exception):
    """Base class for all package errors."""


class InputError(MtsgenError):
    """Bad user input: malformed files, invalid values, shape mismatches."""


class NumericalError(MtsgenError):
    """Numerical failure: degenerate data, optimizer blow-up."""


class ConfigError(InputError):
    """Invalid configuration."""


def is_integer(v) -> bool:
    """Whether `v` is an int or NumPy integer and not a bool.

    JSON `true` loads as a Python int, but it is no count.
    """
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether `v` is a real number (Python or NumPy, integers included) and not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)
