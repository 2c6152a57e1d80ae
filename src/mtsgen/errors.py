"""Shared exception types, and the integer rule that configs and models check."""

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
