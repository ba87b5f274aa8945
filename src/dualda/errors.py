"""Error types shared across the library, and its one check of integer
sizes and seeds.

All inherit from ValueError so callers that don't care about the
distinction can catch one base class.
"""

import numpy as np


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class DimensionError(ValueError):
    """Tensor shapes do not conform to the operation."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class FormatError(ValueError):
    """A binary or text file does not match its declared format."""


class ConsistencyError(ValueError):
    """Two inputs that must agree (e.g. image/label counts) do not."""


class ConfigError(ValueError):
    """An experiment config file is invalid."""


def checked_int(name: str, value, least: int) -> int:
    """value as an int; refuses a non-integer (bools too) or one below least."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ContractError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
