"""Exception hierarchy shared across the package, and its integer check."""

import numpy as np


class TgcnError(Exception):
    """Base class for all package errors."""


class InvalidGraph(TgcnError):
    """Adjacency matrix violates a structural precondition."""


class ParseError(TgcnError):
    """A CSV input could not be parsed; message carries row/column location."""


class ShapeError(TgcnError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(TgcnError):
    """An API contract was violated (e.g. backward on a non-scalar)."""


class CheckpointError(TgcnError):
    """Checkpoint file is corrupt, truncated, or incompatible."""


class TrainingDiverged(TgcnError):
    """A non-finite gradient or loss appeared during optimization."""


class DataError(TgcnError):
    """Dataset-level problem (constant series, fully-missing node, ...)."""


class ConfigError(TgcnError):
    """Invalid configuration value."""


def check_integer(label, value, least=1):
    """Raise a ConfigError naming label unless value is a python or numpy
    integer, not a bool, and at least least."""
    if not np.issubdtype(type(value), np.integer) or value < least:
        raise ConfigError(f"{label} must be an integer >= {least}, got {value!r}")
