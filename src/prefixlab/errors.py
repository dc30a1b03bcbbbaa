"""Exception hierarchy shared across the package, and its integer test."""

from numbers import Integral


def integral(value) -> bool:
    """An int or NumPy integer, not a bool; a boundary coerces no other value."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class PrefixLabError(Exception):
    """Base class for all package errors."""


class InvalidTokenError(PrefixLabError):
    """A token id falls outside the codebook vocabulary."""


class InvalidScheduleError(PrefixLabError):
    """A scale schedule is malformed or incompatible with an operation."""


class InvalidInputError(PrefixLabError):
    """Shapes, corpora, or numeric inputs violate a precondition."""


class InvalidFractionError(PrefixLabError):
    """A corruption fraction lies outside [0, 1]."""


class MissingRowError(PrefixLabError):
    """A tabular model was queried with an unknown (condition, prefix) key."""


class TooLargeError(PrefixLabError):
    """The enumerable state space exceeds the configured cap."""

    def __init__(self, count, cap):
        super().__init__(f"prefix state space has {count} states, cap is {cap}")
        self.count = count
        self.cap = cap


class InconsistentPlanError(PrefixLabError):
    """A corruption plan does not match the embedding it is applied to."""


class MissingBranchError(PrefixLabError):
    """A guidance composition needs a branch that was not supplied."""


class GuidanceConfigError(PrefixLabError):
    """A guidance configuration cannot be satisfied by the given predictor."""


class DegenerateDistributionError(PrefixLabError):
    """All candidate tokens were masked out before sampling."""


class IllDefinedLawError(PrefixLabError):
    """An exact rollout law was requested under stochastic corruption."""


class SupportViolationError(PrefixLabError):
    """KL divergence is infinite because of a support mismatch."""


class ConfigError(PrefixLabError):
    """A run configuration file is malformed."""
