"""Exception hierarchy shared across the package, its integer and number
tests, and the field bounds that every schema dataclass checks when built."""

import math
from dataclasses import field, fields
from numbers import Integral, Real
from typing import Callable, NamedTuple


def integral(value) -> bool:
    """An int or NumPy integer, not a bool; a boundary coerces no other value.
    A plain int, the common case on hot paths, skips the ABC check."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def real(value) -> bool:
    """An int, float or NumPy number, not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


class Bound(NamedTuple):
    """The values a schema field may take: ``holds`` tests one, ``text`` names them."""

    text: str
    holds: Callable[[object], bool]


INTEGER = Bound("an integer", integral)
NONNEGATIVE_INT = Bound("an integer at least 0", lambda v: integral(v) and v >= 0)
POSITIVE_INT = Bound("an integer at least 1", lambda v: integral(v) and v >= 1)
NONNEGATIVE = Bound("a finite number at least 0", lambda v: real(v) and 0 <= v < math.inf)
POSITIVE = Bound("a finite number above 0", lambda v: real(v) and 0 < v < math.inf)
UNIT_INTERVAL = Bound("a number inside [0, 1]", lambda v: real(v) and 0 <= v <= 1)


def one_of(*choices: str) -> Bound:
    return Bound(" or ".join(map(repr, choices)), lambda v: v in choices)


def bounded(default, bound: Bound, json: str | None = None):
    """A schema field of ``default`` held to ``bound``, under config key ``json`` if given."""
    return field(default=default, metadata={"bound": bound, "json": json})


def _members(value) -> list:
    """``value``'s scalars: itself, or the members of a tuple or set, recursively."""
    if not isinstance(value, (tuple, list, set, frozenset)):
        return [value]
    return [m for v in value for m in _members(v)]


def check_fields(obj, error: type) -> None:
    """Raise ``error``, with ``field`` set, naming the first field of the dataclass ``obj``
    whose value or tuple or set member breaks its bound (None passes where annotated)."""
    for f in fields(obj):
        bound = f.metadata.get("bound")
        for value in _members(getattr(obj, f.name)) if bound else ():
            if not (bound.holds(value) or value is None and "None" in str(f.type)):
                exc = error(f"{f.name} value {value!r} is not {bound.text}")
                exc.field = f.name
                raise exc


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
    """A corruption plan does not match the prefix, embedding or key, it is read on."""


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

