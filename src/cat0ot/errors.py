"""Error taxonomy shared by every module, and the readers of config numbers."""

from __future__ import annotations

import math
import numbers


class Cat0otError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPoint(Cat0otError):
    """A coordinate left its chart's admissible region."""


class ParamOutOfRange(Cat0otError):
    pass


class DegenerateTriangle(Cat0otError):
    pass


class NotATriangle(Cat0otError):
    pass


class OriginMismatch(Cat0otError):
    """Two geodesics were expected to share a start point and do not."""


class UnsupportedConvexSet(Cat0otError):
    pass


class NotExtendable(Cat0otError):
    """The geodesic endpoint admits no continuation (for example a tree leaf)."""


class PointNotOnGeodesic(Cat0otError):
    pass


class UnsupportedRegion(Cat0otError):
    pass


class BadEpsilon(Cat0otError):
    pass


class ProbeAtCenter(Cat0otError):
    pass


class WeightMismatch(Cat0otError):
    pass


class SupportTooLarge(Cat0otError):
    pass


class TooManyTuples(Cat0otError):
    pass


class EmptySet(Cat0otError):
    pass


class EmptyBall(Cat0otError):
    pass


class BoundaryPoint(Cat0otError):
    pass


class MapUndefined(Cat0otError):
    pass


class NotDeterministicError(Cat0otError):
    """A solve needed to be deterministic (plan concentrated on a map) and was not.

    Carries the direction of the failing solve ("forward" or "backward") and the
    off-map mass that caused it.
    """

    def __init__(self, direction: str, split_mass: float):
        super().__init__(f"{direction} solve is not deterministic (split mass {split_mass:g})")
        self.direction = direction
        self.split_mass = split_mass


class UnsupportedShape(Cat0otError):
    pass


class CapExceeded(Cat0otError):
    pass


class ConfigInvalid(Cat0otError):
    """Scenario configuration rejected; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class IoFailure(Cat0otError):
    pass


def config_int(value, path: str) -> int:
    """A config value read as an integer; integral floats such as 6.0 are read
    as 6, and bools, non-numbers and non-integral numbers are `ConfigInvalid`."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, float) and value.is_integer():
            return int(value)
    raise ConfigInvalid(path, f"expected an integer, got {value!r}")


def config_float(value, path: str) -> float:
    """A config value read as a finite float; bools, non-numbers and
    non-finite numbers are `ConfigInvalid`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigInvalid(path, f"expected a finite number, got {value!r}")
