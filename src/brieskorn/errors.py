"""Exception types shared across the package, each with its command-line exit code."""

from __future__ import annotations


class BrieskornError(Exception):
    """Base class for all errors raised by this package.

    An error raised by a missed tolerance may name the ``check``, its
    measured ``value`` and the ``tolerance`` it missed; its report entry
    then carries all three.
    """

    exit_code = 3  # a computation failed; refused input uses 1, a mismatch 2

    def __init__(self, message, *, check=None, value=None, tolerance=None):
        super().__init__(message)
        self.check, self.value, self.tolerance = check, value, tolerance

    def payload(self) -> dict:
        """The error as a report entry."""
        entry = {"type": type(self).__name__, "message": str(self)}
        if self.check is not None:
            entry.update(check=self.check, value=self.value, tolerance=self.tolerance)
        return entry


class ConfigError(BrieskornError, ValueError):
    """A tolerance, grading floor, action bound or epsilon lies outside its domain."""

    exit_code = 1


class UnknownTolerance(ConfigError, KeyError):
    """A tolerance override names no declared tolerance."""

    __str__ = ConfigError.__str__  # plain message, not KeyError's quoted repr


class InvalidExponent(BrieskornError):
    """An exponent list is malformed (fewer than three entries, or some entry < 2)."""

    exit_code = 1


class NotHyperbolic(BrieskornError):
    """The exponents fail the hyperbolicity inequality sum(1/a_j) < n - 2.

    The exact rational gap (n - 2) - sum(1/a_j) is attached as ``gap``;
    it is <= 0 exactly when the input is rejected.
    """

    exit_code = 1

    def __init__(self, message, gap):
        super().__init__(message)
        self.gap = gap

    def payload(self) -> dict:
        return {**super().payload(), "gap": str(self.gap)}


class CheckFailed(BrieskornError):
    """A measured value missed its tolerance; a NaN misses every tolerance."""

    def __init__(self, check, value, tolerance):
        super().__init__(
            f"{check} = {value!r} exceeds tolerance {tolerance!r}",
            check=check, value=value, tolerance=tolerance,
        )


class ComparisonMismatch(BrieskornError):
    """The chain-level homology differs from the closed form."""

    exit_code = 2


class ConstructionFailure(BrieskornError):
    """A construction did not converge, missed its prescribed shape, or broke
    one of the integer identities of the Seifert invariants."""


class DegenerateInput(BrieskornError):
    """A Moebius denominator collapsed; the matrix or point is not genuine."""


class NondegeneracyFailure(BrieskornError):
    """A rotation row cannot be graded: its return map rotates by a multiple
    of 2*pi, or its correction leaves its window.

    ``verify-dynamics`` records one for each such row from the measures of
    ``dynamics.linearized_return_map``; ``value`` and ``tolerance`` hold the
    measure that missed its bound.
    """


class InconsistentComplex(BrieskornError):
    """A chain complex is malformed.

    A generator sits off its stated grading, a differential has the wrong
    shape, or consecutive differentials do not compose to zero.
    """
