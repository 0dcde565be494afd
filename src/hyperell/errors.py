"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Operands live over different prime fields."""


class UnsupportedDegreeError(ValueError):
    """Requested degree is outside the supported range."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the memory budget."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; signals a bug upstream."""


class RootIsolationError(ConsistencyError):
    """The zero finder could not isolate the expected number of roots."""

    def __init__(self, message, intervals=()):
        super().__init__(message)
        self.intervals = tuple(intervals)


class SolverError(RuntimeError):
    """The linear-programming solver failed."""


class CertificationError(RuntimeError):
    """A one-sided approximation failed its certification pass."""
