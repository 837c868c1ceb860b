"""Exception types shared across the package."""


class BalancedSpectraError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(BalancedSpectraError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateTruncationError(BalancedSpectraError, ValueError):
    """Truncation level wipes out the distribution (zero variance)."""


class ResourceLimitError(BalancedSpectraError):
    """Requested computation exceeds a hard enumeration or budget cap."""


class SolverFailureError(BalancedSpectraError, RuntimeError):
    """The eigensolver failed to converge or broke a trace identity.

    ``index`` optionally names the eigenvalue position at fault.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class UsageError(BalancedSpectraError):
    """Invalid command-line or configuration input (CLI exit code 2)."""
