"""Exception types shared across the package."""


class EboundError(Exception):
    """Base class for all package errors."""


class InvalidInputError(EboundError, ValueError):
    """Malformed input: wrong element kind, non-finite entries, asymmetry."""


class DomainError(EboundError, ValueError):
    """Point lies outside the effective domain of a function."""


class InfeasibleTargetError(EboundError, ValueError):
    """Requested set is empty or the linear system is inconsistent."""


class NotOptimalError(EboundError):
    """Certification failed; carries the offending residual norm, and the
    message leads with `cause` when one is given."""

    def __init__(self, residual_norm, tol, cause=None):
        message = f"residual norm {residual_norm:.3e} exceeds certification tolerance {tol:.3e}"
        super().__init__(message if cause is None else f"{cause}: {message}")
        self.residual_norm = residual_norm
        self.tol = tol


class ConvergenceError(EboundError):
    """Iterative scheme exhausted its budget; carries the last gap."""

    def __init__(self, message, gap):
        super().__init__(f"{message} (last gap {gap:.3e})")
        self.gap = gap


class LineSearchError(EboundError):
    """Backtracking step collapsed below the minimum step size."""


class EmptyProbeError(EboundError):
    """Every probe point was rejected (outside dom(f))."""


class InsufficientDataError(EboundError):
    """Not enough samples or iterations for the requested fit."""


class ConfigError(EboundError):
    """Experiment configuration failed validation; carries all messages."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
