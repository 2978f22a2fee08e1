"""Exception types shared across the package, and its one domain check."""

import cmath


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionUnreachableError(ValueError):
    """The requested tolerance cannot be certified within the term cap.

    Carries the tightest bound that *is* achievable so callers can retry
    with a realistic tolerance.
    """

    def __init__(self, requested: float, achievable: float, cap: int):
        self.requested = requested
        self.achievable = achievable
        self.cap = cap
        super().__init__(
            f"cannot certify tolerance {requested:g} within {cap} terms; "
            f"achievable bound is {achievable:g}"
        )


def require_upper_half(tau: complex, z: complex = 0j) -> None:
    """The one point check: tau, z finite and Im tau > 0, else DomainError."""
    if not (cmath.isfinite(tau) and cmath.isfinite(z)):
        raise DomainError(f"tau and z must be finite, got tau = {tau}, z = {z}")
    if complex(tau).imag <= 0:
        raise DomainError(f"tau must lie in the upper half-plane, got {tau}")
