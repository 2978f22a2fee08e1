"""Exception types, the one home of the point, tol, term-count and int rules,
and the text of an integer inside an error message."""

import cmath
import math
import sys
from numbers import Real

_FLOAT_MAX = sys.float_info.max


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionUnreachableError(ValueError):
    """The requested tolerance cannot be certified within the term cap; it
    carries the tightest achievable bound, for a retry with a realistic one."""

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
    try:
        finite = cmath.isfinite(tau) and cmath.isfinite(z)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise DomainError(
            f"tau and z must be finite, got tau = {int_text(tau)}, z = {int_text(z)}"
        )
    if complex(tau).imag <= 0:
        raise DomainError(f"tau must lie in the upper half-plane, got {tau}")


def checked_tol(tol) -> float:
    """The one tolerance rule: float(tol) for a real tol (no bool, no str) in
    (0, largest float] whose float is not 0.0, else a DomainError naming it."""
    if type(tol) is float or type(tol) is not bool and isinstance(tol, Real):
        if 0 < tol <= _FLOAT_MAX:  # also refuses NaN
            value = float(tol)
            if value:
                return value
            raise DomainError(f"tol {int_text(tol)} is too small: it is 0.0 as a float")
    raise DomainError(f"tol must be positive and finite, got {int_text(tol)}")


def require_count(name: str, n) -> None:
    """The one term-count rule (a cap, or an N): an int (no bool or float) from
    1 to the largest float, past which the tail bound overflows."""
    if type(n) is not int or n > _FLOAT_MAX:
        raise DomainError(f"{name} must be an int of float size, got {int_text(n)}")
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {int_text(n)}")


_LOG10_2 = math.log10(2)


def int_text(n) -> str:
    """repr(n), or for an int past the int-to-str digit limit (4,300 digits by
    default; printing one would raise a raw ValueError in place of the error
    naming it) its digit count from its bit length: "-<int of about 5001 digits>"."""
    try:
        return repr(n)
    except ValueError:
        if not isinstance(n, int):  # e.g. a Fraction with such a numerator
            return f"<{type(n).__name__} too long to print>"
        digits = int(abs(n).bit_length() * _LOG10_2) + 1
        return f"{'-' if n < 0 else ''}<int of about {digits} digits>"


def not_an_int(op: str, **args) -> DomainError:
    """The DomainError naming the first of ``args`` whose type is not int.

    An exact entry point checks ``type(x) is int`` inline and raises this on
    a miss: a bool is refused (``True`` would read as 1), and so is a float,
    even 2.0 (a NaN or an infinity would never end Euclid's loop).
    """
    name, value = next((n, v) for n, v in args.items() if type(v) is not int)
    return DomainError(f"{op} needs an int {name}, got {int_text(value)}")
