"""Exception types shared across the package, its one domain check, the
refusal of an argument that is not an int, and the text of an integer
inside an error message."""

import cmath
import math


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


_LOG10_2 = math.log10(2)


def int_text(n) -> str:
    """repr(n), or for an int past Python's int-to-str digit limit its size.

    Printing such an int raises a raw ValueError (the limit is 4,300 digits
    by default), so a message formatting one would raise that in place of
    its own error.  It is named by its digit count instead, estimated from
    its bit length: e.g. "-<int of about 5001 digits>".
    """
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
