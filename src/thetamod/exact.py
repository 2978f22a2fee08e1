"""Exact integer, rational, and unit-phase arithmetic.

Rational values are ``fractions.Fraction`` throughout: Python integers are
arbitrary precision, and ``Fraction`` keeps gcd(|num|, den) = 1 with den >= 1,
so multiplier phases with 12c denominators never overflow or round.

A ``UnitPhase`` stores a unit complex number e^{i*pi*t} exactly as the
rational t reduced into [0, 2).  Multiplication of unit values is then exact
addition of phases mod 2, which turns multiplier identities into pure
rational equalities.

Everything here is immutable and pure; values are safe to share between
threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n.

    Computed by the quadratic-reciprocity recursion; equals the Legendre
    symbol for prime n, is 0 iff gcd(a, n) > 1, and (a/1) = 1.
    """
    if n <= 0 or n % 2 == 0:
        raise DomainError(f"jacobi_symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def rational_str(x: Fraction) -> str:
    """Serialize a rational as "p/q" in lowest terms ("0/1" for zero)."""
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`rational_str`; also accepts bare integers."""
    return Fraction(s.strip())


@dataclass(frozen=True)
class UnitPhase:
    """A unit complex number e^{i*pi*phase}, phase a rational in [0, 2).

    The group law is exact: multiplication adds phases mod 2, inversion
    negates.  ``UnitPhase(0)`` is the identity.
    """

    phase: Fraction

    def __init__(self, phase: Fraction | int | str):
        object.__setattr__(self, "phase", Fraction(phase) % 2)

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase(self.phase + other.phase)

    def __pow__(self, n: int) -> "UnitPhase":
        return UnitPhase(self.phase * n)

    def inverse(self) -> "UnitPhase":
        return UnitPhase(-self.phase)

    def to_complex(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.phase))

    def __str__(self) -> str:
        return rational_str(self.phase)


def i_power(k: int) -> UnitPhase:
    """i**k as an exact unit phase (k may be negative)."""
    return UnitPhase(Fraction(k, 2))
