"""Exact integer, rational, and unit-phase arithmetic.

Rationals are ``fractions.Fraction`` over Python's arbitrary-precision
integers, so they never overflow or round.  A ``UnitPhase`` stores
e^{i*pi*t}, t = k/12, exactly as the residue k mod 24: every exact phase of
the package (the eta multiplier, epsilon1 and the level-2 prefactors) is a
24th root of unity, so multiplier identities are integer equalities.

Everything here is immutable and pure; values are safe to share between
threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, int_text, not_an_int

def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an int a and an odd positive int n.

    Computed by the quadratic-reciprocity recursion; equals the Legendre
    symbol for prime n, is 0 iff gcd(a, n) > 1, and (a/1) = 1.
    """
    if type(a) is not int or type(n) is not int:  # no bool, no float
        raise not_an_int("jacobi_symbol", a=a, n=n)
    if n <= 0 or n % 2 == 0:
        raise DomainError(f"jacobi_symbol needs odd positive n, got {int_text(n)}")
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


@dataclass(frozen=True)
class UnitPhase:
    """A 24th root of unity e^{i*pi*phase}, phase = residue/12 in [0, 2).

    ``UnitPhase(t)`` takes a rational t in (1/12)Z and refuses any other;
    ``UnitPhase._of(k)`` is e^{i*pi*k/12}, k an int, one of 24 shared instances.
    ``*`` adds residues mod 24, ``** n`` takes an int n, ``UnitPhase(0)`` is 1.
    ``str`` is ``rational_str`` of the phase, from a table of the 24 texts.
    """

    residue: int
    phase = property(lambda self: Fraction(self.residue, 12))

    def __init__(self, phase: Fraction | int | str):
        try:
            if type(phase) is bool:  # True would read as the phase 1, that is -1
                raise TypeError
            k = Fraction(phase) * 12
        except (ArithmeticError, TypeError, ValueError):  # 1/0, inf, nan, "abc", None
            raise DomainError(f"UnitPhase needs a rational, got {phase!r}") from None
        if k.denominator != 1:
            raise DomainError(f"UnitPhase needs a phase in (1/12)Z, got {phase}")
        object.__setattr__(self, "residue", k.numerator % 24)

    @staticmethod
    def _of(k: int) -> "UnitPhase":
        return _PHASES[k % 24]

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        if type(other) is not UnitPhase:
            return NotImplemented
        return _PHASES[(self.residue + other.residue) % 24]

    def __pow__(self, n: int) -> "UnitPhase":
        if type(n) is not int:  # no bool, no float: k * 2.5 is no residue
            raise DomainError(f"a UnitPhase's exponent is an int, not {n!r}")
        return _PHASES[self.residue * n % 24]

    def to_complex(self) -> complex:  # k/12 rounds as float(Fraction(k, 12)) does
        return cmath.exp(1j * math.pi * (self.residue / 12))

    def __str__(self) -> str:
        return _PHASE_TEXTS[self.residue]


_PHASE_TEXTS = tuple(rational_str(Fraction(k, 12)) for k in range(24))
_PHASES = tuple(UnitPhase(Fraction(k, 12)) for k in range(24))
