"""Exact integer/rational/phase arithmetic against brute-force oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thetamod.errors import DomainError
from thetamod.exact import (
    UnitPhase,
    i_power,
    jacobi_symbol,
    parse_rational,
    rational_str,
)


def legendre_oracle(a: int, p: int) -> int:
    """Legendre symbol by enumerating quadratic residues mod p."""
    a %= p
    if a == 0:
        return 0
    residues = {x * x % p for x in range(1, p)}
    return 1 if a in residues else -1


def jacobi_oracle(a: int, n: int) -> int:
    """Product of Legendre symbols over the factorization of odd n."""
    result = 1
    m = n
    f = 2
    while m > 1:
        while m % f == 0:
            result *= legendre_oracle(a, f)
            m //= f
        f += 1
    return result


def test_jacobi_examples():
    assert jacobi_symbol(5, 1) == 1
    assert jacobi_symbol(2, 3) == jacobi_oracle(2, 3) == -1
    # (2/15) = (2/3)(2/5) = (-1)(-1)
    assert jacobi_oracle(2, 3) == -1 and jacobi_oracle(2, 5) == -1
    assert jacobi_symbol(2, 15) == jacobi_oracle(2, 15) == 1


def test_jacobi_against_oracle():
    for n in range(1, 52, 2):
        for a in range(-20, 21):
            assert jacobi_symbol(a, n) == jacobi_oracle(a, n), (a, n)


def test_jacobi_zero_iff_common_factor():
    for n in range(1, 52, 2):
        for a in range(0, n):
            assert (jacobi_symbol(a, n) == 0) == (math.gcd(a, n) > 1)


def test_jacobi_multiplicative_in_lower_argument():
    for n in range(1, 51, 2):
        for m in range(1, 51, 2):
            for a in (2, 3, 5, -7, 10):
                assert jacobi_symbol(a, n * m) == jacobi_symbol(a, n) * jacobi_symbol(
                    a, m
                )


def test_jacobi_domain_errors():
    with pytest.raises(DomainError):
        jacobi_symbol(3, 4)
    with pytest.raises(DomainError):
        jacobi_symbol(3, 0)
    with pytest.raises(DomainError):
        jacobi_symbol(3, -5)


def test_phase_mul_examples():
    assert UnitPhase(Fraction(1, 2)) * UnitPhase(Fraction(3, 2)) == UnitPhase(0)
    assert UnitPhase(Fraction(3, 4)) * UnitPhase(Fraction(3, 4)) == UnitPhase(
        Fraction(3, 2)
    )
    # 7/4 + 1/2 = 9/4 reduces to 1/4
    assert UnitPhase(Fraction(7, 4)) * UnitPhase(Fraction(1, 2)) == UnitPhase(
        Fraction(1, 4)
    )


phases = st.fractions(max_denominator=1000)


@given(phases, phases, phases)
def test_phase_group_associative(x, y, z):
    a, b, c = UnitPhase(x), UnitPhase(y), UnitPhase(z)
    assert (a * b) * c == a * (b * c)


@given(phases)
def test_phase_identity_and_inverse(x):
    p = UnitPhase(x)
    assert p * UnitPhase(0) == p
    assert p * p.inverse() == UnitPhase(0)
    assert 0 <= p.phase < 2


@given(phases)
def test_phase_unit_modulus(x):
    assert abs(abs(UnitPhase(x).to_complex()) - 1.0) < 1e-15


def test_phase_modulus_bulk():
    import random

    rng = random.Random(99)
    for _ in range(1000):
        p = UnitPhase(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
        assert abs(abs(p.to_complex()) - 1.0) < 1e-15


def test_phase_known_values():
    assert UnitPhase(Fraction(1, 2)).to_complex() == pytest.approx(1j)
    assert UnitPhase(Fraction(3, 2)).to_complex() == pytest.approx(-1j)
    assert UnitPhase(1).to_complex() == pytest.approx(-1)
    assert i_power(-1) == UnitPhase(Fraction(3, 2))
    assert i_power(6) == UnitPhase(1)


def test_rational_serialization():
    assert rational_str(Fraction(0)) == "0/1"
    assert rational_str(Fraction(-3, 6)) == "-1/2"
    assert parse_rational("7/4") == Fraction(7, 4)
    assert parse_rational(rational_str(Fraction(22, 7))) == Fraction(22, 7)


@given(st.fractions(max_denominator=10**6))
def test_rational_roundtrip(x):
    assert parse_rational(rational_str(x)) == x


@given(phases, phases, phases)
def test_rational_arithmetic_is_exactly_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert Fraction(a) == a  # normalization is idempotent
