"""Exact integer/rational/phase arithmetic against brute-force oracles."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thetamod.errors import DomainError
from thetamod.exact import (
    UnitPhase,
    jacobi_symbol,
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


def test_jacobi_names_a_huge_modulus_by_its_size():
    with pytest.raises(DomainError, match="got <int of about 5001 digits>"):
        jacobi_symbol(1, 2 * 10**5000)


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


@pytest.mark.parametrize(
    "a, n, name",
    [
        (float("nan"), 7, "a"),  # Euclid's loop never ends on a NaN or an inf
        (2, float("inf"), "n"),
        (1.5, 3, "a"),
        (2.0, 7, "a"),
        (True, 7, "a"),
        (3, 7.0, "n"),
        (3, None, "n"),
    ],
)
def test_jacobi_refuses_a_non_int(a, n, name):
    with pytest.raises(DomainError, match=rf"^jacobi_symbol needs an int {name}, got "):
        jacobi_symbol(a, n)


def test_phase_mul_examples():
    assert UnitPhase(Fraction(1, 2)) * UnitPhase(Fraction(3, 2)) == UnitPhase(0)
    assert UnitPhase(Fraction(3, 4)) * UnitPhase(Fraction(3, 4)) == UnitPhase(
        Fraction(3, 2)
    )
    # 7/4 + 1/2 = 9/4 reduces to 1/4
    assert UnitPhase(Fraction(7, 4)) * UnitPhase(Fraction(1, 2)) == UnitPhase(
        Fraction(1, 4)
    )


# UnitPhase holds 24th roots of unity: its phases are the rationals in (1/12)Z
phases = st.integers(-(10**6), 10**6).map(lambda k: Fraction(k, 12))


@given(phases, phases, phases)
def test_phase_group_associative(x, y, z):
    a, b, c = UnitPhase(x), UnitPhase(y), UnitPhase(z)
    assert (a * b) * c == a * (b * c)


@given(phases)
def test_phase_identity_and_inverse(x):
    p = UnitPhase(x)
    assert p * UnitPhase(0) == p
    assert p * p ** -1 == UnitPhase(0)
    assert 0 <= p.phase < 2


@given(phases)
def test_phase_unit_modulus(x):
    assert abs(abs(UnitPhase(x).to_complex()) - 1.0) < 1e-15


def test_phase_modulus_bulk():
    import random

    rng = random.Random(99)
    for _ in range(1000):
        p = UnitPhase(Fraction(rng.randint(-10**6, 10**6), 12))
        assert abs(abs(p.to_complex()) - 1.0) < 1e-15


def test_phase_known_values():
    assert UnitPhase(Fraction(1, 2)).to_complex() == pytest.approx(1j)
    assert UnitPhase(Fraction(3, 2)).to_complex() == pytest.approx(-1j)
    assert UnitPhase(1).to_complex() == pytest.approx(-1)
    assert UnitPhase(Fraction(-1, 2)) == UnitPhase(Fraction(3, 2))
    assert UnitPhase(Fraction(6, 2)) == UnitPhase(1)


def test_phase_outside_twelfths_is_refused():
    with pytest.raises(DomainError):
        UnitPhase(Fraction(1, 16))
    assert UnitPhase("-1/12") == UnitPhase._of(-1) == UnitPhase(Fraction(23, 12))


@pytest.mark.parametrize(
    "phase", ["1/0", math.inf, "abc", math.nan, None, True, False], ids=repr
)
def test_phase_that_is_not_rational_is_refused(phase):
    # a bool too: True would read as the phase 1, that is -1
    with pytest.raises(DomainError, match="^UnitPhase needs a rational"):
        UnitPhase(phase)


def test_phases_are_24_shared_instances():
    for k in range(-48, 49):
        p = UnitPhase._of(k)
        built = UnitPhase(Fraction(k, 12))
        assert p is UnitPhase._of(k + 24) and type(p) is UnitPhase, k
        assert p == built and hash(p) == hash(built) and p.residue == k % 24, k
        assert p * UnitPhase._of(5) is UnitPhase._of(k + 5), k
        assert built * built is p**2 is UnitPhase._of(2 * k), k
        assert p**-1 is UnitPhase._of(-k), k


@pytest.mark.parametrize("n", [2.5, 2.0, True, Fraction(2), None], ids=repr)
def test_phase_power_needs_an_int(n):
    with pytest.raises(DomainError, match="^a UnitPhase's exponent is an int, not "):
        UnitPhase("1/12") ** n


@pytest.mark.parametrize("other", [3, 1.0, Fraction(1, 12), "1/12", None], ids=repr)
def test_phase_times_a_non_phase_is_a_type_error(other):
    p = UnitPhase("1/12")
    with pytest.raises(TypeError, match="unsupported operand|can't multiply"):
        p * other
    with pytest.raises(TypeError, match="unsupported operand|can't multiply"):
        other * p


def test_phase_residue_round_trip_is_bit_identical():
    # residue k stands for phase k/12: the same "p/q" and the same float as
    # a phase held as the Fraction k/12 reduced mod 2
    for k in range(-30, 31):
        t = Fraction(k, 12) % 2
        p = UnitPhase(Fraction(k, 12))
        assert p.phase == t and str(p) == rational_str(t)
        assert p.to_complex() == cmath.exp(1j * math.pi * float(t))
    # str reads a table of the 24 texts; each is rational_str's text
    for k in range(-48, 49):
        assert str(UnitPhase._of(k)) == rational_str(Fraction(k % 24, 12))


def test_rational_serialization():
    assert rational_str(Fraction(0)) == "0/1"
    assert rational_str(Fraction(-3, 6)) == "-1/2"
    assert Fraction("7/4") == Fraction(7, 4)
    assert Fraction(rational_str(Fraction(22, 7))) == Fraction(22, 7)


@given(st.fractions(max_denominator=10**6))
def test_rational_roundtrip(x):
    assert Fraction(rational_str(x)) == x


@given(phases, phases, phases)
def test_rational_arithmetic_is_exactly_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert Fraction(a) == a  # normalization is idempotent
