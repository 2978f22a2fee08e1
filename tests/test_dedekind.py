"""Dedekind sums against the literal sawtooth-summation oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import thetamod.dedekind
from thetamod.dedekind import (
    _dedekind_sum_direct,
    dedekind_sum,
    reciprocity_defect,
    sawtooth,
)
from thetamod.errors import DomainError


def dedekind_oracle(h: int, k: int) -> Fraction:
    """The definition verbatim: sum_{r=1}^{k-1} (r/k)((hr/k)), no reduction."""
    return sum(
        (Fraction(r, k) * sawtooth(Fraction(h * r, k)) for r in range(1, k)),
        Fraction(0),
    )


def test_sawtooth_examples():
    assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)
    assert sawtooth(Fraction(5)) == 0
    assert sawtooth(Fraction(-1, 4)) == Fraction(1, 4)


@given(st.fractions(max_denominator=500))
def test_sawtooth_oddness_off_integers(x):
    # ((x)) is odd: ((-x)) = -((x)) (both conventions agree at integers too)
    assert sawtooth(-x) == -sawtooth(x)


def test_sum_examples():
    assert dedekind_sum(0, 1) == 0
    assert dedekind_sum(5, 1) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 3) == Fraction(-1, 18)  # = -s(1,3), 2 = -1 mod 3


def test_sum_matches_literal_oracle():
    for k in range(1, 41):
        for h in range(-10, 2 * k + 1):
            if math.gcd(h, k) != 1:
                continue
            expected = dedekind_oracle(h, k)
            assert dedekind_sum(h, k) == expected, (h, k)
            assert _dedekind_sum_direct(h, k) == expected, (h, k)


def test_sum_matches_direct_random():
    rng = random.Random(11)
    checked = 0
    while checked < 2000:
        k = rng.randint(1, 5000)
        h = rng.randint(-5 * k, 5 * k)
        if math.gcd(h, k) != 1:
            continue
        assert dedekind_sum(h, k) == _dedekind_sum_direct(h, k), (h, k)
        checked += 1


@pytest.mark.parametrize("k", [10**18 + 3, 2**127 - 1])
def test_large_k_identities(k):
    # none of these identities comes from reciprocity
    assert dedekind_sum(1, k) == Fraction((k - 1) * (k - 2), 12 * k)
    assert dedekind_sum(2, k) == Fraction((k - 1) * (k - 5), 24 * k)  # k odd
    rng = random.Random(k)
    for _ in range(20):
        h = rng.randrange(1, k)
        if math.gcd(h, k) != 1:
            continue
        s = dedekind_sum(h, k)
        assert dedekind_sum(pow(h, -1, k), k) == s
        assert dedekind_sum(-h, k) == -s
        assert (6 * k * s).denominator == 1


@settings(max_examples=200)
@given(st.integers(-300, 300), st.integers(1, 120), st.integers(-5, 5))
def test_periodicity(h, k, m):
    if math.gcd(h, k) != 1:
        return
    assert dedekind_sum(h + k * m, k) == dedekind_sum(h, k)


@settings(max_examples=200)
@given(st.integers(-300, 300), st.integers(1, 120))
def test_oddness(h, k):
    if math.gcd(h, k) != 1:
        return
    assert dedekind_sum(-h, k) == -dedekind_sum(h, k)


@settings(max_examples=200)
@given(st.integers(1, 120), st.integers(1, 120))
def test_integrality_6k(h, k):
    if math.gcd(h, k) != 1:
        return
    v = 6 * k * dedekind_sum(h, k)
    assert v.denominator == 1


def test_reciprocity_examples():
    assert reciprocity_defect(1, 1) == 0
    # s(1,3)+s(3,1) = 1/18 and the closed form agrees
    assert dedekind_sum(1, 3) + dedekind_sum(3, 1) == Fraction(1, 18)
    assert reciprocity_defect(1, 3) == 0
    assert reciprocity_defect(5, 7) == 0


def test_reciprocity_small_exhaustive():
    for h in range(1, 61):
        for k in range(1, 61):
            if math.gcd(h, k) == 1:
                assert reciprocity_defect(h, k) == 0, (h, k)


def test_reciprocity_oracle_does_not_use_dedekind_sum(monkeypatch):
    def boom(h, k):
        raise AssertionError("reciprocity_defect called dedekind_sum")

    monkeypatch.setattr(thetamod.dedekind, "dedekind_sum", boom)
    for h, k in [(1, 1), (1, 3), (5, 7), (13, 21), (89, 144), (100, 3)]:
        assert reciprocity_defect(h, k) == 0
    with pytest.raises(DomainError):
        reciprocity_defect(2, 4)
    with pytest.raises(DomainError):
        reciprocity_defect(0, 3)


def test_domain_errors():
    with pytest.raises(DomainError):
        dedekind_sum(1, 0)
    with pytest.raises(DomainError):
        dedekind_sum(1, -3)
    with pytest.raises(DomainError):
        dedekind_sum(2, 4)
    with pytest.raises(DomainError):
        reciprocity_defect(0, 3)
