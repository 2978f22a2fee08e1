"""Dedekind sums against the literal sawtooth-summation oracle."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import thetamod.dedekind
from thetamod.dedekind import (
    _defect_rows,
    _direct_row,
    _direct_total,
    dedekind_sum,
    reciprocity_defect,
)
from thetamod.errors import DomainError


def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2, and 0 at integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_oracle(h: int, k: int) -> Fraction:
    """The definition verbatim: sum_{r=1}^{k-1} (r/k)((hr/k)), no reduction."""
    return sum(
        (Fraction(r, k) * sawtooth(Fraction(h * r, k)) for r in range(1, k)),
        Fraction(0),
    )


def _dedekind_sum_direct(h: int, k: int) -> Fraction:
    """s(h, k) by the O(k) summation, the reference for dedekind_sum.

    With m_r = h*r mod k (never 0 for coprime h, k and 0 < r < k),
    ((hr/k)) = m_r/k - 1/2, so s(h, k) = T(h mod k, k)/k^2 - (k-1)/4.
    """
    return Fraction(_direct_total(h % k, k), k * k) - Fraction(k - 1, 4)


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


def test_reciprocity_walk_matches_the_per_pair_oracle():
    # the walk yields, a row of h at a time, exactly the k coprime to h in
    # order, each with 12h^2k^2 times the defect reciprocity_defect computes
    # without a table
    for bound in (1, 10, 30):
        pairs = range(1, bound + 1)
        rows = list(_defect_rows(bound))
        want = [(h, [k for k in pairs if math.gcd(h, k) == 1]) for h in pairs]
        assert [(h, ks) for h, ks, _ in rows] == want, bound
        for h, ks, scaled in rows:
            defects = [Fraction(n, 12 * (h * k) ** 2) for k, n in zip(ks, scaled)]
            assert defects == [reciprocity_defect(h, k) for k in ks], (bound, h)
    # the table is one triangle of 8-byte entries, 200*201/2 * 8 B = 161 KB,
    # built beside one row: its lanes, 200 * 4 B = 800 B per int, and a list
    tracemalloc.start()
    try:
        for _ in _defect_rows(200):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250_000


def _assert_row(k, hs):
    row = _direct_row(k)
    assert len(row) == k
    for h in hs:
        want = _direct_total(h, k) if math.gcd(h, k) == 1 else 0
        assert row[h] == want, (h, k)


def test_direct_row_matches_the_per_pair_loop():
    # one row per k, all h at once in the lanes of one int: T(h, k) on the
    # coprime pairs, as the O(1)-memory loop computes it, and 0 off them
    for k in range(1, 201):
        _assert_row(k, range(k))
    assert _direct_row(1) == [0]
    assert _direct_row(7)[3] == sum(r * (3 * r % 7) for r in range(1, 7)) == 70


@pytest.mark.parametrize("k", [9, 10, 58, 59, 1625, 2339, 2344, 2345, 2400, 3001])
def test_direct_row_lanes_grow_with_k(k):
    # T(1, k) is about k^3/3, past 1-, 2- and 4-byte lanes from k = 10, 59
    # and 2,345 on: fixed 4-byte lanes give a wrong total at 2,400 and
    # overflow at 3,001.  Each width's last and first k, odd and even, as the
    # folded row pairs r with k - r and adds an even k's middle r = k/2 apart
    width = 1 if k < 10 else 2 if k < 59 else 4 if k < 2345 else 8
    assert thetamod.dedekind._lane_bytes(k) == width
    _assert_row(k, [0, 1, k // 2, k - 1] + random.Random(k).sample(range(k), min(k, 60)))


@pytest.mark.parametrize("width", [8])
def test_direct_row_is_the_same_in_wider_lanes(monkeypatch, width):
    # any lane at least as wide as the rule's, up to the 8 bytes an array
    # reads, gives the same row
    rows = [_direct_row(k) for k in range(1, 80)]
    monkeypatch.setattr(thetamod.dedekind, "_lane_bytes", lambda k: width)
    assert [_direct_row(k) for k in range(1, 80)] == rows


def test_domain_errors():
    with pytest.raises(DomainError):
        dedekind_sum(1, 0)
    with pytest.raises(DomainError):
        dedekind_sum(1, -3)
    with pytest.raises(DomainError):
        dedekind_sum(2, 4)
    with pytest.raises(DomainError):
        reciprocity_defect(0, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dedekind_sum(1.5, 3), "dedekind_sum needs an int h"),
        (lambda: dedekind_sum(True, 3), "dedekind_sum needs an int h"),
        (lambda: dedekind_sum(1, 3.0), "dedekind_sum needs an int k"),
        (lambda: dedekind_sum(1, float("nan")), "dedekind_sum needs an int k"),
        (lambda: reciprocity_defect(3, 7.0), "reciprocity_defect needs an int k"),
        (lambda: reciprocity_defect(float("inf"), 7), "reciprocity_defect needs an int h"),
        (lambda: reciprocity_defect(-1.5, 7), "reciprocity_defect needs an int h"),
        (lambda: reciprocity_defect(False, 1), "reciprocity_defect needs an int h"),
    ],
)
def test_a_non_int_argument_is_named(call, message):
    with pytest.raises(DomainError, match=f"^{message}, got "):
        call()


def test_reciprocity_defect_names_itself():
    with pytest.raises(DomainError, match=r"^reciprocity_defect needs gcd"):
        reciprocity_defect(2, 4)
    # the coprime-pair rule speaks first, so h = 0 against k = 3 is refused
    # by its gcd; h = -1 is coprime to 3 and refused by the reciprocity rule
    with pytest.raises(DomainError, match=r"^reciprocity_defect needs gcd"):
        reciprocity_defect(0, 3)
    with pytest.raises(DomainError, match=r"^reciprocity_defect needs h, k"):
        reciprocity_defect(-1, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dedekind_sum(2 * 10**5000, 4 * 10**5000),
        lambda: reciprocity_defect(2 * 10**5000, 4),
        lambda: reciprocity_defect(-(10**5000), 3),
    ],
    ids=["dedekind_sum", "reciprocity_defect", "reciprocity_defect_sign"],
)
def test_a_huge_argument_in_a_message_is_named_by_its_size(call):
    # once a raw ValueError from formatting the int, not the DomainError
    with pytest.raises(DomainError, match="<int of about 5001 digits>"):
        call()
