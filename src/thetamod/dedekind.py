"""Exact Dedekind sums s(h, k) and the reciprocity law.

    s(h, k) = sum_{r=1}^{k-1} (r/k) ((hr/k))

with ((x)) the sawtooth: x - floor(x) - 1/2 off the integers, 0 on them.
For coprime h, k the summation arguments hr/k are never integers, so the
direct summand x - [x] - 1/2 and the sawtooth convention agree on every
in-scope input.

:func:`dedekind_sum` runs in O(log k) steps: it follows the Euclidean
algorithm on (h, k) and folds the reciprocity law back over the pairs,
carrying the integer g(h, k) = 12k*s(h, k) (an integer because 6k*s(h, k)
is).  The O(k) summation survives only as ``_dedekind_sum_direct``, the
oracle behind :func:`reciprocity_defect`: checking reciprocity with a
reciprocity-based algorithm would prove nothing.

All arithmetic is exact; no floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2, and 0 at integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def _require_coprime(h: int, k: int) -> None:
    if k <= 0:
        raise DomainError(f"dedekind_sum needs k >= 1, got k={k}")
    if math.gcd(h, k) != 1:
        raise DomainError(f"dedekind_sum needs gcd(h, k) = 1, got ({h}, {k})")


def dedekind_sum(h: int, k: int) -> Fraction:
    """Exact s(h, k) for k >= 1 and gcd(h, k) = 1, in O(log k) steps.

    With g(h, k) = 12k*s(h, k), an integer, reciprocity
    s(h,k) + s(k,h) = (h^2 + k^2 + 1)/(12hk) - 1/4 and periodicity in h give

        g(h, k) = (h^2 + k^2 + 1 - k*g(k mod h, h)) // h - 3k,

    with the division exact.  The Euclid pairs (h, k) -> (k mod h, h) of
    the reduced h end at (0, 1), where g(0, 1) = 0 (so s(h, 1) = 0); the
    recursion is folded back from there over integers only, and the one
    Fraction is built at the end.
    """
    _require_coprime(h, k)
    pairs = []
    a, b = h % k, k
    while a:
        pairs.append((a, b))
        a, b = b % a, a
    g = 0
    for a, b in reversed(pairs):
        g = (a * a + b * b + 1 - b * g) // a - 3 * b
    return Fraction(g, 12 * k)


def _dedekind_sum_direct(h: int, k: int) -> Fraction:
    """s(h, k) by the O(k) summation: the reciprocity oracle.

    Evaluated over integers: with m_r = h*r mod k (never 0 here),
    ((hr/k)) = m_r/k - 1/2, so

        s(h, k) = (sum_r r*m_r)/k^2 - (k-1)/4,

    a single exact Fraction at the end of an O(k) integer loop.
    """
    _require_coprime(h, k)
    if k == 1:
        return Fraction(0)
    h %= k
    total = 0
    m = 0
    for r in range(1, k):
        m += h
        if m >= k:
            m -= k
        total += r * m
    return Fraction(total, k * k) - Fraction(k - 1, 4)


def reciprocity_defect(h: int, k: int) -> Fraction:
    """s(h,k) + s(k,h) - (h/12k + k/12h - 1/4 + 1/12hk); exactly 0.

    Both sums come from the O(k) definition, never from the
    reciprocity-based :func:`dedekind_sum`.
    """
    if h <= 0 or k <= 0:
        raise DomainError(f"reciprocity_defect needs h, k >= 1, got ({h}, {k})")
    rhs = (
        Fraction(h, 12 * k)
        + Fraction(k, 12 * h)
        - Fraction(1, 4)
        + Fraction(1, 12 * h * k)
    )
    return _dedekind_sum_direct(h, k) + _dedekind_sum_direct(k, h) - rhs
