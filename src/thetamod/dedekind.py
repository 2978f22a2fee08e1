"""Exact Dedekind sums s(h, k) and the reciprocity law.

    s(h, k) = sum_{r=1}^{k-1} (r/k) ((hr/k))

with ((x)) the sawtooth: x - floor(x) - 1/2 off the integers, 0 on them.
For coprime h, k the summation arguments hr/k are never integers, so the
direct summand x - [x] - 1/2 and the sawtooth convention agree on every
in-scope input.

:func:`dedekind_sum` runs in O(log k) steps: it follows the Euclidean
algorithm on (h, k) once, summing the reciprocity law over its pairs with
alternating signs into the integer g(h, k) = 12k*s(h, k) (an integer
because 6k*s(h, k) is; ``_g`` returns it for the eta multiplier).  The O(k) summation survives
only as the oracle behind reciprocity: checking reciprocity with a
reciprocity-based algorithm would prove nothing.  It has two forms of the
one definition T(h, k) = sum_{r=1}^{k-1} r*(h*r mod k).  ``_direct_total``
is an integer loop over one pair in O(1) memory; it serves the single
pairs of :func:`reciprocity_defect`, which accept any k, and the tests'
direct s(h, k).  ``_direct_row`` gives T(h, k) for every h at one k at
once, in lanes of one int (SWAR, "SIMD within a register"): lane h carries
h*r mod k, so each step is a few big-int operations, all in C, over k
lanes of a width set by k.  It folds the sum onto half its steps, r from 1
to (k-1)//2, by pairing r with k - r (m_(k-r) = k - m_r for coprime h, k):
a pairing of the summation index, not reciprocity and not a symmetry of
s(h, k), so the oracle stays independent.  The reciprocity suite of
``thetamod verify`` walks ``_defect_rows``, which tables those rows once
per walk and yields, a row of h at a time, the k coprime to h and each
pair's integer defect numerator.

All arithmetic is exact; no floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from itertools import chain
from typing import Iterator

from .errors import DomainError, int_text, not_an_int


def _require_coprime(h: int, k: int, op: str) -> None:
    if type(h) is not int or type(k) is not int:  # no bool, no float
        raise not_an_int(op, h=h, k=k)
    if k <= 0:
        raise DomainError(f"{op} needs k >= 1, got k={int_text(k)}")
    if math.gcd(h, k) != 1:
        raise DomainError(
            f"{op} needs gcd(h, k) = 1, got ({int_text(h)}, {int_text(k)})"
        )


def _g(h: int, k: int) -> int:
    """g(h, k) = 12k*s(h, k), an integer, for k >= 1 and gcd(h, k) = 1.

    Euclid on r_0 = k, r_1 = h mod k, with r_{i-1} = a_i r_i + r_{i+1},
    ends at r_n = 1.  Reciprocity s(h,k) + s(k,h) = (h^2+k^2+1)/(12hk) - 1/4
    on each pair (r_i, r_{i-1}), summed with alternating signs, telescopes
    (the continued-fraction form of Barkan, Hickerson and Knuth) to

        g(h, k) = r_1 + k*(a_1 - a_2 + ... + (-1)^(n+1) a_n - 3[n odd]) + t_n,

    with t_n the Bezout coefficient of r_n = s_n k + t_n r_1.  So one
    forward pass over integers gives g; s(h, 1) = 0.
    """
    r0 = k
    h1 = r1 = h % k
    if not r1:
        return 0
    t0, t1, alt, odd = 0, 1, 0, False
    while True:
        a, r2 = divmod(r0, r1)
        odd = not odd
        alt = alt + a if odd else alt - a
        if not r2:
            return h1 + k * (alt - 3 if odd else alt) + t1
        r0, r1, t0, t1 = r1, r2, t1, t0 - a * t1


def dedekind_sum(h: int, k: int) -> Fraction:
    """Exact s(h, k) = g(h, k)/(12k), in O(log k) steps.

    For ints h and k >= 1 with gcd(h, k) = 1; anything else is a DomainError.
    """
    _require_coprime(h, k, "dedekind_sum")
    return Fraction(_g(h, k), 12 * k)


def _direct_total(h: int, k: int) -> int:
    """T(h, k) = sum_{r=1}^{k-1} r*(h*r mod k) for 0 <= h < k: the O(k) loop
    of the module docstring.  The residue h*r mod k is carried by repeated
    addition, so the loop multiplies only r*m."""
    total = 0
    m = 0
    for r in range(1, k):
        m += h
        if m >= k:
            m -= k
        total += r * m
    return total


def _lane_bytes(k: int) -> int:
    """The lane width of ``_direct_row(k)`` in bytes: the least power of two
    whose lanes hold both T(1, k) = (k-1)k(2k-1)/6, the largest total of
    the row and above its every folded sum U, and 2^s with s =
    k.bit_length(), the flag of a stepping lane.
    So 1, 2, 4, 8 and 16 bytes from k = 1, 10, 59, 2,345 and 3,810,779 on."""
    most = max((k - 1) * k * (2 * k - 1) // 6, 1 << k.bit_length())
    width = 1
    while most >> 8 * width:
        width *= 2
    return width


# array typecode by item size, for the lane widths an array can read
_LANE_TYPECODES = {array(code).itemsize: code for code in "BHIQ"}


def _direct_row(k: int) -> list[int]:
    """[T(h, k) for 0 <= h < k], with 0 where gcd(h, k) > 1: one row of the walk,
    for 1 <= k < 3,810,779, where a lane fits in 8 bytes.

    Folded onto half the steps.  For coprime h, k and 0 < r < k, k does not
    divide h*r, so m_(k-r) = k - m_r with m_r = h*r mod k; pairing the
    summation index r with k - r (and the middle r = k/2 of an even k, where
    m_r = k/2) gives T(h, k) = C(k) - U with

        U = sum_{r=1}^{half} (k - 2r) m_r,   half = (k - 1) // 2,
        C(k) = half*k^2 - k*half*(half + 1)/2 + [k even] k^2/4.

    This pairs the index of the one definition; it uses no reciprocity and
    no symmetry of s(h, k) in its arguments, so the oracle stays independent
    of what it checks.  U is nonnegative and below T(1, k) on every lane, as
    m_r < k, so it fits the lanes of ``_lane_bytes``.

    U is summed for all k values of h at once, lane h of one int holding m_r,
    offset by c = 2^s - k with s = k.bit_length() so that bit s of a lane
    is set exactly when the lane has reached k: each step from r to r + 1
    adds the lanes [0, 1, ..., k-1] and takes k off every lane whose bit s
    is set.  A stepping lane stays under 2^s + k <= 2^(s+1), so no step
    carries into the next lane.  The running total adds (k - 2r) times the
    lanes, and the offset's share c*half*(k - half - 1) is taken off at the
    end, so it is exactly sum_h U_h 2^(8*width*h) whatever carries its lanes
    made on the way, and the lanes read back are the U_h.  Exact integers,
    each step a few big-int operations in C.
    """
    s = k.bit_length()
    width = _lane_bytes(k)
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * k, "little")
    # lane h of ones^2, below lane k, counts the h + 1 pairs i + j = h
    ramp = (ones * ones & (1 << 8 * width * k) - 1) - ones
    offset = ones * ((1 << s) - k)
    half = (k - 1) // 2
    lanes = offset
    total = 0
    for r in range(1, half + 1):
        lanes += ramp
        lanes -= (lanes >> s & ones) * k
        total += (k - 2 * r) * lanes
    total -= offset * (half * (k - half - 1))
    row = array(_LANE_TYPECODES[width])
    row.frombytes(total.to_bytes(width * k, "little"))
    if sys.byteorder == "big":
        row.byteswap()
    c_k = half * k * k - k * half * (half + 1) // 2 + (0 if k % 2 else k * k // 4)
    gcd = math.gcd
    return [c_k - u if gcd(h, k) == 1 else 0 for h, u in enumerate(row)]


def _scaled_defects(h: int, pairs) -> list[int]:
    """12h^2k^2 times the reciprocity defect of h and k for each (k, t_hk,
    t_kh) of pairs, h and k coprime and >= 1: one row of h.

    With t_hk = T(h mod k, k) and t_kh = T(k mod h, h), s(h, k) =
    t_hk/k^2 - (k-1)/4 (as ((hr/k)) = (hr mod k)/k - 1/2 for 0 < r < k) and
    s(k, h) alike, and the whole identity scaled by 12h^2k^2 to stay over
    integers:

        12h^2k^2 * defect = 12h^2*t_hk + 12k^2*t_kh
                            - 3h^2k^2(h + k - 3) - hk(h^2 + k^2 + 1),

    a cubic in k over the row, taken in Horner's form:
    12h^2*t_hk - k(h^3 + h + k(3h^2(h - 3) - 12t_kh + k(3h^2 + h))).
    """
    hh = h * h
    c0, c1, c2, c3 = 12 * hh, hh * h + h, 3 * hh * (h - 3), 3 * hh + h
    return [c0 * a - k * (c1 + k * (c2 - 12 * b + k * c3)) for k, a, b in pairs]


def _defect(h: int, k: int, scaled: int) -> Fraction:
    """The defect of (h, k) from its ``_scaled_defects`` entry."""
    return Fraction(scaled, 12 * (h * k) ** 2)


def reciprocity_defect(h: int, k: int) -> Fraction:
    """s(h,k) + s(k,h) - (h/12k + k/12h - 1/4 + 1/12hk); exactly 0.

    Both sums come from the O(k) definition, never from the
    reciprocity-based :func:`dedekind_sum`.
    """
    _require_coprime(h, k, "reciprocity_defect")
    if h <= 0:
        raise DomainError(
            f"reciprocity_defect needs h, k >= 1, got ({int_text(h)}, {int_text(k)})"
        )
    pair = (k, _direct_total(h % k, k), _direct_total(k % h, h))
    return _defect(h, k, _scaled_defects(h, [pair])[0])


def _defect_rows(bound: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """(h, ks, scaled) for each 1 <= h <= bound: the k <= bound coprime to h,
    in order, and each pair's ``_scaled_defects`` entry, 0 exactly when it holds.

    The walk behind the reciprocity suite.  It first tables T(h, k) for every
    0 <= h < k <= bound, one ``_direct_row`` per k, in one local triangle of
    bound*(bound + 1)/2 8-byte integers, T(h, k) at k*(k - 1)/2 + h and 0 off
    the coprime pairs; then it reads each defect from two entries, as s(h, k)
    only depends on h mod k.  For k >= 2, T(h mod k, k) is 0 exactly when
    gcd(h, k) > 1, and every k = 1 is coprime, so the table decides, once
    per pair, which pairs are walked.  Nothing is cached between calls.
    """
    ks = range(1, bound + 1)
    totals = array("q", chain.from_iterable(map(_direct_row, ks)))
    starts = [k * (k - 1) // 2 for k in range(bound + 1)]  # row k of the triangle
    for h in ks:
        row_h = totals[starts[h] : starts[h] + h].tolist()
        pairs = [  # (k, T(h mod k, k), T(k mod h, h)), T(h mod k, k) read once
            (k, t, row_h[k % h])
            for k in ks
            if (t := totals[starts[k] + h % k]) or k == 1
        ]
        yield h, [k for k, _, _ in pairs], _scaled_defects(h, pairs)
