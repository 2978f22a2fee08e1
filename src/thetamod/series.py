"""Direct q-series evaluation of the four Jacobi theta functions.

With q = e^{i*pi*tau}, Im tau > 0, the kind of characteristic [alpha, beta]
(ThetaKind's docstring holds the table and its rules) is

    theta(z,tau) = sum_n (-1)^{beta n} q^{(n+alpha/2)^2} e^{(2n+alpha) i pi z},

times -i for theta1.  Partial sums come from a ratio recurrence (as in
Johansson, arXiv:1806.06725), at most four exp calls whatever N is
(:func:`_partial_sum`); a term n steps from the start carries a relative
error of about n^2/2 ulps.  Truncation is certified: the evaluation refuses
(PrecisionUnreachableError) rather than silently degrade when tol would
need more than MAX_INDEX terms.  Argument reduction for that regime lives
in the transform module.

z -> z + 1/2 flips beta, with these signs, fixed here by the series oracle:

    theta1(z + 1/2) = theta2(z)      theta2(z + 1/2) = -theta1(z)
    theta3(z + 1/2) = theta4(z)      theta4(z + 1/2) = theta3(z)

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple

from .errors import (
    DomainError,
    PrecisionUnreachableError,
    checked_tol,
    require_count,
    require_upper_half,
)

DEFAULT_TOL = 1e-10
MAX_INDEX = 10**6

_PI = math.pi


class ThetaKind(enum.Enum):
    """A Jacobi theta function and its characteristic [alpha, beta].

    In halves, entries mod 2 (Mumford, Tata Lectures on Theta I, ch. II,
    sec. 5; DLMF 20.2(i)): theta3 = [0,0], theta4 = [0,1], theta2 = [1,0]
    and theta1 = -[1,1].  Every per-kind rule reads the ints alpha and beta:

    - the series index is n + alpha/2, and the term sign (-1)^{beta n};
    - z+1 gives (-1)^alpha, and z+tau gives (-1)^beta;
    - A = (a b; c d): [alpha, beta] -> [d alpha - c beta + cd, a beta - b alpha
      + ab] (:func:`_char_law`); T gives [alpha, alpha+beta+1], S [beta, alpha].

    theta1's extra -i is the minus sign times Mumford's e^{i pi alpha beta/2}.
    """

    THETA1 = 1
    THETA2 = 2
    THETA3 = 3
    THETA4 = 4

    @classmethod
    def parse(cls, text: str) -> "ThetaKind":
        t = text.strip().lower().removeprefix("theta")
        try:
            return cls(int(t))
        except ValueError:
            raise DomainError(f"unknown theta kind {text!r}") from None

    def __str__(self) -> str:
        return f"theta{self.value}"


# The members, bound once: an enum lookup on the class shows in a short sum.
_THETA1, _THETA2, _THETA3, _THETA4 = ThetaKind
_KIND_OF = ((_THETA3, _THETA4), (_THETA2, _THETA1))  # [alpha][beta]
for _kind in ThetaKind:  # at 2 alpha + beta in the flattened table
    _kind.alpha, _kind.beta = divmod(sum(_KIND_OF, ()).index(_kind), 2)
HALF_PERIOD_PARTNER = {k: _KIND_OF[k.alpha][1 - k.beta] for k in ThetaKind}


def _char_law(kind: ThetaKind, a: int, b: int, c: int, d: int) -> tuple[ThetaKind, int]:
    """The law of the characteristic (Igusa, Theta Functions, ch. V): the kind'
    theta_kind goes to under A = (a b; c d), and rel mod 24, its law's unit
    e^{i pi rel/12} against theta1's (0 for theta1).  With [alpha, beta] of kind,
    x = a beta - b alpha + ab and [alpha', beta'] = [d alpha - c beta + cd, x] mod 2,
    rel = u(alpha, beta) - u(1, 1), with (as in the README's Conventions)

        u = 6(alpha beta - alpha' beta' + alpha'(x - beta'))
            + 3(bd alpha - 2bc alpha beta + ac beta) - 6ab(d alpha - c beta),

    here expanded as 3r mod 24, where mod 8 r = 2(alpha beta + alpha'(x - 2 beta')
    + 1 - a + b - ab + bc(1 - alpha beta)), plus (2a - 1)bd where alpha = 0 and
    minus (2b + 1)ac where beta = 0.  -A adds 12 where alpha beta = 0 (S^2 = -I).
    """
    a, b, c, d = a & 7, b & 7, c & 7, d & 7  # it reads A mod 8: small ints
    alpha, beta = kind.alpha, kind.beta
    ab = a * b
    x = a * beta - b * alpha + ab
    alpha_, beta_ = (d * alpha - c * beta + c * d) & 1, x & 1
    r = 2 * (alpha * beta + alpha_ * (x - 2 * beta_) + 1 - a + b - ab
             + b * c * (1 - alpha * beta))
    if not alpha:
        r += (2 * a - 1) * b * d
    if not beta:
        r -= (2 * b + 1) * a * c
    return _KIND_OF[alpha_][beta_], 3 * (r & 7)


def truncation_bound(kind: ThetaKind, z: complex, tau: complex, N: int) -> float:
    """Upper bound on the absolute tail beyond the symmetric partial sum S_N.

    Every omitted term has magnitude e^{-pi y m^2 + 2 pi beta m} with
    y = Im tau, beta = |Im z| and m = |n + alpha/2|.  Successive magnitudes
    shrink by at least r = e^{-pi y (2 m0 + 1) + 2 pi beta} from the first
    omitted index m0 on, so the tail is at most 2 t(m0) / (1 - r); +inf is
    returned when r >= 1 (bound not yet applicable at this N), when r
    rounds to 1, when t(m0) would overflow, and when either logarithm is NaN.
    """
    require_upper_half(tau, z)
    require_count("N", N)
    return _tail_bound(kind, complex(tau).imag, abs(complex(z).imag), N)


def _tail_bound(kind: ThetaKind, y: float, beta: float, N: int) -> float:
    """truncation_bound for validated y = Im tau > 0 and beta = |Im z|."""
    m0 = N + 1 + kind.alpha / 2
    log_ratio = -_PI * y * (2 * m0 + 1) + 2 * _PI * beta
    if not log_ratio < 0:  # NaN too: -inf + inf at a huge Im tau and Im z
        return math.inf
    log_t0 = -_PI * y * m0 * m0 + 2 * _PI * beta * m0
    denominator = 1.0 - math.exp(log_ratio)  # 0.0 when r rounds to 1
    if not log_t0 <= 700.0 or denominator <= 0.0:
        return math.inf
    return 2.0 * math.exp(log_t0) / denominator


def truncation_index(
    kind: ThetaKind,
    z: complex,
    tau: complex,
    tol: float,
    max_index: int = MAX_INDEX,
) -> int:
    """Smallest N <= max_index with truncation_bound(kind, z, tau, N) < tol/2.

    The bound is +inf on a prefix of N and strictly decreasing after it:
    with r_N the ratio at N, t(m0+1)/t(m0) = r_N and r_{N+1} = r_N e^{-2 pi y},
    so bound(N+1)/bound(N) = r_N (1 - r_N)/(1 - r_{N+1}) < r_N < 1; and since
    log t(m0) falls by -log r_N > 0 a step, the overflow cut-off cannot
    return after a finite stretch.

    So the good N (bound < tol/2) are every N from the first good one on,
    and any start point, stepped down while bound(N-1) < tol/2 if it is
    good and up while bound(N) >= tol/2 if not, stops at exactly the N a
    scan from 1 would return.  The start sizes N from the leading omitted
    term alone (as in Johansson, arXiv:1806.06725): t(m) = tol/4 at the root
    m = (beta + sqrt(beta^2 + y L/pi))/y of pi y m^2 - 2 pi beta m = L,
    with L = -log(tol/4), and the first omitted index m0 is N + 1 + alpha/2,
    so N starts at ceil(m - 1 - alpha/2), a few steps from the answer; the
    bound certifies it.

    The start is evaluated first: when it is good, N steps down from it, and
    when it is the answer that takes two bound calls.  Only a start that is
    not good needs the one evaluation at N = max_index that decides
    reachability (the start's own value when it is clamped to max_index);
    N then steps up from it.
    """
    tol = checked_tol(tol)
    require_upper_half(tau, z)
    require_count("max_index", max_index)
    y, beta = complex(tau).imag, abs(complex(z).imag)
    return _truncation_index(kind, y, beta, tol, max_index)


def _truncation_index(
    kind: ThetaKind, y: float, beta: float, tol: float, max_index: int
) -> int:
    """truncation_index for validated y = Im tau > 0, beta = |Im z|, tol and
    max_index >= 1: the checks are its callers', made once."""
    target = tol / 2.0
    N = _start_index(kind, y, beta, tol, max_index)
    bound = _tail_bound(kind, y, beta, N)
    if bound < target:
        while N > 1 and _tail_bound(kind, y, beta, N - 1) < target:
            N -= 1
        return N
    if N < max_index:
        bound = _tail_bound(kind, y, beta, max_index)
    if not bound < target:
        raise PrecisionUnreachableError(tol, bound, max_index)
    N += 1
    while not _tail_bound(kind, y, beta, N) < target:
        N += 1
    return N


_LOG4 = math.log(4.0)


def _start_index(
    kind: ThetaKind, y: float, beta: float, tol: float, max_index: int
) -> int:
    """truncation_index's closed-form start, clamped into [1, max_index].

    L is computed as log 4 - log tol, so that a subnormal tol/4 cannot
    round to 0, and the root as b + sqrt(b^2 + (L/pi)/y) with b = beta/y,
    so that y L/pi cannot overflow at a huge Im tau.  The discriminant can
    be nonpositive only when tol > 4 (L < 0); the start is then 1.
    """
    b = beta / y
    disc = b * b + (_LOG4 - math.log(tol)) / _PI / y
    if not disc > 0:
        return 1
    start = b + math.sqrt(disc) - (1 + kind.alpha / 2)
    if not start < max_index:  # also an overflowed start
        return max_index
    return math.ceil(start) if start > 1 else 1


def term_count(kind: ThetaKind, N: int) -> int:
    """Number of series terms in the symmetric partial sum S_N."""
    return 2 * N + 1 + kind.alpha


def _partial_sum(
    kind: ThetaKind, z: complex, tau: complex, N: int, shift: complex = 0j
) -> complex:
    """S_N: n = -N-alpha .. N, for the characteristic [alpha, beta] of kind.

    In the index m = n + alpha/2 the terms are t(m) = s^n e^{i pi (tau m^2
    + 2 m z)} with s = (-1)^beta (see ThetaKind), and |t(m)| =
    e^{-pi y m^2 - 2 pi m Im z} peaks at m* = -Im z / y.  The walk starts
    at c, the summed index nearest m*:

        t(m+1) = t(m) R(m),  R(m) = s e^{i pi (tau (2m+1) + 2z)},  R(m+1) = R(m) q^2
        t(m-1) = t(m) D(m),  D(m) = s e^{i pi (tau (1-2m) - 2z)},  D(m-1) = D(m) q^2

    with q^2 = e^{2 pi i tau}.  The upward side is c .. top and the
    downward side c-1 .. bottom.  Every start makes the same four exps,
    t(c), R(c), D(c) and q^2 (three at c = 0, where t(c) = 1); then
    t(c-1) = t(c) D(c) and D(c-1) = D(c) q^2.  q^2 is not R(c) D(c): R(c+k) holds q^2 to the k-th
    power, so the rounding of that product would enter it k times.  Only
    t(c) can overflow, exactly where a per-term sum would: a ratio of a
    walked side has modulus <= 1 because c is nearest the peak, and at a c
    clamped to an end of the range the unused outward ratio has
    log|t(c)| - log|R(c)| = pi y ((c-1)(2m* - c + 1) + 2) > 0 (and the
    mirror image for D(c)).

    The terms go into one total alternately, upward first, never pre-summed
    in pairs: then, from the same start, the additions of S_N are a
    subsequence of those of S_{N+k}, so the two differ by the added terms
    and not by a reordered rounding; and at z = 0 the downward terms of
    theta1 are the exact negatives of the upward ones, so the total is
    exactly 0.0.

    A nonzero ``shift`` multiplies every term by e^shift, folded into the
    exponent of t(c): a factor e^shift that overflows or underflows alone
    leaves the sum finite wherever its largest term is.
    """
    e = cmath.exp
    ipi = 1j * _PI
    alpha = kind.alpha
    lo = -N - alpha
    s = (1 - alpha) / 2 - z.imag / tau.imag  # c = j + alpha/2, nearest m*
    j = lo if s < lo else N if s >= N else math.floor(s)
    m = j + alpha / 2
    a = N - j + 1  # upward terms
    b = j - lo  # downward terms
    zz = 2 * z
    up = e(ipi * (tau * (m * m) + zz * m) + shift) if m or shift else 1.0 + 0.0j
    ru = e(ipi * (tau * (2 * m + 1) + zz))
    rd = e(ipi * (tau * (1 - 2 * m) - zz))
    q2 = e(2 * ipi * tau)
    if kind.beta:
        ru = -ru
        rd = -rd
        if j % 2:
            up = -up
    down = up * rd
    rd *= q2
    total = up
    n = 0
    if b:
        total += down
        n = (a if a < b else b) - 1
        for _ in range(n):
            up *= ru
            total += up
            ru *= q2
            down *= rd
            total += down
            rd *= q2
        if b > a:  # only the downward side is left
            up, ru, a = down, rd, b
    if a > n + 1:
        for _ in range(a - 1 - n):
            up *= ru
            total += up
            ru *= q2
    return -1j * total if kind is _THETA1 else total


def _real_periods(z: complex, tau: complex) -> tuple[complex, complex]:
    """(z, tau) moved by z+2 and T^8, which fix every kind, into |Re z| <= 1
    and |Re tau| <= 4; x - p round(x/p) is exact for p a power of two."""
    return z - 2 * round(z.real / 2), tau - 8 * round(tau.real / 8)


class SeriesEvaluation(NamedTuple):
    value: complex
    index: int
    terms: int


def theta_series_report(
    kind: ThetaKind,
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
    max_index: int = MAX_INDEX,
) -> SeriesEvaluation:
    """Certified evaluation, reporting the truncation index and term count.

    The sum is taken at the point :func:`_real_periods` gives.  A value
    beyond the float range (a term's modulus or phase overflows, or the sum
    is not finite) is a DomainError, raised outside any handler.
    """
    N = truncation_index(kind, z, tau, tol, max_index)
    w, t = _real_periods(z, tau)
    try:  # the largest term's exp, the only one that can overflow
        value = _partial_sum(kind, w, t, N)
    except (OverflowError, ValueError):
        value = math.inf
    if not cmath.isfinite(value):
        raise DomainError(
            f"{kind} at z = {z}, tau = {tau}: its largest term or its sum is beyond"
            " the float range"
        )
    return SeriesEvaluation(value, N, term_count(kind, N))


def theta_series(
    kind: ThetaKind,
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
    max_index: int = MAX_INDEX,
) -> complex:
    """Theta value within tol of the true value (tail certified < tol/2)."""
    return theta_series_report(kind, z, tau, tol, max_index).value


def theta1_sine_series(
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
    max_index: int = MAX_INDEX,
) -> complex:
    """theta1 via 2 sum_m (-1)^m q^{(m+1/2)^2} sin((2m+1) pi z).

    A deliberately different floating path (power + sin instead of paired
    exponentials) used as a mutual oracle for theta_series(THETA1, ...);
    the two agree within 2*tol.  It sums at the same point, and a term or a
    sum beyond the float range is a DomainError, as in theta_series_report.
    """
    N = truncation_index(ThetaKind.THETA1, z, tau, tol, max_index)
    w, t = _real_periods(z, tau)
    total = 0.0 + 0.0j
    sign = 1.0
    try:  # exp or sin of an overflowing or non-finite argument
        for m in range(0, N + 1):
            h = m + 0.5
            qpow = cmath.exp(1j * _PI * t * (h * h))
            total += sign * qpow * cmath.sin((2 * m + 1) * _PI * w)
            sign = -sign
    except (OverflowError, ValueError):
        total = math.inf
    value = 2.0 * total
    if not cmath.isfinite(value):  # raised outside the handler: nothing chained
        raise DomainError(
            f"theta1 at z = {z}, tau = {tau}: a term or the sine sum is beyond the"
            " float range"
        )
    return value


def half_period_shift(
    kind: ThetaKind, z: complex, tau: complex, tol: float = DEFAULT_TOL
) -> complex:
    """Evaluate the half-period partner of ``kind`` at z + 1/2.

    Callers combine this with the sign table in the module docstring, e.g.
    half_period_shift(THETA2, z, tau) equals theta2(z, tau) because
    theta1(z + 1/2) = theta2(z).  Its point errors name the caller's z.
    """
    require_upper_half(tau, z)  # before z + 1/2, which an int z can overflow
    return theta_series(HALF_PERIOD_PARTNER[kind], z + 0.5, tau, tol)
