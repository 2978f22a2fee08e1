"""Direct q-series evaluation of the four Jacobi theta functions.

With q = e^{i*pi*tau}, Im tau > 0:

    theta1(z,tau) = -i sum_n (-1)^n q^{(n+1/2)^2} e^{(2n+1) i pi z}
    theta2(z,tau) =    sum_n        q^{(n+1/2)^2} e^{(2n+1) i pi z}
    theta3(z,tau) =    sum_n        q^{n^2}       e^{2 n pi i z}
    theta4(z,tau) =    sum_n (-1)^n q^{n^2}       e^{2 n pi i z}

Terms are summed in symmetric +-n pairs (near-conjugate for real z, so the
pairing cancels rounding error and makes theta1(0, tau) exactly 0.0).  Each
exponential is evaluated as a single exp(i*pi*(...)) so no intermediate
factor can overflow.

Truncation is certified: the tail beyond the returned partial sum is bounded
by a geometric majorant of e^{-pi n^2 Im tau + 2 pi n |Im z|}, and the
evaluation refuses (PrecisionUnreachableError) rather than silently degrade
when the requested tolerance would need more than MAX_INDEX terms.  Argument
reduction for that regime lives in the transform module.

Half-period shifts z -> z + 1/2 pair the functions as theta1 <-> theta2 and
theta3 <-> theta4.  The sign conventions, fixed here by the series oracle,
are:

    theta1(z + 1/2) = theta2(z)      theta2(z + 1/2) = -theta1(z)
    theta3(z + 1/2) = theta4(z)      theta4(z + 1/2) = theta3(z)

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionUnreachableError, require_upper_half

DEFAULT_TOL = 1e-10
MAX_INDEX = 10**6

_PI = math.pi


class ThetaKind(enum.Enum):
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


HALF_PERIOD_PARTNER = {
    ThetaKind.THETA1: ThetaKind.THETA2,
    ThetaKind.THETA2: ThetaKind.THETA1,
    ThetaKind.THETA3: ThetaKind.THETA4,
    ThetaKind.THETA4: ThetaKind.THETA3,
}


def _half_integer_indices(kind: ThetaKind) -> bool:
    return kind in (ThetaKind.THETA1, ThetaKind.THETA2)


def truncation_bound(kind: ThetaKind, z: complex, tau: complex, N: int) -> float:
    """Upper bound on the absolute tail beyond the symmetric partial sum S_N.

    Every omitted term has magnitude e^{-pi y m^2 + 2 pi beta m} with
    y = Im tau, beta = |Im z| and m = |series index| (integers for
    theta3/theta4, half-integers for theta1/theta2).  Successive magnitudes
    shrink by at least r = e^{-pi y (2 m0 + 1) + 2 pi beta} from the first
    omitted index m0 on, so the tail is at most 2 t(m0) / (1 - r); +inf is
    returned when r >= 1 (bound not yet applicable at this N), when r
    rounds to 1, and when t(m0) would overflow.
    """
    require_upper_half(tau, z)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    return _tail_bound(kind, complex(tau).imag, abs(complex(z).imag), N)


def _tail_bound(kind: ThetaKind, y: float, beta: float, N: int) -> float:
    """truncation_bound for validated y = Im tau > 0 and beta = |Im z|."""
    m0 = N + 1.5 if _half_integer_indices(kind) else N + 1.0
    log_ratio = -_PI * y * (2 * m0 + 1) + 2 * _PI * beta
    if log_ratio >= 0:
        return math.inf
    log_t0 = -_PI * y * m0 * m0 + 2 * _PI * beta * m0
    denominator = 1.0 - math.exp(log_ratio)  # 0.0 when r rounds to 1
    if log_t0 > 700.0 or denominator <= 0.0:
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

    One evaluation at N = max_index decides reachability: the bound is +inf
    on a prefix of N and strictly decreasing after it.  With r_N the ratio
    at N, t(m0+1)/t(m0) = r_N and r_{N+1} = r_N e^{-2 pi y}, so
    bound(N+1)/bound(N) = r_N (1 - r_N)/(1 - r_{N+1}) < r_N < 1; and since
    log t(m0) falls by -log r_N > 0 a step, the overflow cut-off cannot
    return after a finite stretch.
    """
    if not tol > 0:  # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    require_upper_half(tau, z)
    if max_index < 1:
        raise DomainError(f"max_index must be >= 1, got {max_index}")
    target = tol / 2.0
    y, beta = complex(tau).imag, abs(complex(z).imag)
    achievable = _tail_bound(kind, y, beta, max_index)
    if not achievable < target:
        raise PrecisionUnreachableError(tol, achievable, max_index)
    for N in range(1, max_index):
        if _tail_bound(kind, y, beta, N) < target:
            return N
    return max_index


def term_count(kind: ThetaKind, N: int) -> int:
    """Number of series terms in the symmetric partial sum S_N."""
    return 2 * N + 2 if _half_integer_indices(kind) else 2 * N + 1


def _partial_sum(kind: ThetaKind, z: complex, tau: complex, N: int) -> complex:
    """S_N: indices |n| <= N (theta3/4), or n = -N-1 .. N (theta1/2)."""
    e = cmath.exp
    ipi = 1j * _PI
    if kind is ThetaKind.THETA3 or kind is ThetaKind.THETA4:
        total = 1.0 + 0.0j
        sign = 1.0
        for n in range(1, N + 1):
            if kind is ThetaKind.THETA4:
                sign = -sign
            w = tau * (n * n)
            total += sign * (e(ipi * (w + 2 * n * z)) + e(ipi * (w - 2 * n * z)))
        return total
    total = 0.0 + 0.0j
    sign = 1.0
    for n in range(0, N + 1):
        h = n + 0.5
        w = tau * (h * h)
        u = (2 * n + 1) * z
        plus = e(ipi * (w + u))
        minus = e(ipi * (w - u))
        if kind is ThetaKind.THETA2:
            total += plus + minus
        else:
            total += sign * (plus - minus)
            sign = -sign
    return total if kind is ThetaKind.THETA2 else -1j * total


@dataclass(frozen=True)
class SeriesEvaluation:
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
    """Certified evaluation, reporting the truncation index and term count."""
    N = truncation_index(kind, z, tau, tol, max_index)
    return SeriesEvaluation(_partial_sum(kind, z, tau, N), N, term_count(kind, N))


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
    the two agree within 2*tol.
    """
    N = truncation_index(ThetaKind.THETA1, z, tau, tol, max_index)
    total = 0.0 + 0.0j
    sign = 1.0
    for m in range(0, N + 1):
        h = m + 0.5
        qpow = cmath.exp(1j * _PI * tau * (h * h))
        total += sign * qpow * cmath.sin((2 * m + 1) * _PI * z)
        sign = -sign
    return 2.0 * total


def half_period_shift(
    kind: ThetaKind, z: complex, tau: complex, tol: float = DEFAULT_TOL
) -> complex:
    """Evaluate the half-period partner of ``kind`` at z + 1/2.

    Callers combine this with the sign table in the module docstring, e.g.
    half_period_shift(THETA2, z, tau) equals theta2(z, tau) because
    theta1(z + 1/2) = theta2(z).
    """
    return theta_series(HALF_PERIOD_PARTNER[kind], z + 0.5, tau, tol)
