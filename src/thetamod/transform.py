"""Full transformation laws and argument-reduced fast evaluation.

The theta1 law for A = (a b; c d), c > 0, Im tau > 0:

    theta1(z/(c tau+d), A tau)
        = epsilon1(A) (-i(c tau+d))^{1/2} e^{i pi c z^2/(c tau+d)} theta1(z, tau)

and for c = 0 the translation law theta1(z, tau+m) = e^{i pi m/4} theta1(z, tau).
Every kind has a law of the same shape for every A, to the kind and unit
that series._char_law gives (gamma2_alpha(kind, A) epsilon1(A) on level 2
for theta2/3/4).  :func:`_law` is the one implementation of them all, as one
exponent and an image point; eval_fast and :func:`reduce_tau` apply it on
the reducing matrix, and the predictors, which the theorem suites check, on
theirs.

Branch safety: for c > 0 and Im tau > 0, Re(-i(c tau+d)) = c Im tau > 0, so
-i(c tau+d) stays in the open right half-plane, where the principal Log, and
the root e^{Log/2}, are continuous; no case analysis is needed.

Fast evaluation reduces tau into the fundamental domain (|Re| <= 1/2,
|tau| >= 1, where |q| <= e^{-pi sqrt(3)/2} ~ 0.066) and divides the
transformation factor back out in one step, with the exact integer matrix
(as Johansson, arXiv:1806.06725, does); z is then reduced by
quasi-periodicity into |Im z'| <= Im tau'/2, so the series sums a handful
of terms wherever z lies (see :func:`eval_fast_report`).  eval_fast and
eval_fast_report share one kernel, :func:`_eval_fast`: it checks the
caller's arguments once, hands the point it reduced straight to series'
truncation core, and eval_fast builds no record from its pieces.
:func:`apply_letter` holds theta1's two generator laws alone, the paper's
eq1 and eq2, off both paths: it is the independent chained oracle that
:func:`predict_theta1_chained` walks (the eq1, eq2 and chain-vs-direct
suites), and it shares no code with :func:`_law`.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DomainError, checked_tol, require_count, require_upper_half
from .modgroup import (
    GeneratorWord,
    Letter,
    Sl2Matrix,
    decompose_gamma,
    normalize_sign,
)
from .multipliers import _require_gamma2, _theta1_q
from .series import (
    _THETA1,
    DEFAULT_TOL,
    MAX_INDEX,
    ThetaKind,
    _char_law,
    _partial_sum,
    _truncation_index,
    term_count,
    theta_series,
)

_INF = complex(math.inf, math.inf)
_F_SLACK = 1e-12  # a reduced tau is in |Re| <= 1/2 + slack, |tau| >= 1 - slack


def conditioning_factor(A: Sl2Matrix, z: complex, tau: complex) -> float:
    """kappa = |e^{i pi c z^2/(c tau+d)}| (1 + |c tau+d|^{1/2}).

    Residual tolerances scale by kappa so that honest rounding in the
    exponential prefactor is not misread as a failed identity at large |z|.
    A kappa outside the float range is a DomainError.  kappa judges the law,
    so its Gaussian is its own, not :func:`_law`'s.
    """
    if A.c == 0:
        return 1.0
    try:
        j = A.c * tau + A.d
        kappa = abs(cmath.exp(1j * math.pi * A.c * z * z / j)) * (1 + math.sqrt(abs(j)))
    except (OverflowError, ValueError):  # exp of an overflowing or non-finite exponent
        kappa = math.inf
    if kappa < math.inf:  # not NaN either
        return kappa
    raise DomainError(
        f"conditioning factor of {A} at z = {z}, tau = {tau} is not finite"
    )


def _predict(
    kind: ThetaKind, A: Sl2Matrix, z: complex, tau: complex, tol: float
) -> complex:
    """theta_kind(z/(c tau+d), A tau) as theta_series(kind, z, tau) e^{-exponent}.

    e^{-exponent} comes first, so a refused matrix sums no series.  A
    c tau+d, law factor or value beyond the float range is a DomainError,
    raised outside any handler."""
    require_upper_half(tau, z)  # a non-finite z is named as such, not as an overflow
    if normalize_sign(A)[1]:
        raise DomainError(f"the law needs c > 0 or (c = 0, d > 0), not {A}")
    try:
        exponent = _law(kind, A, z, tau)[0]
        scale = cmath.exp(-exponent) if cmath.isfinite(exponent) else _INF
    except OverflowError:  # Re j or e^{-exponent} beyond the floats
        scale = _INF
    if cmath.isfinite(scale):
        value = theta_series(kind, z, tau, tol) * scale
        if cmath.isfinite(value):
            return value
    raise DomainError(
        f"law factor of {A} at z = {z}, tau = {tau} is beyond the float range"
    )


def predict_theta1(
    A: Sl2Matrix, z: complex, tau: complex, tol: float = DEFAULT_TOL
) -> complex:
    """Right-hand side of the theta1 law: the predicted theta1(z/(c tau+d), A tau),
    e^{i pi m/4} theta1(z, tau) for A = T^m.  Agreement with the directly
    summed left-hand side within tol * kappa is the tested contract."""
    return _predict(_THETA1, A, z, tau, tol)


def predict_theta_gamma2(
    kind: ThetaKind, A: Sl2Matrix, z: complex, tau: complex, tol: float = DEFAULT_TOL
) -> complex:
    """Predicted theta_kind(z/(c tau+d), A tau) for a level-2 matrix; for
    A = T^{2m} theta3/theta4 are invariant and theta2 picks up e^{i pi m/2}.
    Other kinds and matrices are refused as gamma2_alpha refuses them."""
    _require_gamma2(kind, A)
    return _predict(kind, A, z, tau, tol)


def apply_letter(
    letter: Letter, z: complex, tau: complex, factor: complex = 1 + 0j
) -> tuple[complex, complex, complex]:
    """Carry factor * theta1(z, tau) across one generator letter L.

    Returns (factor', z', tau') with (z', tau') = (z/(c tau+d), L tau) and
    factor * theta1(z, tau) = factor' * theta1(z', tau'), for L = T^m with m
    an int, or S; anything else is a DomainError.  These are theta1's two
    generator laws, the paper's eq1 and eq2; with
    J = (-i tau)^{1/2} e^{i pi z^2/tau}:

        tau -> tau+m:                theta1 -> e^{i pi m/4} theta1
        tau -> -1/tau (z -> z/tau):  theta1 -> -i J theta1
    """
    gen, m = letter
    if type(m) is not int:  # no bool, no float
        raise DomainError(f"a letter's exponent is an int, not {m!r}")
    if gen == "T":
        return factor * cmath.exp(-1j * math.pi * m / 4), z, tau + m
    if gen == "S" and m == 1:
        J = cmath.sqrt(-1j * tau) * cmath.exp(1j * math.pi * z * z / tau)
        return factor * (1j / J), z / tau, -1 / tau
    raise DomainError(f"apply_letter takes T^m or S, not {letter}")


def predict_theta1_chained(
    A: Sl2Matrix, z: complex, tau: complex, tol: float = DEFAULT_TOL
) -> complex:
    """theta1(z/(c tau+d), A tau) predicted letter-by-letter along the word.

    Each letter applies only its one-generator law through
    :func:`apply_letter`; the word's recorded sign is absorbed through the
    oddness of theta1.  Matching the single-shot prediction is the
    chained-induction invariant.
    """
    word = decompose_gamma(A)
    base = theta_series(_THETA1, z, tau, tol)
    factor = 1 + 0j
    for letter in reversed(word.letters):
        factor, z, tau = apply_letter(letter, z, tau, factor)
    value = base / factor
    return value if word.sign == 1 else -value


def reduce_tau(tau: complex) -> tuple[Sl2Matrix, complex]:
    """Reduce tau into |Re| <= 1/2, |tau'| >= 1 - _F_SLACK; returns (A, A tau).

    A is the matrix of :func:`_reduce_steps` and A tau its law's image, the
    tau' eval_fast sums at.  Where A tau misses that domain (the float loop
    has lost tau, below Im tau ~ 1e-14) it is a DomainError naming tau.
    """
    require_upper_half(tau)
    entries = _reduce_steps(tau)[0]
    tau_c = _law(_THETA1, entries, 0j, tau)[2]
    if abs(tau_c.real) <= 0.5 + _F_SLACK and abs(tau_c) >= 1 - _F_SLACK:
        return Sl2Matrix(*entries), tau_c
    raise DomainError(f"reducing tau = {tau} misses the fundamental domain in floats")


def _reduce_steps(tau: complex) -> tuple[tuple[int, int, int, int], complex, list[int]]:
    """Reduce tau, carrying the reducing matrix: returns ((a, b, c, d), tau', letters).

    A = (a b; c d) is the left product of the letters, not normalized, and
    A tau = tau'.  The letters are ints in application order: T^k as k != 0,
    S as 0.  tau must already have passed require_upper_half.
    """
    letters: list[int] = []
    a, b, c, d = 1, 0, 0, 1
    t = complex(tau)
    edge = 1.0 - _F_SLACK
    for _ in range(10000):
        m = round(t.real)
        if m != 0:
            t = t - m
            a, b = a - m * c, b - m * d  # T^-m A
            letters.append(-m)
        if abs(t) < edge:
            t = -1 / t
            a, b, c, d = -c, -d, a, b  # S A
            letters.append(0)
            if not cmath.isfinite(t):  # e.g. Im tau = 1e-320 at Re tau = 1/2
                raise DomainError(f"reducing tau = {tau} leaves the float range")
        else:
            return (a, b, c, d), t, letters
    raise RuntimeError(f"fundamental-domain reduction did not terminate for {tau}")


class FastEvaluation(NamedTuple):
    value: complex
    terms: int
    tau_reduced: complex
    reduced_kind: ThetaKind
    letters: tuple[int, ...]  # applied first to last: T^k as k != 0, S as 0
    entries: tuple[int, int, int, int]  # (a, b, c, d) of the reducing matrix

    @property
    def word(self) -> GeneratorWord:
        """The reduction word, last-applied letter first; built on each read."""
        return GeneratorWord(
            tuple(Letter("T", k) if k else Letter("S") for k in reversed(self.letters))
        )

    @property
    def reduction(self) -> Sl2Matrix:
        """The reducing matrix A, with A tau = tau_reduced; built on each read."""
        return Sl2Matrix(*self.entries)


def _law(
    kind: ThetaKind, entries: tuple[int, ...], z: complex, tau: complex
) -> tuple[complex, complex, complex, ThetaKind]:
    """The law of A = (a b; c d) as (exponent, z_c, tau_c, kind'), with
    theta_kind(z, tau) = e^exponent theta_kind'(z_c, tau_c).

    A and -A act alike, so A is first taken with c > 0 or (c = 0, d = 1).
    With j = c tau + d: z_c = z/j, tau_c = A tau and exponent =
    i pi k/12 - Log(-i j)/2 - i pi c z z_c, where e^{i pi k/12} is
    e^{i pi rel/12} (kind' against theta1, by series._char_law) over
    theta1's multiplier, k in [-12, 12) to round least; for A = T^b,
    i pi k/12 at (z, tau + b).  Re j is rounded once, from the exact ratio
    of Re tau; one beyond the floats raises OverflowError."""
    a, b, c, d = entries
    if c < 0 or not c and d < 0:
        a, b, c, d = -a, -b, -c, -d
    kind_c, rel = _char_law(kind, a, b, c, d)
    if not c:  # A = T^b: theta1 and theta2 pick up e^{i pi b/4}, nothing else
        return 1j * math.pi * ((rel - 3 * b + 12) % 24 - 12) / 12, z, tau + b, kind_c
    p, q = tau.real.as_integer_ratio()
    j = (c * p + d * q) / q + 1j * (c * tau.imag)  # Re j rounded once
    z_c = z / j
    k = (rel - _theta1_q(a, c, d) + 12) % 24 - 12
    gauss = 1j * math.pi * c * z * z_c  # i pi c z^2/j
    exponent = 1j * math.pi * k / 12 - 0.5 * cmath.log(-1j * j) - gauss
    return exponent, z_c, a / c - 1 / (c * j), kind_c


def _eval_fast(
    kind: ThetaKind, z: complex, tau: complex, tol: float, max_index: int
) -> tuple[complex, int, complex, ThetaKind, list[int], tuple[int, int, int, int]]:
    """The kernel of eval_fast and eval_fast_report: their raw pieces
    (value, N, tau_c, kind_c, letters, entries), with the caller's arguments
    checked once and the reduced point, which it builds, not again."""
    tol = checked_tol(tol)  # names the caller's tol, not inner_tol
    require_upper_half(tau, z)
    z = complex(z)
    n = round(z.real) if abs(z.real) > 0.5 else 0
    entries, _, letters = _reduce_steps(tau)
    exponent, z_c, tau_c, kind_c = _law(kind, entries, z - n, tau)
    # z_c = w + m tau_c with Im w in [-Im tau_c/2, Im tau_c/2]
    ratio = z_c.imag / tau_c.imag if tau_c.imag > 0 else math.nan
    if not (math.isfinite(ratio) and cmath.isfinite(tau_c)):
        raise DomainError(f"reducing z = {z}, tau = {tau} leaves the float range")
    m = round(ratio)
    w = z_c - m * tau_c
    shift = exponent - 1j * math.pi * m * (z_c + w)  # -i pi (m^2 tau_c + 2 m w)
    if m % 2 and kind_c.beta:
        shift += 1j * math.pi  # s^m = -1
    inner_tol = tol if shift.real <= 0 else tol * math.exp(-shift.real)  # NaN stays NaN
    value = _INF
    if inner_tol / 2 > 0 and cmath.isfinite(shift):  # else the value's scale overflows
        require_count("max_index", max_index)  # only here: reduction errors come first
        N = _truncation_index(kind_c, tau_c.imag, abs(w.imag), inner_tol, max_index)
        try:  # the largest term's exp overflows, or a ratio's phase (a huge Re w)
            value = _partial_sum(kind_c, w, tau_c, N, shift)
        except (OverflowError, ValueError):
            pass
    if not cmath.isfinite(value):  # raised outside the handler: nothing chained
        raise DomainError(
            f"{kind} at z = {z}, tau = {tau} is beyond the float range"
            f" (log-scale {shift.real:.6g})"
        )
    if n % 2 and kind.alpha:
        value = -value
    return value, N, tau_c, kind_c, letters, entries


def eval_fast_report(
    kind: ThetaKind,
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
    max_index: int = MAX_INDEX,
) -> FastEvaluation:
    """Argument-reduced evaluation with term-count telemetry.

    A z with |Re z| > 1/2 is first moved by the nearest integer n to z - n,
    exact in floats: the value is that at z - n times (-1)^{alpha n} (see
    ThetaKind).  It reduces tau with the integer matrix A and applies the law
    of A once, :func:`_law`, which names the kind' it leads to.  Then
    z_c = z/(c tau+d) is reduced by quasi-periodicity (DLMF 20.2(ii)): with
    m = round(Im z_c / Im tau_c) and w = z_c - m tau_c,

        theta_kind'(z_c, tau_c)
            = s^m e^{-i pi (m^2 tau_c + 2 m w)} theta_kind'(w, tau_c)

    with s = (-1)^beta of kind'.  The series is summed once, at (w, tau_c),
    where |Im w| <= Im tau_c / 2 puts its peak at index 0 or +-1/2 and it
    converges in a handful of terms.  The law's exponent, the z shift's and
    i pi where s^m = -1 make one shift, folded into the exponent of the
    largest term: each may overflow or underflow alone while the value is a
    float.  The truncation target is tol / |e^shift|, so the value's absolute
    error stays within tol.  A reduced point outside the floats, a value
    beyond the float range, and a scale e^shift at which that target
    underflows (even the rounding of the sum is beyond the floats there) are
    DomainErrors naming the caller's z and tau, the last two also Re shift,
    the log-scale.  They are raised outside any handler: they chain no inner
    exception, and their tracebacks hold only the frames they passed through.
    """
    value, N, tau_c, kind_c, letters, entries = _eval_fast(kind, z, tau, tol, max_index)
    return FastEvaluation(
        value, term_count(kind_c, N), tau_c, kind_c, tuple(letters), entries
    )


def eval_fast(
    kind: ThetaKind,
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
    max_index: int = MAX_INDEX,
) -> complex:
    """Theta value via fundamental-domain reduction; agrees with the direct
    series within tol * kappa wherever the direct series is feasible.  A
    value beyond the float range is a DomainError.  It is eval_fast_report's
    value from the same kernel, with no record built."""
    return _eval_fast(kind, z, tau, tol, max_index)[0]
