"""Full transformation laws and argument-reduced fast evaluation.

The theta1 law for A = (a b; c d), c > 0, Im tau > 0:

    theta1(z/(c tau+d), A tau)
        = epsilon1(A) (-i(c tau+d))^{1/2} e^{i pi c z^2/(c tau+d)} theta1(z, tau)

and for c = 0 the translation law theta1(z, tau+m) = e^{i pi m/4} theta1(z, tau).
The level-2 laws for theta2/3/4 have the same shape; multipliers.law_phase
gives the unit factor of every kind, and :func:`_law_factor` assembles the
whole factor once for both predictors.

Branch safety: for c > 0 and Im tau > 0, Re(-i(c tau+d)) = c Im tau > 0, so
-i(c tau+d) stays in the open right half-plane and the principal square root
is continuous and nonvanishing on all admissible inputs; no case analysis is
needed.

Fast evaluation reduces tau into the fundamental domain (|Re| <= 1/2,
|tau| >= 1, where |q| <= e^{-pi sqrt(3)/2} ~ 0.066) and divides the
transformation factors back out.  The reducing matrix is generally not
level-2, so theta2/3/4 are tracked letter by letter through the
one-generator laws of :func:`apply_letter` (theta1 always maps to itself);
the chained theta1 prediction walks its generator word through the same
function.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DomainError, require_upper_half
from .modgroup import (
    GeneratorWord,
    Letter,
    Sl2Matrix,
    decompose_gamma,
    normalize_sign,
    recompose,
)
from .multipliers import law_phase
from .series import (
    _THETA1,
    _THETA2,
    _THETA3,
    _THETA4,
    DEFAULT_TOL,
    MAX_INDEX,
    ThetaKind,
    theta_series,
    theta_series_report,
)


def automorphy_sqrt(A: Sl2Matrix, tau: complex) -> complex:
    """Principal (-i(c tau+d))^{1/2} for c > 0; 1 for c = 0, d > 0.

    The c = 0 case is the translation T^m (d = 1 once normalized), whose law
    carries no weight factor.  A matrix normalize_sign would negate is refused.
    """
    require_upper_half(tau)
    if normalize_sign(A)[1]:
        raise DomainError(f"automorphy_sqrt needs c > 0 or (c = 0, d > 0), not {A}")
    if A.c == 0:
        return 1 + 0j
    return cmath.sqrt(-1j * (A.c * tau + A.d))


def _gaussian(A: Sl2Matrix, z: complex, tau: complex) -> complex:
    """e^{i pi c z^2/(c tau+d)}, the Gaussian factor of the law."""
    return cmath.exp(1j * math.pi * A.c * z * z / (A.c * tau + A.d))


def _law_factor(kind: ThetaKind, A: Sl2Matrix, z: complex, tau: complex) -> complex:
    """law_phase * (-i(c tau+d))^{1/2} * Gaussian; root and Gaussian are 1 at c = 0."""
    phase = law_phase(kind, A).to_complex()
    return phase * automorphy_sqrt(A, tau) * _gaussian(A, z, tau)


def conditioning_factor(A: Sl2Matrix, z: complex, tau: complex) -> float:
    """kappa = |e^{i pi c z^2/(c tau+d)}| (1 + |c tau+d|^{1/2}).

    Residual tolerances scale by kappa so that honest rounding in the
    exponential prefactor is not misread as a failed identity at large |z|.
    """
    if A.c == 0:
        return 1.0
    return abs(_gaussian(A, z, tau)) * (1.0 + math.sqrt(abs(A.c * tau + A.d)))


def predict_theta1(
    A: Sl2Matrix, z: complex, tau: complex, tol: float = DEFAULT_TOL
) -> complex:
    """Right-hand side of the theta1 law: the predicted theta1(z/(c tau+d), A tau).

    For c = 0 (A = T^m) this is the translation law e^{i pi m/4} theta1(z, tau).
    Agreement with the directly summed left-hand side within tol * kappa is
    the tested contract.  The factor comes first, so a refused matrix sums
    no series.
    """
    return _law_factor(_THETA1, A, z, tau) * theta_series(_THETA1, z, tau, tol)


def predict_theta_gamma2(
    kind: ThetaKind,
    A: Sl2Matrix,
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
) -> complex:
    """Predicted theta_kind(z/(c tau+d), A tau) for a level-2 matrix.

    For c = 0 (A = T^{2m}) this is the period-2 law: theta3/theta4 are
    invariant, theta2 picks up e^{i pi m/2}.
    """
    if kind is ThetaKind.THETA1:
        raise DomainError("predict_theta_gamma2 applies to theta2/3/4")
    return _law_factor(kind, A, z, tau) * theta_series(kind, z, tau, tol)


def apply_letter(
    kind: ThetaKind,
    letter: Letter,
    z: complex,
    tau: complex,
    factor: complex = 1 + 0j,
) -> tuple[ThetaKind, complex, complex, complex]:
    """Carry factor * theta_kind(z, tau) across one generator letter L.

    Returns (kind', factor', z', tau') with (z', tau') = (z/(c tau+d), L tau)
    and factor * theta_kind(z, tau) = factor' * theta_kind'(z', tau'), for
    L = T^m or S (anything else is a DomainError).  This is the one home of
    the one-generator laws; with J = (-i tau)^{1/2} e^{i pi z^2/tau} they are

        tau -> tau+1:  theta1 -> e^{i pi/4} theta1   theta2 -> e^{i pi/4} theta2
                       theta3 -> theta4              theta4 -> theta3
        tau -> -1/tau (z -> z/tau):
                       theta1 -> -i J theta1         theta3 -> J theta3
                       theta2 -> J theta4            theta4 -> J theta2

    and every entry is pinned by the series oracle in the test suite.  The
    factor is updated in place, never multiplied by a per-letter unit:
    theta3/4 under T^m leave it untouched, so an overflowed factor stays
    inf instead of turning into nan.
    """
    if letter.gen == "T":
        m = letter.exp
        if kind is _THETA1 or kind is _THETA2:
            factor *= cmath.exp(-1j * math.pi * m / 4)
        elif m % 2 != 0:
            kind = _THETA4 if kind is _THETA3 else _THETA3
        return kind, factor, z, tau + m
    if letter.gen == "S" and letter.exp == 1:
        J = cmath.sqrt(-1j * tau) * cmath.exp(1j * math.pi * z * z / tau)
        if kind is _THETA1:
            factor *= 1j / J
        else:
            factor /= J
            if kind is not _THETA3:
                kind = _THETA4 if kind is _THETA2 else _THETA2
        return kind, factor, z / tau, -1 / tau
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
    base = theta_series(ThetaKind.THETA1, z, tau, tol)
    kind, factor = ThetaKind.THETA1, 1 + 0j
    for letter in reversed(word.letters):
        kind, factor, z, tau = apply_letter(kind, letter, z, tau, factor)
    value = base / factor
    return value if word.sign == 1 else -value


def reduce_tau(tau: complex) -> tuple[Sl2Matrix, complex]:
    """Reduce tau into |Re| <= 1/2, |tau'| >= 1 - 1e-12; returns (A, A tau).

    Alternates integer shifts with inversions; the imaginary part strictly
    increases at every inversion inside the strip, so the loop terminates.
    """
    require_upper_half(tau)
    word, tau_red, _ = _reduce_steps(tau)
    return recompose(word), tau_red


def _reduce_steps(tau: complex) -> tuple[GeneratorWord, complex, list[Letter]]:
    """Reduction word, reduced point, and the letters in application order.

    The word lists the letters last-applied first, so recompose(word) is the
    reducing matrix; no matrix is multiplied here.  tau must already have
    passed require_upper_half.
    """
    steps: list[Letter] = []
    t = complex(tau)
    for _ in range(10000):
        m = round(t.real)
        if m != 0:
            t = t - m
            steps.append(Letter("T", -m))
        if abs(t) < 1.0 - 1e-12:
            t = -1 / t
            steps.append(Letter("S"))
            if not cmath.isfinite(t):  # e.g. Im tau = 1e-320 at Re tau = 1/2
                raise DomainError(f"reducing tau = {tau} leaves the float range")
        else:
            return GeneratorWord(tuple(reversed(steps))), t, steps
    raise RuntimeError(f"fundamental-domain reduction did not terminate for {tau}")


class FastEvaluation(NamedTuple):
    value: complex
    terms: int
    tau_reduced: complex
    reduced_kind: ThetaKind
    word: GeneratorWord

    @property
    def reduction(self) -> Sl2Matrix:
        """The reducing matrix A, with A tau = tau_reduced; recomputed on each read."""
        return recompose(self.word)


def eval_fast_report(
    kind: ThetaKind,
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
    max_index: int = MAX_INDEX,
) -> FastEvaluation:
    """Argument-reduced evaluation with term-count telemetry.

    Walks the reduction letters through :func:`apply_letter`, tracking
    which theta function and which prefactor they produce, then sums the
    series once at the reduced point where it converges in a handful of
    terms.
    """
    if not 0 < tol < math.inf:  # NaN too; names the caller's tol, not tol/|factor|
        raise DomainError(f"tol must be positive and finite, got {tol}")
    require_upper_half(tau, z)
    word, _, steps = _reduce_steps(tau)
    kind_c, factor, z_c, tau_c = kind, 1.0 + 0.0j, complex(z), complex(tau)
    for letter in steps:
        kind_c, factor, z_c, tau_c = apply_letter(kind_c, letter, z_c, tau_c, factor)
    inner_tol = tol / max(abs(factor), 1.0)
    if not inner_tol > 0:  # NaN too; the factor, not the caller's tol, is at fault
        raise DomainError(f"reduction prefactor {factor} out of range for tol {tol}")
    rep = theta_series_report(kind_c, z_c, tau_c, inner_tol, max_index)
    return FastEvaluation(
        value=factor * rep.value,
        terms=rep.terms,
        tau_reduced=tau_c,
        reduced_kind=kind_c,
        word=word,
    )


def eval_fast(
    kind: ThetaKind,
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
    max_index: int = MAX_INDEX,
) -> complex:
    """Theta value via fundamental-domain reduction; agrees with the direct
    series within tol * kappa wherever the direct series is feasible."""
    return eval_fast_report(kind, z, tau, tol, max_index).value
