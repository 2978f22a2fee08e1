"""Full transformation laws and argument-reduced fast evaluation.

The theta1 law for A = (a b; c d), c > 0, Im tau > 0:

    theta1(z/(c tau+d), A tau)
        = epsilon1(A) (-i(c tau+d))^{1/2} e^{i pi c z^2/(c tau+d)} theta1(z, tau)

and for c = 0 the translation law theta1(z, tau+m) = e^{i pi m/4} theta1(z, tau).

Branch safety: for c > 0 and Im tau > 0, Re(-i(c tau+d)) = c Im tau > 0, so
-i(c tau+d) stays in the open right half-plane and the principal square root
is continuous and nonvanishing on all admissible inputs; no case analysis is
needed.

The level-2 laws for theta2/3/4 use the plain (c tau+d)^{1/2}; the matching
multiplier convention lives in multipliers.gamma2_prefactor.

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
from dataclasses import dataclass

from .errors import DomainError, require_upper_half
from .modgroup import (
    IDENTITY,
    GeneratorWord,
    Letter,
    S,
    Sl2Matrix,
    decompose_gamma,
    is_gamma2,
    translation,
)
from .multipliers import gamma2_prefactor, theta1_epsilon
from .series import (
    DEFAULT_TOL,
    MAX_INDEX,
    ThetaKind,
    theta_series,
    theta_series_report,
)

def _require_normalized(A: Sl2Matrix, op: str) -> None:
    if A.c < 0 or (A.c == 0 and A.d < 0):
        raise DomainError(f"{op} needs c > 0 or (c = 0, d > 0); normalize first")


def automorphy_sqrt(A: Sl2Matrix, tau: complex) -> complex:
    """Principal (-i(c tau+d))^{1/2} for c > 0; sqrt(d) = 1 for c = 0, d > 0.

    The c = 0 case belongs to the translation law, which carries no weight
    factor, hence the convention sqrt(d) rather than sqrt(-i d).
    """
    require_upper_half(tau)
    _require_normalized(A, "automorphy_sqrt")
    if A.c == 0:
        return complex(math.sqrt(A.d))
    return cmath.sqrt(-1j * (A.c * tau + A.d))


def conditioning_factor(A: Sl2Matrix, z: complex, tau: complex) -> float:
    """kappa = |e^{i pi c z^2/(c tau+d)}| (1 + |c tau+d|^{1/2}).

    Residual tolerances scale by kappa so that honest rounding in the
    exponential prefactor is not misread as a failed identity at large |z|.
    """
    if A.c == 0:
        return 1.0
    w = A.c * tau + A.d
    return abs(cmath.exp(1j * math.pi * A.c * z * z / w)) * (1.0 + math.sqrt(abs(w)))


def predict_theta1(
    A: Sl2Matrix, z: complex, tau: complex, tol: float = DEFAULT_TOL
) -> complex:
    """Right-hand side of the theta1 law: the predicted theta1(z/(c tau+d), A tau).

    For c = 0 (A = T^m) this is the translation law e^{i pi m/4} theta1(z, tau).
    Agreement with the directly summed left-hand side within tol * kappa is
    the tested contract.
    """
    _require_normalized(A, "predict_theta1")
    base = theta_series(ThetaKind.THETA1, z, tau, tol)
    if A.c == 0:
        return cmath.exp(1j * math.pi * A.b / 4) * base
    w = A.c * tau + A.d
    return (
        theta1_epsilon(A).to_complex()
        * automorphy_sqrt(A, tau)
        * cmath.exp(1j * math.pi * A.c * z * z / w)
        * base
    )


def predict_theta_gamma2(
    kind: ThetaKind,
    A: Sl2Matrix,
    z: complex,
    tau: complex,
    tol: float = DEFAULT_TOL,
) -> complex:
    """Predicted theta_kind(z/(c tau+d), A tau) for a level-2 matrix.

    c > 0 uses the full law alpha * epsilon1' * (c tau+d)^{1/2} * gaussian;
    c = 0 (A = T^{2m}) routes to the period-2 laws: theta3/theta4 are
    invariant, theta2 picks up e^{i pi m/2}.
    """
    if kind is ThetaKind.THETA1:
        raise DomainError("predict_theta_gamma2 applies to theta2/3/4")
    if not is_gamma2(A):
        raise DomainError(f"{A} is not congruent to the identity mod 2")
    _require_normalized(A, "predict_theta_gamma2")
    base = theta_series(kind, z, tau, tol)
    if A.c == 0:
        m = A.b // 2
        if kind is ThetaKind.THETA2:
            return cmath.exp(1j * math.pi * m / 2) * base
        return base
    w = A.c * tau + A.d
    return (
        gamma2_prefactor(kind, A).to_complex()
        * cmath.sqrt(w)
        * cmath.exp(1j * math.pi * A.c * z * z / w)
        * base
    )


_SHIFT_SWAP = {ThetaKind.THETA3: ThetaKind.THETA4, ThetaKind.THETA4: ThetaKind.THETA3}
_INVERT_SWAP = {
    ThetaKind.THETA2: ThetaKind.THETA4,
    ThetaKind.THETA3: ThetaKind.THETA3,
    ThetaKind.THETA4: ThetaKind.THETA2,
}


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
        if kind is ThetaKind.THETA1 or kind is ThetaKind.THETA2:
            factor *= cmath.exp(-1j * math.pi * m / 4)
        elif m % 2 != 0:
            kind = _SHIFT_SWAP[kind]
        return kind, factor, z, tau + m
    if letter.gen == "S":
        J = cmath.sqrt(-1j * tau) * cmath.exp(1j * math.pi * z * z / tau)
        if kind is ThetaKind.THETA1:
            factor *= 1j / J
        else:
            factor /= J
            kind = _INVERT_SWAP[kind]
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
    A, tau_red, _ = _reduce_steps(tau)
    return A, tau_red


def _reduce_steps(tau: complex) -> tuple[Sl2Matrix, complex, list[Letter]]:
    """Reduction matrix, reduced point, and the letters in application order.

    tau must already have passed require_upper_half.
    """
    A = IDENTITY
    steps: list[Letter] = []
    t = complex(tau)
    for _ in range(10000):
        m = round(t.real)
        if m != 0:
            t = t - m
            A = translation(-m) * A
            steps.append(Letter("T", -m))
        if abs(t) < 1.0 - 1e-12:
            t = -1 / t
            A = S * A
            steps.append(Letter("S"))
        else:
            return A, t, steps
    raise RuntimeError(f"fundamental-domain reduction did not terminate for {tau}")


@dataclass(frozen=True)
class FastEvaluation:
    value: complex
    terms: int
    index: int
    reduction: Sl2Matrix
    tau_reduced: complex
    reduced_kind: ThetaKind
    word: GeneratorWord


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
    require_upper_half(tau, z)
    A, _, steps = _reduce_steps(tau)
    kind_c, factor, z_c, tau_c = kind, 1.0 + 0.0j, complex(z), complex(tau)
    for letter in steps:
        kind_c, factor, z_c, tau_c = apply_letter(kind_c, letter, z_c, tau_c, factor)
    inner_tol = tol / max(abs(factor), 1.0)
    rep = theta_series_report(kind_c, z_c, tau_c, inner_tol, max_index)
    return FastEvaluation(
        value=factor * rep.value,
        terms=rep.terms,
        index=rep.index,
        reduction=A,
        tau_reduced=tau_c,
        reduced_kind=kind_c,
        word=GeneratorWord(tuple(reversed(steps))),
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
