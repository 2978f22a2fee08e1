"""Exact multiplier systems for the eta and theta transformation laws.

For A = (a b; c d) with c > 0 the eta multiplier is

    epsilon(A) = exp(i*pi*((a+d)/(12c) - s(d, c)))

with s the Dedekind sum, and the theta1 multiplier is

    epsilon1(A) = -i * epsilon(A)^3,

the unit factor in

    theta1(z/(c*tau+d), A*tau)
        = epsilon1(A) (-i(c*tau+d))^{1/2} e^{i*pi*c*z^2/(c*tau+d)} theta1(z, tau).

Everything is computed as an exact rational phase (UnitPhase); floating
point never adjudicates an identity here.

The level-2 laws for theta2/theta3/theta4 are written against the plain
square root (c*tau+d)^{1/2} rather than (-i(c*tau+d))^{1/2}.  For c > 0 and
Im tau > 0 the two principal roots differ by exactly e^{-i*pi/4}, so the
matching multiplier convention is epsilon1 * e^{-i*pi/4}; that reconciliation
happens in one place, :func:`gamma2_prefactor`, and is pinned by the exact
identity gamma2_prefactor(THETA3, S2) = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .dedekind import dedekind_sum
from .errors import DomainError
from .exact import UnitPhase, i_power, jacobi_symbol
from .modgroup import (
    IDENTITY,
    S,
    Sl2Matrix,
    decompose_gamma,
    is_gamma2,
    normalize_sign,
    shear,
    translation,
)
from .series import ThetaKind

S_FLIPPED = -S  # the sign-flipped inversion (0 1; -1 0) = S^{-1}


def _require_positive_c(A: Sl2Matrix, op: str) -> None:
    if A.c <= 0:
        raise DomainError(f"{op} needs c > 0 (normalize first), got c = {A.c}")


def eta_epsilon(A: Sl2Matrix) -> UnitPhase:
    """Eta multiplier phase (a+d)/(12c) - s(d, c), for c > 0."""
    _require_positive_c(A, "eta_epsilon")
    return UnitPhase(Fraction(A.a + A.d, 12 * A.c) - dedekind_sum(A.d, A.c))


def theta1_epsilon(A: Sl2Matrix) -> UnitPhase:
    """theta1 multiplier -i*epsilon^3, for c > 0."""
    _require_positive_c(A, "theta1_epsilon")
    return eta_epsilon(A) ** 3 * UnitPhase(Fraction(-1, 2))


def theta1_epsilon_closed(A: Sl2Matrix) -> UnitPhase:
    """Closed form of the theta1 multiplier via Jacobi symbols.

        (d/c) i^{(c-3)/2} e^{(i*pi/4) c(a+d)}            c odd
        (c/d) e^{i*pi/4} i^{(1-d)/2} e^{(i*pi/4) d(b-c)}  d odd

    (c-odd branch preferred when both apply).  Returned exactly as a unit
    phase; agreement with :func:`theta1_epsilon` is a reported diagnostic,
    not a contract -- the verification harness compares the two and logs
    mismatches rather than asserting.
    """
    _require_positive_c(A, "theta1_epsilon_closed")
    a, b, c, d = A.a, A.b, A.c, A.d
    if c % 2 == 1:
        jac = jacobi_symbol(d, c)
        phase = Fraction(c - 3, 4) + Fraction(c * (a + d), 4)
    elif d % 2 == 1:
        # d may be negative; with c > 0 the symbol extends as (c/|d|)
        jac = jacobi_symbol(c, abs(d))
        phase = Fraction(1, 4) + Fraction(1 - d, 4) + Fraction(d * (b - c), 4)
    else:
        raise RuntimeError(f"c and d cannot both be even under det 1: {A}")
    if jac == -1:
        phase += 1
    return UnitPhase(phase)


_ALPHA_KINDS = (ThetaKind.THETA2, ThetaKind.THETA3, ThetaKind.THETA4)


def gamma2_alpha(kind: ThetaKind, A: Sl2Matrix) -> UnitPhase:
    """The integer i-power prefactor of the level-2 laws, computed exactly.

    Exponents (all integers since b, c are even and a, d odd):

        theta2: (d-1)(c/2 - 1) + c/2
        theta3: (d-1)(c/2 + 1) - (b/2) a + c/2
        theta4: (a-1)(b/2 - 1) - b/2
    """
    if kind not in _ALPHA_KINDS:
        raise DomainError(f"gamma2_alpha applies to theta2/3/4, not {kind}")
    if not is_gamma2(A):
        raise DomainError(f"{A} is not congruent to the identity mod 2")
    a, b, c, d = A.a, A.b, A.c, A.d
    if kind is ThetaKind.THETA2:
        e = (d - 1) * (c // 2 - 1) + c // 2
    elif kind is ThetaKind.THETA3:
        e = (d - 1) * (c // 2 + 1) - (b // 2) * a + c // 2
    else:
        e = (a - 1) * (b // 2 - 1) - b // 2
    return i_power(e)


def gamma2_prefactor(kind: ThetaKind, A: Sl2Matrix) -> UnitPhase:
    """Full unit prefactor alpha * epsilon1 * e^{-i*pi/4} of the level-2 law.

    The e^{-i*pi/4} converts epsilon1 to the convention paired with the
    plain (c*tau+d)^{1/2}; see the module docstring.  Exact sanity anchor:
    gamma2_prefactor(THETA3, S2) = 1.
    """
    return gamma2_alpha(kind, A) * theta1_epsilon(A) * UnitPhase(Fraction(-1, 4))


def lemma1_sides(A: Sl2Matrix, m: int) -> tuple[UnitPhase, UnitPhase]:
    """Right translation: epsilon1(A T^m) = epsilon1(A) e^{i*pi*m/4}.

    Like every lemmaN_sides, returns the pair (expected, observed) -- the
    lemma holds iff the two unit phases are equal.
    """
    _require_positive_c(A, "lemma1_sides")
    expected = theta1_epsilon(A) * UnitPhase(Fraction(m, 4))
    return expected, theta1_epsilon(A * translation(m))


def lemma2_sides(A: Sl2Matrix) -> tuple[UnitPhase, UnitPhase]:
    """Right inversion, both sign branches.

    d > 0: epsilon1(A S) = epsilon1(A) e^{-3i*pi/4} with S = (0 -1; 1 0);
    d < 0: epsilon1(A S') = epsilon1(A) e^{+3i*pi/4} with S' = (0 1; -1 0),
    chosen so the product keeps a positive lower-left entry.
    """
    _require_positive_c(A, "lemma2_sides")
    if A.d == 0:
        raise DomainError("lemma2_sides needs d != 0")
    if A.d > 0:
        expected = theta1_epsilon(A) * UnitPhase(Fraction(-3, 4))
        return expected, theta1_epsilon(A * S)
    expected = theta1_epsilon(A) * UnitPhase(Fraction(3, 4))
    return expected, theta1_epsilon(A * S_FLIPPED)


def lemma3_sides(A: Sl2Matrix, m: int) -> tuple[UnitPhase, UnitPhase]:
    """Even right translation: epsilon1(A T^{2m}) = epsilon1(A) e^{i*pi*m/2}."""
    _require_positive_c(A, "lemma3_sides")
    expected = theta1_epsilon(A) * UnitPhase(Fraction(m, 2))
    return expected, theta1_epsilon(A * translation(2 * m))


def lemma4_sides(A: Sl2Matrix) -> tuple[UnitPhase, UnitPhase]:
    """Right shear by S2 = (1 0; 2 1), both sign branches.

    c + 2d > 0: epsilon1(A S2)  = epsilon1(A) e^{-i*pi/2};
    c + 2d < 0: epsilon1(-A S2) = epsilon1(A) e^{i*pi}, using the negated
    product whose lower-left entry -(c+2d) is positive.  The negative-branch
    constant follows from applying reciprocity twice with the oddness flips
    written out (the defect (a'+d')/(12c') - s(d',c') minus the original
    exponent is exactly 1/3, and exp(3*i*pi/3) = -1).
    """
    _require_positive_c(A, "lemma4_sides")
    M = A * shear(1)
    if M.c == 0:
        raise DomainError("lemma4_sides needs c + 2d != 0")
    if M.c > 0:
        expected = theta1_epsilon(A) * UnitPhase(Fraction(-1, 2))
        return expected, theta1_epsilon(M)
    return theta1_epsilon(A) * UnitPhase(1), theta1_epsilon(-M)


def theta1_epsilon_induction(A: Sl2Matrix) -> UnitPhase:
    """epsilon1 rebuilt by structural induction along the generator word.

    Starting from the base value epsilon1(S) = -i, the phase is grown one
    letter at a time using only the translation and inversion phase laws
    (the content of lemma1_sides/lemma2_sides) plus the fact that a left
    translation T^j shifts a by j*c and hence the phase by j/4.  Prefixes
    that collapse to a pure translation +-T^j carry no inversion multiplier;
    the next inversion letter restarts from the base value.

    This is the computational content of the induction that extends the
    theta1 law from S to the whole group; agreement with
    :func:`theta1_epsilon` on every matrix is a tested invariant.
    """
    word = decompose_gamma(A)
    N = IDENTITY  # normalized prefix (c > 0, or a translation)
    phase: Fraction | None = None  # None while the prefix is a translation
    for letter in word.letters:
        if letter.gen == "T":
            N = N * translation(letter.exp)
            if phase is not None:
                phase += Fraction(letter.exp, 4)
        elif letter.gen == "S":
            if N.c == 0:
                j = N.b
                N = N * S  # T^j S = (j -1; 1 0), already c > 0
                phase = Fraction(3, 2) + Fraction(j, 4)
            elif N.d > 0:
                N = N * S
                phase -= Fraction(3, 4)
            elif N.d < 0:
                N = -(N * S)  # = N S', lower-left -d > 0
                phase += Fraction(3, 4)
            else:
                # d == 0 forces N = (x -1; 1 0), so N S = -T^x: the prefix
                # collapses back to a translation.  Unreachable for words
                # from decompose_gamma (prefix * S = +-T^t would make the
                # remaining suffix share +-c with the whole matrix, against
                # the strict |c| descent of the reduction); kept so the walk
                # stays total if the word source ever changes.
                N, _ = normalize_sign(N * S)
                phase = None
        else:
            raise DomainError(f"unexpected letter {letter} in a full-group word")
    if phase is None:
        raise DomainError("translation matrices carry no inversion multiplier")
    return UnitPhase(phase)
