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

Right multiplication by a generator L moves epsilon1 by a fixed phase.  For
c > 0 let N = A L, negated ("flipped") when its lower-left entry is
negative; then epsilon1(N) = epsilon1(A) e^{i*pi*delta} with

    L = T^m   c_N = c        delta = m/4
    L = S     c_N = d        delta = -3/4 (d > 0),      +3/4 (d < 0)
    L = S2    c_N = c + 2d   delta = -1/2 (c + 2d > 0),  1  (c + 2d < 0)

(Apostol, Modular Functions and Dirichlet Series, ch. 3: consequences of
Dedekind reciprocity).  This table, _RIGHT_PHASE, is the one home of these
laws: :func:`right_step` reads it, :func:`lemma_sides` checks it against
Dedekind sums, and :func:`theta1_epsilon_induction` rebuilds epsilon1 from
epsilon1(S) = -i with it.

The level-2 laws for theta2/theta3/theta4 have the same shape, with unit
factor alpha(kind, A) * epsilon1(A); :func:`law_phase` is the one home of the
unit factor of all four laws, translations included.
"""

from __future__ import annotations

from fractions import Fraction

from .dedekind import dedekind_sum
from .errors import DomainError
from .exact import UnitPhase, jacobi_symbol
from .modgroup import (
    S,
    Letter,
    Sl2Matrix,
    decompose_gamma,
    is_gamma2,
    translation,
)
from .series import ThetaKind

# The right-multiplication laws, keyed by (generator, flipped); the T entry
# is per unit exponent.  See the module docstring.
_RIGHT_PHASE = {
    ("T", False): Fraction(1, 4),
    ("S", False): Fraction(-3, 4),
    ("S", True): Fraction(3, 4),
    ("S2", False): Fraction(-1, 2),
    ("S2", True): Fraction(1),
}

_MINUS_I = UnitPhase(Fraction(-1, 2))  # theta1's factor beside epsilon^3; epsilon1(S)


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
    return eta_epsilon(A) ** 3 * _MINUS_I


def theta1_epsilon_closed(A: Sl2Matrix) -> UnitPhase:
    """Closed form of the theta1 multiplier via Jacobi symbols.

        (d/c) i^{(c-3)/2} e^{(i*pi/4) c(a+d)}            c odd
        (c/d) e^{i*pi/4} i^{(1-d)/2} e^{(i*pi/4) d(b-c)}  d odd

    (c-odd branch preferred when both apply).  Returned exactly as a unit
    phase; the closed-form-epsilon verify suite checks that it equals
    :func:`theta1_epsilon`.
    """
    _require_positive_c(A, "theta1_epsilon_closed")
    a, b, c, d = A.a, A.b, A.c, A.d
    if c % 2 == 1:
        jac = jacobi_symbol(d, c)
        phase = Fraction(c - 3, 4) + Fraction(c * (a + d), 4)
    else:  # det 1 makes d odd; for d < 0 the symbol extends as (c/|d|)
        jac = jacobi_symbol(c, abs(d))
        phase = Fraction(1, 4) + Fraction(1 - d, 4) + Fraction(d * (b - c), 4)
    if jac == -1:
        phase += 1
    return UnitPhase(phase)


ALPHA_KINDS = (ThetaKind.THETA2, ThetaKind.THETA3, ThetaKind.THETA4)


def gamma2_alpha(kind: ThetaKind, A: Sl2Matrix) -> UnitPhase:
    """The integer i-power prefactor of the level-2 laws, computed exactly.

    Exponents (all integers since b, c are even and a, d odd):

        theta2: (d-1)(c/2 - 1) + c/2
        theta3: (d-1)(c/2 + 1) - (b/2) a + c/2
        theta4: (a-1)(b/2 - 1) - b/2
    """
    if kind not in ALPHA_KINDS:
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
    return UnitPhase(Fraction(e, 2))


def law_phase(kind: ThetaKind, A: Sl2Matrix) -> UnitPhase:
    """Unit factor of the law of ``kind`` against (-i(c*tau+d))^{1/2}: epsilon1(A)
    for theta1, alpha(kind, A) * epsilon1(A) for theta2/3/4 and level-2 A.  For
    A = T^b (root and Gaussian 1) epsilon1 is the T entry of _RIGHT_PHASE times
    b, and alpha makes the factor 1 for theta3/theta4 (b even)."""
    if A.c == 0 and A.d == 1:
        eps1 = UnitPhase(_RIGHT_PHASE["T", False] * A.b)
    else:
        eps1 = theta1_epsilon(A)
    return eps1 if kind is ThetaKind.THETA1 else gamma2_alpha(kind, A) * eps1


def gamma2_prefactor(kind: ThetaKind, A: Sl2Matrix) -> UnitPhase:
    """law_phase * e^{-i*pi/4}, the unit factor against the plain (c*tau+d)^{1/2}
    (for c > 0 the two principal roots differ by exactly e^{-i*pi/4}).  Exact
    sanity anchor: gamma2_prefactor(THETA3, S2) = 1."""
    _require_positive_c(A, "gamma2_prefactor")
    return law_phase(kind, A) * UnitPhase(Fraction(-1, 4))


def right_step(A: Sl2Matrix, letter: Letter) -> tuple[Sl2Matrix, Fraction]:
    """(N, delta) with N = +-A L, c_N > 0 and epsilon1(N) = epsilon1(A) e^{i*pi*delta}.

    For c_A > 0 and L one of T^m, S, S2; delta is read from _RIGHT_PHASE (see
    the module docstring).  Any other letter, or a product with lower-left
    entry 0, is a DomainError.
    """
    _require_positive_c(A, "right_step")
    gen = letter.gen
    if gen == "S2" and letter.exp != 1:
        raise DomainError(f"right_step takes T^m, S or S2, not {letter}")
    M = A * letter.matrix()  # refuses an unknown generator and S^k, k != 1
    if gen == "T":
        rate = _RIGHT_PHASE["T", False]  # rate * m, built as one Fraction
        return M, Fraction(rate.numerator * letter.exp, rate.denominator)
    if M.c == 0:
        raise DomainError(f"{A} * {letter} has lower-left entry 0")
    flipped = M.c < 0
    return (-M if flipped else M), _RIGHT_PHASE[gen, flipped]


def lemma_sides(A: Sl2Matrix, letter: Letter) -> tuple[UnitPhase, UnitPhase]:
    """The right-multiplication law of ``letter`` as (expected, observed).

    With (N, delta) = right_step(A, letter), expected is
    epsilon1(A) e^{i*pi*delta} and observed is epsilon1(N), each epsilon1
    from Dedekind sums; the law holds iff the two unit phases are equal.
    """
    N, delta = right_step(A, letter)
    return theta1_epsilon(A) * UnitPhase(delta), theta1_epsilon(N)


def theta1_epsilon_induction(A: Sl2Matrix) -> UnitPhase:
    """epsilon1 rebuilt by structural induction along the generator word.

    The word is T^j S L_1 L_2 ... (T^j possibly empty).  Its prefix T^j S =
    (j -1; 1 0) has c = 1, where epsilon1 depends only on a + d, so it
    shares the value -i e^{i*pi*j/4} with S T^j, one right step from the
    base value epsilon1(S) = -i.  Every later letter is one
    :func:`right_step`, so the induction uses no Dedekind sum and no phase
    law of its own.

    This is the computational content of the induction that extends the
    theta1 law from S to the whole group; agreement with
    :func:`theta1_epsilon` on every matrix is a tested invariant.
    """
    letters = decompose_gamma(A).letters
    j = 0
    if letters and letters[0].gen == "T":
        j, letters = letters[0].exp, letters[1:]
    if not letters:
        raise DomainError("translation matrices carry no inversion multiplier")
    _, phase = right_step(S, Letter("T", j))
    phase += _MINUS_I.phase  # epsilon1(S) = -i
    N = translation(j) * S
    for letter in letters[1:]:
        N, delta = right_step(N, letter)
        phase += delta
    return UnitPhase(phase)
