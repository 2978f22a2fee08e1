"""Exact multiplier systems for the eta and theta transformation laws.

For A = (a b; c d) with c > 0 the eta multiplier is

    epsilon(A) = exp(i*pi*((a+d)/(12c) - s(d, c)))

with s the Dedekind sum, and the theta1 multiplier is

    epsilon1(A) = -i * epsilon(A)^3,

the unit factor in

    theta1(z/(c*tau+d), A*tau)
        = epsilon1(A) (-i(c*tau+d))^{1/2} e^{i*pi*c*z^2/(c*tau+d)} theta1(z, tau).

Every phase is a 24th root of unity, computed exactly as an integer mod 24
in units of pi/12 (UnitPhase); floating point never adjudicates an identity.
With g = 12c*s(d, c), epsilon(A) is q = (a + d - g)/c and epsilon1(A) is
3q - 6.  The division is exact: 12hk*s(h, k) = h^2 + 1 (mod k) (Rademacher
and Grosswald, Dedekind Sums, ch. 3) gives d*g = d^2 + 1 (mod c), and then
a*d = 1 (mod c) gives g = a + d (mod c).

Right multiplication by a generator L moves epsilon1 by a fixed phase.  For
c > 0 let N = A L, negated ("flipped") when its lower-left entry is
negative; then epsilon1(N) = epsilon1(A) e^{i*pi*delta/12} with

    L = T^m   c_N = c        delta = 3m
    L = S     c_N = d        delta = -9 (d > 0),      +9 (d < 0)
    L = S2    c_N = c + 2d   delta = -6 (c + 2d > 0), 12 (c + 2d < 0)

(Apostol, Modular Functions and Dirichlet Series, ch. 3: consequences of
Dedekind reciprocity).  This table, _RIGHT_PHASE, is the one home of these
phases, and :func:`_right` of the products N, on four ints: :func:`right_step`
wraps it, :func:`lemma_sides` checks it against Dedekind sums, and
:func:`theta1_epsilon_induction` inlines its S and T steps on the word's
rounds from ``modgroup._euclid``, building no word.

The level-2 laws for theta2/theta3/theta4 have the same shape, with unit
factor alpha(kind, A) * epsilon1(A), alpha from the law of the
characteristic (``series._char_law``); ``transform._law`` applies every
kind's law, translations included, with epsilon1 from :func:`_theta1_q`.
"""

from __future__ import annotations

from .dedekind import _g
from .errors import DomainError, int_text
from .exact import UnitPhase, jacobi_symbol
from .modgroup import Letter, Sl2Matrix, _euclid, _not_gamma2, _tuple_new, is_gamma2
from .series import ThetaKind, _char_law

# The right-multiplication laws in units of pi/12, keyed by (generator,
# flipped); the T entry is per unit exponent.  See the module docstring.
_RIGHT_PHASE = {
    ("T", False): 3,
    ("S", False): -9,
    ("S", True): 9,
    ("S2", False): -6,
    ("S2", True): 12,
}


def _require_positive_c(A: Sl2Matrix, op: str) -> None:
    if A.c <= 0:
        raise DomainError(
            f"{op} needs c > 0 (normalize first), got c = {int_text(A.c)}"
        )


def _eta_q(a: int, c: int, d: int) -> int:
    """q = (a + d - 12c*s(d, c))/c, the eta phase in units of pi/12, for c > 0."""
    q, r = divmod(a + d - _g(d, c), c)
    if r:  # the congruence in the module docstring rules this out
        raise ArithmeticError(f"12c*s(d, c) is not a + d mod c for {(a, c, d) = }")
    return q


def _theta1_q(a: int, c: int, d: int) -> int:
    """3q - 6, the theta1 phase in units of pi/12, for c > 0."""
    return 3 * _eta_q(a, c, d) - 6


def eta_epsilon(A: Sl2Matrix) -> UnitPhase:
    """Eta multiplier phase (a+d)/(12c) - s(d, c) = q/12, for c > 0."""
    _require_positive_c(A, "eta_epsilon")
    return UnitPhase._of(_eta_q(A.a, A.c, A.d))


def theta1_epsilon(A: Sl2Matrix) -> UnitPhase:
    """theta1 multiplier -i*epsilon^3, for c > 0."""
    _require_positive_c(A, "theta1_epsilon")
    return UnitPhase._of(_theta1_q(A.a, A.c, A.d))


def theta1_epsilon_closed(A: Sl2Matrix) -> UnitPhase:
    """Closed form of the theta1 multiplier via Jacobi symbols.

        (d/c) i^{(c-3)/2} e^{(i*pi/4) c(a+d)}            c odd
        (c/d) e^{i*pi/4} i^{(1-d)/2} e^{(i*pi/4) d(b-c)}  d odd

    (c-odd branch preferred when both apply).  Returned exactly as a unit
    phase; the closed-form-epsilon verify suite checks that it equals
    :func:`theta1_epsilon`.
    """
    _require_positive_c(A, "theta1_epsilon_closed")
    a, b, c, d = A
    if c % 2 == 1:
        jac = jacobi_symbol(d, c)
        k = 3 * (c - 3) + 3 * c * (a + d)
    else:  # det 1 makes d odd; for d < 0 the symbol extends as (c/|d|)
        jac = jacobi_symbol(c, abs(d))
        k = 3 + 3 * (1 - d) + 3 * d * (b - c)
    return UnitPhase._of(k + 12 if jac == -1 else k)


ALPHA_KINDS = (ThetaKind.THETA2, ThetaKind.THETA3, ThetaKind.THETA4)


def _require_gamma2(kind: ThetaKind, A: Sl2Matrix) -> None:
    """The level-2 laws' refusals: kind is theta2/3/4 and A is in Gamma(2)."""
    if kind not in ALPHA_KINDS:
        raise DomainError(f"gamma2_alpha applies to theta2/3/4, not {kind}")
    if not is_gamma2(A):
        raise _not_gamma2(A)


def gamma2_alpha(kind: ThetaKind, A: Sl2Matrix) -> UnitPhase:
    """The i-power prefactor alpha of the level-2 laws (the paper's Theorem 2),
    exactly: e^{-i pi rel/12} of the law of the characteristic, which maps
    every kind to itself on level 2."""
    _require_gamma2(kind, A)
    return UnitPhase._of(-_char_law(kind, *A)[1])


def gamma2_prefactor(kind: ThetaKind, A: Sl2Matrix) -> UnitPhase:
    """alpha * epsilon1 * e^{-i*pi/4}, a level-2 law's unit factor against the
    plain (c*tau+d)^{1/2} (for c > 0 the two principal roots differ by exactly
    e^{-i*pi/4}), as one sum of residues, refused as gamma2_alpha and then
    theta1_epsilon refuse.  Exact anchor: gamma2_prefactor(THETA3, S2) = 1."""
    _require_gamma2(kind, A)
    _require_positive_c(A, "theta1_epsilon")
    return UnitPhase._of(_theta1_q(A.a, A.c, A.d) - _char_law(kind, *A)[1] - 3)


def _right(a: int, b: int, c: int, d: int, gen: str, exp: int) -> tuple:
    """(a, b, c, d, delta) of N = A L for A = (a b; c d), c > 0, and L = T^exp,
    S or S2 (exp 1): the one home of these products, on plain ints.

    N is (a, b + exp*a; c, d + exp*c), (b, -a; d, -c) or (a + 2b, b; c + 2d, d),
    negated when its lower-left entry is negative, and delta is read from
    _RIGHT_PHASE on each call.  Nothing is checked: see :func:`right_step`.
    """
    if gen == "T":
        b, d = b + exp * a, d + exp * c
    elif gen == "S":
        a, b, c, d = b, -a, d, -c
    else:
        a, c = a + 2 * b, c + 2 * d
    if c < 0:
        return -a, -b, -c, -d, _RIGHT_PHASE[gen, True] * exp
    return a, b, c, d, _RIGHT_PHASE[gen, False] * exp


def right_step(A: Sl2Matrix, letter: Letter) -> tuple[Sl2Matrix, int]:
    """(N, delta): N = +-A L, c_N > 0, epsilon1(N) = epsilon1(A) e^{i*pi*delta/12}.

    For c_A > 0 and L one of T^m, S, S2, by :func:`_right`.  Any other letter
    (see ``Letter.matrix``), or a product with lower-left entry 0, is a DomainError.
    """
    _require_positive_c(A, "right_step")
    letter.matrix()  # the letter rule: a known generator, an int exponent
    gen, exp = letter
    if gen == "S2" and exp != 1:
        raise DomainError(f"right_step takes T^m, S or S2, not {letter}")
    *N, delta = _right(*A, gen, exp)
    if N[2] == 0:
        raise DomainError(f"{A} * {letter} has lower-left entry 0")
    return _tuple_new(Sl2Matrix, N), delta


def lemma_sides(A: Sl2Matrix, letter: Letter) -> tuple[UnitPhase, UnitPhase]:
    """The right-multiplication law of ``letter`` as (expected, observed).

    With (N, delta) = right_step(A, letter), expected is
    epsilon1(A) e^{i*pi*delta/12} and observed is epsilon1(N), each epsilon1
    from Dedekind sums; the law holds iff the two unit phases are equal.
    """
    N, delta = right_step(A, letter)
    return theta1_epsilon(A) * UnitPhase._of(delta), theta1_epsilon(N)


def theta1_epsilon_induction(A: Sl2Matrix) -> UnitPhase:
    """epsilon1 rebuilt by structural induction along the generator word.

    The word T^{m1} S T^{m2} S ... T^{mr} S T^{+-b} is read off the rounds
    and remainder of ``modgroup._euclid``, with no letter or word built.  Its
    prefix T^{m1} S = (m1 -1; 1 0) has c = 1, where epsilon1 depends only on
    a + d: it shares -i e^{i*pi*m1/4} with S T^{m1}, one right step from the
    base epsilon1(S) = -i.  Every later T^m and S is one :func:`_right` step,
    never to c = 0 (|m| >= 2), inline on the lower row (c, d), all a step
    needs: its delta, read from _RIGHT_PHASE once per call, depends only on
    the sign of the new c.  No Dedekind sum, no phase law of its own.

    This is the computational content of the induction that extends the
    theta1 law from S to the whole group; agreement with
    :func:`theta1_epsilon` on every matrix is a tested invariant.
    """
    if A.c == 0:  # the word has no S
        raise DomainError("translation matrices carry no inversion multiplier")
    ms, a, b = _euclid(*A)
    t = _RIGHT_PHASE["T", False]
    s, s_flipped = _RIGHT_PHASE["S", False], _RIGHT_PHASE["S", True]
    k, c, d = t * ms[0] - 6, 1, 0  # epsilon1(S) = -i, then T^m1; T^m1 S's lower row
    for m in ms[1:]:  # T^m, then S
        d, k = d + m * c, k + t * m
        if d > 0:
            c, d, k = d, -c, k + s
        else:
            c, d, k = -d, c, k + s_flipped
    return UnitPhase._of(k + t * a * b)  # the closing T^(a*b), a = +-1
