"""SL(2,Z) matrices, the Mobius action, and generator-word decomposition.

A matrix is an ``Sl2Matrix``, the ``typing.NamedTuple`` (a, b, c, d): it
equals, hashes and unpacks (``a, b, c, d = A``) like its 4-tuple, and
``2 * A`` and ``A + B`` are tuple operations.  It is checked once when built
(int entries, determinant 1), by every public route; ``A * B`` and ``-A``
are not, since the determinant is multiplicative.

Words are products of the generators

    S = (0 -1; 1 0),   T^m = (1 m; 0 1)

for the full group, and

    T^{2m} = (1 2m; 0 1),   S2^m = (1 0; 2m 1)

for the level-2 congruence subgroup (matrices congruent to the identity
mod 2).  Since S^2 = -I, words carry an explicit +-1 sign instead of ever
inserting S twice: the multiplier bookkeeping downstream needs the sign.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, int_text, require_upper_half

_tuple_new = tuple.__new__
MAX_WORD_LETTERS = 100_000  # decompose_gamma2's cap; decompose_gamma's words are O(log)


class Sl2Matrix(NamedTuple):
    """Integer 2x2 matrix (a b; c d), determinant 1, as a tuple of its entries
    (see the module docstring)."""

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        if type(other) is not Sl2Matrix:
            raise TypeError(f"an Sl2Matrix multiplies an Sl2Matrix, not {other!r}")
        a, b, c, d = self
        e, f, g, h = other
        product = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        return _tuple_new(Sl2Matrix, product)  # unchecked: det(AB) = det(A) det(B) = 1

    def __neg__(self) -> "Sl2Matrix":
        a, b, c, d = self
        return _tuple_new(Sl2Matrix, (-a, -b, -c, -d))  # det(-A) = det(A)

    def max_entry(self) -> int:
        return max(map(abs, self))

    def to_lists(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @classmethod
    def from_lists(cls, rows) -> "Sl2Matrix":
        """[[a, b], [c, d]], checked like the constructor."""
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def __str__(self) -> str:
        return _rows_text(*self)


def _rows_text(*entries) -> str:
    """The text [[a,b],[c,d]], naming an entry too long to print by its size."""
    a, b, c, d = map(int_text, entries)
    return f"[[{a},{b}],[{c},{d}]]"


def _checked_new(cls, a, b, c, d):
    """Sl2Matrix's one check: int entries (so no bool, no float), det 1."""
    if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
        raise DomainError(
            f"matrix entries must be integers, got {_rows_text(a, b, c, d)}"
        )
    det = a * d - b * c
    if det != 1:
        raise DomainError(
            f"determinant must be 1, got {int_text(det)} for {_rows_text(a, b, c, d)}"
        )
    return _tuple_new(cls, (a, b, c, d))


# Not in the class body, which typing.NamedTuple keeps for its own; _make
# (and so _replace) would otherwise call tuple.__new__ past the check.
Sl2Matrix.__new__ = _checked_new
Sl2Matrix._make = classmethod(lambda cls, entries: cls(*entries))


IDENTITY = Sl2Matrix(1, 0, 0, 1)
S = Sl2Matrix(0, -1, 1, 0)
S2 = Sl2Matrix(1, 0, 2, 1)


def translation(m: int) -> Sl2Matrix:
    """T^m = (1 m; 0 1)."""
    return Sl2Matrix(1, m, 0, 1)


def shear(m: int) -> Sl2Matrix:
    """S2^m = (1 0; 2m 1), the lower-triangular level-2 generator."""
    return Sl2Matrix(1, 0, 2 * m, 1)


def mobius(A: Sl2Matrix, tau: complex) -> complex:
    """(a*tau + b)/(c*tau + d) on the upper half-plane.

    For c != 0 this is evaluated as a/c - 1/(c(c*tau + d)), whose imaginary
    part Im(tau)/|c*tau + d|^2 keeps full relative accuracy however large
    the entries; the quotient form cancels catastrophically there and can
    leave the half-plane.  An overflow on the way, or an Im that underflows
    to 0, is a DomainError, never a non-finite or real value.
    """
    require_upper_half(tau)
    a, b, c, d = A
    try:
        w = (a * tau + b) / d if c == 0 else a / c - 1 / (c * (c * tau + d))
        if cmath.isfinite(w) and w.imag > 0:
            return w
    except OverflowError:  # an entry beyond the float range
        pass
    raise DomainError(f"{A} maps {tau} outside the floats' upper half-plane")


def is_gamma2(A: Sl2Matrix) -> bool:
    """True iff A is congruent to the identity mod 2 (a, d odd; b, c even)."""
    return A.a % 2 == 1 and A.d % 2 == 1 and A.b % 2 == 0 and A.c % 2 == 0


def _not_gamma2(A: Sl2Matrix) -> DomainError:
    """The DomainError refusing A, not in Gamma(2), where level 2 is needed."""
    return DomainError(f"{A} is not congruent to the identity mod 2")


def normalize_sign(A: Sl2Matrix) -> tuple[Sl2Matrix, bool]:
    """Return A or -A so that c > 0, or c = 0 and d > 0.

    A and -A act identically on the half-plane; the transformation-law
    formulas are stated for the c > 0 representative.  The flag records
    whether negation occurred.
    """
    if A.c < 0 or (A.c == 0 and A.d < 0):
        return -A, True
    return A, False


class Letter(NamedTuple):
    """One word letter: gen is "S", "T", or "S2"; S always has exp 1."""

    gen: str
    exp: int = 1

    def matrix(self) -> Sl2Matrix:
        if type(self.exp) is not int:  # no bool, no float
            raise DomainError(f"a letter's exponent is an int, not {self.exp!r}")
        if self.gen == "S":
            if self.exp != 1:  # S^2 = -I, so no other power of S is S
                raise DomainError(f"an S letter has exponent 1, not {self.exp}")
            return S
        if self.gen == "T":
            return translation(self.exp)
        if self.gen == "S2":
            return shear(self.exp)
        raise DomainError(f"unknown generator {self.gen!r}")

    def __str__(self) -> str:
        return self.gen if self.exp == 1 else f"{self.gen}^{self.exp}"


_S_LETTER = Letter("S")


@dataclass(frozen=True)
class GeneratorWord:
    """An ordered product of letters with an explicit +-1 sign."""

    letters: tuple[Letter, ...]
    sign: int = 1

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "letters": [{"gen": l.gen, "exp": l.exp} for l in self.letters],
        }

    def __str__(self) -> str:
        body = " ".join(str(l) for l in self.letters) if self.letters else "I"
        return body if self.sign == 1 else f"-({body})"


def recompose(word: GeneratorWord) -> Sl2Matrix:
    """Signed ordered product of the word's letters."""
    if word.sign not in (1, -1):
        raise DomainError(f"a word's sign is +1 or -1, not {word.sign}")
    M = IDENTITY
    for letter in word.letters:
        M = M * letter.matrix()
    return M if word.sign == 1 else -M


def _round_half_down(p: int, q: int) -> int:
    """Nearest integer to p/q, exact .5 ties toward the floor: ceil(p/q - 1/2)."""
    return -((q - 2 * p) // (2 * q))


def _close_word(letters: list[Letter], a: int, b: int) -> GeneratorWord:
    """End a reduction at the remainder (a b; 0 a) = +-T^j: append T^j unless j = 0."""
    sign = 1 if a == 1 else -1
    if b != 0:
        letters.append(_tuple_new(Letter, ("T", sign * b)))
    return GeneratorWord(tuple(letters), sign)


def _euclid(a: int, b: int, c: int, d: int) -> tuple[list[int], int, int]:
    """(ms, a, b) with (a b; c d) = T^{m1} S T^{m2} S ... T^{mr} S (a b; 0 a).

    Euclid's reduction on four ints: while c != 0, peel T^{round(a/c)} then
    S from the left; |c| at least halves each round.  Only m1 can be 0.
    """
    ms = []
    while c != 0:
        m = -((c - 2 * a) // (2 * c))  # _round_half_down(a, c), inline
        ms.append(m)
        a, b, c, d = c, d, m * c - a, m * d - b  # M = T^m S M' => M' = S^-1 T^-m M
    return ms, a, b


def decompose_gamma(A: Sl2Matrix) -> GeneratorWord:
    """Express A as sign * T^{m1} S T^{m2} S ... T^{mr} (letters S, T^m).

    The rounds of :func:`_euclid`, each T^m (dropped if m = 0) then S, and
    its remainder's T^j: O(log max-entry) letters, no two adjacent ones
    powers of the same generator.
    """
    ms, a, b = _euclid(*A)
    letters: list[Letter] = []
    for m in ms:
        if m != 0:
            letters.append(_tuple_new(Letter, ("T", m)))
        letters.append(_S_LETTER)
    return _close_word(letters, a, b)


def decompose_gamma2(A: Sl2Matrix) -> GeneratorWord:
    """Express a level-2 matrix as sign * product of T^{2m} and S2^m letters.

    Euclidean reduction by even multiples only: reduce c against 2a, then a
    against 2c, so every prefix stays congruent to the identity mod 2.  The
    odd/even split of a and c makes exact ties impossible and guarantees
    strict decrease.  Gamma(2) mod +-I is free on T^2 and S2 (Sanov), so the
    word is unique, and it can be as long as the entries are large: that of
    (1-n 2-n; -n 1-n) has n - 1 letters.  The cap bounds the walk: past
    MAX_WORD_LETTERS letters it stops with a DomainError; a word it returns
    has at most one letter more, the closing T^j.
    """
    if not is_gamma2(A):
        raise _not_gamma2(A)
    letters: list[Letter] = []
    a, b, c, d = A
    while c != 0:
        if len(letters) >= MAX_WORD_LETTERS:  # and a letter more is to come
            raise DomainError(
                f"the level-2 word of {A} has more than {MAX_WORD_LETTERS} letters"
            )
        if abs(c) >= abs(a):
            m = _round_half_down(c, 2 * a)
            letters.append(_tuple_new(Letter, ("S2", m)))
            c, d = c - 2 * m * a, d - 2 * m * b  # S2^-m M
        else:
            m = _round_half_down(a, 2 * c)
            letters.append(_tuple_new(Letter, ("T", 2 * m)))
            a, b = a - 2 * m * c, b - 2 * m * d  # T^-2m M
    return _close_word(letters, a, b)
