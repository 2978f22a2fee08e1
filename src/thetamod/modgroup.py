"""SL(2,Z) matrices, the Mobius action, and generator-word decomposition.

Words are products of the generators

    S = (0 -1; 1 0),   T^m = (1 m; 0 1)

for the full group, and

    T^{2m} = (1 2m; 0 1),   S2^m = (1 0; 2m 1)

for the level-2 congruence subgroup (matrices congruent to the identity
mod 2).  Since S^2 = -I, words carry an explicit +-1 sign instead of ever
inserting S twice: the multiplier bookkeeping downstream needs the sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, require_upper_half


@dataclass(frozen=True)
class Sl2Matrix:
    """Integer 2x2 matrix (a b; c d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise DomainError(
                f"determinant must be 1, got {self.a * self.d - self.b * self.c} "
                f"for [[{self.a},{self.b}],[{self.c},{self.d}]]"
            )

    def __mul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        return Sl2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Sl2Matrix":
        return Sl2Matrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Sl2Matrix":
        return Sl2Matrix(self.d, -self.b, -self.c, self.a)

    def max_entry(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def to_lists(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @classmethod
    def from_lists(cls, rows) -> "Sl2Matrix":
        """[[a, b], [c, d]] with int entries (bool and float are rejected)."""
        (a, b), (c, d) = rows
        if not all(type(x) is int for x in (a, b, c, d)):  # so no bool, no float
            raise DomainError(f"matrix entries must be integers, got {rows!r}")
        return cls(a, b, c, d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


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
    leave the half-plane.
    """
    require_upper_half(tau)
    if A.c == 0:
        return (A.a * tau + A.b) / A.d
    return A.a / A.c - 1 / (A.c * (A.c * tau + A.d))


def is_gamma2(A: Sl2Matrix) -> bool:
    """True iff A is congruent to the identity mod 2 (a, d odd; b, c even)."""
    return A.a % 2 == 1 and A.d % 2 == 1 and A.b % 2 == 0 and A.c % 2 == 0


def normalize_sign(A: Sl2Matrix) -> tuple[Sl2Matrix, bool]:
    """Return A or -A so that c > 0, or c = 0 and d > 0.

    A and -A act identically on the half-plane; the transformation-law
    formulas are stated for the c > 0 representative.  The flag records
    whether negation occurred.
    """
    if A.c < 0 or (A.c == 0 and A.d < 0):
        return -A, True
    return A, False


@dataclass(frozen=True)
class Letter:
    """One word letter: gen is "S", "T", or "S2"; S always has exp 1."""

    gen: str
    exp: int = 1

    def matrix(self) -> Sl2Matrix:
        if self.gen == "S":
            return S
        if self.gen == "T":
            return translation(self.exp)
        if self.gen == "S2":
            return shear(self.exp)
        raise DomainError(f"unknown generator {self.gen!r}")

    def __str__(self) -> str:
        if self.gen == "S":
            return "S"
        if self.exp == 1:
            return self.gen
        return f"{self.gen}^{self.exp}"


@dataclass(frozen=True)
class GeneratorWord:
    """An ordered product of letters with an explicit +-1 sign."""

    letters: tuple[Letter, ...]
    sign: int = 1

    def is_normal_form(self) -> bool:
        """No two adjacent letters are powers of the same generator."""
        return all(
            x.gen != y.gen for x, y in zip(self.letters, self.letters[1:])
        )

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
    M = IDENTITY
    for letter in word.letters:
        M = M * letter.matrix()
    return M if word.sign == 1 else -M


def _round_half_down(p: int, q: int) -> int:
    """Nearest integer to p/q, exact .5 ties toward the floor."""
    if q < 0:
        p, q = -p, -q
    f = p // q
    r = p - f * q
    return f + 1 if 2 * r > q else f


def _close_word(letters: list[Letter], M: Sl2Matrix) -> GeneratorWord:
    """End a reduction whose remainder is M = +-T^j: append T^j (if j != 0)."""
    sign = 1 if M.a == 1 else -1
    if M.b != 0:
        letters.append(Letter("T", sign * M.b))
    return GeneratorWord(tuple(letters), sign)


def decompose_gamma(A: Sl2Matrix) -> GeneratorWord:
    """Express A as sign * T^{m1} S T^{m2} S ... T^{mr} (letters S, T^m).

    Euclidean reduction: while c != 0, peel T^{round(a/c)} then S from the
    left; |c| at least halves each round, so the word length is
    O(log max-entry).  Zero T-exponents are dropped so the output is in
    normal form.
    """
    letters: list[Letter] = []
    M = A
    while M.c != 0:
        m = _round_half_down(M.a, M.c)
        if m != 0:
            letters.append(Letter("T", m))
        letters.append(Letter("S"))
        # peel: M = T^m S M'  =>  M' = S^{-1} T^{-m} M
        M = S.inverse() * (translation(-m) * M)
    return _close_word(letters, M)


def decompose_gamma2(A: Sl2Matrix) -> GeneratorWord:
    """Express a level-2 matrix as sign * product of T^{2m} and S2^m letters.

    Euclidean reduction by even multiples only: reduce c against 2a, then a
    against 2c, so every prefix stays congruent to the identity mod 2.  The
    odd/even split of a and c makes exact ties impossible and guarantees
    strict decrease.
    """
    if not is_gamma2(A):
        raise DomainError(f"{A} is not congruent to the identity mod 2")
    letters: list[Letter] = []
    M = A
    while M.c != 0:
        if abs(M.c) >= abs(M.a):
            m = _round_half_down(M.c, 2 * M.a)
            letters.append(Letter("S2", m))
            M = shear(-m) * M
        else:
            m = _round_half_down(M.a, 2 * M.c)
            letters.append(Letter("T", 2 * m))
            M = translation(-2 * m) * M
    return _close_word(letters, M)
