"""Matrix algebra, Mobius action, and generator-word decomposition."""

import random
from fractions import Fraction

import pytest

from thetamod.errors import DomainError
from thetamod.modgroup import (
    IDENTITY,
    S,
    S2,
    GeneratorWord,
    Letter,
    Sl2Matrix,
    decompose_gamma,
    decompose_gamma2,
    is_gamma2,
    mobius,
    normalize_sign,
    recompose,
    shear,
    translation,
)


def test_determinant_enforced():
    with pytest.raises(DomainError):
        Sl2Matrix(1, 0, 0, 2)
    with pytest.raises(DomainError):
        Sl2Matrix(0, 1, 1, 0)


def test_mat_mul_examples():
    A = Sl2Matrix(3, 2, 7, 5)
    assert A * IDENTITY == IDENTITY * A == A
    m = 4
    assert A * translation(m) == Sl2Matrix(A.a, A.a * m + A.b, A.c, A.c * m + A.d)
    assert A * S == Sl2Matrix(A.b, -A.a, A.d, -A.c)


def test_mobius_examples():
    assert mobius(S, 1j) == pytest.approx(1j)
    assert mobius(translation(3), 0.25 + 1j) == pytest.approx(3.25 + 1j)
    assert mobius(Sl2Matrix(2, 1, 1, 1), 1j) == pytest.approx((3 + 1j) / 2)
    with pytest.raises(DomainError):
        mobius(S, 1.0 + 0j)


def test_mobius_composition():
    rng = random.Random(5)
    for _ in range(50):
        A = _random_word_matrix(rng)
        B = _random_word_matrix(rng)
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
        assert abs(mobius(A, mobius(B, tau)) - mobius(A * B, tau)) < 1e-12
        assert mobius(A, tau).imag > 0


def test_mobius_imaginary_part_huge_entries(huge_matrices):
    # Im(A tau) = Im(tau)/|c tau + d|^2, with Re(c tau + d) formed exactly
    rng = random.Random(8)
    for A in huge_matrices:
        for _ in range(4):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.1, 2))
            re = float(A.c * Fraction(tau.real) + A.d)
            want = tau.imag / (re * re + (A.c * tau.imag) ** 2)
            got = mobius(A, tau).imag
            assert abs(got - want) <= 1e-14 * want, (A, tau)


def test_is_gamma2():
    assert is_gamma2(IDENTITY)
    assert is_gamma2(Sl2Matrix(1, 2, 0, 1))
    assert is_gamma2(S2)
    assert not is_gamma2(S)
    assert not is_gamma2(translation(1))


def test_normalize_sign():
    assert normalize_sign(IDENTITY) == (IDENTITY, False)
    assert normalize_sign(-IDENTITY) == (IDENTITY, True)
    A = Sl2Matrix(2, 1, 1, 1)
    B, flipped = normalize_sign(-A)
    assert B == A and flipped
    rng = random.Random(6)
    for _ in range(40):
        M = _random_word_matrix(rng)
        N, _ = normalize_sign(M)
        assert N.c > 0 or (N.c == 0 and N.d > 0)
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
        assert abs(mobius(N, tau) - mobius(M, tau)) < 1e-12


def test_recompose_relations():
    assert recompose(GeneratorWord((), 1)) == IDENTITY
    assert recompose(GeneratorWord((Letter("S"), Letter("S")), 1)) == -IDENTITY
    assert recompose(GeneratorWord((Letter("S"),) * 4, 1)) == IDENTITY
    word = GeneratorWord(
        (Letter("S"), Letter("T", -1), Letter("S"), Letter("T", -1), Letter("S")), 1
    )
    assert recompose(word) in (translation(1), -translation(1))


def test_decompose_examples():
    w = decompose_gamma(translation(5))
    assert w.letters == (Letter("T", 5),) and w.sign == 1
    w = decompose_gamma(S)
    assert w.letters == (Letter("S"),) and w.sign == 1
    A = Sl2Matrix(2, 1, 1, 1)
    w = decompose_gamma(A)
    assert recompose(w) == A


def _random_word_matrix(rng, length=8, bound=9, gamma2=False):
    M = IDENTITY
    for _ in range(rng.randint(0, length)):
        if gamma2:
            if rng.random() < 0.5:
                M = M * translation(2 * rng.randint(-bound, bound))
            else:
                M = M * shear(rng.randint(-bound, bound))
        else:
            if rng.random() < 0.5:
                M = M * translation(rng.randint(-bound, bound))
            else:
                M = M * S
    return M


def test_decompose_roundtrip_random():
    rng = random.Random(42)
    for _ in range(1000):
        A = _random_word_matrix(rng)
        if A.max_entry() > 10**4:
            continue
        w = decompose_gamma(A)
        assert recompose(w) == A
        assert all(x.gen != y.gen for x, y in zip(w.letters, w.letters[1:]))


def test_decompose_roundtrip_exhaustive_small():
    n = 0
    for a in range(-5, 6):
        for b in range(-5, 6):
            for c in range(-5, 6):
                for d in range(-5, 6):
                    if a * d - b * c != 1:
                        continue
                    A = Sl2Matrix(a, b, c, d)
                    assert recompose(decompose_gamma(A)) == A
                    n += 1
    assert n > 100


def test_decompose_gamma2_examples():
    w = decompose_gamma2(Sl2Matrix(1, 2, 0, 1))
    assert w.letters == (Letter("T", 2),) and w.sign == 1
    w = decompose_gamma2(S2)
    assert w.letters == (Letter("S2", 1),) and w.sign == 1
    A = Sl2Matrix(3, 2, 4, 3)
    assert recompose(decompose_gamma2(A)) == A


def test_decompose_gamma2_roundtrip_and_membership():
    rng = random.Random(43)
    for _ in range(500):
        A = _random_word_matrix(rng, gamma2=True)
        if A.max_entry() > 10**4:
            continue
        w = decompose_gamma2(A)
        assert recompose(w) == A
        assert all(x.gen != y.gen for x, y in zip(w.letters, w.letters[1:]))
        for letter in w.letters:
            assert is_gamma2(letter.matrix())


def test_decompose_gamma2_rejects_other_matrices():
    with pytest.raises(DomainError):
        decompose_gamma2(S)
    with pytest.raises(DomainError):
        decompose_gamma2(translation(1))


def test_decompose_huge_entries_exact():
    # arbitrary-precision entries: no overflow, exact roundtrip
    A = translation(10**20) * S * translation(-(3**40)) * S * translation(7)
    w = decompose_gamma(A)
    assert recompose(w) == A
    B = Sl2Matrix(1, 2 * 10**18, 0, 1) * S2 * Sl2Matrix(1, -(2**61), 0, 1)
    w2 = decompose_gamma2(B)
    assert recompose(w2) == B


def test_serialization():
    A = Sl2Matrix(3, 2, 4, 3)
    assert Sl2Matrix.from_lists(A.to_lists()) == A
    w = decompose_gamma2(A)
    j = w.to_json()
    assert j["sign"] in (1, -1)
    assert all(set(l) == {"gen", "exp"} for l in j["letters"])


@pytest.mark.parametrize(
    "rows",
    [
        [[1.9, 0], [0, 1]],
        [[True, 0], [0, 1]],
        [[1.0, 0], [0, 1]],
        [["1", 0], [0, 1]],
        [[1, 0], [0, None]],
    ],
)
def test_from_lists_rejects_non_integer_entries(rows):
    with pytest.raises(DomainError, match="must be integers"):
        Sl2Matrix.from_lists(rows)


@pytest.mark.parametrize("exp", [2, -1, 0])
def test_s_letter_with_an_exponent_is_rejected(exp):
    # S^2 = -I, so an S letter read as S would give a wrong matrix
    with pytest.raises(DomainError, match="exponent 1"):
        Letter("S", exp).matrix()
    with pytest.raises(DomainError):
        recompose(GeneratorWord((Letter("S", exp),)))


def test_unknown_generator_is_rejected():
    with pytest.raises(DomainError, match="unknown generator"):
        Letter("X").matrix()


@pytest.mark.parametrize("sign", [0, 5, -2])
def test_recompose_rejects_a_sign_other_than_plus_minus_one(sign):
    with pytest.raises(DomainError, match="sign"):
        recompose(GeneratorWord((Letter("T", 1),), sign))
    with pytest.raises(DomainError, match="sign"):
        recompose(GeneratorWord((), sign))


def test_a_generator_word_is_not_a_sequence():
    # GeneratorWord stays a dataclass: as a tuple, len(word) would be 2 and
    # iterating it would walk (letters, sign)
    word = GeneratorWord((Letter("T", 2), Letter("S")), -1)
    with pytest.raises(TypeError):
        len(word)
    with pytest.raises(TypeError):
        iter(word)
