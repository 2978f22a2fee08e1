"""Matrix algebra, Mobius action, and generator-word decomposition."""

import copy
import hashlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetamod.errors import DomainError, int_text
from thetamod.modgroup import (
    IDENTITY,
    MAX_WORD_LETTERS,
    S,
    S2,
    GeneratorWord,
    Letter,
    Sl2Matrix,
    _round_half_down,
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


def test_decompose_gamma_rounds_an_exact_tie_toward_the_floor():
    # c = +-2 puts every odd a at a/c = n + 1/2 exactly: the first T exponent
    # is the floor n, as _round_half_down gives it, and the word recomposes
    for c in (2, -2):
        for a in range(-11, 12, 2):
            A = Sl2Matrix(a, (a - 1) // c, c, 1)
            m = a // c
            assert _round_half_down(a, c) == m, A
            word = decompose_gamma(A)
            assert word.letters[0] == (Letter("T", m) if m else Letter("S")), A
            assert recompose(word) == A
    assert [_round_half_down(p, 4) for p in (-3, -2, -1, 1, 2, 3)] == [-1, -1, 0, 0, 0, 1]


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


@pytest.mark.parametrize(
    "letter", [Letter("S", True), Letter("S2", True), Letter("T", True), Letter("S", 1.0)], ids=repr
)
def test_a_letter_exponent_that_is_not_an_int_is_rejected(letter):
    # True == 1 and 1.0 == 1, so without the check S^True would read as S
    with pytest.raises(DomainError, match="^a letter's exponent is an int, not "):
        letter.matrix()
    with pytest.raises(DomainError, match="^a letter's exponent is an int, not "):
        recompose(GeneratorWord((letter,)))


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


# --- the matrix contract ---------------------------------------------------

# A random word: each step is S, T^m or S2^m, with |m| up to 10^6.
_steps = st.lists(
    st.tuples(st.sampled_from(["S", "T", "S2"]), st.integers(-(10**6), 10**6)),
    max_size=12,
)


def _checked_product(steps):
    """The word's product, each step through the checked constructor."""
    M = IDENTITY
    for gen, m in steps:
        L = S if gen == "S" else translation(m) if gen == "T" else shear(m)
        M = Sl2Matrix(
            M.a * L.a + M.b * L.c,
            M.a * L.b + M.b * L.d,
            M.c * L.a + M.d * L.c,
            M.c * L.b + M.d * L.d,
        )
    return M


@settings(max_examples=300)
@given(_steps, _steps)
def test_products_and_negations_are_checked_matrices(left, right):
    A, B = _checked_product(left), _checked_product(right)
    for M in (A * B, B * A, -A, -(A * B)):
        assert type(M) is Sl2Matrix
        assert M.a * M.d - M.b * M.c == 1
        assert M == Sl2Matrix(*M)  # the checked constructor accepts it
    assert A * B == _checked_product(left + right)
    assert -A == Sl2Matrix(-A.a, -A.b, -A.c, -A.d)


_BAD_DETERMINANT = (1, 0, 0, 2)
_NON_INT = [(2.0, 1, 1, 1.0), (True, 0, 0, 1), (1, 0, 0, 1.0), (1, "0", 0, 1)]


@pytest.mark.parametrize("entries", [_BAD_DETERMINANT, *_NON_INT])
def test_every_construction_path_refuses_a_non_matrix(entries):
    a, b, c, d = entries
    message = "determinant" if entries == _BAD_DETERMINANT else "must be integers"
    forged = tuple.__new__(Sl2Matrix, entries)  # bypasses every check
    builds = [
        lambda: Sl2Matrix(a, b, c, d),
        lambda: Sl2Matrix(a=a, b=b, c=c, d=d),
        lambda: Sl2Matrix.from_lists([[a, b], [c, d]]),
        lambda: Sl2Matrix._make(entries),
        lambda: IDENTITY._replace(a=a, b=b, c=c, d=d),
        lambda: copy.copy(forged),
        lambda: copy.deepcopy(forged),
        lambda: pickle.loads(pickle.dumps(forged)),
    ]
    if hasattr(copy, "replace"):  # Python 3.13+
        builds.append(lambda: copy.replace(IDENTITY, a=a, b=b, c=c, d=d))
    for build in builds:
        with pytest.raises(DomainError, match=message):
            build()


def test_construction_paths_keep_a_valid_matrix():
    A = Sl2Matrix(3, 2, 4, 3)
    assert Sl2Matrix._make((3, 2, 4, 3)) == A
    assert A._replace(b=-2, c=-4) == Sl2Matrix(3, -2, -4, 3)
    assert copy.copy(A) == copy.deepcopy(A) == pickle.loads(pickle.dumps(A)) == A
    assert type(pickle.loads(pickle.dumps(A))) is Sl2Matrix


def test_a_matrix_is_a_frozen_tuple_of_its_entries():
    A = Sl2Matrix(2, 1, 1, 1)
    for field in ("a", "b", "c", "d"):
        with pytest.raises(AttributeError):
            setattr(A, field, 5)
    with pytest.raises(AttributeError):
        A.e = 5
    a, b, c, d = A
    assert (a, b, c, d) == A == (2, 1, 1, 1) and hash(A) == hash((2, 1, 1, 1))
    assert 2 * A == (2, 1, 1, 1, 2, 1, 1, 1)  # tuple repetition, not scaling
    assert A + S == (2, 1, 1, 1, 0, -1, 1, 0)  # tuple concatenation
    with pytest.raises(TypeError):
        A * (1, 0, 0, 1)  # a plain tuple would be multiplied unchecked


def test_a_float_entry_is_refused_before_any_word():
    # once accepted: decompose_gamma gave T^2.0 S T, theta1_epsilon a TypeError
    with pytest.raises(DomainError, match="must be integers"):
        decompose_gamma(Sl2Matrix(2.0, 1, 1, 1.0))


@pytest.mark.parametrize(
    "A, tau",
    [
        (Sl2Matrix(1, 0, int(1.2e29), 1), 0.5 + 1e300j),  # once nan+nanj
        (Sl2Matrix(1, 0, 10**400, 1), 0.5 + 1j),  # once a raw OverflowError
        (Sl2Matrix(1, 0, 10**200, 1), 0.5 + 1e-300j),  # Im underflows to 0
    ],
)
def test_mobius_outside_the_floats_is_a_domain_error(A, tau):
    with pytest.raises(DomainError, match="upper half-plane"):
        mobius(A, tau)


def test_int_text_names_an_int_too_long_to_print():
    # past the int-to-str digit limit (4,300 digits by default) an int is
    # named by its size; below it, and for any non-int, the text is the repr
    assert int_text(10**5000) == "<int of about 5001 digits>"
    assert int_text(-(10**5000)) == "-<int of about 5001 digits>"
    assert int_text(-(10**4000)) == str(-(10**4000))
    assert int_text(2.5) == "2.5"
    assert int_text(Fraction(10**5000, 3)) == "<Fraction too long to print>"


_HUGE_INT = "<int of about 5001 digits>"


@pytest.mark.parametrize(
    "call",
    [
        lambda: Sl2Matrix(1, 0, 10**5000, 2),  # the determinant message
        lambda: Sl2Matrix(1, 0, 10**5000, 1.0),  # the entries message
        lambda: mobius(Sl2Matrix(1, 0, 10**5000, 1), 1j),  # its {A}
    ],
    ids=["determinant", "entries", "mobius"],
)
def test_a_huge_entry_in_a_message_is_named_by_its_size(call):
    # once a raw ValueError from formatting the int, not the DomainError
    with pytest.raises(DomainError, match=_HUGE_INT):
        call()


def _nearest(p, q):
    """Nearest integer to p/q, ties toward the floor: ceil((2p - q)/(2q))."""
    if q < 0:
        p, q = -p, -q
    return -((q - 2 * p) // (2 * q))


def _reference_close(letters, M):
    """The word of a walk that ended at M = +-T^j."""
    sign = 1 if M.a == 1 else -1
    if M.b:
        letters.append(Letter("T", sign * M.b))
    return GeneratorWord(tuple(letters), sign)


def _reference_decompose(A):
    """decompose_gamma's word, from one Sl2Matrix per Euclid step."""
    letters, M = [], A
    while M.c != 0:
        m = _nearest(M.a, M.c)
        letters += [Letter("T", m), Letter("S")] if m else [Letter("S")]
        M = Sl2Matrix(M.c, M.d, m * M.c - M.a, m * M.d - M.b)  # S^-1 T^-m M
    return _reference_close(letters, M)


def _one_loop_decompose(A):
    """decompose_gamma as one loop on four ints that appends each round's
    letters as it peels them, T^m (unless m = 0) then S, with no list of
    rounds between, and closes on the remainder +-T^j itself."""
    letters = []
    a, b, c, d = A
    while c != 0:
        m = -((c - 2 * a) // (2 * c))
        if m != 0:
            letters.append(Letter("T", m))
        letters.append(Letter("S"))
        a, b, c, d = c, d, m * c - a, m * d - b
    sign = 1 if a == 1 else -1
    if b != 0:
        letters.append(Letter("T", sign * b))
    return GeneratorWord(tuple(letters), sign)


def _reference_decompose2(A):
    """decompose_gamma2's word, from one Sl2Matrix per Euclid step."""
    letters, M = [], A
    while M.c != 0:
        if abs(M.c) >= abs(M.a):
            m = _nearest(M.c, 2 * M.a)
            letters.append(Letter("S2", m))
            M = Sl2Matrix(M.a, M.b, M.c - 2 * m * M.a, M.d - 2 * m * M.b)
        else:
            m = _nearest(M.a, 2 * M.c)
            letters.append(Letter("T", 2 * m))
            M = Sl2Matrix(M.a - 2 * m * M.c, M.b - 2 * m * M.d, M.c, M.d)
    return _reference_close(letters, M)


def _seeded_matrices(n, level2, seed):
    """n seeded matrices, |c| log-uniform up to 10^30 with either sign, and
    one in 20 a translation +-T^b; level2 keeps them congruent to I mod 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        if rng.random() < 0.05:
            s = rng.choice((1, -1))
            b = rng.randint(-(10**6), 10**6)
            if not level2 or b % 2 == 0:
                out.append(Sl2Matrix(s, s * b, 0, s))
            continue
        c = int(10 ** rng.uniform(0, 30)) * rng.choice((1, -1))
        d = rng.randint(-abs(c) * 3, abs(c) * 3)
        if math.gcd(c, d) != 1 or (level2 and (c % 2 or d % 2 == 0)):
            continue
        a = pow(d, -1, abs(c)) + abs(c) * rng.randint(-3, 3)
        b = (a * d - 1) // c
        if level2 and b % 2:
            a, b = a + abs(c), b + (d if c > 0 else -d)
        out.append(Sl2Matrix(a, b, c, d))
    return out


def test_decompose_gamma_matches_a_per_step_matrix_walk(huge_matrices):
    seeded = _seeded_matrices(2000, False, 29)
    matrices = huge_matrices + [-A for A in huge_matrices] + seeded
    for A in matrices:
        w = decompose_gamma(A)
        assert w == _reference_decompose(A), A
        assert recompose(w) == A


def test_decompose_gamma_is_the_one_loop_word():
    """5,000 seeded matrices, c log-uniform from 1 to 10^18, each and its
    negation, plus +-I and +-T^b: the word built from the list of Euclid's
    rounds is the one loop's, letter for letter and sign for sign."""
    rng = random.Random(53)
    matrices = []
    while len(matrices) < 5000:
        c = int(10 ** rng.uniform(0, 18))
        d = rng.randint(-4 * c, 4 * c)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) + c * rng.randint(-3, 3)
        matrices.append(Sl2Matrix(a, (a * d - 1) // c, c, d))
    matrices += [translation(b) for b in (0, 1, -1, 2, -7, 10**18, -(10**30))]
    for A in matrices + [-A for A in matrices]:
        w, reference = decompose_gamma(A), _one_loop_decompose(A)
        assert w == reference and str(w) == str(reference), A
        assert all(type(l) is Letter and type(l.exp) is int for l in w.letters), A
        assert recompose(w) == A


def test_decompose_gamma2_matches_a_per_step_matrix_walk(huge_matrices):
    level2 = [A for A in huge_matrices if is_gamma2(A)]
    matrices = level2 + _seeded_matrices(2000, True, 31)
    assert len(matrices) > 2000
    for A in matrices:
        assert is_gamma2(A)
        w = decompose_gamma2(A)
        assert w == _reference_decompose2(A), A
        assert recompose(w) == A


def test_decompose_gamma2_takes_a_run_at_once_as_the_walk_would():
    # near |c/a| = 1 the word is a long run of S2^e T^-2e; the walk takes it
    # a letter at a time and gives the reference word, wherever the run
    # starts and ends
    rng = random.Random(47)
    matrices = [Sl2Matrix(1 - n, 2 - n, -n, 1 - n) for n in range(2, 400, 2)]
    for _ in range(300):
        e = rng.choice((1, -1))
        pair = (Letter("S2", e), Letter("T", -2 * e))
        run = recompose(GeneratorWord(pair * rng.randint(1, 500)))
        left, right = (_random_word_matrix(rng, gamma2=True) for _ in range(2))
        matrices.append(left * run * right)
    for A in matrices + [-A for A in matrices]:
        assert decompose_gamma2(A) == _reference_decompose2(A), A


def test_decompose_gamma2_refuses_a_word_past_the_letter_cap():
    # Gamma(2) is free on T^2 and S2 up to sign: no shorter word exists
    n = MAX_WORD_LETTERS  # the word of (1-n 2-n; -n 1-n) has n - 1 letters
    assert len(decompose_gamma2(Sl2Matrix(1 - n, 2 - n, -n, 1 - n)).letters) == n - 1
    for n in (MAX_WORD_LETTERS + 2, 10**30):
        with pytest.raises(DomainError, match=f"more than {MAX_WORD_LETTERS} letters"):
            decompose_gamma2(Sl2Matrix(1 - n, 2 - n, -n, 1 - n))


# sha256 of every word's str and sorted-key JSON, one line each, over the
# corpora below, each matrix and its negative.
_WORD_DIGESTS = {
    "gamma": "341e13dc07f852b71ca7fc2beff0bf82cce87400a6ec9766a548a4b4a5115fc9",
    "gamma2": "7200bf8ec3e1ca276390cd5456ca1e99b1c7d832bc3f6a9748a51b364c72438a",
}


@pytest.mark.parametrize("name", sorted(_WORD_DIGESTS))
def test_words_print_and_serialize_byte_for_byte(name, huge_matrices):
    if name == "gamma":
        decompose, matrices = decompose_gamma, huge_matrices + _seeded_matrices(2000, False, 29)
    else:
        level2 = [A for A in huge_matrices if is_gamma2(A)]
        decompose, matrices = decompose_gamma2, level2 + _seeded_matrices(2000, True, 31)
    digest = hashlib.sha256()
    for A in matrices + [-A for A in matrices]:
        w = decompose(A)
        assert all(type(l) is Letter and type(l.exp) is int for l in w.letters), A
        digest.update(f"{w}\n{json.dumps(w.to_json(), sort_keys=True)}\n".encode())
    assert digest.hexdigest() == _WORD_DIGESTS[name]
