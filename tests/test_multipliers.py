"""Exact multiplier values, the phase lemmas, and the induction chain."""

import cmath
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from thetamod import modgroup, multipliers, transform
from thetamod.dedekind import dedekind_sum
from thetamod.errors import DomainError
from thetamod.exact import UnitPhase
from thetamod.modgroup import (
    IDENTITY,
    S,
    S2,
    GeneratorWord,
    Letter,
    Sl2Matrix,
    decompose_gamma,
    mobius,
    normalize_sign,
    recompose,
    shear,
    translation,
)
from thetamod.multipliers import (
    eta_epsilon,
    gamma2_alpha,
    gamma2_prefactor,
    lemma_sides,
    right_step,
    theta1_epsilon,
    theta1_epsilon_closed,
    theta1_epsilon_induction,
)
from thetamod.series import ThetaKind, theta_series
from thetamod.verify import TrialConfig, run_suite

K1, K2, K3, K4 = ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3, ThetaKind.THETA4


def _random_matrix(rng, gamma2=False, cap=1500):
    M = IDENTITY
    last = None
    for _ in range(rng.randint(1, 12)):
        exp = rng.randint(1, 6) * rng.choice((-1, 1))
        if gamma2:
            step = shear(exp) if last != "S2" and rng.random() < 0.5 else translation(2 * exp)
            gen = "S2" if step.c != 0 else "T"
        else:
            step = S if last != "S" and rng.random() < 0.5 else translation(exp)
            gen = "S" if step is S else "T"
        cand = M * step
        if cand.max_entry() > cap:
            break
        M, last = cand, gen
    return normalize_sign(M)[0]


def _draws(seed, n, gamma2=False, want=lambda A: A.c > 0):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        A = _random_matrix(rng, gamma2=gamma2)
        if want(A):
            out.append((A, rng.randint(-10, 10)))
    return out


def test_eta_epsilon_examples():
    assert eta_epsilon(S) == UnitPhase(0)
    assert eta_epsilon(Sl2Matrix(1, 0, 1, 1)) == UnitPhase(Fraction(1, 6))
    assert eta_epsilon(Sl2Matrix(1, 1, 1, 2)) == UnitPhase(Fraction(1, 4))


def test_theta1_epsilon_examples():
    assert theta1_epsilon(S) == UnitPhase(Fraction(3, 2))  # -i
    assert theta1_epsilon(S2) == UnitPhase(Fraction(7, 4))
    assert theta1_epsilon(Sl2Matrix(1, 0, 1, 1)) == UnitPhase(0)


def test_theta1_epsilon_requires_positive_c():
    with pytest.raises(DomainError):
        theta1_epsilon(translation(3))
    with pytest.raises(DomainError):
        theta1_epsilon(Sl2Matrix(0, 1, -1, 0))


def test_a_huge_negative_c_is_named_by_its_size():
    # once a raw ValueError from formatting c, not the DomainError
    with pytest.raises(DomainError, match="got c = -<int of about 5001 digits>"):
        theta1_epsilon(Sl2Matrix(1, 0, -(10**5000), 1))


def test_closed_form_examples():
    assert theta1_epsilon_closed(S) == theta1_epsilon(S) == UnitPhase(Fraction(3, 2))
    A = Sl2Matrix(1, 0, 1, 1)
    assert theta1_epsilon_closed(A) == theta1_epsilon(A) == UnitPhase(0)
    B = Sl2Matrix(2, 1, 1, 1)
    assert theta1_epsilon_closed(B) == UnitPhase(Fraction(1, 4))
    assert theta1_epsilon(B) == UnitPhase(Fraction(1, 4))


def test_closed_form_agreement_both_branches():
    seen = {"c-odd": 0, "d-odd": 0}
    for A, _ in _draws(21, 400):
        branch = "c-odd" if A.c % 2 == 1 else "d-odd"
        seen[branch] += 1
        assert theta1_epsilon_closed(A) == theta1_epsilon(A), (A, branch)
    assert min(seen.values()) > 30


def test_alpha_examples():
    assert gamma2_alpha(K3, S2) == UnitPhase(Fraction(1, 2))  # i
    assert gamma2_alpha(K3, Sl2Matrix(1, 2, 0, 1)) == UnitPhase(Fraction(3, 2))  # -i
    assert gamma2_alpha(K4, IDENTITY) == UnitPhase(0)
    with pytest.raises(DomainError):
        gamma2_alpha(K3, S)
    with pytest.raises(DomainError):
        gamma2_alpha(ThetaKind.THETA1, S2)


def _paper_alpha(kind, A):
    """The paper's Theorem 2 prefactor alpha = i^e of a level-2 matrix, with
    e an integer since b, c are even and a, d odd:

        theta2: e = (d-1)(c/2 - 1) + c/2
        theta3: e = (d-1)(c/2 + 1) - (b/2) a + c/2
        theta4: e = (a-1)(b/2 - 1) - b/2
    """
    a, b, c, d = A
    e = {
        K2: (d - 1) * (c // 2 - 1) + c // 2,
        K3: (d - 1) * (c // 2 + 1) - (b // 2) * a + c // 2,
        K4: (a - 1) * (b // 2 - 1) - b // 2,
    }[kind]
    return UnitPhase(Fraction(e, 2))


def test_alpha_is_the_papers_on_level_2():
    # the law of the characteristic against the paper's three exponents on
    # 10,000 seeded level-2 matrices: |c| log-uniform up to 10^18 or c = 0,
    # either sign
    rng = random.Random(63)
    seen = Counter()
    while sum(seen.values()) < 10000:
        c = 2 * (int(10 ** rng.uniform(0, 18)) // 2)
        if c == 0:
            A = translation(2 * rng.randint(-(10**18), 10**18))
        else:
            d = rng.randint(-c, c) | 1
            if math.gcd(c, d) != 1:
                continue
            a = pow(d, -1, c) + c * rng.randint(-3, 3)
            b = (a * d - 1) // c
            if b % 2:  # a + c gives b + d, and d is odd
                a, b = a + c, b + d
            A = Sl2Matrix(a, b, c, d)
        if rng.random() < 0.5:
            A = -A
        seen[(A.c > 0) - (A.c < 0)] += 1
        for kind in (K2, K3, K4):
            assert gamma2_alpha(kind, A) == _paper_alpha(kind, A), (kind, A)
    assert min(seen[-1], seen[1]) > 4000 and seen[0] > 50, seen


def test_gamma2_prefactor_lemma5_anchor():
    # alpha(theta3, S2) * epsilon1'(S2) = i * (-i) = 1, exactly
    assert gamma2_prefactor(K3, S2) == UnitPhase(0)


def _holds(sides):
    expected, observed = sides
    return expected == observed


def test_lemma1_examples_and_bulk():
    assert _holds(lemma_sides(S, Letter("T", 1)))
    for A, m in _draws(22, 500):
        assert _holds(lemma_sides(A, Letter("T", m))), (A, m)


def test_lemma2_examples_and_both_branches():
    assert _holds(lemma_sides(Sl2Matrix(1, 0, 1, 1), Letter("S")))
    for branch in (True, False):
        want = lambda M: M.c > 0 and M.d != 0 and (M.d > 0) == branch
        for A, _ in _draws(23 + branch, 500, want=want):
            assert _holds(lemma_sides(A, Letter("S"))), A
    with pytest.raises(DomainError):
        lemma_sides(Sl2Matrix(1, -1, 1, 0), Letter("S"))  # d = 0


def test_lemma3_examples_and_bulk():
    assert _holds(lemma_sides(S2, Letter("T", 2)))
    for A, m in _draws(25, 500, gamma2=True):
        assert _holds(lemma_sides(A, Letter("T", 2 * m))), (A, m)


def test_lemma4_both_branches():
    for branch in (True, False):
        want = (
            lambda M: M.c > 0
            and M.c + 2 * M.d != 0
            and (M.c + 2 * M.d > 0) == branch
        )
        for A, _ in _draws(27 + branch, 500, gamma2=True, want=want):
            assert _holds(lemma_sides(A, Letter("S2"))), A
    with pytest.raises(DomainError):
        lemma_sides(Sl2Matrix(-1, 0, 2, -1), Letter("S2"))  # c + 2d = 0


@pytest.mark.parametrize(
    "A, letter, N, delta",
    [
        (S, Letter("T", 3), Sl2Matrix(0, -1, 1, 3), 9),
        (Sl2Matrix(1, 0, 1, 1), Letter("S"), Sl2Matrix(0, -1, 1, -1), -9),
        (Sl2Matrix(0, -1, 1, -1), Letter("S"), Sl2Matrix(1, 0, 1, 1), 9),
        (S2, Letter("S2"), Sl2Matrix(1, 0, 4, 1), -6),
        (Sl2Matrix(1, -2, 2, -3), Letter("S2"), Sl2Matrix(3, 2, 4, 3), 12),
    ],
    ids=[f"A{i}-letter{i}-N{i}-delta{i}" for i in range(5)],  # not the delta's value
)
def test_right_step_table_entries(A, letter, N, delta):
    # delta in units of pi/12
    assert right_step(A, letter) == (N, delta)
    assert theta1_epsilon(N) == theta1_epsilon(A) * UnitPhase(Fraction(delta, 12))


@pytest.mark.parametrize(
    "A, letter",
    [
        (S2, Letter("S2", 2)),  # only S2 itself, not its powers
        (S, Letter("S", 2)),
        (S, Letter("U")),
        (Sl2Matrix(1, -1, 1, 0), Letter("S")),  # d = 0
        (Sl2Matrix(-1, 0, 2, -1), Letter("S2")),  # c + 2d = 0
        (translation(3), Letter("T", 1)),  # c = 0
        (-S, Letter("S")),  # c < 0
    ],
)
def test_right_step_rejections(A, letter):
    with pytest.raises(DomainError):
        right_step(A, letter)


@pytest.mark.parametrize("letter", [Letter("T", 0.5), Letter("T", True), Letter("S2", 1.0)])
def test_right_step_refuses_an_exponent_that_is_not_an_int(letter):
    with pytest.raises(DomainError):
        right_step(S, letter)


@pytest.mark.parametrize(
    "entry, suite",
    [
        (("T", False), "lemma1"),
        (("T", False), "lemma3"),
        (("S", False), "lemma2"),
        (("S", True), "lemma2"),
        (("S2", False), "lemma4"),
        (("S2", True), "lemma4"),
    ],
)
def test_phase_table_is_the_one_home(monkeypatch, entry, suite):
    """A wrong table entry breaks its lemma suite and the induction, which
    still takes every step's phase from the table, as _right does."""
    config = TrialConfig(seed=3, trials=20)
    assert all(r.passed for r in run_suite(suite, config))
    wrong = multipliers._RIGHT_PHASE[entry] + 3  # e^{i pi/4}, in units of pi/12
    monkeypatch.setitem(multipliers._RIGHT_PHASE, entry, wrong)
    assert not all(r.passed for r in run_suite(suite, config))
    if entry[0] != "S2":  # full-group words have no S2 letters
        draws = [A for A, _ in _draws(30, 50)]
        assert any(theta1_epsilon_induction(A) != theta1_epsilon(A) for A in draws)
        for A in draws:
            assert theta1_epsilon_induction(A) == _induction_by_right(A, Counter()), A


def test_right_step_is_the_signed_matrix_product():
    """right_step's four-int products against A * L.matrix(), made positive,
    with the table's phase: 12,000 seeded pairs, entries up to 10^18."""
    rng = random.Random(37)
    branches = Counter()
    while sum(branches.values()) < 12000:
        c = int(10 ** rng.uniform(0, 18))
        d = rng.randint(-2 * c, 2 * c)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) + c * rng.randint(-3, 3)
        A = Sl2Matrix(a, (a * d - 1) // c, c, d)
        gen = rng.choice(("T", "S", "S2"))
        letter = Letter(gen, rng.randint(-(10**6), 10**6) if gen == "T" else 1)
        N = A * letter.matrix()
        if N.c == 0:
            with pytest.raises(DomainError):
                right_step(A, letter)
            continue
        flipped = N.c < 0
        delta = multipliers._RIGHT_PHASE[gen, flipped] * letter.exp
        step = right_step(A, letter)
        assert step == ((-N if flipped else N), delta), (A, letter)
        assert type(step[0]) is Sl2Matrix and type(step[1]) is int, (A, letter)
        branches[gen, flipped] += 1
    assert min(branches[key] for key in multipliers._RIGHT_PHASE) > 1000, branches


def test_the_induction_builds_no_matrix_per_letter(monkeypatch):
    """The induction walks four ints: the Sl2Matrix constructions, products
    and negations it makes, and the letter matrices it builds, are the same
    few on a word of 5 letters as on one of 27."""
    T2, T3, S_ = Letter("T", 2), Letter("T", 3), Letter("S")
    short = recompose(GeneratorWord((T2, S_, T3, S_, T2)))
    long = recompose(GeneratorWord((T2, S_) + (T3, S_) * 12 + (T2,)))
    assert [len(decompose_gamma(A).letters) for A in (short, long)] == [5, 27]
    made = Counter()

    def counted(owner, name):
        original = owner.__dict__[name]

        def wrapper(*args):
            made[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("__new__", "__mul__", "__neg__"):
        counted(Sl2Matrix, name)
    counted(Letter, "matrix")
    totals = []
    for A in (short, long):
        made.clear()
        induced = theta1_epsilon_induction(A)
        totals.append(sum(made.values()))
        assert induced == theta1_epsilon(A), A
    assert totals[0] == totals[1] <= 2, totals


def test_the_induction_builds_no_word(monkeypatch):
    """The induction reads Euclid's rounds as plain ints: with the word's
    constructors made to raise, decompose_gamma fails and the induction
    still gives theta1_epsilon, on short words and on c up to 10^18."""

    def refuse(*args):
        raise AssertionError("a generator word was built")

    monkeypatch.setattr(modgroup, "_close_word", refuse)
    monkeypatch.setattr(modgroup, "GeneratorWord", refuse)
    rng = random.Random(59)
    matrices = [A for A, _ in _draws(32, 300)]
    while len(matrices) < 600:
        c = int(10 ** rng.uniform(0, 18))
        d = rng.randint(-4 * c, 4 * c)
        if math.gcd(c, d) == 1:
            a = pow(d, -1, c)
            matrices.append(Sl2Matrix(a, (a * d - 1) // c, c, d))
    for A in matrices:
        with pytest.raises(AssertionError, match="word was built"):
            decompose_gamma(A)
        assert theta1_epsilon_induction(A) == theta1_epsilon(A), A


def _induction_by_right(A, steps):
    """theta1_epsilon_induction's walk, one multipliers._right step per letter
    on four ints: the reference its inline lower-row steps are pinned to.
    Counts each step's (generator, delta) in steps."""
    letters = decompose_gamma(A).letters
    j = letters[0].exp if letters[0].gen == "T" else 0
    k = multipliers._right(*S, "T", j)[4] - 6  # epsilon1(S) = -i
    a, b, c, d = j, -1, 1, 0  # T^j S
    for gen, exp in letters[2 if j else 1:]:
        a, b, c, d, delta = multipliers._right(a, b, c, d, gen, exp)
        assert c > 0, (A, gen, exp)
        steps[gen, delta if gen == "S" else 3] += 1
        k += delta
    return UnitPhase._of(k)


def test_the_induction_is_the_walk_by_right():
    """5,000 seeded matrices, c log-uniform from 1 to 10^18, each and its
    negation, and each against the Dedekind-sum value."""
    rng = random.Random(43)
    steps = Counter()
    matrices = []
    while len(matrices) < 5000:
        c = int(10 ** rng.uniform(0, 18))
        d = rng.randint(-4 * c, 4 * c)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) + c * rng.randint(-3, 3)
        matrices.append(Sl2Matrix(a, (a * d - 1) // c, c, d))
    for A in matrices:
        induced = theta1_epsilon_induction(A)
        assert induced == _induction_by_right(A, steps) == theta1_epsilon(A), A
        assert theta1_epsilon_induction(-A) == induced, A
    # T steps, and S steps both plain (-9) and flipped (+9), thousands each
    assert sorted(steps) == [("S", -9), ("S", 9), ("T", 3)], steps
    assert min(steps.values()) > 5000, steps


def test_epsilon1_eighth_root_of_unity():
    for A, _ in _draws(29, 300):
        p = theta1_epsilon(A)
        assert (p.phase * 4).denominator == 1  # multiple of 1/4
        assert p**8 == UnitPhase(0)


def test_induction_matches_direct():
    for A, _ in _draws(30, 300):
        assert theta1_epsilon_induction(A) == theta1_epsilon(A), A


def test_three_multipliers_agree_on_huge_matrices(huge_matrices):
    # the closed form uses Jacobi symbols and the induction no Dedekind sum
    for A in huge_matrices:
        eps1 = theta1_epsilon(A)
        assert theta1_epsilon_closed(A) == eps1, A
        assert theta1_epsilon_induction(A) == eps1, A


def _integer_phase_matrices():
    """20,000 seeded matrices with 1 <= c <= 10^4 and |d| <= 4c, either sign."""
    rng = random.Random(17)
    out = []
    while len(out) < 20000:
        c = rng.randint(1, 10**4)
        d = rng.randint(-4 * c, 4 * c)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) + c * rng.randint(-3, 3)
        out.append(Sl2Matrix(a, (a * d - 1) // c, c, d))
    return out


def test_integer_phase_identities(huge_matrices):
    # eta's phase (a + d - 12c*s(d, c))/c in units of pi/12 is an integer,
    # and the three theta1 multipliers agree with -i*eta^3 taken from it
    minus_i = UnitPhase(Fraction(-1, 2))
    for A in _integer_phase_matrices() + huge_matrices:
        s = dedekind_sum(A.d, A.c)
        g = 12 * A.c * s
        assert g.denominator == 1 and (A.a + A.d - g.numerator) % A.c == 0, A
        eta = eta_epsilon(A)  # against the rational formula it replaced
        assert eta.phase == (Fraction(A.a + A.d, 12 * A.c) - s) % 2, A
        eps1 = theta1_epsilon(A)
        assert theta1_epsilon_closed(A) == eps1 == theta1_epsilon_induction(A), A
        assert eps1 == eta**3 * minus_i, A


def test_induction_on_translation_raises():
    with pytest.raises(DomainError):
        theta1_epsilon_induction(translation(4))


def test_gamma2_prefactor_matches_eta_cube_convention():
    # prefactor must equal alpha * (-i eps^3) * e^{-i pi/4} phasewise
    for A, _ in _draws(31, 100, gamma2=True):
        for kind in (K2, K3, K4):
            expected = (
                gamma2_alpha(kind, A)
                * theta1_epsilon(A)
                * UnitPhase(Fraction(-1, 4))
            )
            assert gamma2_prefactor(kind, A) == expected


def _law_unit(kind, A, tau=0.3 + 1.1j):
    """The unit factor of transform._law's law of A, as the predictors apply
    it: e^{-exponent} over (-i j)^{1/2} e^{i pi c z^2/j}, j = c tau+d, read
    back from the exponent; at c = 0 the exponent is the unit's alone."""
    z = 0.1 + 0.2j
    exponent, _, _, kind_c = transform._law(kind, A, z, tau)
    assert kind_c is kind  # theta1 on the whole group, theta2/3/4 on level 2
    if not A.c:
        return cmath.exp(-exponent)
    j = A.c * tau + A.d
    return cmath.exp(-exponent - 0.5 * cmath.log(-1j * j) - 1j * math.pi * A.c * z * z / j)


def _is_phase(value, phase):
    return abs(value - phase.to_complex()) < 1e-15


def test_law_phase_table():
    # theta1: epsilon1 on the whole group
    for A, _ in _draws(61, 100):
        assert _is_phase(_law_unit(K1, A), theta1_epsilon(A)), A
    # theta2/3/4 on level 2: the paper's alpha * epsilon1
    for A, _ in _draws(62, 200, gamma2=True):
        for kind in (K2, K3, K4):
            unit = _law_unit(kind, A)
            assert _is_phase(unit, _paper_alpha(kind, A) * theta1_epsilon(A)), (kind, A)
    # c = 0: the translation laws
    for b in range(-9, 10):
        assert _is_phase(_law_unit(K1, translation(b)), UnitPhase(Fraction(b, 4)))
    for m in range(-5, 6):
        T2m = translation(2 * m)
        assert _is_phase(_law_unit(K1, T2m), UnitPhase(Fraction(m, 2)))
        for kind, phase in ((K2, Fraction(m, 2)), (K3, 0), (K4, 0)):
            assert _is_phase(_law_unit(kind, T2m), UnitPhase(phase)), (kind, m)


@pytest.mark.parametrize(
    "kind, A",
    [(K3, translation(1)), (K2, translation(-3)), (K4, translation(5)), (K2, S)],
    ids=str,
)
def test_law_phase_rejects_non_level2(kind, A):
    # the level-2 law's residue is refused, and so is the prediction
    with pytest.raises(DomainError, match="not congruent to the identity mod 2"):
        gamma2_alpha(kind, A)
    with pytest.raises(DomainError, match="not congruent to the identity mod 2"):
        transform.predict_theta_gamma2(kind, A, 0.1, 1j)


def test_gamma2_prefactor_still_requires_positive_c():
    with pytest.raises(DomainError):
        gamma2_prefactor(K3, translation(2))


def _level2_matrices(n, seed):
    """n seeded level-2 matrices, c even and log-uniform from 2 to 10^12."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        c = 2 * int(10 ** rng.uniform(0, 12))
        d = rng.randint(-4 * c, 4 * c) | 1
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) + c * rng.randint(-3, 3)
        b = (a * d - 1) // c
        if b % 2:
            a, b = a + c, b + d  # d is odd, so b turns even
        out.append(Sl2Matrix(a, b, c, d))
    return out


def test_gamma2_prefactor_is_alpha_times_epsilon1_times_e_minus_i_pi_4():
    minus_pi_4 = UnitPhase._of(-3)
    for A in _level2_matrices(2000, 47):
        eps1 = theta1_epsilon(A)
        for kind in (K2, K3, K4):
            expected = gamma2_alpha(kind, A) * eps1 * minus_pi_4
            assert gamma2_prefactor(kind, A) is expected, (kind, A)


@pytest.mark.parametrize(
    "kind, A, message",
    [
        (K1, S2, "gamma2_alpha applies to theta2/3/4, not theta1"),
        (K1, -S, "gamma2_alpha applies to theta2/3/4, not theta1"),
        (K3, S, "[[0,-1],[1,0]] is not congruent to the identity mod 2"),
        (K2, -S, "[[0,1],[-1,0]] is not congruent to the identity mod 2"),
        (K4, -S2, "theta1_epsilon needs c > 0 (normalize first), got c = -2"),
        (K3, translation(2), "theta1_epsilon needs c > 0 (normalize first), got c = 0"),
    ],
    ids=["theta1", "theta1-first", "not-level-2", "not-level-2-first", "c<0", "c=0"],
)
def test_gamma2_prefactor_refuses_in_the_old_order(kind, A, message):
    # the kind, then the congruence (gamma2_alpha's), then c > 0 (theta1_epsilon's)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        gamma2_prefactor(kind, A)


def _eta(tau):
    """eta(tau) = theta1(1/3, tau/3)/sqrt(3), from the direct series."""
    return theta_series(K1, 1 / 3, tau / 3, 1e-14) / math.sqrt(3)


def _eta_law_residual(A, tau):
    """Relative residual of eta(A tau) = eps(A) (-i(c tau+d))^{1/2} eta(tau)."""
    lhs = _eta(mobius(A, tau))
    rhs = (
        multipliers.eta_epsilon(A).to_complex()
        * cmath.sqrt(-1j * (A.c * tau + A.d))
        * _eta(tau)
    )
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def _eta_law_trials():
    """100 seeded (A, tau) with 1 <= c <= 6, |d| <= 12, tau in a unit box."""
    rng = random.Random(88)
    out = []
    while len(out) < 100:
        c, d = rng.randint(1, 6), rng.randint(-12, 12)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) + rng.randint(-3, 3) * c  # a d = 1 mod c
        A = Sl2Matrix(a, (a * d - 1) // c, c, d)
        out.append((A, complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.5))))
    return out


def test_eta_transformation_law():
    # eta_epsilon on its own, not through the cube in epsilon1 = -i eps^3
    for A, tau in _eta_law_trials():
        assert _eta_law_residual(A, tau) < 1e-9, (A, tau)


@pytest.mark.parametrize("shift", [Fraction(2, 3), Fraction(4, 3)], ids=str)
def test_eta_law_refutes_cube_root_shifts(monkeypatch, shift):
    # a cube root of unity vanishes from epsilon1, but not from the eta law
    exact = multipliers.eta_epsilon

    def shifted(A):
        return exact(A) * UnitPhase(shift) if A.c > 1 else exact(A)

    monkeypatch.setattr(multipliers, "eta_epsilon", shifted)
    trials = [(A, tau) for A, tau in _eta_law_trials() if A.c > 1]
    assert len(trials) > 60
    for A, tau in trials:
        assert _eta_law_residual(A, tau) > 0.5, (A, tau)
