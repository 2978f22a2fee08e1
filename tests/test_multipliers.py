"""Exact multiplier values, the phase lemmas, and the induction chain."""

import random
from fractions import Fraction

import pytest

from thetamod import multipliers
from thetamod.errors import DomainError
from thetamod.exact import UnitPhase
from thetamod.modgroup import (
    IDENTITY,
    S,
    S2,
    Letter,
    Sl2Matrix,
    normalize_sign,
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
from thetamod.series import ThetaKind
from thetamod.verify import TrialConfig, run_suite

K2, K3, K4 = ThetaKind.THETA2, ThetaKind.THETA3, ThetaKind.THETA4


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
        (S, Letter("T", 3), Sl2Matrix(0, -1, 1, 3), Fraction(3, 4)),
        (Sl2Matrix(1, 0, 1, 1), Letter("S"), Sl2Matrix(0, -1, 1, -1), Fraction(-3, 4)),
        (Sl2Matrix(0, -1, 1, -1), Letter("S"), Sl2Matrix(1, 0, 1, 1), Fraction(3, 4)),
        (S2, Letter("S2"), Sl2Matrix(1, 0, 4, 1), Fraction(-1, 2)),
        (Sl2Matrix(1, -2, 2, -3), Letter("S2"), Sl2Matrix(3, 2, 4, 3), Fraction(1)),
    ],
)
def test_right_step_table_entries(A, letter, N, delta):
    assert right_step(A, letter) == (N, delta)
    assert theta1_epsilon(N) == theta1_epsilon(A) * UnitPhase(delta)


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
    """A wrong table entry breaks its lemma suite and the induction."""
    config = TrialConfig(seed=3, trials=20)
    assert all(r.passed for r in run_suite(suite, config))
    wrong = multipliers._RIGHT_PHASE[entry] + Fraction(1, 4)
    monkeypatch.setitem(multipliers._RIGHT_PHASE, entry, wrong)
    assert not all(r.passed for r in run_suite(suite, config))
    if entry[0] != "S2":  # full-group words have no S2 letters
        draws = [A for A, _ in _draws(30, 50)]
        assert any(theta1_epsilon_induction(A) != theta1_epsilon(A) for A in draws)


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
