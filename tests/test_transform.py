"""Assembled transformation laws, reduction, and fast evaluation."""

import cmath
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from thetamod import multipliers, series, transform
from thetamod.cli import main
from thetamod.errors import DomainError, PrecisionUnreachableError, require_upper_half
from thetamod.modgroup import (
    IDENTITY,
    S,
    S2,
    Letter,
    Sl2Matrix,
    decompose_gamma,
    is_gamma2,
    mobius,
    normalize_sign,
    shear,
    translation,
)
from thetamod.multipliers import theta1_epsilon
from thetamod.series import (
    ThetaKind,
    theta1_sine_series,
    theta_series,
    theta_series_report,
    truncation_bound,
    truncation_index,
)
from thetamod.transform import (
    apply_letter,
    conditioning_factor,
    eval_fast,
    eval_fast_report,
    predict_theta1,
    predict_theta1_chained,
    predict_theta_gamma2,
    reduce_tau,
)
from thetamod.verify import TrialConfig, run_suite

K1, K2, K3, K4 = ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3, ThetaKind.THETA4


def _random_matrix(rng, gamma2=False, cap=20):
    M = IDENTITY
    last = None
    for _ in range(rng.randint(1, 12)):
        exp = rng.randint(1, 5) * rng.choice((-1, 1))
        if gamma2:
            step = shear(exp) if last == "T" or (last is None and rng.random() < 0.5) else translation(2 * exp)
        else:
            step = S if last == "T" or (last is None and rng.random() < 0.5) else translation(exp)
        cand = M * step
        if cand.max_entry() > cap:
            break
        M, last = cand, ("S2" if step.c != 0 and step.b == 0 else ("S" if step.c != 0 else "T"))
    return normalize_sign(M)[0]


def _point(rng):
    return (
        complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
        complex(rng.uniform(-1, 1), rng.uniform(0.5, 2)),
    )


def _law_root(A, tau):
    """(root, log |root|) of transform._law's theta1 law of A at tau, z = 0;
    the root is read back from the exponent, Log(unit) - Log(root), with the
    unit from epsilon1."""
    exponent = transform._law(K1, A, 0j, tau)[0]
    eps1 = theta1_epsilon(A).to_complex() if A.c else cmath.exp(1j * math.pi * A.b / 4)
    return cmath.exp(-exponent) / eps1, -exponent.real


def test_law_root_examples():
    assert _law_root(S, 1j) == (pytest.approx(1.0), pytest.approx(0.0))
    assert _law_root(S, 2j) == (pytest.approx(math.sqrt(2)), pytest.approx(math.log(2) / 2))
    assert _law_root(IDENTITY, 0.3 + 0.7j) == (1.0, 0.0)
    assert _law_root(translation(5), 1j) == (pytest.approx(1.0), 0.0)
    # -A acts as A: the law takes the sign off first, for every kind
    z, tau = 0.1 + 0.2j, 0.3 + 0.7j
    for kind, A in ((K1, S), (K3, S2), (K2, translation(3))):
        assert transform._law(kind, -A, z, tau) == transform._law(kind, A, z, tau)
    # so -A's unit, as a walk would carry it, is A's times -1 for theta2/3/4
    # (even in z) and A's for theta1 (odd): S^2 = -I
    assert series._char_law(K1, *-S) == series._char_law(K1, *S) == (K1, 0)
    assert series._char_law(K3, *-S2) == (K3, (series._char_law(K3, *S2)[1] + 12) % 24)


_CHARACTERISTIC = {K3: (0, 0), K4: (0, 1), K2: (1, 0), K1: (1, 1)}
_KIND = {char: kind for kind, char in _CHARACTERISTIC.items()}


def _walk(kind, letters):
    """(kind', rel mod 24) along the letters in application order, T^k as
    k != 0 and S as 0, by ThetaKind's T and S rules: T^k adds 3k to the unit
    where alpha = 0, and S adds -6 (theta1's extra i) where alpha beta = 0."""
    (alpha, beta), rel = _CHARACTERISTIC[kind], 0
    for k in letters:
        if k:
            if not alpha:
                rel += 3 * k
                beta ^= k & 1
        else:
            if not (alpha and beta):
                rel -= 6
            alpha, beta = beta, alpha
    return _KIND[alpha, beta], rel % 24


def test_law_of_the_characteristic_is_the_walk_mod_8():
    # one word per class of SL(2, Z/8), breadth first from I by T, T^-1 and
    # S on the left (S^2 = -I included): the law reads A mod 8
    words = {(1, 0, 0, 1): ((1, 0, 0, 1), [])}
    frontier = list(words.values())
    while frontier:
        grown = []
        for (a, b, c, d), word in frontier:
            for k in (1, -1, 0):
                A = (a + k * c, b + k * d, c, d) if k else (-c, -d, a, b)
                key = tuple(x % 8 for x in A)
                if key not in words:
                    words[key] = A, word + [k]
                    grown.append(words[key])
        frontier = grown
    assert len(words) == 384
    for kind in (K1, K2, K3, K4):
        for A, word in words.values():
            assert series._char_law(kind, *A) == _walk(kind, word), (kind, A, word)


def test_law_of_the_characteristic_is_the_walk_on_huge_words(huge_matrices):
    for M in huge_matrices:
        for A in (M, -M):
            word = decompose_gamma(A)  # A = sign * L1 ... Ln, Ln applied first
            letters = [l.exp if l.gen == "T" else 0 for l in reversed(word.letters)]
            letters += [] if word.sign == 1 else [0, 0]  # -I = S^2
            for kind in (K1, K2, K3, K4):
                assert series._char_law(kind, *A) == _walk(kind, letters), (kind, A)


def test_law_root_branch():
    rng = random.Random(51)
    for _ in range(100):
        A = _random_matrix(rng)
        if A.c == 0:
            continue
        _, tau = _point(rng)
        s, log_root = _law_root(A, tau)
        assert abs(s * s - (-1j * (A.c * tau + A.d))) < 1e-12
        assert s.real > 0
        assert log_root == pytest.approx(math.log(abs(s)), abs=1e-14)


def test_cocycle_sign_consistent_along_word():
    # For the plain weight-1/2 factor j(M, tau) = (c tau + d)^{1/2}:
    # j(AB, tau) = sigma * j(A, B tau) * j(B, tau) with sigma in {+-1},
    # the same sigma for every tau once (A, B) is fixed.  (The -i-twisted
    # root (-i(c tau+d))^{1/2} of transform._law satisfies the same relation
    # with an extra fixed e^{+-i pi/4}; the sign content is identical.)
    def j(M, tau):
        return cmath.sqrt(M.c * tau + M.d)

    rng = random.Random(52)
    pairs = 0
    while pairs < 30:
        A, B = _random_matrix(rng), _random_matrix(rng)
        AB = A * B
        if A.c == 0 or B.c == 0 or AB.c == 0:
            continue
        sigmas = []
        for _ in range(4):
            _, tau = _point(rng)
            sigmas.append(j(AB, tau) / (j(A, mobius(B, tau)) * j(B, tau)))
        assert all(min(abs(s - 1), abs(s + 1)) < 1e-10 for s in sigmas)
        first = 1 if abs(sigmas[0] - 1) < 1e-10 else -1
        for s in sigmas[1:]:
            assert abs(s - first) < 1e-10
        pairs += 1


def _law_residual(A, z, tau, tol=1e-12):
    w = A.c * tau + A.d
    lhs = theta_series(K1, z / w, mobius(A, tau), tol)
    rhs = predict_theta1(A, z, tau, tol)
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def test_predict_theta1_inversion_point():
    # A = S reproduces the -i sqrt(-i tau) e^{i pi z^2 / tau} law
    z, tau = 0.2, 1j
    lhs = theta_series(K1, z / tau, -1 / tau, 1e-12)
    assert abs(lhs - predict_theta1(S, z, tau, 1e-12)) < 1e-10
    explicit = (
        -1j
        * cmath.sqrt(-1j * tau)
        * cmath.exp(1j * math.pi * z * z / tau)
        * theta_series(K1, z, tau, 1e-12)
    )
    assert abs(predict_theta1(S, z, tau, 1e-12) - explicit) < 1e-12


def test_predict_theta1_translation_and_identity():
    z, tau = 0.3, 0.8j
    lhs = theta_series(K1, z, tau + 1, 1e-12)
    assert abs(lhs - predict_theta1(translation(1), z, tau, 1e-12)) < 1e-10
    assert predict_theta1(IDENTITY, z, tau, 1e-12) == pytest.approx(
        theta_series(K1, z, tau, 1e-12)
    )


def test_predict_theta1_random_matrices():
    rng = random.Random(53)
    checked = 0
    while checked < 60:
        A = _random_matrix(rng)
        if A.c <= 0:
            continue
        z, tau = _point(rng)
        kappa = conditioning_factor(A, z, tau)
        assert _law_residual(A, z, tau) < 1e-9 * max(kappa, 1.0)
        checked += 1


def test_predict_theta1_rejects_unnormalized():
    with pytest.raises(DomainError):
        predict_theta1(Sl2Matrix(0, 1, -1, 0), 0.1, 1j)


def test_oddness_transport():
    rng = random.Random(54)
    for _ in range(20):
        A = _random_matrix(rng)
        if A.c <= 0:
            continue
        z, tau = _point(rng)
        assert predict_theta1(A, -z, tau, 1e-12) == pytest.approx(
            -predict_theta1(A, z, tau, 1e-12), abs=1e-9
        )


def test_predict_gamma2_lemma5_point():
    # S2 carries total unit prefactor 1: the (2 tau + 1)^{1/2} law
    z, tau = 0.1, 1j
    w = 2 * tau + 1
    lhs = theta_series(K3, z / w, mobius(S2, tau), 1e-12)
    rhs = predict_theta_gamma2(K3, S2, z, tau, 1e-12)
    assert abs(lhs - rhs) < 1e-10
    explicit = (
        cmath.sqrt(w)
        * cmath.exp(2j * math.pi * z * z / w)
        * theta_series(K3, z, tau, 1e-12)
    )
    assert abs(rhs - explicit) < 1e-12


def test_predict_gamma2_examples():
    A = Sl2Matrix(3, 2, 4, 3)
    rng = random.Random(55)
    z, tau = _point(rng)
    w = A.c * tau + A.d
    lhs = theta_series(K3, z / w, mobius(A, tau), 1e-12)
    rhs = predict_theta_gamma2(K3, A, z, tau, 1e-12)
    assert abs(lhs - rhs) / max(1, abs(rhs)) < 1e-9
    for kind in (K2, K4):
        assert predict_theta_gamma2(kind, IDENTITY, z, tau, 1e-12) == pytest.approx(
            theta_series(kind, z, tau, 1e-12)
        )


def test_predict_gamma2_c_zero_periodicity():
    z, tau = 0.2 + 0.1j, 0.4 + 1.1j
    T2 = Sl2Matrix(1, 2, 0, 1)
    assert predict_theta_gamma2(K3, T2, z, tau, 1e-12) == pytest.approx(
        theta_series(K3, z, tau + 2, 1e-12), abs=1e-10
    )
    assert predict_theta_gamma2(K2, T2, z, tau, 1e-12) == pytest.approx(
        theta_series(K2, z, tau + 2, 1e-12), abs=1e-10
    )


def test_predict_gamma2_random_all_kinds():
    rng = random.Random(56)
    for kind in (K2, K3, K4):
        checked = 0
        while checked < 40:
            A = _random_matrix(rng, gamma2=True, cap=20)
            if A.c <= 0:
                continue
            assert is_gamma2(A)
            z, tau = _point(rng)
            w = A.c * tau + A.d
            lhs = theta_series(kind, z / w, mobius(A, tau), 1e-12)
            rhs = predict_theta_gamma2(kind, A, z, tau, 1e-12)
            kappa = conditioning_factor(A, z, tau)
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9 * max(kappa, 1.0)
            checked += 1


def test_predict_gamma2_rejects():
    with pytest.raises(DomainError):
        predict_theta_gamma2(K3, S, 0.1, 1j)
    with pytest.raises(DomainError):
        predict_theta_gamma2(K1, S2, 0.1, 1j)


def test_predict_gamma2_reads_the_law_once(monkeypatch):
    # the refusals are gamma2_alpha's, but the law is read by _law alone
    calls = []
    true_char_law = series._char_law

    def spy(*args):
        calls.append(args)
        return true_char_law(*args)

    for module in (series, transform, multipliers):
        monkeypatch.setattr(module, "_char_law", spy)
    for kind, A in ((K3, S2), (K2, Sl2Matrix(3, 2, 4, 3)), (K4, translation(2))):
        calls.clear()
        predict_theta_gamma2(kind, A, 0.1, 1j)
        assert len(calls) == 1, (kind, A)


def test_predictors_refuse_before_summing(monkeypatch):
    def summed(*args):
        raise AssertionError("a refused input reached the series")

    monkeypatch.setattr(series, "_partial_sum", summed)
    parts = (math.inf, -math.inf, math.nan, 0.3)
    bad_points = [(0.1, tau) for tau in (0.5, -1j)]
    bad_points += [(complex(x, y), 1j) for x in parts for y in parts if not x == y == 0.3]
    # c < 0, c = 0 with d = -1, and good matrices at points outside the domain
    for A in (-S, -IDENTITY, -translation(2)):
        with pytest.raises(DomainError):
            predict_theta1(A, 0.1, 1j)
    for A in (S, translation(1)):
        for z, tau in bad_points:
            with pytest.raises(DomainError):
                predict_theta1(A, z, tau)
    # the same for theta2/3/4, plus a matrix that is not level 2, and theta1
    for kind in (K2, K3, K4):
        for A in (-S2, -IDENTITY, -translation(2), S):
            with pytest.raises(DomainError):
                predict_theta_gamma2(kind, A, 0.1, 1j)
        for A in (S2, translation(2)):
            for z, tau in bad_points:
                with pytest.raises(DomainError):
                    predict_theta_gamma2(kind, A, z, tau)
    with pytest.raises(DomainError):
        predict_theta_gamma2(K1, S2, 0.1, 1j)


@pytest.mark.parametrize(
    "predict",
    [
        lambda: predict_theta1(Sl2Matrix(1, 0, 1, 1), 30 - 30j, 0.1 + 1j),
        lambda: predict_theta_gamma2(K3, S2, 30 - 30j, 0.1 + 1j),
        lambda: predict_theta1(Sl2Matrix(1, 0, 1, 1), 1e155 + 0j, 0.1 + 1j),
        lambda: predict_theta1(Sl2Matrix(5, 14, 21, 59), 21.6 - 11.06j, 0.1 + 1j),
        lambda: predict_theta1(Sl2Matrix(1, 0, 10**10, 1), 0.1, 1e300 + 1j),
    ],
    ids=[
        "theta1-overflow",
        "theta3-overflow",
        "theta1-non-finite-exponent",
        "theta1-product",
        "theta1-re-j",
    ],
)
def test_predictors_name_a_law_factor_beyond_the_float_range(predict):
    # once a raw OverflowError (the Gaussian's exp) or ValueError (z^2 = inf);
    # then an (-inf+nanj) return where e^gauss and the series were finite but
    # not their product, and an OverflowError from Re(c tau+d)
    match = r"^law factor of \[\[.*\]\] at z = .*, tau = \((0.1|1e\+300)\+1j\) is beyond the float"
    with pytest.raises(DomainError, match=match) as exc:
        predict()
    assert exc.value.__context__ is None  # raised outside the handler
    # a non-finite z makes a non-finite Gaussian too, but is named as itself
    with pytest.raises(DomainError, match="^tau and z must be finite"):
        predict_theta1(S, complex(math.nan, 0.1), 1j)
    with pytest.raises(DomainError, match="^tau and z must be finite"):
        predict_theta_gamma2(K3, S2, complex(math.inf, 0.3), 1j)


def _sweep_part(rng):
    """A float log-uniform in +-[1e-12, 1e12], or with probability 0.15 one of
    0, +-1e300, 5e-324, +-1e16."""
    if rng.random() < 0.15:
        return rng.choice((0.0, 1e300, -1e300, 5e-324, 1e16, -1e16))
    return rng.choice((-1, 1)) * 10 ** rng.uniform(-12, 12)


def _sweep_matrix(rng, gamma2):
    """A normalized matrix, c log-uniform up to 1e30 (or 0), level 2 if asked."""
    step = 2 if gamma2 else 1
    c = step * int(10 ** rng.uniform(0, 30) / step)
    if c == 0:
        return translation(step * rng.randint(-10**6, 10**6))
    while True:
        d = rng.randrange(-c, c + 1) | (1 if gamma2 else 0)
        if d and math.gcd(c, d) == 1:
            break
    modulus = 2 * c if gamma2 else c  # a d = 1 mod 2c makes b even
    a = pow(d, -1, modulus) + modulus * rng.randint(-3, 3)
    return Sl2Matrix(a, (a * d - 1) // c, c, d)


def test_predictors_return_a_float_or_a_named_error():
    # the domain sweep: a finite value, a DomainError or a
    # PrecisionUnreachableError, never a raw error or a non-finite return.
    # Seed 11 draws a point where the predicted value was once -inf+nanj,
    # and one where the series raised a raw ValueError (an exp of infinite
    # phase at Re tau = 1e300).
    rng = random.Random(11)
    outcomes = {"value": 0, "refused": 0}
    for i in range(600):
        kind = (K1, K2, K3, K4)[i % 4]
        A = _sweep_matrix(rng, gamma2=kind is not K1)
        z = complex(_sweep_part(rng), _sweep_part(rng))
        tau = complex(_sweep_part(rng), abs(_sweep_part(rng)))
        try:
            if kind is K1:
                value = predict_theta1(A, z, tau, 1e-10)
            else:
                value = predict_theta_gamma2(kind, A, z, tau, 1e-10)
        except (DomainError, PrecisionUnreachableError):
            outcomes["refused"] += 1
            continue
        assert cmath.isfinite(value), (kind, A, z, tau)
        outcomes["value"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_reduce_tau_examples():
    A, t = reduce_tau(1j)
    assert A == IDENTITY and t == 1j
    A, t = reduce_tau(1j + 5)
    assert A == translation(-5) and t == pytest.approx(1j)
    tau = 0.3 + 0.01j
    A, t = reduce_tau(tau)
    assert abs(mobius(A, tau) - t) < 1e-12
    assert t.imag >= math.sqrt(3) / 2 * (1 - 1e-9)
    assert abs(t.real) <= 0.5 + 1e-12
    assert abs(t) >= 1 - 1e-12


def test_reduce_tau_random():
    rng = random.Random(57)
    for _ in range(200):
        tau = complex(rng.uniform(-8, 8), math.exp(rng.uniform(-6, 1)))
        A, t = reduce_tau(tau)
        assert abs(mobius(A, tau) - t) < 1e-9 * max(1, 1 / tau.imag)
        assert abs(t.real) <= 0.5 + 1e-9
        assert abs(t) >= 1 - 1e-9


def test_eval_fast_examples():
    # reduced case is a no-op
    assert eval_fast(K3, 0, 1j, 1e-12) == pytest.approx(
        theta_series(K3, 0, 1j, 1e-12)
    )
    # hard regime: direct series still feasible, fast path must agree
    z, tau = 0.1, 0.3 + 0.02j
    direct = theta_series(K1, z, tau, 1e-8)
    assert abs(eval_fast(K1, z, tau, 1e-8) - direct) < 1e-7


def test_eval_fast_rejects_nan_tolerance():
    # NaN compares false with everything, so `tol <= 0` would let it through
    with pytest.raises(DomainError):
        eval_fast(K3, 0.1, 1j, tol=float("nan"))


def test_eval_fast_all_kinds_random():
    rng = random.Random(58)
    for _ in range(60):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        tau = complex(rng.uniform(-2, 2), math.exp(rng.uniform(-5, 0.5)))
        for kind in (K1, K2, K3, K4):
            direct = theta_series(kind, z, tau, 1e-10)
            fast = eval_fast(kind, z, tau, 1e-10)
            assert abs(fast - direct) < 1e-8 * max(1, abs(direct)), (kind, z, tau)


def test_eval_fast_term_savings():
    tau = 0.3 + 0.02j
    z = -2.6 * (3 * tau - 1)  # reduced argument lands on the real axis
    rep = eval_fast_report(K1, z, tau, 1e-8)
    direct = theta_series_report(K1, z, tau, 1e-8)
    assert rep.terms * 10 <= direct.terms
    assert abs(rep.value - direct.value) < 1e-7


def test_eval_fast_report_word_recomposes():
    from thetamod.modgroup import recompose

    rep = eval_fast_report(K1, 0.1, 0.3 + 0.02j, 1e-8)
    assert recompose(rep.word) == rep.reduction
    assert abs(rep.tau_reduced) >= 1 - 1e-9


def test_eval_path_multiplies_no_matrices(monkeypatch):
    def refuse(self, other):
        raise AssertionError("Sl2Matrix product on the eval path")

    monkeypatch.setattr(Sl2Matrix, "__mul__", refuse)
    for kind in (K1, K2, K3, K4):
        assert math.isfinite(abs(eval_fast(kind, 0.1, 0.3 + 0.01j, 1e-10)))


def test_eval_path_does_not_walk_apply_letter(monkeypatch):
    # eval_fast applies one law on the reducing matrix; apply_letter is left
    # to the chained oracle
    def refuse(*args, **kwargs):
        raise AssertionError("apply_letter on the eval path")

    points = [(0.1 + 0.05j, 0.3 + 0.01j), (0.2, -3.7 + 0.002j), (0.1j, 2.4 + 1.5j)]
    before = [eval_fast(kind, z, tau) for kind in (K1, K2, K3, K4) for z, tau in points]
    monkeypatch.setattr(transform, "apply_letter", refuse)
    assert [eval_fast(kind, z, tau) for kind in (K1, K2, K3, K4) for z, tau in points] == before


def _outcome(call, *args):
    """repr of call(*args), or the type and message of what it raised."""
    try:
        return repr(call(*args))
    except Exception as e:
        return type(e), str(e)


def test_eval_fast_is_the_reports_value():
    # one kernel: eval_fast gives the report's value bit for bit, or raises
    # the same error with the same message, max_index below 1 included
    def report_value(*args):
        return eval_fast_report(*args).value

    rng = random.Random(41)
    args = []
    for _ in range(1000):
        z = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-6, 1))
        kind, max_index = rng.choice((K1, K2, K3, K4)), rng.choice((1000, 1))
        args.append((kind, z, tau, 1e-10, max_index))
    args += itertools.product(
        ThetaKind,
        (0, 0.3 + 0.2j, 5e-324j, 1e17 + 3j, 1e300 - 1e300j, complex("nan")),
        (1j, 0.5 + 1e-14j, 0.5 + 1e-320j, 0.3 + 1e-300j, 1e308j, -1e300 + 1j),
        (1e-10, 5e-324, 1e300),
        (0, 1, 1000),  # max_index
    )
    raised = 0
    for arg in args:
        expected = _outcome(report_value, *arg)
        assert _outcome(eval_fast, *arg) == expected, arg
        raised += isinstance(expected, tuple)
    assert 0 < raised < len(args) - 500  # both outcomes, many values among them


def test_eval_fast_checks_max_index_only_where_it_sums():
    # a reduction or float-range error comes before a max_index below 1
    with pytest.raises(DomainError, match="^reducing tau = .* leaves the float range"):
        eval_fast(K3, 0.1, 0.5 + 1e-320j, max_index=0)
    with pytest.raises(DomainError, match=r"is beyond the float range \(log-scale"):
        eval_fast(K1, 50j, 0.1 + 1j, max_index=0)
    with pytest.raises(DomainError, match="^max_index must be >= 1, got 0$"):
        eval_fast(K3, 0.1, 0.3 + 0.02j, max_index=0)


def test_eval_fast_checks_once_and_builds_no_record(monkeypatch):
    # the kernel checks the caller's point once and hands the reduced point
    # to the truncation core, not to the checked truncation_index
    def refuse(*args, **kwargs):
        raise AssertionError("a checked or record-building path on eval_fast")

    checks = []

    def counting(*args):
        checks.append(args)
        return require_upper_half(*args)

    points = [(0.3 + 0.2j, 0.1 + 0.01j), (2.7 - 0.4j, -3.2 + 0.5j), (0.1, 1j)]
    cases = [(kind, z, tau) for kind in ThetaKind for z, tau in points]
    before = [eval_fast_report(*case).value for case in cases]
    monkeypatch.setattr(transform, "require_upper_half", counting)
    monkeypatch.setattr(series, "require_upper_half", counting)
    monkeypatch.setattr(series, "truncation_index", refuse)
    monkeypatch.setattr(transform, "truncation_index", refuse, raising=False)
    monkeypatch.setattr(transform, "FastEvaluation", refuse)
    for (kind, z, tau), value in zip(cases, before):
        checks.clear()
        assert eval_fast(kind, z, tau) == value
        assert checks == [(tau, z)]


def test_reduction_matrix_is_the_left_product_of_the_letters():
    rng = random.Random(60)
    for i in range(500):
        tau = complex(rng.uniform(-8, 8), math.exp(rng.uniform(-6, 2)))
        rep = eval_fast_report((K1, K2, K3, K4)[i % 4], 0.1, tau, 1e-10)
        A = IDENTITY
        for letter in reversed(rep.word.letters):  # application order
            A = letter.matrix() * A
        assert rep.reduction == A
        assert reduce_tau(tau)[0] == A


def _unit(rel):
    return cmath.exp(1j * math.pi * rel / 12)


def _letter_walk(kind, z, tau, tol):
    """eval_fast as a walk of theta1's apply_letter along the reduction
    letters, the factor carried letter by letter, times the kind's unit
    against theta1 from _walk; None where the walk is not finite."""
    steps = transform._reduce_steps(tau)[2]
    kind, rel = _walk(kind, steps)
    factor = 1 + 0j
    try:
        for k in steps:
            factor, z, tau = apply_letter(Letter("T", k) if k else Letter("S"), z, tau, factor)
        factor *= _unit(rel)
        value = factor * theta_series(kind, z, tau, tol / max(abs(factor), 1.0))
    except (ArithmeticError, ValueError):  # a raw overflow, or a named error
        return None
    return value if cmath.isfinite(value) else None


def test_eval_fast_agrees_with_the_letter_walk():
    # the one law, on the carried matrix, against the one-generator laws
    # letter by letter, for every kind
    rng = random.Random(61)
    taus = [0.3 + 1.2j, -0.1 + 3j, 3.3 + 1.5j, -6.8 + 1.2j]  # reduced; T letters only
    taus += [
        complex(rng.uniform(-8, 8), math.exp(rng.uniform(math.log(1e-6), 1)))
        for _ in range(150)
    ]
    seen = {"reduced": 0, "c = 0": 0, "c < 0": 0}
    compared = 0
    for tau in taus:  # Im z shrinks with Im tau, so that most values stay finite
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * min(1.0, tau.imag**0.5))
        for kind in (K1, K2, K3, K4):
            walked = _letter_walk(kind, z, tau, 1e-10)
            if walked is None:
                continue
            rep = eval_fast_report(kind, z, tau, 1e-10)
            assert abs(rep.value - walked) <= 1e-8 * max(1.0, abs(walked)), (kind, z, tau)
            compared += 1
            c = rep.entries[2]
            if not rep.letters:
                seen["reduced"] += 1
            elif c <= 0:
                seen["c = 0" if c == 0 else "c < 0"] += 1
    assert compared >= 400
    assert min(seen.values()) >= 4, seen


def test_chain_vs_direct():
    rng = random.Random(59)
    checked = 0
    while checked < 30:
        A = _random_matrix(rng)
        if A.c <= 0:
            continue
        z, tau = _point(rng)
        chained = predict_theta1_chained(A, z, tau, 1e-12)
        single = predict_theta1(A, z, tau, 1e-12)
        assert abs(chained - single) / max(1.0, abs(single)) < 1e-9, A
        checked += 1


def test_conditioning_factor():
    assert conditioning_factor(IDENTITY, 0.3, 1j) == 1.0
    k = conditioning_factor(S, 0.5j, 1j)
    assert k == pytest.approx(
        abs(cmath.exp(1j * math.pi * (0.5j) ** 2 / 1j)) * 2.0
    )


@pytest.mark.parametrize("z", [1e200, 400, complex(math.nan, 0.1)], ids=repr)
def test_conditioning_factor_refuses_a_nonfinite_kappa(z):
    # the Gaussian's exponent is infinite, overflows, or is NaN: not a raw
    # "math domain error", OverflowError or a NaN kappa
    with pytest.raises(DomainError, match="^conditioning factor of .* is not finite"):
        conditioning_factor(Sl2Matrix(1, 0, 1, 1), z, 1j)


@pytest.mark.parametrize("letter", [Letter("T", 1), Letter("T", -1), Letter("T", 2), Letter("S")], ids=str)
@pytest.mark.parametrize("kind", [K1, K2, K3, K4], ids=str)
def test_apply_letter_table_entry(kind, letter):
    # factor * theta_kind(z, tau) = factor' e^{i pi rel/12} theta_kind'(z', tau'),
    # with (z', tau') = (z/(c tau+d), L tau), factor' from theta1's law and
    # (kind', rel) from _walk, against the direct series
    L = letter.matrix()
    kind2, rel = _walk(kind, [letter.exp if letter.gen == "T" else 0])
    rng = random.Random(f"apply-letter:{kind}:{letter}")
    for _ in range(4):
        z, tau = _point(rng)
        factor = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        factor2, z2, tau2 = apply_letter(letter, z, tau, factor)
        assert tau2 == pytest.approx(mobius(L, tau), abs=1e-14)
        assert z2 == pytest.approx(z / (L.c * tau + L.d), abs=1e-14)
        lhs = factor * theta_series(kind, z, tau, 1e-13)
        rhs = factor2 * _unit(rel) * theta_series(kind2, z2, tau2, 1e-13)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs)), (z, tau)


def test_apply_letter_rejects_other_letters():
    # only a word letter has a law: T^0.5 would move tau by a non-integer
    for letter in (Letter("T", 0.5), Letter("T", True), Letter("S", 1.0)):
        with pytest.raises(DomainError, match="exponent is an int"):
            apply_letter(letter, 0.1, 1j)
    for letter in (Letter("S", 2), Letter("S2")):
        with pytest.raises(DomainError, match="takes T\\^m or S"):
            apply_letter(letter, 0.1, 1j)


class _EngineCalled(Exception):
    pass


def test_oracles_do_not_use_apply_letter(monkeypatch):
    # chain-vs-direct compares against these; sharing the engine would make
    # that suite tautological
    A, A2 = Sl2Matrix(2, 1, 3, 2), Sl2Matrix(3, 2, 4, 3)
    z, tau = 0.1 + 0.05j, 0.2 + 1.1j

    def oracles():
        return (
            predict_theta1(A, z, tau, 1e-12),
            predict_theta_gamma2(K3, A2, z, tau, 1e-12),
            theta1_epsilon(A),
        )

    def refuse(*args, **kwargs):
        raise _EngineCalled

    before = oracles()
    monkeypatch.setattr(transform, "apply_letter", refuse)
    assert oracles() == before
    with pytest.raises(_EngineCalled):
        predict_theta1_chained(A, z, tau, 1e-12)


THEOREM_SUITES = {
    K1: "theorem1",
    K2: "theorem2-theta2",
    K3: "theorem2-theta3",
    K4: "theorem2-theta4",
}


@pytest.mark.parametrize("shifted", [K1, K2, K3, K4], ids=str)
def test_law_phase_shift_fails_its_theorem_suite(monkeypatch, shifted):
    # eval_fast and both predictors apply transform._law: an e^{i pi/4} factor
    # there (i pi/4 added to its exponent) for one kind must fail every trial
    # of that kind's theorem suite, and eval_fast for that kind, and nothing else
    true_law = transform._law

    def shifted_law(kind, entries, z, tau):
        exponent, *rest = true_law(kind, entries, z, tau)
        return (exponent + 1j * math.pi / 4 if kind is shifted else exponent, *rest)

    monkeypatch.setattr(transform, "_law", shifted_law)
    config = TrialConfig(seed=11, trials=25)
    for kind, suite in THEOREM_SUITES.items():
        verdicts = {r.passed for r in run_suite(suite, config)}
        assert verdicts == ({False} if kind is shifted else {True}), suite
    rng = random.Random(58)  # the points of test_eval_fast_all_kinds_random
    failed = set()
    for _ in range(20):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        tau = complex(rng.uniform(-2, 2), math.exp(rng.uniform(-5, 0.5)))
        for kind in (K1, K2, K3, K4):
            direct = theta_series(kind, z, tau, 1e-10)
            if abs(eval_fast(kind, z, tau, 1e-10) - direct) >= 1e-8 * max(1, abs(direct)):
                failed.add(kind)
    assert failed == {shifted}


@pytest.mark.parametrize("gen", ["T", "S"])
def test_generator_suites_check_apply_letter(monkeypatch, gen):
    # eq1 and eq2 predict through apply_letter, the chained oracle: an
    # e^{i pi/4} shift on theta1's T or S law fails exactly its suites
    true_letter = transform.apply_letter
    eighth = cmath.exp(1j * math.pi / 4)

    def shifted_letter(letter, z, tau, factor=1 + 0j):
        factor, z, tau = true_letter(letter, z, tau, factor)
        return factor * eighth if letter.gen == gen else factor, z, tau

    monkeypatch.setattr(transform, "apply_letter", shifted_letter)
    config = TrialConfig(seed=11, trials=25)
    failing = {"T": {"eq1", "chain-vs-direct"}, "S": {"eq2", "chain-vs-direct"}}[gen]
    for suite in ("eq1", "eq2", "theorem1", "chain-vs-direct"):
        verdicts = {r.passed for r in run_suite(suite, config)}
        assert verdicts == ({False} if suite in failing else {True}), suite


def test_chained_oracle_does_not_use_the_law(monkeypatch):
    # apply_letter is the chained oracle of eq1, eq2 and chain-vs-direct:
    # sharing transform._law with it would check the law against itself
    A = Sl2Matrix(2, 1, 3, 2)
    z, tau = 0.1 + 0.05j, 0.3 + 0.05j  # reduced by a word with S letters

    def refuse(*args, **kwargs):
        raise _EngineCalled

    before = predict_theta1_chained(A, z, tau, 1e-12)
    monkeypatch.setattr(transform, "_law", refuse)
    assert predict_theta1_chained(A, z, tau, 1e-12) == before
    config = TrialConfig(seed=11, trials=25)
    for suite in ("eq1", "eq2"):
        assert all(r.passed for r in run_suite(suite, config)), suite
    for call in (
        lambda: predict_theta1(A, z, tau, 1e-12),
        lambda: predict_theta_gamma2(K3, S2, z, tau, 1e-12),
        lambda: eval_fast(K1, z, tau),
    ):
        with pytest.raises(_EngineCalled):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["tau.real", "tau.imag", "z.real", "z.imag"])
def test_nonfinite_points_are_domain_errors(part, bad):
    parts = {"tau.real": 0.3, "tau.imag": 1.1, "z.real": 0.1, "z.imag": 0.2}
    parts[part] = bad
    tau = complex(parts["tau.real"], parts["tau.imag"])
    z = complex(parts["z.real"], parts["z.imag"])
    K1, K3 = ThetaKind.THETA1, ThetaKind.THETA3
    calls = [
        lambda: theta_series(K3, z, tau),
        lambda: theta_series_report(K1, z, tau),
        lambda: theta1_sine_series(z, tau),
        lambda: truncation_index(K3, z, tau, 1e-10),
        lambda: truncation_bound(K3, z, tau, 5),
        lambda: eval_fast(K1, z, tau),
        lambda: eval_fast_report(K3, z, tau),
        lambda: predict_theta1(S, z, tau),
        lambda: predict_theta_gamma2(K3, S2, z, tau),
    ]
    if part.startswith("tau"):
        calls += [
            lambda: mobius(S, tau),
            lambda: reduce_tau(tau),
        ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("exp", [2, -1])
def test_apply_letter_rejects_an_s_letter_with_an_exponent(exp):
    # the S law is for S itself; S^2 = -I is not S
    with pytest.raises(DomainError, match=f"S\\^{exp}"):
        apply_letter(Letter("S", exp), 0.1, 0.2 + 1j)


@pytest.mark.parametrize("tol", [-1e-3, 0.0, float("nan"), float("inf")])
def test_eval_fast_reports_the_callers_tol(tol):
    # at this point the prefactor is large, so the inner tolerance differs
    with pytest.raises(DomainError) as err:
        eval_fast(K1, 0.1, 0.3 + 0.02j, tol=tol)
    assert str(err.value) == f"tol must be positive and finite, got {tol}"


@pytest.mark.parametrize(
    "call",
    [
        lambda: reduce_tau(0.5 + 1e-320j),
        lambda: reduce_tau(1e-310 + 1e-320j),
        lambda: eval_fast(K3, 0.1, 0.5 + 1e-320j),
    ],
    ids=["reduce-cusp", "reduce-origin", "eval-cusp"],
)
def test_reduction_beyond_the_float_range_is_refused(call):
    # the reduced point would have Im 2.5e319, or an infinite real part: not an
    # inf point, a raw OverflowError or a complaint about tol
    with pytest.raises(DomainError, match="^reducing tau = .* leaves the float range"):
        call()


def test_reduction_near_the_float_range_stays_finite():
    A, t = reduce_tau(0.5 + 1e-300j)
    assert A == Sl2Matrix(-1, 0, 2, -1)
    assert t == pytest.approx(2.5e299j, rel=1e-12)
    assert cmath.isfinite(eval_fast(K3, 0, 0.5 + 1e-300j))


def _exact_image(A, tau):
    """(Re, Im) of A tau in exact rationals."""
    x, y = Fraction(tau.real), Fraction(tau.imag)
    a, b, c, d = A
    den = (c * x + d) ** 2 + (c * y) ** 2
    return ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den


def test_reduce_tau_contract_down_to_the_least_float():
    # reduce_tau returns A with A tau in F, the image eval_fast sums at, or a
    # DomainError naming tau.  The float loop loses tau below Im tau ~ 1e-14,
    # where it once returned a tau' that its A does not produce.
    rng = random.Random(73)
    u = 2.0**-52
    returned = refused = 0
    for _ in range(2000):
        tau = complex(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(math.log10(5e-324), math.log10(2)))
        try:
            A, t = reduce_tau(tau)
        except DomainError as err:
            assert f"tau = {tau}" in str(err), (tau, err)
            refused += 1
            continue
        returned += 1
        assert abs(t.real) <= 0.5 + 1e-12 and abs(t) >= 1 - 1e-12, (tau, t)
        try:
            t_eval = eval_fast_report(K3, 0, tau).tau_reduced
        except (DomainError, PrecisionUnreachableError):
            pass
        else:
            assert (t.real.hex(), t.imag.hex()) == (t_eval.real.hex(), t_eval.imag.hex()), tau
        re_exact, im_exact = _exact_image(A, tau)
        scale = max(1, abs(Fraction(A.a, A.c))) if A.c else 1
        assert abs(Fraction(t.real) - re_exact) <= 8 * u * scale, (tau, A, t)
        assert abs(Fraction(t.imag) - im_exact) <= 8 * u * im_exact, (tau, A, t)
    assert returned > 50 and refused > 1000, (returned, refused)


def test_reduce_tau_refuses_where_the_float_loop_loses_tau(capsys):
    # A tau is 1.5e14+8.1e11i here; reduce_tau returned -0.25+5.6e11i
    with pytest.raises(DomainError, match=re.escape("reducing tau = (0.3+1e-20j)")):
        reduce_tau(0.3 + 1e-20j)
    assert main(["reduce", "0.3+1e-20i"]) == 2
    assert "tau = (0.3+1e-20j)" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [K1, K2, K3, K4], ids=str)
def test_eval_fast_names_an_overflowed_prefactor(kind):
    # an eval-grid point whose letter laws overflow the prefactor; the message
    # named tol, "got 0.0" or "got nan", before, and then only the exponent
    z = complex(-0.004882725548315758, -0.3141166930398977)
    tau = complex(-0.48952943145463523, 0.0003284312129589953)
    message = (
        f"{kind} at z = (-0.004882725548315758-0.3141166930398977j),"
        " tau = (-0.48952943145463523+0.0003284312129589953j)"
        " is beyond the float range (log-scale 945.661)"
    )
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        eval_fast(kind, z, tau, 1e-10)


@pytest.mark.parametrize(
    "kind, z, tau, truth",
    [
        (  # eval-grid seed 7, item 3525: the letter walk returned exactly 0
            K4,
            complex(0.3445323954657735, 0.1490195670752762),
            complex(-1.548859107137056, 0.00023768165107392609),
            complex(-5.635547210400367e127, -8.762203704547399e127),
        ),
        (  # eval-grid seed 41, item 9124: the letter walk was off by 5.0e-5
            K3,
            complex(-0.17234785198460634, 0.344988382396749),
            complex(-0.8237889969568823, 0.0005359024967241359),
            complex(-5.89855715703425e303, -6.708961218366606e303),
        ),
    ],
    ids=["theta4-1e128", "theta3-1e304"],
)
def test_eval_fast_where_the_letter_walk_was_silently_wrong(kind, z, tau, truth):
    # truths from an mpmath direct sum; both values are finite floats
    value = eval_fast(kind, z, tau)
    assert abs(value - truth) <= 1e-10 * abs(truth)


@pytest.mark.parametrize(
    "kind, z, tau, truth",
    [
        (K1, 0.25, complex(0.3, 1e-4), complex(29.215636063471808, -12.101512690848425)),
        (K2, 0.25, complex(-0.49, 1e-4), complex(5.98773692571796, 2.42446739931865)),
    ],
    ids=["theta1-law-gaussian", "theta2-cli"],
)
def test_eval_fast_where_a_factor_alone_overflows(kind, z, tau, truth):
    # e^{-i pi c z^2/j} is beyond the float range at both points while the
    # value is not (truths from an mpmath direct sum)
    assert abs(eval_fast(kind, z, tau) - truth) <= 1e-12 * abs(truth)


def test_eval_fast_fails_only_with_a_domain_error():
    # no raw OverflowError or ZeroDivisionError, no non-finite return, down to
    # Im tau = 1e-6; the mpmath test below checks that a refusal is out of range
    rng = random.Random(13)
    refused = 0
    for i in range(400):
        kind = (K1, K2, K3, K4)[i % 4]
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        tau = complex(rng.uniform(-2, 2), math.exp(rng.uniform(math.log(1e-6), 1)))
        try:
            assert cmath.isfinite(eval_fast(kind, z, tau))
        except DomainError:
            refused += 1
    assert 50 < refused < 350
    message = "theta3 at z = 50j, tau = (0.1+1j) is beyond the float range (log-scale 7853.98)"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        eval_fast(K3, 50j, 0.1 + 1j)  # the series' largest term itself


def test_eval_fast_reduces_a_far_z():
    # |Im z_c| / Im tau_c up to about 20 at the reduced point, with A = T^b
    # (tau already near F, Im z up to 10) and with c != 0 (small Im tau);
    # the series at (w, tau_c) sums a handful of terms either way, where the
    # unreduced z_c took up to 87.  The direct sum rounds at the scale of its
    # largest term, e^{pi (Im z)^2 / Im tau}, so the bar is tol at that scale.
    rng = random.Random(71)
    tol = 1e-10
    far = {False: 0, True: 0}  # points with |Im z_c / Im tau_c| >= 3, by c != 0
    for i in range(400):
        kind = (K1, K2, K3, K4)[i % 4]
        if i % 8 < 4:
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.9, 1.5))
            z = complex(rng.uniform(-1, 1), rng.choice((-1, 1)) * rng.uniform(2, 10))
        else:
            tau = complex(rng.uniform(-1, 1), 10 ** rng.uniform(-3, -1))
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        log_peak = math.pi * z.imag**2 / tau.imag
        if log_peak > 300:
            continue
        rep = eval_fast_report(kind, z, tau, tol)
        direct = theta_series(kind, z, tau, tol)
        assert abs(rep.value - direct) <= tol * max(1.0, abs(direct), math.exp(log_peak))
        assert rep.terms <= 40, (kind, z, tau)
        a, b, c, d = rep.entries
        z_c = z / (c * tau + d) if c else z
        far[c != 0] += abs(z_c.imag / rep.tau_reduced.imag) >= 3
    assert far[False] > 100 and far[True] > 50


def test_eval_fast_names_the_callers_point_when_the_reduced_point_leaves_the_floats():
    # tau_c = a/c - 1/(c j) loses its imaginary part here; the error named
    # that internal point, "tau must lie in the upper half-plane, got
    # (-12343652977788.625+0j)"
    match = r"^reducing z = \(0.1\+0j\), tau = \(0.3\+1e-300j\) leaves the float range$"
    with pytest.raises(DomainError, match=match):
        eval_fast(K3, 0.1, 0.3 + 1e-300j)
    # a z shift beyond the floats: m^2 tau_c overflows; a raw OverflowError
    # or ValueError must not come from the shift.  The error names the
    # caller's z, also where Re z was reduced first.
    for kind in (K1, K2, K3, K4):
        for z in ("1e+300j", "(1e+300+1e+300j)"):
            message = f"{kind} at z = {z}, tau = 1j is beyond the float range (log-scale inf)"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                eval_fast(kind, complex(z), 1j)
    # z_c = z/j with j ~ 1e-308 puts Re w near 4.5e307, and the ratios' phase
    # overflows: a raw ValueError ("math domain error") came from the sum
    tau = 1.1125369292536007e-308 + 1e-323j
    for kind in (K1, K2, K3, K4):
        message = f"{kind} at z = (0.5+0j), tau = {tau} is beyond the float range"
        with pytest.raises(DomainError, match=f"^{re.escape(message)} "):
            eval_fast(kind, 0.5, tau)


def test_eval_fast_reduces_re_z_on_entry():
    # each was wrong while pi multiplied the unreduced Re z: the first raised
    # "log-scale nan", the second returned -1.9e-6-7.9e-7i, the third was
    # 1.2e-9 off
    assert eval_fast(K3, 1.7e308 + 0.6j, 1j) == pytest.approx(2.8820138107, abs=1e-9)
    assert eval_fast(K1, 1e10, 0.5 + 1j) == 0
    # mpmath's theta3 at the exact fractional part of 1e8 + 0.1,
    # 0.09999999403953552, tau = i
    assert abs(eval_fast(K3, 1e8 + 0.1, 1j) - 1.0699237457366553) < 1e-10


def test_eval_fast_is_periodic_in_re_z_bit_for_bit():
    # theta(x) = s^n theta(x - n), n = round(Re x), s = -1 for theta1 and
    # theta2: eval_fast moves to x - n on entry and negates, nothing more
    rng = random.Random(63)
    odd = 0
    for i in range(400):
        kind = (K1, K2, K3, K4)[i % 4]
        top = 6 if i % 8 < 4 else 300  # odd n, then floats past 2^53
        re_x = rng.choice((-1, 1)) * 10 ** rng.uniform(-0.25, top)
        x = complex(re_x, rng.uniform(-0.5, 0.5))
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2))
        n = round(x.real)
        base = eval_fast(kind, x - n, tau)
        want = -base if n % 2 and kind in (K1, K2) else base
        got = eval_fast(kind, x, tau)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        odd += n % 2 == 1 and kind in (K1, K2)
    assert odd > 20


def _mp_theta(mpmath, kind, z, tau, dps):
    """theta_kind(z, tau) by its defining series at dps digits, each term
    from the one before by the term ratio (as the series module does, but
    in mpmath and from index 0), out to where the terms fall below 10^-dps."""
    with mpmath.workdps(dps):
        z, tau = mpmath.mpc(z), mpmath.mpc(tau)
        y, beta = tau.imag, abs(z.imag)
        L = (dps + 10) * mpmath.log(10)
        M = int((beta + mpmath.sqrt(beta * beta + y * L / mpmath.pi)) / y) + 2
        s = -1 if kind in (K1, K4) else 1
        m0 = mpmath.mpf(0.5) if kind in (K1, K2) else mpmath.mpf(0)
        ipi = mpmath.mpc(0, mpmath.pi)
        q2 = mpmath.exp(2 * ipi * tau)
        t0 = mpmath.exp(ipi * (tau * m0 * m0 + 2 * m0 * z))
        up = s * mpmath.exp(ipi * (tau * (2 * m0 + 1) + 2 * z))
        down = s * mpmath.exp(ipi * (tau * (1 - 2 * m0) - 2 * z))
        total = mpmath.mpc(0)
        for t, r in ((t0, up), (t0 * down, down * q2)):  # m0, m0+1, ... and m0-1, m0-2, ...
            for _ in range(M + 1):
                total += t
                t *= r
                r *= q2
        return -1j * total if kind is K1 else total


def test_eval_fast_accuracy_against_mpmath():
    # eval-grid-style points at tol 1e-13.  mpmath's digits follow the
    # cancellation in the series: log10(peak term) - log10|value| + 30, each
    # value confirmed at 25 more digits.  The error of the prefactor's
    # rounding is not in tol, so the bar is 1e-11, not 1e-13.  A DomainError
    # must mean |value| > the largest float, which mpmath decides at 30
    # digits beyond those the peak term has over it.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(62)
    worst, checked, refused = 0.0, 0, 0
    for i in range(40):
        kind = (K1, K2, K3, K4)[i % 4]
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        tau = complex(rng.uniform(-2, 2), math.exp(rng.uniform(math.log(1e-4), math.log(2))))
        log10_peak = math.pi * z.imag**2 / tau.imag / math.log(10)
        try:
            value = eval_fast(kind, z, tau, 1e-13)
        except DomainError:
            dps = max(int(log10_peak - 308 + 30), 30)
            truth = _mp_theta(mpmath, kind, z, tau, dps)
            with mpmath.workdps(dps):
                assert abs(truth) > sys.float_info.max, (kind, z, tau)
            refused += 1
            continue
        assert cmath.isfinite(value)
        dps = int(log10_peak - math.log10(abs(value)) + 30)
        truth = _mp_theta(mpmath, kind, z, tau, dps + 25)
        with mpmath.workdps(dps + 25):
            assert abs(_mp_theta(mpmath, kind, z, tau, dps) - truth) <= 1e-20 * abs(truth)
            worst = max(worst, float(abs(value - truth) / abs(truth)))
        checked += 1
    assert checked >= 30 and refused >= 1
    assert worst <= 1e-11


def test_evaluation_records_are_immutable():
    rep = eval_fast_report(K3, 0.1, 0.3 + 0.02j, 1e-8)
    records = [
        (Letter("T", 2), "exp", 3),
        (theta_series_report(K3, 0.1, 0.5 + 1j), "terms", 0),
        (rep, "value", 0j),
    ]
    for record, field, value in records:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
