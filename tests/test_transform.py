"""Assembled transformation laws, reduction, and fast evaluation."""

import cmath
import math
import random

import pytest

from thetamod import transform
from thetamod.errors import DomainError
from thetamod.modgroup import (
    IDENTITY,
    S,
    S2,
    Letter,
    Sl2Matrix,
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
    automorphy_sqrt,
    conditioning_factor,
    eval_fast,
    eval_fast_report,
    predict_theta1,
    predict_theta1_chained,
    predict_theta_gamma2,
    reduce_tau,
)

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


def test_automorphy_sqrt_examples():
    assert automorphy_sqrt(S, 1j) == pytest.approx(1.0)
    assert automorphy_sqrt(S, 2j) == pytest.approx(math.sqrt(2))
    assert automorphy_sqrt(IDENTITY, 0.3 + 0.7j) == pytest.approx(1.0)
    assert automorphy_sqrt(translation(5), 1j) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        automorphy_sqrt(Sl2Matrix(0, 1, -1, 0), 1j)


def test_automorphy_sqrt_branch():
    rng = random.Random(51)
    for _ in range(100):
        A = _random_matrix(rng)
        if A.c == 0:
            continue
        _, tau = _point(rng)
        s = automorphy_sqrt(A, tau)
        assert abs(s * s - (-1j * (A.c * tau + A.d))) < 1e-12
        assert s.real > 0


def test_cocycle_sign_consistent_along_word():
    # For the plain weight-1/2 factor j(M, tau) = (c tau + d)^{1/2}:
    # j(AB, tau) = sigma * j(A, B tau) * j(B, tau) with sigma in {+-1},
    # the same sigma for every tau once (A, B) is fixed.  (The -i-twisted
    # automorphy_sqrt satisfies the same relation with an extra fixed
    # e^{+-i pi/4}; the sign content is identical.)
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


@pytest.mark.parametrize("letter", [Letter("T", 1), Letter("T", -1), Letter("T", 2), Letter("S")], ids=str)
@pytest.mark.parametrize("kind", [K1, K2, K3, K4], ids=str)
def test_apply_letter_table_entry(kind, letter):
    # factor * theta_kind(z, tau) = factor' * theta_kind'(z', tau'), with
    # (z', tau') = (z/(c tau+d), L tau), against the direct series
    L = letter.matrix()
    rng = random.Random(f"apply-letter:{kind}:{letter}")
    for _ in range(4):
        z, tau = _point(rng)
        factor = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        kind2, factor2, z2, tau2 = apply_letter(kind, letter, z, tau, factor)
        assert tau2 == pytest.approx(mobius(L, tau), abs=1e-14)
        assert z2 == pytest.approx(z / (L.c * tau + L.d), abs=1e-14)
        lhs = factor * theta_series(kind, z, tau, 1e-13)
        rhs = factor2 * theta_series(kind2, z2, tau2, 1e-13)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs)), (z, tau)


def test_apply_letter_rejects_other_letters():
    with pytest.raises(DomainError):
        apply_letter(K3, Letter("S2"), 0.1, 1j)


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
    ]
    if part.startswith("tau"):
        calls += [
            lambda: mobius(S, tau),
            lambda: reduce_tau(tau),
            lambda: automorphy_sqrt(S, tau),
        ]
    for call in calls:
        with pytest.raises(DomainError):
            call()
