"""Theta series: tail certification, symmetries, and the oracle-pinned tables."""

import cmath
import math
import random

import pytest

from thetamod import series
from thetamod.errors import DomainError, PrecisionUnreachableError
from thetamod.series import (
    HALF_PERIOD_PARTNER,
    MAX_INDEX,
    ThetaKind,
    _partial_sum,
    half_period_shift,
    term_count,
    theta1_sine_series,
    theta_series,
    theta_series_report,
    truncation_bound,
    truncation_index,
)

K1, K2, K3, K4 = ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3, ThetaKind.THETA4
ALL_KINDS = (K1, K2, K3, K4)


def _points(seed, n, re=(-0.5, 0.5), im=(-0.5, 0.5), tre=(-1, 1), tim=(0.5, 2)):
    rng = random.Random(seed)
    for _ in range(n):
        yield (
            complex(rng.uniform(*re), rng.uniform(*im)),
            complex(rng.uniform(*tre), rng.uniform(*tim)),
        )


def test_theta1_odd_zero_is_exact():
    assert theta_series(K1, 0, 1j, 1e-12) == 0


def test_theta3_pure_imaginary_oracle():
    # independent oracle: direct real summation of 1 + 2 sum e^{-2 pi n^2}
    oracle = 1.0 + sum(2.0 * math.exp(-2 * math.pi * n * n) for n in range(1, 12))
    assert theta_series(K3, 0, 2j, 1e-10) == pytest.approx(oracle, abs=1e-10)
    assert theta_series(K3, 0, 2j, 1e-14) == pytest.approx(oracle, abs=1e-14)


def test_integer_shift_in_z():
    assert theta_series(K3, 1, 1j, 1e-12) == pytest.approx(
        theta_series(K3, 0, 1j, 1e-12), abs=1e-14
    )


def test_truncation_bound_examples():
    b = truncation_bound(K3, 0, 1j, 6)
    assert b <= 1e-15
    assert b >= math.exp(-49 * math.pi)  # true next term
    for N in range(1, 30):
        assert truncation_bound(K3, 0, 1j, N + 1) <= truncation_bound(K3, 0, 1j, N)


def test_truncation_bound_monotone_past_threshold():
    z, tau = 0.4j, 0.3j
    start = max(1, math.ceil(2 * abs(z.imag) / tau.imag))
    values = [truncation_bound(K1, z, tau, N) for N in range(start, start + 40)]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_truncation_soundness_tail_oracle():
    # independent oracle: summing 3N further terms stays below the bound
    for kind in ALL_KINDS:
        for z, tau in _points(11, 10):
            N = truncation_index(kind, z, tau, 1e-10)
            tail = abs(
                _partial_sum(kind, z, tau, 4 * N) - _partial_sum(kind, z, tau, N)
            )
            assert tail < truncation_bound(kind, z, tau, N)
            assert tail < 1e-10


def test_truncation_soundness_spec_point():
    z, tau = 0.3j, 0.5j
    N = truncation_index(K1, z, tau, 1e-10)
    tail = abs(_partial_sum(K1, z, tau, 4 * N) - _partial_sum(K1, z, tau, N))
    assert tail < 1e-10


def test_s_n_plus_20_within_bound():
    for kind in ALL_KINDS:
        for z, tau in _points(12, 10):
            for N in (2, 5, 9):
                gap = abs(
                    _partial_sum(kind, z, tau, N + 20) - _partial_sum(kind, z, tau, N)
                )
                assert gap < truncation_bound(kind, z, tau, N)


def test_report_parameters():
    rep = theta_series_report(K3, 0.1, 1j, 1e-12)
    assert rep.terms == term_count(K3, rep.index) == 2 * rep.index + 1
    rep1 = theta_series_report(K1, 0.1, 1j, 1e-12)
    assert rep1.terms == 2 * rep1.index + 2


def test_sine_series_examples():
    assert theta1_sine_series(0, 1j, 1e-12) == 0
    # theta1(1/2, tau) = theta2(0, tau) by the half-period relation
    assert theta1_sine_series(0.5, 1j, 1e-12) == pytest.approx(
        theta_series(K2, 0, 1j, 1e-12), abs=1e-12
    )
    z, tau = 0.25 + 0.1j, 0.3 + 1.2j
    assert theta1_sine_series(z, tau, 1e-10) == pytest.approx(
        theta_series(K1, z, tau, 1e-10), abs=1e-10
    )


def test_sine_series_mutual_oracle():
    tol = 1e-11
    for z, tau in _points(13, 25):
        a = theta1_sine_series(z, tau, tol)
        b = theta_series(K1, z, tau, tol)
        assert abs(a - b) < 2 * tol


def test_half_period_table():
    # oracle-pinned signs: t1(z+1/2)=t2(z), t2(z+1/2)=-t1(z),
    #                      t3(z+1/2)=t4(z), t4(z+1/2)=t3(z)
    signs = {K1: 1, K2: -1, K3: 1, K4: 1}
    for z, tau in _points(14, 10):
        for kind in ALL_KINDS:
            partner = HALF_PERIOD_PARTNER[kind]
            direct = theta_series(partner, z + 0.5, tau, 1e-12)
            assert direct == pytest.approx(
                signs[partner] * theta_series(kind, z, tau, 1e-12), abs=1e-10
            )


def test_half_period_shift_function():
    for z, tau in [(0.1, 1j), (0.2 + 0.1j, 0.5 + 1j)]:
        assert half_period_shift(K2, z, tau, 1e-12) == pytest.approx(
            theta_series(K2, z, tau, 1e-12), abs=1e-10
        )
        assert half_period_shift(K4, z, tau, 1e-12) == pytest.approx(
            theta_series(K4, z, tau, 1e-12), abs=1e-10
        )
    # theta1(z + 1/2) at z = -1/2 is the odd-function zero
    assert abs(half_period_shift(K2, -0.5, 1j, 1e-12)) < 1e-12


def test_parity():
    for z, tau in _points(15, 200):
        assert abs(
            theta_series(K1, -z, tau, 1e-11) + theta_series(K1, z, tau, 1e-11)
        ) < 1e-9
        for kind in (K2, K3, K4):
            assert abs(
                theta_series(kind, -z, tau, 1e-11) - theta_series(kind, z, tau, 1e-11)
            ) < 1e-9


def test_tau_periodicity_theta3():
    for z, tau in _points(16, 20):
        for m in range(-3, 4):
            assert abs(
                theta_series(K3, z, tau + 2 * m, 1e-11)
                - theta_series(K3, z, tau, 1e-11)
            ) < 1e-9


def test_z_periodicity():
    for z, tau in _points(17, 100):
        for kind in (K3, K4):
            assert abs(
                theta_series(kind, z + 1, tau, 1e-11)
                - theta_series(kind, z, tau, 1e-11)
            ) < 1e-9
        for kind in (K1, K2):
            assert abs(
                theta_series(kind, z + 1, tau, 1e-11)
                + theta_series(kind, z, tau, 1e-11)
            ) < 1e-9


def test_tau_shift_table():
    # pins the tau -> tau+1 permutation used by fast evaluation
    w = cmath.exp(1j * math.pi / 4)
    for z, tau in _points(18, 12):
        assert theta_series(K1, z, tau + 1, 1e-12) == pytest.approx(
            w * theta_series(K1, z, tau, 1e-12), abs=1e-10
        )
        assert theta_series(K2, z, tau + 1, 1e-12) == pytest.approx(
            w * theta_series(K2, z, tau, 1e-12), abs=1e-10
        )
        assert theta_series(K3, z, tau + 1, 1e-12) == pytest.approx(
            theta_series(K4, z, tau, 1e-12), abs=1e-10
        )
        assert theta_series(K4, z, tau + 1, 1e-12) == pytest.approx(
            theta_series(K3, z, tau, 1e-12), abs=1e-10
        )


def test_inversion_table():
    # pins the tau -> -1/tau permutation used by fast evaluation
    for z, tau in _points(19, 12):
        J = cmath.sqrt(-1j * tau) * cmath.exp(1j * math.pi * z * z / tau)
        w, itau = z / tau, -1 / tau
        assert theta_series(K1, w, itau, 1e-12) == pytest.approx(
            -1j * J * theta_series(K1, z, tau, 1e-12), abs=1e-9
        )
        assert theta_series(K2, w, itau, 1e-12) == pytest.approx(
            J * theta_series(K4, z, tau, 1e-12), abs=1e-9
        )
        assert theta_series(K3, w, itau, 1e-12) == pytest.approx(
            J * theta_series(K3, z, tau, 1e-12), abs=1e-9
        )
        assert theta_series(K4, w, itau, 1e-12) == pytest.approx(
            J * theta_series(K2, z, tau, 1e-12), abs=1e-9
        )


def test_domain_errors():
    with pytest.raises(DomainError):
        theta_series(K3, 0, 1.0 + 0j)
    with pytest.raises(DomainError):
        theta_series(K3, 0, 0.5 - 1j)
    with pytest.raises(DomainError):
        truncation_bound(K3, 0, 1j, 0)
    with pytest.raises(DomainError):
        theta_series(K3, 0, 1j, tol=-1e-9)


def test_precision_unreachable_names_achievable_bound():
    with pytest.raises(PrecisionUnreachableError) as exc:
        theta_series(K3, 0, 1e-7j, 1e-12, max_index=500)
    err = exc.value
    assert err.cap == 500
    assert err.achievable > 1e-12
    assert "achievable" in str(err)


@pytest.mark.parametrize(
    "z, achievable",
    [(0, "13755.4"), (1e-3j, "inf")],  # finite at every N / inf at every N
)
def test_unreachable_tolerance_takes_one_bound_call(monkeypatch, z, achievable):
    calls = []
    tail_bound = series._tail_bound

    def counting(kind, y, beta, N):
        calls.append(N)
        return tail_bound(kind, y, beta, N)

    monkeypatch.setattr(series, "_tail_bound", counting)
    with pytest.raises(PrecisionUnreachableError) as exc:
        truncation_index(K3, z, 1e-12j, 1e-12)
    assert calls == [MAX_INDEX]
    assert str(exc.value) == (
        "cannot certify tolerance 1e-12 within 1000000 terms; "
        f"achievable bound is {achievable}"
    )


def test_truncation_index_is_the_first_good_index():
    # the one-call unreachability test never changes a reachable answer
    rng = random.Random(12)
    reached = 0
    for _ in range(300):
        kind = rng.choice(ALL_KINDS)
        z = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
        tau = complex(rng.uniform(-1, 1), 10 ** rng.uniform(-3, 0.5))
        tol = 10 ** rng.uniform(-14, -2)
        bounds = (truncation_bound(kind, z, tau, N) for N in range(1, 401))
        first = next((N for N, b in enumerate(bounds, 1) if b < tol / 2), None)
        if first is None:
            with pytest.raises(PrecisionUnreachableError):
                truncation_index(kind, z, tau, tol, 400)
        else:
            assert truncation_index(kind, z, tau, tol, 400) == first
            reached += 1
    assert 50 < reached < 300


def test_ratio_rounding_to_one_is_an_infinite_bound():
    # log r = -pi*0.001*19 + 2*pi*0.0095 is a rounding residue just below 0
    assert truncation_bound(K3, 0.0095j, 0.2 + 0.001j, 8) == math.inf
    assert abs(theta_series(K3, 0.0095j, 0.2 + 0.001j)) < 1e-10


def test_kind_parsing():
    assert ThetaKind.parse("theta3") is K3
    assert ThetaKind.parse("2") is K2
    with pytest.raises(DomainError):
        ThetaKind.parse("theta9")
