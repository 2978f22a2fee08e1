"""Theta series: tail certification, symmetries, and the oracle-pinned tables."""

import cmath
import math
import random
import sys

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


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_non_finite_tolerance_is_refused(tol):
    # an infinite tol would certify nothing: the scan would stop at N = 1
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        truncation_index(K3, 0.1, 1j, tol)
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        theta_series(K3, 0.1, 1j, tol)


@pytest.mark.parametrize(
    "kind, z, tau",
    [
        (K3, 400j, 1j),  # largest term about e^{502,655}
        (K1, 50j, 0.1 + 1j),  # about e^{7,854}
    ],
)
def test_a_value_beyond_the_float_range_is_a_domain_error(kind, z, tau):
    # once a raw OverflowError from the largest term's exp
    match = f"^{kind} at z = .*: its largest term or its sum is beyond the float range$"
    with pytest.raises(DomainError, match=match):
        theta_series(kind, z, tau)
    with pytest.raises(DomainError, match=match) as exc:
        theta_series_report(kind, z, tau)
    assert exc.value.__context__ is None  # raised outside the handler


def test_a_non_finite_sum_is_a_domain_error():
    # two real positive largest terms of about 1e308 each, at m = -15 and -16:
    # every term is finite and the sum overflows to inf, once returned as is
    z, tau = 14.579j, 0.94058j
    N = truncation_index(K3, z, tau, 1e-10)
    assert _partial_sum(K3, z, tau, N) == complex(math.inf, 0)
    with pytest.raises(DomainError, match="its largest term or its sum is beyond"):
        theta_series(K3, z, tau)


@pytest.mark.parametrize("z, tau", [(50j, 0.1 + 1j)])  # a term's modulus overflows
def test_sine_series_beyond_the_float_range_is_a_domain_error(z, tau):
    # once a raw OverflowError ("math range error") from a term's exp or sin
    match = r"^theta1 at z = .*: a term or the sine sum is beyond the float range$"
    with pytest.raises(DomainError, match=match) as exc:
        theta1_sine_series(z, tau)
    assert exc.value.__context__ is None  # raised outside the handler


@pytest.mark.parametrize(
    "kind, z, tau, truth",
    [
        (K3, 0.1, 1e12 + 1j, 1.0699237438339497),
        (K3, 0.1, 1e300 + 1j, 1.0699237438339497),  # 1e300 is a multiple of 8
        (K1, 0.1, 4e6 + 0.01j, 0.0),  # about 1.5e-21; returns 1.2e-11
        (K4, -2e-7j, 1e300 + 1.6e-11j, 0.0),  # eval_fast's 0j; returns -8.9e-15
        (K1, 0.1, 1e306 + 1e-4j, 0.0),  # returns -2.4e-12
    ],
    ids=["theta3-1e12", "theta3-1e300", "theta1-4e6", "theta4-1e300", "theta1-1e306"],
)
def test_a_huge_real_part_is_reduced_exactly(kind, z, tau, truth):
    # pi (m^2 Re tau + 2 m Re z) in floats once rounded the phases away:
    # 1.0699310960-1.79e-6i at Re tau = 1e12, 0.963-0.078i at 1e300, 7.1e-10
    # for theta1; the theta4 case, and the sine series at 1e306, overflowed
    # into a refusal as beyond the float range
    assert abs(theta_series(kind, z, tau) - truth) < 1e-10  # the default tol
    if kind is K1:
        assert abs(theta1_sine_series(z, tau) - truth) < 1e-10


def test_huge_real_parts_agree_with_the_point_reduced_by_hand():
    # math.fmod is exact too; its residue may differ from _real_periods' by
    # one period, and both values are within tol of the truth
    rng = random.Random(36)
    tol = 1e-10
    for _ in range(100):
        kind = rng.choice(ALL_KINDS)
        x = rng.choice((-1, 1)) * 10 ** rng.uniform(0, 15)
        u = rng.choice((-1, 1)) * 10 ** rng.uniform(0, rng.choice((15, 300)))
        z, tau = complex(x, rng.uniform(-0.3, 0.3)), complex(u, rng.uniform(0.3, 2))
        by_hand = complex(math.fmod(x, 2), z.imag), complex(math.fmod(u, 8), tau.imag)
        expected = theta_series(kind, *by_hand, tol)
        assert abs(theta_series(kind, z, tau, tol) - expected) < 2 * tol
        if kind is K1:
            assert abs(theta1_sine_series(z, tau, tol) - expected) < 3 * tol


def test_truncation_index_rejects_max_index_below_one():
    with pytest.raises(DomainError, match="max_index must be >= 1"):
        truncation_index(K3, 0, 1j, 1e-10, max_index=0)


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


def _check_first_good(kind, z, tau, tol, max_index):
    """truncation_index against its definition, read through truncation_bound."""
    target = tol / 2
    try:
        N = truncation_index(kind, z, tau, tol, max_index)
    except PrecisionUnreachableError:
        assert not truncation_bound(kind, z, tau, max_index) < target
        return None
    assert 1 <= N <= max_index
    assert truncation_bound(kind, z, tau, N) < target
    assert N == 1 or truncation_bound(kind, z, tau, N - 1) >= target
    return N


def test_truncation_index_first_good_property():
    # the closed-form start, stepped up and down, lands on the first good N
    rng = random.Random(14)
    reached = set()
    for _ in range(5000):
        kind = rng.choice(ALL_KINDS)
        y = 10 ** rng.uniform(-4, 1)
        z = complex(rng.uniform(-1, 1), rng.uniform(-3, 3) * y)
        tau = complex(rng.uniform(-1, 1), y)
        tol = 10 ** rng.uniform(-15, -2)
        N = _check_first_good(kind, z, tau, tol, rng.choice((400, MAX_INDEX)))
        reached.add(min(N // 8, 8))
    assert reached == set(range(9))  # N from 1 to >= 64, never unreachable


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_truncation_index_edge_inputs(kind):
    for tau in (0.2 + 1e-12j, 0.2 + 1j, 50j):
        for z in (0, 0.3j * tau.imag, 1.5j * tau.imag):
            with pytest.raises(DomainError):  # an infinite tol certifies nothing
                truncation_index(kind, z, tau, math.inf)
            for tol in (1e300, 1e-10, 5e-324):
                for max_index in (1, 400, MAX_INDEX):
                    N = _check_first_good(kind, z, tau, tol, max_index)
                    if tol == 5e-324:  # tol/2 rounds to 0: nothing certifies it
                        assert N is None
                    if tau == 50j and z == 0 and tol == 1e-10:
                        assert N == 1


def test_truncation_index_steps_down_past_its_start():
    # tol > 4 makes log(tol/4) negative: the leading term is below tol/4
    # on both sides of its peak, and the closed-form start (N = 3, past the
    # far root) lies above the first good index
    assert _check_first_good(K4, 34.5j, 10j, 1e161, 1000) == 2


def test_truncation_core_is_truncation_index():
    # the private core, handed Im tau and |Im z| as eval_fast hands it its
    # reduced point, gives truncation_index's N, or its refusal field for field
    rng = random.Random(41)
    seen = set()
    for _ in range(3000):
        kind = rng.choice(ALL_KINDS)
        y = 10 ** rng.uniform(-6, 3)
        z = complex(rng.uniform(-1, 1), rng.uniform(-4, 4) * y)
        tol = rng.choice(  # down to subnormal, and the least float
            (10 ** rng.uniform(-15, -2), 10 ** -rng.uniform(300, 323), 5e-324)
        )
        max_index = rng.choice((1, 2, 40, 400, MAX_INDEX))
        core = (kind, y, abs(z.imag), tol, max_index)
        if series._start_index(kind, y, abs(z.imag), tol, max_index) == max_index:
            seen.add("clamped start")
        try:
            N = truncation_index(kind, z, complex(0.3, y), tol, max_index)
        except PrecisionUnreachableError as e:
            with pytest.raises(PrecisionUnreachableError) as exc:
                series._truncation_index(*core)
            got = exc.value.requested, exc.value.achievable, exc.value.cap
            assert got == (e.requested, e.achievable, e.cap), core
            seen.add("unreachable")
        else:
            assert series._truncation_index(*core) == N, core
            seen.add("reached")
    assert seen == {"clamped start", "unreachable", "reached"}


def test_a_huge_im_tau_takes_one_bound_call(monkeypatch):
    # y L / pi once overflowed past Im tau ~ 7.3e306: the start clamped to
    # MAX_INDEX, and N stepped down to 1 one bound call at a time
    calls = []
    tail_bound = series._tail_bound

    def counting(kind, y, beta, N):
        calls.append(N)
        return tail_bound(kind, y, beta, N)

    monkeypatch.setattr(series, "_tail_bound", counting)
    for kind in ALL_KINDS:
        for z in (0.3, 0.3 + 1j, 1e300j):
            calls.clear()
            assert truncation_index(kind, z, 1e308j, 1e-10) == 1
            assert calls == [1]


def test_a_start_that_is_the_answer_takes_two_bound_calls(monkeypatch):
    # the start is evaluated first, so reachability costs nothing there: one
    # call certifies the start, one shows that N - 1 is not good
    calls = []
    tail_bound = series._tail_bound

    def counting(kind, y, beta, N):
        calls.append(N)
        return tail_bound(kind, y, beta, N)

    monkeypatch.setattr(series, "_tail_bound", counting)
    rng = random.Random(31)
    at_start = 0
    for _ in range(400):
        kind = rng.choice(ALL_KINDS)
        y = 10 ** rng.uniform(-3, 0.5)
        z = complex(rng.uniform(-1, 1), rng.uniform(-3, 3) * y)
        tol = 10 ** rng.uniform(-14, -2)
        start = series._start_index(kind, y, abs(z.imag), tol, 400)
        bounds = (tail_bound(kind, y, abs(z.imag), N) for N in range(1, 401))
        first = next(N for N, b in enumerate(bounds, 1) if b < tol / 2)
        calls.clear()
        assert truncation_index(kind, z, complex(0.3, y), tol, 400) == first
        if first == start > 1:
            assert calls == [start, start - 1]
            at_start += 1
    assert at_start > 200


def test_ratio_rounding_to_one_is_an_infinite_bound():
    # log r = -pi*0.001*19 + 2*pi*0.0095 is a rounding residue just below 0
    assert truncation_bound(K3, 0.0095j, 0.2 + 0.001j, 8) == math.inf
    assert abs(theta_series(K3, 0.0095j, 0.2 + 0.001j)) < 1e-10


def test_kind_parsing():
    assert ThetaKind.parse("theta3") is K3
    assert ThetaKind.parse("2") is K2
    with pytest.raises(DomainError):
        ThetaKind.parse("theta9")


# --- the ratio recurrence in _partial_sum ------------------------------------


def _per_term_sum(kind, z, tau, N):
    """S_N with one exp per term: the loop _partial_sum replaced, kept as a
    reference for the recurrence."""
    e = cmath.exp
    ipi = 1j * math.pi
    if kind is K3 or kind is K4:
        total = 1.0 + 0.0j
        sign = 1.0
        for n in range(1, N + 1):
            if kind is K4:
                sign = -sign
            w = tau * (n * n)
            total += sign * (e(ipi * (w + 2 * n * z)) + e(ipi * (w - 2 * n * z)))
        return total
    total = 0.0 + 0.0j
    sign = 1.0
    for n in range(0, N + 1):
        h = n + 0.5
        w = tau * (h * h)
        u = (2 * n + 1) * z
        plus = e(ipi * (w + u))
        minus = e(ipi * (w - u))
        if kind is K2:
            total += plus + minus
        else:
            total += sign * (plus - minus)
            sign = -sign
    return total if kind is K2 else -1j * total


def _log_peak_term(kind, z, tau, N):
    """max log|t(m)| over the indices S_N sums."""
    if kind in (K1, K2):
        indices = [n + 0.5 for n in range(-N - 1, N + 1)]
    else:
        indices = range(-N, N + 1)
    y, beta = tau.imag, z.imag
    return max(-math.pi * y * m * m - 2 * math.pi * m * beta for m in indices)


def _peak_term(kind, z, tau, N):
    """max |t(m)| over the indices S_N sums."""
    return math.exp(_log_peak_term(kind, z, tau, N))


class _CountingCmath:
    """Stands in for the cmath module and counts exp calls."""

    def __init__(self):
        self.exp_calls = 0

    def exp(self, w):
        self.exp_calls += 1
        return cmath.exp(w)


def test_partial_sum_makes_at_most_four_exponentials(monkeypatch):
    shim = _CountingCmath()
    monkeypatch.setattr(series, "cmath", shim)
    # peak at the centre, off-centre, and at m* = -+40: clamped to either
    # end of the range for N < 40
    points = [
        (0.3, 0.2 + 0.01j),
        (0.1 + 0.05j, 0.2 + 0.01j),
        (0.3 + 2j, 0.1 + 0.05j),
        (0.3 - 2j, 0.1 + 0.05j),
    ]
    for kind in ALL_KINDS:
        for z, tau in points:
            for N in range(1, 401):
                shim.exp_calls = 0
                _partial_sum(kind, z, tau, N)
                assert shim.exp_calls <= 4, (kind, z, tau, N)
    # theta3/4 walked from c = 0 start at t(0) = 1
    for kind in (K3, K4):
        for N in range(1, 401):
            shim.exp_calls = 0
            _partial_sum(kind, 0.3, 0.2 + 0.01j, N)
            assert shim.exp_calls == 3, (kind, N)


def test_recurrence_matches_per_term_reference():
    # A recurrence term n steps from the start carries a relative rounding
    # error of about n^2/2 u (the ratio n steps out holds n roundings of
    # q^2), and each reference term one of about u times its exponent's
    # size.  The far terms are small, so the sums still agree to a small
    # multiple of (N + 1) u max(1, peak).
    u = 2.0**-52
    rng = random.Random(17)
    clamped = 0
    for i in range(2000):
        kind = ALL_KINDS[i % 4]
        N = rng.randint(1, 3) if i % 5 == 0 else round(400 ** rng.random())
        y = 10 ** rng.uniform(-3, 0.3)
        tau = complex(rng.uniform(-1, 1), y)
        z = complex(rng.uniform(-1, 1), rng.uniform(-3, 3) * y)
        clamped += abs(z.imag / y) > N  # the peak lies outside [-N, N]
        got = _partial_sum(kind, z, tau, N)
        want = _per_term_sum(kind, z, tau, N)
        bound = 256 * u * (N + 1) * max(1.0, _peak_term(kind, z, tau, N))
        assert abs(got - want) <= bound, (kind, z, tau, N)
    assert clamped > 50


def test_partial_sum_overflows_exactly_where_a_per_term_sum_would():
    # Only t(c), the largest summed term, may overflow: every ratio the start
    # computes is smaller, the unused outward one at a clamped c included.
    # Within 1 of the threshold a term's components may or may not overflow.
    tau = 0.1 + 0.05j
    log_max = math.log(sys.float_info.max)
    sizes = [0.0] + [10 ** (k / 40) for k in range(-80, 105)]
    heights = sorted({s * x for x in sizes for s in (1, -1)})  # Im z to 398
    overflowed = 0
    for kind in ALL_KINDS:
        for N in range(1, 41):
            for h in heights:
                z = complex(0.3, h)
                peak = _log_peak_term(kind, z, tau, N)
                if abs(peak - log_max) <= 1:
                    continue
                try:
                    _partial_sum(kind, z, tau, N)
                    raised = False
                except OverflowError:
                    raised = True
                assert raised == (peak > log_max), (kind, N, h, peak)
                overflowed += raised
    assert overflowed > 1000


def test_partial_sum_shift_scales_every_term():
    # e^shift rides in t(c)'s exponent: the same sum times e^shift, and finite
    # where e^shift overflows or underflows alone but the shifted terms do not
    rng = random.Random(5)
    for _ in range(200):
        kind = rng.choice(ALL_KINDS)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2))
        z = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
        shift = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        N = rng.randint(1, 12)
        plain = _partial_sum(kind, z, tau, N)
        shifted = _partial_sum(kind, z, tau, N, shift)
        assert abs(shifted - cmath.exp(shift) * plain) <= 1e-13 * math.exp(
            shift.real + _log_peak_term(kind, z, tau, N)
        )
    z, tau, N = complex(0.1, 40), 1j, 60  # peak term about e^1600
    peak = _log_peak_term(K3, z, tau, N)
    with pytest.raises(OverflowError):
        _partial_sum(K3, z, tau, N)
    value = _partial_sum(K3, z, tau, N, -peak + 0.5j)
    assert cmath.isfinite(value) and 0.5 < abs(value) < 10


def test_theta1_zero_sides_mirror_at_every_index():
    # at z = 0 the two sides of theta1 cancel term by term, for any N
    for tau in (1j, 0.3 + 0.01j, -0.4 + 2j):
        for N in range(1, 60):
            assert _partial_sum(K1, 0, tau, N) == 0


# Peaks far from n = 0.  A recurrence started at n = 0 from the factors q
# and e^{+-2 pi i z} needs e^{2 pi |Im z|}: about e^{754} at z = 120i and
# e^{1967} at the second point (the reduced point of item 8809 of the
# benchmark's eval-grid, seed 41), so it overflows at both.  Started at the
# peak, every ratio has modulus <= 1.
_FAR_PEAKS = [
    (120j, 200j, ALL_KINDS),
    # theta3/4 are about 8e356 there, outside float range
    (
        267.95847319959915 - 313.0513292987895j,
        0.4324046992410331 + 364.50800536881j,
        (K1, K2),
    ),
]


@pytest.mark.parametrize("z, tau, kinds", _FAR_PEAKS)
def test_peaks_far_from_zero_agree_with_mpmath(z, tau, kinds):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        for kind in kinds:
            got = theta_series(kind, z, tau)
            assert cmath.isfinite(got)
            want = mpmath.jtheta(kind.value, mpmath.pi * mpmath.mpc(z), q)
            assert abs(got - want) <= 1e-12 * abs(want), kind


def test_series_accuracy_against_mpmath():
    # Relative to the peak term e^{pi (Im z)^2 / Im tau}, and to the
    # 1 + Im tau^{-1/2} size of the sum of the terms near it.  The mean error
    # is about 9.5e-16 here; with q^2 formed as R(c) D(c) it is 2.5e-15.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1)
    errors = []
    with mpmath.workdps(25):
        for i in range(200):
            kind = ALL_KINDS[i % 4]
            y = math.exp(rng.uniform(math.log(1e-4), math.log(2.0)))
            tau = complex(rng.uniform(-0.5, 0.5), y)
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-3, 3) * y)
            got = theta_series(kind, z, tau, 1e-14)
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            want = complex(mpmath.jtheta(kind.value, mpmath.pi * mpmath.mpc(z), q))
            scale = math.exp(math.pi * z.imag**2 / y) * (1 + y**-0.5)
            errors.append(abs(got - want) / scale)
    assert sum(errors) / len(errors) < 1.5e-15


def test_sine_series_does_not_call_partial_sum(monkeypatch):
    # the oracle keeps its own per-term loop
    def forbidden(*args):
        raise AssertionError("theta1_sine_series called _partial_sum")

    monkeypatch.setattr(series, "_partial_sum", forbidden)
    z, tau = 0.25 + 0.1j, 0.3 + 1.2j
    assert abs(theta1_sine_series(z, tau, 1e-12)) > 0.1
