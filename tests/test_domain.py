"""The domain contract, swept: on the documented domain a public function
returns a finite value of its kind or raises DomainError, never a raw error.

The documented domain is any tau with Im tau > 0, any z, and any SL(2,Z)
matrix; the strategies below draw c up to 10^30.  The exact entry points
``jacobi_symbol`` and ``dedekind_sum`` are swept over ints, floats (NaN and
the infinities too) and bools: in their domain they return the exact
value, checked against a test-local oracle, and off it they raise
DomainError.  The six functions of a matrix alone are swept in one test,
every drawn matrix going through all of them.  A table feeds the public
numeric entry points bad tolerances, term caps and points: each must raise
a DomainError naming the argument, from that rule's one home in
``thetamod.errors``.
"""

import cmath
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from thetamod import errors
from thetamod.dedekind import _direct_total, dedekind_sum
from thetamod.errors import DomainError, PrecisionUnreachableError
from thetamod.exact import UnitPhase, jacobi_symbol
from thetamod.modgroup import (
    GeneratorWord,
    S,
    S2,
    Sl2Matrix,
    _euclid,
    decompose_gamma,
    decompose_gamma2,
    mobius,
    recompose,
    translation,
)
from thetamod.multipliers import (
    eta_epsilon,
    gamma2_alpha,
    gamma2_prefactor,
    theta1_epsilon,
    theta1_epsilon_closed,
    theta1_epsilon_induction,
)
from thetamod.series import (
    ThetaKind,
    half_period_shift,
    theta1_sine_series,
    theta_series,
    theta_series_report,
    truncation_bound,
    truncation_index,
)
from thetamod.transform import (
    conditioning_factor,
    eval_fast,
    eval_fast_report,
    predict_theta1,
    predict_theta1_chained,
    predict_theta_gamma2,
    reduce_tau,
)
from thetamod.verify import TrialConfig

_reals = st.floats(allow_nan=False, allow_infinity=False)
upper_half = st.builds(
    complex, _reals, st.floats(min_value=0, exclude_min=True, allow_infinity=False)
)
any_z = st.complex_numbers()  # non-finite parts included


C_EXPONENT = 30  # |c| goes up to 10^C_EXPONENT


@st.composite
def sl2_matrices(draw):
    """A matrix of SL(2,Z) of either sign, |c| of a uniformly drawn decade
    (0 and 1 in the first)."""
    e = draw(st.sampled_from(range(C_EXPONENT + 1)))
    c = draw(st.integers(10**e // 10, 10**e))
    if c == 0:
        A = translation(draw(st.integers(-(10**C_EXPONENT), 10**C_EXPONENT)))
    else:
        d = draw(st.integers(-c, c))
        while math.gcd(c, d) != 1:  # stops by 1 or -1 at the latest
            d += 1 if d <= 0 else -1
        a = pow(d, -1, c) + c * draw(st.integers(-3, 3))
        A = Sl2Matrix(a, (a * d - 1) // c, c, d)
    return -A if draw(st.booleans()) else A


# each swept function as f(A, z, tau), and what its value must satisfy
SWEPT = {
    "mobius": (
        lambda A, z, tau: mobius(A, tau),
        lambda w: cmath.isfinite(w) and w.imag > 0,
    ),
    "conditioning_factor": (conditioning_factor, lambda kappa: 0 <= kappa < math.inf),
    # the image is in the fundamental domain, within reduce_tau's slack
    "reduce_tau": (
        lambda A, z, tau: reduce_tau(tau)[1],
        lambda t: cmath.isfinite(t) and abs(t.real) <= 0.5 + 1e-12 and abs(t) >= 1 - 1e-12,
    ),
}


@pytest.mark.parametrize("name", sorted(SWEPT))
@settings(max_examples=2000, deadline=None)
@given(A=sl2_matrices(), z=any_z, tau=upper_half)
def test_returns_a_finite_value_or_a_domain_error(name, A, z, tau):
    call, valid = SWEPT[name]
    try:
        value = call(A, z, tau)
    except DomainError:
        return
    assert valid(value), (A, z, tau, value)


@settings(max_examples=2000, deadline=None)
@given(
    kind=st.sampled_from(ThetaKind),
    z=any_z,
    tau=upper_half,
    # past the float range too, where the tail bound's float arithmetic overflows
    N=st.one_of(st.integers(1, 10**6), st.integers(1, 10**400)),
)
# Im tau m0^2 and Im z m0 overflow alike there: the bound's logarithm is -inf + inf
@example(kind=ThetaKind.THETA3, z=1.4305587428785142e307j, tau=1.4305587428785142e307j, N=1)
def test_truncation_bound_is_a_bound_or_a_domain_error(kind, z, tau, N):
    try:
        bound = truncation_bound(kind, z, tau, N)
    except DomainError:
        return
    assert 0 <= bound <= math.inf, (kind, z, tau, N, bound)  # no NaN


@pytest.mark.parametrize("kind", ThetaKind, ids=str)
@settings(max_examples=2000, deadline=None)
@given(z=any_z, tau=upper_half)
# an int past the float range, once a raw OverflowError from the point check
@example(z=10**400, tau=1j)
@example(z=0.1, tau=10**400)
def test_eval_fast_returns_a_finite_value_or_a_named_error(kind, z, tau):
    try:
        value = eval_fast(kind, z, tau)
    except (DomainError, PrecisionUnreachableError):
        return
    assert cmath.isfinite(value), (kind, z, tau, value)


@settings(max_examples=2000, deadline=None)
@given(A=sl2_matrices(), kind=st.sampled_from(ThetaKind))
def test_matrix_functions_return_their_type_or_a_domain_error(A, kind):
    # every function that takes only a matrix, in one test: a draw costs more
    # than the eight calls on it
    calls = [
        (eta_epsilon, UnitPhase),
        (theta1_epsilon, UnitPhase),
        (theta1_epsilon_closed, UnitPhase),
        (theta1_epsilon_induction, UnitPhase),
        (lambda M: gamma2_alpha(kind, M), UnitPhase),
        (lambda M: gamma2_prefactor(kind, M), UnitPhase),
        (decompose_gamma, GeneratorWord),
        (decompose_gamma2, GeneratorWord),
    ]
    for call, returns in calls:
        try:
            value = call(A)
        except DomainError:
            continue
        assert type(value) is returns, (call, A, value)
        if returns is GeneratorWord:
            assert recompose(value) == A, (call, A, value)
    # the Euclid walk behind decompose_gamma and the induction: int rounds,
    # only the first of which can be 0, down to the remainder +-T^b
    ms, a, _ = _euclid(*A)
    assert all(type(m) is int for m in ms) and a in (1, -1), (A, ms, a)
    assert all(abs(m) >= 2 for m in ms[1:]), (A, ms)


# the direct series, as f(kind, z, tau); theta1_sine_series has no kind to draw
SERIES = {
    "theta_series": theta_series,
    "theta1_sine_series": lambda kind, z, tau: theta1_sine_series(z, tau),
}


@pytest.mark.parametrize("name", sorted(SERIES))
@settings(max_examples=2000, deadline=None)
@given(kind=st.sampled_from(ThetaKind), z=any_z, tau=upper_half)
# an int past the float range, once a raw OverflowError from the point check
@example(kind=ThetaKind.THETA3, z=10**400, tau=1j)
@example(kind=ThetaKind.THETA3, z=0.1, tau=10**400)
def test_series_return_a_finite_value_or_a_named_error(name, kind, z, tau):
    # a tol the series cannot reach within its term cap is the named
    # PrecisionUnreachableError, as for eval_fast
    try:
        value = SERIES[name](kind, z, tau)
    except (DomainError, PrecisionUnreachableError):
        return
    assert cmath.isfinite(value), (name, kind, z, tau, value)


# an argument of an exact entry point: a small int, which the O(n) oracles
# below can check, any int, any float or a bool
exact_args = st.one_of(st.integers(-50, 2000), st.integers(), st.floats(), st.booleans())
SMALL = 2000


def _legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion a^((p-1)/2) mod p."""
    e = pow(a, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def _jacobi(a: int, n: int) -> int:
    """(a/n) for odd n >= 1: the product of (a/p) over n's prime factors p."""
    result, p = 1, 3
    while n > 1:
        if p * p > n:  # what is left of n is prime
            p = n
        while n % p == 0:
            result *= _legendre(a, p)
            n //= p
        p += 2
    return result


@settings(max_examples=2000, deadline=None)
@given(a=exact_args, n=exact_args)
def test_jacobi_symbol_is_exact_or_a_domain_error(a, n):
    in_domain = type(a) is int and type(n) is int and n > 0 and n % 2 == 1
    try:
        value = jacobi_symbol(a, n)
    except DomainError:
        assert not in_domain, (a, n)
        return
    assert in_domain, (a, n, value)
    if n <= SMALL:
        assert value == _jacobi(a, n), (a, n, value)
    else:  # n too large to factor here
        assert value in (-1, 0, 1) and (value == 0) == (math.gcd(a, n) > 1), (a, n)


@settings(max_examples=2000, deadline=None)
@given(h=exact_args, k=exact_args)
def test_dedekind_sum_is_exact_or_a_domain_error(h, k):
    in_domain = type(h) is int and type(k) is int and k >= 1 and math.gcd(h, k) == 1
    try:
        s = dedekind_sum(h, k)
    except DomainError:
        assert not in_domain, (h, k)
        return
    assert in_domain, (h, k, s)
    if k <= SMALL:  # s(h, k) = T(h mod k, k)/k^2 - (k-1)/4, by the O(k) loop
        assert s == Fraction(_direct_total(h % k, k), k * k) - Fraction(k - 1, 4), (h, k)
    else:  # 12hk*s(h, k) = h^2 + 1 mod k, and |s(h, k)| <= s(1, k)
        v = 12 * h * k * s
        assert v.denominator == 1 and (v.numerator - h * h - 1) % k == 0, (h, k)
        assert abs(s) <= Fraction((k - 1) * (k - 2), 12 * k), (h, k)


# The public numeric entry points, each a call of the keyword arguments it
# takes of tol, cap (max_index, or truncation_bound's N), z and tau; the
# rest go to **_.  Each rule has its one home in thetamod.errors:
# checked_tol, require_count and require_upper_half.
K3 = ThetaKind.THETA3
ENTRY_POINTS = {
    "theta_series": lambda tol, cap, z, tau, **_: theta_series(K3, z, tau, tol, cap),
    "theta_series_report": lambda tol, cap, z, tau, **_: theta_series_report(
        K3, z, tau, tol, cap
    ),
    "truncation_index": lambda tol, cap, z, tau, **_: truncation_index(
        K3, z, tau, tol, cap
    ),
    "truncation_bound": lambda cap, z, tau, **_: truncation_bound(K3, z, tau, cap),
    "theta1_sine_series": lambda tol, cap, z, tau, **_: theta1_sine_series(z, tau, tol, cap),
    "half_period_shift": lambda tol, z, tau, **_: half_period_shift(K3, z, tau, tol),
    "eval_fast": lambda tol, cap, z, tau, **_: eval_fast(K3, z, tau, tol, cap),
    "eval_fast_report": lambda tol, cap, z, tau, **_: eval_fast_report(K3, z, tau, tol, cap),
    "predict_theta1": lambda tol, z, tau, **_: predict_theta1(S, z, tau, tol),
    "predict_theta_gamma2": lambda tol, z, tau, **_: predict_theta_gamma2(K3, S2, z, tau, tol),
    "predict_theta1_chained": lambda tol, z, tau, **_: predict_theta1_chained(S, z, tau, tol),
    "mobius": lambda tau, **_: mobius(S, tau),
    "reduce_tau": lambda tau, **_: reduce_tau(tau),
    "TrialConfig": lambda tol, **_: TrialConfig(tol=tol),
}


def _takes(call) -> tuple[str, ...]:
    return call.__code__.co_varnames[: call.__code__.co_argcount]


GOOD = {"tol": 1e-9, "cap": 50, "z": 0.1, "tau": 0.2 + 1j}
BAD = {
    "tol": [True, 10**400, -(10**400), Fraction(10**400), "1e-9", None],
    "cap": [True, 2.5, 0, 10**400],
    "z": [10**400, -(10**400), 10**5000],
    "tau": [10**400, -(10**400), 10**5000],
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_bad_argument_is_a_domain_error_naming_it(name):
    # before each rule had one home, True passed as tol 1 and as a cap of one
    # term, 2.5 as a cap, and an int past the float range was a raw
    # OverflowError from the tail bound or from the point check
    call = ENTRY_POINTS[name]
    call(**GOOD)
    for arg in _takes(call):
        named = arg if arg != "cap" else "N" if name == "truncation_bound" else "max_index"
        for value in BAD[arg]:
            with pytest.raises(Exception) as err:
                call(**{**GOOD, arg: value})
            assert type(err.value) is DomainError, (name, arg, value, err.value)
            assert re.search(rf"\b{named}\b", str(err.value)), (name, arg, value, err.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda tol: theta_series(K3, 0.1, 1e-3j, tol, 2),
        lambda tol: theta_series_report(K3, 0.1, 1e-3j, tol, 2),
        lambda tol: truncation_index(K3, 0.1, 1e-3j, tol, 2),
        lambda tol: theta1_sine_series(0.1, 1e-3j, tol, 2),
    ],
)
def test_an_unreachable_fraction_tol_is_precision_unreachable(call):
    # the error formats its tol with {:g}, which a Fraction took only from
    # Python 3.12 on: it was a raw TypeError on 3.10 and 3.11
    with pytest.raises(PrecisionUnreachableError, match="^cannot certify tolerance 1e-12 "):
        call(Fraction(1, 10**12))


def test_each_entry_point_calls_the_one_home_of_its_rules(monkeypatch):
    # each helper is replaced wherever a thetamod module holds it, as the
    # benchmark's tracer installs its hooks, so a copy of a rule that does
    # not call its home shows here
    calls = {}
    point = "require_upper_half"
    homes = {"tol": "checked_tol", "cap": "require_count", "z": point, "tau": point}
    for helper in set(homes.values()):
        original = getattr(errors, helper)

        def spy(*args, _helper=helper, _original=original):
            calls[_helper] = calls.get(_helper, 0) + 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name == "thetamod" or module_name.startswith("thetamod."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, spy)
    for name, call in sorted(ENTRY_POINTS.items()):
        calls.clear()
        call(**GOOD)
        for arg in _takes(call):
            assert calls.get(homes[arg]), (name, arg, calls)
