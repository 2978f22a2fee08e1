"""The four benchmark workloads: seeded inputs, one op, and its output check.

Each workload turns ``--seed`` into a fixed list of plain tuples (``generate``,
standard library only, so the list can be hashed and shipped to a fresh
process), turns each tuple into library objects (``prepare``, untimed), runs
one op per item (``op``, timed), and checks the outputs of one pass against an
independent path of the library (``check``, untimed).

Ops look every library function up through its module at call time
(``transform.eval_fast``, never a from-import), so the hooks that ``tracer``
installs in the modules' namespaces see the benchmark's calls too.

Inputs are stratified (Latin hypercube) rather than drawn independently: each
coordinate's range is cut into as many equal slices as there are items and
every slice holds exactly one item.  The distributions are the ones named
below; stratifying only removes the seed-to-seed luck in how many items land
in the expensive corners, so different seeds measure the same workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from thetamod import cli, modgroup, multipliers, series, transform
from thetamod.exact import UnitPhase
from thetamod.modgroup import Sl2Matrix
from thetamod.series import ThetaKind

TOL = 1e-10
# Relative agreement demanded of a checked output: the library's own tests
# hold eval_fast to 1e-8 * max(1, |direct|) at tol 1e-10.
CHECK_RTOL = 1e-8
# eval_fast's reduced series never needs more than ~35 terms on this grid.
# The cap bounds only the futile scan a NaN inner tolerance triggers (the
# default 10**6 steps take ~2 s and would swamp every other op); those points
# still fail with PrecisionUnreachableError and stay in the grid.
EVAL_MAX_INDEX = 1000


@dataclass(frozen=True)
class CheckResult:
    bad: frozenset  # indices of items whose output failed the check
    note: str


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list]
    prepare: Callable[[tuple, Path], object]
    op: Callable[[object], object]
    check: Callable[[list, list], CheckResult]
    # Turns an op's output into the value compared across passes.
    snapshot: Callable[[object, object], object] = lambda item, out: out


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), exactly one in each slice [i/n, (i+1)/n), shuffled."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [(s + rng.random()) / n for s in slots]


def _log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _kinds(rng: random.Random, n: int) -> list[int]:
    kinds = [1 + i % 4 for i in range(n)]
    rng.shuffle(kinds)
    return kinds


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= CHECK_RTOL * max(1.0, abs(b))


def _theta_point(item: tuple, workdir: Path) -> tuple:
    kind, zr, zi, tr, ti = item
    return ThetaKind(kind), complex(zr, zi), complex(tr, ti)


# --- verify-all -------------------------------------------------------------


def _verify_generate(seed: int) -> list:
    return [(seed,)]


def _verify_prepare(item: tuple, workdir: Path) -> list[str]:
    out = workdir / f"verify-{item[0]}.jsonl"
    return ["verify", "--seed", str(item[0]), "--out", str(out)]


def _verify_op(argv: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _verify_snapshot(argv: list[str], rc: object) -> object:
    if not isinstance(rc, int):
        return rc
    return rc, hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest()


def _verify_check(items: list, outputs: list) -> CheckResult:
    bad = {
        i
        for i, out in enumerate(outputs)
        if not (isinstance(out, tuple) and out[0] == 0)
    }
    return CheckResult(
        frozenset(bad),
        "exit code 0 and a report byte-identical across passes",
    )


# --- eval-grid --------------------------------------------------------------

EVAL_GRID_ITEMS = 10000


def _eval_generate(seed: int) -> list:
    rng = random.Random(f"eval-grid:{seed}")
    n = EVAL_GRID_ITEMS
    kinds = _kinds(rng, n)
    re_tau, im_tau, re_z, im_z = (_strata(rng, n) for _ in range(4))
    return [
        (
            kinds[i],
            re_z[i] - 0.5,
            im_z[i] - 0.5,
            4.0 * re_tau[i] - 2.0,
            _log_scale(im_tau[i], 1e-4, 2.0),
        )
        for i in range(n)
    ]


def _eval_op(point: tuple) -> complex:
    kind, z, tau = point
    return transform.eval_fast(kind, z, tau, TOL, EVAL_MAX_INDEX)


def _direct_is_accurate(kind: ThetaKind, z: complex, tau: complex):
    """The direct series value at (z, tau) when rounding leaves it accurate.

    Terms peak at e^{pi (Im z)^2 / Im tau} and their phases are computed from
    arguments up to pi |tau| N^2; the float error of the sum grows with both.
    Returns None where that a-priori error estimate exceeds 1e-9, i.e. where
    the direct series cannot referee a 1e-8 comparison.
    """
    log_peak = math.pi * z.imag**2 / tau.imag
    if log_peak > 30.0:
        return None
    rep = series.theta_series_report(kind, z, tau, TOL, 5000)
    n = rep.index + 1
    phase = math.pi * (abs(tau) * n * n + 2.0 * abs(z) * n)
    if 2.2e-16 * 2 * n * math.exp(log_peak) * (1.0 + phase) > 1e-9:
        return None
    return rep.value


def _eval_check(items: list, outputs: list) -> CheckResult:
    bad = set()
    checked = returned = 0
    for i, ((kind, z, tau), out) in enumerate(zip(items, outputs)):
        if not isinstance(out, complex):
            continue
        returned += 1
        direct = _direct_is_accurate(kind, z, tau)
        if direct is None:
            continue
        checked += 1
        if not _close(out, direct):
            bad.add(i)
    share = checked / returned if returned else 0.0
    return CheckResult(
        frozenset(bad),
        f"{checked} of {returned} returned values ({share:.1%}) compared with "
        f"the direct theta_series; the rest lie where it is inaccurate",
    )


# --- series-direct ----------------------------------------------------------

SERIES_ITEMS = 2000


def _series_generate(seed: int) -> list:
    rng = random.Random(f"series-direct:{seed}")
    n = SERIES_ITEMS
    kinds = _kinds(rng, n)
    re_tau, im_tau, re_z, im_z = (_strata(rng, n) for _ in range(4))
    items = []
    for i in range(n):
        y = _log_scale(im_tau[i], 1e-4, 1.0)
        items.append((kinds[i], re_z[i] - 0.5, (im_z[i] - 0.5) * y, re_tau[i] - 0.5, y))
    return items


def _series_op(point: tuple) -> tuple:
    kind, z, tau = point
    rep = series.theta_series_report(kind, z, tau, TOL)
    return rep.value, rep.index, rep.terms


def _series_check(items: list, outputs: list) -> CheckResult:
    bad = set()
    for i, ((kind, z, tau), out) in enumerate(zip(items, outputs)):
        if not isinstance(out, tuple):
            continue
        if kind is ThetaKind.THETA1:
            oracle = series.theta1_sine_series(z, tau, TOL)
        else:
            oracle = series.half_period_shift(kind, z, tau, TOL)
        if not _close(out[0], oracle):
            bad.add(i)
    return CheckResult(
        frozenset(bad),
        "theta1 against theta1_sine_series, theta2/3/4 against the "
        "half-period identities",
    )


# --- multiplier-huge --------------------------------------------------------

MULTIPLIER_ITEMS = 100
_ALPHA_KINDS = (ThetaKind.THETA2, ThetaKind.THETA3, ThetaKind.THETA4)


def _multiplier_generate(seed: int) -> list:
    """c on a fixed log-spaced grid over [10, 10**6], d seeded.

    The O(c) Dedekind sums dominate the mean, so c sits at the midpoint of
    each of the n log-uniform slices for every seed and the seed varies d
    (hence a, b, the Jacobi symbols and the generator words).  Every second
    even c is made a level-2 matrix by the choice of a's residue, so the
    level-2 share does not vary with the seed either.  Items run in
    ascending c, so the set-up op is a small matrix.
    """
    rng = random.Random(f"multiplier-huge:{seed}")
    n = MULTIPLIER_ITEMS
    items = []
    even_seen = 0
    for i in range(n):
        c = round(_log_scale((i + 0.5) / n, 10.0, 1e6))
        while True:
            d = rng.randint(-4 * c, 4 * c)
            if d != 0 and math.gcd(c, d) == 1:
                break
        a = pow(d, -1, c)
        b = (a * d - 1) // c
        if c % 2 == 0:
            want_level2 = even_seen % 2 == 0
            even_seen += 1
            if (b % 2 == 0) != want_level2:
                a, b = a + c, b + d  # d is odd here, so b flips parity
        items.append((a, b, c, d))
    return items


def _multiplier_prepare(item: tuple, workdir: Path) -> Sl2Matrix:
    return Sl2Matrix(*item)


def _multiplier_op(A: Sl2Matrix) -> tuple:
    """What ``thetamod multiplier`` computes, plus the word and the induction."""
    A, _ = modgroup.normalize_sign(A)
    eta = multipliers.eta_epsilon(A)
    eps1 = multipliers.theta1_epsilon(A)
    closed = multipliers.theta1_epsilon_closed(A)
    level2 = None
    if modgroup.is_gamma2(A):
        level2 = tuple(multipliers.gamma2_alpha(k, A) for k in _ALPHA_KINDS) + (
            multipliers.gamma2_prefactor(ThetaKind.THETA3, A),
        )
    word = modgroup.decompose_gamma(A)
    induced = multipliers.theta1_epsilon_induction(A)
    return eta, eps1, closed, level2, word, induced


def _multiplier_check(items: list, outputs: list) -> CheckResult:
    bad = set()
    for i, (A, out) in enumerate(zip(items, outputs)):
        if not isinstance(out, tuple):
            continue
        eta, eps1, closed, _, word, induced = out
        # epsilon1 = -i * epsilon^3, exactly
        from_eta = UnitPhase(3 * eta.phase - Fraction(1, 2))
        if not (
            eps1 == closed == induced == from_eta and modgroup.recompose(word) == A
        ):
            bad.add(i)
    return CheckResult(
        frozenset(bad),
        "theta1_epsilon == closed form == induction == -i*eta^3 exactly, "
        "and recompose(decompose_gamma(A)) == A",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-all",
            _verify_generate,
            _verify_prepare,
            _verify_op,
            _verify_check,
            _verify_snapshot,
        ),
        Workload(
            "eval-grid",
            _eval_generate,
            _theta_point,
            _eval_op,
            _eval_check,
        ),
        Workload(
            "series-direct",
            _series_generate,
            _theta_point,
            _series_op,
            _series_check,
        ),
        Workload(
            "multiplier-huge",
            _multiplier_generate,
            _multiplier_prepare,
            _multiplier_op,
            _multiplier_check,
        ),
    )
}
