"""Deterministic verification suites over the exact and numeric claims.

Every suite is a trial function

    trial(config, t) -> (inputs, sides, kappa)

run by one driver over the suite's trial indices (``range(config.trials)``
unless the suite names its own range).  ``inputs`` is the record's input
dict, fixed before any series is summed; ``sides()`` returns the pair
``(expected, observed)``; ``kappa`` scales the numeric tolerance.  Numeric
trials sum the direct series (the observed left-hand side) before the
assembled prediction, so when both are out of reach the error reported is
the left-hand side's.

One record builder decides every verdict.  When ``expected`` is not complex
(a rational phase, a rational, an integer list) the identity is exact: the
record says ``"residual": "exact"`` and passes iff the two sides are equal,
so floating point never adjudicates it.  Otherwise the trial passes when

    |observed - expected| / max(1, |expected|)  <  tol * kappa.

A ``PrecisionUnreachableError`` from ``sides()`` makes the trial
inconclusive: a failed record carrying the inputs and the error message.

Each trial draws from an index-derived substream of the configured seed, so
trials are independent and the full record list (and the serialized report)
is byte-identical across runs with the same config.  Random matrices are
built from random generator words -- membership in the group (or its level-2
subgroup) is guaranteed by construction and the word-building caps entry
growth instead of rejection sampling.

Report format: JSON Lines, one record per trial, then one summary line.
Complex numbers serialize as [re, im], rationals as "p/q", matrices as
[[a, b], [c, d]], non-finite floats as "inf", "-inf" or "nan".
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, TextIO

from .dedekind import reciprocity_defect
from .errors import DomainError, PrecisionUnreachableError
from .exact import UnitPhase, rational_str
from .modgroup import (
    IDENTITY,
    Letter,
    S,
    Sl2Matrix,
    decompose_gamma,
    is_gamma2,
    mobius,
    normalize_sign,
    shear,
    translation,
)
from .multipliers import (
    gamma2_prefactor,
    lemma_sides,
    theta1_epsilon,
    theta1_epsilon_closed,
)
from .series import ThetaKind, theta_series
from .transform import (
    apply_letter,
    conditioning_factor,
    predict_theta1,
    predict_theta1_chained,
    predict_theta_gamma2,
)

RECIPROCITY_BOUND = 200  # < 256: _coprime_pairs packs a pair into 16 bits
# Boxes (re_lo, re_hi, im_lo, im_hi) the numeric suites draw tau and z from.
TAU_BOX = (-1.0, 1.0, 0.5, 2.0)
Z_BOX = (-0.5, 0.5, -0.5, 0.5)


@dataclass(frozen=True)
class TrialConfig:
    """Knobs shared by every suite; identical configs replay identically."""

    seed: int = 0
    trials: int = 100
    entry_bound: int = 6
    tol: float = 1e-9
    suites: tuple[str, ...] = ()
    corpus: tuple[Sl2Matrix, ...] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        unknown = set(self.suites) - set(SUITES)
        if unknown:
            raise DomainError(f"unknown suites: {sorted(unknown)}")


@dataclass
class VerificationRecord:
    """One trial: inputs, predicted vs observed, residual, verdict."""

    suite: str
    trial: int
    inputs: dict
    expected: object
    observed: object
    residual: float | str
    passed: bool
    kappa: float = 1.0
    inconclusive: bool = False

    def to_json_dict(self) -> dict:
        rec = {
            "suite": self.suite,
            "trial": self.trial,
            "inputs": {k: _encode(v) for k, v in self.inputs.items()},
            "expected": _encode(self.expected),
            "observed": _encode(self.observed),
            "residual": _encode(self.residual),
            "pass": self.passed,
            "kappa": _encode(self.kappa),
        }
        if self.inconclusive:
            rec["inconclusive"] = True
        return rec


def _encode(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else str(v)
    if isinstance(v, complex):
        return [_encode(v.real), _encode(v.imag)]
    if isinstance(v, UnitPhase):
        return rational_str(v.phase)
    if isinstance(v, Fraction):
        return rational_str(v)
    if isinstance(v, Sl2Matrix):
        return v.to_lists()
    if isinstance(v, ThetaKind):
        return str(v)
    return v


Sides = Callable[[], tuple[object, object]]
TrialOutput = tuple[dict, Sides, float]
Trial = Callable[[TrialConfig, int], TrialOutput]


def _record(
    suite: str, trial: int, inputs: dict, sides: Sides, kappa: float, tol: float
) -> VerificationRecord:
    """The one verdict: exact equality, or a residual below tol * kappa."""
    try:
        expected, observed = sides()
    except PrecisionUnreachableError as err:
        inputs = dict(inputs, error=str(err))
        return VerificationRecord(
            suite, trial, inputs, None, None, math.inf, False, inconclusive=True
        )
    if isinstance(expected, complex):
        residual = abs(observed - expected) / max(1.0, abs(expected))
        passed = residual < tol * kappa
    else:
        residual, passed = "exact", expected == observed
    return VerificationRecord(
        suite, trial, inputs, expected, observed, residual, passed, kappa
    )


def _all_trials(config: TrialConfig) -> range:
    return range(config.trials)


def _run(
    suite: str,
    trial: Trial,
    indices: Callable[[TrialConfig], range],
    config: TrialConfig,
) -> list[VerificationRecord]:
    """The one trial loop: a record per index, in index order."""
    return [_record(suite, t, *trial(config, t), config.tol) for t in indices(config)]


def _rng(config: TrialConfig, suite: str, trial: int) -> random.Random:
    return random.Random(f"{config.seed}:{suite}:{trial}")


def _draw_point(rng: random.Random, box) -> complex:
    """A uniform draw from the box (re_lo, re_hi, im_lo, im_hi)."""
    return complex(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))


def _word_matrix(
    rng: random.Random, entry_bound: int, max_entries: int, gamma2: bool
) -> Sl2Matrix:
    """Product of a random generator word, capped at max_entries growth."""
    M = IDENTITY
    last = None
    for _ in range(rng.randint(1, 12)):
        exp = rng.randint(1, entry_bound) * rng.choice((-1, 1))
        if gamma2:
            use_shear = last != "S2" and (last == "T" or rng.random() < 0.5)
            step = shear(exp) if use_shear else translation(2 * exp)
            gen = "S2" if use_shear else "T"
        else:
            use_s = last != "S" and (last == "T" or rng.random() < 0.5)
            step = S if use_s else translation(exp)
            gen = "S" if use_s else "T"
        cand = M * step
        if cand.max_entry() > max_entries:
            break
        M, last = cand, gen
    return normalize_sign(M)[0]


def _random_matrix(
    config: TrialConfig,
    suite: str,
    trial: int,
    *,
    gamma2: bool = False,
    max_entries: int = 1500,
    want: Callable[[Sl2Matrix], bool] = lambda A: A.c > 0,
    corpus_ok: Callable[[Sl2Matrix], bool] | None = None,
) -> tuple[Sl2Matrix, random.Random]:
    """Deterministic per-trial matrix satisfying ``want`` (retries in-stream).

    With a corpus configured, the trial's matrix is taken from it instead
    (sign-normalized); it must satisfy the suite's hard preconditions,
    checked by ``corpus_ok`` -- branch-steering parts of ``want`` do not
    apply to corpus entries.
    """
    rng = _rng(config, suite, trial)
    if config.corpus is not None:
        A = normalize_sign(config.corpus[trial % len(config.corpus)])[0]
        if gamma2 and not is_gamma2(A):
            raise DomainError(
                f"corpus matrix {A} is not congruent to the identity mod 2 "
                f"(required by suite {suite})"
            )
        if corpus_ok is not None and not corpus_ok(A):
            raise DomainError(f"corpus matrix {A} is out of domain for {suite}")
        return A, rng
    for _ in range(200):
        A = _word_matrix(rng, config.entry_bound, max_entries, gamma2)
        if want(A):
            return A, rng
    raise RuntimeError(f"could not draw a matrix for {suite} trial {trial}")


# --- exact trials ---------------------------------------------------------


def _translation_lemma(
    suite: str, gamma2: bool, config: TrialConfig, t: int
) -> TrialOutput:
    """lemma1 (T^m) or lemma3 (T^{2m} on a level-2 matrix)."""
    A, rng = _random_matrix(
        config, suite, t, gamma2=gamma2, corpus_ok=lambda M: M.c > 0
    )
    m = rng.randint(-10, 10)
    letter = Letter("T", 2 * m if gamma2 else m)
    return {"matrix": A, "m": m}, partial(lemma_sides, A, letter), 1.0


def _branch_lemma(
    suite: str,
    gamma2: bool,
    letter: Letter,
    labels: tuple[str, str],
    config: TrialConfig,
    t: int,
) -> TrialOutput:
    """lemma2 (S) or lemma4 (S2): even trials take c(A L) > 0, odd ones < 0."""
    L = letter.matrix()
    positive = t % 2 == 0

    def lower_left(M: Sl2Matrix) -> int:  # (M L).c without building M L
        return M.c * L.a + M.d * L.c

    A, _ = _random_matrix(
        config,
        suite,
        t,
        gamma2=gamma2,
        want=lambda M: M.c > 0 and (c := lower_left(M)) != 0 and (c > 0) == positive,
        corpus_ok=lambda M: M.c > 0 and lower_left(M) != 0,
    )
    inputs = {"matrix": A, "branch": labels[0] if lower_left(A) > 0 else labels[1]}
    return inputs, partial(lemma_sides, A, letter), 1.0


_ZERO = Fraction(0)


@cache
def _coprime_pairs() -> array:
    """Coprime ordered pairs 1 <= h, k <= RECIPROCITY_BOUND, h-major.

    Each pair is packed as h * 256 + k: 2 bytes an entry instead of a tuple,
    so the 24,463-entry table does not add to the run's peak memory.
    """
    bound = range(1, RECIPROCITY_BOUND + 1)
    pairs = (h * 256 + k for h in bound for k in bound if math.gcd(h, k) == 1)
    return array("H", pairs)


def _reciprocity(config: TrialConfig, t: int) -> TrialOutput:
    """Trial t is the t-th coprime pair; the defect is exactly zero."""
    h, k = divmod(_coprime_pairs()[t], 256)
    return {"h": h, "k": k}, lambda: (_ZERO, reciprocity_defect(h, k)), 1.0


def _parity_mod4(config: TrialConfig, t: int) -> TrialOutput:
    A, _ = _random_matrix(config, "parity-mod4", t, gamma2=True, want=lambda M: True)
    residues = [((A.c + 1) ** 2 - A.a**2) % 4, (A.d**2 - A.b**2) % 4]
    return {"matrix": A}, lambda: ([0, 1], residues), 1.0


def _closed_form(config: TrialConfig, t: int) -> TrialOutput:
    """Diagnostic: -i*epsilon^3 vs the closed-form multiplier."""
    A, _ = _random_matrix(
        config, "closed-form-epsilon", t, corpus_ok=lambda M: M.c > 0
    )
    inputs = {"matrix": A, "branch": "c-odd" if A.c % 2 == 1 else "d-odd"}
    return inputs, lambda: (theta1_epsilon(A), theta1_epsilon_closed(A)), 1.0


# --- numeric trials -------------------------------------------------------


def _inner_tol(config: TrialConfig) -> float:
    return config.tol * 1e-3


def _one_letter_rhs(letter: Letter, z: complex, tau: complex, tol: float) -> complex:
    """theta1(z', tau') predicted from theta1(z, tau) by one generator law."""
    _, factor, _, _ = apply_letter(ThetaKind.THETA1, letter, z, tau)
    return theta_series(ThetaKind.THETA1, z, tau, tol) / factor


def _eq1(config: TrialConfig, t: int) -> TrialOutput:
    rng = _rng(config, "eq1", t)
    z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
    m = rng.choice([i for i in range(-6, 7) if i != 0])
    tol_in = _inner_tol(config)

    def sides():
        lhs = theta_series(ThetaKind.THETA1, z, tau + m, tol_in)
        return _one_letter_rhs(Letter("T", m), z, tau, tol_in), lhs

    return {"z": z, "tau": tau, "m": m}, sides, 1.0


def _eq2(config: TrialConfig, t: int) -> TrialOutput:
    rng = _rng(config, "eq2", t)
    z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
    tol_in = _inner_tol(config)

    def sides():
        lhs = theta_series(ThetaKind.THETA1, z / tau, -1 / tau, tol_in)
        return _one_letter_rhs(Letter("S"), z, tau, tol_in), lhs

    return {"z": z, "tau": tau}, sides, conditioning_factor(S, z, tau)


def _lemma5(config: TrialConfig, t: int) -> TrialOutput:
    """The S2 law for theta3; trial 0 is the exact unit-prefactor identity."""
    if t == 0:

        def sides():
            return UnitPhase(0), gamma2_prefactor(ThetaKind.THETA3, shear(1))

        return {"identity": "alpha(theta3,S2)*epsilon1'(S2)"}, sides, 1.0
    rng = _rng(config, "lemma5", t)
    z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
    w = 2 * tau + 1
    tol_in = _inner_tol(config)

    def sides():
        lhs = theta_series(ThetaKind.THETA3, z / w, tau / w, tol_in)
        return predict_theta_gamma2(ThetaKind.THETA3, shear(1), z, tau, tol_in), lhs

    return {"z": z, "tau": tau}, sides, 1.0


def _law(suite: str, kind: ThetaKind, config: TrialConfig, t: int) -> TrialOutput:
    """theorem1 (theta1, full group) or a theorem2 suite (level 2)."""
    gamma2 = kind is not ThetaKind.THETA1
    A, rng = _random_matrix(config, suite, t, gamma2=gamma2, max_entries=20)
    z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
    tol_in = _inner_tol(config)

    def sides():
        lhs = theta_series(kind, z / (A.c * tau + A.d), mobius(A, tau), tol_in)
        if gamma2:
            return predict_theta_gamma2(kind, A, z, tau, tol_in), lhs
        return predict_theta1(A, z, tau, tol_in), lhs

    inputs = {"matrix": A, "z": z, "tau": tau}
    return inputs, sides, conditioning_factor(A, z, tau)


def _chain_vs_direct(config: TrialConfig, t: int) -> TrialOutput:
    """Letter-by-letter chained prediction (observed) vs the single-shot law."""
    A, rng = _random_matrix(config, "chain-vs-direct", t, max_entries=20)
    z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
    tol_in = _inner_tol(config)

    def sides():
        chained = predict_theta1_chained(A, z, tau, tol_in)
        return predict_theta1(A, z, tau, tol_in), chained

    word = str(decompose_gamma(A))
    return {"matrix": A, "z": z, "tau": tau, "word": word}, sides, 1.0


# Trial functions in report order.  A suite runs trials 0..config.trials-1
# unless _INDICES names its own range.
_TRIALS: dict[str, Trial] = {
    "lemma1": partial(_translation_lemma, "lemma1", False),
    "lemma2": partial(_branch_lemma, "lemma2", False, Letter("S"), ("d>0", "d<0")),
    "lemma3": partial(_translation_lemma, "lemma3", True),
    "lemma4": partial(
        _branch_lemma, "lemma4", True, Letter("S2"), ("c+2d>0", "c+2d<0")
    ),
    "lemma5": _lemma5,
    "eq1": _eq1,
    "eq2": _eq2,
    "theorem1": partial(_law, "theorem1", ThetaKind.THETA1),
    "theorem2-theta2": partial(_law, "theorem2-theta2", ThetaKind.THETA2),
    "theorem2-theta3": partial(_law, "theorem2-theta3", ThetaKind.THETA3),
    "theorem2-theta4": partial(_law, "theorem2-theta4", ThetaKind.THETA4),
    "reciprocity": _reciprocity,
    "closed-form-epsilon": _closed_form,
    "chain-vs-direct": _chain_vs_direct,
    "parity-mod4": _parity_mod4,
}
_INDICES: dict[str, Callable[[TrialConfig], range]] = {
    "lemma5": lambda config: range(config.trials + 1),
    "reciprocity": lambda config: range(len(_coprime_pairs())),
}
SUITES: dict[str, Callable[[TrialConfig], list[VerificationRecord]]] = {
    name: partial(_run, name, trial, _INDICES.get(name, _all_trials))
    for name, trial in _TRIALS.items()
}
# Suites whose mismatches are reported but never fail the overall verdict.
DIAGNOSTIC_SUITES = frozenset({"closed-form-epsilon"})


def run_suite(name: str, config: TrialConfig) -> list[VerificationRecord]:
    """Run one suite; deterministic given the config (seed included)."""
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](config)


@dataclass
class SuiteSummary:
    name: str
    total: int
    passed: int
    diagnostic: bool

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def run_suites(
    config: TrialConfig,
) -> tuple[list[VerificationRecord], list[SuiteSummary]]:
    names = config.suites or tuple(SUITES)
    records: list[VerificationRecord] = []
    summaries: list[SuiteSummary] = []
    for name in names:
        recs = run_suite(name, config)
        records.extend(recs)
        summaries.append(
            SuiteSummary(
                name=name,
                total=len(recs),
                passed=sum(r.passed for r in recs),
                diagnostic=name in DIAGNOSTIC_SUITES,
            )
        )
    return records, summaries


def overall_pass(summaries: list[SuiteSummary]) -> bool:
    """True iff every non-diagnostic suite fully passed."""
    return all(s.ok for s in summaries if not s.diagnostic)


def write_report(
    fp: TextIO, records: list[VerificationRecord], summaries: list[SuiteSummary]
) -> None:
    """JSON Lines: one record per trial, one trailing summary line."""
    for rec in records:
        fp.write(json.dumps(rec.to_json_dict(), sort_keys=True, allow_nan=False))
        fp.write("\n")
    summary = {
        "summary": {
            s.name: {"total": s.total, "passed": s.passed, "diagnostic": s.diagnostic}
            for s in summaries
        },
        "pass": overall_pass(summaries),
    }
    fp.write(json.dumps(summary, sort_keys=True))
    fp.write("\n")


def load_corpus(path: str) -> tuple[Sl2Matrix, ...]:
    """Matrices from a file, one [[a,b],[c,d]] per line (blank/# skipped)."""
    matrices = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            matrices.append(Sl2Matrix.from_lists(json.loads(line)))
    if not matrices:
        raise DomainError(f"corpus {path} contains no matrices")
    return tuple(matrices)
