"""Deterministic verification suites over the exact and numeric claims.

Each suite draws its trial inputs from an index-derived substream of the
configured seed, so trials are independent and the full record list (and the
serialized report) is byte-identical across runs with the same config.
Random matrices are built from random generator words -- membership in the
group (or its level-2 subgroup) is guaranteed by construction and the
word-building caps entry growth instead of rejection sampling.

Exact suites (lemma1-4, reciprocity, parity-mod4, the closed-form
diagnostic) decide pass/fail by rational-phase or integer equality only;
floating point never adjudicates them.  Numeric suites compare a directly
summed left-hand side against the assembled right-hand side and pass when

    |lhs - rhs| / max(1, |rhs|)  <  tol * kappa.

Report format: JSON Lines, one record per trial, then one summary line.
Complex numbers serialize as [re, im], rationals as "p/q", matrices as
[[a, b], [c, d]].
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    lemma1_sides,
    lemma2_sides,
    lemma3_sides,
    lemma4_sides,
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

RECIPROCITY_BOUND = 200


@dataclass(frozen=True)
class TrialConfig:
    """Knobs shared by every suite; identical configs replay identically."""

    seed: int = 0
    trials: int = 100
    entry_bound: int = 6
    tau_box: tuple[float, float, float, float] = (-1.0, 1.0, 0.5, 2.0)
    z_box: tuple[float, float, float, float] = (-0.5, 0.5, -0.5, 0.5)
    tol: float = 1e-9
    suites: tuple[str, ...] = ()
    corpus: tuple[Sl2Matrix, ...] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.tol <= 0:
            raise DomainError("tol must be positive")
        if self.tau_box[2] <= 0:
            raise DomainError("tau box must lie in the upper half-plane")
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
            "kappa": self.kappa,
        }
        if self.inconclusive:
            rec["inconclusive"] = True
        return rec


def _encode(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, UnitPhase):
        return rational_str(v.phase)
    if isinstance(v, Fraction):
        return rational_str(v)
    if isinstance(v, Sl2Matrix):
        return v.to_lists()
    if isinstance(v, ThetaKind):
        return str(v)
    return v


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


def _numeric_record(
    suite: str,
    trial: int,
    inputs: dict,
    lhs: complex,
    rhs: complex,
    tol: float,
    kappa: float,
) -> VerificationRecord:
    residual = abs(lhs - rhs) / max(1.0, abs(rhs))
    return VerificationRecord(
        suite=suite,
        trial=trial,
        inputs=inputs,
        expected=rhs,
        observed=lhs,
        residual=residual,
        passed=residual < tol * kappa,
        kappa=kappa,
    )


def _inconclusive_record(
    suite: str, trial: int, inputs: dict, err: PrecisionUnreachableError
) -> VerificationRecord:
    inputs = dict(inputs, error=str(err))
    return VerificationRecord(
        suite=suite,
        trial=trial,
        inputs=inputs,
        expected=None,
        observed=None,
        residual=math.inf,
        passed=False,
        kappa=1.0,
        inconclusive=True,
    )


def _phase_record(
    suite: str,
    trial: int,
    inputs: dict,
    expected: UnitPhase,
    observed: UnitPhase,
) -> VerificationRecord:
    return VerificationRecord(
        suite=suite,
        trial=trial,
        inputs=inputs,
        expected=expected,
        observed=observed,
        residual="exact",
        passed=expected == observed,
    )


# --- exact suites ---------------------------------------------------------


def _suite_lemma1(config: TrialConfig) -> list[VerificationRecord]:
    records = []
    for t in range(config.trials):
        A, rng = _random_matrix(
            config, "lemma1", t, corpus_ok=lambda M: M.c > 0
        )
        m = rng.randint(-10, 10)
        records.append(
            _phase_record("lemma1", t, {"matrix": A, "m": m}, *lemma1_sides(A, m))
        )
    return records


def _suite_lemma2(config: TrialConfig) -> list[VerificationRecord]:
    records = []
    for t in range(config.trials):
        want_positive_d = t % 2 == 0
        A, _ = _random_matrix(
            config,
            "lemma2",
            t,
            want=lambda M: M.c > 0 and (M.d > 0) == want_positive_d and M.d != 0,
            corpus_ok=lambda M: M.c > 0 and M.d != 0,
        )
        inputs = {"matrix": A, "branch": "d>0" if A.d > 0 else "d<0"}
        records.append(_phase_record("lemma2", t, inputs, *lemma2_sides(A)))
    return records


def _suite_lemma3(config: TrialConfig) -> list[VerificationRecord]:
    records = []
    for t in range(config.trials):
        A, rng = _random_matrix(
            config, "lemma3", t, gamma2=True, corpus_ok=lambda M: M.c > 0
        )
        m = rng.randint(-10, 10)
        records.append(
            _phase_record("lemma3", t, {"matrix": A, "m": m}, *lemma3_sides(A, m))
        )
    return records


def _suite_lemma4(config: TrialConfig) -> list[VerificationRecord]:
    records = []
    for t in range(config.trials):
        want_positive = t % 2 == 0
        A, _ = _random_matrix(
            config,
            "lemma4",
            t,
            gamma2=True,
            want=lambda M: M.c > 0
            and M.c + 2 * M.d != 0
            and (M.c + 2 * M.d > 0) == want_positive,
            corpus_ok=lambda M: M.c > 0 and M.c + 2 * M.d != 0,
        )
        inputs = {"matrix": A, "branch": "c+2d>0" if A.c + 2 * A.d > 0 else "c+2d<0"}
        records.append(_phase_record("lemma4", t, inputs, *lemma4_sides(A)))
    return records


def _suite_reciprocity(config: TrialConfig) -> list[VerificationRecord]:
    """All coprime ordered pairs 1 <= h, k <= 200, exactly zero defect."""
    records = []
    zero = Fraction(0)
    t = 0
    for h in range(1, RECIPROCITY_BOUND + 1):
        for k in range(1, RECIPROCITY_BOUND + 1):
            if math.gcd(h, k) != 1:
                continue
            defect = reciprocity_defect(h, k)
            records.append(
                VerificationRecord(
                    suite="reciprocity",
                    trial=t,
                    inputs={"h": h, "k": k},
                    expected=zero,
                    observed=defect,
                    residual="exact",
                    passed=defect == 0,
                )
            )
            t += 1
    return records


def _suite_parity_mod4(config: TrialConfig) -> list[VerificationRecord]:
    records = []
    for t in range(config.trials):
        A, _ = _random_matrix(
            config, "parity-mod4", t, gamma2=True, want=lambda M: True
        )
        r1 = ((A.c + 1) ** 2 - A.a**2) % 4
        r2 = (A.d**2 - A.b**2) % 4
        records.append(
            VerificationRecord(
                suite="parity-mod4",
                trial=t,
                inputs={"matrix": A},
                expected=[0, 1],
                observed=[r1, r2],
                residual="exact",
                passed=r1 == 0 and r2 == 1,
            )
        )
    return records


def _suite_closed_form(config: TrialConfig) -> list[VerificationRecord]:
    """Diagnostic: closed-form multiplier vs -i*epsilon^3, reported per trial."""
    records = []
    for t in range(config.trials):
        A, _ = _random_matrix(
            config, "closed-form-epsilon", t, corpus_ok=lambda M: M.c > 0
        )
        expected = theta1_epsilon(A)
        observed = theta1_epsilon_closed(A)
        branch = "c-odd" if A.c % 2 == 1 else "d-odd"
        records.append(
            _phase_record(
                "closed-form-epsilon",
                t,
                {"matrix": A, "branch": branch},
                expected,
                observed,
            )
        )
    return records


# --- numeric suites -------------------------------------------------------


def _inner_tol(config: TrialConfig) -> float:
    return config.tol * 1e-3


def _one_letter_rhs(letter: Letter, z: complex, tau: complex, tol: float) -> complex:
    """theta1(z', tau') predicted from theta1(z, tau) by one generator law."""
    _, factor, _, _ = apply_letter(ThetaKind.THETA1, letter, z, tau)
    return theta_series(ThetaKind.THETA1, z, tau, tol) / factor


def _suite_eq1(config: TrialConfig) -> list[VerificationRecord]:
    records = []
    tol_in = _inner_tol(config)
    for t in range(config.trials):
        rng = _rng(config, "eq1", t)
        z = _draw_point(rng, config.z_box)
        tau = _draw_point(rng, config.tau_box)
        m = rng.choice([i for i in range(-6, 7) if i != 0])
        inputs = {"z": z, "tau": tau, "m": m}
        try:
            lhs = theta_series(ThetaKind.THETA1, z, tau + m, tol_in)
            rhs = _one_letter_rhs(Letter("T", m), z, tau, tol_in)
        except PrecisionUnreachableError as err:
            records.append(_inconclusive_record("eq1", t, inputs, err))
            continue
        records.append(
            _numeric_record("eq1", t, inputs, lhs, rhs, config.tol, 1.0)
        )
    return records


def _suite_eq2(config: TrialConfig) -> list[VerificationRecord]:
    records = []
    tol_in = _inner_tol(config)
    for t in range(config.trials):
        rng = _rng(config, "eq2", t)
        z = _draw_point(rng, config.z_box)
        tau = _draw_point(rng, config.tau_box)
        inputs = {"z": z, "tau": tau}
        kappa = conditioning_factor(S, z, tau)
        try:
            lhs = theta_series(ThetaKind.THETA1, z / tau, -1 / tau, tol_in)
            rhs = _one_letter_rhs(Letter("S"), z, tau, tol_in)
        except PrecisionUnreachableError as err:
            records.append(_inconclusive_record("eq2", t, inputs, err))
            continue
        records.append(
            _numeric_record("eq2", t, inputs, lhs, rhs, config.tol, kappa)
        )
    return records


def _suite_lemma5(config: TrialConfig) -> list[VerificationRecord]:
    """The S2 law for theta3, plus the exact unit-prefactor identity."""
    records = [
        _phase_record(
            "lemma5",
            0,
            {"identity": "alpha(theta3,S2)*epsilon1'(S2)"},
            UnitPhase(0),
            gamma2_prefactor(ThetaKind.THETA3, shear(1)),
        )
    ]
    tol_in = _inner_tol(config)
    for t in range(1, config.trials + 1):
        rng = _rng(config, "lemma5", t)
        z = _draw_point(rng, config.z_box)
        tau = _draw_point(rng, config.tau_box)
        w = 2 * tau + 1
        inputs = {"z": z, "tau": tau}
        try:
            lhs = theta_series(ThetaKind.THETA3, z / w, tau / w, tol_in)
            rhs = predict_theta_gamma2(ThetaKind.THETA3, shear(1), z, tau, tol_in)
        except PrecisionUnreachableError as err:
            records.append(_inconclusive_record("lemma5", t, inputs, err))
            continue
        records.append(
            _numeric_record("lemma5", t, inputs, lhs, rhs, config.tol, 1.0)
        )
    return records


def _law_suite(
    suite: str, kind: ThetaKind | None, config: TrialConfig
) -> list[VerificationRecord]:
    """Shared body of theorem1 and the three theorem2 suites."""
    records = []
    tol_in = _inner_tol(config)
    gamma2 = kind is not None
    for t in range(config.trials):
        A, rng = _random_matrix(config, suite, t, gamma2=gamma2, max_entries=20)
        z = _draw_point(rng, config.z_box)
        tau = _draw_point(rng, config.tau_box)
        w = A.c * tau + A.d
        kappa = conditioning_factor(A, z, tau)
        inputs = {"matrix": A, "z": z, "tau": tau}
        try:
            if gamma2:
                lhs = theta_series(kind, z / w, mobius(A, tau), tol_in)
                rhs = predict_theta_gamma2(kind, A, z, tau, tol_in)
            else:
                lhs = theta_series(ThetaKind.THETA1, z / w, mobius(A, tau), tol_in)
                rhs = predict_theta1(A, z, tau, tol_in)
        except PrecisionUnreachableError as err:
            records.append(_inconclusive_record(suite, t, inputs, err))
            continue
        records.append(
            _numeric_record(suite, t, inputs, lhs, rhs, config.tol, kappa)
        )
    return records


def _suite_chain_vs_direct(config: TrialConfig) -> list[VerificationRecord]:
    """Letter-by-letter chained prediction vs the single-shot law."""
    records = []
    tol_in = _inner_tol(config)
    for t in range(config.trials):
        A, rng = _random_matrix(config, "chain-vs-direct", t, max_entries=20)
        z = _draw_point(rng, config.z_box)
        tau = _draw_point(rng, config.tau_box)
        inputs = {"matrix": A, "z": z, "tau": tau, "word": str(decompose_gamma(A))}
        try:
            chained = predict_theta1_chained(A, z, tau, tol_in)
            single = predict_theta1(A, z, tau, tol_in)
        except PrecisionUnreachableError as err:
            records.append(_inconclusive_record("chain-vs-direct", t, inputs, err))
            continue
        records.append(
            _numeric_record(
                "chain-vs-direct", t, inputs, chained, single, config.tol, 1.0
            )
        )
    return records


SUITES: dict[str, dict] = {
    "lemma1": {"run": _suite_lemma1, "diagnostic": False},
    "lemma2": {"run": _suite_lemma2, "diagnostic": False},
    "lemma3": {"run": _suite_lemma3, "diagnostic": False},
    "lemma4": {"run": _suite_lemma4, "diagnostic": False},
    "lemma5": {"run": _suite_lemma5, "diagnostic": False},
    "eq1": {"run": _suite_eq1, "diagnostic": False},
    "eq2": {"run": _suite_eq2, "diagnostic": False},
    "theorem1": {"run": partial(_law_suite, "theorem1", None), "diagnostic": False},
    "theorem2-theta2": {
        "run": partial(_law_suite, "theorem2-theta2", ThetaKind.THETA2),
        "diagnostic": False,
    },
    "theorem2-theta3": {
        "run": partial(_law_suite, "theorem2-theta3", ThetaKind.THETA3),
        "diagnostic": False,
    },
    "theorem2-theta4": {
        "run": partial(_law_suite, "theorem2-theta4", ThetaKind.THETA4),
        "diagnostic": False,
    },
    "reciprocity": {"run": _suite_reciprocity, "diagnostic": False},
    "closed-form-epsilon": {"run": _suite_closed_form, "diagnostic": True},
    "chain-vs-direct": {"run": _suite_chain_vs_direct, "diagnostic": False},
    "parity-mod4": {"run": _suite_parity_mod4, "diagnostic": False},
}


def run_suite(name: str, config: TrialConfig) -> list[VerificationRecord]:
    """Run one suite; deterministic given the config (seed included)."""
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name]["run"](config)


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
                diagnostic=SUITES[name]["diagnostic"],
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
        fp.write(json.dumps(rec.to_json_dict(), sort_keys=True))
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
