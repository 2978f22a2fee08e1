"""Deterministic verification suites over the exact and numeric claims.

Every suite is one writer, ``SUITES[name](name, config, fp) ->
SuiteSummary``, that writes its report lines to ``fp`` in trial order;
:func:`run_suite` reads them back as records.  :func:`_trials` makes the
writer of a callable ``suite(name, config)`` that yields its trials in order,
each ``(inputs, sides, kappa)``: ``inputs`` is the record's input dict, fixed
before any series is summed; ``sides()`` returns ``(expected, observed)``;
``kappa`` scales the numeric tolerance.  :func:`_each` makes the writer of
``config.trials`` runs of ``trial(name, config, t)``; lemma5 yields its
exact anchor, then ``config.trials`` numeric trials; the reciprocity writer
walks every coprime pair of ``dedekind._defect_rows``.

eq1, eq2, lemma5, theorem1 and theorem2-* share one law check,
:func:`_law_check`: the direct series at (z/(c tau+d), A tau), summed first,
against ``predictor(A, z, tau, tol)``, kappa from ``conditioning_factor``
(lemma5 keeps kappa 1).  eq1 (A = T^m) and eq2 (A = S) predict through
``predict_theta1_chained``, the chained oracle of theta1's T and S laws;
lemma5 (theta3, A = S2) and the theorems through ``predict_theta1`` and
``predict_theta_gamma2``, as ``eval_fast`` applies them.

:func:`_decide` gives a trial's verdict.  When ``expected`` is not complex
the identity is exact: the record says ``"residual": "exact"`` and passes
iff the two sides are equal, so floating point never adjudicates it.
Otherwise the trial passes when

    |observed - expected| / max(1, |expected|)  <  tol * kappa.

A ``PrecisionUnreachableError`` from ``sides()`` makes the trial
inconclusive: a failed record carrying the inputs and the error message.

Each trial draws from its own substream of the seed, so the records, and
the report, are byte-identical across runs of one config.  Random matrices
are products of random generator words, in the group (or its level-2
subgroup) by construction, with entry growth capped as the word is built.

Report format: JSON Lines, one record per trial, then one summary line, keys
sorted; complex numbers as [re, im], rationals as "p/q", matrices as
[[a, b], [c, d]], non-finite floats as "inf", "-inf" or "nan".
:func:`write_report` writes each line as soon as its trial is decided and
folds it into its suite's :class:`SuiteSummary`, so its memory does not grow
with ``config.trials``; on 2 or more CPUs a forked child writes the suites
from reciprocity on, to a spool copied to ``fp`` after the others' lines.  A
suite that raises leaves the lines so far and no summary line.  The text is
:func:`_text`'s alone: :func:`_line` writes a record with it, and a line is
one % of the template of its record's shape, compiled from the _line of a
marker record, with no record built (a non-finite float goes to _line).
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
import tempfile
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, NoReturn, TextIO

from .dedekind import _defect, _defect_rows
from .errors import DomainError, PrecisionUnreachableError, checked_tol, int_text
from .exact import UnitPhase, rational_str
from .modgroup import (
    Letter,
    S,
    Sl2Matrix,
    _not_gamma2,
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
    conditioning_factor,
    predict_theta1,
    predict_theta1_chained,
    predict_theta_gamma2,
)

RECIPROCITY_BOUND = 200  # the reciprocity suite checks 1 <= h, k <= this
ENTRY_BOUND = 6  # largest |exponent| of a generator letter in a random word
# Boxes (re_lo, re_hi, im_lo, im_hi) the numeric suites draw tau and z from.
TAU_BOX = (-1.0, 1.0, 0.5, 2.0)
Z_BOX = (-0.5, 0.5, -0.5, 0.5)


@dataclass(frozen=True)
class TrialConfig:
    """Knobs shared by every suite; identical configs replay identically."""

    seed: int = 0
    trials: int = 100
    tol: float = 1e-9
    suites: tuple[str, ...] = ()
    corpus: tuple[Sl2Matrix, ...] | None = None

    def __post_init__(self):
        names = self.suites  # a str is no sequence of names, nor is a set
        if isinstance(names, str) or not isinstance(names, Sequence) or not all(
            type(n) is str for n in names
        ):
            raise DomainError(f"suites must be a sequence of suite names, not {names!r}")
        # each suite runs once, at its first position: a repeat would write
        # its records twice under one summary entry
        object.__setattr__(self, "suites", tuple(dict.fromkeys(names)))
        seed = int_text(self.seed)  # _rng names each trial's stream by its digits
        if type(self.seed) is not int or seed.startswith("<"):  # no bool, str or None
            raise DomainError(f"seed must be an int that prints, not {seed}")
        if type(self.trials) is not int or self.trials < 1:  # no bool, no float
            raise DomainError(f"trials must be an int >= 1, not {self.trials!r}")
        tol = self.tol
        checked_tol(tol)  # the stored tol stays as given
        if not _inner_tol(self):  # the numeric suites' series tolerance underflowed
            raise DomainError(f"tol {int_text(tol)} is too small: the suites' tolerance is 0")
        unknown = set(self.suites) - set(SUITES)
        if unknown:
            raise DomainError(f"unknown suites: {sorted(unknown)}")
        corpus = self.corpus
        if corpus is not None and not (
            isinstance(corpus, Sequence)
            and corpus
            and all(isinstance(M, Sl2Matrix) for M in corpus)
        ):
            raise DomainError("corpus must be None or a non-empty sequence of Sl2Matrix")


@dataclass
class VerificationRecord:
    """One trial: inputs, predicted vs observed, residual, verdict.  _line
    writes one of a trial's values; run_suite reads one back from its line."""

    suite: str
    trial: int
    inputs: dict
    expected: object
    observed: object
    residual: float | str
    passed: bool
    kappa: float | str = 1.0
    inconclusive: bool = False


Sides = Callable[[], tuple[object, object]]
TrialOutput = tuple[dict, Sides, float]
Trial = Callable[[str, TrialConfig, int], TrialOutput]
Suite = Callable[[str, TrialConfig], Iterable[TrialOutput]]
Writer = Callable[[str, TrialConfig, TextIO], "SuiteSummary"]


def _decide(inputs: dict, sides: Sides, kappa: float, tol: float) -> tuple:
    """A trial's verdict, exact equality or a residual below tol * kappa, as
    its record's fields from inputs on: (inputs, expected, observed,
    residual, passed, kappa, inconclusive)."""
    try:
        expected, observed = sides()
    except PrecisionUnreachableError as err:
        return dict(inputs, error=str(err)), None, None, math.inf, False, 1.0, True
    if isinstance(expected, complex):
        residual = abs(observed - expected) / max(1.0, abs(expected))
        return inputs, expected, observed, residual, residual < tol * kappa, kappa, False
    return inputs, expected, observed, "exact", expected == observed, kappa, False


def _trials(suite: Suite) -> Writer:
    """The writer of a suite of trials: each trial's line written as it is
    decided, one % of its shape's template, and folded into the summary."""

    def write(name: str, config: TrialConfig, fp: TextIO) -> SuiteSummary:
        summary, shapes, tol = SuiteSummary(name), {}, config.tol
        for t, trial in enumerate(suite(name, config)):
            fields = _decide(*trial, tol)
            fp.write(_compiled_line(name, t, fields, shapes))
            summary.add(tol, t, *fields[3:])
        return summary

    return write


def _each(trial: Trial) -> Writer:
    """The writer of trial(name, config, t) for t < config.trials."""

    def suite(name: str, config: TrialConfig) -> Iterable[TrialOutput]:
        return (trial(name, config, t) for t in range(config.trials))

    return _trials(suite)


def _rng(config: TrialConfig, suite: str, trial: int) -> random.Random:
    return random.Random(f"{config.seed}:{suite}:{trial}")


def _draw_point(rng: random.Random, box) -> complex:
    """A uniform draw from the box (re_lo, re_hi, im_lo, im_hi)."""
    return complex(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))


def _word_matrix(rng: random.Random, max_entries: int, gamma2: bool) -> Sl2Matrix:
    """Product of a random generator word, capped at max_entries >= 1 growth.

    Multiplied out on (a b; c d), one letter at a time on the right, with e
    the letter's step: T^e adds e times the first column to the second,
    S2^exp adds e = 2 exp times the second column to the first (a level-2
    word's T is T^(2 exp), so at level 2 e is 2 exp for both), and S swaps
    the columns, (b -a; d -c).  The length is randint(1, 12) and each exp
    randint(1, ENTRY_BOUND) * choice((-1, 1)), each drawn by its rejection
    loop on getrandbits, so the stream moves as those calls move it.
    """
    bits, k = rng.getrandbits, ENTRY_BOUND.bit_length()
    a, b, c, d = 1, 0, 0, 1
    last, other = None, "S2" if gamma2 else "S"
    while (n := bits(4)) >= 12:  # each loop draws until a value is below its bound
        pass
    for _ in range(n + 1):
        while (e := bits(k)) >= ENTRY_BOUND:
            pass
        while (sign := bits(2)) >= 2:
            pass
        e = (e + 1 if sign else ~e) * (2 if gamma2 else 1)  # ~e is -(e + 1)
        gen = other if last != other and (last == "T" or rng.random() < 0.5) else "T"
        if gen == "S":
            a, b, c, d = b, -a, d, -c
        else:
            p, q = (b + e * a, d + e * c) if gen == "T" else (a + e * b, c + e * d)
            if abs(p) > max_entries or abs(q) > max_entries:
                break
            a, b, c, d = (a, p, c, q) if gen == "T" else (p, b, q, d)
        last = gen
    return normalize_sign(Sl2Matrix(a, b, c, d))[0]


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
            refusal = _not_gamma2(A)
            raise DomainError(f"corpus matrix {refusal} (required by suite {suite})")
        if corpus_ok is not None and not corpus_ok(A):
            raise DomainError(f"corpus matrix {A} is out of domain for {suite}")
        return A, rng
    for _ in range(200):
        A = _word_matrix(rng, max_entries, gamma2)
        if want(A):
            return A, rng
    raise RuntimeError(f"could not draw a matrix for {suite} trial {trial}")


# --- exact trials ---------------------------------------------------------


def _translation_lemma(
    gamma2: bool, name: str, config: TrialConfig, t: int
) -> TrialOutput:
    """lemma1 (T^m) or lemma3 (T^{2m} on a level-2 matrix)."""
    A, rng = _random_matrix(config, name, t, gamma2=gamma2, corpus_ok=lambda M: M.c > 0)
    m = rng.randint(-10, 10)
    letter = Letter("T", 2 * m if gamma2 else m)
    return {"matrix": A, "m": m}, partial(lemma_sides, A, letter), 1.0


def _branch_lemma(
    letter: Letter, labels: tuple[str, str], name: str, config: TrialConfig, t: int
) -> TrialOutput:
    """lemma2 (S) or lemma4 (S2, level-2 A): even trials take c(A L) > 0, odd < 0."""
    L = letter.matrix()
    positive = t % 2 == 0

    def lower_left(M: Sl2Matrix) -> int:  # (M L).c without building M L
        return M.c * L.a + M.d * L.c

    A, _ = _random_matrix(
        config,
        name,
        t,
        gamma2=letter.gen == "S2",
        want=lambda M: M.c > 0 and (c := lower_left(M)) != 0 and (c > 0) == positive,
        corpus_ok=lambda M: M.c > 0 and lower_left(M) != 0,
    )
    inputs = {"matrix": A, "branch": labels[0] if lower_left(A) > 0 else labels[1]}
    return inputs, partial(lemma_sides, A, letter), 1.0


def _write_reciprocity(name: str, config: TrialConfig, fp: TextIO) -> SuiteSummary:
    """Every coprime pair 1 <= h, k <= RECIPROCITY_BOUND, h-major: its defect
    is exactly zero.  Each run walks its own table: never at import, never kept.

    A zero defect passes, decided on the exact rational, with no record: a
    row of them is one join of per-pair texts (k, then its trial) between
    the line's end and its start with h filled in, and one write.  A nonzero
    defect's line is then replaced by the _line of its record, by _decide.
    """
    tol, zero = config.tol, Fraction(0)
    marks = {"h": "<h>", "k": "<t>"}  # "<t>" marks two slots: k's, then the trial's
    proto = VerificationRecord(name, "<t>", marks, zero, zero, "exact", True)
    start, mid, end = _line(proto).replace('"<h>"', "%d").split('"<t>"')
    ks = [f"{k}{mid}" for k in range(RECIPROCITY_BOUND + 1)]
    summary, t = SuiteSummary(name), 0
    for h, coprime, scaled in _defect_rows(RECIPROCITY_BOUND):
        n, first = len(coprime), start % h
        pairs = map(str.__add__, map(ks.__getitem__, coprime), map(str, range(t, t + n)))
        text = first + (end + first).join(pairs) + end
        if any(scaled):
            lines = text.splitlines(keepends=True)
            for i, d in enumerate(scaled):
                if d:
                    sides = (zero, _defect(h, coprime[i], d))
                    fields = _decide({"h": h, "k": coprime[i]}, lambda: sides, 1.0, tol)
                    lines[i] = _line(VerificationRecord(name, t + i, *fields))
                    summary.add(tol, t + i, *fields[3:])
            text = "".join(lines)
        fp.write(text)
        t += n
    summary.passed += t - summary.total  # the zero defects, each passing
    summary.total = t
    return summary


def _parity_mod4(name: str, config: TrialConfig, t: int) -> TrialOutput:
    A, _ = _random_matrix(config, name, t, gamma2=True, want=lambda M: True)
    residues = [((A.c + 1) ** 2 - A.a**2) % 4, (A.d**2 - A.b**2) % 4]
    return {"matrix": A}, lambda: ([0, 1], residues), 1.0


def _closed_form(name: str, config: TrialConfig, t: int) -> TrialOutput:
    """-i*epsilon^3 vs the closed-form multiplier."""
    A, _ = _random_matrix(config, name, t, corpus_ok=lambda M: M.c > 0)
    inputs = {"matrix": A, "branch": "c-odd" if A.c % 2 == 1 else "d-odd"}
    return inputs, lambda: (theta1_epsilon(A), theta1_epsilon_closed(A)), 1.0


# --- numeric trials -------------------------------------------------------


def _inner_tol(config: TrialConfig) -> float:
    return config.tol * 1e-3


def _law_check(
    kind: ThetaKind,
    predictor: Callable[[Sl2Matrix, complex, complex, float], complex],
    A: Sl2Matrix,
    z: complex,
    tau: complex,
    tol: float,
) -> tuple[Sides, float]:
    """The sides and kappa of theta_kind(z/(c tau+d), A tau) = predictor(A, z, tau).

    The direct series at the transformed point is summed first, then the
    prediction.  Callers look the predictor up when the trial runs, never at
    import, so a patched or hooked module attribute is the one checked.
    """

    def sides():
        lhs = theta_series(kind, z / (A.c * tau + A.d), mobius(A, tau), tol)
        return predictor(A, z, tau, tol), lhs

    return sides, conditioning_factor(A, z, tau)


def _eq(translate: bool, name: str, config: TrialConfig, t: int) -> TrialOutput:
    """eq1 (A = T^m, m drawn after z and tau) or eq2 (A = S), predicted chained."""
    rng = _rng(config, name, t)
    z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
    inputs = {"z": z, "tau": tau}
    if translate:
        inputs["m"] = rng.choice([i for i in range(-6, 7) if i != 0])
    A = translation(inputs["m"]) if translate else S
    tol_in = _inner_tol(config)
    law = _law_check(ThetaKind.THETA1, predict_theta1_chained, A, z, tau, tol_in)
    return inputs, *law


def _lemma5(name: str, config: TrialConfig) -> Iterable[TrialOutput]:
    """The exact unit-prefactor identity (trial 0), then the S2 law for theta3
    (trials 1 to config.trials, kappa 1)."""

    def anchor():
        return UnitPhase(0), gamma2_prefactor(ThetaKind.THETA3, shear(1))

    yield {"identity": "alpha(theta3,S2)*epsilon1'(S2)"}, anchor, 1.0
    kind, tol_in = ThetaKind.THETA3, _inner_tol(config)
    predictor = partial(predict_theta_gamma2, kind)
    for t in range(1, config.trials + 1):
        rng = _rng(config, name, t)
        z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
        sides, _ = _law_check(kind, predictor, shear(1), z, tau, tol_in)
        yield {"z": z, "tau": tau}, sides, 1.0


def _law(kind: ThetaKind, name: str, config: TrialConfig, t: int) -> TrialOutput:
    """theorem1 (theta1, full group) or a theorem2 suite (level 2)."""
    gamma2 = kind is not ThetaKind.THETA1
    A, rng = _random_matrix(config, name, t, gamma2=gamma2, max_entries=20)
    z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
    predictor = partial(predict_theta_gamma2, kind) if gamma2 else predict_theta1
    law = _law_check(kind, predictor, A, z, tau, _inner_tol(config))
    return {"matrix": A, "z": z, "tau": tau}, *law


def _chain_vs_direct(name: str, config: TrialConfig, t: int) -> TrialOutput:
    """Letter-by-letter chained prediction (observed) vs the single-shot law."""
    A, rng = _random_matrix(config, name, t, max_entries=20)
    z, tau = _draw_point(rng, Z_BOX), _draw_point(rng, TAU_BOX)
    tol_in = _inner_tol(config)

    def sides():
        chained = predict_theta1_chained(A, z, tau, tol_in)
        return predict_theta1(A, z, tau, tol_in), chained

    word = str(decompose_gamma(A))
    return {"matrix": A, "z": z, "tau": tau, "word": word}, sides, 1.0


# Suites in report order.
SUITES: dict[str, Writer] = {
    "lemma1": _each(partial(_translation_lemma, False)),
    "lemma2": _each(partial(_branch_lemma, Letter("S"), ("d>0", "d<0"))),
    "lemma3": _each(partial(_translation_lemma, True)),
    "lemma4": _each(partial(_branch_lemma, Letter("S2"), ("c+2d>0", "c+2d<0"))),
    "lemma5": _trials(_lemma5),
    "eq1": _each(partial(_eq, True)),
    "eq2": _each(partial(_eq, False)),
    "theorem1": _each(partial(_law, ThetaKind.THETA1)),
    "theorem2-theta2": _each(partial(_law, ThetaKind.THETA2)),
    "theorem2-theta3": _each(partial(_law, ThetaKind.THETA3)),
    "theorem2-theta4": _each(partial(_law, ThetaKind.THETA4)),
    "reciprocity": _write_reciprocity,
    "closed-form-epsilon": _each(_closed_form),
    "chain-vs-direct": _each(_chain_vs_direct),
    "parity-mod4": _each(_parity_mod4),
}


@dataclass
class SuiteSummary:
    """A suite's counts, and its largest residual / (tol * kappa) (a trial passes
    iff it is below 1) with that trial; None for an exact suite."""

    name: str
    total: int = 0
    passed: int = 0
    inconclusive: int = 0
    worst_ratio: float | None = None
    worst_trial: int | None = None

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def add(self, tol: float, trial: int, residual, passed, kappa, inconclusive) -> None:
        """Count a record's fields into the totals, inconclusives or margin."""
        self.total += 1
        self.passed += passed
        if inconclusive:
            self.inconclusive += 1
        elif isinstance(residual, float):
            limit = tol * kappa  # 0 only if it underflowed; the trial failed
            ratio = residual / limit if limit else math.inf
            worst = self.worst_ratio
            if worst is None or ratio > worst or math.isnan(ratio):
                self.worst_ratio, self.worst_trial = ratio, trial


def overall_pass(summaries: list[SuiteSummary]) -> bool:
    """True iff every suite fully passed."""
    return all(s.ok for s in summaries)


# _text's table, keyed by exact type: the JSON text of each type a report
# holds.  rational_str is looked up at call time, so a hook on it sees calls.
_TEXTS = {
    str: encode_basestring_ascii,
    int: repr,
    float: lambda v: repr(v) if math.isfinite(v) else f'"{v!r}"',
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
    complex: lambda v: f"[{_text(v.real)}, {_text(v.imag)}]",
    Fraction: lambda v: f'"{rational_str(v)}"',
    UnitPhase: lambda v: f'"{v}"',
    Sl2Matrix: "[[%d, %d], [%d, %d]]".__mod__,
    list: lambda v: f"[{', '.join(map(_text, v))}]",
    dict: lambda v: "{%s}" % ", ".join(f"{_text(k)}: {_text(v[k])}" for k in sorted(v)),
}


def _text(v) -> str:
    return _TEXTS[type(v)](v)  # a KeyError names a type no record holds


def _line(rec: VerificationRecord) -> str:
    """rec's report line, newline included, keys sorted at every level: the
    JSON encoder's text of the record, the "inconclusive" key only if true."""
    t = _text
    flag = '"inconclusive": true, ' if rec.inconclusive else ""
    return (
        f'{{"expected": {t(rec.expected)}, {flag}"inputs": {t(rec.inputs)}, '
        f'"kappa": {t(rec.kappa)}, "observed": {t(rec.observed)}, '
        f'"pass": {t(rec.passed)}, "residual": {t(rec.residual)}, '
        f'"suite": {t(rec.suite)}, "trial": {t(rec.trial)}}}\n'
    )


# A value's slot in a compiled line: the %-format of its parts (numbers, a
# UnitPhase's str), else a %s of its _text.  A float's %r is its text while finite.
_SLOTS = {int: "%d", float: "%r", UnitPhase: '"%s"', complex: "[%r, %r]",
          Sl2Matrix: "[[%d, %d], [%d, %d]]"}


def _template(name: str, t: int, fields: tuple) -> tuple[str, Callable]:
    """The %-template of the shape of VerificationRecord(name, t, *fields), the
    _line of that record with each value a marker then replaced by its slot;
    and the getter that puts (t, expected, observed, residual, kappa,
    *inputs.values()) in the order of their slots."""
    inputs, expected, observed, residual, passed, kappa, _ = fields
    values = (t, expected, observed, residual, kappa, *inputs.values())
    marks = [f"<{i}>" for i in range(len(values))]
    proto = VerificationRecord(
        name, marks[0], dict(zip(inputs, marks[5:])), *marks[1:4], passed, marks[4]
    )
    line = _line(proto).replace("%", "%%")
    order = sorted(range(len(values)), key=lambda i: line.index(f'"{marks[i]}"'))
    for i in order:
        line = line.replace(f'"{marks[i]}"', _SLOTS.get(type(values[i]), "%s"))
    return line, itemgetter(*order)


def _compiled_line(name: str, t: int, fields: tuple, shapes: dict) -> str:
    """_line(VerificationRecord(name, t, *fields)) without the record: one %
    of its shape's template, compiled into shapes when first seen.  An
    inconclusive record, and a line that shows inf or nan (a non-finite
    float's %r), go back to _line."""
    inputs, expected, observed, residual, passed, kappa, inconclusive = fields
    if not inconclusive:
        values = (t, expected, observed, residual, kappa, *inputs.values())
        key = (passed, *inputs, *map(type, values))
        shape = shapes.get(key) or shapes.setdefault(key, _template(name, t, fields))
        parts = []
        for v in shape[1](values):  # each value's parts, as _SLOTS takes them
            kind = type(v)
            if kind is complex:
                parts += v.real, v.imag
            elif kind is Sl2Matrix:
                parts += v
            else:
                parts.append(v if kind in _SLOTS else _text(v))
        line = shape[0] % tuple(parts)
        if "inf" not in line and "nan" not in line:
            return line
    return _line(VerificationRecord(name, t, *fields))


def _write_suite(name: str, config: TrialConfig, fp: TextIO) -> SuiteSummary:
    """Write one suite's lines as its trials are decided; return its summary."""
    return SUITES[name](name, config, fp)


def run_suite(name: str, config: TrialConfig) -> list[VerificationRecord]:
    """Run one suite's writer and read its lines back: a record per trial in
    trial order, holding the report's values ([re, im], "p/q", [[a, b],
    [c, d]], "inf"); deterministic given the config (seed included)."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    buf = io.StringIO()
    _write_suite(name, config, buf)
    fields = itemgetter(
        "suite", "trial", "inputs", "expected", "observed", "residual", "pass", "kappa"
    )
    return [
        VerificationRecord(*fields(r), r.get("inconclusive", False))
        for r in map(json.loads, buf.getvalue().splitlines())
    ]


def _fork_tail() -> bool:
    """True where os.fork exists, this process may run on 2 or more CPUs and
    it has no other thread (a forked child would hold a copy of this one only)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    return hasattr(os, "fork") and threading.active_count() == 1 and cpus >= 2


def _write_tail(tail: list[str], config: TrialConfig, spool: TextIO, sink) -> NoReturn:
    """The forked child: write tail's suites to spool, send through sink the
    pickle of their summaries, or of the exception that stopped them, and
    leave by os._exit, with status 0 once it is sent.  Never touches fp."""
    import pickle  # loaded by _write_split already

    try:
        try:
            with spool:  # closing flushes the lines of a suite that raised too
                result = [_write_suite(name, config, spool) for name in tail]
        except BaseException as err:  # the parent raises it after its head
            result = err
        sink.write(pickle.dumps(result))
        sink.close()
        os._exit(0)
    finally:
        os._exit(1)


def _write_split(
    head: list[str], tail: list[str], config: TrialConfig, fp: TextIO
) -> list[SuiteSummary]:
    """Write head's suites to fp while a forked child writes tail's to an
    unlinked spool; then copy the spool to fp in 64 KiB chunks and return the
    summaries in suite order, or raise what stopped the child.  An error in
    the head kills and reaps the child before it propagates."""
    import pickle  # here, not at the top: every subcommand imports this module
    import signal

    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        rfd, wfd = os.pipe()
        with open(rfd, "rb") as pipe, open(wfd, "wb") as sink:
            pid = os.fork()
            if pid == 0:
                _write_tail(tail, config, spool, sink)
            sink.close()
            try:
                summaries = [_write_suite(name, config, fp) for name in head]
                data, status = pipe.read(), os.waitpid(pid, 0)[1]
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
        spool.seek(0)
        shutil.copyfileobj(spool, fp, 1 << 16)
    result = pickle.loads(data) if status == 0 and data else None
    if isinstance(result, BaseException):
        raise result
    if not isinstance(result, list) or [s.name for s in result] != tail:
        raise RuntimeError(f"the child writing {tail} stopped early, status {status}")
    return summaries + result


def write_report(fp: TextIO, config: TrialConfig) -> list[SuiteSummary]:
    """Run the configured suites (all of them by default) in order and write
    their JSON Lines report, a line per trial and a summary line.  Where
    :func:`_fork_tail` allows, a forked child writes the suites from
    reciprocity on (:func:`_write_split`), with the bytes of a run in place.
    A suite that raises (a DomainError from a corpus matrix out of its
    domain) stops the report there, with no summary line.
    """
    names = list(config.suites or SUITES)
    cut = names.index("reciprocity") if "reciprocity" in names else len(names)
    if 0 < cut < len(names) and _fork_tail():
        summaries = _write_split(names[:cut], names[cut:], config, fp)
    else:
        summaries = [_write_suite(name, config, fp) for name in names]
    counts = {s.name: {k: v for k, v in vars(s).items() if k != "name"} for s in summaries}
    fp.write(_text({"summary": counts, "pass": overall_pass(summaries)}) + "\n")
    return summaries


def load_corpus(path: str) -> tuple[Sl2Matrix, ...]:
    """Matrices from a file, one [[a,b],[c,d]] per line (blank/# skipped)."""
    matrices = []
    with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 has a line
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                matrices.append(Sl2Matrix.from_lists(json.loads(line)))
            except (ValueError, TypeError) as err:  # DomainError included
                raise DomainError(f"corpus {path} line {lineno}: {err}") from None
    if not matrices:
        raise DomainError(f"corpus {path} contains no matrices")
    return tuple(matrices)
