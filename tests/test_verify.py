"""Harness determinism, record schema, corpus ingestion, and the CLI."""

import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import thetamod
import thetamod.cli
import thetamod.dedekind
import thetamod.multipliers
import thetamod.verify
from thetamod.cli import _build_parser, _parse_complex, main
from thetamod.dedekind import reciprocity_defect
from thetamod.errors import DomainError, int_text
from thetamod.exact import UnitPhase, rational_str
from thetamod.modgroup import (
    IDENTITY,
    S,
    Sl2Matrix,
    normalize_sign,
    shear,
    translation,
)
from thetamod.series import DEFAULT_TOL
from thetamod.verify import (
    RECIPROCITY_BOUND,
    SUITES,
    TrialConfig,
    VerificationRecord,
    load_corpus,
    overall_pass,
    run_suite,
    write_report,
)

SMALL = TrialConfig(seed=7, trials=8, tol=1e-9)

# The suites whose records say "residual": "exact", in report order, and the
# sha256 of those records (one JSON line each, newline-terminated) as
# `thetamod verify --seed 7` writes them: 25,064 lines.
EXACT_SUITES = (
    "lemma1",
    "lemma2",
    "lemma3",
    "lemma4",
    "lemma5",
    "reciprocity",
    "closed-form-epsilon",
    "parity-mod4",
)
EXACT_RECORDS_SEED7_SHA256 = (
    "c72615fab196dffb8f3ea9f4a1e861b9c80a65f17da755d9309ae78258a8fb71"
)


def _render(config):
    buf = io.StringIO()
    write_report(buf, config)
    return buf.getvalue()


# The reference encoder: a record as the dict the json module encodes, keys
# sorted, each value by its type.  verify writes its lines without it.
def _encode_float(v: float):
    return v if math.isfinite(v) else str(v)


_ENCODERS = {
    float: _encode_float,
    complex: lambda v: [_encode_float(v.real), _encode_float(v.imag)],
    Fraction: rational_str,
    UnitPhase: str,
    Sl2Matrix: Sl2Matrix.to_lists,
}


def _encode(v):
    encoder = _ENCODERS.get(type(v))
    return v if encoder is None else encoder(v)


def to_json_dict(rec: VerificationRecord) -> dict:
    out = {
        "suite": rec.suite,
        "trial": rec.trial,
        "inputs": {k: _encode(v) for k, v in rec.inputs.items()},
        "expected": _encode(rec.expected),
        "observed": _encode(rec.observed),
        "residual": _encode(rec.residual),
        "pass": rec.passed,
        "kappa": _encode(rec.kappa),
    }
    if rec.inconclusive:
        out["inconclusive"] = True
    return out


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _reference_line(rec: VerificationRecord) -> str:
    return _RECORD_ENCODER.encode(to_json_dict(rec)) + "\n"


def test_determinism_byte_identical():
    a = _render(TrialConfig(seed=7, trials=5, suites=("lemma1", "eq2", "theorem1")))
    b = _render(TrialConfig(seed=7, trials=5, suites=("lemma1", "eq2", "theorem1")))
    assert a == b
    c = _render(TrialConfig(seed=8, trials=5, suites=("lemma1", "eq2", "theorem1")))
    assert a != c


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("nope", SMALL)
    with pytest.raises(DomainError):
        TrialConfig(suites=("lemma1", "bogus"))


def test_config_validation():
    with pytest.raises(DomainError):
        TrialConfig(trials=0)
    with pytest.raises(DomainError):
        TrialConfig(tol=0)
    with pytest.raises(DomainError):
        TrialConfig(tol=float("nan"))
    # an infinite tol would stop every series after about one term and pass
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        TrialConfig(tol=float("inf"))
    # each field is checked when the config is made, not later as a raw
    # ZeroDivisionError (empty corpus), AttributeError (plain tuples) or
    # TypeError (a float count of trials) inside write_report
    for trials in (2.5, math.nan, True, 0.0):
        with pytest.raises(DomainError, match="^trials must be an int >= 1"):
            TrialConfig(trials=trials)
    for corpus in ((), [(2, 1, 1, 1)], (Sl2Matrix(2, 1, 1, 1), (1, 0, 0, 1)), "S"):
        with pytest.raises(DomainError, match="^corpus must be None or a non-empty"):
            TrialConfig(corpus=corpus)
    # a tol that is no number was a raw TypeError from the comparison, and
    # True passed as 1; a seed "7" wrote the report of seed 7
    for tol in ("1e-9", None, True, 1e-9j):
        with pytest.raises(DomainError, match="^tol must be positive and finite"):
            TrialConfig(tol=tol)
    for seed in (None, "7", True, 7.0):
        with pytest.raises(DomainError, match="^seed must be an int"):
            TrialConfig(seed=seed)
    # None and 7 were a raw TypeError, a list in the list was unhashable, and
    # a bare str was split into letters, each refused as an unknown suite
    for suites in (None, 7, [["lemma1"]], "lemma1"):
        with pytest.raises(DomainError, match="^suites must be a sequence of suite names"):
            TrialConfig(suites=suites)
    assert TrialConfig(suites=["lemma1", "eq2", "lemma1"]).suites == ("lemma1", "eq2")
    assert TrialConfig(seed=-7, tol=1).tol == 1
    assert main(["verify", "--suite", "eq2", "--trials", "3", "--tol", "inf"]) == 2


def test_a_tol_no_float_holds_is_refused_by_name():
    # no float holds these: the numeric suites' tol * 1e-3 was a raw
    # OverflowError for the positive ones; one too long to print is named
    # by its size
    for tol in (10**400, -(10**400), Fraction(10**400), 10**308 * 10, 10**5000):
        with pytest.raises(DomainError, match="^tol must be positive and finite, got") as err:
            TrialConfig(tol=tol)
        assert str(err.value).endswith(f"got {int_text(tol)}"), tol
    assert "<int of about 5001 digits>" in int_text(10**5000)
    # one too small to leave a float, and too long to print, was a raw ValueError
    with pytest.raises(DomainError, match="^tol <Fraction too long to print> is too small"):
        TrialConfig(tol=Fraction(1, 10**5000))
    assert TrialConfig(tol=10**308).tol == 10**308
    assert TrialConfig(tol=Fraction(1, 10**9)).tol == Fraction(1, 10**9)


def test_a_seed_too_long_to_print_is_refused_by_name():
    # it was accepted, and write_report then raised a raw ValueError from
    # printing it into the name of a trial's stream
    with pytest.raises(DomainError, match="^seed must be an int that prints, not <int of"):
        TrialConfig(seed=10**5000)
    assert TrialConfig(seed=-(10**4000)).seed == -(10**4000)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_small(name):
    config = TrialConfig(seed=3, trials=6, suites=(name,))
    records = run_suite(name, config)
    assert records
    assert all(r.passed for r in records), [r for r in records if not r.passed][:3]


def test_record_schema():
    records = run_suite("theorem1", TrialConfig(seed=1, trials=3))
    rec = to_json_dict(records[0])
    assert set(rec) >= {
        "suite",
        "trial",
        "inputs",
        "expected",
        "observed",
        "residual",
        "pass",
        "kappa",
    }
    # complex values serialize as [re, im]; matrices as [[a,b],[c,d]]
    assert isinstance(rec["expected"], list) and len(rec["expected"]) == 2
    m = rec["inputs"]["matrix"]
    assert isinstance(m, list) and len(m) == 2 and len(m[0]) == 2
    # enough inputs to replay the trial standalone
    assert {"matrix", "z", "tau"} <= set(rec["inputs"])


def test_exact_records_say_exact():
    records = run_suite("lemma1", TrialConfig(seed=1, trials=3))
    assert all(to_json_dict(r)["residual"] == "exact" for r in records)


def test_exact_records_pinned_seed7():
    lines = _render(TrialConfig(seed=7, suites=EXACT_SUITES)).splitlines()
    exact = [line for line in lines if '"residual": "exact"' in line]
    assert len(exact) == 25064
    digest = hashlib.sha256("".join(f"{line}\n" for line in exact).encode())
    assert digest.hexdigest() == EXACT_RECORDS_SEED7_SHA256


def _corrupt_direct_total(monkeypatch, h=3, k=7):
    """Add 1 to T(h, k) in the walk's row for k (on top of any earlier
    corruption); return the pairs that read it, {k, j} with j = h mod k, in
    either order.  Each one's defect becomes 1/k^2: 1/49 for T(3, 7)."""
    direct_row = thetamod.dedekind._direct_row

    def corrupt(n):
        row = direct_row(n)
        if n == k:
            row[h] += 1
        return row

    monkeypatch.setattr(thetamod.dedekind, "_direct_row", corrupt)
    return {(j, k) for j in range(h, 201, k)} | {(k, j) for j in range(h, 201, k)}


def _hand_built_records():
    """Records no seeded run makes, for the line writer's edge cases."""
    inf, nan = math.inf, math.nan
    n = 2**70
    huge = Sl2Matrix(-n, n + 1, n - 1, -n)
    message = 'series "out of reach" at C:\\tmp\nnext line, \u03c4 = \u221e'
    sides = [
        (complex(nan, inf), complex(-inf, 0.5)),
        (complex(1.5, inf), complex(-0.0, 5e-324)),
        (Fraction(-7, 12), Fraction(0)),
        ([0, 1], [2**64, -(2**65)]),
        (None, None),
    ]
    sides += [(UnitPhase._of(k), UnitPhase._of(-k)) for k in range(24)]
    residuals = [nan, inf, -inf, -0.0, 5e-324, 2.5e-308, "exact", 0.0]
    inputs = {"matrix": huge, "z": complex(-0.0, nan), "m": -(2**80), "word": "S T^-2"}
    records = [
        VerificationRecord(
            "hand",
            t,
            inputs,
            expected,
            observed,
            residuals[t % len(residuals)],
            t % 2 == 0,
            kappa=[1.0, inf, 5e-324, -0.0][t % 4],
        )
        for t, (expected, observed) in enumerate(sides)
    ]
    inputs = {"matrix": IDENTITY, "error": message}
    args = ("hand", len(sides), inputs, None, None, inf, False)
    records.append(VerificationRecord(*args, inconclusive=True))
    return records


def test_report_lines_equal_the_encoder(monkeypatch):
    # _line writes every hand-built record as the reference encoder does, and
    # the report lines it writes, an inconclusive trial's and a nonzero
    # reciprocity defect's, are the reference encoder's text of their records
    hand = _hand_built_records()
    for rec in hand:
        assert thetamod.verify._line(rec) == _reference_line(rec)
    assert '"inconclusive": true' in thetamod.verify._line(hand[-1])
    corpus = (Sl2Matrix(1, 0, 10**6, 1),)  # out of the series' reach
    stuck = TrialConfig(trials=1, corpus=corpus, suites=("theorem1",))
    line, _ = _render(stuck).splitlines(keepends=True)
    rec = json.loads(line)
    args = ("theorem1", 0, rec["inputs"], None, None, math.inf, False)
    assert line == _reference_line(VerificationRecord(*args, inconclusive=True))
    _corrupt_direct_total(monkeypatch)
    *lines, _ = _render(TrialConfig(suites=("reciprocity",))).splitlines(keepends=True)
    failing = [line for line in lines if '"pass": false' in line]
    assert len(failing) == 58
    for line in failing:
        rec = json.loads(line)
        args = ("reciprocity", rec["trial"], rec["inputs"], Fraction(0), Fraction(1, 49))
        assert line == _reference_line(VerificationRecord(*args, "exact", False))


@pytest.mark.parametrize("seed", [1, 7])
def test_every_suites_lines_are_the_reference_encoders(seed):
    # every line of the report, the summary's too, is the json module's text
    # of its parse
    lines = _render(TrialConfig(seed=seed)).splitlines()
    assert len(lines) == 25865
    for line in lines:
        assert line == _RECORD_ENCODER.encode(json.loads(line))


def _finite_hand_built_records():
    """Records of finite values only, in shapes no seeded run makes, each
    shape passing and failing."""
    n = 2**70
    huge = Sl2Matrix(-n, n + 1, n - 1, -n)
    sides = [
        (complex(-0.0, 5e-324), complex(1e308, -2.5e-308)),
        (Fraction(-7, 12), Fraction(2**80, 3)),
        ([0, 1], [2**64, -(2**65)]),
        (UnitPhase._of(5), UnitPhase._of(-5)),
    ]
    inputs = {
        "matrix": huge,
        "z": complex(-0.0, 5e-324),
        "m": -(2**80),
        "word": 'S T^-2 "100%" \\ \u03c4',
        "50%": True,
    }
    residuals, kappas = [-0.0, 5e-324, "exact"], [5e-324, -0.0, 1e308]
    return [
        VerificationRecord(
            "hand %d",
            t,
            inputs,
            expected,
            observed,
            residuals[t % 3],
            passed,
            kappa=kappas[t % 3],
        )
        for t, (expected, observed) in enumerate(sides)
        for passed in (True, False)
    ]


def _compiled(rec, shapes):
    """rec's line from verify's compiled writer, given rec's fields."""
    fields = tuple(vars(rec).values())[2:]  # inputs, expected, ..., inconclusive
    return thetamod.verify._compiled_line(rec.suite, rec.trial, fields, shapes)


def test_compiled_lines_of_hand_built_records(monkeypatch):
    # a record holding a non-finite float, and an inconclusive one, go back to
    # _line; a finite one is one % of its shape's template, -0.0, a subnormal,
    # entries beyond 2^64 and a % in a key, a value or the suite name included
    written = []
    line = thetamod.verify._line
    monkeypatch.setattr(thetamod.verify, "_line", lambda r: written.append(r) or line(r))
    for rec in _hand_built_records():  # each holds a NaN, or is inconclusive
        assert _compiled(rec, {}) == _reference_line(rec)
        assert written[-1] == rec
    shapes, written[:] = {}, []
    for rec in _finite_hand_built_records() * 2:
        assert _compiled(rec, shapes) == _reference_line(rec)
    assert len(shapes) == len(written) == 8
    assert all(isinstance(r.trial, str) for r in written)  # marker records only
    # a str showing "inf" sends a finite record back to _line, at a cost in time only
    rec = _finite_hand_built_records()[0]
    rec.inputs["word"] = "infinite"
    assert _compiled(rec, shapes) == _reference_line(rec)
    assert written[-1] == rec


def test_finite_records_take_the_template_path(monkeypatch):
    # _line writes one marker record per shape (and the reciprocity row
    # template's), never a seeded record of the report
    written, compiled = [], []
    line, template = thetamod.verify._line, thetamod.verify._template
    monkeypatch.setattr(thetamod.verify, "_line", lambda r: written.append(r) or line(r))
    monkeypatch.setattr(
        thetamod.verify, "_template", lambda *args: compiled.append(args) or template(*args)
    )
    monkeypatch.setattr(thetamod.verify, "_fork_tail", lambda: False)  # one process
    report = _render(TrialConfig(seed=7))
    assert report.count("\n") == 25865
    assert len(written) == len(compiled) + 1 <= 20
    assert all(isinstance(r.trial, str) for r in written)  # marker records only


def test_reciprocity_builds_a_record_only_for_a_nonzero_defect(monkeypatch):
    # _line writes the row template's marker record, then one record per
    # nonzero defect
    built = []
    line = thetamod.verify._line
    monkeypatch.setattr(thetamod.verify, "_line", lambda r: built.append(r.trial) or line(r))
    config = TrialConfig(seed=7, suites=("reciprocity",))
    write_report(io.StringIO(), config)
    assert built == ["<t>"]
    _corrupt_direct_total(monkeypatch)
    write_report(io.StringIO(), config)
    assert built[1] == "<t>" and len(built) == 2 + 58
    assert all(type(t) is int for t in built[2:])


def test_inconclusive_record_is_strict_json(tmp_path):
    # c = 10^6 puts the left-hand side out of the series' reach
    corpus = tmp_path / "c.txt"
    corpus.write_text("[[1,0],[1000000,1]]\n")
    out = tmp_path / "r.jsonl"
    argv = ["verify", "--suite", "theorem1", "--corpus", str(corpus), "--out", str(out)]
    assert main(argv) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    lines = out.read_text().splitlines()
    rec, summary = [json.loads(line, parse_constant=reject) for line in lines]
    assert rec["inconclusive"] is True
    assert rec["pass"] is False
    assert rec["residual"] == "inf"
    assert "cannot certify" in rec["inputs"]["error"]
    assert summary["pass"] is False


def test_theorem1_huge_matrix_is_inconclusive(tmp_path):
    # A tau stays in the upper half-plane, so the trial is recorded, not aborted
    corpus = tmp_path / "c.txt"
    corpus.write_text(
        "[[289934904595382591,13857245154460719],"
        "[394508053350743109,18855248968107092]]\n"
    )
    out = tmp_path / "r.jsonl"
    argv = ["verify", "--suite", "theorem1", "--corpus", str(corpus), "--out", str(out)]
    assert main(argv) == 1
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["inconclusive"] is True
    assert "cannot certify" in rec["inputs"]["error"]


def test_summary_counts_huge_matrix_as_inconclusive(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text(
        "[[289934904595382591,13857245154460719],"
        "[394508053350743109,18855248968107092]]\n[[2,1],[1,1]]\n"
    )
    summaries = write_report(
        io.StringIO(),
        TrialConfig(trials=2, suites=("theorem1",), corpus=load_corpus(str(corpus))),
    )
    (summary,) = summaries
    assert (summary.total, summary.passed, summary.inconclusive) == (2, 1, 1)
    # the margin comes from the conclusive trial only
    assert summary.worst_trial == 1
    out = tmp_path / "r.jsonl"
    argv = ["verify", "--suite", "theorem1", "--corpus", str(corpus), "--out", str(out)]
    assert main(argv) == 1
    line = json.loads(out.read_text().splitlines()[-1])
    assert line["summary"]["theorem1"]["inconclusive"] == 1
    assert line["summary"]["theorem1"]["worst_trial"] == 1
    assert "theorem1: 1/2 FAIL, 1 inconclusive, worst" in capsys.readouterr().err


def test_summary_margin_matches_records():
    config = TrialConfig(seed=7, trials=20, suites=("lemma1", "eq2", "theorem1"))
    records = [r for name in config.suites for r in run_suite(name, config)]
    summaries = write_report(io.StringIO(), config)  # folded from its own run
    for s in summaries:
        recs = [r for r in records if r.suite == s.name]
        assert s.inconclusive == sum(r.inconclusive for r in recs) == 0
        if s.name == "lemma1":
            assert s.worst_ratio is None and s.worst_trial is None
            continue
        ratios = [r.residual / (config.tol * r.kappa) for r in recs]
        assert s.worst_ratio == max(ratios) < 1
        assert s.worst_trial == ratios.index(max(ratios))
    line = json.loads(_render(config).splitlines()[-1])
    eq2 = summaries[1]
    assert line["summary"]["eq2"] == {
        "inconclusive": 0,
        "passed": eq2.passed,
        "total": eq2.total,
        "worst_ratio": eq2.worst_ratio,
        "worst_trial": eq2.worst_trial,
    }
    assert line["summary"]["lemma1"]["worst_ratio"] is None


def test_wrong_closed_form_fails_verify(monkeypatch, tmp_path):
    # closed-form-epsilon is a contract: a mismatch fails the exit code
    def wrong(A):
        return thetamod.multipliers.theta1_epsilon_closed(A) * thetamod.UnitPhase(1)

    out = tmp_path / "r.jsonl"
    argv = ["verify", "--suite", "closed-form-epsilon", "--out", str(out)]
    assert main(argv) == 0
    monkeypatch.setattr(thetamod.verify, "theta1_epsilon_closed", wrong)
    assert main(argv) == 1
    assert json.loads(out.read_text().splitlines()[-1])["pass"] is False


def test_cli_defaults_are_defined_once():
    parser = _build_parser()
    args, config = parser.parse_args(["verify"]), TrialConfig()
    assert (args.trials, args.seed, args.tol) == (config.trials, config.seed, config.tol)
    assert parser.parse_args(["eval", "theta1", "0", "1i"]).tol == DEFAULT_TOL


def test_public_api_leaves_out_the_oracles():
    assert len(thetamod.__all__) <= 26
    for name in (
        "automorphy_sqrt",
        "conditioning_factor",
        "gamma2_prefactor",
        "half_period_shift",
        "law_phase",
        "lemma_sides",
        "predict_theta1_chained",
        "reciprocity_defect",
        "theta1_epsilon_induction",
        "theta1_sine_series",
    ):
        assert name not in thetamod.__all__
    assert all(hasattr(thetamod, name) for name in thetamod.__all__)


def _word_matrix_by_products(rng, max_entries, gamma2):
    """The reference for verify._word_matrix: the same draws, one
    Sl2Matrix product per letter."""
    M = IDENTITY
    last = None
    for _ in range(rng.randint(1, 12)):
        exp = rng.randint(1, thetamod.verify.ENTRY_BOUND) * rng.choice((-1, 1))
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


@pytest.mark.parametrize("gamma2", [False, True])
@pytest.mark.parametrize("max_entries", [20, 1500])
def test_word_matrix_on_four_ints_is_the_product_walk(gamma2, max_entries):
    # same matrix and the same draws, in the same order: the stream is left
    # where the product walk leaves it, so every later draw is unchanged
    for i in range(5000):
        seed = f"{gamma2}:{max_entries}:{i}"
        fast, slow = random.Random(seed), random.Random(seed)
        A = thetamod.verify._word_matrix(fast, max_entries, gamma2)
        assert type(A) is Sl2Matrix
        assert A == _word_matrix_by_products(slow, max_entries, gamma2), seed
        assert fast.getstate() == slow.getstate(), seed


def test_lemma2_covers_both_branches():
    records = run_suite("lemma2", TrialConfig(seed=2, trials=10))
    branches = {r.inputs["branch"] for r in records}
    assert branches == {"d>0", "d<0"}


def test_lemma4_covers_both_branches():
    records = run_suite("lemma4", TrialConfig(seed=2, trials=10))
    branches = {r.inputs["branch"] for r in records}
    assert branches == {"c+2d>0", "c+2d<0"}


def test_summary_and_overall_pass():
    summaries = write_report(
        io.StringIO(),
        TrialConfig(seed=4, trials=4, suites=("lemma1", "closed-form-epsilon")),
    )
    assert overall_pass(summaries)


def test_report_json_lines(tmp_path):
    config = TrialConfig(seed=5, trials=3, suites=("lemma1",))
    text = _render(config)
    lines = text.strip().split("\n")
    assert len(lines) == 4  # 3 records + summary
    for line in lines[:-1]:
        rec = json.loads(line)
        assert rec["suite"] == "lemma1"
    summary = json.loads(lines[-1])
    assert summary["pass"] is True


def test_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("[[2,1],[1,1]]\n# comment\n\n[[1,0],[1,1]]\n")
    corpus = load_corpus(str(path))
    assert corpus == (Sl2Matrix(2, 1, 1, 1), Sl2Matrix(1, 0, 1, 1))
    config = TrialConfig(seed=1, trials=2, suites=("lemma1",), corpus=corpus)
    records = run_suite("lemma1", config)
    assert [r.inputs["matrix"] for r in records] == [M.to_lists() for M in corpus]
    assert all(r.passed for r in records)


def test_cli_verify_huge_corpus(tmp_path, huge_matrices):
    corpus = tmp_path / "c.txt"
    corpus.write_text("".join(f"{A}\n" for A in huge_matrices))
    out = tmp_path / "r.jsonl"
    argv = ["verify", "--corpus", str(corpus), "--out", str(out)]
    for suite in ("lemma1", "lemma2", "closed-form-epsilon"):
        argv += ["--suite", suite]
    assert main(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()[:-1]]
    assert len(records) == 3 * len(huge_matrices)
    assert all(r["pass"] for r in records)


def test_corpus_gamma2_mismatch(tmp_path):
    config = TrialConfig(
        seed=1, trials=1, corpus=(Sl2Matrix(2, 1, 1, 1),), suites=("lemma3",)
    )
    with pytest.raises(DomainError):
        run_suite("lemma3", config)


# --- CLI ------------------------------------------------------------------


def test_cli_dedekind(capsys):
    assert main(["dedekind", "1", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1/18"


def test_cli_dedekind_huge_k(capsys):
    k = 2**127 - 1
    assert main(["dedekind", "1", str(k)]) == 0
    assert capsys.readouterr().out.strip() == str(Fraction((k - 1) * (k - 2), 12 * k))


def test_cli_dedekind_bad_input(capsys):
    assert main(["dedekind", "2", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_multiplier(capsys):
    assert main(["multiplier", "[[0,-1],[1,0]]"]) == 0
    out = capsys.readouterr().out
    assert "theta1 epsilon phase: 3/2" in out


def test_cli_multiplier_gamma2(capsys):
    assert main(["multiplier", "[[1,0],[2,1]]"]) == 0
    out = capsys.readouterr().out
    assert "alpha(theta3) phase:  1/2" in out


_MULTIPLIER_LINES = {
    "[[0,-1],[1,0]]": [
        "eta epsilon phase:    0/1  (1+0i)",
        "theta1 epsilon phase: 3/2  (-1.83697019872e-16-1i)",
        "closed form phase:    3/2  (agrees)",
        "not congruent to the identity mod 2: no level-2 alpha factors",
    ],
    "[[1,0],[2,1]]": [
        "eta epsilon phase:    1/12  (0.965925826289+0.258819045103i)",
        "theta1 epsilon phase: 7/4  (0.707106781187-0.707106781187i)",
        "closed form phase:    7/4  (agrees)",
        "alpha(theta2) phase:  1/2  (6.12323399574e-17+1i)",
        "alpha(theta3) phase:  1/2  (6.12323399574e-17+1i)",
        "alpha(theta4) phase:  0/1  (1+0i)",
    ],
    "[[3,2],[4,3]]": [
        "eta epsilon phase:    1/4  (0.707106781187+0.707106781187i)",
        "theta1 epsilon phase: 1/4  (0.707106781187+0.707106781187i)",
        "closed form phase:    1/4  (agrees)",
        "alpha(theta2) phase:  0/1  (1+0i)",
        "alpha(theta3) phase:  1/2  (6.12323399574e-17+1i)",
        "alpha(theta4) phase:  3/2  (-1.83697019872e-16-1i)",
    ],
    "[[1056113946650232179,771899484960074878],"
    "[362239472736906304,264755960589951547]]": [
        "eta epsilon phase:    5/4  (-0.707106781187-0.707106781187i)",
        "theta1 epsilon phase: 5/4  (-0.707106781187-0.707106781187i)",
        "closed form phase:    5/4  (agrees)",
        "alpha(theta2) phase:  1/1  (-1+1.22464679915e-16i)",
        "alpha(theta3) phase:  1/2  (6.12323399574e-17+1i)",
        "alpha(theta4) phase:  1/2  (6.12323399574e-17+1i)",
    ],
}


def test_cli_multiplier_output_is_pinned(capsys, huge_matrices):
    # the "p/q" text and the printed complex value of every phase, byte for
    # byte: S, S2, a level-2 matrix and the first huge matrix
    assert str(huge_matrices[0]) in _MULTIPLIER_LINES
    for matrix, lines in _MULTIPLIER_LINES.items():
        assert main(["multiplier", matrix]) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def test_cli_multiplier_huge_matrix(capsys, huge_matrices):
    A = max(huge_matrices, key=lambda M: M.c)
    assert main(["multiplier", str(A)]) == 0
    assert "(agrees)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "matrix, normalized, then",
    [
        ("[[-1,-3],[0,-1]]", "[[1,3],[0,1]]", "translation matrix: "),
        ("[[0,1],[-1,0]]", "[[0,-1],[1,0]]", "eta epsilon phase: "),
    ],
    ids=["minus-translation", "minus-S"],
)
def test_cli_multiplier_names_the_normalized_matrix(capsys, matrix, normalized, then):
    assert main(["multiplier", normalized]) == 0
    rest = capsys.readouterr().out
    assert rest.startswith(then)
    assert main(["multiplier", matrix]) == 0
    assert capsys.readouterr().out == f"normalized: {normalized}\n" + rest


def test_cli_multiplier_bad_matrix(capsys):
    assert main(["multiplier", "[[1,0],[0,2]]"]) == 2
    assert main(["multiplier", "nonsense"]) == 2


@pytest.mark.parametrize("matrix", ["[[1.9,0],[0,1]]", "[[true,0],[0,1]]"])
def test_cli_matrix_entries_must_be_integers(tmp_path, capsys, matrix):
    assert main(["multiplier", matrix]) == 2
    assert main(["decompose", matrix]) == 2
    corpus = tmp_path / "c.txt"
    corpus.write_text(f"{matrix}\n")
    assert main(["verify", "--suite", "lemma1", "--corpus", str(corpus)]) == 2
    assert "must be integers" in capsys.readouterr().err


def test_cli_decompose(capsys):
    assert main(["decompose", "[[2,1],[1,1]]"]) == 0
    out = capsys.readouterr().out
    assert "T^2 S T" in out
    assert main(["decompose", "--gamma2", "[[3,2],[4,3]]"]) == 0


@pytest.mark.parametrize("argv", [["[[2,1],[1,1]]"], ["--gamma2", "[[3,2],[4,3]]"]])
def test_cli_decompose_checks_its_word_without_assert(monkeypatch, capsys, argv):
    # a word that does not recompose is a failure under python -O too: an
    # error naming the matrix, exit 1, and no word printed
    monkeypatch.setattr(thetamod.cli, "recompose", lambda word: Sl2Matrix(1, 1, 0, 1))
    assert main(["decompose", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the word found for {argv[-1]} does not recompose to it\n"


def test_cli_reduce(capsys):
    assert main(["reduce", "5+1i"]) == 0
    out = capsys.readouterr().out
    assert "[[1,-5],[0,1]]" in out
    assert main(["reduce", "1-1i"]) == 2


@pytest.mark.parametrize(
    "argv", [["reduce", "0.5+1e-320i"], ["eval", "theta3", "0.1", "0.5+1e-320i"]]
)
def test_cli_reduction_beyond_the_float_range(capsys, argv):
    assert main(argv) == 2
    assert "leaves the float range" in capsys.readouterr().err


def test_cli_eval_nan_tolerance(capsys):
    assert main(["eval", "theta3", "0.1", "1i", "--tol", "nan"]) == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_cli_eval_infinite_tolerance(capsys):
    # an infinite tol would stop the series after a few terms with no bound
    assert main(["eval", "theta3", "0.1", "1i", "--tol", "inf"]) == 2
    assert "tol must be positive and finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "z, tau", [("0.1", "nan+1i"), ("nan", "1i"), ("0.1", "0.2+nani")]
)
def test_cli_eval_nonfinite_point(capsys, z, tau):
    assert main(["eval", "theta3", z, tau]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["inf+1i", "1+infi", "-inf", "nan+1i"])
def test_cli_nonfinite_complex_reaches_domain_check(capsys, tau):
    # only the imaginary-unit suffix is rewritten, so `inf` stays `inf`
    assert main(["reduce", "--", tau]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0.1+0.4i", "0.3+1e-4i", "5+1i", "1i", "0.2 - 3i"])
def test_parse_complex_finite_unchanged(text):
    assert _parse_complex(text) == complex(text.replace(" ", "").replace("i", "j"))


def test_cli_eval(capsys):
    assert main(["eval", "theta3", "0", "1i"]) == 0
    out = capsys.readouterr().out
    assert "value:" in out and "terms:" in out and "reduction:" in out


def test_cli_eval_overflow_is_an_error(capsys):
    # |theta1| is near 10^342.5 here (mpmath); eval_fast's value is not finite
    z = "0.22439049295111113+0.1935581235235162i"
    tau = "1.8586507194712882+0.00014944734396056655i"  # eval-grid seed 41, item 139
    assert main(["eval", "theta1", z, tau]) == 2
    out, err = capsys.readouterr()
    assert "value:" not in out
    assert err == (
        "error: theta1 at z = (0.22439049295111113+0.1935581235235162j),"
        " tau = (1.8586507194712882+0.00014944734396056655j)"
        " is beyond the float range (log-scale 789.793)\n"
    )
    assert main(["eval", "theta1", "0.1", "0.3+0.02i"]) == 0
    assert "value:" in capsys.readouterr().out


def test_cli_eval_where_the_prefactor_alone_overflows(capsys):
    # e^{-i pi c z^2/j} of the reduction law overflows here, but theta2 is
    # 5.98773692571796+2.42446739931865i (mpmath)
    assert main(["eval", "theta2", "0.25", "-0.49+0.0001i"]) == 0
    assert "value: 5.98773692572+2.42446739932i" in capsys.readouterr().out


def test_cli_verify_pass(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main(
        [
            "verify",
            "--suite",
            "lemma1",
            "--suite",
            "eq1",
            "--trials",
            "5",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 11
    assert json.loads(lines[-1])["pass"] is True


def test_cli_verify_deterministic(tmp_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        assert (
            main(
                [
                    "verify",
                    "--suite",
                    "lemma2",
                    "--suite",
                    "lemma5",
                    "--trials",
                    "6",
                    "--seed",
                    "7",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_verify_corpus(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("[[2,1],[1,1]]\n[[3,2],[1,1]]\n")
    out = tmp_path / "r.jsonl"
    code = main(
        [
            "verify",
            "--suite",
            "lemma1",
            "--corpus",
            str(corpus),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 3  # 2 trials + summary


def test_cli_verify_bad_corpus(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("[[1,0],[0,2]]\n")
    assert (
        main(["verify", "--suite", "lemma1", "--corpus", str(corpus)]) == 2
    )


def test_cli_verify_corpus_out_of_the_suites_domain(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("[[1,4],[0,1]]\n")  # lemma2 needs c > 0
    assert main(["verify", "--suite", "lemma2", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert "corpus matrix [[1,4],[0,1]] is out of domain for lemma2" in err


def test_cli_verify_stopped_midway_leaves_no_summary(tmp_path, capsys):
    # the matrix passes lemma1, then stops lemma3, which needs level 2
    corpus = tmp_path / "c.txt"
    corpus.write_text("[[2,1],[1,1]]\n")
    out = tmp_path / "r.jsonl"
    argv = ["verify", "--suite", "lemma1", "--suite", "lemma3", "--corpus", str(corpus)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: corpus matrix [[2,1],[1,1]] is not congruent to the identity"
        " mod 2 (required by suite lemma3)\n"
    )
    *_, last = map(json.loads, out.read_text().splitlines())
    assert "summary" not in last
    assert (last["suite"], last["pass"]) == ("lemma1", True)


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "reciprocity"],
        ["--suite", "lemma1", "--suite", "parity-mod4", "--trials", "4000"],
        # forks: the parent writes lemma1 and copies the child's spool
        [
            "--suite", "lemma1", "--suite", "reciprocity", "--suite", "parity-mod4",
            "--trials", "4000",
        ],
    ],
    ids=["reciprocity", "lemma1-parity-4000", "lemma1-reciprocity-parity-4000"],
)
def test_cli_verify_memory_does_not_hold_the_records(tmp_path, capsys, argv):
    # each record is written and dropped: the peak stays far below the
    # several MB the records of these runs take together
    tracemalloc.start()
    try:
        assert main(["verify", *argv, "--out", str(tmp_path / "r.jsonl")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_cli_verify_runs_a_repeated_suite_once(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    twice = ["--suite", "parity-mod4"] * 2
    assert main(["verify", *twice, "--trials", "2", "--out", str(out)]) == 0
    *records, summary = map(json.loads, out.read_text().splitlines())
    assert [r["trial"] for r in records] == [0, 1]
    assert summary["summary"]["parity-mod4"]["total"] == 2
    assert capsys.readouterr().err.count("parity-mod4:") == 1
    config = TrialConfig(suites=("lemma2", "lemma1", "lemma2", "lemma1"))
    assert config.suites == ("lemma2", "lemma1")


def test_cli_verify_corpus_without_matrices(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("# only a comment\n\n   \n# and another\n")
    assert main(["verify", "--suite", "lemma1", "--corpus", str(corpus)]) == 2
    assert f"corpus {corpus} contains no matrices" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [b"not json", b"[[1,2,3],[4,5]]", b"\xff\xfe"])
def test_cli_verify_unparsable_corpus_line(tmp_path, capsys, bad):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(b"# a comment\r\n[[2,1],[1,1]]\n" + bad + b"\n")
    assert main(["verify", "--suite", "lemma1", "--corpus", str(corpus)]) == 2
    assert f"corpus {corpus} line 3:" in capsys.readouterr().err


def test_cli_verify_report_to_stdout(capsys):
    assert main(["verify", "--suite", "parity-mod4", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 5  # 4 records + summary
    assert json.loads(lines[-1])["pass"] is True


def test_cli_verify_failing_suite_exits_1(tmp_path, capsys):
    # an absurdly tight tolerance makes numeric residuals fail honestly
    out = tmp_path / "r.jsonl"
    code = main(
        [
            "verify",
            "--suite",
            "eq2",
            "--trials",
            "3",
            "--tol",
            "1e-30",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    summary = json.loads(out.read_text().strip().split("\n")[-1])
    assert summary["pass"] is False


def test_cli_verify_refuses_a_tol_whose_inner_tol_underflows(tmp_path, capsys):
    # the numeric suites sum their series to tol * 1e-3, which is 0.0 below
    # about 2.47e-321: refused with the tol given, before any line
    out = tmp_path / "r.jsonl"
    argv = ["verify", "--tol", "1e-321", "--suite", "lemma1", "--suite", "eq1"]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("tol 1e-321 is too small") == 2
    assert TrialConfig(tol=1e-320).tol == 1e-320


# --- the reciprocity suite's direct-sum table ------------------------------


def _reciprocity_failures() -> set[tuple[int, int]]:
    records = run_suite("reciprocity", SMALL)
    assert len(records) == 24463
    return {(r.inputs["h"], r.inputs["k"]) for r in records if not r.passed}


def test_reciprocity_suite_does_not_use_dedekind_sum(monkeypatch):
    def boom(h, k):
        raise AssertionError("the reciprocity suite called dedekind_sum")

    monkeypatch.setattr(thetamod.dedekind, "dedekind_sum", boom)
    assert _reciprocity_failures() == set()


def test_reciprocity_corrupt_entry_fails_exactly_its_readers(monkeypatch):
    readers = _corrupt_direct_total(monkeypatch)
    config = TrialConfig(seed=7, trials=8, suites=("reciprocity",))
    records = run_suite("reciprocity", config)
    assert len(records) == 24463
    assert {(r.inputs["h"], r.inputs["k"]) for r in records if not r.passed} == readers
    # the written report says so too, line by line and in the summary
    buf = io.StringIO()
    write_report(buf, config)
    *lines, summary = map(json.loads, buf.getvalue().splitlines())
    for line in lines:
        pair = line["inputs"]["h"], line["inputs"]["k"]
        verdict = (False, "1/49") if pair in readers else (True, "0/1")
        assert (line["pass"], line["observed"]) == verdict, pair
    assert summary["pass"] is False
    assert summary["summary"]["reciprocity"]["passed"] == 24463 - len(readers)


def test_each_failing_line_shows_its_own_defect(monkeypatch):
    # records are dropped once written, so a later defect may sit at a freed
    # one's address; its text must still be its own
    by_49 = _corrupt_direct_total(monkeypatch)
    by_121 = _corrupt_direct_total(monkeypatch, 2, 11)
    assert not by_49 & by_121
    buf = io.StringIO()
    write_report(buf, TrialConfig(suites=("reciprocity",)))
    *lines, _ = map(json.loads, buf.getvalue().splitlines())
    failing = [line for line in lines if not line["pass"]]
    assert len(failing) == len(by_49) + len(by_121)
    for line in failing:
        pair = line["inputs"]["h"], line["inputs"]["k"]
        defect = Fraction(1, 49) if pair in by_49 else Fraction(1, 121)
        assert line["observed"] == rational_str(defect), pair


def test_reciprocity_table_built_once_per_run(monkeypatch, tmp_path):
    # every run of the reciprocity writer builds its table in one walk of the
    # defect rows, run_suite's and write_report's alike.  Each walk appends a
    # line to a file, so a walk in write_report's forked child is counted too.
    log = tmp_path / "walks"
    log.touch()
    walk = thetamod.dedekind._defect_rows

    def counting(bound):
        with open(log, "a") as fh:
            fh.write(f"{bound}\n")
        return walk(bound)

    def walks():
        return [int(line) for line in log.read_text().split()]

    monkeypatch.setattr(thetamod.verify, "_defect_rows", counting)
    _reciprocity_failures()
    assert walks() == [RECIPROCITY_BOUND]
    config = TrialConfig(seed=7, trials=2, suites=("lemma1", "reciprocity"))
    write_report(io.StringIO(), config)
    assert len(walks()) == 2


def test_reciprocity_table_not_built_at_import():
    # counts calls of both forms of the oracle; the walk after the imports
    # shows that the counter sees the rows the table is built from
    script = (
        "import sys\n"
        "calls = []\n"
        "def count(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in (\n"
        "        '_direct_row', '_direct_total'\n"
        "    ):\n"
        "        calls.append(1)\n"
        "sys.setprofile(count)\n"
        "import thetamod, thetamod.cli, thetamod.verify\n"
        "print(len(calls))\n"
        "list(thetamod.dedekind._defect_rows(3))\n"
        "sys.setprofile(None)\n"
        "print(len(calls))\n"
    )
    src = str(Path(thetamod.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.split() == ["0", "3"]


# --- the suite table ---------------------------------------------------------


@pytest.mark.parametrize("trials", [1, 6])
def test_suite_record_counts(trials):
    # lemma5's trial 0 is its exact anchor; reciprocity checks every coprime
    # pair whatever `trials` is; every other suite runs `trials` trials
    config = TrialConfig(seed=7, trials=trials)
    for name in SUITES:
        records = run_suite(name, config)
        want = {"lemma5": trials + 1, "reciprocity": 24463}.get(name, trials)
        assert len(records) == want, name
        assert [r.trial for r in records] == list(range(want)), name
        assert {r.suite for r in records} == {name}


def test_reciprocity_pairs_are_coprime_and_h_major():
    # each line's defect is the one the O(k) single-pair loop gives, which
    # shares no table and no lane with the row walk the suite reads
    bound = range(1, RECIPROCITY_BOUND + 1)
    pairs = [(h, k) for h in bound for k in bound if math.gcd(h, k) == 1]
    records = run_suite("reciprocity", SMALL)
    assert [(r.inputs["h"], r.inputs["k"]) for r in records] == pairs
    for r, pair in zip(records, pairs):
        assert r.observed == rational_str(reciprocity_defect(*pair)), pair


# --- values that start with "-" ----------------------------------------------


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["eval", "theta1", "-0.1+0.2i", "0.3+0.5i"], "value:"),
        (["reduce", "-0.5+1i"], "tau': -0.5+1i"),
        (["dedekind", "-1", "3"], "-1/18"),
    ],
    ids=["eval", "reduce", "dedekind"],
)
def test_cli_accepts_values_that_start_with_a_minus(capsys, argv, shown):
    assert main(argv) == 0
    assert shown in capsys.readouterr().out


def test_cli_option_like_non_number_keeps_its_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--out", "-x.jsonl"])
    assert exit_info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["-5", "-0.5"])
def test_cli_numeric_path_keeps_its_name(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "lemma1", "--trials", "1", "--out", name]) == 0
    assert (tmp_path / name).exists() and not (tmp_path / f" {name}").exists()
    (tmp_path / name).write_text("[[0,-1],[1,0]]\n", encoding="utf-8")
    assert main(["verify", "--suite", "lemma1", "--co", name, "--o", "r.jsonl"]) == 0


@pytest.mark.parametrize("option", ["--out", "--corpus"])
def test_cli_path_that_argparse_reads_as_an_option_keeps_its_error(capsys, option):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", option, "-1e3"])
    assert exit_info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# --- the report's tail, written by a forked child ---------------------------

# Counted here, not read from _fork_tail: on 2 or more CPUs a report that
# should fork and does not fails these tests.
if hasattr(os, "sched_getaffinity"):
    TWO_CPUS = len(os.sched_getaffinity(0)) >= 2
else:
    TWO_CPUS = (os.cpu_count() or 1) >= 2


def _spy_forks(monkeypatch) -> list:
    """Count os.fork calls; the forked child runs as it would unobserved."""
    forks, fork = [], os.fork

    def spy():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def _cli_report(monkeypatch, capsys, tmp_path, argv, in_place):
    """(exit code, report bytes, stderr, fork count) of one verify run."""
    with monkeypatch.context() as patch:
        if in_place:
            patch.setattr(thetamod.verify, "_fork_tail", lambda: False)
        forks = _spy_forks(patch)
        fds = _open_fds()
        out = tmp_path / f"r-{in_place}.jsonl"
        code = main(["verify", *argv, "--out", str(out)])
        assert _open_fds() == fds  # no pipe or spool left open
    _assert_no_children()
    return code, out.read_bytes(), capsys.readouterr().err, len(forks)


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "7"],
        ["--suite", "lemma1", "--suite", "reciprocity", "--trials", "5"],
        ["--suite", "reciprocity", "--suite", "lemma1", "--trials", "5"],
        ["--suite", "lemma2", "--suite", "parity-mod4", "--suite", "eq1", "--trials", "9"],
        [
            "--suite", "lemma1", "--suite", "lemma2", "--suite", "reciprocity",
            "--suite", "closed-form-epsilon", "--suite", "chain-vs-direct", "--corpus",
        ],
    ],
    ids=["all-seed7", "lemma1-reciprocity", "reciprocity-first", "no-reciprocity", "corpus"],
)
def test_forked_report_is_the_in_place_report(monkeypatch, capsys, tmp_path, argv):
    if argv[-1] == "--corpus":
        corpus = tmp_path / "c.txt"
        corpus.write_text("[[2,1],[1,1]]\n[[3,2],[1,1]]\n[[5,-3],[7,-4]]\n")
        argv = [*argv, str(corpus)]
    forked = _cli_report(monkeypatch, capsys, tmp_path, argv, in_place=False)
    in_place = _cli_report(monkeypatch, capsys, tmp_path, argv, in_place=True)
    assert forked[:3] == in_place[:3]
    assert forked[0] == 0 and in_place[3] == 0
    suites = argv[1::2] if argv[0] == "--suite" else list(SUITES)
    splits = "reciprocity" in suites[1:]
    assert forked[3] == (1 if splits and TWO_CPUS else 0)


@pytest.mark.parametrize(
    "matrix, suites, error, last_suite",
    [
        # lemma5 and reciprocity take no corpus matrix; closed-form-epsilon
        # refuses c = 0 in the tail, after both have written their lines
        (
            "[[1,4],[0,1]]",
            ("lemma5", "reciprocity", "closed-form-epsilon"),
            "corpus matrix [[1,4],[0,1]] is out of domain for closed-form-epsilon",
            "reciprocity",
        ),
        # lemma3 refuses a matrix that is not level 2 in the head
        (
            "[[2,1],[1,1]]",
            ("lemma1", "lemma3", "reciprocity"),
            "corpus matrix [[2,1],[1,1]] is not congruent to the identity mod 2"
            " (required by suite lemma3)",
            "lemma1",
        ),
    ],
    ids=["tail", "head"],
)
def test_domain_error_is_the_in_place_error(
    monkeypatch, capsys, tmp_path, matrix, suites, error, last_suite
):
    corpus = tmp_path / "c.txt"
    corpus.write_text(matrix + "\n")
    argv = [arg for name in suites for arg in ("--suite", name)]
    argv += ["--corpus", str(corpus)]
    forked = _cli_report(monkeypatch, capsys, tmp_path, argv, in_place=False)
    in_place = _cli_report(monkeypatch, capsys, tmp_path, argv, in_place=True)
    assert forked[:3] == in_place[:3]
    assert forked[3] == (1 if TWO_CPUS else 0)
    assert in_place[0] == 2 and in_place[2] == f"error: {error}\n"
    *_, last = map(json.loads, in_place[1].splitlines())
    assert last["suite"] == last_suite


class _StopsWriting(io.StringIO):
    """A report file whose first write raises error."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"), KeyboardInterrupt()])
def test_head_error_kills_and_reaps_the_child(monkeypatch, error):
    monkeypatch.setattr(thetamod.verify, "_fork_tail", lambda: True)
    forks = _spy_forks(monkeypatch)
    fds = _open_fds()
    config = TrialConfig(seed=7, trials=3, suites=("lemma1", "reciprocity"))
    with pytest.raises(type(error)):
        write_report(_StopsWriting(error), config)
    assert len(forks) == 1
    assert _open_fds() == fds
    _assert_no_children()


def _exits(code):
    def write(name, config, fp):
        os._exit(code)

    return write


def _kills_itself(name, config, fp):
    os.kill(os.getpid(), signal.SIGKILL)


def _divides_by_zero(name, config, fp):
    return 1 / 0


@pytest.mark.parametrize(
    "suite, error, match",
    [
        (_divides_by_zero, ZeroDivisionError, "division by zero"),
        (_exits(0), RuntimeError, r"'parity-mod4'\] stopped early, status 0$"),
        (_exits(3), RuntimeError, "stopped early, status 768$"),  # exit code 3
        (_kills_itself, RuntimeError, "stopped early, status 9$"),  # SIGKILL
    ],
    ids=["raises", "exits-0-unsent", "exits-3", "killed"],
)
def test_tail_failure_is_never_a_report(monkeypatch, tmp_path, suite, error, match):
    # the parity-mod4 suite's writer raises, or stops its process before the
    # summaries are sent: write_report raises, and leaves no summary line
    monkeypatch.setattr(thetamod.verify, "_fork_tail", lambda: True)
    monkeypatch.setitem(SUITES, "parity-mod4", suite)
    forks = _spy_forks(monkeypatch)
    fds = _open_fds()
    config = TrialConfig(seed=7, trials=3, suites=("lemma1", "reciprocity", "parity-mod4"))
    buf = io.StringIO()
    with pytest.raises(error, match=match):
        write_report(buf, config)
    assert len(forks) == 1
    assert _open_fds() == fds
    _assert_no_children()
    assert all("summary" not in json.loads(line) for line in buf.getvalue().splitlines())


# --- perfbench's hooks -------------------------------------------------------


def _perfbench_tracer(monkeypatch):
    """perfbench/tracer.py, loaded by path without writing bytecode there."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_perfbench_hooks_exists(monkeypatch):
    """A deleted or renamed hooked name fails here, not only in a traced run."""
    import importlib

    hooks = _perfbench_tracer(monkeypatch)._hooks()
    assert any(h.attr == "Sl2Matrix.__mul__" for h in hooks)
    for hook in hooks:
        target = importlib.import_module(f"thetamod.{hook.module}")
        for part in hook.attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"thetamod.{hook.module}.{hook.attr} is absent"


def test_perfbench_times_every_suite(monkeypatch):
    """The tracer reports run_suite time only for the suites it lists; a renamed
    or added suite would read 0 s there without this test."""
    assert _perfbench_tracer(monkeypatch).SUITES == tuple(SUITES)
