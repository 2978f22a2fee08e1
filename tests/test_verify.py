"""Harness determinism, record schema, corpus ingestion, and the CLI."""

import hashlib
import io
import json
from fractions import Fraction

import pytest

from thetamod.cli import main
from thetamod.errors import DomainError
from thetamod.modgroup import Sl2Matrix
from thetamod.verify import (
    SUITES,
    TrialConfig,
    load_corpus,
    overall_pass,
    run_suite,
    run_suites,
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
    records, summaries = run_suites(config)
    buf = io.StringIO()
    write_report(buf, records, summaries)
    return buf.getvalue()


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


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_small(name):
    config = TrialConfig(seed=3, trials=6, suites=(name,))
    records = run_suite(name, config)
    assert records
    assert all(r.passed for r in records), [r for r in records if not r.passed][:3]


def test_record_schema():
    records = run_suite("theorem1", TrialConfig(seed=1, trials=3))
    rec = records[0].to_json_dict()
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
    assert all(r.to_json_dict()["residual"] == "exact" for r in records)


def test_exact_records_pinned_seed7():
    lines = _render(TrialConfig(seed=7, suites=EXACT_SUITES)).splitlines()
    exact = [line for line in lines if '"residual": "exact"' in line]
    assert len(exact) == 25064
    digest = hashlib.sha256("".join(f"{line}\n" for line in exact).encode())
    assert digest.hexdigest() == EXACT_RECORDS_SEED7_SHA256


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


def test_lemma2_covers_both_branches():
    records = run_suite("lemma2", TrialConfig(seed=2, trials=10))
    branches = {r.inputs["branch"] for r in records}
    assert branches == {"d>0", "d<0"}


def test_lemma4_covers_both_branches():
    records = run_suite("lemma4", TrialConfig(seed=2, trials=10))
    branches = {r.inputs["branch"] for r in records}
    assert branches == {"c+2d>0", "c+2d<0"}


def test_summary_and_overall_pass():
    records, summaries = run_suites(
        TrialConfig(seed=4, trials=4, suites=("lemma1", "closed-form-epsilon"))
    )
    assert overall_pass(summaries)
    diag = [s for s in summaries if s.name == "closed-form-epsilon"][0]
    assert diag.diagnostic


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
    assert [r.inputs["matrix"] for r in records] == list(corpus)
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


def test_cli_multiplier_huge_matrix(capsys, huge_matrices):
    A = max(huge_matrices, key=lambda M: M.c)
    assert main(["multiplier", str(A)]) == 0
    assert "(agrees)" in capsys.readouterr().out


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


def test_cli_reduce(capsys):
    assert main(["reduce", "5+1i"]) == 0
    out = capsys.readouterr().out
    assert "[[1,-5],[0,1]]" in out
    assert main(["reduce", "1-1i"]) == 2


def test_cli_eval_nan_tolerance(capsys):
    assert main(["eval", "theta3", "0.1", "1i", "--tol", "nan"]) == 2
    assert "tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "z, tau", [("0.1", "nan+1i"), ("nan", "1i"), ("0.1", "0.2+nani")]
)
def test_cli_eval_nonfinite_point(capsys, z, tau):
    assert main(["eval", "theta3", z, tau]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_cli_eval(capsys):
    assert main(["eval", "theta3", "0", "1i"]) == 0
    out = capsys.readouterr().out
    assert "value:" in out and "terms:" in out and "reduction:" in out


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
