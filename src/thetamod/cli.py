"""Command-line interface.

Subcommands:

    eval        theta value via argument reduction (value, terms, word)
    dedekind    exact Dedekind sum s(h, k)
    multiplier  exact multiplier phases for a matrix
    decompose   generator word of a matrix (--gamma2 for the level-2 word)
    reduce      fundamental-domain reduction of tau
    verify      run verification suites, write a JSON-Lines report

Exit codes: 0 all selected suites pass, 1 suite failures or a decomposed word
that does not recompose to its matrix, 2 malformed input, usage errors, or an
eval whose value overflowed.

verify writes each record as soon as its trial is decided and the summary
line last.  On 2 or more CPUs a forked child runs the suites from reciprocity
on at the same time; their records follow the earlier suites' as on one CPU,
byte for byte.  A run that stops with exit code 2 once the report is open (a
corpus matrix outside a later suite's domain) leaves the records written so
far and no summary line; the --out path is left in place, as it may be
/dev/stdout or a FIFO.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dedekind import dedekind_sum
from .errors import DomainError, PrecisionUnreachableError
from .exact import rational_str
from .modgroup import (
    Sl2Matrix,
    decompose_gamma,
    decompose_gamma2,
    is_gamma2,
    normalize_sign,
    recompose,
)
from .multipliers import (
    ALPHA_KINDS,
    eta_epsilon,
    gamma2_alpha,
    theta1_epsilon,
    theta1_epsilon_closed,
)
from .series import DEFAULT_TOL, ThetaKind
from .transform import eval_fast_report, reduce_tau
from .verify import (
    SUITES,
    TrialConfig,
    load_corpus,
    overall_pass,
    write_report,
)

USAGE_EXIT = 2
FAIL_EXIT = 1


def _parse_matrix(text: str) -> Sl2Matrix:
    try:
        return Sl2Matrix.from_lists(json.loads(text))
    except DomainError:
        raise
    except (ValueError, TypeError) as err:
        raise DomainError(f"cannot parse matrix {text!r}: {err}") from None


def _parse_complex(text: str) -> complex:
    """A complex number written with an `i` (or `j`) imaginary-unit suffix."""
    spec = text.replace(" ", "")
    if spec.endswith("i"):  # only the suffix: `inf` and `nan` keep their i
        spec = spec[:-1] + "j"
    try:
        return complex(spec)
    except ValueError:
        raise DomainError(f"cannot parse complex number {text!r}") from None


def _fmt_complex(v: complex) -> str:
    return f"{v.real:.12g}{v.imag:+.12g}i"


def _cmd_eval(args) -> int:
    kind = ThetaKind.parse(args.kind)
    rep = eval_fast_report(kind, _parse_complex(args.z), _parse_complex(args.tau), args.tol)
    print(f"value: {_fmt_complex(rep.value)}")
    print(f"terms: {rep.terms}")
    print(f"series: {rep.reduced_kind} at tau' = {_fmt_complex(rep.tau_reduced)}")
    print(f"reduction: {rep.word} = {rep.reduction}")
    return 0


def _cmd_dedekind(args) -> int:
    print(rational_str(dedekind_sum(args.h, args.k)))
    return 0


def _cmd_multiplier(args) -> int:
    A, flipped = normalize_sign(_parse_matrix(args.matrix))
    if flipped:
        print(f"normalized: {A}")
    if A.c == 0:
        print("translation matrix: no inversion multiplier (c = 0); "
              "the tau -> tau + m law applies")
        return 0
    eps = eta_epsilon(A)
    eps1 = theta1_epsilon(A)
    closed = theta1_epsilon_closed(A)
    print(f"eta epsilon phase:    {eps}  ({_fmt_complex(eps.to_complex())})")
    print(f"theta1 epsilon phase: {eps1}  ({_fmt_complex(eps1.to_complex())})")
    agree = "agrees" if closed == eps1 else "MISMATCH"
    print(f"closed form phase:    {closed}  ({agree})")
    if is_gamma2(A):
        for kind in ALPHA_KINDS:
            alpha = gamma2_alpha(kind, A)
            print(f"alpha({kind}) phase:  {alpha}  ({_fmt_complex(alpha.to_complex())})")
    else:
        print("not congruent to the identity mod 2: no level-2 alpha factors")
    return 0


def _cmd_decompose(args) -> int:
    A = _parse_matrix(args.matrix)
    word = decompose_gamma2(A) if args.gamma2 else decompose_gamma(A)
    if recompose(word) != A:  # checked under python -O too, unlike an assert
        print(f"error: the word found for {A} does not recompose to it", file=sys.stderr)
        return FAIL_EXIT
    print(word)
    print(json.dumps(word.to_json(), sort_keys=True))
    return 0


def _cmd_reduce(args) -> int:
    tau = _parse_complex(args.tau)
    A, tau_red = reduce_tau(tau)
    print(f"matrix: {A}")
    print(f"tau': {_fmt_complex(tau_red)}")
    return 0


def _cmd_verify(args) -> int:
    corpus = load_corpus(args.corpus) if args.corpus else None
    suites = tuple(args.suite) if args.suite else ()
    config = TrialConfig(
        seed=args.seed,
        trials=len(corpus) if corpus else args.trials,
        tol=args.tol,
        suites=suites,
        corpus=corpus,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            summaries = write_report(fh, config)
    else:
        summaries = write_report(sys.stdout, config)
    for s in summaries:
        tag = "pass" if s.ok else "FAIL"
        line = f"{s.name}: {s.passed}/{s.total} {tag}, {s.inconclusive} inconclusive"
        if s.worst_ratio is not None:
            line += f", worst {s.worst_ratio:.3g} x tol*kappa at trial {s.worst_trial}"
        print(line, file=sys.stderr)
    return 0 if overall_pass(summaries) else FAIL_EXIT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetamod",
        description="Theta transformation laws: evaluation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a theta function (reduced)")
    p.add_argument("kind", help="theta1 | theta2 | theta3 | theta4")
    p.add_argument("z")
    p.add_argument("tau")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dedekind", help="exact Dedekind sum s(h, k)")
    p.add_argument("h", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("multiplier", help="exact multiplier phases of a matrix")
    p.add_argument("matrix", help='e.g. "[[0,-1],[1,0]]"')
    p.set_defaults(func=_cmd_multiplier)

    p = sub.add_parser("decompose", help="generator word of a matrix")
    p.add_argument("matrix")
    p.add_argument("--gamma2", action="store_true", help="level-2 generators")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reduce", help="fundamental-domain reduction of tau")
    p.add_argument("tau")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="suite name (repeatable; default: all)",
    )
    p.add_argument("--trials", type=int, default=TrialConfig.trials)
    p.add_argument("--seed", type=int, default=TrialConfig.seed)
    p.add_argument("--tol", type=float, default=TrialConfig.tol)
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument(
        "--corpus",
        help="matrix file, one [[a,b],[c,d]] per line; overrides --trials",
    )
    p.set_defaults(func=_cmd_verify)
    return parser


def _is_number(token: str) -> bool:
    try:
        _parse_complex(token)
    except DomainError:
        return False
    return True


def _takes_path(token: str) -> bool:  # argparse expands a prefix, such as --o
    return len(token) > 2 and any(o.startswith(token) for o in ("--out", "--corpus"))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # A number that starts with "-" is a value, not an option: a leading
    # space hides the "-" from argparse, and _parse_complex, float and int
    # all ignore it.  A path keeps its name (argparse reads -5 there, not -1e3).
    tokens = sys.argv[1:] if argv is None else argv
    args = parser.parse_args([
        " " + t if t.startswith("-") and _is_number(t) and not _takes_path(prev) else t
        for prev, t in zip(["", *tokens], tokens)
    ])
    try:
        return args.func(args)
    except (DomainError, PrecisionUnreachableError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
