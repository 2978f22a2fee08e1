"""Per-layer tracing from outside the library.

Hooks replace the named functions where callers look them up: in every
loaded ``thetamod`` module's namespace that holds the function (so both
``transform.eval_fast_report`` and a caller's from-import are covered), and
at class level for ``Sl2Matrix.__mul__``.  Nothing under ``src/`` is edited.

A span hook times each call.  Open spans form a stack, so every span knows
the span that caused it; when a span closes its duration is added to its
parent's child time, and its self time is its duration minus its own child
time.  Spans are aggregated as they close instead of being stored, because a
traced verify pass makes millions of them.  A count hook only counts calls
and errors; it is used for functions so small and hot that timing them
would mostly measure the hook (their time stays in the caller's self time).

A hook whose target no longer exists is reported as absent: its metrics are
left out instead of the benchmark failing.  A hook that cannot read the work
counts from a call's arguments or result (a changed signature) says so and
leaves the call itself alone.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# The suites of ``thetamod verify``, each timed inclusively by run_suite.
SUITES = (
    "lemma1",
    "lemma2",
    "lemma3",
    "lemma4",
    "lemma5",
    "eq1",
    "eq2",
    "theorem1",
    "theorem2-theta2",
    "theorem2-theta3",
    "theorem2-theta4",
    "reciprocity",
    "closed-form-epsilon",
    "chain-vs-direct",
    "parity-mod4",
)

K_BUCKETS = ((1_000, "k_lt_1e3"), (100_000, "k_1e3_1e5"), (None, "k_ge_1e5"))
N_BUCKETS = ((8, "n_lt_8"), (64, "n_8_64"), (None, "n_ge_64"))


def _bucket(value: int, buckets) -> str:
    for limit, label in buckets:
        if limit is None or value < limit:
            return label
    raise AssertionError("the last bucket has no limit")


class Hook:
    """Counters for one traced function."""

    def __init__(self, module: str, attr: str, span: bool = True, buckets=None):
        self.module = module
        self.attr = attr
        self.name = f"{module}.{attr.replace('.__mul__', '.mul')}"
        self.span = span
        self.buckets = buckets
        self.absent = False
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.errors = 0
        self.blind = 0  # calls whose work counts could not be read
        self.self_s = 0.0
        self.work = {}  # extra work counts, e.g. steps or bytes
        self.bucket_calls = {}
        self.bucket_s = {}

    def add_work(self, key: str, amount: float) -> None:
        self.work[key] = self.work.get(key, 0) + amount

    def add_bucket(self, label: str, seconds: float) -> None:
        self.bucket_calls[label] = self.bucket_calls.get(label, 0) + 1
        self.bucket_s[label] = self.bucket_s.get(label, 0.0) + seconds

    def observe(self, args: tuple, result, own: float, dur: float) -> None:
        """Work counts taken from a successful call's arguments and result."""

    def metrics(self) -> dict:
        """Metric name -> (value, unit) for one traced pass."""
        out = {f"{self.name}.calls": (self.calls, "count")}
        if self.span:
            out[f"{self.name}.self_s"] = (self.self_s, "s")
        out[f"{self.name}.errors"] = (self.errors, "count")
        for key, (value, unit) in self.work_metrics().items():
            out[f"{self.name}.{key}"] = (value, unit)
        for _, label in self.buckets or ():
            calls = self.bucket_calls.get(label, 0)
            seconds = self.bucket_s.get(label, 0.0)
            out[f"{self.name}.calls.{label}"] = (calls, "count")
            out[f"{self.name}.us_per_call.{label}"] = (
                seconds / calls * 1e6 if calls else 0.0,
                "us",
            )
        return out

    def work_metrics(self) -> dict:
        return {}


class DedekindHook(Hook):
    def observe(self, args, result, own, dur):
        self.add_bucket(_bucket(args[1], K_BUCKETS), own)


class PartialSumHook(Hook):
    def observe(self, args, result, own, dur):
        kind, _, _, n = args[:4]
        self.add_work("terms", sys.modules["thetamod.series"].term_count(kind, n))
        self.add_bucket(_bucket(n, N_BUCKETS), own)

    def work_metrics(self):
        return {"terms": (self.work.get("terms", 0), "count")}


class TruncationIndexHook(Hook):
    def observe(self, args, result, own, dur):
        self.add_bucket(_bucket(result, N_BUCKETS), own)


class ReduceStepsHook(Hook):
    def observe(self, args, result, own, dur):
        self.add_work("steps", len(result[2]))

    def work_metrics(self):
        return {"steps": (self.work.get("steps", 0), "count")}


class RunSuiteHook(Hook):
    def observe(self, args, result, own, dur):
        self.add_work(args[0], dur)

    def work_metrics(self):
        return {f"{s}.s": (self.work.get(s, 0.0), "s") for s in SUITES}


class WriteReportHook(Hook):
    """Report bytes: the file position after the call, as the CLI writes each
    report to a freshly opened file."""

    def observe(self, args, result, own, dur):
        self.add_work("bytes", args[0].tell())

    def work_metrics(self):
        return {"bytes": (self.work.get("bytes", 0), "B")}


def _hooks() -> list[Hook]:
    return [
        DedekindHook("dedekind", "dedekind_sum", buckets=K_BUCKETS),
        Hook("dedekind", "reciprocity_defect"),
        WriteReportHook("verify", "write_report"),
        Hook("exact", "rational_str"),
        RunSuiteHook("verify", "run_suite"),
        Hook("cli", "main"),
        ReduceStepsHook("transform", "_reduce_steps"),
        Hook("transform", "eval_fast_report"),
        Hook("modgroup", "Sl2Matrix.__mul__", span=False),
        TruncationIndexHook("series", "truncation_index", buckets=N_BUCKETS),
        Hook("series", "truncation_bound", span=False),
        PartialSumHook("series", "_partial_sum", buckets=N_BUCKETS),
        Hook("series", "theta_series_report"),
        Hook("multipliers", "eta_epsilon"),
        Hook("multipliers", "theta1_epsilon"),
        Hook("multipliers", "theta1_epsilon_closed"),
        Hook("multipliers", "theta1_epsilon_induction"),
        Hook("multipliers", "gamma2_prefactor"),
        Hook("exact", "jacobi_symbol"),
        Hook("modgroup", "decompose_gamma"),
        Hook("transform", "predict_theta1"),
        Hook("transform", "predict_theta_gamma2"),
        Hook("transform", "predict_theta1_chained"),
    ]


OVERHEAD_METRIC = "trace.overhead_ratio"


class Tracer:
    """Installs the hooks, resets them per pass, and removes them again."""

    def __init__(self):
        self.hooks = _hooks()
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def metric_units(self) -> dict:
        """Every per-layer metric name -> unit, absent hooks included."""
        units = {}
        for hook in self.hooks:
            units.update({k: u for k, (_, u) in hook.metrics().items()})
        units[OVERHEAD_METRIC] = "ratio"
        return units

    def install(self) -> None:
        for hook in self.hooks:
            try:
                module = importlib.import_module(f"thetamod.{hook.module}")
            except ImportError:
                hook.absent = True
                continue
            if "." in hook.attr:
                cls_name, attr = hook.attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, attr, None) if cls is not None else None
                if original is None:
                    hook.absent = True
                    continue
                self._replace(cls, attr, self._wrap(hook, original))
                continue
            original = getattr(module, hook.attr, None)
            if not callable(original):
                hook.absent = True
                continue
            wrapper = self._wrap(hook, original)
            for name, mod in list(sys.modules.items()):
                if name != "thetamod" and not name.startswith("thetamod."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self._stack.clear()
        for hook in self.hooks:
            hook.reset()

    def metrics(self) -> dict:
        out = {}
        for hook in self.hooks:
            if not hook.absent:
                out.update(hook.metrics())
        return out

    def absent(self) -> list[str]:
        """Hooks that found no target, or could not read their work counts."""
        return [f"{h.module}.{h.attr}" for h in self.hooks if h.absent] + [
            f"{h.module}.{h.attr} (work counts of {h.blind} calls unread)"
            for h in self.hooks
            if h.blind
        ]

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, hook: Hook, fn):
        if not hook.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                hook.calls += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    hook.errors += 1
                    raise

            return counted

        stack = self._stack
        clock = time.perf_counter
        observe = type(hook).observe is not Hook.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                hook.errors += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                own = dur - child[0]
                hook.calls += 1
                hook.self_s += own
            if observe:
                try:
                    hook.observe(args, result, own, dur)
                except (AttributeError, LookupError, OSError, TypeError):
                    hook.blind += 1  # the signature or result changed shape
            return result

        return traced
