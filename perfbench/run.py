#!/usr/bin/env python3
"""thetamod benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, both modes

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload is a closed loop:
one client in this process, no threads, the next op only after the last.
The seeded item list is fixed; the run repeats whole passes over it for
about ``--seconds`` (at least one pass), so every pass does the same work.
The times in the end-to-end metrics are scaled to a nominal machine speed
measured by a reference loop around each chunk of the pass (see
``speed_factor``); the unscaled times are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics and the tracing
overhead.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import cmath
import collections
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("verify-all", "eval-grid", "series-direct", "multiplier-huge")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900
TAIL_BEYOND = 10
REFERENCE_REPS = 3
# Items run in chunks of about this many seconds, each bracketed by
# reference times, so the speed scale follows drifts within a pass.
CHUNK_S = 0.25
# Speed-scaled times are the times on a machine where the reference loop
# takes this long; the constant only sets their scale.
NOMINAL_REFERENCE_S = 0.004


class Failed(NamedTuple):
    """The outcome of an op that raised."""

    error: str
    message: str


class Passes:
    """Timings of every pass, the first pass's outputs, and items whose
    output differed in a later pass.  Later outputs are compared and dropped,
    so memory does not grow with the number of passes beyond the timings."""

    def __init__(self):
        self.walls: list[float] = []  # seconds per pass
        self.scaled_walls: list[float] = []  # speed-scaled seconds per pass
        self.reference: float | None = None  # reference time after the last chunk
        self.latency: list[array] = []  # speed-scaled seconds per item, per pass
        self.first: list | None = None
        self.unstable: set[int] = set()

    def add(self, wall: float, scaled_wall: float, latency: array, outputs: list):
        self.walls.append(wall)
        self.scaled_walls.append(scaled_wall)
        self.latency.append(latency)
        if self.first is None:
            self.first = outputs
            return
        self.unstable.update(
            i for i, (a, b) in enumerate(zip(self.first, outputs)) if not _same(a, b)
        )


def _same(a, b) -> bool:
    return a == b or repr(a) == repr(b)  # NaN != NaN, yet it repeated


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thetamod" / "__init__.py").is_file():
        print(f"perfbench: no thetamod sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import thetamod

    if Path(thetamod.__file__).resolve().parent != (SRC / "thetamod").resolve():
        print(f"perfbench: imported thetamod from {thetamod.__file__}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(args)
    finally:
        for path in WORKDIR.glob("verify-*.jsonl"):
            path.unlink()
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


# --- one workload -------------------------------------------------------------


def run_workload(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    raw = wl.generate(args.seed)
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(metadata(args, raw), sort_keys=True))
    items = [wl.prepare(r, WORKDIR) for r in raw]
    if args.trace:
        passes, metrics = traced_run(wl, items, args.seconds)
    else:
        setup = [probe_setup(wl.name, raw[0]) for _ in range(SETUP_PROBES)]
        passes, peak_rss_mb = timed_passes(wl, items, args.seconds)
    verdict = judge(wl, items, passes)
    if not args.trace:
        metrics = end_to_end(setup, passes, verdict, peak_rss_mb)
    print_verdict(verdict, len(passes.walls))
    print(
        json.dumps(
            {
                "correct": not verdict.bad,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def metadata(args, raw: list) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": nproc,
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "items": len(raw),
        "inputs_sha256": hashlib.sha256(json.dumps(raw).encode()).hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256() -> str:
    """Hash of the library sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "thetamod").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _reference_work() -> int:
    """A fixed mix of the interpreter work the library does: a Dedekind-style
    integer loop, small containers, complex exponentials and Fractions.  It
    calls no thetamod code, so a change to the library cannot change its
    time.  About 4 ms."""
    total = m = 0
    for r in range(1, 20000):
        m += 12345
        if m >= 99991:
            m -= 99991
        total += r * m
    table = {}
    z = 0j
    acc = Fraction(0)
    for i in range(4000):
        table[i & 255] = (i, total)
        z += cmath.exp(0.1j * (i & 63))
        if i % 20 == 0:
            acc += Fraction(i, 7 + i % 11)
    return total


def reference_time() -> float:
    """Median time of the reference loop right now."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """Scale for a time measured between two reference times.

    The CPU speed of a shared VM drifts by up to 1.6x over seconds.  A time
    multiplied by NOMINAL_REFERENCE_S over the mean reference time around it
    is the time at a fixed nominal speed, which repeats far better between
    runs than the raw time.
    """
    return 2 * NOMINAL_REFERENCE_S / (before + after)


def probe_setup(name: str, item: tuple) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first op finishing,
    and the speed factor around it."""
    gc.collect()
    before = reference_time()
    cmd = [sys.executable, str(HERE / "probe.py"), name, json.dumps(item), str(WORKDIR)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    end = time.perf_counter()
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "done":
        raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    done = float(words[1])
    seconds = done - start if start < done <= end else end - start
    return seconds, speed_factor(before, reference_time())


def run_pass(wl, items: list, passes: Passes) -> float:
    """One timed pass over every item, recorded in ``passes``; returns its
    unscaled wall time.

    Items run in chunks of about CHUNK_S seconds.  After each chunk the
    reference loop runs (outside the timed wall), and the chunk's latencies
    and wall are scaled by the speed factor of the reference times around it.
    """
    op = wl.op
    n = len(items)
    latency = array("d", bytes(8 * n))
    outputs = [None] * n
    clock = time.perf_counter
    gc.collect()
    if passes.reference is None:
        passes.reference = reference_time()
    wall = scaled_wall = 0.0
    first = 0  # first item of the current chunk
    start = clock()
    for i, item in enumerate(items):
        t0 = clock()
        try:
            outputs[i] = op(item)
        except Exception as err:  # a raising op is a counted failure
            outputs[i] = err
        t1 = clock()
        latency[i] = t1 - t0
        if t1 - start >= CHUNK_S or i == n - 1:
            chunk = t1 - start
            after = reference_time()
            factor = speed_factor(passes.reference, after)
            passes.reference = after
            for j in range(first, i + 1):
                latency[j] *= factor
            wall += chunk
            scaled_wall += chunk * factor
            first = i + 1
            start = clock()
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            outputs[i] = Failed(type(out).__name__, str(out))
        else:
            outputs[i] = wl.snapshot(items[i], out)
    passes.add(wall, scaled_wall, latency, outputs)
    return wall


def timed_passes(wl, items: list, seconds: float) -> tuple[Passes, float]:
    """Whole passes until another one would overrun ``seconds``.

    Also returns the peak RSS in MB after the first pass: the library's
    working set for the whole item list, before the benchmark's own timing
    arrays grow with the number of passes.
    """
    passes = Passes()
    start = time.perf_counter()
    wall = run_pass(wl, items, passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() - start + wall <= seconds:
        wall = run_pass(wl, items, passes)
    return passes, peak_rss_mb


def traced_run(wl, items: list, seconds: float) -> tuple[Passes, dict]:
    """Alternate plain and traced passes; per-layer metrics of the traced ones.

    Work counts come from the first traced pass (they repeat exactly); times
    are medians over the traced passes.  The overhead ratio compares the
    median traced pass with the median plain one, both speed-scaled.
    """
    import tracer

    trace = tracer.Tracer()
    units = trace.metric_units()
    passes = Passes()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        spent = run_pass(wl, items, passes)
        plain.append(passes.scaled_walls[-1])
        trace.install()
        trace.reset()
        try:
            spent += run_pass(wl, items, passes)
        finally:
            trace.uninstall()
        traced.append(passes.scaled_walls[-1])
        per_pass.append(trace.metrics())
        if time.perf_counter() - start + spent > seconds:
            break
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit in ("s", "us"):
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics[tracer.OVERHEAD_METRIC] = (overhead, units[tracer.OVERHEAD_METRIC])
    print(f"traced passes: {len(traced)} (each after a plain pass)")
    for name in units:
        if name in metrics:
            value, unit = metrics[name]
            print(f"  {name:<48} {value:>14.6g} {unit}")
    for absent in trace.absent():
        print(f"  absent hook: {absent}")
    return passes, metrics


# --- outcomes -----------------------------------------------------------------


class Verdict(NamedTuple):
    # attempted and failed count items of the seeded list, not ops: every
    # pass repeats the same items, and the number of passes depends on the
    # machine's speed, so only item counts repeat between runs of a seed.
    attempted: int
    failed: int
    passes: int
    bad: frozenset  # items with a wrong or unrepeatable output
    failed_items: frozenset  # items that raised or are bad
    errors: dict  # exception type -> items
    note: str
    latencies: list  # speed-scaled seconds, one per successful item (or per pass)


def judge(wl, items: list, passes: Passes) -> Verdict:
    first = passes.first
    unstable = passes.unstable
    check = wl.check(items, first)
    bad = frozenset(check.bad | unstable)
    raised = {i for i, out in enumerate(first) if isinstance(out, Failed)}
    failed_items = frozenset(raised | bad)
    errors = collections.Counter(first[i].error for i in raised)
    ok = [i for i in range(len(items)) if i not in failed_items]
    if len(items) > 1:
        latencies = [statistics.median(lat[i] for lat in passes.latency) for i in ok]
    else:  # a single item: every pass is a sample
        latencies = [lat[i] for lat in passes.latency for i in ok]
    note = check.note
    if unstable:
        note += f"; {len(unstable)} items gave different outputs across passes"
    return Verdict(
        attempted=len(items),
        failed=len(failed_items),
        passes=len(passes.walls),
        bad=bad,
        failed_items=failed_items,
        errors=dict(errors.most_common()),
        note=note,
        latencies=latencies,
    )


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it.  With fewer than 4 * TAIL_BEYOND
    samples a quarter of them must lie beyond, so that the tail of a few
    passes is not a single outlier."""
    s = sorted(samples)
    n = len(s)
    beyond = min(TAIL_BEYOND, n // 4)
    return s[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def end_to_end(setup: list, passes: Passes, v: Verdict, peak_rss_mb: float):
    """The end-to-end metrics; every time in them is speed-scaled."""
    wall = sum(passes.walls)
    scaled_wall = sum(passes.scaled_walls)
    succeeded = (v.attempted - v.failed) * v.passes  # successful ops, all passes
    lat = v.latencies or [0.0]
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setup), "s"),
        "ops_per_s": (succeeded / scaled_wall, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "success_ratio": ((v.attempted - v.failed) / v.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per = "per-item medians over" if v.attempted > 1 else "samples of"
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes; unscaled: "
        + " ".join(f"{t:.4f}" for t, _ in setup),
        "ops_per_s": f"{succeeded} successful ops in {wall:.3f} s "
        f"({succeeded / wall:.6g}/s unscaled)",
        "op_p50_ms": f"{len(lat)} {per} {len(passes.walls)} passes, successful ops only",
        "op_tail_ms": f"p{pct:.2f} of {len(lat)}, {beyond} samples beyond",
        "success_ratio": f"fail_ratio {v.failed / v.attempted:.6f} "
        f"({v.failed} failing of {v.attempted} items)",
        "peak_rss_mb": "ru_maxrss of this process after its first pass",
    }
    factors = [s / w for s, w in zip(passes.scaled_walls, passes.walls)]
    factors += [f for _, f in setup]
    print(
        f"speed factor (nominal/now, times are multiplied by it): median "
        f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:>14.6g} {unit:<6} {notes[name]}")
    return metrics


def print_verdict(v: Verdict, passes: int) -> None:
    errors = ", ".join(f"{k} {n}" for k, n in v.errors.items()) or "none"
    print(f"passes: {passes}; failures per pass by exception type: {errors}")
    print(f"check: {v.note}; {len(v.bad)} wrong outputs")


# --- every workload -----------------------------------------------------------


def run_all(args) -> int:
    """Both modes of every workload in child processes, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} failed (exit {proc.returncode})", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
