"""Timed passes, the correctness gate, the traced pass and the result record.

One pass runs every operation of a workload once, in a closed loop with one
caller.  Untraced runs repeat passes for the requested seconds and score each
operation by its fastest time; the traced run makes one untraced and one
traced pass, so its counts repeat exactly for a seed.
"""
from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import sturmian
import tracing
import workloads
from sturmian import _kernels
from sturmian._kernels import _pure

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = Path(__file__).resolve().parent / "out"

MIN_PASSES = 3
SETUP_RUNS = 9
TAIL_LADDER = (50, 90, 99, 99.9, 99.99)

# (name, unit, better) of the end-to-end metrics, all measured untraced.  An
# operation is a theorem invocation, a build job or a query.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_tail_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

KERNEL_CASES = (
    "kernels.lps_sweep.best_s",
    "kernels.min_period_f20.best_s",
    "kernels.arith_scan_o18.best_s",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    return (
        tracing.layer_metrics()
        + [(f"cli.verify.{name}.wall_s", "s", "lower") for name, _, _ in workloads.THEOREMS]
        + [("trace.overhead_s", "s", "lower")]
        + [(name, "s", "lower") for name in KERNEL_CASES]
    )


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": sturmian.BACKEND,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_pass(ops, tracer=None):
    """One pass: (wall seconds, per-operation nanoseconds, outputs).  An
    operation that raises yields its exception as output."""
    clock = time.perf_counter_ns
    outs, lat = [], []
    start = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            out = workloads.call(op)
        except Exception as exc:  # counted as a failed operation by the gate
            out = exc
        lat.append(clock() - t0)
        outs.append(out)
    return (clock() - start) / 1e9, lat, outs


def gate(ops, outs, refs: dict) -> int:
    """Number of wrong results; the first is described on stderr."""
    failed = 0
    for index, (op, out) in enumerate(zip(ops, outs)):
        try:
            ok = workloads.correct(op, out, refs, index)
        except Exception as exc:  # a malformed result is a wrong result
            ok, out = False, exc
        if not ok:
            if not failed:
                print(f"wrong result: {op.kind} {str(op.args)[:200]}: {str(out)[:200]}", file=sys.stderr)
            failed += 1
    return failed


def percentile(ordered: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten of `count` values beyond it."""
    fit = [p for p in TAIL_LADDER if count - math.ceil(p / 100 * count) >= 10]
    return fit[-1] if fit else TAIL_LADDER[0]


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports the package and
    generates the inputs, after one unmeasured start that fills the bytecode
    cache.  No timeout: with one, subprocess polls the child with growing
    sleeps and the measured times snap to the poll steps."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def measure(workload: str, seed: int, seconds: float, small: bool = False) -> dict:
    """Untraced passes: at least MIN_PASSES, and more while the next one is
    expected to end within `seconds` of timed work.

    Each operation is scored by its fastest time over the passes.  On a
    shared machine whose speed drifts by tens of percent over seconds, the
    median of a run moves with the drift; the fastest repetition of each
    short operation does not.
    """
    setup = setup_seconds(workload, seed)
    ops = workloads.make(workload, seed, small)
    refs: dict = {}
    walls: list[float] = []
    best = [math.inf] * len(ops)
    failed = 0
    while len(walls) < MIN_PASSES or sum(walls) + statistics.median(walls) <= seconds:
        wall, lat, outs = run_pass(ops)
        walls.append(wall)
        best = [min(b, ns) for b, ns in zip(best, lat)]
        failed += gate(ops, outs, refs)
    best_wall = sum(best) / 1e9
    best.sort()
    tail_p = tail_percentile(len(best))
    metrics = {
        "setup_s": setup,
        "wall_s": best_wall,
        "ops_per_s": len(ops) / best_wall,
        "op_p50_us": percentile(best, 50) / 1e3,
        "op_tail_us": percentile(best, tail_p) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = len(ops) * len(walls)
    detail = {"pass_walls_s": walls, "tail_percentile": tail_p, "operations": len(ops),
              "fail_ratio": failed / attempted}
    return _result(workload, seed, attempted, failed, metrics, END_TO_END, detail)


def kernel_cases(small: bool = False) -> tuple[dict, int]:
    """The three kernel timings of benchmarks/bench_kernels.py on the active
    backend (best of three), checked against closed forms and, when the
    compiled twin imports, against the pure kernels."""
    try:
        from sturmian._kernels import _speedups
    except ImportError:
        _speedups = None
    order, sweep, scan = (12, 200, 10) if small else (20, 2000, 18)
    word = workloads.image(sturmian.fibonacci_directive_prefix(order))[0]
    # (calls per timing, case, closed-form result or None), in KERNEL_CASES order.
    cases = (
        (1, lambda m: sum(m.lps_length(word[:k]) for k in range(1, sweep + 1)), None),
        (5, lambda m: m.min_period(word), workloads.fib(order - 1)),
        (1, lambda m: m.arith_scan(scan, 0, False)[0], workloads.fib(scan + 1) - 2),
    )
    metrics, failed = {}, 0
    for name, (number, fn, expect) in zip(KERNEL_CASES, cases):
        got = fn(_kernels)
        agree = _speedups is None or fn(_pure) == fn(_speedups)
        if not agree or (expect is not None and got != expect):
            print(f"wrong result: kernel case {name}: {got}", file=sys.stderr)
            failed += 1
        timer = timeit.Timer(lambda: fn(_kernels))
        metrics[name] = min(timer.repeat(repeat=3, number=number)) / number
    return metrics, failed


def traced(workload: str, seed: int, small: bool = False) -> dict:
    """One untraced pass, one traced pass and the kernel cases; per-layer metrics."""
    ops = workloads.make(workload, seed, small)
    refs: dict = {}
    wall_plain, lat_plain, outs = run_pass(ops)
    failed = gate(ops, outs, refs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall_traced, _, outs = run_pass(ops, tracer)
    finally:
        tracer.remove()
    failed += gate(ops, outs, refs)
    metrics = tracer.metrics()
    texts = [out[1] for op, out in zip(ops, outs) if op.kind == "verify" and isinstance(out, tuple)]
    metrics["cli.main.records"] = sum(len(t.splitlines()) for t in texts)
    metrics["cli.main.bytes"] = sum(len(t.encode()) for t in texts)
    for name, _, _ in workloads.THEOREMS:
        metrics[f"cli.verify.{name}.wall_s"] = sum(
            ns for op, ns in zip(ops, lat_plain) if op.kind == "verify" and op.meta[0] == name
        ) / 1e9
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    kernel_metrics, kernel_failed = kernel_cases(small)
    metrics.update(kernel_metrics)
    attempted = 2 * len(ops) + len(kernel_metrics)
    detail = {"spans": len(tracer.spans), "untraced_wall_s": wall_plain}
    result = _result(workload, seed, attempted, failed + kernel_failed, metrics,
                     per_layer_metrics(), detail)
    tracer.write(SPANS_DIR / f"{workload}.spans.tsv", result["env"])
    return result


def _result(workload, seed, attempted, failed, values, declared, detail) -> dict:
    return {
        "env": environment(workload, seed),
        "detail": detail,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in declared},
    }
