"""Benchmark of the legendrian-lab verifier, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It drives the public
``legendrian_lab.cli.main`` in-process in a closed loop: one caller, the next
command issued only when the previous one returns, at most two pool workers.
Every output is checked (``oracle.py``); the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured with
no tracing.  Each workload has two call metrics, ``primary_s`` and
``secondary_s``; the lines before the JSON name them as the operation they
time (``verify_s``, ``classify_s``, ...; see ``workloads.CALL_METRICS``).
``--trace 1`` alternates traced passes (spans recorded by ``tracing.py``, at
``--workers 1``) with untraced ones and reports the per-layer metrics; the
spans of the last traced pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and inherited by the pool's children, so that
# --workers 2 stays within two threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from oracle import Oracle, digits
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters started per run; setup_s is their median.  They are
#: spread over the run, so that they see the same drift of machine speed as
#: the call timings do rather than that of the first seconds alone.
SETUP_REPEATS = 15

#: Most seconds of one timed cli.main call that its top-level span may miss;
#: the wrapper's own bookkeeping takes a few microseconds.
MAX_GAP_PER_CALL_S = 1e-3

#: Runs in a fresh interpreter: import the CLI, then parse the first
#: command's configuration through cli.main and stop there.
_SETUP_CODE = """\
import sys, time
import legendrian_lab.cli as cli

class Parsed(Exception):
    pass

build_config = cli.build_config

def stop_after_config(args):
    build_config(args)
    raise Parsed

cli.build_config = stop_after_config
try:
    cli.main(sys.argv[1:])
except Parsed:
    print(repr(time.monotonic()))
"""


def setup_once(argv: tuple[str, ...]) -> float:
    """Seconds from starting a fresh interpreter to the first config parsed."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, timeout=120, check=True,
    )
    return float(done.stdout.strip()) - start


class Runner:
    """Calls cli.main for one operation, checks the output, keeps the tallies."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.oracle = Oracle()
        self.attempted = 0
        self.failed = 0
        self.errors: list[float] = []
        self.problems: list[str] = []
        self.output_bytes = 0

    def run(self, op: workloads.Op) -> float:
        out, err = io.StringIO(), io.StringIO()
        # Every call starts with empty young generations, so that collections
        # owed to earlier calls and to the oracle's parsing of their output do
        # not fall inside this call's time.
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                code = f"exception {exc!r}"
            elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        self.output_bytes += len(stdout.encode())
        problems, errors = self.oracle.check(op, code, stdout)
        self.attempted += 1
        self.errors.extend(errors)
        if problems:
            self.failed += 1
            stderr = err.getvalue().strip()
            self.problems.append(
                f"{op.name}: {'; '.join(problems)}" + (f" (stderr: {stderr})" if stderr else "")
            )
        return elapsed

    def run_pass(self, ops) -> dict[str, float]:
        return {op.name: self.run(op) for op in ops}


def percentile_line(samples: list[float]) -> str:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} s over {n} calls"
    for p in (99.9, 99, 90):
        if n * (1.0 - p / 100.0) >= 10:
            rank = min(n - 1, math.ceil(p / 100.0 * n) - 1)
            text += f", p{p:g} {sorted(samples)[rank]:.6g} s"
            break
    return text


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def measure(runner: Runner, ops, seconds: float):
    """Calls of ``ops`` in turn for ``seconds``, each at least once, and
    ``SETUP_REPEATS`` set-up times taken between them, evenly over the time.

    A call starts only if it should still end within ``seconds``, as judged
    by the last call of the same operation; the first that would not ends the
    run.  Going call by call lets a workload of long calls (mironov-64) use
    more of the time.  Returns the call times by operation name.

    Also returns the children's peak RSS in KiB as it stands after the first
    pass: the pool's workers and one set-up interpreter.  A child started
    later, from the grown benchmark process, reports that process's peak as its own.
    """
    samples: dict[str, list[float]] = {op.name: [] for op in ops}
    setup: list[float] = []
    start = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        elapsed = time.perf_counter() - start
        if i >= len(ops) and elapsed + samples[op.name][-1] > seconds:
            break
        while len(setup) <= min(SETUP_REPEATS * elapsed / seconds, SETUP_REPEATS - 1):
            setup.append(setup_once(ops[0].argv))
        samples[op.name].append(runner.run(op))
        if i == len(ops) - 1:
            children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(ops[0].argv))
    return samples, setup, children_kib


def by_operation(passes) -> dict[str, list[float]]:
    """Call times of a list of passes, by operation name."""
    return {name: [p[name] for p in passes] for name in passes[0]}


def call_samples(ops, samples) -> dict[str, list[float]]:
    """Call times pooled by call metric (verify_s, ...)."""
    pooled: dict[str, list[float]] = {}
    for op in ops:
        pooled.setdefault(op.metric, []).extend(samples[op.name])
    return pooled


def call_medians(ops, samples) -> dict[str, float]:
    """Per call metric: the mean over its operations of each one's median time."""
    per_op: dict[str, list[float]] = {}
    for op in ops:
        per_op.setdefault(op.metric, []).append(statistics.median(samples[op.name]))
    return {metric: statistics.fmean(values) for metric, values in per_op.items()}


def end_to_end(args, ops, runner: Runner, spec: dict) -> dict[str, dict]:
    samples, setup, children_kib = measure(runner, ops, args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if any(op.workers > 1 for op in ops):
        peak_kib += children_kib

    medians = call_medians(ops, samples)
    pass_s = sum(statistics.median(samples[op.name]) for op in ops)
    primary, secondary = workloads.CALL_METRICS[args.workload]
    values = {
        "setup_s": statistics.median(setup),
        "primary_s": medians[primary],
        "secondary_s": medians[secondary],
        "points_per_s": sum(op.points for op in ops) / pass_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "accuracy_digits": min(digits(e) for e in runner.errors),
    }
    print(f"# setup_s: median {values['setup_s']:.6g} s over {len(setup)} fresh interpreters")
    for metric, pooled in call_samples(ops, samples).items():
        print(f"# {metric}: {medians[metric]:.6g} s ({percentile_line(pooled)})")
    for op in ops:
        times = samples[op.name]
        print(f"#   {op.name}: {statistics.median(times):.6g} s over {len(times)} calls")
    print(f"# error_rate: {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} operations)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


class CountingPool:
    """Stands in for operators.ProcessPoolExecutor and counts submitted chunks."""

    def __init__(self, executor_cls) -> None:
        self.executor_cls = executor_cls
        self.chunks = 0

    def __call__(self, *args, **kwargs):
        pool = self.executor_cls(*args, **kwargs)
        original_map = pool.map

        def counting_map(fn, *iterables, **kw):
            items = list(iterables[0])
            self.chunks += len(items)
            return original_map(fn, items, *iterables[1:], **kw)

        pool.map = counting_map
        return pool


def per_layer(args, ops, runner: Runner, spec: dict) -> dict[str, dict]:
    from legendrian_lab import operators

    traced_ops = [op for op in ops if op.workers == 1]
    counting = CountingPool(operators.ProcessPoolExecutor)
    untraced, summaries, walls = [], [], []
    start = last = time.perf_counter()
    # Pairs of one traced and one untraced pass; another pair only if it
    # should still end within --seconds.  The traced pass goes first, so the
    # cost of a process's first calls makes the overhead ratio err high.
    while not summaries or 2 * time.perf_counter() - start - last <= args.seconds:
        last = time.perf_counter()
        tracer = Tracer()
        bytes_before = runner.output_bytes
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = runner.run_pass(traced_ops)
            wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        traced_bytes = runner.output_bytes - bytes_before
        operators.ProcessPoolExecutor = counting
        try:
            untraced.append(runner.run_pass(ops))
        finally:
            operators.ProcessPoolExecutor = counting.executor_cls
        summary = tracer.summary(wall, sum(traced.values()))
        summary["cli.output_bytes"] = traced_bytes
        summary["trace.pass_s"] = wall
        summary["trace.overhead_ratio"] = sum(traced.values()) / sum(
            untraced[-1][op.name] for op in traced_ops
        )
        summaries.append(summary)
        walls.append(wall)
    tracer.write(OUT / f"spans-{args.workload}.tsv")

    n = len(summaries)
    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = {}
    for name in names:
        samples = [s.get(name, 0) for s in summaries]
        # Counts repeat exactly from pass to pass.  Times are averaged, not
        # medians, so that layer self times plus harness time still add up to
        # the pass wall time.
        values[name] = statistics.fmean(samples) if units[name] in ("s", "ratio") else samples[0]
    chart_points = sum(op.points for op in traced_ops)
    frame_points = sum(values[f"geometry.frame_points.deg{d}"] for d in (1, 2, 4))
    values["geometry.frame_points_per_point"] = frame_points / chart_points
    values["operators.pool_chunks"] = counting.chunks // n
    medians = call_medians(ops, by_operation(untraced))
    values["operators.pool_speedup"] = (
        medians["verify_serial_s"] / medians["verify_s"] if counting.chunks else 0.0
    )
    # harness.self_s is the pass wall time minus the cli.main times the Runner
    # took, so the layer self times add up to the wall time only if the spans
    # account for every call the Runner timed.
    layer_sum = sum(values[f"{layer}.self_s"] for layer in (*LAYERS, "harness"))
    wall = statistics.fmean(walls)
    gap = max(abs(s["spans.gap_s"]) for s in summaries)
    hook_s = statistics.fmean(s["trace.hook_s"] for s in summaries)
    print(f"# traced passes: {n}; layer self times + harness = {layer_sum:.6f} s, "
          f"traced pass wall = {wall:.6f} s (largest gap {gap:.2e} s); "
          f"tracer hooks {hook_s:.6f} s per pass, charged to harness.self_s")
    if gap > MAX_GAP_PER_CALL_S * len(traced_ops):
        runner.problems.append(f"the spans miss {gap:.3e} s of the timed cli.main calls")
    return {name: {"value": values[name], "unit": units[name]} for name in names}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "legendrian_lab" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'legendrian_lab'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from legendrian_lab import cli

    ops = workloads.build(args.workload, args.seed, workloads.write_inputs(OUT / "inputs"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"# {args.workload}: {why}")
    print(f"# inputs: {len(ops)} operations, {sum(op.points for op in ops)} chart points "
          f"per pass; seed {args.seed}")
    print(f"# nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, commit {git_commit()}")

    runner = Runner(cli)
    measure_fn = per_layer if args.trace else end_to_end
    metrics = measure_fn(args, ops, runner, spec)
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
