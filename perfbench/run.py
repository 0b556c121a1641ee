"""Benchmark of the ``groupoids`` CLI and library on three seeded workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # all three in turn
    python3 perfbench/run.py --baseline                      # degree-5 baseline rows

One process, one thread, closed loop: each operation starts when the last
one has returned.  A run first sets up its inputs several times, each in a
fresh process (``setup_inputs.py``), then repeats passes over the
workload's operation list until the next pass would end after ``--seconds``
(at least one pass), and checks every answer.

With ``--trace 0`` it reports the end-to-end metrics, timed with nothing
wrapped and taken at the reference speed of ``gauge.py``.  With
``--trace 1`` it alternates untraced passes with passes in which every
module boundary is wrapped (``tracing.py``), and reports the per-layer
metrics of the traced passes and the difference between the wall times of
the two kinds of pass as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
package source under ``src/`` the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Callable

from gauge import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-ups per run: at least SETUPS, and more while they have taken under
# CHEAP_SETUP_S in all, so that a set-up of a tenth of a second still gets
# a steady median.
SETUPS = 3
MAX_SETUPS = 9
CHEAP_SETUP_S = 5.0
WORKLOADS = ("verify", "build", "search")

# End-to-end metrics of the result line (BENCHMARK.json lists them).  The
# per-category sums (verify_valid_s, ..., iso_s), slowest_cmd_s,
# ops_failed_frac and the wall times are printed too; the sums are nonzero
# on one workload only.  Untraced timings are at the reference speed of
# gauge.py, because raw wall times drift with the speed of a shared host.
E2E = {
    "setup_s": "s",
    "session_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run: missing source, or a failed set-up."""


def unit_of(metric: str) -> str:
    if metric in E2E:
        return E2E[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".yield", "_frac")):
        return "ratio"
    if metric.endswith(".bytes_per_product"):
        return "B/product"
    if metric.endswith(".bytes"):
        return "B"
    return "count"


def spread_note(samples: list[float]) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            cut = quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"median of {n}; p{p:g} {cut:.6g}"
    return f"median of {n}; no percentile has ten samples beyond it"


# ----- set-up ---------------------------------------------------------------


def run_setups(workload: str, seed: int, work: Path) -> tuple[list[tuple[float, float]], Path]:
    """Set up the inputs several times, each in its own process; returns
    (time at reference speed, wall time) per set-up and the directory of
    the last set-up.  Every set-up must write byte-identical files."""
    times, digests = [], None
    for k in range(MAX_SETUPS):
        if k >= SETUPS and sum(wall for _, wall in times) >= CHEAP_SETUP_S:
            break
        out = work / f"inputs{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if digests is not None and report["files"] != digests:
            raise BenchError("two set-ups with the same seed wrote different documents")
        digests = report["files"]
        times.append((report["setup_s"], report["wall_s"]))
        if k:
            shutil.rmtree(work / f"inputs{k - 1}")
    return times, out


# ----- passes ---------------------------------------------------------------


class Pass:
    """Timings and failures of one pass over the operation list."""

    def __init__(self) -> None:
        self.session_s = 0.0  # summed operation times (at reference speed untraced)
        self.wall_s = 0.0  # wall time of the pass, less the gauge's own
        self.reference: list[float] = []  # every reference sample of the pass
        self.op_s: list[tuple[str, float]] = []  # (metric, seconds) per op
        self.failures: list[tuple[str, str]] = []

    def category(self, metric: str) -> float:
        return sum(t for m, t in self.op_s if m == metric)


def run_pass(ops, order: Callable, tracer=None) -> Pass:
    """One pass.  Untraced, each operation runs under a speed gauge and its
    time is taken at reference speed, the gauge's own time left out;
    traced, each operation is a root span and its time is wall time."""
    gc.collect()
    result = Pass()
    gauge_s = 0.0
    start = time.perf_counter()
    for op in order(ops):
        gauge = SpeedGauge() if tracer is None else None
        span = tracer.begin_op(op.name) if tracer else None
        if gauge:
            gauge.start()
        t0 = time.perf_counter()
        try:
            answer = op.call()
            error = None
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a dead run
            answer, error = None, f"raised {exc!r}"
        finally:
            elapsed = time.perf_counter() - t0
            if gauge:
                gauge.stop()
        if gauge:
            gauge_s += gauge.total_s
            elapsed = gauge.at_reference_speed(elapsed - gauge.busy_s)
            result.reference += gauge.samples
        if error is None:
            error = op.check(answer)
        if tracer:
            tracer.close(span, error=error is not None)
        result.op_s.append((op.metric, elapsed))
        result.session_s += elapsed
        if error is not None:
            result.failures.append((op.name, error))
    result.wall_s = time.perf_counter() - start - gauge_s
    return result


def repeat(seconds: float, step: Callable[[], None]) -> None:
    """Call step until the next call would end after ``seconds``; at least once."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / calls > seconds:
            return


# ----- one workload -----------------------------------------------------------


def run_workload(args) -> tuple[dict, dict, list[tuple[str, str]], int]:
    """Set up, run and measure one workload.  Returns (metrics, samples,
    failures, ops attempted); samples hold the per-pass values of each
    timing for the report."""
    if not (SRC / "groupoids" / "__init__.py").is_file():
        raise BenchError(f"no groupoids package under {SRC}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, inputs_dir = run_setups(args.workload, args.seed, work)
        sys.path.insert(0, str(SRC))
        import groupoids
        if Path(groupoids.__file__).resolve().parent != SRC / "groupoids":
            raise BenchError(f"groupoids imported from {groupoids.__file__}, not {SRC}")
        import tracing
        import workloads

        ops = workloads.make_ops(args.workload, inputs_dir)
        rng = random.Random(f"order:{args.workload}:{args.seed}")
        order = lambda ops: workloads.pass_order(args.workload, ops, rng)  # noqa: E731
        untraced: list[Pass] = []
        traced: list[Pass] = []
        tracer = tracing.Tracer() if args.trace else None
        layer_passes: list[dict] = []

        def traced_pass() -> None:
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(ops, order, tracer))
            finally:
                tracer.uninstall()
            layer_passes.append(
                tracer.pass_metrics(first, len(tracer.spans), traced[-1].wall_s))

        def step() -> None:
            # with tracing, untraced and traced passes come in pairs whose
            # order alternates, so neither kind always runs first
            if tracer is not None and len(traced) % 2:
                traced_pass()
            untraced.append(run_pass(ops, order))
            if tracer is not None and len(traced) < len(untraced):
                traced_pass()

        repeat(args.seconds, step)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.op_s) for p in passes)
    samples = {
        "setup_s": [t for t, _ in setups],
        "setup_wall_s": [wall for _, wall in setups],
        "session_s": [p.session_s for p in untraced],
        "session_wall_s": [p.wall_s for p in untraced],
        "reference_s": [median(p.reference) for p in untraced],
        "slowest_cmd_s": [max(t for _, t in p.op_s) for p in untraced],
    }
    for metric in workloads.CATEGORIES[args.workload]:
        samples[metric] = [p.category(metric) for p in untraced]
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["ops_failed_frac"] = len(failures) / attempted
    if tracer is not None:
        layers = {k: median(p[k] for p in layer_passes) for k in layer_passes[0]}
        layers["trace.overhead_s"] = (median(p.wall_s for p in traced)
                                      - metrics["session_wall_s"])
        probes = tracer.memory_probe()
        if probes:
            layers["quasiperm.build.bytes_per_product"] = (
                sum(p[2] for p in probes) / sum(p[3] for p in probes))
        samples["traced session_wall_s"] = [p.wall_s for p in traced]
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json", probes)
        metrics["layers"] = layers
    return metrics, samples, failures, attempted


def report(args, metrics: dict, samples: dict, failures, attempted: int) -> dict:
    """Print the human-readable report; returns the result object."""
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples['session_s'])} untraced pass(es), {attempted} ops, "
          f"{len(failures)} failed")
    for name, value in metrics.items():
        if name == "layers":
            continue
        note = spread_note(samples[name]) if name in samples else ""
        print(f"  {name:<22} {value:>14.6f} {unit_of(name):<6} {note}")
    for name, reason in failures[:10]:
        print(f"  FAILED {name}: {reason}")
    if args.trace:
        layers = metrics["layers"]
        traced = samples["traced session_wall_s"]
        print(f"  traced session_wall_s  {median(traced):>14.6f} s      {spread_note(traced)}")
        for name, value in layers.items():
            print(f"  {name:<40} {value:>16.6f} {unit_of(name)}")
        chosen = layers
    else:
        chosen = {name: metrics[name] for name in E2E}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in chosen.items()},
    }


# ----- several workloads ----------------------------------------------------


def run_children(args, trace: int) -> dict[str, dict]:
    """Run every workload in a process of its own; returns their details."""
    details = {}
    for workload in WORKLOADS:
        path = WORK / f"details-{workload}-seed{args.seed}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--details", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise BenchError(f"{workload} run failed: {proc.stderr.strip()[-2000:]}")
        details[workload] = json.loads(path.read_text(encoding="utf-8"))
    return details


def run_all(args) -> int:
    details = run_children(args, args.trace)
    print("end-to-end metrics by workload:")
    for workload, d in details.items():
        for name, value in d["metrics"].items():
            if name != "layers":
                print(f"  {workload:<7} {name:<18} {value:>14.6f} {unit_of(name)}")
    return 0 if all(d["failed"] == 0 for d in details.values()) else 1


def run_baseline(args) -> int:
    """Regenerate the degree-5 baseline rows from one traced pass per workload."""
    import baseline

    args.seconds = 1
    details = run_children(args, trace=1)
    traces = {w: json.loads((WORK / f"trace-{w}-seed{args.seed}.json").read_text("utf-8"))
              for w in WORKLOADS}
    print("\n".join(baseline.rows(traces)))
    return 0 if all(d["failed"] == 0 for d in details.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the degree-5 baseline rows from a traced run")
    parser.add_argument("--details", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.baseline:
            return run_baseline(args)
        if args.workload == "all":
            return run_all(args)
        metrics, samples, failures, attempted = run_workload(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(args, metrics, samples, failures, attempted)
    if args.details:
        args.details.write_text(json.dumps(
            {"metrics": metrics, "failed": len(failures), "attempted": attempted}), "utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
