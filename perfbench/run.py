"""End-to-end benchmark of the LightPC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload matrix --seed 7 --seconds 20 --trace 0

``--trace 0`` repeats whole passes of the workload for ``--seconds`` (at
least one pass) while a fixed reference probe runs on a timer, and
prints the end-to-end metrics in reference seconds: host time less the
probes, rescaled by the probes' speed around it (see refclock.py), each
task at its median across the passes; ``--trace 1`` alternates
untraced passes with traced ones, whose every layer entry point is
wrapped, and prints the per-layer metrics in host seconds.  Either way
the oracles check the simulated outputs, and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as platform_mod
import resource
import statistics
import sys
import time
from pathlib import Path

import refclock

ROOT = Path(__file__).resolve().parent.parent
#: Benchmark outputs (trace files, materialised campaign traces).
OUT_DIR = ROOT / ".perfbench"

#: Held out from calibration: the figure drivers' default seed is 42.
DEFAULT_SEED = 7
#: Set-up repeats per run at least, and for at least this many seconds
#: in all; ``setup_s`` is their median.
SETUP_REPEATS = 9
SETUP_SECONDS = 1.0
#: Passes per run at least, however long a pass takes; further passes
#: run while the next one is expected to end within ``--seconds``.
MIN_PASSES = 1

#: End-to-end metric name -> unit; every workload reports all of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "task_ms.p50": "ms",
    "task_ms.tail": "ms",
}

_clock = time.perf_counter


def tail_decile(tasks: int) -> int:
    """The highest decile with at least ten of ``tasks`` above it, or
    the ninth when there are too few tasks for any."""
    return max((k for k in range(1, 10) if tasks * (10 - k) >= 100),
               default=9)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(workload, index: int):
    """Host seconds of one pass, and its result."""
    gc.collect()
    began = _clock()
    result = workload.run_pass(index)
    return _clock() - began, result


def measure(workload, seconds: float) -> dict:
    """Untraced run: set-up repeats, warm-up, passes for ``seconds``,
    every time in reference seconds (see refclock.py)."""
    sampler = refclock.Sampler()
    with sampler.running():
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            gc.collect()
            began = refclock.now()
            workload.setup()
            setups.append(refclock.now() - began)
        workload.warmup()

        host, passes = [], []
        start = _clock()
        while len(passes) < MIN_PASSES or (
                (_clock() - start) * (len(passes) + 1) / len(passes)
                <= seconds):
            gc.collect()
            began = _clock()
            passes.append(workload.run_pass(len(passes)))
            host.append(_clock() - began)
    attempted, failed = workload.check(passes)
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)

    # Every pass repeats the same tasks; each task's median across the
    # passes discounts what the rescaling leaves of the host's bursts.
    typical = {key: statistics.median([p.tasks[key] for p in passes])
               for key in passes[0].tasks}
    wall = sum(typical.values())
    latency = [typical[key] for key in passes[0].latency]
    deciles = statistics.quantiles(latency, n=10, method="inclusive")
    tail = tail_decile(len(latency))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": passes[0].ops / wall,
        "task_ms.p50": deciles[4] * 1e3,
        "task_ms.tail": deciles[tail - 1] * 1e3,
    }
    details = {"passes": len(passes), "tasks": len(latency),
               "tail_decile": tail,
               "host_pass_s": [round(s, 4) for s in host],
               "probes": len(sampler.durations),
               "probe_ms.median": round(
                   statistics.median(sampler.durations) * 1e3, 3),
               "sim": dict(workload.sim)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": END_TO_END_UNITS, "details": details}


def measure_traced(workload, seconds: float, trace_file: Path) -> dict:
    """Untraced and traced passes of the same index, alternating.

    The traced passes give the per-layer metrics; the difference of the
    two medians is the tracing overhead.
    """
    import layers
    import suite

    workload.setup()
    workload.warmup()
    tracer = layers.Tracer()
    untraced, traced = [], []
    start = _clock()
    while not traced or _clock() - start < seconds:
        untraced.append(_timed_pass(workload, 0))
        installed = layers.install(tracer)
        try:
            traced.append(_timed_pass(workload, 0))
        finally:
            installed.restore()
    passes = [result for pair in zip(untraced, traced)
              for _, result in pair]
    attempted, failed = workload.check(passes)
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    # Tracing must not change a single simulated output.
    attempted += len(traced)
    failed += suite.count_mismatches([r.digest for _, r in untraced],
                                     [r.digest for _, r in traced])
    untraced_walls = [wall for wall, _ in untraced]
    traced_walls = [wall for wall, _ in traced]

    runs = len(traced_walls)
    values = layers.layer_metrics(
        tracer, trials_requested=getattr(workload, "trials", 0) * runs)
    for name, value in values.items():
        # Work and time per traced pass; ratios and means stand as is.
        if layers.PER_LAYER_UNITS[name] in ("s", "count"):
            values[name] = value / runs
    values.update({name: workload.sim.get(name, 0.0)
                   for name in layers.SIM_METRICS})
    values["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls))
    tracer.write(trace_file)
    return {"attempted": attempted, "failed": failed, "metrics": values,
            "units": layers.PER_LAYER_UNITS,
            "details": {"passes": runs, "trace_file": str(trace_file)}}


def environment() -> dict:
    import numpy

    return {
        "python": platform_mod.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform_mod.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import suite

    factory = suite.WORKLOADS.get(args.workload)
    if factory is None:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workload = factory(args.seed, OUT_DIR, smoke=args.smoke)
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        report = measure_traced(workload, args.seconds, trace_file)
    else:
        report = measure(workload, args.seconds)

    print("details " + json.dumps(report["details"], sort_keys=True))
    metrics = {}
    for name, value in report["metrics"].items():
        unit = report["units"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
