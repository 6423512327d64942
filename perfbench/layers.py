"""Layer tracing for the end-to-end benchmark.

A :class:`Tracer` records spans in memory: one row per span, carrying
its parent row, so a layer's self time is its duration minus the time
its child spans cover.  Layers whose entry points run once per trace
record or per memory access (``hot`` spans) would produce millions of
rows per pass, so their sibling spans under one parent merge into a
single row with a call count — the same parent links and exact self
time, bounded memory.

:func:`install` wraps the public entry points of each layer, from this
file only; :meth:`Installed.restore` puts the originals back.  Nothing
in the package under test knows it is traced.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

from repro.analysis import crashfuzz, experiments
from repro.core.machine import Machine
from repro.cpu.core import Core
from repro.engine.epoch import EpochEngine
from repro.engine.extent import ExtentEngine
from repro.engine.scalar import ScalarEngine
from repro.engine.window import WindowEngine
from repro.memory.dram import DRAMSubsystem
from repro.ocpmem.psm import PSM
from repro.orchestrate import CampaignRunner, MachinePool, machine_pool
from repro.pecos.kernel import Kernel
from repro.pecos.sng import SnG
from repro.persistence.scheckpc import SCheckPC
from repro.sim.stats import StatsRegistry
from repro.workloads.trace import TraceGenerator

_clock = time.perf_counter

#: Memory tiers whose port surfaces are traced; every port call is
#: counted with the requests it carried.
_BACKENDS = (
    (DRAMSubsystem, "memory.dram"),
    (PSM, "ocpmem.psm"),
)

#: Names of the figure drivers the matrix workload derives.
FIGURES = ("figure15", "figure16", "figure18", "figure19")


class Tracer:
    """In-memory span table with exact self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One column per field; row ``i`` is one span (or, for hot
        # names, every sibling span of that name under one parent).
        self.name = array("i")
        self.parent = array("i")
        self.count = array("q")
        self.start = array("d")
        self.end = array("d")
        self.total = array("d")
        self.self_s = array("d")
        self._stack: list[list] = []
        self._hot: dict[tuple[int, int], int] = {}
        #: named work counters recorded at the same boundaries
        self.counters: dict[str, float] = defaultdict(float)
        #: return values the simulated per-layer metrics are read from
        self.results: dict[str, list] = defaultdict(list)
        #: open ``engine.drain`` spans (records executed inside count as
        #: drained, the rest went through the per-record heap loop)
        self.in_drain = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _new_row(self, nid: int, parent: int, start: float) -> int:
        self.name.append(nid)
        self.parent.append(parent)
        self.count.append(0)
        self.start.append(start)
        self.end.append(start)
        self.total.append(0.0)
        self.self_s.append(0.0)
        return len(self.name) - 1

    def enter(self, name: str, hot: bool = False) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        nid = self._name_id(name)
        now = _clock()
        if hot:
            row = self._hot.get((parent, nid))
            if row is None:
                row = self._hot[(parent, nid)] = self._new_row(nid, parent, now)
        else:
            row = self._new_row(nid, parent, now)
        frame = [row, now, 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        now = _clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span closed out of order")
        row, began, children = frame
        duration = now - began
        self.count[row] += 1
        self.end[row] = now
        self.total[row] += duration
        self.self_s[row] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per-name totals: calls, self seconds, inclusive seconds."""
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for name in self.names
        }
        for row in range(len(self.name)):
            entry = out[self.names[self.name[row]]]
            entry["calls"] += self.count[row]
            entry["self_s"] += self.self_s[row]
            entry["total_s"] += self.total[row]
        return out

    def write(self, path: Path) -> None:
        """Write every span row (and the counters) as one JSON document."""
        rows = [
            [row, self.names[self.name[row]], self.parent[row],
             self.count[row], self.start[row], self.end[row],
             self.total[row], self.self_s[row]]
            for row in range(len(self.name))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["id", "name", "parent", "count", "start_s",
                        "end_s", "total_s", "self_s"],
            "spans": rows,
            "counters": dict(self.counters),
        }))


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn, hot: bool = False, after=None):
    """``fn`` inside a span; ``after(args, result)`` records counts."""

    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, hot)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(args, result)
        return result

    return functools.wraps(fn)(wrapper)


def _timed_records(tracer: Tracer, inner):
    """Yield from a record iterator, each ``next`` inside a hot span."""
    counters = tracer.counters
    while True:
        frame = tracer.enter("workloads.gen", hot=True)
        try:
            record = next(inner)
        except StopIteration:
            return
        finally:
            tracer.exit(frame)
        counters["workloads.records"] += 1
        yield record


class Installed:
    """The set of wrapped entry points; :meth:`restore` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        pool = machine_pool()
        self._pool_counts = (pool.built, pool.reused)

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, hot: bool = False,
             after=None) -> None:
        self.patch(owner, attr,
                   _span(self.tracer, name, owner.__dict__[attr], hot, after))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        pool = machine_pool()
        built, reused = self._pool_counts
        self.tracer.counters["orchestrate.pool.built"] += pool.built - built
        self.tracer.counters["orchestrate.pool.reused"] += pool.reused - reused


def install(tracer: Tracer) -> Installed:
    """Wrap every measured layer's public entry points."""
    installed = Installed(tracer)
    counters = tracer.counters
    results = tracer.results

    def count(key: str, amount=1):
        def after(args, result):
            counters[key] += amount(args) if callable(amount) else amount
        return after

    # workloads: every generated trace record
    generate = TraceGenerator.__dict__["records"]
    installed.patch(
        TraceGenerator, "records",
        lambda self, *a, **k: _timed_records(tracer, generate(self, *a, **k)))

    # core: machine construction, runs, warm-pool resets
    installed.wrap(Machine, "__init__", "core.build")
    installed.wrap(Machine, "run", "core.run",
                   after=lambda args, result: results["run"].append(result))
    installed.wrap(Machine, "reset", "core.reset")

    # cpu: the per-record heap loop and the windowed loop
    execute = Core.__dict__["execute"]

    def traced_execute(self, *args, **kwargs):
        frame = tracer.enter("cpu.execute", hot=True)
        try:
            return execute(self, *args, **kwargs)
        finally:
            tracer.exit(frame)
            if tracer.in_drain:
                counters["engine.drain.records"] += 1
            else:
                counters["cpu.heap.records"] += 1

    installed.patch(Core, "execute", traced_execute)

    def window_records(args, result):
        records = len(args[1])
        counters["cpu.execute_window.records"] += records
        if tracer.in_drain:
            counters["engine.drain.records"] += records

    installed.wrap(Core, "execute_window", "cpu.execute_window",
                   after=window_records)

    # engine: trace drains and persistence-cut cache dumps.  An engine
    # that delegates to an inherited drain is counted once.
    for cls in (ScalarEngine, WindowEngine, ExtentEngine, EpochEngine):
        if "drain" in cls.__dict__:
            installed.patch(cls, "drain", _outer_drain(
                tracer, cls.__dict__["drain"]))
        if "flush_cache" in cls.__dict__:
            installed.wrap(cls, "flush_cache", "engine.flush_cache")

    # memory tiers: port calls and the requests they carried
    for cls, layer in _BACKENDS:
        installed.wrap(cls, "access", f"{layer}.access", hot=True,
                       after=count(f"{layer}.access.requests"))
        installed.wrap(
            cls, "access_batch", f"{layer}.access_batch",
            after=count(f"{layer}.access_batch.requests",
                        lambda args: len(args[1])))
        installed.wrap(
            cls, "flush_extents", f"{layer}.flush_extents",
            after=_flush_counts(counters, layer))

    # pecos: the persistence cut and the world reset
    installed.wrap(SnG, "stop", "pecos.sng.stop",
                   after=lambda args, result: results["stop"].append(result))
    installed.wrap(SnG, "go", "pecos.sng.go",
                   after=lambda args, result: results["go"].append(result))
    installed.wrap(SnG, "verify_resumed_state", "pecos.sng.verify")
    installed.wrap(Kernel, "reset_world", "pecos.kernel.reset_world")

    # persistence: S-CheckPC period dumps
    installed.wrap(SCheckPC, "period_dump_port_ns", "persistence.scheckpc.dump")

    # orchestrate: the campaign runner, its trials and the machine pool
    installed.wrap(CampaignRunner, "run", "orchestrate.run")
    installed.wrap(CampaignRunner, "run_summaries", "orchestrate.run")
    installed.wrap(crashfuzz, "trace_trial", "orchestrate.trial")
    installed.wrap(experiments, "_matrix_trial", "orchestrate.trial")
    installed.wrap(MachinePool, "lease", "orchestrate.pool.lease")

    # sim: stats tree snapshots
    installed.wrap(StatsRegistry, "snapshot", "sim.stats.snapshot")

    # analysis: the figure derivations
    for name in FIGURES:
        installed.wrap(experiments, name, "analysis.figures")
    return installed


def _outer_drain(tracer: Tracer, drain):
    spanned = _span(tracer, "engine.drain", drain)

    def traced_drain(*args, **kwargs):
        if tracer.in_drain:
            return drain(*args, **kwargs)
        tracer.in_drain += 1
        try:
            return spanned(*args, **kwargs)
        finally:
            tracer.in_drain -= 1

    return traced_drain


def _flush_counts(counters, layer: str):
    def after(args, result):
        counters[f"{layer}.flush_extents.requests"] += result.lines
        counters["memory.extent.lines"] += result.lines
        counters["memory.extent.extents"] += result.extents
    return after


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Per-layer metric name -> unit, in report order.  Every traced run
#: reports all of them; a layer a workload never enters reads 0.
PER_LAYER_UNITS: dict[str, str] = {
    "workloads.gen.self_s": "s",
    "workloads.records": "count",
    "core.build.calls": "count",
    "core.build.self_s": "s",
    "core.run.self_s": "s",
    "core.reset.self_s": "s",
    "cpu.execute.calls": "count",
    "cpu.execute.self_s": "s",
    "cpu.execute_window.records": "count",
    "cpu.execute_window.self_s": "s",
    "cpu.heap_share": "ratio",
    "cpu.dcache.read_hit": "ratio",
    "cpu.stall_share": "ratio",
    "engine.drain.calls": "count",
    "engine.drain.records": "count",
    "engine.drain.self_s": "s",
    "engine.flush_cache.self_s": "s",
    "engine.epoch.skip_share": "ratio",
    "engine.epoch.windows_skipped": "count",
    "engine.epoch.windows_exact": "count",
    "engine.epoch.forced_exact": "count",
}
for _layer in ("memory.dram", "ocpmem.psm"):
    for _surface in ("access", "access_batch", "flush_extents"):
        PER_LAYER_UNITS[f"{_layer}.{_surface}.calls"] = "count"
        PER_LAYER_UNITS[f"{_layer}.{_surface}.requests"] = "count"
        PER_LAYER_UNITS[f"{_layer}.{_surface}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "memory.requests_per_call": "ratio",
    "memory.dram.row_buffer_hit": "ratio",
    "ocpmem.psm.row_buffer_hit": "ratio",
    "ocpmem.psm.read_latency_ns": "ns",
    "memory.extent.lines_per_extent": "ratio",
    "memory.extent.lines_per_s": "1/s",
    "pecos.sng.stop.self_s": "s",
    "pecos.sng.go.self_s": "s",
    "pecos.sng.verify.self_s": "s",
    "pecos.kernel.reset_world.self_s": "s",
    "pecos.sng.stop_ms": "ms",
    "pecos.sng.process_stop_ms": "ms",
    "pecos.sng.device_stop_ms": "ms",
    "pecos.sng.offline_ms": "ms",
    "pecos.sng.go_ms": "ms",
    "persistence.scheckpc.dump.self_s": "s",
    "orchestrate.run.self_s": "s",
    "orchestrate.trials": "count",
    "orchestrate.retries": "count",
    "orchestrate.pool.reuse_ratio": "ratio",
    "orchestrate.pool.lease.self_s": "s",
    "sim.stats.snapshot.calls": "count",
    "sim.stats.snapshot.self_s": "s",
    "analysis.figures.self_s": "s",
    "fig15.l_vs_legacy.err": "ratio",
    "fig15.b_vs_l.err": "ratio",
    "fig18.saving.err": "ratio",
    "epoch.wall.err": "ratio",
    "trace.overhead_s": "s",
})

#: Simulated accuracy, read from the workload's own outputs (0 on the
#: workloads that do not produce it).
SIM_METRICS = ("fig15.l_vs_legacy.err", "fig15.b_vs_l.err",
               "fig18.saving.err", "epoch.wall.err")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, trials_requested: int = 0) -> dict[str, float]:
    """Per-layer metrics from one traced run (totals over its passes).

    ``trials_requested`` is how many campaign trials the traced passes
    asked for; trials executed beyond it are retries.
    """
    spans = tracer.by_name()
    counters = tracer.counters

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    out: dict[str, float] = {
        "workloads.gen.self_s": span("workloads.gen", "self_s"),
        "workloads.records": counters["workloads.records"],
        "core.build.calls": span("core.build", "calls"),
        "core.build.self_s": span("core.build", "self_s"),
        "core.run.self_s": span("core.run", "self_s"),
        "core.reset.self_s": span("core.reset", "self_s"),
        "cpu.execute.calls": span("cpu.execute", "calls"),
        "cpu.execute.self_s": span("cpu.execute", "self_s"),
        "cpu.execute_window.records": counters["cpu.execute_window.records"],
        "cpu.execute_window.self_s": span("cpu.execute_window", "self_s"),
        "engine.drain.calls": span("engine.drain", "calls"),
        "engine.drain.records": counters["engine.drain.records"],
        "engine.drain.self_s": span("engine.drain", "self_s"),
        "engine.flush_cache.self_s": span("engine.flush_cache", "self_s"),
    }

    runs = tracer.results["run"]
    epochs = [run.epoch for run in runs if run.epoch]
    skipped = sum(e["records_skipped"] for e in epochs)
    exact = sum(e["records_exact"] for e in epochs)
    psm_runs = [run for run in runs if run.platform != "legacy"]
    heap = counters["cpu.heap.records"]
    out.update({
        # Every record a run consumed went through the heap loop, was
        # drained exactly, or was skipped by the epoch engine.
        "cpu.heap_share": _ratio(
            heap, heap + counters["engine.drain.records"] + skipped),
        "cpu.dcache.read_hit": _mean(run.cache_read_hit for run in runs),
        "cpu.stall_share": _mean(
            run.complex_result.memory_stall_fraction for run in runs),
        "engine.epoch.skip_share": _ratio(skipped, skipped + exact),
        "engine.epoch.windows_skipped": sum(
            e["windows_skipped"] for e in epochs),
        "engine.epoch.windows_exact": sum(e["windows_exact"] for e in epochs),
        "engine.epoch.forced_exact": sum(
            e["windows_forced_exact"] for e in epochs),
        "memory.dram.row_buffer_hit": _mean(
            run.row_buffer_hit for run in runs if run.platform == "legacy"),
        "ocpmem.psm.row_buffer_hit": _mean(
            run.row_buffer_hit for run in psm_runs),
        "ocpmem.psm.read_latency_ns": _mean(
            run.mean_read_latency_ns for run in psm_runs),
    })

    calls = requests = 0.0
    for layer in ("memory.dram", "ocpmem.psm"):
        for surface in ("access", "access_batch", "flush_extents"):
            name = f"{layer}.{surface}"
            n = span(name, "calls")
            r = counters[f"{name}.requests"]
            out[f"{name}.calls"] = n
            out[f"{name}.requests"] = r
            out[f"{name}.self_s"] = span(name, "self_s")
            calls += n
            requests += r
    flush_s = span("memory.dram.flush_extents", "total_s") + span(
        "ocpmem.psm.flush_extents", "total_s")
    out["memory.requests_per_call"] = _ratio(requests, calls)
    out["memory.extent.lines_per_extent"] = _ratio(
        counters["memory.extent.lines"], counters["memory.extent.extents"])
    out["memory.extent.lines_per_s"] = _ratio(
        counters["memory.extent.lines"], flush_s)

    stops = tracer.results["stop"]
    goes = tracer.results["go"]
    out.update({
        "pecos.sng.stop.self_s": span("pecos.sng.stop", "self_s"),
        "pecos.sng.go.self_s": span("pecos.sng.go", "self_s"),
        "pecos.sng.verify.self_s": span("pecos.sng.verify", "self_s"),
        "pecos.kernel.reset_world.self_s": span(
            "pecos.kernel.reset_world", "self_s"),
        "pecos.sng.stop_ms": _mean(s.total_ms for s in stops),
        "pecos.sng.process_stop_ms": _mean(
            s.process_stop_ns / 1e6 for s in stops),
        "pecos.sng.device_stop_ms": _mean(
            s.device_stop_ns / 1e6 for s in stops),
        "pecos.sng.offline_ms": _mean(s.offline_ns / 1e6 for s in stops),
        "pecos.sng.go_ms": _mean(g.total_ms for g in goes),
        "persistence.scheckpc.dump.self_s": span(
            "persistence.scheckpc.dump", "self_s"),
    })

    built = counters["orchestrate.pool.built"]
    reused = counters["orchestrate.pool.reused"]
    trials = span("orchestrate.trial", "calls")
    out.update({
        "orchestrate.run.self_s": span("orchestrate.run", "self_s"),
        "orchestrate.trials": trials,
        "orchestrate.retries": max(0, trials - trials_requested),
        "orchestrate.pool.reuse_ratio": _ratio(reused, built + reused),
        "orchestrate.pool.lease.self_s": span(
            "orchestrate.pool.lease", "self_s"),
        "sim.stats.snapshot.calls": span("sim.stats.snapshot", "calls"),
        "sim.stats.snapshot.self_s": span("sim.stats.snapshot", "self_s"),
        "analysis.figures.self_s": span("analysis.figures", "self_s"),
    })
    return out
