"""The benchmark's four workloads and the oracles that check them.

Each workload has the same life cycle, which ``run.py`` times:

* ``setup()`` — the preparation a user pays before the first unit of
  work (repeatable; the runner times several and reports the median);
* ``warmup()`` — untimed work that fills host-side lazy state;
* ``run_pass(index)`` — one fixed unit of work, returning a
  :class:`PassResult` with the time of each of its tasks, its work
  count and a digest of every simulated output.  Every pass of a run
  repeats the same tasks, so the runner can take each task's median
  time across passes;
* ``check(passes)`` — oracle checks outside the timed region, counted
  as attempted and failed operations.

Simulated outputs depend only on ``seed``, so every pass reproduces
the first pass's digest exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import refclock
from repro.analysis import crashfuzz, experiments
from repro.core.machine import Machine
from repro.engine.epoch import EpochEngine
from repro.memory.extent import (
    DirtyExtentMap,
    backend_flush_extents,
    coalesce_lines,
    default_flush_extents,
)
from repro.ocpmem.psm import PSM
from repro.orchestrate import derive_seed, machine_for_workload, machine_pool
from repro.orchestrate import trial_rng
from repro.pecos.kernel import Kernel
from repro.pecos.sng import SnG
from repro.persistence.scheckpc import SCheckPC
from repro.workloads.registry import WORKLOAD_SPECS
from repro.workloads.suites import load_workload, replay_workload

#: Reference seconds while ``run.py`` runs its probe sampler, host
#: seconds otherwise (see refclock.py).
_clock = refclock.now

PLATFORMS = ("legacy", "lightpc_b", "lightpc")

#: Paper values the simulated accuracy metrics are measured against.
PAPER_FIG15_L_VS_LEGACY = 1.12
PAPER_FIG15_B_VS_L = 2.8
PAPER_FIG18_SAVING = 0.69


@dataclass
class PassResult:
    """One pass of a workload."""

    #: work items completed (trace records, trials or cut lines)
    ops: int
    #: host seconds of each timed task, by task name; together they
    #: cover all the timed work of the pass
    tasks: dict[str, float]
    #: the tasks whose times feed the latency percentiles (cells,
    #: trials or busy power cycles)
    latency: tuple[str, ...]
    #: digest of every simulated output of the pass
    digest: str
    #: operations executed / failed by checks made inside the pass
    attempted: int = 0
    failed: int = 0


def digest(value) -> str:
    """SHA-256 of a JSON rendering; floats keep every digit."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(result) -> str:
    """A machine run's simulated outputs: clock, counters, stats tree."""
    return digest({
        "wall_ns": result.wall_ns,
        "counters": result.backend_counters,
        "stats": result.stats,
        "epoch": result.epoch,
    })


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def count_mismatches(expected: list[str], actual: list[str]) -> int:
    """Operations whose digest differs from its oracle's."""
    if len(expected) != len(actual):
        raise ValueError("oracle and result lists differ in length")
    return sum(1 for e, a in zip(expected, actual) if e != a)


# ---------------------------------------------------------------------------
# matrix: the Fig. 15-19 platform matrix as users regenerate it
# ---------------------------------------------------------------------------


@contextmanager
def _replaced(owner, attr: str, replacement):
    """``owner.attr`` is ``replacement`` inside the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class _TrialTimer:
    """Times each call of a campaign's trial function by trial index and
    keeps the outcomes of the sampled trials."""

    def __init__(self, trial_fn, sample=()) -> None:
        self.trial_fn = trial_fn
        self.sample = set(sample)
        self.times: dict[str, float] = {}
        self.kept: dict[int, object] = {}

    def __call__(self, trial, rng, **kwargs):
        began = _clock()
        outcome = self.trial_fn(trial, rng, **kwargs)
        self.times[f"trial{trial}"] = _clock() - began
        if trial in self.sample:
            self.kept[trial] = outcome
        return outcome


class Matrix:
    """All Table II workloads x three platforms, exact engine, serial.

    A pass is ``platform_matrix`` as users call it: a serial
    ``CampaignRunner`` campaign of one ``_matrix_trial`` per cell, with
    no shard cache and its in-process result cache cleared.
    """

    name = "matrix"
    #: replayed through the scalar engine per run
    scalar_samples = 2

    def __init__(self, seed: int, scratch: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.names = ("aes", "redis", "mcf") if smoke else tuple(WORKLOAD_SPECS)
        #: the figure benchmarks' MATRIX_REFS
        self.refs = 2_000 if smoke else 16_000
        #: cells per pass, one campaign trial each
        self.trials = len(self.names) * len(PLATFORMS)
        self.workloads: dict = {}
        self.cell_digests: dict[tuple[str, str], str] = {}
        #: simulated accuracy against the paper (identical every pass)
        self.sim: dict[str, float] = {}

    def setup(self) -> None:
        # Resolve every workload and build each platform once: the
        # first-touch cost a user pays before the first cell finishes.
        self.workloads = {
            name: load_workload(name, refs=self.refs, seed=self.seed)
            for name in self.names
        }
        first = self.workloads[self.names[0]]
        for platform in PLATFORMS:
            Machine.for_workload(platform, first)

    def warmup(self) -> None:
        experiments._matrix_cached.cache_clear()
        experiments.platform_matrix(("aes",), self.refs // 4, seed=self.seed)

    def run_pass(self, index: int) -> PassResult:
        experiments._matrix_cached.cache_clear()
        timer = _TrialTimer(experiments._matrix_trial)
        began = _clock()
        with _replaced(experiments, "_matrix_trial", timer):
            results = experiments.platform_matrix(
                self.names, self.refs, seed=self.seed)
        tasks = dict(timer.times)
        # The runner's own time around the cells.
        tasks["runner"] = _clock() - began - sum(timer.times.values())
        ops = len(PLATFORMS) * sum(
            w.total_refs() for w in self.workloads.values())
        # The figure drivers fetch the matrix at the calibration seed;
        # serve them the cells just run at the benchmark's seed.
        began = _clock()
        with _replaced(experiments, "platform_matrix",
                       lambda *args, **kwargs: results):
            workloads = list(self.names)
            fig15 = experiments.figure15(workloads, self.refs)
            fig16 = experiments.figure16(workloads, self.refs)
            fig18 = experiments.figure18(workloads, self.refs)
            fig19 = experiments.figure19(workloads, self.refs)
        tasks["figures"] = _clock() - began
        cells = {key: run_digest(result) for key, result in results.items()}
        if not self.cell_digests:
            self.cell_digests = cells
        figures = [dataclasses.asdict(f) for f in (fig15, fig16, fig18, fig19)]
        self.sim = {
            "fig15.l_vs_legacy.err": relative_error(
                fig15.notes["lightpc_vs_legacy_mean"], PAPER_FIG15_L_VS_LEGACY),
            "fig15.b_vs_l.err": relative_error(
                fig15.notes["baseline_vs_lightpc_mean"], PAPER_FIG15_B_VS_L),
            "fig18.saving.err": relative_error(
                fig18.notes["lightpc_energy_saving"], PAPER_FIG18_SAVING),
        }
        return PassResult(
            ops=ops, tasks=tasks, latency=tuple(timer.times),
            digest=digest({"cells": sorted(cells.items()), "figures": figures}),
            attempted=len(timer.times))

    def check(self, passes: list[PassResult]) -> tuple[int, int]:
        """Every pass repeats the first; sampled cells match the scalar
        engine, the reference every faster engine must equal."""
        attempted = len(passes)
        failed = count_mismatches([passes[0].digest] * len(passes),
                                  [p.digest for p in passes])
        rng = random.Random(derive_seed(self.seed, 0, "perfbench.matrix"))
        sample = rng.sample(range(self.trials), self.scalar_samples)
        expected, replayed = [], []
        for trial in sample:
            key, result = experiments._matrix_trial(
                trial, trial_rng(self.seed, trial, namespace="platform_matrix"),
                names=self.names, refs=self.refs, seed=self.seed,
                engine="scalar")
            expected.append(self.cell_digests[key])
            replayed.append(run_digest(result))
        attempted += len(sample)
        failed += count_mismatches(expected, replayed)
        return attempted, failed


# ---------------------------------------------------------------------------
# long: steady-state runs under the epoch engine
# ---------------------------------------------------------------------------


class Long:
    """One 1-thread and one 8-thread cell, long traces, epoch engine."""

    name = "long"
    cells = ("mcf", "redis")
    platform = "lightpc"
    engine = "epoch"

    def __init__(self, seed: int, scratch: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.refs = 60_000 if smoke else 200_000
        self.workloads: dict = {}
        self.results: dict = {}
        #: epoch-vs-exact accuracy, filled in by :meth:`check`
        self.sim: dict[str, float] = {}

    def setup(self) -> None:
        self.workloads = {
            name: load_workload(name, refs=self.refs, seed=self.seed)
            for name in self.cells
        }
        for workload in self.workloads.values():
            Machine.for_workload(self.platform, workload, engine=self.engine)

    def warmup(self) -> None:
        for name in self.cells:
            workload = load_workload(name, refs=self.refs // 8, seed=self.seed)
            Machine.for_workload(self.platform, workload,
                                 engine=self.engine).run(workload)

    def run_pass(self, index: int) -> PassResult:
        tasks = {}
        for name, workload in self.workloads.items():
            began = _clock()
            machine = Machine.for_workload(self.platform, workload,
                                           engine=self.engine)
            self.results[name] = machine.run(workload)
            tasks[name] = _clock() - began
        ops = sum(w.total_refs() for w in self.workloads.values())
        return PassResult(
            ops=ops, tasks=tasks, latency=tuple(tasks),
            digest=digest({n: run_digest(r) for n, r in self.results.items()}),
            attempted=len(tasks))

    def reference_errors(self) -> dict[str, float]:
        """Epoch-vs-exact relative error of ``wall_ns`` per cell.

        A cell whose epoch run skipped no window was replayed exactly
        window by window, so only cells that skipped are re-run through
        the exact engine.
        """
        errors = {}
        for name, result in self.results.items():
            if not result.epoch["windows_skipped"]:
                continue
            workload = self.workloads[name]
            exact = Machine.for_workload(self.platform, workload).run(workload)
            errors[name] = relative_error(result.wall_ns, exact.wall_ns)
        return errors

    def check(self, passes: list[PassResult]) -> tuple[int, int]:
        """Passes repeat exactly; skipped epochs stay within tolerance."""
        failed = count_mismatches([passes[0].digest] * len(passes),
                                  [p.digest for p in passes])
        errors = self.reference_errors()
        self.sim = {"epoch.wall.err": max(errors.values(), default=0.0)}
        tolerance = EpochEngine().tolerance
        failed += sum(1 for err in errors.values() if err > tolerance)
        return len(passes) + len(errors), failed


# ---------------------------------------------------------------------------
# campaign: the crashfuzz trace-window campaign, one trial at a time
# ---------------------------------------------------------------------------


class Campaign:
    """``fuzz_trace``: run -> power-fail -> recover -> verify per trial."""

    name = "campaign"
    workload = "aes"
    window = 192

    def __init__(self, seed: int, scratch: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.trials = 20 if smoke else 100
        self.warmup_trials = 5 if smoke else 50
        self.refs = 20_000 if smoke else 120_000
        self.sim: dict[str, float] = {}
        #: every pass runs the same trials
        self.campaign_seed = derive_seed(seed, 0, "perfbench.campaign")
        self.trace_path: Path | None = None
        #: trial index -> pooled-machine outcome, for the replay check
        self.kept: dict[int, object] = {}

    def setup(self) -> None:
        # Materialise the columnar trace and warm the machine pool.
        # Every repeat writes a fresh file so each pays the full cost.
        directory = self.scratch / "campaign-trace"
        shutil.rmtree(directory, ignore_errors=True)
        self.trace_path = crashfuzz.materialize_fuzz_trace(
            self.workload, self.refs, trace_seed=self.seed,
            trace_dir=directory)
        machine_pool().clear()
        replay = replay_workload(self.workload, [self.trace_path],
                                 windows=[(0, self.window)])
        machine_for_workload("lightpc", replay, functional=True)

    def _campaign(self, trials: int, seed: int, timer=None):
        with _replaced(crashfuzz, "trace_trial",
                       timer or crashfuzz.trace_trial):
            return crashfuzz.fuzz_trace(
                trials=trials, window=self.window, seed=seed,
                workload=self.workload, refs=self.refs,
                trace_seed=self.seed, trace_path=self.trace_path)

    def warmup(self) -> None:
        self._campaign(self.warmup_trials, derive_seed(self.seed, -1, "warm"))

    def run_pass(self, index: int) -> PassResult:
        # The first pass keeps two sampled trials for the replay check.
        sample = set() if index else {
            derive_seed(self.seed, i, "sample") % self.trials for i in (0, 1)}
        timer = _TrialTimer(crashfuzz.trace_trial, sample)
        began = _clock()
        report = self._campaign(self.trials, self.campaign_seed, timer)
        tasks = dict(timer.times)
        # The runner's own time around the trials.
        tasks["runner"] = _clock() - began - sum(timer.times.values())
        self.kept.update(timer.kept)
        return PassResult(
            ops=report.trials, tasks=tasks, latency=tuple(timer.times),
            digest=digest(dataclasses.asdict(report)),
            attempted=report.trials, failed=len(report.violations))

    def check(self, passes: list[PassResult]) -> tuple[int, int]:
        """Passes repeat exactly; sampled trials replayed on a freshly
        built machine must equal the pooled machine's outcome."""
        failed = count_mismatches([passes[0].digest] * len(passes),
                                  [p.digest for p in passes])
        for trial, warm in self.kept.items():
            fresh = crashfuzz.trace_trial(
                trial, trial_rng(self.campaign_seed, trial, namespace="trace"),
                window=self.window, workload=self.workload, warm=False,
                refs=self.refs, trace_seed=self.seed,
                trace_path=str(self.trace_path))
            failed += fresh != warm
        attempted = len(passes) + len(self.kept)
        self.kept = {}
        return attempted, failed


# ---------------------------------------------------------------------------
# persist: SnG power cycles and S-CheckPC dumps over a dirty population
# ---------------------------------------------------------------------------


def dirty_population(total_bytes: int, capacity: int, seed: int) -> list[int]:
    """A cache-shaped dirty line set: clustered runs plus scatter."""
    rng = random.Random(seed)
    lines = capacity // 64
    want = total_bytes // 64
    chosen: set[int] = set()
    while len(chosen) < want:
        base = rng.randrange(lines)
        run = rng.choice((1, 8, 16, 32)) if rng.random() < 0.75 else 1
        for i in range(run):
            if len(chosen) >= want:
                break
            chosen.add((base + i) % lines)
    return [line * 64 for line in sorted(chosen)]


@dataclass
class _Population:
    addresses: list[int]
    per_core: list[list]
    counts: list[int]


def _split(addresses: list[int], cores: int) -> _Population:
    per = len(addresses) // cores
    per_core = [coalesce_lines(addresses[i * per:(i + 1) * per])
                for i in range(cores)]
    return _Population(addresses, per_core,
                       [sum(e.lines for e in extents) for extents in per_core])


def port_state(psm) -> dict:
    """A PSM's observable state: its counters and wear registers."""
    return {"counters": psm.counters(),
            "wear": hashlib.sha256(psm.capture_registers()).hexdigest()}


def flush_population(psm, per_core, start: float, flush_fn) -> dict:
    """Auto-Stop's final dump: every core's extents, then the flush port.

    Returns what the cut observes: the completion time, each core's
    flush report and the PSM's state after the drain.
    """
    done = start
    reports = []
    for extents in per_core:
        report = flush_fn(psm, extents, start)
        reports.append((report.lines, report.extents, report.done_ns,
                        report.blocked_ns))
        if report.done_ns > done:
            done = report.done_ns
    flushed = psm.flush(done)
    return {"start": start, "done": flushed if flushed > done else done,
            "reports": reports, **port_state(psm)}


class _FlushPort:
    """SnG's flush port over a fresh PSM per power cycle."""

    def __init__(self) -> None:
        self.psm = PSM()
        self.population: _Population | None = None
        #: :func:`flush_population` outcome of every call
        self.calls: list[dict] = []

    def __call__(self, start: float) -> float:
        outcome = flush_population(self.psm, self.population.per_core, start,
                                   backend_flush_extents)
        self.calls.append(outcome)
        return outcome["done"]

    def dirty_counts(self) -> list[int]:
        return list(self.population.counts)


class Persist:
    """The PSM's write side: SnG Stop -> Go -> verify, S-CheckPC dumps."""

    name = "persist"
    cores = 8
    busy_bytes = 128 << 10
    large_bytes = 2 << 20
    #: busy populations also dumped through S-CheckPC (plus the large one)
    dumps = 2

    def __init__(self, seed: int, scratch: Path, smoke: bool = False) -> None:
        self.seed = seed
        #: a hundred, so the p90 cycle has ten slower ones above it
        self.busy_cycles = 4 if smoke else 100
        self.busy_kinds = 2 if smoke else 8
        self.large_bytes = 256 << 10 if smoke else self.large_bytes
        self.sim: dict[str, float] = {}
        self.sng: SnG | None = None
        self.port: _FlushPort | None = None
        self.busy: list[_Population] = []
        self.large: _Population | None = None
        #: (population, port outcome) of sampled cycles
        self.sampled: list[tuple[_Population, dict]] = []
        #: (population, dump outcome) of sampled S-CheckPC dumps
        self.sampled_dumps: list[tuple[_Population, dict]] = []

    def setup(self) -> None:
        capacity = PSM().capacity
        self.busy = [
            _split(dirty_population(self.busy_bytes, capacity,
                                    derive_seed(self.seed, i, "busy")),
                   self.cores)
            for i in range(self.busy_kinds)
        ]
        self.large = _split(
            dirty_population(self.large_bytes, capacity,
                             derive_seed(self.seed, 0, "large")), self.cores)
        kernel = Kernel()
        kernel.populate()
        self.port = _FlushPort()
        self.sng = SnG(kernel, flush_port=self.port,
                       dirty_lines_fn=self.port.dirty_counts)

    def _cycle(self, population: _Population) -> tuple[bool, dict]:
        self.port.psm = PSM()
        self.port.population = population
        stop = self.sng.stop()
        go = self.sng.go()
        ok = self.sng.verify_resumed_state() and go.warm
        return ok, {"stop": dataclasses.asdict(stop),
                    "go": dataclasses.asdict(go)}

    def _dump(self, population: _Population) -> dict:
        psm = PSM()
        dirty = DirtyExtentMap()
        dirty.note_lines(population.addresses)
        ns = SCheckPC().period_dump_port_ns(psm, dirty)
        return {"ns": ns, **port_state(psm)}

    def warmup(self) -> None:
        # The first cut also drains the world's pending kernel work;
        # every later cut starts from the same parked state.
        for population in self.busy[:2]:
            self._cycle(population)

    def run_pass(self, index: int) -> PassResult:
        tasks = {}
        outputs = []
        failed = 0
        lines = 0
        self.port.calls = []
        cycles = [(f"busy{i}", self.busy[i % len(self.busy)])
                  for i in range(self.busy_cycles)] + [("large", self.large)]
        for key, population in cycles:
            began = _clock()
            ok, reports = self._cycle(population)
            tasks[key] = _clock() - began
            failed += not ok
            outputs.append(reports)
            lines += sum(population.counts)
        dumps = []
        for i, population in enumerate(self.busy[:self.dumps] + [self.large]):
            began = _clock()
            dumps.append(self._dump(population))
            tasks[f"dump{i}"] = _clock() - began
            lines += len(population.addresses)
        if index == 0:
            # Sample the first busy cycle and the large one for the
            # line-loop twin check.
            self.sampled = [(self.busy[0], self.port.calls[0]),
                            (self.large, self.port.calls[-1])]
            self.sampled_dumps = [(self.busy[0], dumps[0]),
                                  (self.large, dumps[-1])]
        return PassResult(
            ops=lines, tasks=tasks,
            latency=tuple(key for key, _ in cycles[:-1]),
            digest=digest({"cycles": outputs, "flush": self.port.calls,
                           "dumps": dumps}),
            attempted=len(outputs) + len(dumps), failed=failed)

    def check(self, passes: list[PassResult]) -> tuple[int, int]:
        """Passes repeat exactly; sampled cuts and dumps equal the
        scalar line-loop twin: completion times, flush reports, PSM
        counters and wear registers."""
        failed = count_mismatches([passes[0].digest] * len(passes),
                                  [p.digest for p in passes])
        for population, outcome in self.sampled:
            twin = flush_population(PSM(), population.per_core,
                                    outcome["start"], default_flush_extents)
            failed += twin != outcome
        for population, dumped in self.sampled_dumps:
            psm = PSM()
            dirty = DirtyExtentMap()
            dirty.note_lines(population.addresses)
            report = default_flush_extents(psm, dirty.take(), 0.0)
            twin = {"ns": max(report.done_ns, psm.flush(0.0)),
                    **port_state(psm)}
            failed += twin != dumped
        return len(passes) + len(self.sampled) + len(self.sampled_dumps), failed


WORKLOADS = {cls.name: cls for cls in (Matrix, Long, Campaign, Persist)}
