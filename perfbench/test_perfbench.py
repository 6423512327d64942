"""Self-tests of the end-to-end benchmark (smoke-sized inputs).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _result(workload: str, trace: int) -> dict:
    done = _bench(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _result(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        layers.PER_LAYER_UNITS
    assert set(suite.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


def test_tail_decile_leaves_ten_tasks_above_it():
    assert run.tail_decile(51) == 8  # matrix cells: p80
    assert run.tail_decile(100) == 9  # campaign trials, persist cycles
    assert run.tail_decile(2) == 9  # long: too few for any


def test_runs_refuse_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "matrix", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _prepared(name: str, tmp_path):
    workload = suite.WORKLOADS[name](5, tmp_path, smoke=True)
    workload.setup()
    return workload


def test_corrupted_matrix_oracle_counts_failures(tmp_path):
    workload = _prepared("matrix", tmp_path)
    passes = [workload.run_pass(0)]
    assert workload.check(passes)[1] == 0
    workload.cell_digests = {key: "0" * 64 for key in workload.cell_digests}
    assert workload.check(passes)[1] == workload.scalar_samples


def test_corrupted_long_result_counts_a_failure(tmp_path):
    workload = suite.Long(5, tmp_path, smoke=True)
    workload.refs = 200_000  # long enough for the epoch engine to skip
    workload.setup()
    passes = [workload.run_pass(0)]
    assert workload.results["mcf"].epoch["windows_skipped"] > 0
    assert workload.check(passes) == (2, 0)
    workload.results["mcf"].complex_result.wall_ns *= 1.5
    assert workload.check(passes)[1] == 1


def test_corrupted_campaign_outcome_counts_a_failure(tmp_path):
    workload = _prepared("campaign", tmp_path)
    passes = [workload.run_pass(0)]
    outcome = next(iter(workload.kept.values()))
    outcome.operations += 1
    assert workload.check(passes)[1] == 1


def test_corrupted_persist_twin_counts_failures(tmp_path):
    workload = _prepared("persist", tmp_path)
    workload.warmup()
    passes = [workload.run_pass(0), workload.run_pass(1)]
    assert workload.check(passes)[1] == 0
    population, outcome = workload.sampled[0]
    counters = dict(outcome["counters"], media_line_writes=-1)
    workload.sampled[0] = (population, dict(outcome, counters=counters))
    population, dumped = workload.sampled_dumps[0]
    workload.sampled_dumps[0] = (population, dict(dumped, wear="0" * 64))
    passes[1].digest = "0" * 64
    assert workload.check(passes)[1] == 3


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_traced_pass_reproduces_untraced_digest(name, tmp_path):
    workload = _prepared(name, tmp_path)
    workload.warmup()
    untraced = workload.run_pass(0)
    tracer = layers.Tracer()
    installed = layers.install(tracer)
    try:
        traced = workload.run_pass(0)
    finally:
        installed.restore()
    assert traced.digest == untraced.digest
    assert tracer.by_name(), "no span was recorded"


def test_tracer_self_time_excludes_children():
    tracer = layers.Tracer()
    outer = tracer.enter("outer")
    for _ in range(3):
        inner = tracer.enter("inner", hot=True)
        tracer.exit(inner)
    tracer.exit(outer)
    spans = tracer.by_name()
    assert spans["inner"]["calls"] == 3
    assert len(tracer.name) == 2  # the hot siblings share one row
    assert tracer.parent[1] == 0
    total = spans["outer"]["total_s"]
    assert spans["outer"]["self_s"] == pytest.approx(
        total - spans["inner"]["total_s"])


def test_reference_clock_rescales_host_time_and_leaves_probes_out(
        monkeypatch):
    host = [0.0]
    took = [0.002]
    monkeypatch.setattr(refclock, "_perf", lambda: host[0])

    def probe():
        host[0] += took[0]

    monkeypatch.setattr(refclock, "probe", probe)
    sampler = refclock.Sampler()
    for _ in range(refclock.WINDOW):
        sampler._probe()
    scale = refclock.REFERENCE_PROBE_S / 0.002
    began = sampler.now()
    host[0] += 1.0
    assert sampler.now() - began == pytest.approx(scale)
    sampler._probe()  # the probe's own time is left out
    assert sampler.now() - began == pytest.approx(scale)
    took[0] = 0.004  # the host slows down by half
    sampler._probe()
    host[0] += 1.0
    slower = refclock.REFERENCE_PROBE_S * refclock.WINDOW / (
        0.002 * (refclock.WINDOW - 2) + 0.002 + 0.004)
    assert sampler.now() - began == pytest.approx(scale + slower)


def test_sampler_probes_on_a_timer_only_while_running():
    sampler = refclock.Sampler(period=0.01)
    with sampler.running():
        began = time.perf_counter()
        while time.perf_counter() - began < 0.2:
            pass
        assert refclock.now() == pytest.approx(sampler.now(), abs=0.01)
    assert len(sampler.durations) > refclock.WINDOW + 5
    count = len(sampler.durations)
    time.sleep(0.05)
    assert len(sampler.durations) == count
    began = refclock.now()
    assert refclock.now() - began < 0.01  # host seconds again
