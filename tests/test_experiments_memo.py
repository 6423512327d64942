"""The platform matrix's trace memo: one generation per workload per
call, replayed byte-identically by all three platform cells."""

from collections import Counter

import pytest

from repro.analysis import experiments
from repro.core import machine as machine_module
from repro.core.machine import Machine
from repro.workloads import load_workload
from repro.workloads.trace import TraceGenerator

NAMES = ("aes", "redis", "mcf")
REFS = 4000


@pytest.fixture(autouse=True)
def _fresh_matrix_cache():
    """Every test runs the campaign, never a cached argument set."""
    experiments._matrix_cached.cache_clear()
    yield
    experiments._matrix_cached.cache_clear()


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("engine", ["extent", "scalar", "epoch"])
def test_cells_equal_fresh_generator_runs(engine, seed):
    cells = experiments.platform_matrix(NAMES, REFS, seed=seed, engine=engine)
    assert len(cells) == len(NAMES) * 3
    for (name, platform), replayed in cells.items():
        workload = load_workload(name, refs=REFS, seed=seed)
        fresh = Machine.for_workload(platform, workload, engine=engine).run(
            workload)
        assert replayed.wall_ns == fresh.wall_ns
        assert replayed.backend_counters == fresh.backend_counters
        assert replayed.stats == fresh.stats
        assert replayed.epoch == fresh.epoch


def test_each_thread_generated_once_per_call(monkeypatch):
    calls: Counter = Counter()
    records = TraceGenerator.records

    def counting(self, count):
        if self.profile is not machine_module._KERNEL_NOISE_PROFILE:
            calls[(id(self.profile), self.seed, self.base_address)] += 1
        return records(self, count)

    monkeypatch.setattr(TraceGenerator, "records", counting)
    experiments.platform_matrix(NAMES, 2000, seed=7)
    threads = sum(load_workload(name).threads for name in NAMES)
    assert len(calls) == threads
    assert set(calls.values()) == {1}

    # A second call generates again: nothing outlives the first call.
    experiments._matrix_cached.cache_clear()
    experiments.platform_matrix(NAMES, 2000, seed=7)
    assert set(calls.values()) == {2}


class _MemoSpy:
    """Wraps ``_matrix_trial``; records the memo each cell was given and
    how many entries it held after the cell ran."""

    def __init__(self, trial_fn, fail_at=None) -> None:
        self.trial_fn = trial_fn
        self.fail_at = fail_at
        self.memos: list = []
        self.sizes: list[int] = []

    def __call__(self, trial, rng, memo=None, **kwargs):
        outcome = self.trial_fn(trial, rng, memo=memo, **kwargs)
        self.memos.append(memo)
        self.sizes.append(len(memo))
        if len(self.sizes) == self.fail_at:
            raise RuntimeError("injected trial failure")
        return outcome


def test_one_memo_per_call_emptied_on_return(monkeypatch):
    spy = _MemoSpy(experiments._matrix_trial)
    monkeypatch.setattr(experiments, "_matrix_trial", spy)
    experiments.platform_matrix(NAMES, 2000, seed=7)
    assert len(spy.memos) == len(NAMES) * 3
    assert all(memo is spy.memos[0] for memo in spy.memos)
    assert spy.sizes == [1] * len(spy.memos)
    assert spy.memos[0] == {}

    experiments._matrix_cached.cache_clear()
    experiments.platform_matrix(NAMES, 2000, seed=7)
    assert spy.memos[-1] is not spy.memos[0]


def test_memo_emptied_when_a_trial_raises(monkeypatch):
    spy = _MemoSpy(experiments._matrix_trial, fail_at=2)
    monkeypatch.setattr(experiments, "_matrix_trial", spy)
    with pytest.raises(RuntimeError, match="injected"):
        experiments.platform_matrix(NAMES, 2000, seed=7)
    assert spy.sizes == [1, 1]  # the memo held an entry when it raised
    assert spy.memos[0] == {}


def test_direct_trial_generates():
    key, result = experiments._matrix_trial(
        0, None, names=("aes",), refs=2000, seed=7)
    workload = load_workload("aes", refs=2000, seed=7)
    fresh = Machine.for_workload("legacy", workload).run(workload)
    assert key == ("aes", "legacy")
    assert result.wall_ns == fresh.wall_ns
