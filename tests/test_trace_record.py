"""The ``TraceRecord`` contract and a golden digest of generated traces."""

import hashlib

import pytest

from repro.workloads import TraceGenerator
from repro.workloads.registry import spec
from repro.workloads.stream import stream_kernel
from repro.workloads.trace import TraceRecord
from repro.workloads.trace_io import (
    RecordStream,
    load_trace,
    open_trace,
    save_trace,
    save_trace_columnar,
)

#: SHA-256 of ``instructions,address,is_write;`` over 500 records each of
#: aes, redis and mcf at seeds 0 and 42, based at 1 MiB.  Pinned so a
#: rewrite of the generator cannot change the traces silently.
GOLDEN_TRACE_DIGEST = (
    "9ef4062f6910c6019ddad2b0fbcb9073a23bfbb52e1195b8e9d64671c67fbdd4")


def _generated(count=200):
    return list(TraceGenerator(spec("redis").profile, seed=3).records(count))


class TestContract:
    def test_fields_and_order(self):
        assert TraceRecord._fields == ("instructions", "address", "is_write")

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = TraceRecord(instructions=3, address=64, is_write=True)
        by_position = TraceRecord(3, 64, True)
        assert by_keyword == by_position
        assert (by_keyword.instructions, by_keyword.address,
                by_keyword.is_write) == (3, 64, True)

    def test_compares_and_unpacks_as_a_tuple(self):
        record = TraceRecord(3, 64, False)
        assert record == (3, 64, False)
        instructions, address, is_write = record
        assert (instructions, address, is_write) == (3, 64, False)

    def test_immutable(self):
        record = TraceRecord(3, 64, False)
        for name in TraceRecord._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)

    def test_hashable(self):
        assert len({TraceRecord(1, 8, False), TraceRecord(1, 8, False)}) == 1


class TestIsWriteIsBool:
    """Every producer yields ``is_write`` as a ``bool``, never 0/1."""

    @staticmethod
    def _assert_bools(records):
        records = list(records)
        assert records
        assert all(type(r.is_write) is bool for r in records)
        assert {r.is_write for r in records} == {False, True}

    def test_generator(self):
        self._assert_bools(_generated())

    def test_generator_windows(self):
        generator = TraceGenerator(spec("redis").profile, seed=3)
        self._assert_bools(r for w in generator.windows(200, 64) for r in w)

    def test_trace_window_iteration(self, tmp_path):
        path = tmp_path / "t.coltrace"
        save_trace_columnar(_generated(), path)
        trace = open_trace(path, shared=False)
        self._assert_bools(trace.window(10, 190))
        self._assert_bools(trace.records())

    def test_row_format_load(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(_generated(), path)
        self._assert_bools(load_trace(path))

    def test_stream_kernel(self):
        self._assert_bools(stream_kernel("triad", elements=64))

    def test_record_stream(self):
        self._assert_bools(RecordStream(_generated()))


class TestGoldenTraces:
    def test_generated_traces_unchanged(self):
        digest = hashlib.sha256()
        for name in ("aes", "redis", "mcf"):
            for seed in (0, 42):
                generator = TraceGenerator(
                    spec(name).profile, seed=seed, base_address=1 << 20)
                for r in generator.records(500):
                    digest.update(
                        f"{r.instructions},{r.address},{int(r.is_write)};"
                        .encode())
        assert digest.hexdigest() == GOLDEN_TRACE_DIGEST
