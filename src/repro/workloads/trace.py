"""Locality-controlled synthetic memory-reference traces.

The paper's 17 workloads were ported to RISC-V and run on the prototype;
here they are substituted by synthetic traces whose *measurable*
characteristics — read/write mix, D$ hit ratios, row-buffer locality,
read-after-write tendency — are controlled by a :class:`LocalityProfile`
and land near the paper's Table II when replayed through the real cache
model (the characterization experiment measures them back; see
``repro.analysis.experiments.table2``).

The generator composes four address streams:

* a **hot set** sized to (mostly) fit the 16 KB D$ — temporal reuse,
* **sequential runs** at 8 B stride — spatial locality within lines,
* a **cold working set** — capacity misses,
* a **recent-write window** — read-after-write traffic, the access
  pattern that provokes the head-of-line blocking LightPC's PSM removes.

Writes cluster in a slowly-rotating *write page* with configurable
probability, which is what produces PSM row-buffer hits and, in the
baseline, write bursts that serialize on the PRAM dies.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.memory.request import CACHELINE_BYTES, ROW_BYTES

__all__ = ["LocalityProfile", "TraceGenerator", "TraceRecord"]

_WORD = 8  # access granularity within a line


class TraceRecord(NamedTuple):
    """One memory reference plus the compute preceding it.

    A named tuple, not a dataclass: immutable with the same fields, but
    built at tuple speed, which matters because every reference of
    every trace is one record.  It compares and unpacks as the tuple
    ``(instructions, address, is_write)``.
    """

    instructions: int
    address: int
    is_write: bool


@dataclass(frozen=True)
class LocalityProfile:
    """Knobs controlling a synthetic workload's memory behaviour."""

    working_set_lines: int = 16_384
    hot_lines: int = 192
    hot_fraction: float = 0.9
    #: Expected length (in 8 B words) of a sequential run.
    sequential_run: float = 8.0
    #: Probability a reference enters/continues a sequential run.
    sequential_fraction: float = 0.2
    write_fraction: float = 0.2
    #: Probability a read targets the page of a recent write.  This is the
    #: *CPU-level* probability; keep it near the target miss rate so the
    #: D$ hit ratio survives — the share of *memory-level* reads that are
    #: read-after-write is then raw / miss-rate.
    read_after_write: float = 0.1
    #: Probability a write lands in the current write page.
    write_page_locality: float = 0.7
    #: Probability a write re-dirties a recently written line (store
    #: temporal locality; drives the D$ write-hit ratio).
    write_line_reuse: float = 0.0
    #: Mean compute instructions between memory references.
    instructions_per_access: float = 3.0

    def __post_init__(self) -> None:
        if self.hot_lines > self.working_set_lines:
            raise ValueError("hot set cannot exceed the working set")
        for name in ("hot_fraction", "sequential_fraction", "write_fraction",
                     "read_after_write", "write_page_locality",
                     "write_line_reuse"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


class TraceGenerator:
    """Deterministic, lazily-evaluated trace stream for one thread."""

    RECENT_WRITES = 64

    def __init__(
        self,
        profile: LocalityProfile,
        seed: int = 0,
        base_address: int = 0,
        footprint_limit: int | None = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.base_address = base_address
        self.footprint_limit = footprint_limit

    def records(self, count: int) -> Iterator[TraceRecord]:
        """Yield ``count`` trace records (regenerable: same seed, same trace)."""
        p = self.profile
        rng = random.Random((self.seed << 16) ^ 0x5CA1AB1E)
        ws_bytes = p.working_set_lines * CACHELINE_BYTES
        if self.footprint_limit is not None:
            ws_bytes = min(ws_bytes, self.footprint_limit)
        hot_bytes = min(p.hot_lines * CACHELINE_BYTES, ws_bytes)
        recent_writes: deque[int] = deque(maxlen=self.RECENT_WRITES)
        seq_pos = 0
        seq_left = 0
        write_page = 0
        continue_run = (
            1.0 - 1.0 / p.sequential_run if p.sequential_run > 1 else 0.0
        )

        for _ in range(count):
            gap = p.instructions_per_access
            instructions = int(rng.expovariate(1.0 / gap)) if gap > 0 else 0
            is_write = rng.random() < p.write_fraction

            if is_write:
                if recent_writes and rng.random() < p.write_line_reuse:
                    # store temporal locality: re-dirty a hot line
                    address = rng.choice(recent_writes) + rng.randrange(
                        0, CACHELINE_BYTES, _WORD
                    )
                elif rng.random() < p.write_page_locality:
                    address = write_page * ROW_BYTES + rng.randrange(
                        0, ROW_BYTES, _WORD
                    )
                else:
                    address = rng.randrange(0, ws_bytes, _WORD)
                    write_page = address // ROW_BYTES
                recent_writes.append(address - address % CACHELINE_BYTES)
            elif recent_writes and rng.random() < p.read_after_write:
                # Read-after-write traffic targets the *page* of a recent
                # store: sibling lines of a freshly-dirtied region (wrf's
                # forecast-history pattern).  The exact written line would
                # still be cached; its page neighbours reach memory and
                # collide with the in-flight programming.
                written = rng.choice(recent_writes)
                page_base = written - written % ROW_BYTES
                address = page_base + rng.randrange(0, ROW_BYTES, _WORD)
            elif seq_left > 0 or rng.random() < p.sequential_fraction:
                if seq_left <= 0:
                    # streams mostly revisit the hot region (loop bodies
                    # re-scanning resident arrays); cold streams are rare
                    span = hot_bytes if rng.random() < p.hot_fraction else ws_bytes
                    seq_pos = rng.randrange(0, span, _WORD)
                    seq_left = max(1, int(rng.expovariate(1.0 / p.sequential_run)))
                address = seq_pos
                seq_pos = (seq_pos + _WORD) % ws_bytes
                seq_left -= 1
                if rng.random() > continue_run:
                    seq_left = 0
            elif rng.random() < p.hot_fraction:
                address = rng.randrange(0, hot_bytes, _WORD)
            else:
                address = rng.randrange(0, ws_bytes, _WORD)

            yield TraceRecord(instructions, self.base_address + address, is_write)

    def columns(self, count: int) -> tuple[list[int], list[int], list[bool]]:
        """The same trace as (instructions, addresses, is_write) columns.

        Same records in the same order as :meth:`records`, shaped for
        :func:`repro.workloads.trace_io.save_trace_columnar`.
        """
        instructions: list[int] = []
        addresses: list[int] = []
        writes: list[bool] = []
        for record in self.records(count):
            instructions.append(record.instructions)
            addresses.append(record.address)
            writes.append(record.is_write)
        return instructions, addresses, writes

    def windows(
        self, count: int, window: int = 4096
    ) -> Iterator[list[TraceRecord]]:
        """The same trace chunked into record windows.

        Same records in the same order as :meth:`records`; the chunked
        shape feeds :meth:`repro.cpu.core.Core.execute_window` and the
        batched memory path without per-record dispatch.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        records = self.records(count)
        while True:
            chunk = list(itertools.islice(records, window))
            if not chunk:
                return
            yield chunk
