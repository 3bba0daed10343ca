"""Access-trace representation and the memory-locality summary.

A trace describes, per logical workgroup, the ordered byte ranges it reads
and writes against a set of buffers laid out in one global address space.
Traces stay at byte-range granularity; the cache simulator quantizes to
lines, so generators never need to know the line size.

Workgroup streams are materialized lazily (a stream function per trace)
because desk-scale kernels can reach tens of millions of records; the
simulator only ever holds the streams of currently-resident workgroups.

Multi-phase kernels are modeled as waves: each wave is one dispatch over
the same launch grid, and all workgroups of a wave finish before the next
wave starts (cache contents persist). A workgroup with no work in some
wave simply has an empty stream there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .patterns import GridSpec

BUFFER_ALIGN = 65536  # base offsets stay line-aligned for any line size <= 64 KiB


@dataclass(frozen=True)
class Buffer:
    buffer_id: int
    name: str
    length_bytes: int
    base_offset: int


@dataclass(frozen=True)
class AccessRecord:
    buffer_id: int
    byte_offset: int
    length_bytes: int
    mode: str  # "read" | "write"


class Stream:
    """Columnar record list for one workgroup in one wave."""

    __slots__ = ("bufs", "offs", "lens", "writes")

    def __init__(self, bufs, offs, lens, writes):
        self.bufs = np.asarray(bufs, dtype=np.int32)
        self.offs = np.asarray(offs, dtype=np.int64)
        self.lens = np.asarray(lens, dtype=np.int64)
        self.writes = np.asarray(writes, dtype=bool)

    def __len__(self) -> int:
        return len(self.offs)

    @classmethod
    def empty(cls) -> "Stream":
        return cls([], [], [], [])

    @classmethod
    def concat(cls, segments: Sequence["Stream"]) -> "Stream":
        segments = [s for s in segments if len(s)]
        if not segments:
            return cls.empty()
        return cls(
            np.concatenate([s.bufs for s in segments]),
            np.concatenate([s.offs for s in segments]),
            np.concatenate([s.lens for s in segments]),
            np.concatenate([s.writes for s in segments]),
        )

    def to_records(self) -> list[AccessRecord]:
        return [
            AccessRecord(int(b), int(o), int(l), "write" if w else "read")
            for b, o, l, w in zip(self.bufs, self.offs, self.lens, self.writes)
        ]


def seg_single(buf: int, offset: int, length: int, write: bool = False) -> Stream:
    return Stream([buf], [offset], [length], [write])


def seg_rows(
    buf: int, start: int, row_bytes: int, row_stride: int, nrows: int, write: bool = False
) -> Stream:
    """One record per row of a strided 2-D sub-block."""
    offs = start + np.arange(nrows, dtype=np.int64) * row_stride
    return Stream(
        np.full(nrows, buf, dtype=np.int32),
        offs,
        np.full(nrows, row_bytes, dtype=np.int64),
        np.full(nrows, write, dtype=bool),
    )


def seg_elements(buf: int, offsets: np.ndarray, elem_bytes: int, write: bool = False) -> Stream:
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets)
    return Stream(
        np.full(n, buf, dtype=np.int32),
        offsets,
        np.full(n, elem_bytes, dtype=np.int64),
        np.full(n, write, dtype=bool),
    )


StreamFn = Callable[[int, int], Stream]  # (wave_index, logical_pid) -> Stream


class AccessTrace:
    """Per-workgroup access streams for one kernel instance."""

    def __init__(
        self,
        kernel: str,
        grid: GridSpec,
        buffers: Sequence[Buffer],
        stream_fn: StreamFn,
        wave_pids: Sequence[np.ndarray] | None = None,
    ):
        self.kernel = kernel
        self.grid = grid
        self.buffers = tuple(buffers)
        self._stream_fn = stream_fn
        if wave_pids is None:
            wave_pids = [np.arange(grid.total_blocks, dtype=np.int64)]
        self.wave_pids = tuple(np.asarray(w, dtype=np.int64) for w in wave_pids)
        self.base_offsets = np.zeros(len(self.buffers), dtype=np.int64)
        self.buffer_lengths = np.zeros(len(self.buffers), dtype=np.int64)
        for buf in self.buffers:
            if buf.base_offset < 0 or buf.length_bytes < 0:
                raise ValueError(f"buffer {buf.name!r} has a negative base offset or length")
            self.base_offsets[buf.buffer_id] = buf.base_offset
            self.buffer_lengths[buf.buffer_id] = buf.length_bytes

    @property
    def num_waves(self) -> int:
        return len(self.wave_pids)

    def stream(self, logical_pid: int, wave: int = 0) -> Stream:
        total = self.grid.total_blocks
        if not 0 <= logical_pid < total:
            raise ValueError(f"logical pid {logical_pid} outside grid of {total} blocks")
        return self._stream_fn(wave, logical_pid)

    def records_for(self, logical_pid: int, wave: int = 0) -> list[AccessRecord]:
        return self.stream(logical_pid, wave).to_records()

    def buffer_by_name(self, name: str) -> Buffer:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise KeyError(name)


def make_buffers(sizes: Sequence[tuple[str, int]]) -> list[Buffer]:
    """Lay buffers out in the global address space, bases aligned."""
    buffers = []
    base = 0
    for buffer_id, (name, length) in enumerate(sizes):
        buffers.append(Buffer(buffer_id, name, length, base))
        base += -(-length // BUFFER_ALIGN) * BUFFER_ALIGN
    return buffers


def records_outside(stream: Stream, lengths: np.ndarray) -> bool:
    """True if a record is empty, names no buffer, starts before its buffer or
    ends past it."""
    bufs = stream.bufs
    if len(bufs) and (bufs.min() < 0 or bufs.max() >= len(lengths)):
        return True
    offs = stream.offs
    lens = stream.lens
    return bool(((lens < 1) | (offs < 0) | (offs + lens > lengths[bufs])).any())


# ---------------------------------------------------------------------------
# Locality summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharingGroup:
    buffer_name: str
    pids: tuple[int, ...]
    shared_bytes: int
    reuse_class: str  # "intra_wave" | "cross_wave"


@dataclass(frozen=True)
class LocalitySummary:
    kernel: str
    granule_bytes: int
    groups: tuple[SharingGroup, ...]  # descending by shared_bytes


GRANULE_BYTES = 256
MIN_SHARED_BYTES = 4096


def locality_summary(trace: AccessTrace) -> LocalitySummary:
    """Which workgroup groups share which buffer regions, by granule.

    Two pids belong to one sharing group when they touch exactly the same
    ``GRANULE_BYTES`` granule somewhere; the group's shared_bytes counts
    granules touched by that full pid set. Groups below ``MIN_SHARED_BYTES``
    are dropped.
    """
    touched: dict[int, set[int]] = {}
    touched_waves: dict[int, set[int]] = {}
    for wave in range(trace.num_waves):
        for pid in trace.wave_pids[wave]:
            s = trace.stream(int(pid), wave)
            if len(s) == 0:
                continue
            goff = s.offs + trace.base_offsets[s.bufs]
            firsts = goff // GRANULE_BYTES
            lasts = (goff + s.lens - 1) // GRANULE_BYTES
            granules = expand_ranges(firsts, lasts)
            for g in np.unique(granules).tolist():
                touched.setdefault(g, set()).add(int(pid))
                touched_waves.setdefault(g, set()).add(wave)

    by_buffer_and_group: dict[tuple[str, tuple[int, ...]], list] = {}
    bounds = sorted((buf.base_offset // GRANULE_BYTES, buf.name) for buf in trace.buffers)
    starts = [b[0] for b in bounds]
    for granule, pids in touched.items():
        if len(pids) < 2:
            continue
        idx = np.searchsorted(starts, granule, side="right") - 1
        name = bounds[idx][1]
        key = (name, tuple(sorted(pids)))
        entry = by_buffer_and_group.setdefault(key, [0, False])
        entry[0] += 1
        if len(touched_waves[granule]) > 1:
            entry[1] = True

    groups = []
    for (name, pids), (count, cross) in by_buffer_and_group.items():
        shared = count * GRANULE_BYTES
        if shared >= MIN_SHARED_BYTES:
            groups.append(
                SharingGroup(
                    buffer_name=name,
                    pids=pids,
                    shared_bytes=shared,
                    reuse_class="cross_wave" if cross else "intra_wave",
                )
            )
    groups.sort(key=lambda g: (-g.shared_bytes, g.buffer_name, g.pids))
    return LocalitySummary(
        kernel=trace.kernel, granule_bytes=GRANULE_BYTES, groups=tuple(groups)
    )


def expand_ranges(firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """Concatenate the integer ranges [first, last] elementwise.

    Requires ``last >= first`` for every range: an empty or reversed range
    would throw off the one-value-per-range shortcut below, which counts
    values rather than checking each range.
    """
    counts = lasts - firsts + 1
    total = int(counts.sum())
    if total == len(firsts):  # one value per range, or no ranges
        return firsts
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(firsts, counts) + offsets
