"""Access-trace representation and the memory-locality summary.

A trace describes, per logical workgroup, the ordered byte ranges it reads
and writes against a set of buffers laid out in one global address space.
Traces stay at byte-range granularity; the cache simulator quantizes to
lines, so generators never need to know the line size.

Workgroup streams come from a stream function per trace, lazily, because
desk-scale kernels can reach tens of millions of records: simulating a lazy
trace holds only the streams of currently-resident workgroups. Where one
trace is read many times (the optimization loop), ``materialize`` reads each
stream once and keeps it, with the native kernel's queue row of each; a
trace whose kept streams would pass ``RECORD_TABLE_BYTES`` stays lazy.

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
    """Columnar record list for one workgroup in one wave, in C-contiguous columns."""

    __slots__ = ("bufs", "offs", "lens", "writes")

    def __init__(self, bufs, offs, lens, writes):
        self.bufs = np.ascontiguousarray(bufs, dtype=np.int32)
        self.offs = np.ascontiguousarray(offs, dtype=np.int64)
        self.lens = np.ascontiguousarray(lens, dtype=np.int64)
        self.writes = np.ascontiguousarray(writes, dtype=bool)

    def __len__(self) -> int:
        return len(self.offs)

    def queue_row(self) -> tuple[int, int, int, int]:
        """The kernel's queue row, valid while this stream's columns live."""
        return self.bufs.ctypes.data, self.offs.ctypes.data, self.lens.ctypes.data, len(self)

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
    offsets = start + np.arange(nrows, dtype=np.int64) * row_stride
    return seg_elements(buf, offsets, row_bytes, write)


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
        queue_rows: np.ndarray | None = None,
    ):
        self.kernel = kernel
        self.queue_rows = queue_rows  # see ``materialize``
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


# materialize() keeps the lazy trace when its memo would pass this many bytes
RECORD_TABLE_BYTES = 32 << 20
_STREAM_BYTES = 520  # one member's Stream object and its four array headers


def materialize(trace: AccessTrace) -> AccessTrace:
    """``trace`` with every member (wave, pid) stream read once and kept.

    The returned trace's stream function hands out each member's own
    ``Stream``, its columns made read-only, and falls through to the original
    stream function for a pid that is no member of the wave. Its (waves,
    total, 4) ``queue_rows`` hold each member's ``Stream.queue_row``, so a
    simulation builds each queue with one index. Reading stops as soon as
    the kept streams, their lookup lists and the queue rows pass
    ``RECORD_TABLE_BYTES``, and ``trace`` itself is returned.
    """
    total = trace.grid.total_blocks
    size = 40 * trace.num_waves * total  # the lookup lists and the queue rows
    memo: list[list[Stream | None]] = [[None] * total for _ in trace.wave_pids]
    rows = np.zeros((trace.num_waves, total, 4), dtype=np.int64)
    for wave, pids in enumerate(trace.wave_pids):
        for pid in pids.tolist():
            s = trace.stream(pid, wave)
            columns = (s.bufs, s.offs, s.lens, s.writes)
            size += _STREAM_BYTES + sum(column.nbytes for column in columns)
            if size > RECORD_TABLE_BYTES:
                return trace
            for column in columns:
                column.flags.writeable = False
            memo[wave][pid] = s
            rows[wave, pid] = s.queue_row()
    lazy = trace._stream_fn

    def stream(wave: int, pid: int) -> Stream:
        s = memo[wave][pid]
        return lazy(wave, pid) if s is None else s

    return AccessTrace(trace.kernel, trace.grid, trace.buffers, stream, trace.wave_pids, rows)


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
# Upper bound on the granules one chunk of ``locality_summary`` expands at once;
# it bounds the pass's transient memory, whatever the trace's size.
_CHUNK_GRANULES = 1 << 19


def locality_summary(trace: AccessTrace) -> LocalitySummary:
    """Which workgroup groups share which buffer regions, by granule.

    Two pids belong to one sharing group when they touch exactly the same
    ``GRANULE_BYTES`` granule somewhere; the group's shared_bytes counts
    granules touched by that full pid set. Groups below ``MIN_SHARED_BYTES``
    are dropped. A group is ``cross_wave`` when one of its granules is
    touched in more than one wave.

    Each (granule, pid, wave) is one int64 key, ordered by granule, then
    pid, then wave. The streams are read in chunks of about
    ``_CHUNK_GRANULES`` granules, each deduplicated by sort; a workgroup's
    stream lies in one chunk, so the chunks' keys are disjoint and one merge
    sort orders them all. Consecutive granules with one buffer and one pid
    set form a run, and only the runs of two or more pids reach Python, to
    form the group keys.
    """
    waves = trace.num_waves
    total = trace.grid.total_blocks
    parts = [
        _dedupe_chunk(streams, owner, trace.base_offsets, total * waves)
        for streams, owner in _record_chunks(trace)
    ]
    keys = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    del parts
    keys.sort(kind="stable")  # a merge of the sorted chunks

    pair = keys // waves  # granule * total + pid
    wave = keys - pair * waves
    del keys
    first = _run_starts(pair // total)  # one per granule
    cross = np.minimum.reduceat(wave, first) != np.maximum.reduceat(wave, first)
    del wave
    pair = pair[_run_starts(pair)]  # distinct (granule, pid)
    granule = pair // total
    pid = pair - granule * total
    del pair
    first = _run_starts(granule)  # the same granules; each one's pids are pid[first:][:size]
    size = np.diff(first, append=len(pid))
    bounds = sorted((buf.base_offset // GRANULE_BYTES, buf.name) for buf in trace.buffers)
    names = [name for _, name in bounds]
    buffer_of = np.searchsorted([start for start, _ in bounds], granule[first], side="right") - 1
    del granule

    # A granule continues the previous granule's run when it has the same
    # buffer, as many pids and, position by position, the same pids.
    step = np.repeat(size, size)
    same = np.logical_and.reduceat(pid == pid[np.maximum(np.arange(len(pid)) - step, 0)], first)
    del step
    same[1:] &= (size[1:] == size[:-1]) & (buffer_of[1:] == buffer_of[:-1])
    same[:1] = False
    run = np.flatnonzero(~same)
    granules = np.diff(run, append=len(first))
    run_cross = np.logical_or.reduceat(cross, run)
    keep = size[run] >= 2
    run = run[keep]

    by_buffer_and_group: dict[tuple[str, tuple[int, ...]], list] = {}
    for idx, lo, n, count, crosses in zip(
        buffer_of[run].tolist(), first[run].tolist(), size[run].tolist(),
        granules[keep].tolist(), run_cross[keep].tolist(),
    ):
        entry = by_buffer_and_group.setdefault((names[idx], tuple(pid[lo:lo + n].tolist())),
                                               [0, False])
        entry[0] += count
        entry[1] = entry[1] or crosses

    groups = []
    for (name, pids), (count, crosses) in by_buffer_and_group.items():
        shared = count * GRANULE_BYTES
        if shared >= MIN_SHARED_BYTES:
            groups.append(
                SharingGroup(
                    buffer_name=name,
                    pids=pids,
                    shared_bytes=shared,
                    reuse_class="cross_wave" if crosses else "intra_wave",
                )
            )
    groups.sort(key=lambda g: (-g.shared_bytes, g.buffer_name, g.pids))
    return LocalitySummary(
        kernel=trace.kernel, granule_bytes=GRANULE_BYTES, groups=tuple(groups)
    )


def _record_chunks(trace: AccessTrace):
    """(streams, owner keys) of consecutive non-empty member streams, about
    ``_CHUNK_GRANULES`` granules per chunk; a stream's owner key is
    ``pid * num_waves + wave``."""
    waves = trace.num_waves
    streams: list[Stream] = []
    owner: list[int] = []
    granules = 0
    for wave, members in enumerate(trace.wave_pids):
        for pid in members.tolist():
            s = trace.stream(pid, wave)
            n = len(s)
            if n == 0:
                continue
            streams.append(s)
            owner.append(pid * waves + wave)
            # a record of L bytes spans at most L // GRANULE_BYTES + 2 granules
            granules += 2 * n + int(s.lens.sum()) // GRANULE_BYTES
            if granules >= _CHUNK_GRANULES:
                yield streams, owner
                streams, owner, granules = [], [], 0
    if streams:
        yield streams, owner


def _dedupe_chunk(streams: list[Stream], owner: list[int], bases: np.ndarray,
                  owners: int) -> np.ndarray:
    """Sorted distinct keys ``granule * owners + owner`` of one chunk."""
    s = Stream.concat(streams)
    goff = s.offs + bases[s.bufs]
    firsts = goff // GRANULE_BYTES
    lasts = (goff + s.lens - 1) // GRANULE_BYTES
    per_record = np.repeat(np.asarray(owner, dtype=np.int64), [len(t) for t in streams])
    keys = expand_ranges(firsts, lasts) * owners
    keys += np.repeat(per_record, lasts - firsts + 1)
    keys.sort()
    return keys[_run_starts(keys)]


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    if len(sorted_values) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1])))


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
