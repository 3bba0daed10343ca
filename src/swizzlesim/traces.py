"""Access-trace representation and the memory-locality summary.

A trace describes, per logical workgroup, the ordered byte ranges it reads
and writes against a set of buffers laid out in one global address space.
Traces stay at byte-range granularity; the cache simulator quantizes to
lines, so generators never need to know the line size.

Workgroup streams come from a batch function per trace, lazily, because
desk-scale kernels can reach tens of millions of records. It maps one wave
and an array of logical pids to a ``Batch`` of their segments, with
per-pid offsets ``indptr`` (CSR form). A segment is ``count`` runs of
``len`` bytes of one buffer at ``off + j * stride``, each run one record,
so a tile row's column scatter is one segment, not one record per element;
a generator pays its Python cost per batch, not per workgroup or record.
The native simulator walks the segments as they are; ``Batch.records``
expands them into a ``Stream`` of records for everything that reads
records (``AccessTrace.stream`` is a one-pid batch, expanded), and
``locality_summary`` expands one bounded chunk at a time. Simulating a lazy
trace holds only the batches of currently-resident workgroups. Where one
trace is read many times (the optimization loop), ``materialize`` reads
each wave's members once and keeps their batches as read, with the native
kernel's queue row of each member; a trace whose kept batches would pass
``RECORD_TABLE_BYTES`` stays lazy.

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
    """Records in C-contiguous columns, one workgroup's in one wave or, from
    ``Batch.records``, several back to back: record ``i`` is ``lens[i]``
    bytes of buffer ``bufs[i]`` at ``offs[i]``, a write if ``writes[i]``."""

    __slots__ = ("bufs", "offs", "lens", "writes")

    def __init__(self, bufs, offs, lens, writes):
        self.bufs = np.ascontiguousarray(bufs, dtype=np.int32)
        self.offs = np.ascontiguousarray(offs, dtype=np.int64)
        self.lens = np.ascontiguousarray(lens, dtype=np.int64)
        self.writes = np.ascontiguousarray(writes, dtype=bool)

    def __len__(self) -> int:
        return len(self.offs)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.bufs, self.offs, self.lens, self.writes

    def to_records(self) -> list[AccessRecord]:
        return [
            AccessRecord(int(b), int(o), int(l), "write" if w else "read")
            for b, o, l, w in zip(self.bufs, self.offs, self.lens, self.writes)
        ]


class Batch:
    """The streams of several workgroups as segments, in CSR form.

    Row ``i`` is one segment: ``counts[i]`` runs of ``lens[i]`` bytes of
    buffer ``bufs[i]`` at ``offs[i] + j * strides[i]`` for ``j < counts[i]``,
    each run one record (a write if ``writes[i]``). Workgroup ``w``'s
    segments are rows ``indptr[w]`` to ``indptr[w + 1] - 1``. Counts are
    non-negative; a segment of no runs adds no record.
    """

    __slots__ = ("bufs", "offs", "lens", "writes", "strides", "counts", "indptr")

    def __init__(self, bufs, offs, lens, writes, strides, counts, indptr):
        self.bufs = np.ascontiguousarray(bufs, dtype=np.int32)
        self.offs = np.ascontiguousarray(offs, dtype=np.int64)
        self.lens = np.ascontiguousarray(lens, dtype=np.int64)
        self.writes = np.ascontiguousarray(writes, dtype=bool)
        self.strides = np.ascontiguousarray(strides, dtype=np.int64)
        self.counts = np.ascontiguousarray(counts, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.offs)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.bufs, self.offs, self.lens, self.writes, self.strides, self.counts

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in (*self.columns, self.indptr))

    def part(self, lo: int, hi: int) -> "Batch":
        """Workgroups ``lo`` to ``hi - 1``, as views of this batch's columns."""
        a, b = self.indptr[lo], self.indptr[hi]
        return Batch(*(column[a:b] for column in self.columns), self.indptr[lo:hi + 1] - a)

    def records(self) -> Stream:
        """Every run as one record, in order: the workgroups' streams back to back."""
        counts = self.counts
        return Stream(self.bufs.repeat(counts), sequences(self.offs, counts, self.strides),
                      self.lens.repeat(counts), self.writes.repeat(counts))

    def queue_rows(self) -> np.ndarray:
        """Each workgroup's row of the native kernel's queue: the addresses of its
        bufs, offs, lens, strides and counts and its segment count, valid while
        the columns live."""
        arrays = (self.bufs, self.offs, self.lens, self.strides, self.counts)
        rows = np.empty((len(self.indptr) - 1, 6), dtype=np.int64)
        rows[:, :5] = [column.ctypes.data for column in arrays]
        rows[:, :5] += self.indptr[:-1, None] * [column.itemsize for column in arrays]
        rows[:, 5] = np.diff(self.indptr)
        return rows


BatchFn = Callable[[int, np.ndarray], Batch]  # (wave_index, logical pids) -> their segments
BATCH_PIDS = 256  # members per batch when a lazy trace is read wave by wave
# Segments per lazy batch after an XCD's first (cachesim._run_native): below the
# default transpose's 4864 per slot file, so it keeps 38-pid batches and its
# peak memory (256-pid ones cost it 11%); above the widest stencil_sweep
# batch's 2836, so a stencil (XCD, wave) takes one or two batches.
BATCH_SEGMENTS = 4096


class AccessTrace:
    """Per-workgroup access streams for one kernel instance."""

    def __init__(
        self,
        kernel: str,
        grid: GridSpec,
        buffers: Sequence[Buffer],
        batch_fn: BatchFn,
        wave_pids: Sequence[np.ndarray] | None = None,
        kept: Sequence[tuple[int, np.ndarray, Batch]] | None = None,
        queue_rows: np.ndarray | None = None,
    ):
        self.kernel = kernel
        self.kept = kept  # see ``materialize``
        self.queue_rows = queue_rows
        self.grid = grid
        self.buffers = tuple(buffers)
        self._batch_fn = batch_fn
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

    def batch(self, wave: int, pids) -> Batch:
        """The segments of workgroups ``pids`` in one wave, in the order of ``pids``."""
        return self._batch_fn(wave, np.asarray(pids, dtype=np.int64))

    def stream(self, logical_pid: int, wave: int = 0) -> Stream:
        """One workgroup's records in one wave, expanded from its segments."""
        total = self.grid.total_blocks
        if not 0 <= logical_pid < total:
            raise ValueError(f"logical pid {logical_pid} outside grid of {total} blocks")
        if not 0 <= wave < self.num_waves:
            raise ValueError(f"wave {wave} outside the trace's {self.num_waves} waves")
        return self.batch(wave, [logical_pid]).records()

    def member_batches(self):
        """(wave, pids, their batch) over each wave's members in order, read
        ``BATCH_PIDS`` members at a time, or the kept ones of a materialized
        trace."""
        if self.kept is not None:
            yield from self.kept
            return
        for wave, members in enumerate(self.wave_pids):
            for lo in range(0, len(members), BATCH_PIDS):
                pids = members[lo:lo + BATCH_PIDS]
                yield wave, pids, self.batch(wave, pids)

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


# materialize() keeps the lazy trace when its segment batches, with the member
# positions and queue rows, would pass this many bytes
RECORD_TABLE_BYTES = 32 << 20


def materialize(trace: AccessTrace) -> AccessTrace:
    """``trace`` with every wave's member segments read once and kept.

    The members are read ``BATCH_PIDS`` at a time, and the returned trace's
    ``kept`` holds each (wave, pids, batch) as read, the columns made
    read-only. Its (waves, total, 6) ``queue_rows`` hold each member's
    ``Batch.queue_rows`` row, pointing into its kept batch, so a simulation
    builds each queue with one index. Its batch function serves one member's
    segments as a view of its kept batch, found by (part, index); it hands any
    other request, a non-member or several pids, to the original batch
    function, which gives the same segments. As soon as the batches'
    columns, the member positions and the queue rows pass
    ``RECORD_TABLE_BYTES``, reading stops and ``trace`` itself is returned.
    """
    waves, total = trace.num_waves, trace.grid.total_blocks
    where = np.full((waves, total, 2), -1, dtype=np.int64)  # (part, index) of each member
    rows = np.zeros((waves, total, 6), dtype=np.int64)
    size = where.nbytes + rows.nbytes
    kept = []
    for wave, pids, batch in trace.member_batches():
        size += batch.nbytes
        if size > RECORD_TABLE_BYTES:
            return trace
        for column in batch.columns:
            column.flags.writeable = False
        where[wave, pids, 0] = len(kept)
        where[wave, pids, 1] = np.arange(len(pids))
        rows[wave, pids] = batch.queue_rows()
        kept.append((wave, pids, batch))
    lazy = trace._batch_fn

    def batch_fn(wave: int, pids: np.ndarray) -> Batch:
        part, at = where[wave, pids[0]] if len(pids) == 1 else (-1, -1)
        return lazy(wave, pids) if at < 0 else kept[part][2].part(at, at + 1)

    return AccessTrace(trace.kernel, trace.grid, trace.buffers, batch_fn, trace.wave_pids,
                       tuple(kept), rows)


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
    pid, then wave. The streams are read in chunks of at most
    ``_CHUNK_GRANULES`` granules, bounded from the segments before a chunk
    is expanded to records, each deduplicated by sort; a workgroup's
    stream lies in one chunk, so the chunks' keys are disjoint and one merge
    sort orders them all. Consecutive granules with one buffer and one pid
    set form a run, and only the runs of two or more pids reach Python, to
    form the group keys.
    """
    waves = trace.num_waves
    total = trace.grid.total_blocks
    parts = [
        _dedupe_chunk(records, owner, trace.base_offsets, total * waves)
        for records, owner in _record_chunks(trace)
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
    """(records, each record's owner key) of consecutive member streams of
    one wave, at most ``_CHUNK_GRANULES`` granules per chunk (or one stream
    that alone passes it). The chunks are cut from the wave's member batches
    on segments, several batches' segments joining one chunk, and expanded
    one chunk at a time; a stream's owner key is ``pid * num_waves + wave``.
    A chunk keeps to one wave: joining softmax's two waves made the summary
    about a quarter slower."""
    pieces, room, chunk_wave = [], _CHUNK_GRANULES, 0
    for wave, pids, batch in trace.member_batches():
        # a run of L bytes spans at most L // GRANULE_BYTES + 2 granules
        granules = np.cumsum(batch.counts * (2 + batch.lens // GRANULE_BYTES))
        ends = np.concatenate(([0], granules))[batch.indptr]  # granules before each stream
        owner = np.repeat(pids * trace.num_waves + wave, np.diff(batch.indptr))
        columns = (*batch.columns, owner)
        lo = 0
        while lo < len(pids):
            hi = int(np.searchsorted(ends, ends[lo] + room, side="right")) - 1
            if pieces and (hi <= lo or wave != chunk_wave):  # the stream starts a chunk
                yield _expand_chunk(pieces)
                pieces, room = [], _CHUNK_GRANULES
                continue
            hi, chunk_wave = max(hi, lo + 1), wave
            a, b = batch.indptr[lo], batch.indptr[hi]
            pieces.append([column[a:b] for column in columns])
            room -= ends[hi] - ends[lo]
            lo = hi
    if pieces:
        yield _expand_chunk(pieces)


def _expand_chunk(pieces) -> tuple[Stream, np.ndarray]:
    """The records and owner keys of one chunk's segment columns."""
    *columns, owner = map(np.concatenate, zip(*pieces))
    segments = Batch(*columns, [0, len(owner)])
    return segments.records(), owner.repeat(segments.counts)


def _dedupe_chunk(records: Stream, owner: np.ndarray, bases: np.ndarray, owners: int) -> np.ndarray:
    """Sorted distinct keys ``granule * owners + owner`` of one chunk."""
    goff = records.offs + bases[records.bufs]
    firsts = goff // GRANULE_BYTES
    lasts = (goff + records.lens - 1) // GRANULE_BYTES
    keys = expand_ranges(firsts, lasts) * owners
    keys += np.repeat(owner, lasts - firsts + 1)
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
    if int(counts.sum()) == len(firsts):  # one value per range, or no ranges
        return firsts
    return sequences(firsts, counts)


def sequences(starts: np.ndarray, counts: np.ndarray, steps: np.ndarray | None = None) -> np.ndarray:
    """Concatenate the sequences ``starts[i] + j * steps[i]`` for ``j < counts[i]``
    (``steps`` defaults to 1); a count may be zero.

    One running sum over the steps, in which each sequence's first value
    jumps from the previous sequence's last.
    """
    if (counts == 1).all():
        return starts.copy()
    some = counts > 0
    starts, counts = starts[some], counts[some]
    steps = np.ones_like(counts) if steps is None else steps[some]
    out = steps.repeat(counts)
    first = counts.cumsum() - counts
    out[first] = starts
    out[first[1:]] -= starts[:-1] + (counts[:-1] - 1) * steps[:-1]
    return out.cumsum(out=out)
