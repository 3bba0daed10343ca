"""Access-trace representation and the memory-locality summary.

A trace describes, per logical workgroup, the ordered byte ranges it reads
and writes against a set of buffers laid out in one global address space.
Traces stay at byte-range granularity; the cache simulator quantizes to
lines, so generators never need to know the line size.

Workgroup streams come from a batch function per trace, lazily, because
desk-scale kernels can reach tens of millions of records. It maps one wave
and an array of logical pids to a ``Batch``: their streams back to back in
four record columns, with per-pid offsets ``indptr`` (CSR form), so a
generator pays its Python cost per batch rather than per workgroup;
``AccessTrace.stream`` is a one-pid batch. Simulating a lazy trace holds
only the batches of currently-resident workgroups. Where one trace is read
many times (the optimization loop), ``materialize`` reads each wave's
members once and keeps them as one batch per wave, with the native kernel's
queue row of each member; a trace whose kept batches would pass
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
    """Columnar record list in C-contiguous columns: one workgroup's records in
    one wave, or, as a ``Batch``, several workgroups' back to back."""

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


class Batch(Stream):
    """The streams of several workgroups in CSR form: workgroup ``i``'s records
    are rows ``indptr[i]`` to ``indptr[i + 1] - 1`` of the four columns."""

    __slots__ = ("indptr",)

    def __init__(self, bufs, offs, lens, writes, indptr):
        super().__init__(bufs, offs, lens, writes)
        self.indptr = np.asarray(indptr, dtype=np.int64)

    def part(self, lo: int, hi: int) -> "Batch":
        """Workgroups ``lo`` to ``hi - 1``, as views of this batch's columns."""
        a, b = self.indptr[lo], self.indptr[hi]
        return Batch(self.bufs[a:b], self.offs[a:b], self.lens[a:b], self.writes[a:b],
                     self.indptr[lo:hi + 1] - a)

    def queue_rows(self) -> np.ndarray:
        """Each workgroup's row of the native kernel's queue: the addresses of its
        bufs, offs and lens and its record count, valid while the columns live."""
        first = self.indptr[:-1]
        return np.stack([c.ctypes.data + c.itemsize * first for c in (self.bufs, self.offs, self.lens)]
                        + [self.indptr[1:] - first], axis=1)

    @classmethod
    def concat(cls, batches: Sequence["Batch"]) -> "Batch":
        if len(batches) == 1:
            return batches[0]
        ends = np.cumsum([0] + [len(b) for b in batches])
        columns = zip(*(b.columns for b in batches)) if batches else [([],)] * 4
        return cls(*map(np.concatenate, columns),
                   np.concatenate([[0]] + [b.indptr[1:] + end for b, end in zip(batches, ends)]))


BatchFn = Callable[[int, np.ndarray], Batch]  # (wave_index, logical pids) -> their streams
BATCH_PIDS = 64  # members per batch when a lazy trace is read wave by wave


class AccessTrace:
    """Per-workgroup access streams for one kernel instance."""

    def __init__(
        self,
        kernel: str,
        grid: GridSpec,
        buffers: Sequence[Buffer],
        batch_fn: BatchFn,
        wave_pids: Sequence[np.ndarray] | None = None,
        kept: Sequence[Batch] | None = None,
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
        """The streams of workgroups ``pids`` in one wave, in the order of ``pids``."""
        return self._batch_fn(wave, np.asarray(pids, dtype=np.int64))

    def stream(self, logical_pid: int, wave: int = 0) -> Stream:
        total = self.grid.total_blocks
        if not 0 <= logical_pid < total:
            raise ValueError(f"logical pid {logical_pid} outside grid of {total} blocks")
        if not 0 <= wave < self.num_waves:
            raise ValueError(f"wave {wave} outside the trace's {self.num_waves} waves")
        return self.batch(wave, [logical_pid])

    def member_batches(self):
        """(wave, pids, their batch) over each wave's members in order: the kept
        batch of a materialized trace, else ``BATCH_PIDS`` members at a time."""
        for wave, members in enumerate(self.wave_pids):
            if self.kept is not None:
                yield wave, members, self.kept[wave]
                continue
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


# materialize() keeps the lazy trace when its batches would pass this many bytes
RECORD_TABLE_BYTES = 32 << 20


def materialize(trace: AccessTrace) -> AccessTrace:
    """``trace`` with every wave's member streams read once and kept, as one
    batch per wave in member order.

    The returned trace's ``kept`` holds those batches, their columns made
    read-only. Its batch function serves one member's stream as a view of
    them; it hands any other request, a non-member or several pids, to the
    original batch function, which gives the same records. Its
    (waves, total, 4) ``queue_rows`` hold each member's ``Batch.queue_rows``
    row, so a simulation builds each queue with one index. The members are
    read ``BATCH_PIDS`` at a time; as soon as the batches' columns, the member
    positions and the queue rows pass ``RECORD_TABLE_BYTES``, reading stops and
    ``trace`` itself is returned.
    """
    waves, total = trace.num_waves, trace.grid.total_blocks
    size = 40 * waves * total  # the member positions and the queue rows
    parts: list[list[Batch]] = [[] for _ in range(waves)]
    for wave, _, batch in trace.member_batches():
        size += sum(column.nbytes for column in (*batch.columns, batch.indptr))
        if size > RECORD_TABLE_BYTES:
            return trace
        parts[wave].append(batch)
    kept = tuple(Batch.concat(part) for part in parts)
    position = np.full((waves, total), -1, dtype=np.int64)
    rows = np.zeros((waves, total, 4), dtype=np.int64)
    for wave, (members, batch) in enumerate(zip(trace.wave_pids, kept)):
        for column in batch.columns:
            column.flags.writeable = False
        position[wave, members] = np.arange(len(members))
        rows[wave, members] = batch.queue_rows()
    lazy = trace._batch_fn

    def batch_fn(wave: int, pids: np.ndarray) -> Batch:
        at = position[wave, pids[0]] if len(pids) == 1 else -1
        return lazy(wave, pids) if at < 0 else kept[wave].part(at, at + 1)

    return AccessTrace(trace.kernel, trace.grid, trace.buffers, batch_fn, trace.wave_pids,
                       kept, rows)


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
        _dedupe_chunk(batch, owner, trace.base_offsets, total * waves)
        for batch, owner in _record_chunks(trace)
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
    """(batch, owner keys) of consecutive member streams of one wave, about
    ``_CHUNK_GRANULES`` granules per chunk, sliced out of the trace's member
    batches; a stream's owner key is ``pid * num_waves + wave``."""
    for wave, pids, batch in trace.member_batches():
        # a record of L bytes spans at most L // GRANULE_BYTES + 2 granules
        granules = np.concatenate(([0], np.cumsum(2 + batch.lens // GRANULE_BYTES)))
        cuts = np.flatnonzero(np.diff(granules[batch.indptr[:-1]] // _CHUNK_GRANULES)) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(pids)]):
            yield batch.part(lo, hi), pids[lo:hi] * trace.num_waves + wave


def _dedupe_chunk(batch: Batch, owner: np.ndarray, bases: np.ndarray, owners: int) -> np.ndarray:
    """Sorted distinct keys ``granule * owners + owner`` of one chunk."""
    goff = batch.offs + bases[batch.bufs]
    firsts = goff // GRANULE_BYTES
    lasts = (goff + batch.lens - 1) // GRANULE_BYTES
    keys = expand_ranges(firsts, lasts) * owners
    keys += np.repeat(np.repeat(owner, np.diff(batch.indptr)), lasts - firsts + 1)
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
