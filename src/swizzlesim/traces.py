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
A workgroup's segments are one group that it repeats, each segment moving
by its group stride: a transpose tile is a row read and a column scatter,
repeated per tile row. A record is a segment of one run: ``Batch.records``
expands a batch into them (through ``Batch.flat``, which lays the groups
out) for what reads records (``AccessTrace.stream`` is a one-pid batch,
expanded); the native simulator walks the groups and segments as they are.
``locality_summary`` reads segments too, one bounded chunk at a time, and
turns them into granule intervals: it keys each piece of an interval that a
workgroup touches in a wave, not each granule. Simulating a lazy
trace holds only the batches of currently-resident workgroups. Where one
trace is read many times (the optimization loop, ``simulate_pair``'s two
simulations), ``materialize`` reads each wave's members once and keeps them
as one batch, in wave order; the native kernel's queue of a wave is its
members' indices into that batch, as a lazy batch's queue is its own
workgroups'. A trace whose batches would pass ``RECORD_TABLE_BYTES`` stays
lazy: that byte budget is the one rule that keeps a trace. Both the lazy
feed and ``AccessTrace.member_batches`` size their batches by
``batch_width``.

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


class Batch:
    """The streams of several workgroups as groups of segments, in CSR form.

    Row ``i`` is one segment: ``counts[i]`` runs of ``lens[i]`` bytes of
    buffer ``bufs[i]`` at ``offs[i] + g * gstrides[i] + j * strides[i]`` for
    ``j < counts[i]``, each run one record (a write if ``writes[i]``).
    Workgroup ``w``'s segments, rows ``indptr[w]`` to ``indptr[w + 1] - 1``,
    are one group that it runs for ``g < groups[w]`` in turn (by default
    one, at group strides of zero). Counts and groups are non-negative; a
    segment of no runs, or a workgroup of no groups, adds no record.
    """

    __slots__ = ("bufs", "offs", "lens", "writes", "strides", "counts", "gstrides", "indptr",
                 "groups")

    def __init__(self, bufs, offs, lens, writes, strides, counts, indptr, gstrides=None,
                 groups=None):
        self.bufs = np.ascontiguousarray(bufs, dtype=np.int32)
        self.offs = np.ascontiguousarray(offs, dtype=np.int64)
        self.lens = np.ascontiguousarray(lens, dtype=np.int64)
        self.writes = np.ascontiguousarray(writes, dtype=bool)
        self.strides = np.ascontiguousarray(strides, dtype=np.int64)
        self.counts = np.ascontiguousarray(counts, dtype=np.int64)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.gstrides = (np.zeros(len(self.offs), dtype=np.int64) if gstrides is None
                         else np.ascontiguousarray(gstrides, dtype=np.int64))
        self.groups = (np.ones(len(self.indptr) - 1, dtype=np.int64) if groups is None
                       else np.ascontiguousarray(groups, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.offs)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The per-segment columns."""
        return (self.bufs, self.offs, self.lens, self.writes, self.strides, self.counts,
                self.gstrides)

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in (*self.columns, self.indptr, self.groups))

    def part(self, lo: int, hi: int) -> "Batch":
        """Workgroups ``lo`` to ``hi - 1``, as views of the columns."""
        a, b = self.indptr[lo], self.indptr[hi]
        *columns, gstrides = (column[a:b] for column in self.columns)
        return Batch(*columns, self.indptr[lo:hi + 1] - a, gstrides, self.groups[lo:hi])

    def flat(self) -> "Batch":
        """The same runs in the same order, each workgroup one group."""
        if (self.groups == 1).all():
            return self
        sizes = np.diff(self.indptr)
        size = sizes.repeat(self.groups)  # one block of rows per (workgroup, group)
        rows = sequences(self.indptr[:-1].repeat(self.groups), size)
        group = sequences(np.zeros(len(sizes), dtype=np.int64), self.groups).repeat(size)
        return Batch(self.bufs[rows], self.offs[rows] + group * self.gstrides[rows],
                     self.lens[rows], self.writes[rows], self.strides[rows], self.counts[rows],
                     np.concatenate(([0], (sizes * self.groups).cumsum())))

    def records(self) -> "Batch":
        """Every run as a segment of one run, in order, under the same workgroups."""
        flat = self.flat()
        counts = flat.counts
        offs = sequences(flat.offs, counts, flat.strides)
        return Batch(flat.bufs.repeat(counts), offs, flat.lens.repeat(counts),
                     flat.writes.repeat(counts), np.zeros_like(offs), np.ones_like(offs),
                     np.concatenate(([0], counts.cumsum()))[flat.indptr])

    @staticmethod
    def join(batches: list["Batch"]) -> "Batch":
        """The workgroups of ``batches``, in order, as one batch. It empties
        ``batches`` and joins one column at a time, dropping each column of
        the parts once it is joined, so that parts that nothing else holds
        are never held whole beside their join."""
        sizes = [np.diff(batch.indptr) for batch in batches]
        names = ("bufs", "offs", "lens", "writes", "strides", "counts", "gstrides", "groups")
        parts = [[getattr(batch, name) for batch in batches] for name in names]
        batches.clear()
        *columns, gstrides, groups = [np.concatenate(parts.pop(0) or [[]]) for _ in names]
        return Batch(*columns, np.concatenate(([0], *sizes)).cumsum(), gstrides, groups)


BatchFn = Callable[[int, np.ndarray], Batch]  # (wave_index, logical pids) -> their segments
# Segments per batch of a wave read in order (see batch_width): above the
# widest stencil_sweep batch's 2836, so a stencil (XCD, wave) takes one or two
# lazy batches.
BATCH_SEGMENTS = 4096


def batch_width(pids_read: int, segments_read: int, least: int) -> int:
    """Members of the next batch of a wave read in order: as many as
    ``BATCH_SEGMENTS`` segments hold at the mean segments per member of the
    batches read before it, but at least ``least``."""
    return max(least, BATCH_SEGMENTS * pids_read // max(segments_read, 1))


class AccessTrace:
    """Per-workgroup access streams for one kernel instance."""

    def __init__(
        self,
        kernel: str,
        grid: GridSpec,
        buffers: Sequence[Buffer],
        batch_fn: BatchFn,
        wave_pids: Sequence[np.ndarray] | None = None,
        kept: Batch | None = None,
    ):
        self.kernel = kernel
        self.kept = kept  # see ``materialize``
        self.grid = grid
        self.buffers = tuple(buffers)
        self._batch_fn = batch_fn
        if wave_pids is None:
            wave_pids = [np.arange(grid.total_blocks, dtype=np.int64)]
        self.wave_pids = tuple(np.asarray(w, dtype=np.int64) for w in wave_pids)
        # each wave's first workgroup in ``kept``, which holds the waves in order
        self.wave_starts = np.cumsum([0, *map(len, self.wave_pids)]).tolist()
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

    def stream(self, logical_pid: int, wave: int = 0) -> Batch:
        """One workgroup's records in one wave, as one-run segments."""
        total = self.grid.total_blocks
        if not 0 <= logical_pid < total:
            raise ValueError(f"logical pid {logical_pid} outside grid of {total} blocks")
        if not 0 <= wave < self.num_waves:
            raise ValueError(f"wave {wave} outside the trace's {self.num_waves} waves")
        return self.batch(wave, [logical_pid]).records()

    def member_batches(self):
        """(wave, pids, their batch) over each wave's members in order: on a
        materialized trace one batch per wave, a part of ``kept``. Otherwise
        the first batch is one member, and each later one as wide as
        ``batch_width`` gives from the batches read before it, in any wave."""
        if self.kept is not None:
            for wave, (members, start) in enumerate(zip(self.wave_pids, self.wave_starts)):
                yield wave, members, self.kept.part(start, start + len(members))
            return
        pids_read = segments_read = 0
        for wave, members in enumerate(self.wave_pids):
            start = 0
            while start < len(members):
                pids = members[start:start + batch_width(pids_read, segments_read, 1)]
                batch = self.batch(wave, pids)
                start += len(pids)
                pids_read += len(pids)
                segments_read += len(batch)
                yield wave, pids, batch

    def records_for(self, logical_pid: int, wave: int = 0) -> list[AccessRecord]:
        s = self.stream(logical_pid, wave)
        return [
            AccessRecord(int(b), int(o), int(l), "write" if w else "read")
            for b, o, l, w in zip(s.bufs, s.offs, s.lens, s.writes)
        ]


def make_buffers(sizes: Sequence[tuple[str, int]]) -> list[Buffer]:
    """Lay buffers out in the global address space, bases aligned."""
    buffers = []
    base = 0
    for buffer_id, (name, length) in enumerate(sizes):
        buffers.append(Buffer(buffer_id, name, length, base))
        base += -(-length // BUFFER_ALIGN) * BUFFER_ALIGN
    return buffers


# materialize() keeps a trace lazy when its batches would pass this many bytes
RECORD_TABLE_BYTES = 32 << 20


def materialize(trace: AccessTrace) -> AccessTrace:
    """``trace`` with every wave's member segments read once and kept.

    The members are read as ``AccessTrace.member_batches`` gives, and the
    windows joined (``Batch.join``) into the returned trace's ``kept``: one
    read-only batch of every wave's members in order, wave ``w``'s from
    workgroup ``wave_starts[w]`` on. Its batch function is the original one.
    If the batches' columns pass ``RECORD_TABLE_BYTES``, reading stops and
    ``trace`` is returned. A materialized trace is returned as it is.
    """
    if trace.kept is not None:
        return trace
    windows, size = [], 0
    for _, _, window in trace.member_batches():
        size += window.nbytes
        if size > RECORD_TABLE_BYTES:
            return trace
        windows.append(window)
        del window  # `windows` alone holds it, so that the join drops it
    kept = Batch.join(windows)
    for column in (*kept.columns, kept.indptr, kept.groups):
        column.flags.writeable = False
    return AccessTrace(trace.kernel, trace.grid, trace.buffers, trace._batch_fn,
                       trace.wave_pids, kept)


def records_outside(records: Batch, lengths: np.ndarray) -> bool:
    """True if a record of ``records`` (one-run segments) is empty, names no
    buffer, starts before its buffer or ends past it."""
    bufs = records.bufs
    if len(bufs) and (bufs.min() < 0 or bufs.max() >= len(lengths)):
        return True
    offs = records.offs
    lens = records.lens
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
# Upper bound on the granules that the segments of one chunk of
# ``locality_summary`` span; it bounds the runs and granules the summary expands
# at once, whatever the trace's size.
_CHUNK_GRANULES = 1 << 19


def locality_summary(trace: AccessTrace) -> LocalitySummary:
    """Which workgroup groups share which buffer regions, by granule.

    Two pids belong to one sharing group when they touch exactly the same
    ``GRANULE_BYTES`` granule somewhere; the group's shared_bytes counts
    granules touched by that full pid set. Groups below ``MIN_SHARED_BYTES``
    are dropped. A group is ``cross_wave`` when one of its granules is
    touched in more than one wave.

    The streams are read as segments, in bounded chunks (``_record_chunks``),
    and each (pid, wave) owner's granules become disjoint half-open granule
    intervals (``_owner_intervals``). Intervals that no other owner's
    interval overlaps are dropped. Cut at the distinct set of the remaining
    intervals' ends and the buffer starts, the rest fall into pieces that
    each owner covers whole or not at all, so each (piece, pid, wave) is one
    int64 key, ordered by piece, then pid, then wave, and a piece weighs its
    length in granules. The groups are formed in numpy, one sort per pid-set
    size, and only the groups kept reach Python.
    """
    waves = trace.num_waves
    total = trace.grid.total_blocks
    owners = total * waves
    bounds = sorted((buf.base_offset // GRANULE_BYTES, buf.name) for buf in trace.buffers)
    names = [name for _, name in bounds]
    buffer_starts = np.array([start for start, _ in bounds], dtype=np.int64)
    parts = [_owner_intervals(segments, owner, trace.base_offsets)
             for segments, owner in _record_chunks(trace)]
    lo, hi, owner = map(np.concatenate, zip(*parts)) if parts else (np.zeros(0, np.int64),) * 3
    del parts
    order = np.argsort(lo)
    lo = lo[order]
    hi = hi[order]
    owner = owner[order]
    del order
    # An interval that no other owner's interval overlaps adds no shared piece.
    reach = np.maximum.accumulate(hi)
    overlaps = np.zeros(len(lo), dtype=bool)
    overlaps[1:] = lo[1:] < reach[:-1]
    overlaps[:-1] |= hi[:-1] > lo[1:]
    del reach
    lo, hi, owner = lo[overlaps], hi[overlaps], owner[overlaps]

    # Piece k is [cuts[k], cuts[k + 1]). Each distinct interval (equal ones
    # lie together, sorted by lo) covers pieces rank(lo) to rank(hi) - 1,
    # where rank counts the distinct edges below.
    distinct = _run_starts(lo, hi)
    owners_of = np.diff(distinct, append=len(lo))
    lo, hi = lo[distinct], hi[distinct]
    del distinct
    cuts = np.concatenate((lo, hi, buffer_starts))
    cuts.sort()
    cuts = cuts[_run_starts(cuts)]
    first = np.searchsorted(cuts, lo)
    count = np.searchsorted(cuts, hi) - first
    del lo, hi
    first, count = first.repeat(owners_of), count.repeat(owners_of)
    del owners_of
    first *= owners
    first += owner
    del owner
    keys = sequences(first, count, owners)
    del first, count
    keys.sort()

    pair = keys // waves  # piece * total + pid
    wave = keys - pair * waves
    del keys
    first = _run_starts(pair // total)  # one per piece
    cross = np.minimum.reduceat(wave, first) != np.maximum.reduceat(wave, first)
    del wave
    pair = pair[_run_starts(pair)]  # distinct (piece, pid)
    piece = pair // total
    pid = pair - piece * total
    del pair
    first = _run_starts(piece)  # the same pieces; each one's pids are pid[first:][:size]
    size = np.diff(first, append=len(pid))
    shared = size >= 2
    first, size, cross = first[shared], size[shared], cross[shared]
    piece = piece[first]
    granules = cuts[piece + 1] - cuts[piece]
    buffer_of = np.searchsorted(buffer_starts, cuts[piece], side="right") - 1
    del piece, cuts

    # A group is one row (buffer, pids), over the pieces of n pids for each n.
    # Rows are sorted on int64 keys that pack ``per_key`` values in base ``radix``.
    radix = max(total, len(names))
    per_key = 62 // radix.bit_length()
    groups = []
    for n in np.flatnonzero(np.bincount(size)).tolist():
        at = np.flatnonzero(size == n)
        head = first[at]
        packed = []
        for i in range(n + 1):
            if i % per_key == 0:
                packed.append(np.zeros(len(at), dtype=np.int64))
            packed[-1] *= radix
            packed[-1] += buffer_of[at] if i == 0 else pid[head + i - 1]
        order = np.lexsort(packed) if len(packed) > 1 else np.argsort(packed[0])
        starts = _run_starts(*(key[order] for key in packed))
        at = at[order]
        shared_bytes = np.add.reduceat(granules[at], starts) * GRANULE_BYTES
        crosses = np.logical_or.reduceat(cross[at], starts)
        kept = shared_bytes >= MIN_SHARED_BYTES
        at = at[starts[kept]]
        for buffer, pids, nbytes, cross_wave in zip(
            buffer_of[at].tolist(), pid[first[at, None] + np.arange(n)].tolist(),
            shared_bytes[kept].tolist(), crosses[kept].tolist(),
        ):
            groups.append(
                SharingGroup(
                    buffer_name=names[buffer],
                    pids=tuple(pids),
                    shared_bytes=nbytes,
                    reuse_class="cross_wave" if cross_wave else "intra_wave",
                )
            )
    groups.sort(key=lambda g: (-g.shared_bytes, g.buffer_name, g.pids))
    return LocalitySummary(
        kernel=trace.kernel, granule_bytes=GRANULE_BYTES, groups=tuple(groups)
    )


def _record_chunks(trace: AccessTrace):
    """(segments, each segment's owner key) of consecutive member streams of
    one wave, at most ``_CHUNK_GRANULES`` granules per chunk (or one stream
    that alone passes it), bounded from the segments: a run of L bytes spans
    at most L // GRANULE_BYTES + 2 granules, in each of its workgroup's
    groups. The chunks are cut from the wave's member batches, several
    batches' workgroups joining one chunk, and laid out flat
    (``Batch.flat``); a stream's owner key is ``pid * num_waves + wave``. A
    chunk keeps to one wave: joining softmax's two waves made the summary
    about a quarter slower."""
    pieces, room, chunk_wave = [], _CHUNK_GRANULES, 0
    for wave, pids, batch in trace.member_batches():
        granules = np.cumsum(batch.counts * (2 + batch.lens // GRANULE_BYTES))
        per_stream = np.diff(np.concatenate(([0], granules))[batch.indptr]) * batch.groups
        ends = np.concatenate(([0], per_stream.cumsum()))  # granules before each stream
        owner = pids * trace.num_waves + wave
        lo = 0
        while lo < len(pids):
            hi = int(np.searchsorted(ends, ends[lo] + room, side="right")) - 1
            if pieces and (hi <= lo or wave != chunk_wave):  # the stream starts a chunk
                yield _join_chunk(pieces)
                pieces, room = [], _CHUNK_GRANULES
                continue
            hi, chunk_wave = max(hi, lo + 1), wave
            pieces.append((batch.part(lo, hi).flat(), owner[lo:hi]))
            room -= ends[hi] - ends[lo]
            lo = hi
    if pieces:
        yield _join_chunk(pieces)


def _join_chunk(pieces) -> tuple[Batch, np.ndarray]:
    """The pieces of one chunk, each a flat batch and its workgroups' owner
    keys, as one batch of their segments and each segment's owner key."""
    segments = Batch.join([part for part, _ in pieces])
    owner = np.concatenate([keys for _, keys in pieces]).repeat(np.diff(segments.indptr))
    return segments, owner


def _owner_intervals(segments: Batch, owner: np.ndarray, bases: np.ndarray):
    """(lo, hi, owner): each owner's granules in one chunk as half-open
    intervals [lo, hi), disjoint and none adjacent to another of its owner.

    A segment whose runs each lie in one granule, a whole number of granules
    apart, touches a granule sequence; such segments are deduplicated per
    owner before they are expanded (the 64 column scatters of a transpose
    tile are one sequence), and their granules are merged first. Every other
    segment is expanded run by run, and merged with them.
    """
    lens, strides, counts = segments.lens, segments.strides, segments.counts
    goff = segments.offs + bases[segments.bufs]
    first = goff // GRANULE_BYTES
    # past every run's last granule: owner * span + granule orders by owner, then granule
    end = np.maximum(goff, goff + (counts - 1) * strides) + lens
    span = int(end.max(initial=0)) // GRANULE_BYTES + 2
    granular = (goff - first * GRANULE_BYTES + lens <= GRANULE_BYTES) & (
        (strides % GRANULE_BYTES == 0) | (counts == 1))

    at = np.flatnonzero(granular)
    key = owner[at] * span + first[at]
    order = np.argsort(key)
    key, step, count = key[order], strides[at][order] // GRANULE_BYTES, counts[at][order]
    distinct = _run_starts(key, step, count)
    points = sequences(key[distinct], count[distinct], step[distinct])
    points.sort()
    lo, hi = _merged(points, points + 1)

    at = np.flatnonzero(~granular)
    if len(at):
        count = counts[at]
        starts = sequences(goff[at], count, strides[at])
        base = (owner[at] * span).repeat(count)
        lo = np.concatenate((lo, base + starts // GRANULE_BYTES))
        hi = np.concatenate((hi, base + (starts + lens[at].repeat(count) - 1) // GRANULE_BYTES + 1))
        lo.sort()
        hi.sort()
        lo, hi = _merged(lo, hi)
    owner = lo // span
    return lo - owner * span, hi - owner * span, owner.astype(np.int32)


def _merged(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted starts and ends of the union of half-open intervals, given
    their sorted starts and sorted ends: the i-th start opens a part unless
    the (i-1)-th end reaches it, and a part ends at the end before the next
    part's opening start. Touching intervals join."""
    opens = np.ones(len(lo), dtype=bool)
    np.greater(lo[1:], hi[:-1], out=opens[1:])
    closes = np.ones(len(lo), dtype=bool)
    closes[:-1] = opens[1:]
    return lo[opens], hi[closes]


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Index of the first row of each run of equal rows, over sorted columns."""
    if len(columns[0]) == 0:
        return np.zeros(0, dtype=np.int64)
    differs = columns[0][1:] != columns[0][:-1]
    for column in columns[1:]:
        differs |= column[1:] != column[:-1]
    return np.flatnonzero(np.concatenate(([True], differs)))


def sequences(starts: np.ndarray, counts: np.ndarray, steps: np.ndarray | int = 1) -> np.ndarray:
    """Concatenate the sequences ``starts[i] + j * steps[i]`` for ``j < counts[i]``
    (``steps`` an array, or one step for every sequence); a count may be zero.

    One running sum over the steps, in which each sequence's first value
    jumps from the previous sequence's last.
    """
    if (counts == 1).all():
        return starts.copy()
    steps = np.broadcast_to(steps, counts.shape)
    if not counts.all():
        some = counts > 0
        starts, counts, steps = starts[some], counts[some], steps[some]
    out = steps.repeat(counts)
    first = counts.cumsum()
    first -= counts
    jumps = counts - 1  # each sequence's last value, then the jump to the next one's first
    jumps *= steps
    jumps += starts
    jumps[1:] = starts[1:] - jumps[:-1]
    jumps[:1] = starts[:1]
    out[first] = jumps
    return out.cumsum(out=out)
