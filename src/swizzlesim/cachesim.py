"""Trace-driven simulator of per-XCD L2 caches under round-robin dispatch.

Execution model: launch pid ``i`` executes logical workgroup ``remap(i)``'s
stream on XCD ``i % num_xcds``. Each XCD keeps up to
``concurrent_slots_per_xcd`` workgroups resident and interleaves their
streams one line touch per turn; a workgroup that finishes frees its slot
for the next launch pid assigned to that XCD. Wave barriers drain all XCDs
before the next wave starts, so each wave begins with empty slots (cache
contents persist across waves).

Each XCD owns an independent set-associative LRU cache. Accesses are
quantized to lines: a record spanning k lines counts as k ordered line
touches, and writes allocate like reads. There is no cycle model; time is
access-count interleaving, so reported hit rates are locality signals, not
hardware predictions. A record that names no buffer, starts before its
buffer or ends past it raises ``SimulationError``, as does a record of length
zero or less. So do buffers of 2**32 lines or more and an L2 of 2**32 sets or
more, before any allocation: ``_lru.c``'s set index is exact below both.

Each XCD's pass runs in a small C kernel, ``_lru.c`` beside this module,
whose entry point is ``xcd_drain``. It takes a queue of one XCD's
workgroups of one wave, in launch order, each row the addresses of a
workgroup's segment arrays (see ``traces.Batch``) and its segment count. It
loads the resident slots from the queue, checking each row's segments
against the buffer bounds (a segment's first and last run bound the rest),
walks each segment run by run, stepping the run's start by the stride,
expands runs into line touches on the fly and feeds them to the LRU, one
touch per slot per turn, and refills a drained slot after the survivors.
Records are never built on this path. A materialized trace keeps every
member's row, so a wave is one foreign call.
A lazy trace is fed one batch at a time, each row pointing into it: first
as many workgroups as the XCD has slots, then as many as ``BATCH_SEGMENTS``
segments hold at the XCD's mean segments per workgroup so far, never fewer
than its slots. The kernel refills slots from the batch as they drain and
asks for the next one once it is spent and a slot is free. A batch is kept
only while one of its workgroups is resident.
``_run_native`` owns each XCD's LRU rows, one ring of tags per set, for the
whole pass. A line's byte in the touched-line map has bit 0 set once the
line is touched, and bit 1 while the XCD's rows hold it. The map pads 64
bytes after every 4096 lines (``_touched_map``), so that lines of one set do
not share their low address bits, and the tags hold map bytes, not line ids
(see ``_lru.c``); padding bytes stay 0.

Threads: ``simulate`` starts ``min(num_xcds, WORKERS) - 1`` helper threads,
``WORKERS`` being the CPUs this process may use, drains on the calling
thread too, and joins every helper before it returns or raises; no thread
outlives the call, and there is no persistent pool. On one usable CPU or one
XCD there is no helper, and the caller runs every pass in order.
Each thread takes the next XCD in order, from XCD 0, and runs its whole
pass, until none is left or a failure is recorded.
ctypes releases the GIL around ``xcd_drain``. Each helper owns a touched-line
map, ORed into the caller's at the end. The counts are those of the serial
order: each pass has its own LRU rows and clears bit 1 as it ends, a hit
depends only on bit 1, and bit 0 is only ORed, so ``unique_lines_touched``
counts the nonzero bytes of the maps' OR. So are the errors: every pass
taken ends before ``simulate`` returns or raises, and the lowest failed
XCD's error is raised. Every XCD below it was taken before it and ran to
its end. With one worker a failed XCD 0 runs no other XCD; with more, the
helpers may have begun other XCDs before XCD 0 fails.

The first cache built in a process compiles the kernel with ``_CC`` and
``_CFLAGS`` into ``$XDG_CACHE_HOME/swizzlesim`` (default ``~/.cache/swizzlesim``),
under a name keyed by a hash of the source, compiler and flags; later
processes reuse that build. The compiler writes to a temporary file that is
renamed into place, so a concurrent process never loads a half-written
library. Nothing is compiled or loaded at import. gcc is required: when the
kernel cannot be built or loaded, ``simulate`` raises ``SimulationError``
with the reason. It never calls ``reference_pass``, the tests' oracle.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .arch import ArchSpec, concurrent_slots_per_xcd
from .patterns import SwizzlePattern, builtin_pattern, validated_remap_table
from .records import from_dict, to_dict
from .traces import BATCH_SEGMENTS, AccessTrace, Batch, records_outside, sequences


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class ExecParams:
    """Execution-model options; there are none.

    The execution model is fixed (see the module docstring). Only
    ``simulate_pair`` takes an ``ExecParams``, as its third positional
    argument, and ignores it; the class stays so that its callers keep
    working.
    """


@dataclass(frozen=True)
class XcdStats:
    accesses: int
    hits: int
    misses: int
    hit_rate: float


@dataclass(frozen=True)
class BottleneckReport:
    """Simulated L2 hit-rate metrics; the loop's ranking signal."""

    kernel: str
    pattern: str
    num_xcds: int
    accesses: int
    hits: int
    misses: int
    l2_hit_rate: float
    per_xcd: tuple[XcdStats, ...]
    unique_lines_touched: int


# CPUs this process may use; a simulation runs on at most this many threads
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_KERNEL_SOURCE = Path(__file__).with_name("_lru.c")
_CC = "gcc"
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _bind(lib: str):
    """The kernel library at path ``lib``, loaded, its entry points typed."""
    kernel = ctypes.CDLL(lib)
    c_ptr, c_i64 = ctypes.c_void_p, ctypes.c_int64
    # slots, capacity, loaded, queue, rows, more, bases, lengths, num_buffers,
    # line_shift, touched, counts, tags, heads, num_sets, ways
    kernel.xcd_drain.argtypes = [c_ptr, c_i64, c_i64, c_ptr, c_i64, c_i64, c_ptr, c_ptr,
                                 c_i64, c_i64, c_ptr, c_ptr, c_ptr, c_ptr, c_i64, c_i64]
    kernel.set_index.argtypes = [c_i64, c_i64]  # line, num_sets
    kernel.byte_of.argtypes = [c_i64]  # line
    kernel.xcd_drain.restype = kernel.set_index.restype = kernel.byte_of.restype = c_i64
    return kernel


@functools.cache
def _load_kernel():
    """The native kernel (its entry point is ``xcd_drain``), built on first
    use, or ``SimulationError`` with the reason. A failed build leaves no
    file, and ``functools.cache`` keeps no exception: the next call retries."""
    import hashlib
    import subprocess
    import tempfile

    try:
        key = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + repr((_CC, _CFLAGS)).encode())
        build_dir = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
        lib = build_dir / "swizzlesim" / f"lru-{key.hexdigest()[:16]}.so"
        if not lib.exists():
            lib.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=lib.parent)
            os.close(fd)
            try:
                subprocess.run([_CC, *_CFLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
                               check=True, capture_output=True)
                os.replace(tmp, lib)
            finally:
                Path(tmp).unlink(missing_ok=True)
        return _bind(str(lib))
    except subprocess.CalledProcessError as exc:
        reason = exc.stderr.decode(errors="replace").strip() or str(exc)
    except OSError as exc:  # no compiler, unwritable directory, unloadable library
        reason = str(exc)
    raise SimulationError(f"native LRU kernel unavailable: {reason}")


class SetAssocLru:
    """Set-associative cache with strict LRU replacement per set, an
    ``OrderedDict`` per set.

    This is the LRU of the oracle ``reference_pass``; the native pass keeps
    its own tag rows (see ``_run_native``).
    """

    def __init__(self, num_sets: int, ways: int):
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self._sets: dict[int, OrderedDict] = {}

    def access(self, line: int) -> bool:
        """Touch one line; True on hit. Misses allocate (write-allocate)."""
        return self.access_many([line])[0] == 1

    def access_many(self, lines: Sequence[int] | np.ndarray) -> tuple[int, int]:
        """Touch lines in order; returns (hits, misses)."""
        if isinstance(lines, np.ndarray):
            lines = lines.tolist()
        sets = self._sets
        num_sets = self.num_sets
        ways = self.ways
        get = sets.get
        hits = 0
        misses = 0
        for line in lines:
            od = get(line % num_sets)
            if od is None:
                od = sets[line % num_sets] = OrderedDict()
            if line in od:
                od.move_to_end(line)
                hits += 1
            else:
                od[line] = None
                misses += 1
                if len(od) > ways:
                    od.popitem(last=False)
        return hits, misses


def _expand_lines(records: Batch, bases: np.ndarray, line_bytes: int) -> np.ndarray:
    """Ordered line ids touched by records (k touches for a k-line record)."""
    goff = records.offs + bases[records.bufs]
    first = goff // line_bytes
    return sequences(first, (goff + records.lens - 1) // line_bytes - first + 1)


def _interleave(streams: Iterator[np.ndarray], slots: int) -> Iterator[np.ndarray]:
    """Merge workgroup line streams as the XCD would execute them.

    Slots are serviced round-robin, one touch per turn; a slot that drains
    refills from the queue and joins the next turn after the surviving
    slots. The merge is emitted in batches: while the resident set is
    stable, every stream advances in lockstep, so a batch is just the
    column-major ravel of equal-length slices.
    """
    active: list[list] = []  # [array, position]

    def refill() -> None:
        while len(active) < slots:
            nxt = next(streams, None)
            if nxt is None:
                return
            if len(nxt):
                active.append([nxt, 0])

    refill()
    while active:
        step = min(len(a) - pos for a, pos in active)
        batch = np.stack([a[pos : pos + step] for a, pos in active], axis=1)
        yield batch.ravel()
        survivors = []
        for entry in active:
            entry[1] += step
            if entry[1] < len(entry[0]):
                survivors.append(entry)
        active[:] = survivors
        refill()


def _bad_record(trace: AccessTrace, pid: int, wave: int) -> SimulationError:
    return SimulationError(
        f"{trace.kernel}: a record of workgroup {pid} in wave {wave} is empty "
        "or lies outside its buffer"
    )


def reference_pass(
    trace: AccessTrace, waves: list[np.ndarray], arch: ArchSpec, slots: int,
    touched: np.ndarray,
) -> tuple[int, int]:
    """(hits, touches) of one XCD, as ``_run_native`` counts them without its
    kernel: each workgroup's one-run segments (``AccessTrace.stream``) expanded
    by ``_expand_lines`` and merged by ``_interleave``, per wave, into one
    ``SetAssocLru``. It marks ``touched`` at line ids, not at the kernel's
    padded map bytes: the nonzero count is the same. The tests' oracle;
    ``simulate`` never calls it."""
    cache = SetAssocLru(arch.num_sets, arch.l2_associativity)

    def lines_of(pid: int, wave: int) -> np.ndarray:
        records = trace.stream(pid, wave)
        if records_outside(records, trace.buffer_lengths):
            raise _bad_record(trace, pid, wave)
        return _expand_lines(records, trace.base_offsets, arch.l2_line_bytes)

    hits = 0
    accesses = 0
    for wave, pids in enumerate(waves):
        for chunk in _interleave((lines_of(pid, wave) for pid in pids), slots):
            touched[chunk] |= 1
            hits += cache.access_many(chunk)[0]
            accesses += len(chunk)
    return hits, accesses


# one slot_t of _lru.c: bufs, offs, lens, strides, counts, segments, seg, runs, start,
# line, last
_SLOT_WORDS = 11


def _touched_map(lines: int) -> np.ndarray:
    """A zeroed touched-line map for lines ``[0, lines)``, ending at the last
    one's byte (``_lru.c``'s ``byte_of``: 64 bytes of padding per 4096 lines)."""
    return np.zeros(lines + ((lines - 1) >> 12 << 6) if lines else 0, dtype=np.uint8)


def _lru_rows(num_sets: int, ways: int) -> tuple[np.ndarray, np.ndarray]:
    """An empty LRU for ``xcd_drain``: tag rows of -1, each a ring of map bytes
    read in recency order from its head (see ``_lru.c``), and the heads."""
    return np.full(num_sets * ways, -1, dtype=np.int64), np.zeros(num_sets, dtype=np.int32)


def _run_native(
    kernel, trace: AccessTrace, waves: list[np.ndarray], arch: ArchSpec, slots: int,
    touched: np.ndarray,
) -> tuple[int, int]:
    """(hits, touches) of one XCD, all waves, in the kernel's ``xcd_drain``.

    ``touched`` is a ``_touched_map``: a line's byte is at ``_lru.c``'s
    ``byte_of(line)``, and the XCD's LRU rows (``_lru_rows``) hold those
    bytes as tags. The rows persist across waves; the pass ends by clearing
    bit 1, "resident", in ``touched``. On a materialized trace a
    wave is one queue, indexed from ``trace.queue_rows``, and one call. On a
    lazy trace the pass's first batch holds the wave's first ``slots`` pids,
    whatever number of slots is free, and each later batch the wave's next
    ``BATCH_SEGMENTS`` segments' worth of pids, at the mean segments per pid
    of the batches the pass has read, but at least ``slots``. The kernel
    returns for the next batch once this one is spent and a slot is free;
    ``live`` keeps each batch, with its offs column's address range, while a
    resident slot's offs address (slot word 1) lies in it.
    """
    num_sets, ways = arch.num_sets, arch.l2_associativity
    tags, heads = _lru_rows(num_sets, ways)
    resident = np.zeros((slots, _SLOT_WORDS), dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)  # hits, touches
    lengths = trace.buffer_lengths
    fixed = (trace.base_offsets.ctypes.data, lengths.ctypes.data, len(lengths),
             arch.l2_line_bytes.bit_length() - 1, touched.ctypes.data, counts.ctypes.data,
             tags.ctypes.data, heads.ctypes.data, num_sets, ways)

    rows = trace.queue_rows
    pids_read = segments_read = 0
    for wave, pids in enumerate(waves):
        left, live, start = 0, [], 0
        while start < len(pids):
            width = max(slots, BATCH_SEGMENTS * pids_read // max(segments_read, 1))
            batch = pids[start:len(pids) if rows is not None else start + width]
            start += len(batch)
            pids_read += len(batch)
            if rows is not None:
                queue = rows[wave][batch]
            else:
                segments = trace.batch(wave, batch)
                segments_read += len(segments)
                queue = segments.queue_rows()
                lo = segments.offs.ctypes.data
                live.append((segments, lo, lo + segments.offs.nbytes))
                del segments  # `live` alone holds it, so it frees once no slot points into it
            left = kernel.xcd_drain(resident.ctypes.data, slots, left, queue.ctypes.data,
                                    len(queue), start < len(pids), *fixed)
            if left < 0:
                raise _bad_record(trace, batch[-left - 1], wave)
            held = resident[:left, 1]
            live = [entry for entry in live if ((held >= entry[1]) & (held < entry[2])).any()]
    touched &= 1  # the next XCD starts with nothing resident
    return int(counts[0]), int(counts[1])


def simulate(
    trace: AccessTrace,
    pattern: SwizzlePattern,
    arch: ArchSpec,
    *,
    table: np.ndarray | None = None,
) -> BottleneckReport:
    """Run the trace under a swizzle pattern; the pattern is validated first,
    unless the caller passes its ``validated_remap_table`` as ``table``."""
    if table is None:
        table = validated_remap_table(pattern, trace.grid, arch)
    num_xcds = arch.num_xcds
    slots = concurrent_slots_per_xcd(arch)
    end = max((b.base_offset + b.length_bytes for b in trace.buffers), default=0)
    lines = -(-end // arch.l2_line_bytes)
    if lines >> 32 or arch.num_sets >> 32:
        raise SimulationError(f"{trace.kernel}: {lines} lines or {arch.num_sets} sets reach 2**32")
    kernel = _load_kernel()
    touched = _touched_map(lines)  # a byte per line (see _run_native)

    launch_of = np.empty_like(table)
    launch_of[table] = np.arange(len(table), dtype=np.int64)
    # launch pids of each wave's workgroups, in launch order
    wave_launch = []
    for members in trace.wave_pids:
        launched = np.zeros(len(table), dtype=bool)
        launched[launch_of[members]] = True
        wave_launch.append(np.flatnonzero(launched))

    # every thread takes the next XCD; under `lock`, no XCD is taken once a
    # failure is recorded (see the module docstring)
    todo, lock = iter(range(num_xcds)), threading.Lock()
    counts, errors = {}, {}

    def drain(own: np.ndarray) -> None:
        while True:
            with lock:
                xcd = None if errors else next(todo, None)
            if xcd is None:
                return
            try:
                waves = [table[launch[launch % num_xcds == xcd]] for launch in wave_launch]
                counts[xcd] = _run_native(kernel, trace, waves, arch, slots, own)
            except Exception as exc:
                with lock:
                    errors[xcd] = exc

    maps = [_touched_map(lines) for _ in range(min(num_xcds, WORKERS) - 1)]
    helpers = [threading.Thread(target=drain, args=(own,)) for own in maps]
    for helper in helpers:
        helper.start()
    drain(touched)
    for helper, own in zip(helpers, maps):
        helper.join()
        touched |= own
    if errors:
        try:
            raise errors[min(errors)]
        finally:
            errors.clear()  # the error's traceback holds this frame: break the cycle
    per_xcd = [XcdStats(accesses=accesses, hits=hits, misses=accesses - hits,
                        hit_rate=hits / accesses if accesses else 0.0)
               for hits, accesses in map(counts.get, range(num_xcds))]

    accesses = sum(s.accesses for s in per_xcd)
    hits = sum(s.hits for s in per_xcd)
    misses = sum(s.misses for s in per_xcd)
    return BottleneckReport(
        kernel=trace.kernel,
        pattern=pattern.name,
        num_xcds=num_xcds,
        accesses=accesses,
        hits=hits,
        misses=misses,
        l2_hit_rate=hits / accesses if accesses else 0.0,
        per_xcd=tuple(per_xcd),
        unique_lines_touched=int(np.count_nonzero(touched)),
    )


def simulate_pair(
    trace: AccessTrace,
    arch: ArchSpec,
    exec_params: ExecParams,
    pattern: SwizzlePattern,
) -> tuple[BottleneckReport, BottleneckReport]:
    """(baseline-with-identity, swizzled) reports over the same trace."""
    baseline = simulate(trace, builtin_pattern("identity", trace.grid, arch), arch)
    swizzled = simulate(trace, pattern, arch)
    return baseline, swizzled


def hit_rate_delta(baseline: BottleneckReport, swizzled: BottleneckReport) -> float:
    return swizzled.l2_hit_rate - baseline.l2_hit_rate


def compare_reports(reports: Sequence[BottleneckReport]) -> list[BottleneckReport]:
    """Rank by hit rate (descending); ties by pattern name.

    ``unique_lines_touched`` is no tie-break: every bijection of one trace
    touches the same lines.
    """
    if not reports:
        raise SimulationError("no reports to compare")
    kernels = {r.kernel for r in reports}
    if len(kernels) > 1:
        raise SimulationError(f"cannot rank reports from different kernels: {sorted(kernels)}")
    return sorted(reports, key=lambda r: (-r.l2_hit_rate, r.pattern))


# Report serialization (the profiler-log schema): one dataclass-driven form, see records.py


def report_to_dict(report: BottleneckReport) -> dict:
    return to_dict(report)


def report_to_json(report: BottleneckReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def report_from_dict(data: dict) -> BottleneckReport:
    return from_dict(BottleneckReport, data)
