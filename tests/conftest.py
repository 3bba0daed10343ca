"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import contextlib
import json

import numpy as np
import pytest

from swizzlesim import cachesim
from swizzlesim.arch import ArchSpec, MI300X_LIKE
from swizzlesim.dsl import BinOp, Ident, Lit, MinMax, VOCABULARY
from swizzlesim.patterns import GridSpec, SwizzlePattern, validated_remap_table
from swizzlesim.promptio import ProposalRecord
from swizzlesim.traces import (
    GRANULE_BYTES,
    MIN_SHARED_BYTES,
    AccessTrace,
    Batch,
    Buffer,
    LocalitySummary,
    SharingGroup,
    records_outside,
)


@pytest.fixture
def mi300x():
    return MI300X_LIKE


def arch_with_xcds(
    num_xcds: int,
    cus_per_xcd: int = 4,
    l2_bytes: int = 1 << 20,
    line: int = 128,
    ways: int = 16,
    slots: int = 1,
) -> ArchSpec:
    return ArchSpec(
        name=f"test-x{num_xcds}",
        num_xcds=num_xcds,
        cus_per_xcd=cus_per_xcd,
        l2_bytes_per_xcd=l2_bytes,
        l2_line_bytes=line,
        l2_associativity=ways,
        wg_slots_per_cu=slots,
    )


_OPS = ("+", "-", "*", "//", "%", "<<", ">>", "&", "|")
_IDENTS = tuple(sorted(VOCABULARY))


def random_expr(rng: np.random.Generator, depth: int = 4):
    """Random expression tree over the full grammar."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Lit(int(rng.integers(0, 64)))
        return Ident(_IDENTS[rng.integers(0, len(_IDENTS))])
    roll = rng.random()
    left = random_expr(rng, depth - 1)
    right = random_expr(rng, depth - 1)
    if roll < 0.15:
        return MinMax("min" if rng.random() < 0.5 else "max", left, right)
    return BinOp(_OPS[rng.integers(0, len(_OPS))], left, right)


def random_env(rng: np.random.Generator) -> dict[str, int]:
    return {name: int(rng.integers(0, 64)) for name in _IDENTS}


class ReferenceLru:
    """Independently coded set-associative LRU used as a test oracle.

    Plain lists with most-recently-used at the end; deliberately no shared
    machinery with the implementation under test.
    """

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [[] for _ in range(num_sets)]

    def access(self, line: int) -> bool:
        bucket = self.sets[line % self.num_sets]
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
            return True
        bucket.append(line)
        if len(bucket) > self.ways:
            bucket.pop(0)
        return False


class FullyAssociativeLru:
    """Brute-force fully-associative LRU oracle (capacity in lines)."""

    def __init__(self, capacity_lines: int):
        self.capacity = capacity_lines
        self.order: list[int] = []

    def access(self, line: int) -> bool:
        if line in self.order:
            self.order.remove(line)
            self.order.append(line)
            return True
        self.order.append(line)
        if len(self.order) > self.capacity:
            self.order.pop(0)
        return False


@contextlib.contextmanager
def python_pass():
    """``simulate`` runs each XCD's pass in the oracle ``reference_pass``
    inside this context, on the threads it would run the native pass on, from
    the same member positions of each wave."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cachesim, "_run_native",
                  lambda kernel, trace, positions, arch, slots, touched:
                  cachesim.reference_pass(trace, positions, arch, slots, touched))
        yield


def record_batch(bufs, offs, lens, writes) -> Batch:
    """One workgroup's records as a batch of one-run segments: record ``i`` is
    ``lens[i]`` bytes of buffer ``bufs[i]`` at ``offs[i]``, a write if
    ``writes[i]``."""
    offs = np.asarray(offs, dtype=np.int64)
    return Batch(bufs, offs, lens, writes, np.zeros_like(offs), np.ones_like(offs),
                 [0, len(offs)])


def batched(stream_fn):
    """The batch function over a per-pid ``(wave, pid) -> Batch`` function:
    the pids' segments in the order of ``pids``, for tests that write their
    synthetic traces one stream at a time (see ``record_batch``)."""

    def batch_fn(wave, pids):
        streams = [stream_fn(wave, int(pid)) for pid in pids]
        columns = zip(*(s.columns for s in streams)) if streams else [([],)] * 7
        *columns, gstrides = map(np.concatenate, columns)
        return Batch(*columns, np.cumsum([0] + [len(s) for s in streams]), gstrides,
                     np.concatenate([s.groups for s in streams] + [[]]))

    return batch_fn


def xcd_table(pattern: SwizzlePattern, grid: GridSpec, arch: ArchSpec) -> np.ndarray:
    """XCD executing each logical pid under round-robin dispatch."""
    table = validated_remap_table(pattern, grid, arch)
    launch_of = np.empty_like(table)
    launch_of[table] = np.arange(len(table), dtype=np.int64)
    return launch_of % arch.num_xcds


def format_proposal(record: ProposalRecord) -> str:
    """Inverse of ``parse_proposal``; builds replay fixtures and proposals."""
    critiques = {str(k): v for k, v in sorted(record.per_iteration_critiques.items())}
    return (
        "REASONING:\n"
        f"{record.reasoning}\n"
        "CRITIQUES:\n"
        f"{json.dumps(critiques, sort_keys=True)}\n"
        "NEW_APPROACH:\n"
        f"{record.new_approach}\n"
        "IMPROVEMENT_RATIONALE:\n"
        f"{record.improvement_rationale}\n"
        "FINAL_EXPRESSION:\n"
        "```\n"
        f"{record.final_expression}\n"
        "```\n"
    )


def buffer_by_name(trace: AccessTrace, name: str) -> Buffer:
    """The trace's buffer called ``name``; ``KeyError`` if it has none."""
    return {buf.name: buf for buf in trace.buffers}[name]


def validate_trace_bounds(trace: AccessTrace) -> None:
    """Raise ValueError if any record is empty or leaves its buffer (simulate's check)."""
    for wave in range(trace.num_waves):
        for pid in trace.wave_pids[wave]:
            if records_outside(trace.stream(int(pid), wave), trace.buffer_lengths):
                raise ValueError(f"pid {pid} wave {wave}: empty record or access out of bounds")


def check_write_coverage(trace: AccessTrace, buffer_name: str, waves=None) -> None:
    """Verify writes to a buffer tile it exactly once (no gap, no overlap)."""
    buf = buffer_by_name(trace, buffer_name)
    starts = []
    lens = []
    for wave in range(trace.num_waves) if waves is None else waves:
        for pid in trace.wave_pids[wave]:
            s = trace.stream(int(pid), wave)
            mask = s.writes & (s.bufs == buf.buffer_id)
            if mask.any():
                starts.append(s.offs[mask])
                lens.append(s.lens[mask])
    if not starts:
        raise AssertionError(f"no writes to buffer {buffer_name!r}")
    starts = np.concatenate(starts)
    lens = np.concatenate(lens)
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    ends = starts + lens[order]
    if starts[0] != 0 or ends[-1] != buf.length_bytes or (starts[1:] != ends[:-1]).any():
        raise AssertionError(f"writes do not tile buffer {buffer_name!r} exactly once")


def reference_locality_summary(trace: AccessTrace) -> LocalitySummary:
    """Set-based oracle for ``locality_summary``: a Python set of pids and one
    of waves per touched granule."""
    touched: dict[int, set[int]] = {}
    touched_waves: dict[int, set[int]] = {}
    for wave in range(trace.num_waves):
        for pid in trace.wave_pids[wave]:
            s = trace.stream(int(pid), wave)
            goff = s.offs + trace.base_offsets[s.bufs]
            firsts = goff // GRANULE_BYTES
            counts = (goff + s.lens - 1) // GRANULE_BYTES - firsts + 1
            # granule k of the concatenated ranges is k plus its range's first
            # granule minus the range's position
            shift = np.repeat(firsts - np.cumsum(counts) + counts, counts)
            for g in np.unique(shift + np.arange(len(shift))).tolist():
                touched.setdefault(g, set()).add(int(pid))
                touched_waves.setdefault(g, set()).add(wave)

    by_buffer_and_group: dict[tuple[str, tuple[int, ...]], list] = {}
    bounds = sorted((buf.base_offset // GRANULE_BYTES, buf.name) for buf in trace.buffers)
    starts = [b[0] for b in bounds]
    for granule, pids in touched.items():
        if len(pids) < 2:
            continue
        name = bounds[np.searchsorted(starts, granule, side="right") - 1][1]
        entry = by_buffer_and_group.setdefault((name, tuple(sorted(pids))), [0, False])
        entry[0] += 1
        if len(touched_waves[granule]) > 1:
            entry[1] = True

    groups = [
        SharingGroup(buffer_name=name, pids=pids, shared_bytes=count * GRANULE_BYTES,
                     reuse_class="cross_wave" if cross else "intra_wave")
        for (name, pids), (count, cross) in by_buffer_and_group.items()
        if count * GRANULE_BYTES >= MIN_SHARED_BYTES
    ]
    groups.sort(key=lambda g: (-g.shared_bytes, g.buffer_name, g.pids))
    return LocalitySummary(kernel=trace.kernel, granule_bytes=GRANULE_BYTES,
                           groups=tuple(groups))


def reference_check_images(images: np.ndarray, total: int) -> dict:
    """Full-list oracle for ``patterns._check_images``, as it was before
    verdicts kept only a prefix: every out-of-range pid, in pid order, and a
    (pid, next pid, shared image) triple per adjacent pair of pids sharing an
    image, by image, from a stable sort of the in-range images."""
    in_range = (images >= 0) & (images < total)
    valid_images = images[in_range]
    valid_pids = np.nonzero(in_range)[0]
    order = np.argsort(valid_images, kind="stable")
    sorted_imgs = valid_images[order]
    dup_at = np.nonzero(sorted_imgs[1:] == sorted_imgs[:-1])[0]
    out_of_range = np.nonzero(~in_range)[0].tolist()
    collisions = list(zip(valid_pids[order[dup_at]].tolist(),
                          valid_pids[order[dup_at + 1]].tolist(), sorted_imgs[dup_at].tolist()))
    covered = np.zeros(total, dtype=bool)
    covered[valid_images] = True
    coverage_ok = bool(covered.all())
    return {"bijective": not out_of_range and not collisions and coverage_ok,
            "out_of_range": out_of_range, "collisions": collisions, "coverage_ok": coverage_ok}
