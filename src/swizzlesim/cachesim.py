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
hardware predictions.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .arch import ArchSpec, concurrent_slots_per_xcd
from .patterns import SwizzlePattern, builtin_pattern, validated_remap_table
from .traces import AccessTrace, Stream


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class ExecParams:
    """Execution-model options of ``simulate``; there are none.

    The execution model is fixed (see the module docstring). The class stays
    so that callers passing ``ExecParams()`` to ``simulate``,
    ``simulate_pair`` or ``optimize`` keep working.
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


class SetAssocLru:
    """Set-associative cache with strict LRU replacement per set."""

    def __init__(self, num_sets: int, ways: int):
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self._sets: dict[int, OrderedDict] = {}

    def access(self, line: int) -> bool:
        """Touch one line; True on hit. Misses allocate (write-allocate)."""
        sets = self._sets
        idx = line % self.num_sets
        od = sets.get(idx)
        if od is None:
            od = sets[idx] = OrderedDict()
        if line in od:
            od.move_to_end(line)
            return True
        od[line] = None
        if len(od) > self.ways:
            od.popitem(last=False)
        return False

    def access_many(self, lines: Sequence[int]) -> tuple[int, int]:
        """Touch lines in order; returns (hits, misses). Hot path."""
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


def _expand_lines(stream: Stream, bases: np.ndarray, line_bytes: int) -> np.ndarray:
    """Ordered line ids touched by a stream (k touches for a k-line record)."""
    if len(stream) == 0:
        return np.empty(0, dtype=np.int64)
    goff = stream.offs + bases[stream.bufs]
    firsts = goff // line_bytes
    lasts = (goff + stream.lens - 1) // line_bytes
    counts = lasts - firsts + 1
    total = int(counts.sum())
    if total == len(stream):  # all records within one line
        return firsts
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(firsts, counts) + offsets


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


def simulate(
    trace: AccessTrace,
    pattern: SwizzlePattern,
    arch: ArchSpec,
    exec_params: ExecParams = ExecParams(),
) -> BottleneckReport:
    """Run the trace under a swizzle pattern; the pattern is validated first."""
    table = validated_remap_table(pattern, trace.grid, arch)
    num_xcds = arch.num_xcds
    slots = concurrent_slots_per_xcd(arch)
    line_bytes = arch.l2_line_bytes
    bases = trace.base_offsets
    end = max((b.base_offset + b.length_bytes for b in trace.buffers), default=0)
    extent = -(-end // line_bytes)  # lines the buffers span
    touched = np.zeros(extent, dtype=bool)

    launch_of = np.empty_like(table)
    launch_of[table] = np.arange(len(table), dtype=np.int64)
    # launch pids of each wave's workgroups, in launch order
    wave_launch = [np.unique(launch_of[members]) for members in trace.wave_pids]

    per_xcd: list[XcdStats] = []
    for xcd in range(num_xcds):
        cache = SetAssocLru(arch.num_sets, arch.l2_associativity)
        hits = 0
        misses = 0
        accesses = 0
        for wave, launch in enumerate(wave_launch):
            streams = (
                _expand_lines(trace.stream(int(table[pid]), wave), bases, line_bytes)
                for pid in launch[launch % num_xcds == xcd]
            )
            for chunk in _interleave(streams, slots):
                if chunk.min() < 0 or chunk.max() >= extent:
                    raise SimulationError(
                        f"{trace.kernel}: a record touches a line outside the "
                        f"buffers' {extent} lines"
                    )
                touched[chunk] = True
                h, m = cache.access_many(chunk.tolist())
                hits += h
                misses += m
                accesses += len(chunk)

        rate = hits / accesses if accesses else 0.0
        per_xcd.append(XcdStats(accesses=accesses, hits=hits, misses=misses, hit_rate=rate))

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
    baseline = simulate(trace, builtin_pattern("identity", trace.grid, arch), arch, exec_params)
    swizzled = simulate(trace, pattern, arch, exec_params)
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


# ---------------------------------------------------------------------------
# Report serialization (the profiler-log schema consumed by context parsing)
# ---------------------------------------------------------------------------

REPORT_FIELDS = (
    "kernel",
    "pattern",
    "num_xcds",
    "accesses",
    "hits",
    "misses",
    "l2_hit_rate",
    "per_xcd",
    "unique_lines_touched",
)


def report_to_dict(report: BottleneckReport) -> dict:
    return {
        "kernel": report.kernel,
        "pattern": report.pattern,
        "num_xcds": report.num_xcds,
        "accesses": report.accesses,
        "hits": report.hits,
        "misses": report.misses,
        "l2_hit_rate": report.l2_hit_rate,
        "per_xcd": [
            {
                "accesses": s.accesses,
                "hits": s.hits,
                "misses": s.misses,
                "hit_rate": s.hit_rate,
            }
            for s in report.per_xcd
        ],
        "unique_lines_touched": report.unique_lines_touched,
    }


def report_to_json(report: BottleneckReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def report_from_dict(data: dict) -> BottleneckReport:
    per_xcd = tuple(
        XcdStats(
            accesses=entry["accesses"],
            hits=entry["hits"],
            misses=entry["misses"],
            hit_rate=entry["hit_rate"],
        )
        for entry in data["per_xcd"]
    )
    return BottleneckReport(
        kernel=data["kernel"],
        pattern=data["pattern"],
        num_xcds=data["num_xcds"],
        accesses=data["accesses"],
        hits=data["hits"],
        misses=data["misses"],
        l2_hit_rate=data["l2_hit_rate"],
        per_xcd=per_xcd,
        unique_lines_touched=data["unique_lines_touched"],
    )
