"""Correctness checks on the workloads' outputs, run outside the timed rounds.

Every check raises ``CheckFailed``. The line census and the oracle compute
their figures from the trace records alone, without the simulator.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np

from swizzlesim import (
    ArchSpec,
    KernelSpec,
    SearchProposer,
    builtin_pattern,
    generate_trace,
    optimize,
    pattern_from_expr,
    simulate,
)
from swizzlesim.loop import rank_history
from swizzlesim.patterns import pattern_from_dict, remap_table

import oracle
from workloads import ListSink

MIN_GAIN = 0.10  # the hit-rate gain tier-1 c04 requires of these swizzles


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass(frozen=True)
class Census:
    touches: int  # line touches: a record spanning k lines counts k
    lines: int  # distinct lines in the union of all records' line ranges


_BATCH_RECORDS = 1 << 20  # records gathered before folding them into the line cover


def line_census(trace, line_bytes: int) -> Census:
    """Touches and distinct lines of a trace, from its records alone."""
    bases = {buf.buffer_id: buf.base_offset for buf in trace.buffers}
    base_of = np.zeros(max(bases) + 1, dtype=np.int64)
    for buffer_id, base in bases.items():
        base_of[buffer_id] = base
    end = max(buf.base_offset + buf.length_bytes for buf in trace.buffers)
    size = end // line_bytes + 2
    cover = np.zeros(size, dtype=np.int64)  # +1 at a range's first line, -1 past its last
    touches = 0
    firsts: list[np.ndarray] = []
    lasts: list[np.ndarray] = []
    pending = 0

    def flush() -> None:
        nonlocal pending
        if firsts:
            cover[:] += np.bincount(np.concatenate(firsts), minlength=size)
            cover[:] -= np.bincount(np.concatenate(lasts) + 1, minlength=size)
        firsts.clear()
        lasts.clear()
        pending = 0

    for wave, members in enumerate(trace.wave_pids):
        for pid in members:
            s = trace.stream(int(pid), wave)
            start = s.offs + base_of[s.bufs]
            first = start // line_bytes
            last = (start + s.lens - 1) // line_bytes
            touches += int((last - first + 1).sum())
            firsts.append(first)
            lasts.append(last)
            pending += len(first)
            if pending >= _BATCH_RECORDS:
                flush()
    flush()
    return Census(touches=touches, lines=int(np.count_nonzero(np.cumsum(cover) > 0)))


def check_report(report, census: Census) -> None:
    """Conservation, the census identities, and the footprint bound."""
    label = f"{report.kernel}/{report.pattern}"
    require(report.hits + report.misses == report.accesses,
            f"{label}: hits + misses != accesses")
    for field in ("accesses", "hits", "misses"):
        total = sum(getattr(x, field) for x in report.per_xcd)
        require(total == getattr(report, field),
                f"{label}: per-XCD {field} do not sum to the total")
    for xcd, stats in enumerate(report.per_xcd):
        require(stats.hits + stats.misses == stats.accesses,
                f"{label}: XCD {xcd} does not conserve")
    require(report.accesses == census.touches,
            f"{label}: {report.accesses} accesses, but the records make "
            f"{census.touches} line touches")
    require(report.unique_lines_touched == census.lines,
            f"{label}: {report.unique_lines_touched} unique lines, but the records cover "
            f"{census.lines}")
    require(report.unique_lines_touched <= report.misses,
            f"{label}: fewer misses than distinct lines")


def check_gain(baseline, swizzled) -> None:
    gain = swizzled.l2_hit_rate - baseline.l2_hit_rate
    require(gain >= MIN_GAIN, f"{swizzled.kernel}/{swizzled.pattern}: gain {gain:+.4f} "
            f"over identity is below +{MIN_GAIN:.2f}")


def check_search(result, entries, grid, arch) -> None:
    """The best is the top validated hit rate, never falls, and is a permutation."""
    validated = [e for e in entries if e.report is not None]
    require(bool(validated), "search: no validated entry")
    top = max(e.report.l2_hit_rate for e in validated)
    require(result.best.report is not None and result.best.report.l2_hit_rate == top,
            "search: best is not the highest validated hit rate")
    for entry in entries:
        require((entry.report is None) == (not entry.validation.bijective),
                f"search: iteration {entry.iteration} simulated a rejected candidate "
                "or skipped a valid one")
    best_so_far = [b for _, b in result.progression]
    require(all(b >= a for a, b in zip(best_so_far, best_so_far[1:])), "search: best-so-far fell")
    require(best_so_far[-1] == top, "search: final best-so-far is not the best")
    table = remap_table(pattern_from_dict(result.best.pattern), grid, arch)
    require(np.array_equal(np.sort(table), np.arange(grid.total_blocks)),
            "search: best table is not a permutation")


def check_oracle(report, expected: list[tuple[int, int]]) -> None:
    got = [(x.hits, x.misses) for x in report.per_xcd]
    require(got == expected, f"{report.kernel}/{report.pattern}: per-XCD (hits, misses) "
            f"{got} differ from the reference {expected}")


# ---------------------------------------------------------------------------
# Oracle comparison on reduced instances
# ---------------------------------------------------------------------------

def _reduced_arch(kib: int, ways: int) -> ArchSpec:
    # four slots per XCD, so workgroups queue for slots
    return ArchSpec(name=f"reduced-{kib}k{ways}w", num_xcds=8, cus_per_xcd=4,
                    l2_bytes_per_xcd=kib * 1024, l2_line_bytes=128, l2_associativity=ways)


# (spec, the workload's swizzle or None for the search, arch). Each cache is
# small enough that its instance evicts: the 512 transpose reproduces the
# default's set conflicts (identity 0 hits, transpose_band 0.92); the 256
# one and the softmax rows are hit by recency, so LRU order shows.
REDUCED = {
    "transpose_pair": [
        (KernelSpec("transpose", {"m": 512, "n": 512}, {"m": 32, "n": 32}), "transpose_band",
         _reduced_arch(64, 8)),
        (KernelSpec("transpose", {"m": 256, "n": 256}, {"m": 32, "n": 32}), "transpose_band",
         _reduced_arch(64, 8)),
    ],
    "softmax_search": [
        (KernelSpec("softmax", {"rows": 32, "cols": 1024}, {"cols": 128}), None,
         _reduced_arch(128, 16)),
    ],
    "stencil_sweep": [
        (KernelSpec("stencil2d", {"m": size, "n": size}, {"m": 64, "n": 64}), "stencil_group",
         _reduced_arch(32, 4))
        for size in (512, 600)
    ],
}


def random_affine(total: int, rng: random.Random):
    """A bijection pid -> (a * pid + b) mod total with a coprime to total."""
    a = rng.choice([v for v in range(2, max(total, 3)) if math.gcd(v, total) == 1] or [1])
    b = rng.randrange(total)
    return pattern_from_expr("random_affine", f"((pid * {a}) + {b}) % num_blocks")


def reduced_reports(workload: str, seed: int):
    """(trace, pattern, arch, report) for every reduced instance of a workload.

    Covers identity, the workload's swizzle (for the search: every
    candidate it simulates) and a random affine bijection drawn from seed.
    """
    rng = random.Random(seed)
    for spec, swizzle, arch in REDUCED[workload]:
        trace = generate_trace(spec)
        grid = trace.grid
        patterns = [builtin_pattern("identity", grid, arch), random_affine(grid.total_blocks, rng)]
        if swizzle is not None:
            patterns.append(builtin_pattern(swizzle, grid, arch))
        for pattern in patterns:
            yield trace, pattern, arch, simulate(trace, pattern, arch)
        if swizzle is None:
            entries: list = []
            result = optimize(spec, arch, SearchProposer(), max_iters=10,
                              history_sink=ListSink(entries))
            check_search(result, entries, grid, arch)
            require(result.best is rank_history(entries), "search: best differs from ranking")
            seen = set()
            for entry in entries:
                expr = entry.pattern["expr"]
                if entry.report is not None and expr not in seen:
                    seen.add(expr)
                    yield trace, pattern_from_dict(entry.pattern), arch, entry.report


def check_against_oracle(workload: str, seed: int) -> int:
    """Compare every reduced instance with the oracle; returns the count.

    Ends with the self-test: the same checks must reject a report with one
    hit moved to a miss.
    """
    checked = 0
    hit = None
    censuses: dict = {}  # keyed by the trace itself, which stays alive
    for trace, pattern, arch, report in reduced_reports(workload, seed):
        if trace not in censuses:
            censuses[trace] = line_census(trace, arch.l2_line_bytes)
        census = censuses[trace]
        expected = oracle.reference_per_xcd(
            trace, oracle.reference_table(pattern, trace.grid, arch), arch)
        check_report(report, census)
        check_oracle(report, expected)
        checked += 1
        if report.per_xcd[0].hits > 0:
            hit = (report, census, expected)
    require(hit is not None, "self-test needs a reduced report with a hit on XCD 0")
    selftest(*hit)
    return checked


def one_hit_to_miss(report):
    x0 = report.per_xcd[0]
    moved = dataclasses.replace(x0, hits=x0.hits - 1, misses=x0.misses + 1,
                                hit_rate=(x0.hits - 1) / x0.accesses)
    return dataclasses.replace(
        report, hits=report.hits - 1, misses=report.misses + 1,
        l2_hit_rate=(report.hits - 1) / report.accesses,
        per_xcd=(moved,) + tuple(report.per_xcd[1:]),
    )


def selftest(report, census: Census, expected) -> None:
    """The checks must reject a report with one hit on XCD 0 moved to a miss."""
    tampered = one_hit_to_miss(report)
    try:
        check_report(tampered, census)
        check_oracle(tampered, expected)
    except CheckFailed:
        return
    raise CheckFailed("self-test: a report with one hit moved to a miss passed the checks")
