import hashlib
import json

import numpy as np
import pytest

from swizzlesim.arch import MI300X_LIKE, ArchSpec
from swizzlesim.cachesim import (
    ExecParams,
    SetAssocLru,
    SimulationError,
    _expand_lines,
    _interleave,
    compare_reports,
    hit_rate_delta,
    report_from_dict,
    report_to_dict,
    report_to_json,
    simulate,
    simulate_pair,
)
from swizzlesim.kernels import KERNEL_KINDS, KernelSpec, generate_trace, spec_with_size
from swizzlesim.patterns import (
    BUILTIN_PATTERN_NAMES,
    GridSpec,
    NonBijectiveError,
    builtin_pattern,
    pattern_from_expr,
)
from swizzlesim.traces import AccessTrace, make_buffers, materialize

from conftest import FullyAssociativeLru, ReferenceLru, arch_with_xcds, batched, record_batch


def single_xcd(l2_bytes=4096, line=128, ways=2, slots=1):
    return arch_with_xcds(1, cus_per_xcd=slots, l2_bytes=l2_bytes, line=line, ways=ways)


def trace_of_streams(streams, buffers_bytes=1 << 20, waves=None):
    """Trace with explicit per-(wave, pid) record lists of (offset, length, write)."""
    buffers = make_buffers([("b", buffers_bytes)])
    if isinstance(streams, dict):
        streams = [streams]
    total = max(max(w) for w in streams if w) + 1

    def stream_fn(wave, pid):
        recs = streams[wave].get(pid, [])
        return record_batch([0] * len(recs), [r[0] for r in recs], [r[1] for r in recs],
                            [r[2] for r in recs])

    wave_pids = [np.asarray(sorted(w)) for w in streams]
    return AccessTrace("synthetic", GridSpec.from_block_counts(total), buffers,
                       batched(stream_fn), wave_pids=wave_pids)


# --- elementary semantics ----------------------------------------------------


def test_same_line_twice_cold_then_resident():
    trace = trace_of_streams({0: [(0, 4, False), (4, 4, False)]})
    rep = simulate(trace, builtin_pattern("identity", trace.grid, single_xcd()), single_xcd())
    assert (rep.misses, rep.hits, rep.l2_hit_rate) == (1, 1, 0.5)
    assert rep.accesses == 2


def test_colocated_sharer_hits_split_sharers_miss():
    # wgs 0 and 1 touch one line; wgs 2 and 3 touch another
    streams = {0: [(0, 4, False)], 1: [(0, 4, False)],
               2: [(512, 4, False)], 3: [(512, 4, False)]}
    trace = trace_of_streams(streams)
    arch2 = arch_with_xcds(2, cus_per_xcd=2, l2_bytes=4096, ways=2)
    # identity splits the sharing pair across XCDs: all four touches miss
    split = simulate(trace, builtin_pattern("identity", trace.grid, arch2), arch2)
    assert split.hits == 0 and split.misses == 4
    # contiguous grouping puts launch slots 0,2 -> logical 0,1 on XCD 0
    grouped = simulate(trace, builtin_pattern("gemm_contiguous", trace.grid, arch2), arch2)
    assert grouped.hits == 2 and grouped.misses == 2
    assert grouped.l2_hit_rate > split.l2_hit_rate


def test_per_xcd_isolation():
    streams = {0: [(0, 4, False)], 1: [(0, 4, False)]}
    trace = trace_of_streams(streams)
    arch2 = arch_with_xcds(2, cus_per_xcd=1, l2_bytes=4096, ways=2)
    rep = simulate(trace, builtin_pattern("identity", trace.grid, arch2), arch2)
    # same line from both XCDs: neither sees the other's fill
    assert rep.per_xcd[0].misses == 1 and rep.per_xcd[1].misses == 1
    assert rep.hits == 0
    assert rep.unique_lines_touched == 1


def test_write_allocate():
    trace = trace_of_streams({0: [(0, 4, True), (4, 4, False)]})
    rep = simulate(trace, builtin_pattern("identity", trace.grid, single_xcd()), single_xcd())
    assert rep.hits == 1  # read hits the line allocated by the write


def test_conservation_invariant():
    spec = KernelSpec("gemm", {"m": 256, "n": 128, "k": 128}, {"m": 64, "n": 64, "k": 64})
    trace = generate_trace(spec)
    arch = arch_with_xcds(4, cus_per_xcd=4, l2_bytes=1 << 16)
    rep = simulate(trace, builtin_pattern("gemm_contiguous", trace.grid, arch), arch)
    assert rep.hits + rep.misses == rep.accesses
    for s in rep.per_xcd:
        assert s.hits + s.misses == s.accesses
    assert sum(s.accesses for s in rep.per_xcd) == rep.accesses


def test_non_bijective_pattern_rejected():
    trace = trace_of_streams({0: [(0, 4, False)], 1: [(0, 4, False)]})
    pat = pattern_from_expr("fold", "pid % 1")
    with pytest.raises(NonBijectiveError):
        simulate(trace, pat, single_xcd())


def test_wave_barrier_cache_persists():
    streams = [{0: [(0, 4, False)]}, {0: [(0, 4, False)]}]
    trace = trace_of_streams(streams)
    rep = simulate(trace, builtin_pattern("identity", trace.grid, single_xcd()), single_xcd())
    assert rep.hits == 1  # wave 2 rereads the line cached in wave 1


def test_wave_barrier_drains_slots():
    # one-line cache, two slots: without the barrier B would interleave with
    # A's rereads and evict A's line between them
    streams = [{0: [(0, 4, False), (0, 4, False), (0, 4, False)]}, {1: [(512, 4, False)]}]
    trace = trace_of_streams(streams)
    arch = single_xcd(l2_bytes=128, ways=1, slots=2)
    rep = simulate(trace, builtin_pattern("identity", trace.grid, arch), arch)
    assert (rep.accesses, rep.hits) == (4, 2)


@pytest.mark.parametrize("offset", [1 << 20, -128])
def test_record_past_its_buffer_rejected(offset):
    trace = trace_of_streams({0: [(offset, 4, False)]})
    with pytest.raises(SimulationError, match="outside"):
        simulate(trace, builtin_pattern("identity", trace.grid, single_xcd()), single_xcd())


@pytest.mark.parametrize("length", [0, -128])
def test_empty_or_negative_record_rejected(length):
    # a record of no bytes, or fewer, would touch no line; simulate rejects it
    # as a generator fault instead of skipping it
    trace = trace_of_streams({0: [(0, length, False), (1280, 256, False)]})
    with pytest.raises(SimulationError, match="empty"):
        simulate(trace, builtin_pattern("identity", trace.grid, single_xcd()), single_xcd())


def test_record_overrunning_into_alignment_gap_rejected():
    # buffer a spans 1024 B, but b starts 64 KiB later: a+4096 is in no buffer
    buffers = make_buffers([("a", 1024), ("b", 1024)])
    trace = AccessTrace("gap", GridSpec.from_block_counts(1), buffers,
                        batched(lambda wave, pid: record_batch([0], [4096], [4], [False])))
    with pytest.raises(SimulationError, match="outside"):
        simulate(trace, builtin_pattern("identity", trace.grid, single_xcd()), single_xcd())


def test_wave_pids_subset():
    streams = [{0: [(0, 4, False)], 1: [(512, 4, False)]}, {1: [(512, 4, False)]}]
    trace = trace_of_streams(streams)
    arch = single_xcd(slots=2)
    rep = simulate(trace, builtin_pattern("identity", trace.grid, arch), arch)
    assert rep.accesses == 3 and rep.hits == 1


def test_work_conservation_under_bijections():
    # single XCD with ample capacity: misses == unique lines for any bijection
    spec = KernelSpec("transpose", {"m": 256, "n": 256}, {"m": 64, "n": 64})
    trace = generate_trace(spec)
    arch = arch_with_xcds(1, cus_per_xcd=8, l2_bytes=1 << 26, ways=16)
    total = trace.grid.total_blocks
    patterns = [
        builtin_pattern("identity", trace.grid, arch),
        builtin_pattern("gemm_contiguous", trace.grid, arch),
        pattern_from_expr("affine", f"((pid * 7) + 3) % {total}"),
    ]
    reports = [simulate(trace, p, arch) for p in patterns]
    for rep in reports:
        assert rep.misses == rep.unique_lines_touched
    assert len({r.misses for r in reports}) == 1


def test_monotone_capacity_fully_associative():
    rng = np.random.default_rng(5)
    lines = rng.integers(0, 64, size=400)
    streams = {0: [(int(l) * 128, 4, False) for l in lines]}
    trace = trace_of_streams(streams)
    rates = []
    for lines_cap in (8, 16, 32, 64):
        # fully associative: one set holding lines_cap ways
        arch = ArchSpec(name="fa", num_xcds=1, cus_per_xcd=1,
                        l2_bytes_per_xcd=128 * lines_cap, l2_line_bytes=128,
                        l2_associativity=lines_cap)
        rep = simulate(trace, builtin_pattern("identity", trace.grid, arch), arch)
        # brute-force fully-associative oracle agrees exactly
        oracle = FullyAssociativeLru(lines_cap)
        want_hits = sum(oracle.access(int(l)) for l in lines)
        assert rep.hits == want_hits
        rates.append(rep.l2_hit_rate)
    assert rates == sorted(rates)  # doubling capacity never hurts


def test_lru_matches_reference_cache():
    rng = np.random.default_rng(17)
    for seed in range(20):
        lines = np.random.default_rng(seed).integers(0, 512, size=2000).tolist()
        ours = SetAssocLru(num_sets=16, ways=4)
        ref = ReferenceLru(num_sets=16, ways=4)
        got = [ours.access(l) for l in lines]
        want = [ref.access(l) for l in lines]
        assert got == want


def test_interleave_round_robin_order():
    streams = iter([np.array([1, 2, 3]), np.array([10, 20, 30]), np.array([100])])
    merged = np.concatenate(list(_interleave(streams, slots=2)))
    # slots: A=[1,2,3] B=[10,20,30]; C joins when one drains
    assert merged.tolist() == [1, 10, 2, 20, 3, 30, 100]


def test_interleave_refill_midstream():
    streams = iter([np.array([1, 1, 1, 1]), np.array([2, 2]), np.array([3, 3])])
    merged = np.concatenate(list(_interleave(streams, slots=2)))
    assert merged.tolist() == [1, 2, 1, 2, 1, 3, 1, 3]


def test_expand_lines_splits_multi_line_records():
    records = record_batch([0], [100], [300], [False])
    bases = np.array([0], dtype=np.int64)
    assert _expand_lines(records, bases, 128).tolist() == [0, 1, 2, 3]


def test_determinism_byte_identical_reports():
    spec = KernelSpec("stencil2d", {"m": 256, "n": 256}, {"m": 64, "n": 64})
    arch = arch_with_xcds(4, cus_per_xcd=3, l2_bytes=1 << 16)
    reports = []
    for _ in range(2):
        trace = generate_trace(spec)
        pat = builtin_pattern("stencil_group", trace.grid, arch)
        reports.append(report_to_json(simulate(trace, pat, arch)))
    assert reports[0] == reports[1]


def test_simulate_pair_identity_delta_zero():
    spec = KernelSpec("fused_elementwise", {"n": 1 << 14}, {"n": 1024})
    trace = generate_trace(spec)
    arch = arch_with_xcds(4)
    base, swz = simulate_pair(trace, arch, ExecParams(), builtin_pattern("identity", trace.grid, arch))
    assert hit_rate_delta(base, swz) == 0.0
    assert report_to_dict(base) == report_to_dict(swz)


def test_compare_reports_ordering_and_ties():
    def rep(pattern, rate, unique):
        hits = int(rate * 1000)
        return report_from_dict({
            "kernel": "k", "pattern": pattern, "num_xcds": 1,
            "accesses": 1000, "hits": hits, "misses": 1000 - hits,
            "l2_hit_rate": rate, "unique_lines_touched": unique,
            "per_xcd": [{"accesses": 1000, "hits": hits, "misses": 1000 - hits,
                         "hit_rate": rate}],
        })

    a, b = rep("p_low", 0.46, 10), rep("p_high", 0.60, 10)
    assert compare_reports([a, b])[0] is b
    assert compare_reports([a])[0] is a
    # exact tie: name order decides, whatever the unique-line counts
    c, d = rep("zzz", 0.5, 5), rep("aaa", 0.5, 9)
    assert compare_reports([c, d])[0] is d
    e, f = rep("beta", 0.5, 5), rep("alpha", 0.5, 5)
    assert compare_reports([e, f])[0] is f


def test_compare_reports_rejects_mixed_kernels():
    def rep(kernel):
        return report_from_dict({
            "kernel": kernel, "pattern": "p", "num_xcds": 1,
            "accesses": 1, "hits": 0, "misses": 1, "l2_hit_rate": 0.0,
            "unique_lines_touched": 1,
            "per_xcd": [{"accesses": 1, "hits": 0, "misses": 1, "hit_rate": 0.0}],
        })
    with pytest.raises(SimulationError):
        compare_reports([rep("a"), rep("b")])


def test_report_json_round_trip():
    spec = KernelSpec("softmax", {"rows": 8, "cols": 2048}, {"cols": 1024})
    trace = generate_trace(spec)
    arch = arch_with_xcds(4)
    rep = simulate(trace, builtin_pattern("softmax_rowgroup", trace.grid, arch), arch)
    clone = report_from_dict(json.loads(report_to_json(rep)))
    assert clone == rep


def test_report_from_dict_rejects_unknown_keys():
    spec = KernelSpec("softmax", {"rows": 8, "cols": 2048}, {"cols": 1024})
    trace = generate_trace(spec)
    arch = arch_with_xcds(4)
    doc = report_to_dict(simulate(trace, builtin_pattern("identity", trace.grid, arch), arch))
    assert isinstance(doc["per_xcd"], list)
    doc["surprise"] = 1
    with pytest.raises(KeyError):
        report_from_dict(doc)
    del doc["surprise"]
    doc["per_xcd"][0]["surprise"] = 1
    with pytest.raises(KeyError):
        report_from_dict(doc)


# SHA-256 over report_to_json of every kernel x builtin (check_grid=False) at
# spec_with_size(kind, 128) on mi300x-like, one line each; the one
# non-bijective combination contributes its NonBijectiveError message instead.
GOLDEN_REPORT_DIGEST = "8cbe552a4c18e34bc432043a8bc203913813b95c460304a2428b5df05ffbb007"


def test_golden_report_digest():
    # on each lazy trace, and on it materialized (one kernel queue per wave)
    digests = [hashlib.sha256(), hashlib.sha256()]
    for kind in KERNEL_KINDS:
        lazy = generate_trace(spec_with_size(kind, 128))
        for digest, trace in zip(digests, (lazy, materialize(lazy))):
            for name in BUILTIN_PATTERN_NAMES:
                pattern = builtin_pattern(name, trace.grid, MI300X_LIKE, check_grid=False)
                try:
                    line = report_to_json(simulate(trace, pattern, MI300X_LIKE))
                except NonBijectiveError as exc:
                    line = f"NonBijectiveError: {exc}"
                digest.update(line.encode() + b"\n")
    assert [d.hexdigest() for d in digests] == [GOLDEN_REPORT_DIGEST] * 2, (
        "simulated reports changed; a deliberate count change must update "
        "GOLDEN_REPORT_DIGEST and say so in CHANGES.md"
    )
