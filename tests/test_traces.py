import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swizzlesim import traces
from swizzlesim.kernels import (
    DEFAULT_SPECS,
    KERNEL_KINDS,
    KernelSpec,
    KernelSpecError,
    default_spec,
    generate_trace,
    launch_grid,
    spec_with_size,
)
from swizzlesim.patterns import GridSpec
from swizzlesim.traces import (
    BUFFER_ALIGN,
    GRANULE_BYTES,
    MIN_SHARED_BYTES,
    AccessTrace,
    Batch,
    Buffer,
    locality_summary,
    make_buffers,
    materialize,
)

from conftest import (
    batched,
    buffer_by_name,
    check_write_coverage,
    record_batch,
    reference_locality_summary,
    validate_trace_bounds,
)


def small(kind, **dims):
    base = default_spec(kind)
    merged = dict(base.problem_dims)
    merged.update(dims)
    return KernelSpec(kind, merged, base.block_dims, base.dtype_bytes)


# --- launch grids ------------------------------------------------------------


@pytest.mark.parametrize("base, length", [(-65536, 1024), (0, -1)])
def test_negative_buffer_base_or_length_rejected(base, length):
    # a negative base would put line ids below the touched-line bitmap
    with pytest.raises(ValueError, match="negative"):
        AccessTrace("bad", GridSpec.from_block_counts(1), [Buffer(0, "a", length, base)],
                    batched(lambda wave, pid: record_batch([], [], [], [])))


def test_launch_grid_examples():
    g = launch_grid(small("stencil2d", m=2048, n=2048))
    assert (g.num_blocks_m, g.num_blocks_n) == (32, 32)

    g = launch_grid(small("layernorm", rows=512, cols=8192))
    assert (g.num_blocks_m, g.num_blocks_n) == (512, 8)

    g = launch_grid(small("gemm", m=100, n=64, k=64))
    assert g.num_blocks_m == 2  # ceil(100/64)


# kind: (problem dims, block dims, (num_blocks_m, num_blocks_n), SHA-256 over the
# bufs, offs, lens and writes bytes of every (wave, pid) stream, members or not).
# Non-square grids whose sizes are not tile multiples, so that an m/n axis swap
# or a lost partial tile shows; values taken from the generators before they
# shared a registry.
PINNED_STREAMS = {
    "gemm": ({"m": 200, "n": 136, "k": 100}, {"m": 64, "n": 32, "k": 48}, (4, 5),
        "a8bece56ef5a7955c053a55349ad0359b49806759d927832cdc0165a75ffb095"),
    "fused_elementwise": ({"n": 10000}, {"n": 4096}, (3, 1),
        "3571ac7f685fa1b8e53c904c801f7602e6b29719907f1497c75eea2fc396cc5b"),
    "layernorm": ({"rows": 5, "cols": 3000}, {"cols": 1024}, (5, 3),
        "a21e45d870ec9b7c1fa396363dd6776560fc0d8c6d48e857b1fd554ba5592793"),
    "softmax": ({"rows": 3, "cols": 2500}, {"cols": 1024}, (3, 3),
        "5aff320cdbccd5fb7412cab777221c7829c364937d983ea64570cbf507cb27b6"),
    "spmv_naive": ({"rows": 1000, "half_width": 5}, {"rows": 256}, (4, 1),
        "126d4c5833935d39223d4d6b9f56774b38f5cbdca874c4c9eac5569f011380b4"),
    "transpose": ({"m": 200, "n": 100}, {"m": 32, "n": 64}, (7, 2),
        "93b23c6b9afe79aa784a8c01eb35ac16441d67a750cae60762ad7a58b4be05d7"),
    "black_scholes": ({"n": 9000}, {"n": 4096}, (3, 1),
        "b20f823fd4356a631c8733025b7c1b306bb3dcd4063b24f07b1c722d270d359f"),
    "fdtd2d": ({"ny": 200, "nx": 100, "steps": 3}, {"y": 32, "x": 64}, (7, 2),
        "20eede2d48abdcc70351a7f0c00f20cb80735f0019e6e01092dfa7bfe27c2464"),
    "smith_waterman": ({"m": 300, "n": 200}, {"m": 128, "n": 64}, (3, 4),
        "148d35a21e5bb4febffe387a535b541cfedfa9a0c45fa7c152223777d8d38026"),
    "stencil2d": ({"m": 200, "n": 130}, {"m": 64, "n": 32}, (4, 5),
        "6fa7647a10d1b66c26d849c9115664828f1776c765e9ed7a49094992192f18bb"),
}


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_pinned_grid_and_streams(kind):
    problem, block, counts, expected = PINNED_STREAMS[kind]
    spec = KernelSpec(kind, problem, block)
    grid = launch_grid(spec)
    assert (grid.num_blocks_m, grid.num_blocks_n) == counts
    trace = generate_trace(spec)
    digest = hashlib.sha256()
    for wave in range(trace.num_waves):
        for pid in range(grid.total_blocks):
            s = trace.stream(pid, wave)
            for column in (s.bufs, s.offs, s.lens, s.writes):
                digest.update(column.tobytes())
    assert digest.hexdigest() == expected


def test_kernel_spec_validation():
    with pytest.raises(KernelSpecError):
        KernelSpec("nonsense", {"n": 4}, {"n": 2})
    with pytest.raises(KernelSpecError):
        KernelSpec("gemm", {"m": 0, "n": 64, "k": 64}, {"m": 64, "n": 64, "k": 64})


def test_defaults_cover_all_kinds():
    assert set(DEFAULT_SPECS) == set(KERNEL_KINDS)
    for kind in KERNEL_KINDS:
        assert launch_grid(default_spec(kind)).total_blocks > 0


# --- per-kernel trace shapes -------------------------------------------------


def test_transpose_reads_and_transposed_writes():
    spec = small("transpose", m=128, n=128)
    trace = generate_trace(spec)
    es = spec.dtype_bytes
    # workgroup (0,1): reads input rows 0..63 cols 64..127
    recs = trace.records_for(1)
    reads = [r for r in recs if r.mode == "read"]
    writes = [r for r in recs if r.mode == "write"]
    assert reads[0].byte_offset == 64 * es and reads[0].length_bytes == 64 * es
    assert reads[1].byte_offset == (128 + 64) * es
    # writes land in the output tile at row-block 1 / col-block 0
    offsets = {w.byte_offset for w in writes}
    lo, hi = min(offsets), max(offsets)
    assert lo == 64 * 128 * es  # out[64][0]
    assert hi == (127 * 128 + 63) * es  # out[127][63]
    assert all(w.length_bytes == es for w in writes)


def test_transpose_mirror_symmetry():
    a = generate_trace(small("transpose", m=256, n=128))
    b = generate_trace(small("transpose", m=128, n=256))
    assert a.grid.total_blocks == b.grid.total_blocks
    assert buffer_by_name(a, "in").length_bytes == buffer_by_name(b, "out").length_bytes
    assert buffer_by_name(a, "out").length_bytes == buffer_by_name(b, "in").length_bytes

    def totals(trace):
        read = written = 0
        for pid in range(trace.grid.total_blocks):
            s = trace.stream(pid)
            read += int(s.lens[~s.writes].sum())
            written += int(s.lens[s.writes].sum())
        return read, written

    assert totals(a) == totals(b)


def test_gemm_row_mates_read_identical_a_bytes():
    spec = small("gemm", m=128, n=128, k=128)
    trace = generate_trace(spec)
    a_id = buffer_by_name(trace, "a").buffer_id

    def a_ranges(pid):
        s = trace.stream(pid)
        mask = s.bufs == a_id
        return set(zip(s.offs[mask].tolist(), s.lens[mask].tolist()))

    shared = a_ranges(0) & a_ranges(1)  # tiles (0,0) and (0,1)
    assert a_ranges(0) == a_ranges(1)
    assert sum(l for _, l in shared) == 32 * 1024  # 64 rows x 128 cols x 4B
    assert a_ranges(0) != a_ranges(2)  # different C row reads different A rows


def test_black_scholes_streams_are_disjoint():
    trace = generate_trace(small("black_scholes", n=1 << 14))

    def touched(pid):
        s = trace.stream(pid)
        return {
            (int(b), int(o) + k)
            for b, o, l in zip(s.bufs, s.offs, s.lens)
            for k in (0, int(l) - 1)
        }

    assert not (touched(0) & touched(1))
    assert not (touched(1) & touched(2))


def test_softmax_two_phase_waves():
    spec = small("softmax", rows=4, cols=2048)
    trace = generate_trace(spec)
    assert trace.num_waves == 2
    # phase 1 scans the whole row; phase 2 rereads own chunk and writes it
    r0 = trace.records_for(1, wave=0)
    assert len(r0) == 1 and r0[0].length_bytes == 2048 * 4
    r1 = trace.records_for(1, wave=1)
    assert [r.mode for r in r1] == ["read", "write"]
    assert r1[0].length_bytes == 1024 * 4


def test_smith_waterman_wavefront():
    trace = generate_trace(small("smith_waterman", m=512, n=512))
    nb = trace.grid.num_blocks_m
    assert trace.num_waves == 2 * nb - 1
    for d in range(trace.num_waves):
        for pid in trace.wave_pids[d]:
            tm, tn = divmod(int(pid), trace.grid.num_blocks_n)
            assert tm + tn == d


def test_fdtd_ping_pong():
    trace = generate_trace(small("fdtd2d", ny=256, nx=256))
    assert trace.num_waves == 2
    w0 = trace.records_for(0, wave=0)
    w1 = trace.records_for(0, wave=1)
    e_id = buffer_by_name(trace, "e").buffer_id
    h_id = buffer_by_name(trace, "h").buffer_id
    assert {r.buffer_id for r in w0 if r.mode == "read"} == {h_id}
    assert {r.buffer_id for r in w0 if r.mode == "write"} == {e_id}
    assert {r.buffer_id for r in w1 if r.mode == "read"} == {e_id}
    assert {r.buffer_id for r in w1 if r.mode == "write"} == {h_id}


def test_stencil_halo_reads():
    spec = small("stencil2d", m=256, n=256)
    trace = generate_trace(spec)
    grid = trace.grid
    # interior tile reads: 64 center rows + 2 halo rows + 2x64 halo columns
    interior = (1 * grid.num_blocks_n) + 1
    recs = trace.records_for(interior)
    reads = [r for r in recs if r.mode == "read"]
    assert len(reads) == 64 + 2 + 64 + 64
    corner_reads = [r for r in trace.records_for(0) if r.mode == "read"]
    assert len(corner_reads) == 64 + 1 + 64  # no top row, no left column


def test_spmv_banded_structure_is_seed_free():
    spec = small("spmv_naive", rows=2048)
    a = generate_trace(spec)
    b = generate_trace(spec)
    assert a.records_for(0) == b.records_for(0)
    assert a.records_for(3) == b.records_for(3)
    # row 0 band is clamped to [0, hw]; middle rows span 2*hw+1 elements
    x_id = buffer_by_name(a, "x").buffer_id
    gathers = [r for r in a.records_for(1) if r.buffer_id == x_id]
    assert gathers[16].length_bytes == 33 * 4
    first = [r for r in a.records_for(0) if r.buffer_id == x_id][0]
    assert first.byte_offset == 0 and first.length_bytes == 17 * 4


# --- invariants --------------------------------------------------------------

COVERAGE_CASES = [
    ("gemm", dict(m=256, n=192, k=128), ["c"]),
    ("transpose", dict(m=256, n=192), ["out"]),
    ("stencil2d", dict(m=256, n=320), ["out"]),
    ("softmax", dict(rows=64, cols=2048), ["out"]),
    ("layernorm", dict(rows=64, cols=4096), ["out"]),
    ("smith_waterman", dict(m=512, n=512), ["dp"]),
    ("spmv_naive", dict(rows=4096), ["y"]),
    ("black_scholes", dict(n=1 << 14), ["call", "put"]),
    ("fused_elementwise", dict(n=1 << 14), ["out"]),
]


@pytest.mark.parametrize("kind,dims,out_buffers", COVERAGE_CASES)
def test_write_coverage_and_bounds(kind, dims, out_buffers):
    trace = generate_trace(small(kind, **dims))
    validate_trace_bounds(trace)
    for name in out_buffers:
        check_write_coverage(trace, name)


def test_fdtd_coverage_per_wave():
    trace = generate_trace(small("fdtd2d", ny=256, nx=256))
    validate_trace_bounds(trace)
    check_write_coverage(trace, "e", waves=[0])
    check_write_coverage(trace, "h", waves=[1])


def test_coverage_check_catches_gaps():
    trace = generate_trace(small("gemm", m=256, n=192, k=128))
    with pytest.raises(AssertionError):
        check_write_coverage(trace, "a")  # never written


def test_traces_deterministic_across_generations():
    for kind, dims, _ in COVERAGE_CASES[:4]:
        a = generate_trace(small(kind, **dims))
        b = generate_trace(small(kind, **dims))
        for wave in range(a.num_waves):
            for pid in (0, a.grid.total_blocks // 2, a.grid.total_blocks - 1):
                assert a.records_for(pid, wave) == b.records_for(pid, wave)


# --- locality summary --------------------------------------------------------


def test_locality_gemm_row_and_column_pairs():
    summary = locality_summary(generate_trace(small("gemm", m=128, n=128, k=128)))
    by_buffer = {}
    for group in summary.groups:
        by_buffer.setdefault(group.buffer_name, []).append(group)
    a_groups = {g.pids for g in by_buffer["a"]}
    b_groups = {g.pids for g in by_buffer["b"]}
    assert (0, 1) in a_groups and (2, 3) in a_groups  # row mates share A
    assert (0, 2) in b_groups and (1, 3) in b_groups  # column mates share B
    for g in by_buffer["a"]:
        assert g.shared_bytes == 32 * 1024


def test_locality_black_scholes_empty():
    summary = locality_summary(generate_trace(small("black_scholes", n=1 << 14)))
    assert not summary.groups


def test_locality_softmax_rows_across_phases():
    summary = locality_summary(generate_trace(small("softmax", rows=4, cols=2048)))
    row_groups = [g for g in summary.groups if g.buffer_name == "x"]
    assert {g.pids for g in row_groups} == {(0, 1), (2, 3), (4, 5), (6, 7)}
    assert all(g.reuse_class == "cross_wave" for g in row_groups)
    assert all(g.shared_bytes == 2048 * 4 for g in row_groups)


def test_locality_groups_sorted_descending():
    summary = locality_summary(generate_trace(small("gemm", m=256, n=128, k=128)))
    sizes = [g.shared_bytes for g in summary.groups]
    assert sizes == sorted(sizes, reverse=True)


# SHA-256 over repr(locality_summary(...)) of every kernel at spec_with_size(kind, 128),
# one line each, in KERNEL_KINDS order.
GOLDEN_LOCALITY_DIGEST = "1aaa83cf7217cedc239bdc2d068a5f8cd2d7f13647325fd0a3cacb4bebf4b84a"


def test_golden_locality_digest():
    digest = hashlib.sha256()
    for kind in KERNEL_KINDS:
        summary = locality_summary(generate_trace(spec_with_size(kind, 128)))
        digest.update(repr(summary).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_LOCALITY_DIGEST, (
        "locality summaries changed; a deliberate change must update "
        "GOLDEN_LOCALITY_DIGEST and say so in CHANGES.md"
    )


# SHA-256 over repr(locality_summary(...)) of every kernel at its default_spec,
# one line each, in KERNEL_KINDS order; pinned before the summary moved from
# granule keys to granule intervals.
DEFAULT_LOCALITY_DIGEST = "4716fb78ee6b4c89d671868d901c570d6bf520466d2509358c94dd65c42cd18b"


def test_default_spec_locality_digest():
    digest = hashlib.sha256()
    for kind in KERNEL_KINDS:
        summary = locality_summary(materialize(generate_trace(default_spec(kind))))
        digest.update(repr(summary).encode() + b"\n")
    assert digest.hexdigest() == DEFAULT_LOCALITY_DIGEST, (
        "default-spec locality summaries changed; a deliberate change must update "
        "DEFAULT_LOCALITY_DIGEST and say so in CHANGES.md"
    )


SHARED_RUN = MIN_SHARED_BYTES // GRANULE_BYTES  # granules in the smallest kept group


@st.composite
def sharing_traces(draw):
    """Small random traces: 1-3 waves over up to 6 pids and 1-4 buffers, with
    empty streams, multi-granule records and, in most examples, one block of
    granules just below, at or just above ``MIN_SHARED_BYTES`` that several
    pids read, in one wave or in several."""
    total = draw(st.integers(1, 6))
    num_waves = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 40 * GRANULE_BYTES), min_size=1, max_size=4))
    streams = {}
    wave_pids = []
    for wave in range(num_waves):
        members = sorted(draw(st.sets(st.integers(0, total - 1))))
        wave_pids.append(members)
        for pid in members:
            records = []
            for _ in range(draw(st.integers(0, 4))):
                buf = draw(st.integers(0, len(sizes) - 1))
                off = draw(st.integers(0, sizes[buf] - 1))
                length = draw(st.integers(1, min(sizes[buf] - off, 20 * GRANULE_BYTES)))
                records.append((buf, off, length, draw(st.booleans())))
            streams[wave, pid] = records
    if len(streams) > 1 and draw(st.integers(0, 3)):
        # A block of `run` granules read by several member streams, in two
        # pieces around one granule that only the first reader touches, so
        # that one group spans two runs of granules. The block lies past the
        # random records or over them (which splits the group).
        buf = draw(st.integers(0, len(sizes) - 1))
        run = draw(st.integers(SHARED_RUN - 1, SHARED_RUN + 1))
        split = draw(st.integers(0, run))
        start = draw(st.sampled_from([0, -(-sizes[buf] // GRANULE_BYTES) * GRANULE_BYTES]))
        sizes[buf] = max(sizes[buf], start + (run + 1) * GRANULE_BYTES)
        pieces = [(start, split), (start + (split + 1) * GRANULE_BYTES, run - split)]
        readers = draw(st.lists(st.sampled_from(sorted(streams)), min_size=2, max_size=5,
                                unique=True))
        if draw(st.integers(0, 2)):  # readers of one wave only
            readers = [key for key in readers if key[0] == readers[0][0]]
        for key in readers:
            streams[key] += [(buf, lo, n * GRANULE_BYTES, False) for lo, n in pieces if n]
        if buf + 1 < len(sizes) and draw(st.booleans()):
            # the same readers in the next buffer's first granule: a run must
            # not continue across the buffer boundary
            for key in readers:
                streams[key].append((buf + 1, 0, 1, False))
        first_wave, first_pid = readers[0]
        streams[readers[0]].append((buf, start + split * GRANULE_BYTES, GRANULE_BYTES, False))
        # the first reader may reread part of the first piece in another wave
        again = [key for key in streams if key[1] == first_pid and key[0] != first_wave]
        if split and again and draw(st.integers(0, 3)):
            reread = draw(st.integers(1, split)) * GRANULE_BYTES
            streams[draw(st.sampled_from(again))].append((buf, start, reread, False))

    def stream_fn(wave, pid):
        records = streams.get((wave, pid), [])
        return record_batch([r[0] for r in records], [r[1] for r in records],
                            [r[2] for r in records], [r[3] for r in records])

    buffers = make_buffers([(f"b{i}", size) for i, size in enumerate(sizes)])
    return AccessTrace("random", GridSpec.from_block_counts(total), buffers, batched(stream_fn),
                       wave_pids=[np.array(m, dtype=np.int64) for m in wave_pids])


@settings(max_examples=300, deadline=None)
@given(trace=sharing_traces(), chunk=st.sampled_from([1, 7, 64, traces._CHUNK_GRANULES]))
def test_locality_summary_matches_set_oracle(trace, chunk):
    expected = reference_locality_summary(trace)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(traces, "_CHUNK_GRANULES", chunk)
        assert locality_summary(trace) == expected
        assert locality_summary(materialize(trace)) == expected


@st.composite
def segment_traces(draw):
    """Small random traces written as ``Batch`` segments: 1-3 waves over up to
    6 pids (a pid may be a member of several waves) and 1-3 buffers. Strides
    are zero, whole granules or not; runs lie inside one granule or span
    several; some segments have no runs. A segment is new, a copy of an
    earlier one (so that streams share granules), or its stream's previous
    segment shifted to touch or overlap it, or with another count or another
    whole-granule stride. Most examples add one block of granules just below,
    at or just above ``MIN_SHARED_BYTES`` that several streams read, which may
    run from the end of a full 64 KiB buffer into the next buffer."""
    total = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 48 * GRANULE_BYTES), min_size=1, max_size=3))
    wave_pids = [sorted(draw(st.sets(st.integers(0, total - 1), min_size=1)))
                 for _ in range(draw(st.integers(1, 3)))]
    owners = [(wave, pid) for wave, members in enumerate(wave_pids) for pid in members]
    streams = {owner: [] for owner in owners}

    def fits(buf, off, length, stride, count):
        return off >= 0 and off + max(count - 1, 0) * stride + length <= sizes[buf]

    made = []
    for _ in range(draw(st.integers(0, 14))):
        owner = draw(st.sampled_from(owners))
        how = draw(st.sampled_from(["new", "copy", "touch", "overlap", "count", "stride"]))
        segment = None
        if how == "copy" and made:
            segment = draw(st.sampled_from(made))
        elif how != "new" and streams[owner]:
            buf, off, length, stride, count, write = streams[owner][-1]
            if how == "touch":
                off += length
            elif how == "overlap":
                off += draw(st.integers(0, length - 1))
            elif how == "count":
                count = draw(st.integers(0, 8))
            else:
                stride = draw(st.sampled_from([GRANULE_BYTES, 2 * GRANULE_BYTES])) + stride
            if fits(buf, off, length, stride, count):
                segment = (buf, off, length, stride, count, write)
        if segment is None:
            buf = draw(st.integers(0, len(sizes) - 1))
            length = min(sizes[buf], draw(st.one_of(st.integers(1, 64),
                                                    st.integers(1, 20 * GRANULE_BYTES))))
            stride = draw(st.sampled_from([0, 4, 100, 300, GRANULE_BYTES, 3 * GRANULE_BYTES]))
            count = draw(st.integers(0, 8))
            room = sizes[buf] - length - max(count - 1, 0) * stride
            if room < 0:
                count, room = min(count, 1), sizes[buf] - length
            off = draw(st.integers(0, room))
            if draw(st.booleans()):
                off -= off % GRANULE_BYTES
            segment = (buf, off, length, stride, count, draw(st.booleans()))
        streams[owner].append(segment)
        made.append(segment)

    if len(owners) > 1 and draw(st.integers(0, 3)):
        # A block of `run` granules that several streams read, each in one or
        # two touching parts, each part cut at a buffer end and written as a
        # granule sequence (4 bytes per granule), as one run, or as runs of
        # `step` bytes at a stride of `step`, from any offset in its first granule.
        buf = draw(st.integers(0, len(sizes) - 1))
        if buf + 1 < len(sizes) and draw(st.booleans()):
            # across a buffer end: whole, the block would make a group
            run = draw(st.integers(SHARED_RUN, 2 * SHARED_RUN))
            sizes[buf] = BUFFER_ALIGN  # the next buffer starts where this one ends
            sizes[buf + 1] = max(sizes[buf + 1], run * GRANULE_BYTES)
            base = BUFFER_ALIGN // GRANULE_BYTES - draw(st.integers(1, run - 1))
        else:
            run = draw(st.integers(SHARED_RUN - 1, SHARED_RUN + 1))
            base = draw(st.integers(0, 3))
            sizes[buf] = max(sizes[buf], (base + run) * GRANULE_BYTES)
        ends = np.cumsum([0] + [-(-size // BUFFER_ALIGN) * BUFFER_ALIGN // GRANULE_BYTES
                                for size in sizes[buf:]])
        for owner in draw(st.lists(st.sampled_from(owners), min_size=2, max_size=4, unique=True)):
            split = draw(st.integers(0, run))
            cuts = sorted({base, base + split, base + run, *(e for e in ends if base < e < base + run)})
            for first, last in zip(cuts, cuts[1:]):
                part = int(np.searchsorted(ends, first, side="right")) - 1
                n = last - first
                at = draw(st.sampled_from([0, 100, GRANULE_BYTES - 4]))
                off = (first - ends[part]) * GRANULE_BYTES + at
                shape = draw(st.sampled_from(["sequence", "run", "steps"]))
                if shape == "sequence":
                    # perhaps beside a shorter, sparser or zero-stride sequence
                    # from the same start, before it or after it
                    count = draw(st.integers(1, n))
                    shadow = draw(st.sampled_from([None, (GRANULE_BYTES, count),
                                                   (2 * GRANULE_BYTES, (n + 1) // 2), (0, n)]))
                    written = [(buf + part, off, 4, GRANULE_BYTES, n, False)]
                    if shadow:
                        written.append((buf + part, off, 4, *shadow, False))
                    streams[owner] += written[::draw(st.sampled_from([1, -1]))]
                elif shape == "run":
                    streams[owner].append((buf + part, off, n * GRANULE_BYTES - at, 0, 1, False))
                else:
                    step = draw(st.sampled_from([4, 100, 252]))
                    count = (n * GRANULE_BYTES - at) // step
                    streams[owner].append((buf + part, off, step, step, count, False))

    def batch_fn(wave, pids):
        rows = [streams.get((wave, int(pid)), []) for pid in pids]
        columns = list(zip(*(segment for row in rows for segment in row))) or [()] * 6
        bufs, offs, lens, strides, counts, writes = columns
        return Batch(bufs, offs, lens, writes, strides, counts,
                     np.cumsum([0] + [len(row) for row in rows]))

    buffers = make_buffers([(f"b{i}", size) for i, size in enumerate(sizes)])
    return AccessTrace("segments", GridSpec.from_block_counts(total), buffers, batch_fn,
                       wave_pids=[np.array(m, dtype=np.int64) for m in wave_pids])


@settings(max_examples=300, deadline=None)
@given(trace=segment_traces(), chunk=st.sampled_from([1, 7, 64, traces._CHUNK_GRANULES]))
def test_locality_summary_on_segments_matches_set_oracle(trace, chunk):
    expected = reference_locality_summary(trace)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(traces, "_CHUNK_GRANULES", chunk)
        assert locality_summary(trace) == expected
        assert locality_summary(materialize(trace)) == expected


def test_softmax_search_summary_memory():
    # perfbench's softmax_search trace (rows=1024); 13.1 MiB when every
    # touched (granule, pid, wave) was one key
    table = materialize(generate_trace(spec_with_size("softmax", 1024)))
    tracemalloc.start()
    try:
        locality_summary(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


SMALL_KERNELS =[(kind, dims) for kind, dims, _ in COVERAGE_CASES] + [
    ("fdtd2d", dict(ny=256, nx=256))
]


@pytest.mark.parametrize("kind,dims", SMALL_KERNELS)
def test_materialized_records_match_lazy(kind, dims):
    lazy = generate_trace(small(kind, **dims))
    table = materialize(lazy)
    assert table is not lazy
    # the kept batch is read-only
    kept = table.kept
    assert not any(column.flags.writeable for column in (*kept.columns, kept.indptr, kept.groups))
    # every (pid, wave), a wave's member or not (smith_waterman), reads the same
    for wave in range(lazy.num_waves):
        for pid in range(lazy.grid.total_blocks):
            assert table.records_for(pid, wave) == lazy.records_for(pid, wave)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KERNEL_KINDS), data=st.data())
def test_batch_is_the_one_pid_batches_back_to_back(kind, data):
    # the pinned specs: non-square, sizes not tile multiples; every wave, and
    # pid arrays that are unsorted, repeat pids or are empty
    problem, block, _, _ = PINNED_STREAMS[kind]
    lazy = generate_trace(KernelSpec(kind, problem, block))
    total = lazy.grid.total_blocks
    for trace in (lazy, materialize(lazy)):
        for wave in range(trace.num_waves):
            pids = data.draw(st.lists(st.integers(0, total - 1), max_size=3 * total))
            batch = trace.batch(wave, pids)
            assert (batch.counts > 0).all()  # the generators drop segments of no runs
            singles = [trace.batch(wave, [pid]) for pid in pids]
            for single in singles:
                assert single.indptr.tolist() == [0, len(single)]
            assert batch.indptr.tolist() == np.cumsum([0] + [len(s) for s in singles]).tolist()
            for k, column in enumerate((*batch.columns, batch.groups)):
                want = np.concatenate([(*s.columns, s.groups)[k] for s in singles] + [column[:0]])
                assert column.dtype == want.dtype and column.tolist() == want.tolist()


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 150), n=st.integers(1, 150), bm=st.integers(1, 40),
       bn=st.integers(1, 40), data=st.data())
@example(m=65, n=130, bm=64, bn=32, data=None)  # one-row edge tiles
@example(m=33, n=20, bm=1, bn=7, data=None)  # one-row tiles
def test_grouped_transpose_is_its_row_reads_and_column_scatters(m, n, bm, bn, data):
    # each tile is one group of its row read and column scatter, repeated once
    # per tile row: its records are, row by row, the coalesced read of the
    # row and the scatter of its elements, and a batch of several pids is
    # their one-pid batches back to back
    es = 4
    trace = generate_trace(KernelSpec("transpose", {"m": m, "n": n}, {"m": bm, "n": bn}))
    total = trace.grid.total_blocks
    pids = (data.draw(st.lists(st.integers(0, total - 1), max_size=2 * total)) if data
            else list(range(total)))
    batch = trace.batch(0, pids)
    records = batch.records()
    singles = [trace.batch(0, [pid]) for pid in pids]
    for k, pid in enumerate(pids):
        tm, tn = divmod(pid, trace.grid.num_blocks_n)
        r0, c0 = tm * bm, tn * bn
        r1, c1 = min(r0 + bm, m), min(c0 + bn, n)
        want = [rec for r in range(r0, r1) for rec in
                [(0, (r * n + c0) * es, (c1 - c0) * es, False)]
                + [(1, (c * m + r) * es, es, True) for c in range(c0, c1)]]
        lo, hi = records.indptr[k], records.indptr[k + 1]
        got = zip(records.bufs[lo:hi].tolist(), records.offs[lo:hi].tolist(),
                  records.lens[lo:hi].tolist(), records.writes[lo:hi].tolist())
        assert list(got) == want
        assert batch.groups[k] == singles[k].groups[0] == r1 - r0
        assert len(singles[k]) == 2
    for k, column in enumerate((*batch.columns, batch.groups)):
        want = np.concatenate([(*s.columns, s.groups)[k] for s in singles] + [column[:0]])
        assert column.dtype == want.dtype and column.tolist() == want.tolist()


def test_records_are_one_run_segments_at_each_workgroups_rows():
    # workgroup 0: three runs at stride 128 and a segment of no runs; workgroup
    # 1: no segment; workgroup 2: one run, then two runs at stride -100
    batch = Batch([0, 1, 1, 0], [0, 64, 512, 1000], [8, 4, 16, 2], [False, True, False, True],
                  [128, 32, 0, -100], [3, 0, 1, 2], [0, 2, 2, 4])
    records = batch.records()
    assert records.indptr.tolist() == [0, 3, 3, 6]
    assert records.strides.tolist() == [0] * 6 and records.counts.tolist() == [1] * 6
    assert records.bufs.tolist() == [0, 0, 0, 1, 0, 0]
    assert records.offs.tolist() == [0, 128, 256, 512, 1000, 900]
    assert records.lens.tolist() == [8, 8, 8, 16, 2, 2]
    assert records.writes.tolist() == [False, False, False, False, True, True]
    for w in range(3):
        one = batch.part(w, w + 1).records()
        assert one.indptr.tolist() == [0, len(one)]
        lo, hi = records.indptr[w], records.indptr[w + 1]
        for column, want in zip(records.columns, one.columns):
            assert column.dtype == want.dtype and column[lo:hi].tolist() == want.tolist()


@pytest.mark.parametrize("wave", [1, 7, -1])
def test_stream_rejects_a_wave_outside_the_trace(wave):
    lazy = generate_trace(KernelSpec("stencil2d", {"m": 200, "n": 130}, {"m": 64, "n": 32}))
    for trace in (lazy, materialize(lazy)):
        with pytest.raises(ValueError, match=f"wave {wave} outside"):
            trace.stream(0, wave)
        assert len(trace.stream(0, 0)) == 193


@pytest.mark.parametrize("passing", [0, 2, 6])
def test_materialize_stops_one_batch_past_its_budget(monkeypatch, passing):
    # 20 workgroups of 4-6 segments, read one and then 16 segments' worth at
    # a time: 7 batches; the budget is passed by batch `passing`, after which
    # no batch is read
    monkeypatch.setattr(traces, "BATCH_SEGMENTS", 16)
    lazy = generate_trace(KernelSpec("stencil2d", {"m": 200, "n": 130}, {"m": 64, "n": 32}))
    windows = [(pids.tolist(), batch.nbytes) for _, pids, batch in lazy.member_batches()]
    assert [len(pids) for pids, _ in windows] == [1, 4, 3, 3, 3, 3, 3]
    sizes = [nbytes for _, nbytes in windows]
    calls = []
    batch_fn = lazy._batch_fn

    def counting(wave, pids):
        calls.append(pids.tolist())
        return batch_fn(wave, pids)

    lazy._batch_fn = counting
    monkeypatch.setattr(traces, "RECORD_TABLE_BYTES", sum(sizes[:passing + 1]) - 1)
    assert materialize(lazy) is lazy
    assert calls == [pids for pids, _ in windows[:passing + 1]]

    calls.clear()
    monkeypatch.setattr(traces, "RECORD_TABLE_BYTES", sum(sizes))
    table = materialize(lazy)
    assert calls == [pids for pids, _ in windows]
    # the windows are kept as one batch, the wave's members in order
    whole = batch_fn(0, lazy.wave_pids[0])
    kept = table.kept
    for column, want in zip((*kept.columns, kept.indptr, kept.groups),
                            (*whole.columns, whole.indptr, whole.groups)):
        assert column.dtype == want.dtype and column.tolist() == want.tolist()
    assert all(table.records_for(pid) == lazy.records_for(pid) for pid in range(20))


@pytest.mark.parametrize("kind, problem", [("transpose", {"m": 200, "n": 100}),
                                           ("fdtd2d", {"ny": 200, "nx": 100, "steps": 3})])
def test_record_chunks_stay_within_the_chunk_bound(monkeypatch, kind, problem):
    # one kept batch, the waves in order, of 14 workgroups per wave (a
    # transpose tile streams up to 32 groups of a row read and 64
    # column-scatter runs, about 4200 granules), read one part per wave;
    # every chunk of segments keeps to one wave and, unless it is one
    # workgroup's stream, spans at most _CHUNK_GRANULES granules, whatever
    # its cut
    block = {"m": 32, "n": 64} if kind == "transpose" else {"y": 32, "x": 64}
    table = materialize(generate_trace(KernelSpec(kind, problem, block)))
    waves = table.num_waves
    assert len(table.kept.groups) == 14 * waves
    assert [(wave, len(pids), len(batch.groups)) for wave, pids, batch in table.member_batches()
            ] == [(wave, 14, 14) for wave in range(waves)]
    want = locality_summary(table)
    for chunk in (1, 3000, 10000, 1 << 19):
        monkeypatch.setattr(traces, "_CHUNK_GRANULES", chunk)
        owners = []
        for segments, owner in traces._record_chunks(table):
            assert len(segments) == len(owner)
            bound = int((segments.counts * (2 + segments.lens // GRANULE_BYTES)).sum())
            assert bound <= chunk or len(np.unique(owner)) == 1
            assert len(np.unique(owner % waves)) == 1
            owners += np.unique(owner // waves).tolist()
        assert owners == list(range(table.grid.total_blocks)) * waves
        assert locality_summary(table) == want


def test_materialized_default_transpose_memory():
    # materialize holds little beyond what it keeps and the generation of its
    # widest batch (no second copy of a wave), and the summary expands one
    # bounded chunk at a time
    trace = generate_trace(default_spec("transpose"))
    widest = max((pids for _, pids, _ in trace.member_batches()), key=len)
    tracemalloc.start()
    try:
        trace.batch(0, widest)
        generation = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = materialize(trace)
        kept, peak = tracemalloc.get_traced_memory()
        locality_summary(table)
        summary_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table is not trace
    assert peak <= kept + generation
    assert summary_peak < 64 << 20


def test_materialized_default_spmv_memory():
    # a batch holds about BATCH_SEGMENTS segments, whatever a member's: the
    # default spmv_naive's 256 members of 260 segments are read one and then
    # 15 at a time, and materialize holds what it keeps and the generation of
    # its widest batch (21.9 MB when the trace was one batch of 256 members)
    trace = generate_trace(default_spec("spmv_naive"))
    batches = [pids for _, pids, _ in trace.member_batches()]
    assert [len(pids) for pids in batches] == [1] + [15] * 17
    tracemalloc.start()
    try:
        trace.batch(0, batches[1])
        generation = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = materialize(trace)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table is not trace
    assert peak <= kept + generation < 5 << 20


def test_spec_with_size_roundtrip():
    spec = spec_with_size("stencil2d", 512)
    assert spec.problem_dims["m"] == 512
    g = launch_grid(spec)
    assert g.total_blocks == 64
