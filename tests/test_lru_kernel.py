"""The native LRU kernel against the Python oracles."""

import contextlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swizzlesim import cachesim
from swizzlesim.arch import MI300X_LIKE, concurrent_slots_per_xcd
from swizzlesim.cachesim import (
    ExecParams,
    SetAssocLru,
    SimulationError,
    report_to_json,
    simulate,
    simulate_pair,
)
from swizzlesim.kernels import KERNEL_KINDS, KernelSpec, generate_trace, spec_with_size
from swizzlesim.patterns import (
    BUILTIN_PATTERN_NAMES,
    GridSpec,
    PatternError,
    builtin_pattern,
    pattern_from_expr,
    validated_remap_table,
)
from swizzlesim.traces import (
    AccessTrace,
    Batch,
    Buffer,
    make_buffers,
    materialize,
    records_outside,
)

from conftest import ReferenceLru, arch_with_xcds, batch_part, python_pass

# 1 XCD, 16 KiB of 2-way L2 (64 sets): 7 of the 10 kernels at size 256 evict
SMALL = arch_with_xcds(1, cus_per_xcd=4, l2_bytes=16 << 10, ways=2)


@pytest.fixture(scope="module")
def native():
    if shutil.which(cachesim._CC) is None:
        pytest.skip(f"no {cachesim._CC} to build the native LRU kernel")
    cachesim._load_kernel()  # a compiler is present, so the build must succeed


def _reports(trace, arch) -> list[str]:
    out = []
    for name in BUILTIN_PATTERN_NAMES:
        try:
            pattern = builtin_pattern(name, trace.grid, arch, check_grid=False)
            out.append(report_to_json(simulate(trace, pattern, arch)))
        except PatternError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_native_reports_match_python_lru(native, kind):
    trace = generate_trace(spec_with_size(kind, 256))
    for arch in (MI300X_LIKE, SMALL):
        want_native = _reports(trace, arch)
        with python_pass():
            assert _reports(trace, arch) == want_native, f"{kind} on {arch.name}"


def _segment_batch(workgroups, read_only=False):
    """Batch of workgroups, each a list of (buffer, offset, length, stride,
    count) read segments."""
    segments = [segment for workgroup in workgroups for segment in workgroup]
    bufs, offs, lens, strides, counts = np.array(segments, dtype=np.int64).reshape(-1, 5).T
    batch = Batch(bufs, offs, lens, np.zeros(len(segments), dtype=bool), strides, counts,
                  np.cumsum([0] + [len(workgroup) for workgroup in workgroups]))
    for array in batch.columns:
        array.flags.writeable = not read_only
    return batch


def _trace_of(streams, buffer_sizes, total, read_only=False):
    """Trace whose (wave, pid) streams are lists of (buffer, offset, length)
    records or (buffer, offset, length, stride, count) segments."""
    def batch_fn(wave, pids):
        return _segment_batch([[rec if len(rec) == 5 else (*rec, 0, 1)
                                for rec in streams[wave].get(int(pid), [])] for pid in pids],
                              read_only)

    buffers = make_buffers([(f"b{i}", size) for i, size in enumerate(buffer_sizes)])
    wave_pids = [np.asarray(sorted(wave), dtype=np.int64) for wave in streams]
    return AccessTrace("synthetic", GridSpec.from_block_counts(total), buffers, batch_fn,
                       wave_pids=wave_pids)


@st.composite
def caches_and_lines(draw):
    """A cache shape of 1-64 ways, with set counts that are powers of two and
    not, and a line stream over a working set of up to twice its capacity,
    so hits, evictions and rereads of evicted lines all occur. A stream runs
    to up to 24 times the capacity, so that where the working set overflows
    the cache each set's ring head wraps many times. Line ids are
    non-negative and below 40,000, so the touched-line map stays small."""
    ways = draw(st.integers(1, 64))
    num_sets = draw(st.integers(1, min(70, 256 // ways)))
    capacity = num_sets * ways
    base = draw(st.integers(0, 1 << 12))
    stride = draw(st.integers(1, 64))
    # hypothesis favours small integers; a drawn seed gives working sets and
    # stream lengths spread evenly over their ranges
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    span = rng.integers(1, 2 * capacity + 1)
    ids = rng.integers(0, span + 1, size=rng.integers(0, 24 * capacity + 1))
    return num_sets, ways, [base + int(i) * stride for i in ids]


def _stream(num_sets, ways, seed, stride=1):
    """A caches_and_lines case whose working set is twice the capacity and
    whose stream is 24 times it: each head wraps about a dozen times."""
    ids = np.random.default_rng(seed).integers(0, 2 * num_sets * ways, size=24 * num_sets * ways)
    return num_sets, ways, [int(i) * stride for i in ids]


PER_TOUCH_STREAMS = [_stream(1, 1, 0), _stream(7, 1, 1), _stream(3, 64, 2),
                     _stream(4, 64, 3, stride=4),  # every line in set 0
                     _stream(6, 13, 4)]


def _with_examples(cases):
    """Hypothesis ``example(case=...)`` for each of ``cases``."""
    def apply(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return apply


def _per_touch_counts(case):
    """(hits, misses) of ``simulate`` over a caches_and_lines case: one XCD
    with one slot runs one workgroup of one-byte records, one per line."""
    num_sets, ways, lines = case
    arch = arch_with_xcds(1, cus_per_xcd=1, l2_bytes=128 * num_sets * ways, ways=ways)
    trace = _trace_of([{0: [(0, 128 * line, 1) for line in lines]}],
                      [128 * (max(lines, default=0) + 1)], 1)
    report = simulate(trace, builtin_pattern("identity", trace.grid, arch), arch)
    return report.hits, report.misses


@settings(max_examples=200, deadline=None)
@given(case=caches_and_lines())
@_with_examples(PER_TOUCH_STREAMS)
def test_native_matches_reference_per_touch(native, case):
    num_sets, ways, lines = case
    ref = ReferenceLru(num_sets, ways)
    want = [ref.access(line) for line in lines]

    python_lru = SetAssocLru(num_sets, ways)
    assert [python_lru.access(line) for line in lines] == want
    assert _per_touch_counts(case) == (sum(want), len(want) - sum(want))


# set counts of the kernel tests, the default arch's 2048 and the widest
# the reduction serves, each against edge lines and seeded random ones
SET_COUNTS = [*range(1, 71), 2048, 3000, 2**31 - 1, 2**32 - 1]


def test_set_index_is_line_mod_num_sets(native):
    set_index = cachesim._load_kernel().set_index
    drawn = np.random.default_rng(21).integers(0, 2**32, size=1000).tolist()
    for n in SET_COUNTS:
        lines = [line for line in [0, 1, n - 1, n, n + 1, 2**32 - 2, 2**32 - 1, *drawn]
                 if line < 2**32]
        assert [set_index(line, n) for line in lines] == [line % n for line in lines], n


def test_touched_map_spreads_each_set_over_the_host_cache_sets(native):
    # a class is one of the 64 host cache lines of a 4 KiB page, the address
    # bits that 4K aliasing and the host L1's set index read. Lines of one
    # set lie num_sets apart: at 512 or more sets, a power of two, an
    # unpadded map puts 64 of them in at most 8 classes
    byte_of = cachesim._load_kernel().byte_of
    for num_sets in [512, 1024, 2048, 4096, 3000]:
        classes = {byte_of(5 + k * num_sets) // 64 % 64 for k in range(64)}
        assert len(classes) >= 32, num_sets
    # the map ends at its last line's byte
    for lines in [1, 4095, 4096, 4097, 2**20 + 1]:
        assert byte_of(lines - 1) == len(cachesim._touched_map(lines)) - 1, lines
    assert len(cachesim._touched_map(0)) == 0


@pytest.mark.parametrize("num_sets, ways", [(1, 1), (3, 1), (5, 4), (6, 16), (2, 64)])
def test_xcds_touching_the_same_lines_each_match_reference(native, num_sets, ways):
    # 2 XCDs of one slot each: XCD x runs pids x, x + 2 and x + 4 in turn.
    # Every pid reads one working set of twice the capacity in its own
    # order, so XCD 1 touches the lines XCD 0 left resident in its own cache
    capacity = num_sets * ways
    rng = np.random.default_rng(capacity)
    streams = {pid: rng.integers(0, 2 * capacity, size=8 * capacity).tolist()
               for pid in range(6)}
    trace = _trace_of([{pid: [(0, 128 * line, 1) for line in lines]
                        for pid, lines in streams.items()}], [256 * capacity], 6)
    arch = arch_with_xcds(2, cus_per_xcd=1, l2_bytes=128 * capacity, ways=ways)
    report = simulate(trace, builtin_pattern("identity", trace.grid, arch), arch)
    for xcd, stats in enumerate(report.per_xcd):
        ref = ReferenceLru(num_sets, ways)
        assert stats.hits == sum(ref.access(line)
                                 for pid in range(xcd, 6, 2) for line in streams[pid])
        assert stats.accesses == 24 * capacity


def _draw_segment(draw, size, max_len, max_count=3):
    """(offset, length, stride, count) of a segment whose runs all lie in a
    buffer of ``size`` bytes: one run, several at a positive or negative
    stride, or none."""
    off = draw(st.integers(0, size - 1))
    length = draw(st.integers(1, min(size - off, max_len)))
    count = draw(st.integers(0, max_count))
    steps = max(count - 1, 1)
    stride = draw(st.integers(-(off // steps), (size - off - length) // steps))
    return off, length, stride, count


def _runs(segment):
    """(offset, length) of each run of a (buffer, offset, length[, stride, count]) tuple."""
    _, off, length, stride, count = segment if len(segment) == 5 else (*segment, 0, 1)
    return [(off + j * stride, length) for j in range(count)]


@st.composite
def small_runs(draw):
    """A small trace, an arch of 1-3 XCDs with 1-5 slots each, and a bijection.

    Streams mix one-line and multi-line records, segments of several runs
    and of none, and empty streams; in a uniform wave every stream has the
    same number of one-line records, so all resident slots drain in the same
    turn. Some traces hand out read-only segment arrays.
    """
    line = draw(st.sampled_from([64, 128]))
    ways = draw(st.integers(1, 4))
    num_sets = draw(st.integers(1, 6))  # powers of two and not
    arch = arch_with_xcds(draw(st.integers(1, 3)), cus_per_xcd=draw(st.integers(1, 5)),
                          l2_bytes=line * ways * num_sets, line=line, ways=ways)
    sizes = draw(st.lists(st.integers(1, 8 * line), min_size=1, max_size=3))
    total = draw(st.integers(1, 12))

    def segment(max_lines):
        buf = draw(st.integers(0, len(sizes) - 1))
        if draw(st.booleans()):  # one record
            return (buf, *_draw_segment(draw, sizes[buf], max_lines * line, 1)[:2])
        return (buf, *_draw_segment(draw, sizes[buf], max_lines * line))

    streams = []
    for _ in range(draw(st.integers(1, 3))):
        pids = draw(st.sets(st.integers(0, total - 1)))
        if draw(st.booleans()):  # uniform wave
            n = draw(st.integers(1, 4))
            one_line = [(0, off, 1) for off in range(0, sizes[0], line)]
            wave = {pid: [draw(st.sampled_from(one_line)) for _ in range(n)] for pid in pids}
        else:
            wave = {pid: [segment(draw(st.sampled_from([1, 3])))
                          for _ in range(draw(st.integers(0, 5)))] for pid in pids}
        streams.append(wave)
    a = draw(st.sampled_from([k for k in range(1, total + 1) if np.gcd(k, total) == 1]))
    b = draw(st.integers(0, total - 1))
    pattern = pattern_from_expr("affine", f"((pid * {a}) + {b}) % {total}")
    return _trace_of(streams, sizes, total, draw(st.booleans())), arch, pattern, streams


@settings(max_examples=300, deadline=None)
@given(run=small_runs())
def test_native_pass_matches_python_pass(native, run):
    trace, arch, pattern, streams = run
    got = simulate(trace, pattern, arch)
    with python_pass():
        want = simulate(trace, pattern, arch)
    assert got == want
    assert simulate(materialize(trace), pattern, arch) == want  # one queue per wave

    line = arch.l2_line_bytes
    expanded = [
        line_id
        for wave in streams for segments in wave.values() for segment in segments
        for off, length in _runs(segment)
        for start in [int(trace.base_offsets[segment[0]]) + off]
        for line_id in range(start // line, (start + length - 1) // line + 1)
    ]
    assert got.hits + got.misses == got.accesses == len(expanded)
    assert got.unique_lines_touched == len(set(expanded))


class _Xcd:
    """One XCD of one buffer: its LRU rows, touched-line bytes and counts,
    driven through ``xcd_drain`` with the queue rows of a ``Batch``."""

    def __init__(self, num_sets, ways, capacity, buffer_bytes, line=128):
        self.kernel = cachesim._load_kernel()
        self.tags, self.heads = cachesim._lru_rows(num_sets, ways)
        self.resident = np.zeros((capacity, cachesim._SLOT_WORDS), dtype=np.int64)
        self.bases = np.zeros(1, dtype=np.int64)
        self.lengths = np.array([buffer_bytes], dtype=np.int64)
        self.touched = cachesim._touched_map(-(-buffer_bytes // line))
        self.counts = np.zeros(2, dtype=np.int64)  # hits, touches
        self.shape = (capacity, line.bit_length() - 1, num_sets, ways)

    def drain(self, loaded, batch, more):
        """``xcd_drain`` over the batch's workgroups; the caller keeps the batch
        alive while a slot may point into it."""
        capacity, shift, num_sets, ways = self.shape
        queue = batch.queue_rows()
        return self.kernel.xcd_drain(
            self.resident.ctypes.data, capacity, loaded, queue.ctypes.data, len(queue), more,
            self.bases.ctypes.data, self.lengths.ctypes.data, 1, shift,
            self.touched.ctypes.data, self.counts.ctypes.data, self.tags.ctypes.data,
            self.heads.ctypes.data, num_sets, ways)

    def rows(self):
        """Each set's tags in recency order, read from its head: map bytes,
        which are the lines' ids below line 4096."""
        ways = self.shape[3]
        return [np.roll(row, -head).tolist()
                for row, head in zip(self.tags.reshape(-1, ways), self.heads)]


def _python_counts(batch, num_sets, ways, capacity):
    """[hits, touches] of the Python pass over a one-buffer batch's workgroups."""
    lru = SetAssocLru(num_sets, ways)
    bases = np.zeros(1, dtype=np.int64)
    lines = (cachesim._expand_lines(batch_part(batch, k, k + 1).records(), bases, 128)
             for k in range(len(batch.indptr) - 1))
    hits = touches = 0
    for chunk in cachesim._interleave(lines, capacity):
        hits += lru.access_many(chunk)[0]
        touches += len(chunk)
    return [hits, touches]


def test_xcd_drain_moves_survivors_to_the_front_in_order(native):
    # 3 slots; workgroups a-e touch 3, 1, 2, 1 and 3 distinct lines, as one
    # 3-run segment (a), one run (b, d), two one-run segments (c) and a
    # 3-run segment behind an empty one (e); the queue skips a workgroup of
    # no segments and one whose only segment has no runs. One set of 16 ways
    # keeps every line, so its row, read from its head, is the touch order
    # reversed and then six empty entries.
    a = [(0, 0, 1, 128, 3)]
    b = [(0, 3 * 128, 1, 0, 1)]
    c = [(0, 4 * 128, 1, 0, 1), (0, 5 * 128 + 7, 100, 0, 1)]
    d = [(0, 6 * 128, 128, 0, 1)]
    e = [(0, 0, 1, 128, 0), (0, 7 * 128 + 5, 2, 128, 3)]
    queue = _segment_batch([a, b, [], [(0, 0, 1, 0, 0)], c, d, e])
    rows = queue.queue_rows()
    xcd = _Xcd(num_sets=1, ways=16, capacity=3, buffer_bytes=1280)
    # turn 1 touches a, b, c; b drains and d refills after the survivors a, c;
    # turn 2 touches a, c, d; c and d drain, e refills after a, and the call
    # returns with a slot free and the queue empty
    assert xcd.drain(0, queue, True) == 2
    assert xcd.resident[:2, :6].tolist() == [rows[0].tolist(), rows[6].tolist()]
    # (segment, runs left after the current one, its start, line, last line):
    # a is at its last run, line 2; e at the first run of its second segment
    assert xcd.resident[:2, 6:].tolist() == [[0, 0, 256, 2, 2], [1, 2, 7 * 128 + 5, 7, 7]]
    assert xcd.drain(2, _segment_batch([]), False) == 0
    touch_order = [0, 3, 4, 1, 5, 6, 2, 7, 8, 9]
    assert xcd.rows() == [touch_order[::-1] + [-1] * 6]
    assert xcd.counts.tolist() == [0, 10]
    assert xcd.touched.tolist() == [3] * 10  # touched and resident

    # the whole queue in one call runs the same touches
    whole = _Xcd(num_sets=1, ways=16, capacity=3, buffer_bytes=1280)
    assert whole.drain(0, queue, False) == 0
    assert whole.rows() == xcd.rows()


@st.composite
def queues(draw):
    """One XCD's wave: a cache shape, a slot count, a batch of workgroups of
    one-buffer segments of one- to three-line runs, one run, several or none
    (some workgroups have no segment), and cut points that split the queue
    into batches."""
    ways = draw(st.integers(1, 4))
    num_sets = draw(st.integers(1, 6))
    capacity = draw(st.integers(1, 5))
    buffer_bytes = 128 * draw(st.integers(1, 12))
    workgroups = [[(0, *_draw_segment(draw, buffer_bytes, 3 * 128, 4))
                   for _ in range(draw(st.integers(0, 4)))]
                  for _ in range(draw(st.integers(0, 12)))]
    cuts = sorted(draw(st.sets(st.integers(1, max(len(workgroups) - 1, 1)))))
    return num_sets, ways, capacity, buffer_bytes, _segment_batch(workgroups), cuts


@settings(max_examples=300, deadline=None)
@given(case=queues())
def test_batched_queue_matches_whole_queue_and_python_pass(native, case):
    num_sets, ways, capacity, buffer_bytes, batch, cuts = case
    whole = _Xcd(num_sets, ways, capacity, buffer_bytes)
    assert whole.drain(0, batch, False) == 0

    fed = _Xcd(num_sets, ways, capacity, buffer_bytes)
    size = len(batch.indptr) - 1
    bounds = [0, *(cut for cut in cuts if cut < size), size]
    left = 0
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        left = fed.drain(left, batch_part(batch, lo, hi), k < len(bounds) - 2)
        assert left >= 0
    assert left == 0
    assert fed.counts.tolist() == whole.counts.tolist()
    assert fed.touched.tolist() == whole.touched.tolist()
    assert whole.counts.tolist() == _python_counts(batch, num_sets, ways, capacity)


@st.composite
def checked_queues(draw):
    """A queue of workgroups of segments in or out of a one-buffer trace:
    buffer ids -1, 0 and 1 (no buffer), offsets before, in and past the
    buffer, lengths down to -1, strides of either sign and counts of 0-4."""
    buffer_bytes = 128 * draw(st.integers(1, 8))
    segment = st.tuples(st.sampled_from([0, 0, 0, -1, 1]),
                        st.integers(-buffer_bytes // 2, 3 * buffer_bytes // 2),
                        st.integers(-1, buffer_bytes), st.integers(-buffer_bytes, buffer_bytes),
                        st.integers(0, 4))
    workgroups = draw(st.lists(st.lists(segment, max_size=3), max_size=8))
    return draw(st.integers(1, 3)), buffer_bytes, _segment_batch(workgroups)


@settings(max_examples=500, deadline=None)
@given(case=checked_queues())
def test_kernel_rejects_a_row_exactly_when_its_records_are_outside(native, case):
    capacity, buffer_bytes, batch = case
    lengths = np.array([buffer_bytes], dtype=np.int64)
    bad = [k for k in range(len(batch.indptr) - 1)
           if records_outside(batch_part(batch, k, k + 1).records(), lengths)]
    xcd = _Xcd(2, 2, capacity, buffer_bytes)
    got = xcd.drain(0, batch, False)
    if bad:
        assert got == -(bad[0] + 1)
    else:
        assert got == 0
        assert xcd.counts.tolist() == _python_counts(batch, 2, 2, capacity)


def _queue_lengths(trace, pattern, arch) -> list[int]:
    """Workgroups per non-empty (XCD, wave) queue, by XCD and then wave."""
    launch_of = np.argsort(validated_remap_table(pattern, trace.grid, arch))
    lengths = (np.count_nonzero(launch_of[members] % arch.num_xcds == xcd)
               for xcd in range(arch.num_xcds) for members in trace.wave_pids)
    return [int(n) for n in lengths if n]


@contextlib.contextmanager
def _watch_feed(trace, arch, *patterns):
    """Check the lazy feed's contract on every batch ``simulate`` asks of
    ``trace`` on ``arch`` inside this context, whose simulations run under
    ``patterns`` in turn. Gives the batch sizes and kernel calls of each
    (XCD, wave) queue, once the context ends, in ``_queue_lengths`` order.

    Each XCD's pass is watched on its own, on the thread that runs it. A
    batch holds at most ``slots`` pids or, if more, ``BATCH_SEGMENTS``
    segments' worth at the mean segments per pid of the batches the pass has
    read so far, and lives only while one of its pids is resident."""
    slots = concurrent_slots_per_xcd(arch)
    xcd_of = [np.argsort(validated_remap_table(p, trace.grid, arch)) % arch.num_xcds
              for p in patterns]
    kernel = cachesim._load_kernel()
    started = itertools.count()  # passes begun; a simulation begins num_xcds
    watching = threading.local()  # .feed: the state of the pass this thread runs
    passes = []  # (simulation, XCD, state) of each pass that read a batch
    queues = []
    run_native = cachesim._run_native

    def one_pass(*args):
        feed = watching.feed = SimpleNamespace(
            left=0, more=0,  # the last xcd_drain call's return and `more` flag
            pids=0, segments=0,  # read by this pass
            handed_out=[],  # a finalizer per batch's offs column
            queues=[])  # [batch sizes, kernel calls] of each of the pass's waves
        simulation = next(started) // arch.num_xcds
        pids = np.concatenate(args[2])
        if len(pids):
            passes.append((simulation, int(xcd_of[simulation][pids[0]]), feed))
        return run_native(*args)

    class Watched:
        def xcd_drain(self, *args):
            feed = watching.feed
            feed.left, feed.more = kernel.xcd_drain(*args), args[5]
            feed.queues[-1][1] += 1
            return feed.left

    def watched(wave, pids):
        feed = watching.feed
        alive = sum(f.alive for f in feed.handed_out)
        if not feed.more:  # a new (XCD, wave) queue: every earlier batch is freed
            assert alive == 0
            feed.queues.append([[], 0])
        assert alive <= feed.left  # a batch lives only while one of its pids is resident
        budget = cachesim.BATCH_SEGMENTS * feed.pids // max(feed.segments, 1)
        assert len(pids) <= max(slots, budget)
        feed.queues[-1][0].append(len(pids))
        batch = batch_fn(wave, pids)
        feed.pids += len(pids)
        feed.segments += len(batch)
        feed.handed_out.append(weakref.finalize(batch.offs, lambda: None))
        return batch

    batch_fn = trace._batch_fn
    with pytest.MonkeyPatch.context() as m:
        m.setattr(trace, "_batch_fn", watched)
        m.setattr(cachesim, "_run_native", one_pass)
        m.setattr(cachesim, "_load_kernel", lambda: Watched())
        yield queues
    passes.sort(key=lambda entry: entry[:2])
    queues += [queue for *_, feed in passes for queue in feed.queues]
    assert not any(f.alive for *_, feed in passes for f in feed.handed_out)


def _tapering_trace(total=480, bad=None):
    """One wave of ``total`` one-buffer workgroups: the first half have 60
    one-line segments each and the rest 4, so a lazy pass's segments per pid
    fall as it reads and its batches widen mid-wave. Workgroup ``bad``, if
    any, has its last segment run past the buffer."""
    def batch_fn(wave, pids):
        return _segment_batch([[(0, 128 * ((pid + k) % 64), 128, 0, 1)
                                for k in range(60 if pid < total // 2 else 4)]
                               + ([(0, 8192 - 64, 128, 0, 1)] if pid == bad else [])
                               for pid in pids.tolist()])

    return AccessTrace("synthetic", GridSpec.from_block_counts(total),
                       make_buffers([("b0", 8192)]), batch_fn)


FEED_TRACES = {
    # 3 fdtd waves of 14 workgroups of unequal length: slots drain one or two
    # at a time, and after each XCD's first batch a wave is one batch
    "fdtd2d": lambda: generate_trace(KernelSpec("fdtd2d", {"ny": 200, "nx": 100, "steps": 3},
                                                {"y": 32, "x": 64})),
    "tapering": _tapering_trace,
}


@pytest.fixture
def serial(monkeypatch):
    """One worker: the caller runs every XCD pass, in order."""
    monkeypatch.setattr(cachesim, "WORKERS", 1)


@pytest.mark.usefixtures("serial")
@pytest.mark.parametrize("name", FEED_TRACES)
def test_lazy_feed_sizes_batches_by_segments_and_frees_each_batch(native, name):
    lazy = FEED_TRACES[name]()
    arch = arch_with_xcds(2, cus_per_xcd=3, l2_bytes=4096, ways=2)
    slots = concurrent_slots_per_xcd(arch)
    pattern = builtin_pattern("identity", lazy.grid, arch)
    want = simulate(materialize(lazy), pattern, arch)
    with _watch_feed(lazy, arch, pattern) as queues:
        assert simulate(lazy, pattern, arch) == want
    members = _queue_lengths(lazy, pattern, arch)
    assert [sum(sizes) for sizes, _ in queues] == members
    assert members == ([7] * 6 if name == "fdtd2d" else [240, 240])
    # each XCD's pass starts with a slot file and then reads wider batches
    assert all(sizes[0] == slots and max(sizes) > slots for sizes, _ in queues[::lazy.num_waves])
    if name == "tapering":  # 60 segments per pid and then 4: the batches widen mid-wave
        assert all(len(set(sizes[1:-1])) > 1 for sizes, _ in queues)


def _bad_segment_queues(k, xcd_1_first=False):
    """The queues ``_watch_feed`` gives for a 2-XCD simulation of the
    tapering trace whose XCD 0 fails on the k-th pid of its second batch, on
    one worker. With ``xcd_1_first``, on ``cachesim.WORKERS`` as it is, that
    batch is asked for only once XCD 1's pass has asked for its first, 30 s
    at most."""
    # XCD 0's first batch is pids 0, 2, 4 (3 slots, 180 segments), so its
    # second holds 4096 * 3 // 180 = 68 pids, from pid 6: the bad one is its k-th
    bad = 6 + 2 * k
    lazy = _tapering_trace(bad=bad)
    arch = arch_with_xcds(2, cus_per_xcd=3, l2_bytes=4096, ways=2)
    pattern = builtin_pattern("identity", lazy.grid, arch)
    with python_pass(), pytest.raises(SimulationError, match=f"workgroup {bad} in wave 0"):
        simulate(lazy, pattern, arch)
    xcd_1_begun, batch_fn = threading.Event(), lazy._batch_fn

    def gated(wave, pids):
        if pids[0] == 1:
            xcd_1_begun.set()
        elif pids[0] == 6:
            assert xcd_1_begun.wait(timeout=30)
        return batch_fn(wave, pids)

    with pytest.MonkeyPatch.context() as m:
        if xcd_1_first:
            m.setattr(lazy, "_batch_fn", gated)
        else:
            m.setattr(cachesim, "WORKERS", 1)
        with _watch_feed(lazy, arch, pattern) as queues:
            with pytest.raises(SimulationError, match=f"workgroup {bad} in wave 0"):
                simulate(lazy, pattern, arch)
    return queues


@pytest.mark.parametrize("k", [0, 17, 58])
def test_bad_segment_deep_in_a_wide_batch_names_its_workgroup(native, k):
    assert _bad_segment_queues(k) == [[[3, 68], 2]]


@pytest.mark.usefixtures("serial")
@pytest.mark.parametrize("size", [1000, 3000])
def test_lazy_pair_makes_at_most_two_batch_and_kernel_calls_per_queue(native, size):
    # stencil tiles differ in length at the edges, so slots drain one or two
    # at a time; at 1000 each XCD's 32 workgroups fit its 38 slots, at 3000
    # each XCD's ~276 take a slot file and then one batch of the rest
    arch = MI300X_LIKE
    lazy = generate_trace(spec_with_size("stencil2d", size))
    pattern = builtin_pattern("stencil_group", lazy.grid, arch)
    want = simulate_pair(materialize(lazy), arch, ExecParams(), pattern)
    identity = builtin_pattern("identity", lazy.grid, arch)
    members = [count for p in (identity, pattern) for count in _queue_lengths(lazy, p, arch)]
    with _watch_feed(lazy, arch, identity, pattern) as queues:
        assert simulate_pair(lazy, arch, ExecParams(), pattern) == want
    assert [sum(sizes) for sizes, _ in queues] == members
    calls = 1 if size == 1000 else 2
    assert [(len(sizes), kernel_calls) for sizes, kernel_calls in queues] == \
        [(calls, calls)] * len(members)


@pytest.mark.usefixtures("serial")
def test_lazy_transpose_keeps_slot_file_batches(native):
    # 64 x 64 fp32 tiles have 128 segments each, so 38 of them pass
    # BATCH_SEGMENTS and every batch stays one slot file; 400 tiles put 50
    # on each of the 8 XCDs
    arch = MI300X_LIKE
    slots = concurrent_slots_per_xcd(arch)
    lazy = generate_trace(KernelSpec("transpose", {"m": 1280, "n": 1280}, {"m": 64, "n": 64}))
    pattern = builtin_pattern("transpose_band", lazy.grid, arch)
    want = simulate(materialize(lazy), pattern, arch)
    with _watch_feed(lazy, arch, pattern) as queues:
        assert simulate(lazy, pattern, arch) == want
    assert [sizes for sizes, _ in queues] == [[slots, 50 - slots]] * arch.num_xcds


@pytest.fixture
def threads_forced(monkeypatch):
    """Up to 8 threads, the caller's included, whatever the host's CPUs."""
    monkeypatch.setattr(cachesim, "WORKERS", 8)


# The four lazy-feed contracts above, each XCD's pass on its own thread
@pytest.mark.parametrize("name", FEED_TRACES)
def test_lazy_feed_sizes_batches_by_segments_on_threads(native, threads_forced, name):
    test_lazy_feed_sizes_batches_by_segments_and_frees_each_batch(native, name)


@pytest.mark.parametrize("k", [0, 17, 58])
def test_bad_segment_deep_in_a_wide_batch_on_threads(native, threads_forced, k):
    # XCD 0's second batch is held until XCD 1's pass has begun, so XCD 0
    # fails while it runs, and that pass still ends
    queues = _bad_segment_queues(k, xcd_1_first=True)
    assert queues[0] == [[3, 68], 2]
    assert [sum(sizes) for sizes, _ in queues[1:]] == [240]


@pytest.mark.parametrize("size", [1000, 3000])
def test_lazy_pair_batch_and_kernel_calls_on_threads(native, threads_forced, size):
    test_lazy_pair_makes_at_most_two_batch_and_kernel_calls_per_queue(native, size)


def test_lazy_transpose_keeps_slot_file_batches_on_threads(native, threads_forced):
    test_lazy_transpose_keeps_slot_file_batches(native)


def _build(flags, lib):
    """The runtime build command plus ``flags``, run into ``lib``."""
    return subprocess.run([cachesim._CC, *cachesim._CFLAGS, *flags, "-o", str(lib),
                           str(cachesim._KERNEL_SOURCE)], capture_output=True, text=True)


def test_kernel_builds_with_strict_warnings(native, tmp_path):
    # the runtime build passes no warning flags; this catches edits that only
    # a warning would flag
    done = _build(["-Wall", "-Wextra", "-Werror", "-std=c11"], tmp_path / "lru.so")
    assert done.returncode == 0, done.stderr


def test_library_name_keys_compiler_and_flags(native, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    flags = cachesim._CFLAGS
    builds = [(cachesim._CC, flags), (shutil.which(cachesim._CC), flags),
              (cachesim._CC, (*flags, "-DNDEBUG"))]
    try:
        for cc, cflags in builds:
            monkeypatch.setattr(cachesim, "_CC", cc)
            monkeypatch.setattr(cachesim, "_CFLAGS", cflags)
            cachesim._load_kernel.cache_clear()
            assert cachesim._load_kernel() is not None
    finally:
        cachesim._load_kernel.cache_clear()
    # each build has its own library, so a changed command never loads a stale one
    assert len(list((tmp_path / "swizzlesim").glob("lru-*.so"))) == len(builds)


# (buffer, offset, length) of a bad record in a 1024 B buffer
BAD_RECORDS = {"one byte past": (0, 897, 128), "before": (0, -1, 1), "empty": (0, 0, 0),
               "no buffer": (1, 0, 1)}


@pytest.mark.parametrize("kind", BAD_RECORDS)
@pytest.mark.parametrize("bad", range(4))
def test_out_of_bounds_record_names_its_workgroup_and_wave(native, bad, kind):
    # 2 XCDs of 2 slots; streams of unequal length, so the bad workgroup may
    # load into a slot freed mid-wave
    streams = [
        {pid: [(0, 128 * pid, 128)] for pid in range(8)},
        {pid: [(0, 0, 128 * (1 + pid % 3)), BAD_RECORDS[kind] if pid == bad else (0, 0, 128)]
         for pid in range(8)},
    ]
    trace = _trace_of(streams, [1024], 8)
    arch = arch_with_xcds(2, cus_per_xcd=2, l2_bytes=4096, ways=2)
    pattern = builtin_pattern("identity", trace.grid, arch)
    with pytest.raises(SimulationError) as native_exc:
        simulate(trace, pattern, arch)
    with pytest.raises(SimulationError) as kept_exc:
        simulate(materialize(trace), pattern, arch)
    with python_pass(), pytest.raises(SimulationError) as python_exc:
        simulate(trace, pattern, arch)
    assert str(native_exc.value) == str(kept_exc.value) == str(python_exc.value)
    assert f"workgroup {bad} in wave 1" in str(native_exc.value)


OVERFLOWS = [(1 << 62, 5), (-(1 << 62), 5), (-(1 << 63), 2)]


def _overflowing_case(stride, count):
    """A trace whose workgroup 5 in wave 1 has a segment of ``count`` runs at
    ``stride``, with an arch and the identity pattern."""
    streams = [
        {pid: [(0, 128 * pid, 128)] for pid in range(8)},
        {pid: [(0, 0, 128), (0, 0, 1, stride, count) if pid == 5 else (0, 128, 1)]
         for pid in range(8)},
    ]
    trace = _trace_of(streams, [1024], 8)
    arch = arch_with_xcds(2, cus_per_xcd=2, l2_bytes=4096, ways=2)
    return trace, arch, builtin_pattern("identity", trace.grid, arch)


@pytest.mark.parametrize("stride, count", OVERFLOWS)
def test_overflowing_segment_names_its_workgroup_and_wave(native, stride, count):
    # stride * (count - 1) overflows int64: +-2**64 wraps to 0, so a check
    # that formed the last run's offset would find it in the buffer and touch
    # runs at +-2**62 and beyond; -2**63 has no negation
    trace, arch, pattern = _overflowing_case(stride, count)
    for subject in (trace, materialize(trace)):
        with pytest.raises(SimulationError, match="workgroup 5 in wave 1"):
            simulate(subject, pattern, arch)
    with python_pass(), pytest.raises(SimulationError, match="workgroup 5 in wave 1"):
        simulate(trace, pattern, arch)


def _checked_outcomes():
    """(hits, misses) of ``simulate`` on each of PER_TOUCH_STREAMS, then the
    error of each OVERFLOWS case on its lazy and its materialized trace."""
    out = [list(_per_touch_counts(case)) for case in PER_TOUCH_STREAMS]
    for stride, count in OVERFLOWS:
        trace, arch, pattern = _overflowing_case(stride, count)
        for subject in (trace, materialize(trace)):
            with pytest.raises(SimulationError) as exc:
                simulate(subject, pattern, arch)
            out.append(str(exc.value))
    return out


def _past_a_pad_outcomes():
    """The report of a lazy ``simulate`` on a trace of 16 384 lines, then the
    counts, touched-line map and rows of an ``_Xcd`` drain over 10 000 lines:
    both write map bytes past the first 4096 lines' padding."""
    trace = generate_trace(spec_with_size("transpose", 512))
    out = [report_to_json(simulate(trace, builtin_pattern("identity", trace.grid, SMALL), SMALL))]
    xcd = _Xcd(num_sets=64, ways=2, capacity=3, buffer_bytes=128 * 10_000)
    batch = _segment_batch([[(0, 0, 128, 128 * 37, 270)], [(0, 64, 1, 128, 9_999)],
                            [(0, 128 * 9_999, 128, -128 * 4_095, 3)]])
    assert xcd.drain(0, batch, False) == 0
    return out + [xcd.counts.tolist(), xcd.touched.tolist(), xcd.rows()]


def _sanitized_run(lib, outcomes, env=None):
    """``outcomes()`` in a child process whose kernel is the library ``lib``,
    which aborts it on a sanitizer report."""
    code = ("import json, sys\n"
            "from swizzlesim import cachesim\n"
            "kernel = cachesim._bind(sys.argv[1])\n"
            "cachesim._load_kernel = lambda: kernel\n"
            "import test_lru_kernel\n"
            f"print(json.dumps(test_lru_kernel.{outcomes.__name__}()))\n")
    path = os.pathsep.join([str(Path(cachesim.__file__).parents[1]), str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", code, str(lib)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path, **(env or {})))


def test_kernel_runs_clean_under_ubsan(native, tmp_path):
    # a build that aborts on undefined behaviour (signed overflow, shifts out
    # of range, misaligned or null accesses) runs the per-touch and the
    # overflowing-segment cases
    lib = tmp_path / "lru-ubsan.so"
    done = _build(["-fsanitize=undefined", "-fno-sanitize-recover=all"], lib)
    if done.returncode != 0 and "ubsan" in done.stderr:
        pytest.skip(f"{cachesim._CC} cannot link libubsan: {done.stderr.strip()}")
    assert done.returncode == 0, done.stderr
    child = _sanitized_run(lib, _checked_outcomes)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == _checked_outcomes()


def _asan_outcomes():
    return _checked_outcomes() + _past_a_pad_outcomes()


def test_kernel_runs_clean_under_asan(native, tmp_path):
    # a build that aborts on an access outside any allocation, such as a map
    # byte past the end of a touched-line map, runs the UBSan test's cases
    # and two passes whose map bytes lie past the first padding; the ASan
    # runtime must be the first library the child loads
    lib = tmp_path / "lru-asan.so"
    done = _build(["-fsanitize=address", "-fno-omit-frame-pointer"], lib)
    if done.returncode != 0 and "asan" in done.stderr:
        pytest.skip(f"{cachesim._CC} cannot link libasan: {done.stderr.strip()}")
    assert done.returncode == 0, done.stderr
    runtime = subprocess.run([cachesim._CC, "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not Path(runtime).is_absolute():  # the compiler found no such file
        pytest.skip(f"{cachesim._CC} has no libasan.so to preload")
    child = _sanitized_run(lib, _asan_outcomes,
                           {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"})
    if "cannot be preloaded" in child.stderr:
        pytest.skip(f"libasan cannot be preloaded: {child.stderr.strip()}")
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == _asan_outcomes()


def _wide_case(kind):
    """(trace, arch) past the bound of 2**32 lines or sets, allocating nothing
    of that size: a 128 B buffer whose last line is line 2**32 - 1, with
    2**32 lines in all, or a small trace on an L2 of 2**32 one-way sets."""
    if kind == "lines":
        buffers = [Buffer(0, "b0", 128, (2**32 - 1) * 128)]
        arch = SMALL
    else:
        buffers = make_buffers([("b0", 128)])
        arch = arch_with_xcds(1, cus_per_xcd=4, l2_bytes=128 << 32, ways=1)
    batch_fn = lambda wave, pids: _segment_batch([[(0, 0, 128, 0, 1)]] * len(pids))
    return AccessTrace("wide", GridSpec.from_block_counts(4), buffers, batch_fn), arch


@pytest.mark.parametrize("kind", ["lines", "sets"])
def test_2_32_lines_or_sets_raise_before_any_allocation(kind):
    trace, arch = _wide_case(kind)
    pattern = builtin_pattern("identity", trace.grid, arch)
    for subject in (trace, materialize(trace)):
        for oracle in (False, True):
            tracemalloc.start()
            try:
                with python_pass() if oracle else contextlib.nullcontext():
                    with pytest.raises(SimulationError, match=r"reach 2\*\*32"):
                        simulate(subject, pattern, arch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20  # the line map would take 4 GiB, the tag rows 32 GiB


def _failing_compiler(tmp_path):
    script = tmp_path / "cc"
    script.write_text("#!/bin/sh\necho cannot compile >&2\nexit 1\n")
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("compiler, reason", [
    (lambda tmp: str(tmp / "missing-cc"), "missing-cc"),
    (_failing_compiler, "cannot compile"),
], ids=["missing", "failing"])
def test_failed_build_raises_and_is_not_cached(native, monkeypatch, tmp_path, compiler, reason):
    trace = generate_trace(spec_with_size("softmax", 256))
    pattern = builtin_pattern("layernorm_rowgroup", trace.grid, SMALL)
    want = report_to_json(simulate(trace, pattern, SMALL))

    build_root = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(build_root))
    real_cc = cachesim._CC
    monkeypatch.setattr(cachesim, "_CC", compiler(tmp_path))
    cachesim._load_kernel.cache_clear()
    try:
        with pytest.raises(SimulationError, match=f"native LRU kernel unavailable: .*{reason}"):
            simulate(trace, pattern, SMALL)
        assert [p for p in build_root.rglob("*") if p.is_file()] == []

        # the failure is not cached: with a working compiler the next call
        # builds, without clearing the cache
        monkeypatch.setattr(cachesim, "_CC", real_cc)
        assert report_to_json(simulate(trace, pattern, SMALL)) == want
        assert [p.suffix for p in (build_root / "swizzlesim").iterdir()] == [".so"]
    finally:
        cachesim._load_kernel.cache_clear()


def test_import_builds_nothing(tmp_path):
    src = Path(cachesim.__file__).parents[1]
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(src))
    code = (
        "import swizzlesim, swizzlesim.cli\n"
        "from swizzlesim import cachesim\n"
        "print(cachesim._load_kernel.cache_info().currsize)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "0"
    assert list(tmp_path.iterdir()) == []
