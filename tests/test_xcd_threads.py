"""The XCD passes of a simulation on several threads: the same reports and
the same errors as the serial order.

Every simulation starts ``min(num_xcds, WORKERS) - 1`` helpers before it
takes XCD 0. Run under ``taskset -c 0``, the tests that leave
``cachesim.WORKERS`` as the host set it take the single-CPU path: no helper
thread.
"""

import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from swizzlesim import cachesim
from swizzlesim.arch import MI300X_LIKE, concurrent_slots_per_xcd
from swizzlesim.cachesim import SimulationError, report_to_json, simulate
from swizzlesim.kernels import (
    KERNEL_KINDS,
    KernelSpec,
    default_pattern,
    default_spec,
    generate_trace,
    spec_with_size,
)
from swizzlesim.patterns import GridSpec, builtin_pattern, validated_remap_table
from swizzlesim.traces import AccessTrace, Batch, make_buffers, materialize

from conftest import arch_with_xcds, python_pass

SPECS = {kind: default_spec(kind) for kind in KERNEL_KINDS}
SPECS["gemm@2048"] = spec_with_size("gemm", 2048)


def _forced(monkeypatch, workers):
    """Simulations run on ``workers`` threads, the caller's included."""
    monkeypatch.setattr(cachesim, "WORKERS", workers)


@pytest.mark.parametrize("name", SPECS)
def test_reports_are_identical_across_worker_counts(monkeypatch, name):
    arch = MI300X_LIKE
    lazy = generate_trace(SPECS[name])
    names = dict.fromkeys(("identity", default_pattern(lazy.kernel)))
    cases = [(trace, builtin_pattern(p, lazy.grid, arch))
             for trace in (lazy, materialize(lazy)) for p in names]
    monkeypatch.setattr(cachesim, "WORKERS", 1)
    want = [report_to_json(simulate(trace, pattern, arch)) for trace, pattern in cases]
    for workers in (1, 2, arch.num_xcds):
        _forced(monkeypatch, workers)
        got = [report_to_json(simulate(trace, pattern, arch)) for trace, pattern in cases]
        assert got == want, f"{name} on {workers} workers"


def test_parallel_report_matches_the_reference_pass(monkeypatch):
    # gemm tiles share their operands' lines across XCDs, and 2 KiB of 2-way L2 evicts
    arch = arch_with_xcds(4, cus_per_xcd=2, l2_bytes=2048, ways=2)
    trace = generate_trace(spec_with_size("gemm", 128))
    pattern = builtin_pattern("gemm_contiguous", trace.grid, arch)
    with python_pass():
        want = simulate(trace, pattern, arch)
    assert want.misses > want.unique_lines_touched  # capacity or conflict misses
    _forced(monkeypatch, arch.num_xcds)
    assert simulate(trace, pattern, arch) == want


def _modulo_split_report(trace, pattern, arch) -> cachesim.BottleneckReport:
    """``simulate``'s report, each XCD's queue of a wave selected by a
    ``launch % num_xcds == xcd`` mask over the wave's sorted launch pids and
    drained by ``reference_pass`` from the members' positions in the wave: a
    split that shares no code with simulate's."""
    table = validated_remap_table(pattern, trace.grid, arch)
    launch_of = np.argsort(table)
    launches = [np.sort(launch_of[members]) for members in trace.wave_pids]
    position = [dict(zip(members.tolist(), range(len(members)))) for members in trace.wave_pids]
    end = max(buffer.base_offset + buffer.length_bytes for buffer in trace.buffers)
    touched = np.zeros(-(-end // arch.l2_line_bytes), dtype=np.uint8)
    per_xcd = []
    for xcd in range(arch.num_xcds):
        waves = [np.array([of[pid] for pid in table[launch[launch % arch.num_xcds == xcd]]],
                          dtype=np.int64) for launch, of in zip(launches, position)]
        hits, accesses = cachesim.reference_pass(
            trace, waves, arch, concurrent_slots_per_xcd(arch), touched)
        per_xcd.append(cachesim.XcdStats(accesses, hits, accesses - hits,
                                         hits / accesses if accesses else 0.0))
    hits, accesses = sum(s.hits for s in per_xcd), sum(s.accesses for s in per_xcd)
    return cachesim.BottleneckReport(trace.kernel, pattern.name, arch.num_xcds, accesses, hits,
                                     accesses - hits, hits / accesses if accesses else 0.0,
                                     tuple(per_xcd), int(np.count_nonzero(touched)))


@pytest.mark.parametrize("workers", [1, 2])
def test_strided_xcd_queues_match_a_modulo_split(monkeypatch, workers):
    # 291 blocks, no multiple of 8 XCDs; smith_waterman's 31 waves of 1 to 16
    # members, on 8 XCDs and on 3, which do not divide its 256 blocks
    _forced(monkeypatch, workers)
    transpose = generate_trace(KernelSpec("transpose", {"m": 97, "n": 33}, {"m": 1, "n": 16}))
    waves = generate_trace(default_spec("smith_waterman"))
    three = arch_with_xcds(3, cus_per_xcd=2, l2_bytes=64 << 10, ways=4)
    for trace, arch in ((transpose, MI300X_LIKE), (waves, MI300X_LIKE), (waves, three)):
        for name in ("identity", "gemm_contiguous"):
            pattern = builtin_pattern(name, trace.grid, arch)
            want = _modulo_split_report(trace, pattern, arch)
            assert simulate(trace, pattern, arch) == want, (trace.kernel, arch.name, name)
            assert simulate(materialize(trace), pattern, arch) == want


def test_parallel_reports_hold_under_fast_thread_switching(monkeypatch):
    # more threads than cores, switching every microsecond: a lost count or
    # map update would change a report
    arch = MI300X_LIKE
    trace = generate_trace(spec_with_size("stencil2d", 512))
    pattern = builtin_pattern("stencil_group", trace.grid, arch)
    want = simulate(trace, pattern, arch)
    _forced(monkeypatch, arch.num_xcds)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reports = [simulate(trace, pattern, arch) for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    assert reports == [want] * 20


def test_a_parallel_simulation_frees_its_trace_without_the_cycle_collector(monkeypatch):
    # a reference cycle through simulate's helpers would keep each
    # simulation's trace, tables and line maps alive until the cycle
    # collector ran: a loop of large simulations grew by megabytes each
    _forced(monkeypatch, 2)
    trace = generate_trace(spec_with_size("gemm", 256))
    pattern = builtin_pattern("identity", trace.grid, MI300X_LIKE)
    freed = weakref.finalize(trace, lambda: None)
    gc.collect()
    gc.disable()
    try:
        simulate(trace, pattern, MI300X_LIKE)
        del trace
        assert not freed.alive
    finally:
        gc.enable()


@pytest.mark.parametrize("workers", [2, 8])
def test_repeated_parallel_simulations_free_each_trace(monkeypatch, workers):
    # no helper thread may hold a simulation's trace once simulate returns:
    # each trace must be freed as its last reference goes, collector or not
    _forced(monkeypatch, workers)
    spec = spec_with_size("gemm", 256)
    pattern = builtin_pattern("identity", generate_trace(spec).grid, MI300X_LIKE)
    gc.collect()
    gc.disable()
    try:
        alive = 0
        for _ in range(50):
            trace = generate_trace(spec)
            freed = weakref.finalize(trace, lambda: None)
            simulate(trace, pattern, MI300X_LIKE)
            del trace
            alive += freed.alive
        assert alive == 0, f"{alive} of 50 traces outlived their simulate"
    finally:
        gc.enable()


ARCH4 = arch_with_xcds(4, cus_per_xcd=2, l2_bytes=4096, ways=2)


def _trace_with_bad(bad, total=200, gate=0):
    """One wave of ``total`` workgroups of 16 one-line reads each; each one
    in ``bad`` then reads past the buffer's end. Under the identity on
    ``ARCH4``, workgroup ``p`` runs on XCD ``p % 4``, and XCD 0's pass asks
    for two batches: pids 0 and 4, then the rest. The trace records the
    pids of every batch asked of it in ``.asked``. With ``gate``, XCD 0's
    first batch waits, 30 s at most, until ``gate`` passes of other XCDs
    have asked for their first batch, and ``.waits`` records whether they
    had."""
    def batch_fn(wave, pids):
        trace.asked.extend(pids.tolist())
        first = int(pids[0])
        if gate and first in (1, 2, 3):
            trace.begun.release()
        elif gate and first == 0:
            trace.waits.append(all(trace.begun.acquire(timeout=30) for _ in range(gate)))
        segments = [[(0, 128 * ((pid + k) % 64), 128, 0, 1) for k in range(16)]
                    + ([(0, 8192 - 64, 128, 0, 1)] if pid in bad else []) for pid in pids.tolist()]
        flat = np.array([s for workgroup in segments for s in workgroup], dtype=np.int64)
        bufs, offs, lens, strides, counts = flat.T
        return Batch(bufs, offs, lens, np.zeros(len(flat), dtype=bool), strides, counts,
                     np.cumsum([0] + [len(workgroup) for workgroup in segments]))

    trace = AccessTrace("synthetic", GridSpec.from_block_counts(total),
                        make_buffers([("b0", 8192)]), batch_fn)
    trace.asked, trace.begun, trace.waits = [], threading.Semaphore(0), []
    return trace


@pytest.fixture
def running(monkeypatch):
    """The XCD passes running now and those begun, one entry each."""
    state = {"now": [], "begun": []}
    run_native = cachesim._run_native

    def counted(*args):
        state["now"].append(None)  # list appends and pops are atomic
        state["begun"].append(None)
        try:
            return run_native(*args)
        finally:
            state["now"].pop()

    monkeypatch.setattr(cachesim, "_run_native", counted)
    return state


@pytest.mark.parametrize("workers", [2, 4])
def test_the_lowest_failed_xcd_raises_and_no_pass_outlives_it(monkeypatch, running, workers):
    # XCD 1 and XCD 3 both fail, and XCD 1's pass waits until XCD 3's has
    # failed: the lower XCD's error must still be the one raised
    lazy = _trace_with_bad({1 + 4 * 40, 3})
    pattern = builtin_pattern("identity", lazy.grid, ARCH4)
    xcd_3_failed = threading.Event()
    run_native = cachesim._run_native

    def ordered(kernel, trace, waves, *args):
        xcd = int(waves[0][0]) % 4
        if xcd == 1:
            assert xcd_3_failed.wait(timeout=30)
        try:
            return run_native(kernel, trace, waves, *args)
        finally:
            if xcd == 3:
                xcd_3_failed.set()

    monkeypatch.setattr(cachesim, "_run_native", ordered)
    _forced(monkeypatch, workers)
    before = threading.active_count()
    with pytest.raises(SimulationError, match="workgroup 161 in wave 0"):
        simulate(lazy, pattern, ARCH4)
    assert xcd_3_failed.is_set()
    assert running["now"] == []
    assert len(running["begun"]) == 4
    assert threading.active_count() == before  # the error path joins its helpers too


def test_helpers_start_during_xcd_0s_pass(monkeypatch):
    # on 2 workers the helper is started before XCD 0 is taken, so XCD 1's
    # pass begins while XCD 0's waits for its first batch
    lazy = _trace_with_bad(set(), gate=1)
    pattern = builtin_pattern("identity", lazy.grid, ARCH4)
    _forced(monkeypatch, 1)
    want = simulate(materialize(_trace_with_bad(set())), pattern, ARCH4)
    _forced(monkeypatch, 2)
    assert simulate(lazy, pattern, ARCH4) == want
    assert lazy.waits == [True]


@pytest.mark.parametrize("workers", [1])
def test_a_failed_xcd_0_runs_no_other_xcd(monkeypatch, running, workers):
    # one worker runs the passes in order on the calling thread: XCD 0's
    # first kernel call fails on the bad row, and no other XCD begins
    lazy = _trace_with_bad({4, 2})
    pattern = builtin_pattern("identity", lazy.grid, ARCH4)
    _forced(monkeypatch, workers)
    with pytest.raises(SimulationError, match="workgroup 4 in wave 0"):
        simulate(lazy, pattern, ARCH4)
    assert running == {"now": [], "begun": [None]}
    assert lazy.asked and all(pid % 4 == 0 for pid in lazy.asked)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_xcd_0_after_the_helpers_start_begins_no_later_xcd(monkeypatch, running,
                                                                   workers):
    # the bad row is in XCD 0's second batch, and its first waits until each
    # other thread has begun a pass; each of those passes then holds its end
    # until a thread has left `drain`, which the one that ran XCD 0 does
    # first, once its failure is recorded, so no thread takes a next XCD. A
    # helper has left `drain` when its `Thread.run` ends, the caller when it
    # first joins a helper
    lazy = _trace_with_bad({40, 3}, gate=workers - 1)
    pattern = builtin_pattern("identity", lazy.grid, ARCH4)
    left = threading.Event()
    ended_after_left = []
    run_native, run, join = cachesim._run_native, threading.Thread.run, threading.Thread.join

    def ordered(kernel, trace, waves, *args):
        xcd = int(waves[0][0]) % 4
        try:
            return run_native(kernel, trace, waves, *args)
        finally:
            if xcd != 0:
                ended_after_left.append(left.wait(timeout=30))

    def watched(thread):
        try:
            run(thread)
        finally:
            left.set()

    def joined(thread, *args):
        left.set()
        return join(thread, *args)

    monkeypatch.setattr(cachesim, "_run_native", ordered)
    monkeypatch.setattr(threading.Thread, "run", watched)
    monkeypatch.setattr(threading.Thread, "join", joined)
    _forced(monkeypatch, workers)
    with pytest.raises(SimulationError, match="workgroup 40 in wave 0"):
        simulate(lazy, pattern, ARCH4)
    assert lazy.waits == [True] and ended_after_left == [True] * (workers - 1)
    assert running["now"] == []
    assert len(running["begun"]) == workers  # XCD 3, with its bad row, never began
    assert 3 not in {pid % 4 for pid in lazy.asked}


def _child(code: str) -> dict:
    """The JSON a child interpreter prints after running ``code``, with
    ``threads`` bound to the live thread count."""
    src = Path(cachesim.__file__).parents[1]
    prelude = ("import json, threading\n"
               "import swizzlesim as sz\n"
               "from swizzlesim import cachesim\n"
               "threads = threading.active_count\n")
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_usable_cpus_bound_the_threads():
    # the host's own WORKERS: even a small simulation starts one helper per
    # usable CPU past the caller's, up to one per XCD past XCD 0, and joins
    # them all before it returns; one usable CPU (taskset -c 0) starts none
    out = _child(
        "import os\n"
        "start, starts = threading.Thread.start, []\n"
        "threading.Thread.start = lambda *args: starts.append(None) or start(*args)\n"
        "before = threads()\n"
        "trace = sz.generate_trace(sz.spec_with_size('gemm', 256))\n"
        "sz.simulate(trace, sz.builtin_pattern('identity', trace.grid, sz.MI300X_LIKE),\n"
        "            sz.MI300X_LIKE)\n"
        "print(json.dumps({'cpus': len(os.sched_getaffinity(0)), 'workers': cachesim.WORKERS,\n"
        "                  'threads': threads() - before, 'starts': len(starts)}))\n")
    assert out["workers"] == out["cpus"]
    assert out["starts"] == min(MI300X_LIKE.num_xcds, out["cpus"]) - 1
    assert out["threads"] == 0
