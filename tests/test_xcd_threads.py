"""The XCD passes of a simulation on several threads: the same reports and
the same errors as the serial order, and no thread where it cannot pay.

Run under ``taskset -c 0``, the tests that leave ``cachesim.WORKERS`` as the
host set it take the single-CPU path: no pool.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from swizzlesim import cachesim
from swizzlesim.arch import MI300X_LIKE
from swizzlesim.cachesim import SimulationError, report_to_json, simulate
from swizzlesim.kernels import (
    KERNEL_KINDS,
    default_pattern,
    default_spec,
    generate_trace,
    spec_with_size,
)
from swizzlesim.patterns import GridSpec, builtin_pattern
from swizzlesim.traces import AccessTrace, Batch, make_buffers, materialize

from conftest import arch_with_xcds

SPECS = {kind: default_spec(kind) for kind in KERNEL_KINDS}
SPECS["gemm@2048"] = spec_with_size("gemm", 2048)


def _forced(monkeypatch, workers):
    """Every XCD after XCD 0 goes to the parallel path on ``workers`` threads."""
    monkeypatch.setattr(cachesim, "PARALLEL_TOUCHES", 0)
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
    with monkeypatch.context() as m:
        m.setattr(cachesim, "_run_native", lambda kernel, *args: cachesim.reference_pass(*args))
        want = simulate(trace, pattern, arch)
    assert want.misses > want.unique_lines_touched  # capacity or conflict misses
    _forced(monkeypatch, arch.num_xcds)
    assert simulate(trace, pattern, arch) == want


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


ARCH4 = arch_with_xcds(4, cus_per_xcd=2, l2_bytes=4096, ways=2)


def _trace_with_bad(bad, total=200):
    """One wave of ``total`` workgroups of 16 one-line reads each; each one
    in ``bad`` then reads past the buffer's end. Under the identity on
    ``ARCH4``, workgroup ``p`` runs on XCD ``p % 4``. The trace records the
    pids of every batch asked of it in ``.asked``."""
    def batch_fn(wave, pids):
        trace.asked.extend(pids.tolist())
        segments = [[(0, 128 * ((pid + k) % 64), 128, 0, 1) for k in range(16)]
                    + ([(0, 8192 - 64, 128, 0, 1)] if pid in bad else []) for pid in pids.tolist()]
        flat = np.array([s for workgroup in segments for s in workgroup], dtype=np.int64)
        bufs, offs, lens, strides, counts = flat.T
        return Batch(bufs, offs, lens, np.zeros(len(flat), dtype=bool), strides, counts,
                     np.cumsum([0] + [len(workgroup) for workgroup in segments]))

    trace = AccessTrace("synthetic", GridSpec.from_block_counts(total),
                        make_buffers([("b0", 8192)]), batch_fn)
    trace.asked = []
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
    with pytest.raises(SimulationError, match="workgroup 161 in wave 0"):
        simulate(lazy, pattern, ARCH4)
    assert xcd_3_failed.is_set()
    assert running["now"] == []
    assert len(running["begun"]) == 4


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_failed_xcd_0_runs_no_other_xcd(monkeypatch, running, workers):
    lazy = _trace_with_bad({4 * 10, 2})
    pattern = builtin_pattern("identity", lazy.grid, ARCH4)
    _forced(monkeypatch, workers)
    with pytest.raises(SimulationError, match="workgroup 40 in wave 0"):
        simulate(lazy, pattern, ARCH4)
    assert running == {"now": [], "begun": [None]}
    assert lazy.asked and all(pid % 4 == 0 for pid in lazy.asked)


def _child(code: str) -> dict:
    """The JSON a child interpreter prints after running ``code``, with
    ``threads`` and ``pools`` bound to the live thread and pool counts."""
    src = Path(cachesim.__file__).parents[1]
    prelude = ("import json, threading\n"
               "import swizzlesim as sz\n"
               "from swizzlesim import cachesim\n"
               "threads = threading.active_count\n"
               "pools = lambda: cachesim._pool.cache_info().currsize\n")
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_small_benchmark_simulations_start_no_thread():
    # softmax rows=1024 and stencil2d @ 4096 make 98 K and 198 K touches per
    # XCD, far below PARALLEL_TOUCHES, so even 8 workers leave them serial;
    # gemm @ 2048 (1.06 M per XCD) shows the count would see a pool
    out = _child(
        "from swizzlesim.kernels import default_pattern\n"
        "cachesim.WORKERS = 8\n"
        "before = threads()\n"
        "for kind, size in (('softmax', 1024), ('stencil2d', 4096)):\n"
        "    trace = sz.generate_trace(sz.spec_with_size(kind, size))\n"
        "    pattern = sz.builtin_pattern(default_pattern(kind), trace.grid, sz.MI300X_LIKE)\n"
        "    sz.simulate_pair(trace, sz.MI300X_LIKE, sz.ExecParams(), pattern)\n"
        "serial = [threads() - before, pools()]\n"
        "trace = sz.generate_trace(sz.spec_with_size('gemm', 2048))\n"
        "sz.simulate(trace, sz.builtin_pattern('identity', trace.grid, sz.MI300X_LIKE),\n"
        "            sz.MI300X_LIKE)\n"
        "print(json.dumps({'serial': serial, 'gemm': [threads() - before, pools()]}))\n")
    assert out["serial"] == [0, 0]
    assert out["gemm"][0] > 0 and out["gemm"][1] == 1


def test_usable_cpus_bound_the_threads():
    # the host's own WORKERS: one usable CPU (taskset -c 0) makes no pool
    # even when the parallel path is forced; more make at most one helper
    # thread per CPU past the caller's
    out = _child(
        "import os\n"
        "cachesim.PARALLEL_TOUCHES = 0\n"
        "before = threads()\n"
        "trace = sz.generate_trace(sz.spec_with_size('gemm', 256))\n"
        "sz.simulate(trace, sz.builtin_pattern('identity', trace.grid, sz.MI300X_LIKE),\n"
        "            sz.MI300X_LIKE)\n"
        "print(json.dumps({'cpus': len(os.sched_getaffinity(0)), 'workers': cachesim.WORKERS,\n"
        "                  'threads': threads() - before, 'pools': pools()}))\n")
    assert out["workers"] == out["cpus"]
    helpers = min(MI300X_LIKE.num_xcds, out["cpus"]) - 1
    assert out["pools"] == (helpers > 0)
    assert (out["threads"] > 0) == (helpers > 0) and out["threads"] <= helpers
