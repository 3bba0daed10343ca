"""The native LRU kernel against the Python oracles, and its fallback."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swizzlesim import cachesim
from swizzlesim.arch import MI300X_LIKE
from swizzlesim.cachesim import SetAssocLru, report_to_json, simulate
from swizzlesim.kernels import KERNEL_KINDS, generate_trace, spec_with_size
from swizzlesim.patterns import BUILTIN_PATTERN_NAMES, PatternError, builtin_pattern

from conftest import ReferenceLru, arch_with_xcds

# 1 XCD, 16 KiB of 2-way L2 (64 sets): 7 of the 10 kernels at size 256 evict
SMALL = arch_with_xcds(1, cus_per_xcd=4, l2_bytes=16 << 10, ways=2)


@pytest.fixture(scope="module")
def native():
    if shutil.which(cachesim._CC) is None:
        pytest.skip(f"no {cachesim._CC} to build the native LRU kernel")
    # a compiler is present, so the build must succeed
    assert cachesim._load_kernel() is not None


@st.composite
def caches_and_lines(draw):
    """A cache shape and a line stream over a working set of up to twice its
    capacity, so hits, evictions and rereads of evicted lines all occur."""
    num_sets = draw(st.integers(1, 70))
    ways = draw(st.integers(1, 9))
    span = draw(st.integers(1, 2 * num_sets * ways))
    base = draw(st.integers(-(1 << 62), 1 << 62))
    stride = draw(st.integers(1, 1 << 20))
    # hypothesis keeps lists short; a drawn seed gives streams long enough to
    # overflow sets and reread what was evicted
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    ids = rng.integers(0, span + 1, size=draw(st.integers(0, 1000)))
    return num_sets, ways, [base + int(i) * stride for i in ids]


@settings(max_examples=200, deadline=None)
@given(case=caches_and_lines(), cuts=st.lists(st.integers(0, 1000), max_size=6))
def test_native_matches_reference_per_touch(native, case, cuts):
    num_sets, ways, lines = case
    ref = ReferenceLru(num_sets, ways)
    want = [ref.access(line) for line in lines]

    single = SetAssocLru(num_sets, ways)
    assert single._kernel is not None
    assert [single.access(line) for line in lines] == want

    chunked = SetAssocLru(num_sets, ways)
    bounds = [0, *sorted(min(cut, len(lines)) for cut in cuts), len(lines)]
    for lo, hi in zip(bounds, bounds[1:]):
        hits = sum(want[lo:hi])
        got = chunked.access_many(np.asarray(lines[lo:hi], dtype=np.int64))
        assert got == (hits, hi - lo - hits)


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
def test_native_reports_match_python_lru(native, monkeypatch, kind):
    trace = generate_trace(spec_with_size(kind, 256))
    for arch in (MI300X_LIKE, SMALL):
        want_native = _reports(trace, arch)
        with monkeypatch.context() as m:
            m.setattr(cachesim, "_load_kernel", lambda: None)
            assert _reports(trace, arch) == want_native, f"{kind} on {arch.name}"


def _failing_compiler(tmp_path):
    script = tmp_path / "cc"
    script.write_text("#!/bin/sh\necho cannot compile >&2\nexit 1\n")
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("compiler", [lambda tmp: str(tmp / "missing-cc"), _failing_compiler])
def test_failed_build_falls_back_and_is_not_cached(native, monkeypatch, tmp_path, compiler):
    trace = generate_trace(spec_with_size("softmax", 256))
    pattern = builtin_pattern("layernorm_rowgroup", trace.grid, SMALL)
    want = report_to_json(simulate(trace, pattern, SMALL))

    build_root = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(build_root))
    real_cc = cachesim._CC
    monkeypatch.setattr(cachesim, "_CC", compiler(tmp_path))
    cachesim._load_kernel.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="using the Python LRU"):
            got = report_to_json(simulate(trace, pattern, SMALL))
        assert got == want
        assert [p for p in build_root.rglob("*") if p.is_file()] == []

        # with a working compiler the next attempt builds and loads
        monkeypatch.setattr(cachesim, "_CC", real_cc)
        cachesim._load_kernel.cache_clear()
        assert cachesim._load_kernel() is not None
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
