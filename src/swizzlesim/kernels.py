"""Deterministic access-trace generators for the benchmark kernels.

All generators are pure functions of the kernel spec: no RNG anywhere, so
traces are byte-identical across runs. Arrays are row-major. Streams model
the memory behavior of straightforward tiled kernels:

* gemm: tile (m,n) streams the K-panel of its A row-block and B col-block,
  then writes its C tile. Tiles in one output row reread the same A rows;
  tiles in one column reread the same B columns.
* transpose: unstaged kernel; tile rows are read coalesced, and the
  transposed store scatters one element per output row, so each output
  line is revisited once per element it holds.
* softmax: one workgroup per row chunk; the reduction pass reads its whole
  row (every chunk workgroup of a row streams the same bytes), then after
  a wave barrier the second pass rereads its own chunk and writes it.
* layernorm: like softmax without the barrier, plus shared weight/bias
  chunk reads.
* spmv_naive: banded CSR, fixed half-width, derived from dims only.
* black_scholes / fused_elementwise: disjoint streaming, no reuse; one
  generator, differing only in the input and output buffers.
* fdtd2d: per timestep (wave), read one field's tile plus its halo, write
  the other field; fields swap roles each step.
* smith_waterman: block wavefront over the DP matrix; one wave per
  anti-diagonal reading left/top/diagonal halos.
* stencil2d: 5-point update reading the center tile plus one-line halos
  (neighbor rows) and one-column halos (neighbor columns); the same tile
  stream as fdtd2d, in one wave.

A generator returns a trace whose batch function builds the segments of an
array of workgroups at once (see ``traces``). Each stream is a few
segments, each a run of records of one buffer at a fixed stride whose
start, length and count depend on the workgroup's tile; ``_segments`` lays
them out for every pid of a batch with a handful of numpy calls and never
expands them into records. A transpose tile is one group, its row read and
column scatter, repeated per tile row; every other stream is one group.
spmv's x gather is no arithmetic sequence, so it is one single-run segment
per row.

Each kind is one entry of the registry ``_KINDS`` at the bottom of this
module: its generator, default dims, launch-grid axes, the dims that
``spec_with_size`` sets and the builtin that ``swizzlesim simulate`` uses
when given no pattern. ``KERNEL_KINDS``, ``DEFAULT_SPECS`` and every
function here read the registry, so adding a kernel means one registry
entry plus its generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .patterns import GridSpec
from .traces import AccessTrace, Batch, make_buffers


class KernelSpecError(ValueError):
    pass


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    problem_dims: Mapping[str, int]
    block_dims: Mapping[str, int]
    dtype_bytes: int = 4

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise KernelSpecError(f"unknown kernel kind {self.kind!r}")
        if self.dtype_bytes < 1:
            raise KernelSpecError("dtype_bytes must be positive")
        for label, dims in (("problem", self.problem_dims), ("block", self.block_dims)):
            for name, value in dims.items():
                if value < 1:
                    raise KernelSpecError(
                        f"{label} dimension {name} must be positive, got {value}"
                    )
        object.__setattr__(self, "problem_dims", dict(self.problem_dims))
        object.__setattr__(self, "block_dims", dict(self.block_dims))

    def dim(self, name: str) -> int:
        return self.problem_dims[name]

    def block(self, name: str) -> int:
        return self.block_dims[name]


def default_spec(kind: str) -> KernelSpec:
    try:
        return DEFAULT_SPECS[kind]
    except KeyError:
        raise KernelSpecError(f"unknown kernel kind {kind!r}") from None


def default_pattern(kind: str) -> str:
    """The builtin ``swizzlesim simulate`` and ``sweep`` use when given no pattern."""
    return _KINDS[kind].pattern


def spec_with_size(kind: str, size: int) -> KernelSpec:
    """Default spec rescaled to one problem size (square for 2-D kernels)."""
    base = default_spec(kind)
    dims = dict(base.problem_dims)
    dims.update(dict.fromkeys(_KINDS[kind].sized, size))
    return KernelSpec(kind, dims, base.block_dims, base.dtype_bytes)


def launch_grid(spec: KernelSpec) -> GridSpec:
    """Ceiling-division tile counts per axis for one dispatch."""
    axes = _KINDS[spec.kind].axes
    return GridSpec.tiled(
        tuple(spec.dim(problem) for problem, _ in axes),
        tuple(block if block == 1 else spec.block(block) for _, block in axes),
    )


def generate_trace(spec: KernelSpec) -> AccessTrace:
    return _KINDS[spec.kind].generate(spec, launch_grid(spec))


# ---------------------------------------------------------------------------
# Generators: (spec, launch grid) -> trace, whose batch function maps
# (wave, logical pids) to their streams
# ---------------------------------------------------------------------------


def _segments(shape: tuple[int, ...], *segments, gstrides=None, groups=None) -> Batch:
    """The batch of the segments laid out by ``segments``, the empty ones dropped.

    A segment is (buf, start, stride, length, count, write): ``count`` records
    of ``length`` bytes of buffer ``buf`` at ``start + j * stride`` for j = 0,
    1, .... buf, stride and write are scalars; start, length and count are
    scalars or arrays that broadcast to ``shape``: (pids,), or (pids, k) for
    a kernel that lays its segments out k times with other starts, lengths or
    counts (gemm's K blocks, spmv's rows), a pid's segments by k, then by
    segment. ``gstrides``, one per segment, and ``groups``, one per pid, make
    each pid's segments a group that repeats (see ``traces.Batch``); by
    default each pid is one group.
    """
    table = np.empty((6, *shape, len(segments)), dtype=np.int64)
    for f, field in enumerate(zip(*segments)):
        if f in (1, 3, 4):  # start, length and count
            for s, value in enumerate(field):
                table[f, ..., s] = value
        else:
            table[f] = field
    runs = table[4] > 0
    per_pid = runs.sum(axis=tuple(range(1, runs.ndim)))
    buf, start, stride, length, count, write = (field[runs] for field in table)  # owned columns
    if gstrides is not None:
        gstrides = np.broadcast_to(np.asarray(gstrides, dtype=np.int64), runs.shape)[runs]
    return Batch(buf.astype(np.int32), start, length, write.astype(bool), stride, count,
                 np.concatenate(([0], per_pid.cumsum())), gstrides, groups)


def _tile_bounds(pids: np.ndarray, grid: GridSpec, bm: int, bn: int, m: int, n: int):
    tm, tn = np.divmod(pids, grid.num_blocks_n)
    r0 = tm * bm
    c0 = tn * bn
    return r0, np.minimum(r0 + bm, m), c0, np.minimum(c0 + bn, n)


def _gen_gemm(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
    m, n, k = spec.dim("m"), spec.dim("n"), spec.dim("k")
    bm, bn, bk = spec.block("m"), spec.block("n"), spec.block("k")
    es = spec.dtype_bytes
    buffers = make_buffers([("a", m * k * es), ("b", k * n * es), ("c", m * n * es)])
    k0 = np.arange(0, k, bk)  # one group per K block
    depth = np.minimum(k0 + bk, k) - k0

    def batch(wave: int, pids: np.ndarray) -> Batch:
        r0, r1, c0, c1 = (v[:, None] for v in _tile_bounds(pids, grid, bm, bn, m, n))
        return _segments(
            (len(pids), len(k0)),
            (0, (r0 * k + k0) * es, k * es, depth * es, r1 - r0, False),
            (1, (k0 * n + c0) * es, n * es, (c1 - c0) * es, depth, False),
            # the C tile's write, after the last K block
            (2, (r0 * n + c0) * es, n * es, (c1 - c0) * es, (r1 - r0) * (k0 == k0[-1]), True),
        )

    return AccessTrace("gemm", grid, buffers, batch)


def _streaming(inputs: tuple[str, ...], outputs: tuple[str, ...]):
    """Generator of an elementwise kernel: each workgroup reads its chunk of
    every input buffer, then writes its chunk of every output buffer."""

    def generate(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
        n, bn, es = spec.dim("n"), spec.block("n"), spec.dtype_bytes
        buffers = make_buffers([(name, n * es) for name in inputs + outputs])

        def batch(wave: int, pids: np.ndarray) -> Batch:
            e0 = pids * bn
            length = (np.minimum(e0 + bn, n) - e0) * es
            return _segments(pids.shape, *((buf, e0 * es, 0, length, 1, buf >= len(inputs))
                               for buf in range(len(buffers))))

        return AccessTrace(spec.kind, grid, buffers, batch)

    return generate


def _gen_softmax(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
    rows, cols = spec.dim("rows"), spec.dim("cols")
    chunk, es = spec.block("cols"), spec.dtype_bytes
    buffers = make_buffers([("x", rows * cols * es), ("out", rows * cols * es)])
    nchunks = grid.num_blocks_n

    def batch(wave: int, pids: np.ndarray) -> Batch:
        r, c = np.divmod(pids, nchunks)
        if wave == 0:
            # reduction pass: every chunk workgroup scans its whole row
            return _segments(pids.shape, (0, r * cols * es, 0, cols * es, 1, False))
        c0 = c * chunk
        start, length = (r * cols + c0) * es, (np.minimum(c0 + chunk, cols) - c0) * es
        return _segments(pids.shape, (0, start, 0, length, 1, False),
                         (1, start, 0, length, 1, True))

    total = grid.total_blocks
    waves = [np.arange(total), np.arange(total)]
    return AccessTrace("softmax", grid, buffers, batch, wave_pids=waves)


def _gen_layernorm(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
    rows, cols = spec.dim("rows"), spec.dim("cols")
    chunk, es = spec.block("cols"), spec.dtype_bytes
    buffers = make_buffers(
        [("x", rows * cols * es), ("weight", cols * es), ("bias", cols * es), ("out", rows * cols * es)]
    )
    nchunks = grid.num_blocks_n

    def batch(wave: int, pids: np.ndarray) -> Batch:
        r, c = np.divmod(pids, nchunks)
        c0 = c * chunk
        length = (np.minimum(c0 + chunk, cols) - c0) * es
        return _segments(
            pids.shape,
            (0, r * cols * es, 0, cols * es, 1, False),  # mean/variance scan
            (0, (r * cols + c0) * es, 0, length, 1, False),
            (1, c0 * es, 0, length, 1, False),
            (2, c0 * es, 0, length, 1, False),
            (3, (r * cols + c0) * es, 0, length, 1, True),
        )

    return AccessTrace("layernorm", grid, buffers, batch)


def _gen_spmv(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
    rows = spec.dim("rows")
    hw = spec.dim("half_width")
    br, es = spec.block("rows"), spec.dtype_bytes
    idx_bytes = 4

    r = np.arange(rows, dtype=np.int64)
    lo = np.maximum(r - hw, 0)
    hi = np.minimum(r + hw, rows - 1)
    nnz_per_row = hi - lo + 1
    row_ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(nnz_per_row, out=row_ptr[1:])
    nnz = int(row_ptr[-1])

    buffers = make_buffers(
        [
            ("row_ptr", (rows + 1) * idx_bytes),
            ("col_idx", nnz * idx_bytes),
            ("values", nnz * es),
            ("x", rows * es),
            ("y", rows * es),
        ]
    )

    def batch(wave: int, pids: np.ndarray) -> Batch:
        g0 = pids[:, None] * br
        g1 = np.minimum(g0 + br, rows)
        p0, p1 = row_ptr[g0], row_ptr[g1]
        # One group per row of the block: the first reads the block's CSR
        # arrays, each gathers its row's x band [r-hw, r+hw], and the last
        # writes the block's y.
        row = g0 + np.arange(br)
        first, on, last = row == g0, row < g1, row == g1 - 1
        band = np.minimum(row, rows - 1)
        return _segments(
            row.shape,
            (0, g0 * idx_bytes, 0, (g1 - g0 + 1) * idx_bytes, first, False),
            (1, p0 * idx_bytes, 0, (p1 - p0) * idx_bytes, first, False),
            (2, p0 * es, 0, (p1 - p0) * es, first, False),
            (3, lo[band] * es, 0, nnz_per_row[band] * es, on, False),
            (4, g0 * es, 0, (g1 - g0) * es, last, True),
        )

    return AccessTrace("spmv_naive", grid, buffers, batch)


def _gen_transpose(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
    m, n = spec.dim("m"), spec.dim("n")
    bm, bn, es = spec.block("m"), spec.block("n"), spec.dtype_bytes
    buffers = make_buffers([("in", m * n * es), ("out", n * m * es)])

    def batch(wave: int, pids: np.ndarray) -> Batch:
        r0, r1, c0, c1 = _tile_bounds(pids, grid, bm, bn, m, n)
        # One group per tile row: one coalesced read of the input row followed
        # by the column-scatter of its transposed elements.
        return _segments(pids.shape, (0, (r0 * n + c0) * es, 0, (c1 - c0) * es, 1, False),
                         (1, (c0 * m + r0) * es, m * es, es, c1 - c0, True),
                         gstrides=(n * es, es), groups=r1 - r0)

    return AccessTrace("transpose", grid, buffers, batch)


def _tile_batch(src, dst, r0, r1, c0, c1, m, n, es) -> Batch:
    """A 5-point update of each tile: the ``src`` tile, its one-line row halos
    and per-element column halos, then the ``dst`` tile's write."""
    row_bytes, nrows = (c1 - c0) * es, r1 - r0
    corner = (r0 * n + c0) * es  # the tile's first byte
    return _segments(
        r0.shape,
        (src, corner, n * es, row_bytes, nrows, False),
        (src, corner - n * es, 0, row_bytes, r0 > 0, False),
        (src, corner + nrows * (n * es), 0, row_bytes, r1 < m, False),
        (src, corner - es, n * es, es, nrows * (c0 > 0), False),
        (src, corner + row_bytes, n * es, es, nrows * (c1 < n), False),
        (dst, corner, n * es, row_bytes, nrows, True),
    )


def _gen_stencil2d(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
    m, n = spec.dim("m"), spec.dim("n")
    bm, bn, es = spec.block("m"), spec.block("n"), spec.dtype_bytes
    buffers = make_buffers([("in", m * n * es), ("out", m * n * es)])

    def batch(wave: int, pids: np.ndarray) -> Batch:
        return _tile_batch(0, 1, *_tile_bounds(pids, grid, bm, bn, m, n), m, n, es)

    return AccessTrace("stencil2d", grid, buffers, batch)


def _gen_fdtd2d(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
    ny, nx = spec.dim("ny"), spec.dim("nx")
    by, bx, es = spec.block("y"), spec.block("x"), spec.dtype_bytes
    buffers = make_buffers([("e", ny * nx * es), ("h", ny * nx * es)])

    def batch(wave: int, pids: np.ndarray) -> Batch:
        src, dst = (1, 0) if wave % 2 == 0 else (0, 1)
        return _tile_batch(src, dst, *_tile_bounds(pids, grid, by, bx, ny, nx), ny, nx, es)

    waves = [np.arange(grid.total_blocks) for _ in range(spec.dim("steps"))]
    return AccessTrace("fdtd2d", grid, buffers, batch, wave_pids=waves)


def _gen_smith_waterman(spec: KernelSpec, grid: GridSpec) -> AccessTrace:
    m, n = spec.dim("m"), spec.dim("n")
    bm, bn, es = spec.block("m"), spec.block("n"), spec.dtype_bytes
    buffers = make_buffers([("seq_a", m * es), ("seq_b", n * es), ("dp", m * n * es)])
    nbn = grid.num_blocks_n

    def batch(wave: int, pids: np.ndarray) -> Batch:
        r0, r1, c0, c1 = _tile_bounds(pids, grid, bm, bn, m, n)
        top, left = r0 > 0, c0 > 0
        return _segments(
            pids.shape,
            (0, r0 * es, 0, (r1 - r0) * es, 1, False),
            (1, c0 * es, 0, (c1 - c0) * es, 1, False),
            (2, ((r0 - 1) * n + c0) * es, 0, (c1 - c0) * es, top, False),
            (2, (r0 * n + c0 - 1) * es, n * es, es, (r1 - r0) * left, False),
            (2, ((r0 - 1) * n + c0 - 1) * es, 0, es, top & left, False),
            (2, (r0 * n + c0) * es, n * es, (c1 - c0) * es, r1 - r0, True),
        )

    diag = np.arange(grid.total_blocks) // nbn + np.arange(grid.total_blocks) % nbn
    waves = [
        np.nonzero(diag == d)[0].astype(np.int64)
        for d in range(grid.num_blocks_m + nbn - 1)
    ]
    return AccessTrace("smith_waterman", grid, buffers, batch, wave_pids=waves)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    generate: Callable[[KernelSpec, GridSpec], AccessTrace]
    problem: dict[str, int]  # default problem dims
    block: dict[str, int]  # default block dims
    axes: tuple[tuple[str, str | int], ...]  # launch-grid axes: (problem dim, block dim or 1)
    sized: tuple[str, ...]  # the problem dims spec_with_size sets
    pattern: str  # the builtin simulate uses when given no pattern


_MN = (("m", "m"), ("n", "n"))

# Desk-scale defaults: hardware-scale problem sizes are not meaningful for
# a trace simulator, so sizes are chosen to finish in seconds while keeping
# each kernel's reuse structure intact. The gemm default is rectangular
# (more row-tiles than column-tiles): on a square grid whose column count
# is a multiple of num_xcds, round-robin dispatch already groups whole
# columns per XCD and contiguous row grouping merely mirrors it, so the two
# schedules hit identically and no swizzle can show an effect.
_KINDS: dict[str, _Kind] = {
    "gemm": _Kind(_gen_gemm, {"m": 2048, "n": 512, "k": 1024}, {"m": 64, "n": 64, "k": 64},
                  _MN, ("m", "n", "k"), "gemm_contiguous"),
    "fused_elementwise": _Kind(_streaming(("a", "b"), ("out",)), {"n": 1 << 22}, {"n": 4096},
                               (("n", "n"),), ("n",), "gemm_contiguous"),
    "layernorm": _Kind(_gen_layernorm, {"rows": 512, "cols": 8192}, {"cols": 1024},
                       (("rows", 1), ("cols", "cols")), ("rows",), "layernorm_rowgroup"),
    "softmax": _Kind(_gen_softmax, {"rows": 4096, "cols": 4096}, {"cols": 1024},
                     (("rows", 1), ("cols", "cols")), ("rows",), "softmax_rowgroup"),
    "spmv_naive": _Kind(_gen_spmv, {"rows": 65536, "half_width": 16}, {"rows": 256},
                        (("rows", "rows"),), ("rows",), "gemm_contiguous"),
    "transpose": _Kind(_gen_transpose, {"m": 4096, "n": 4096}, {"m": 64, "n": 64},
                       _MN, ("m", "n"), "transpose_band"),
    "black_scholes": _Kind(_streaming(("spot", "strike", "tte"), ("call", "put")),
                           {"n": 1 << 22}, {"n": 4096}, (("n", "n"),), ("n",), "gemm_contiguous"),
    "fdtd2d": _Kind(_gen_fdtd2d, {"ny": 1024, "nx": 1024, "steps": 2}, {"y": 64, "x": 64},
                    (("ny", "y"), ("nx", "x")), ("ny", "nx"), "fdtd_stripe"),
    "smith_waterman": _Kind(_gen_smith_waterman, {"m": 2048, "n": 2048}, {"m": 128, "n": 128},
                            _MN, ("m", "n"), "gemm_contiguous"),
    "stencil2d": _Kind(_gen_stencil2d, {"m": 2048, "n": 2048}, {"m": 64, "n": 64},
                       _MN, ("m", "n"), "stencil_group"),
}

KERNEL_KINDS = tuple(_KINDS)
DEFAULT_SPECS: dict[str, KernelSpec] = {
    kind: KernelSpec(kind, entry.problem, entry.block) for kind, entry in _KINDS.items()
}
