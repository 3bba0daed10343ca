"""Named PID swizzling patterns with bijectivity validation.

A pattern remaps launch pids to logical pids over a launch grid. Under
round-robin dispatch (launch pid ``i`` on XCD ``i % X``), choosing which
logical workgroup each launch slot executes decides which XCD computes each
tile, so a pattern is exactly a statement about which tiles share an L2.

Every pattern here is carried by a single DSL expression over the
linearized block id (2-D grids are linearized row-major:
``pid = pid_m * num_blocks_n + pid_n``). Built-ins are constructed per
(grid, arch) so each can pick a canonical form that stays bijective on
awkward grid shapes.

Closed forms used by the built-ins, with ``X = num_xcds``, ``T = total``:

* balanced contiguous runs: sort launch pids by ``(pid % X, pid // X)``.
  The rank of pid ``i`` is ``(i % X) * (T // X) + min(i % X, T % X) + i // X``,
  a bijection on any ``T`` that reduces to the familiar
  ``(pid % X) * (T // X) + pid // X`` when ``X`` divides ``T``. XCD ``x``
  then owns one contiguous run of logical pids.
* row-residue grouping: XCD ``x`` owns all rows ``r`` with ``r % X == x``.
  Requires ``X | num_blocks_m`` to be a bijection; row-group built-ins fall
  back to balanced contiguous runs otherwise (runs still keep each row's
  chunks together except at run boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .arch import ArchSpec
from . import dsl
from .dsl import SwizzleExpr

ENUMERATION_CAP = 1 << 24
SHOWN_OUT_OF_RANGE, SHOWN_COLLISIONS = 16, 8


class PatternError(ValueError):
    pass


class UnknownPatternError(PatternError):
    pass


class GridRejectedError(PatternError):
    """The built-in cannot form a permutation on this grid (``bitwise_lowbit``
    off a power-of-four block count)."""


class NonBijectiveError(PatternError):
    def __init__(self, message: str, result: "ValidationResult | None" = None):
        super().__init__(message)
        self.result = result


class EnumerationLimitError(PatternError):
    """Grid too large for exhaustive enumeration; never sampled silently."""


@dataclass(frozen=True)
class GridSpec:
    """Launch grid for one kernel instance."""

    rank: int
    num_blocks_m: int
    num_blocks_n: int
    block_dims: tuple[int, ...]
    problem_dims: tuple[int, ...]

    def __post_init__(self):
        if self.rank not in (1, 2):
            raise ValueError(f"rank must be 1 or 2, got {self.rank}")
        if self.num_blocks_m < 1 or self.num_blocks_n < 1:
            raise ValueError("block counts must be positive")
        if self.rank == 1 and self.num_blocks_n != 1:
            raise ValueError("rank-1 grids must have num_blocks_n == 1")
        counts = (self.num_blocks_m, self.num_blocks_n)
        for axis, (problem, block) in enumerate(zip(self.problem_dims, self.block_dims)):
            if problem < 1 or block < 1:
                raise ValueError("problem and block dims must be positive")
            expected = -(-problem // block)
            if axis < 2 and counts[axis] != expected:
                raise ValueError(
                    f"axis {axis}: num_blocks {counts[axis]} != ceil({problem}/{block})"
                )

    @classmethod
    def from_block_counts(cls, num_blocks_m: int, num_blocks_n: int = 1) -> "GridSpec":
        rank = 1 if num_blocks_n == 1 else 2
        return cls(
            rank=rank,
            num_blocks_m=num_blocks_m,
            num_blocks_n=num_blocks_n,
            block_dims=(1, 1),
            problem_dims=(num_blocks_m, num_blocks_n),
        )

    @classmethod
    def tiled(cls, problem_dims: Sequence[int], block_dims: Sequence[int]) -> "GridSpec":
        counts = [-(-p // b) for p, b in zip(problem_dims, block_dims)]
        rank = len(counts)
        if rank == 1:
            counts.append(1)
        return cls(
            rank=rank,
            num_blocks_m=counts[0],
            num_blocks_n=counts[1],
            block_dims=tuple(block_dims),
            problem_dims=tuple(problem_dims),
        )

    @property
    def total_blocks(self) -> int:
        return self.num_blocks_m * self.num_blocks_n


@dataclass(frozen=True)
class SwizzlePattern:
    """A named remap of launch pids, carried by one DSL expression."""

    name: str
    expr: SwizzleExpr
    params: Mapping[str, int | str] = field(default_factory=dict)

    @property
    def expr_text(self) -> str:
        return dsl.format_expr(self.expr)


@dataclass(frozen=True)
class ValidationResult:
    """A verdict whose size does not grow with the grid: the first
    ``SHOWN_OUT_OF_RANGE`` pids imaged off the grid and the first ``SHOWN_COLLISIONS``
    (pid, next pid, shared image) triples, by image, each beside its full count."""

    bijective: bool
    out_of_range: tuple[int, ...]
    collisions: tuple[tuple[int, int, int], ...]
    coverage_ok: bool
    out_of_range_count: int
    collision_count: int

    @classmethod
    def failure(cls) -> "ValidationResult":
        """Verdict for candidates that cannot even be evaluated on the grid."""
        return cls(False, (), (), False, 0, 0)

    @classmethod
    def success(cls) -> "ValidationResult":
        """Verdict for a permutation: nothing out of range, no collisions."""
        return cls(True, (), (), True, 0, 0)


def pattern_from_expr(
    name: str,
    expr_text: str,
    params: Mapping[str, int | str] | None = None,
) -> SwizzlePattern:
    """Build a pattern from expression text (e.g. a proposal)."""
    return SwizzlePattern(name=name, expr=dsl.parse_expr(expr_text), params=dict(params or {}))


def pattern_to_dict(pattern: SwizzlePattern) -> dict:
    return {
        "name": pattern.name,
        "expr": pattern.expr_text,
        "params": dict(pattern.params),
    }


def pattern_from_dict(data: Mapping) -> SwizzlePattern:
    return pattern_from_expr(data["name"], data["expr"], data.get("params"))


# ---------------------------------------------------------------------------
# Built-in pattern constructors
# ---------------------------------------------------------------------------

_LOWBIT_MASK = 0x55555555


def _balanced_contiguous_text(pid: str = "pid") -> str:
    # Rank of (pid % X, pid // X); see module docstring.
    return (
        f"(({pid} % num_xcds) * (num_blocks // num_xcds))"
        f" + min({pid} % num_xcds, num_blocks % num_xcds)"
        f" + ({pid} // num_xcds)"
    )


def _row_residue_text() -> str:
    # XCD x runs rows x, x+X, ...; chunks of one row stay consecutive.
    return (
        "((((pid // num_xcds) // num_blocks_n) * num_xcds + (pid % num_xcds))"
        " * num_blocks_n) + ((pid // num_xcds) % num_blocks_n)"
    )


def _column_major_text(of: str) -> str:
    return f"((({of}) % num_blocks_m) * num_blocks_n) + (({of}) // num_blocks_m)"


def _make_identity(grid: GridSpec, arch: ArchSpec) -> tuple[str, dict]:
    return "pid", {}


def _make_gemm_contiguous(grid: GridSpec, arch: ArchSpec) -> tuple[str, dict]:
    return _balanced_contiguous_text(), {"grouping": "contiguous"}


def _make_row_group(grid: GridSpec, arch: ArchSpec) -> tuple[str, dict]:
    if grid.num_blocks_m % arch.num_xcds == 0:
        return _row_residue_text(), {"grouping": "row_residue"}
    return _balanced_contiguous_text(), {"grouping": "contiguous"}


def _make_transpose_band(grid: GridSpec, arch: ArchSpec) -> tuple[str, dict]:
    # Contiguous column bands walked column by column: launch slots of one
    # XCD see distinct tile rows, and each tile's transposed write region
    # (output row-block = its n) lands in that XCD's band.
    inner = _balanced_contiguous_text()
    return _column_major_text(inner), {"grouping": "column_band"}


def _make_naive_rowmajor(grid: GridSpec, arch: ArchSpec) -> tuple[str, dict]:
    # Hardware-unaware baseline: reorders tiles by grid shape alone
    # (column-major walk), with no XCD term anywhere.
    return _column_major_text("pid"), {"grouping": "column_major"}


def _make_bitwise_lowbit(grid: GridSpec, arch: ArchSpec) -> tuple[str, dict]:
    text = f"((pid >> 1) & {_LOWBIT_MASK}) | ((pid & {_LOWBIT_MASK}) << 1)"
    return text, {"mask": _LOWBIT_MASK}


def _is_power_of_four(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0 and (n.bit_length() - 1) % 2 == 0


_BUILTIN_MAKERS = {
    "identity": _make_identity,
    "gemm_contiguous": _make_gemm_contiguous,
    "layernorm_rowgroup": _make_row_group,
    "softmax_rowgroup": _make_row_group,
    "fdtd_stripe": _make_row_group,
    "stencil_group": _make_row_group,
    "transpose_band": _make_transpose_band,
    "naive_rowmajor": _make_naive_rowmajor,
    "bitwise_lowbit": _make_bitwise_lowbit,
}

BUILTIN_PATTERN_NAMES = tuple(_BUILTIN_MAKERS)


def builtin_pattern(
    name: str, grid: GridSpec, arch: ArchSpec, check_grid: bool = True
) -> SwizzlePattern:
    """Construct a built-in pattern canonicalized for this grid and arch.

    ``bitwise_lowbit`` raises GridRejectedError unless the block count is a
    power of four; pass ``check_grid=False`` to build the raw mapping anyway
    (e.g. to demonstrate its bijectivity failure by enumeration). The
    row-group built-ins pick a bijective form on any grid themselves.
    """
    try:
        maker = _BUILTIN_MAKERS[name]
    except KeyError:
        raise UnknownPatternError(
            f"unknown pattern {name!r}; known: {', '.join(BUILTIN_PATTERN_NAMES)}"
        ) from None
    if check_grid and name == "bitwise_lowbit" and not _is_power_of_four(grid.total_blocks):
        # The adjacent-bit pair swap permutes [0, T) only when T is a power
        # of four (an even number of bits, so every pair is complete).
        raise GridRejectedError(
            f"bitwise_lowbit is not a permutation on {grid.total_blocks} blocks; "
            "it requires a power-of-four block count"
        )
    text, params = maker(grid, arch)
    return SwizzlePattern(name=name, expr=dsl.parse_expr(text), params=params)


# ---------------------------------------------------------------------------
# Evaluation, validation, analysis
# ---------------------------------------------------------------------------


def _env(pid: int | np.ndarray, grid: GridSpec, arch: ArchSpec) -> dict:
    """DSL environment for one launch pid (an int) or many (an int64 array)."""
    return {
        "pid": pid,
        "pid_m": pid // grid.num_blocks_n,
        "pid_n": pid % grid.num_blocks_n,
        "num_xcds": arch.num_xcds,
        "num_blocks": grid.total_blocks,
        "num_blocks_m": grid.num_blocks_m,
        "num_blocks_n": grid.num_blocks_n,
    }


def remap(pattern: SwizzlePattern, launch_pid: int, grid: GridSpec, arch: ArchSpec) -> int:
    """Logical pid executed by a launch slot. Evaluation errors propagate."""
    total = grid.total_blocks
    if not 0 <= launch_pid < total:
        raise PatternError(f"launch pid {launch_pid} outside grid of {total} blocks")
    logical = dsl.eval_expr(pattern.expr, _env(launch_pid, grid, arch))
    if not 0 <= logical < total:
        raise NonBijectiveError(
            f"pattern {pattern.name!r} maps pid {launch_pid} to {logical}, "
            f"outside [0, {total})"
        )
    return logical


def remap_table(pattern: SwizzlePattern, grid: GridSpec, arch: ArchSpec) -> np.ndarray:
    """Image of every launch pid, as an int64 array (unvalidated)."""
    total = grid.total_blocks
    if total > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"grid of {total} blocks exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    pid = np.arange(total, dtype=np.int64)
    return dsl.eval_expr_vec(pattern.expr, _env(pid, grid, arch))


def check_bijectivity(
    pattern: SwizzlePattern, grid: GridSpec, arch: ArchSpec
) -> ValidationResult:
    """Exhaustively check that the induced map permutes [0, total_blocks)."""
    return _check_images(remap_table(pattern, grid, arch), grid.total_blocks)


def _check_images(images: np.ndarray, total: int) -> ValidationResult:
    in_range = (images >= 0) & (images < total)
    out_of_range = np.flatnonzero(~in_range)
    hits = np.bincount(images[in_range], minlength=total)  # pids per image
    covered = int(np.count_nonzero(hits))
    collision_count = len(images) - len(out_of_range) - covered
    collisions = []
    for image in np.flatnonzero(hits > 1)[:SHOWN_COLLISIONS].tolist():
        pids = np.flatnonzero(images == image).tolist()
        collisions += ((a, b, image) for a, b in zip(pids, pids[1:]))
    return ValidationResult(
        bijective=not len(out_of_range) and not collision_count and covered == total,
        out_of_range=tuple(out_of_range[:SHOWN_OUT_OF_RANGE].tolist()),
        collisions=tuple(collisions[:SHOWN_COLLISIONS]),
        coverage_ok=covered == total,
        out_of_range_count=len(out_of_range),
        collision_count=collision_count,
    )


def validated_remap_table(
    pattern: SwizzlePattern, grid: GridSpec, arch: ArchSpec
) -> np.ndarray:
    """``remap_table``, raising ``NonBijectiveError`` unless it is a permutation."""
    table = remap_table(pattern, grid, arch)
    result = _check_images(table, grid.total_blocks)
    if not result.bijective:
        raise NonBijectiveError(
            f"pattern {pattern.name!r} is not bijective on this grid "
            f"({result.out_of_range_count} out of range, "
            f"{result.collision_count} collisions)",
            result=result,
        )
    return table

