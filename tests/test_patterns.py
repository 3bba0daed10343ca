import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swizzlesim import patterns
from swizzlesim.patterns import (
    BUILTIN_PATTERN_NAMES,
    ENUMERATION_CAP,
    SHOWN_COLLISIONS,
    SHOWN_OUT_OF_RANGE,
    EnumerationLimitError,
    GridRejectedError,
    GridSpec,
    NonBijectiveError,
    PatternError,
    UnknownPatternError,
    builtin_pattern,
    check_bijectivity,
    pattern_from_dict,
    pattern_from_expr,
    pattern_to_dict,
    remap,
    remap_table,
    validated_remap_table,
)
from swizzlesim.records import to_dict

from conftest import arch_with_xcds, reference_check_images, xcd_table

BITWISE_EXPR = "((pid >> 1) & 1431655765) | ((pid & 1431655765) << 1)"


def grid(total_or_m, n=1):
    return GridSpec.from_block_counts(total_or_m, n)


# --- GridSpec ---------------------------------------------------------------


def test_grid_tiled_ceiling_division():
    g = GridSpec.tiled((100, 70), (64, 64))
    assert (g.num_blocks_m, g.num_blocks_n) == (2, 2)
    assert g.total_blocks == 4


def test_grid_invariant_checked():
    with pytest.raises(ValueError):
        GridSpec(rank=2, num_blocks_m=3, num_blocks_n=2,
                 block_dims=(64, 64), problem_dims=(128, 128))


def test_rank1_grid():
    g = grid(10)
    assert g.rank == 1 and g.num_blocks_n == 1 and g.total_blocks == 10


# --- remap examples ----------------------------------------------------------


def test_gemm_contiguous_remap_examples():
    g, a = grid(16), arch_with_xcds(4)
    pat = builtin_pattern("gemm_contiguous", g, a)
    assert remap(pat, 0, g, a) == 0
    assert remap(pat, 1, g, a) == 4
    assert remap(pat, 5, g, a) == 5
    assert remap(pat, 6, g, a) == 9  # (6%4)*4 + 6//4


def test_identity_remap():
    g, a = grid(12), arch_with_xcds(8)
    pat = builtin_pattern("identity", g, a)
    assert [remap(pat, i, g, a) for i in range(12)] == list(range(12))


def test_bitwise_remap_pair_swap():
    g, a = grid(16), arch_with_xcds(8)
    pat = builtin_pattern("bitwise_lowbit", g, a)
    assert remap(pat, 9, g, a) == 6  # 1001 -> 0110
    # brute-force oracle: swap adjacent bit pairs
    for pid in range(16):
        want = ((pid >> 1) & 0x55555555) | ((pid & 0x55555555) << 1)
        assert remap(pat, pid, g, a) == want


def test_remap_rejects_out_of_grid_pid():
    g, a = grid(8), arch_with_xcds(4)
    pat = builtin_pattern("identity", g, a)
    with pytest.raises(PatternError):
        remap(pat, 8, g, a)


def test_remap_flags_out_of_range_image():
    g, a = grid(10), arch_with_xcds(8)
    pat = pattern_from_expr("bitwise", BITWISE_EXPR)
    with pytest.raises(NonBijectiveError):
        remap(pat, 5, g, a)  # 0101 -> 1010 = 10, outside the grid


# --- builtin_pattern ---------------------------------------------------------


def test_unknown_pattern_name():
    with pytest.raises(UnknownPatternError):
        builtin_pattern("nope", grid(8), arch_with_xcds(4))


def test_bitwise_rejects_non_power_of_four_grids():
    a = arch_with_xcds(8)
    for total in (10, 12, 100, 8, 32):  # incl. odd powers of two
        with pytest.raises(GridRejectedError):
            builtin_pattern("bitwise_lowbit", grid(total), a)
    for total in (1, 4, 16, 64, 256):
        pat = builtin_pattern("bitwise_lowbit", grid(total), a)
        assert check_bijectivity(pat, grid(total), a).bijective


@st.composite
def grids_and_xcds(draw):
    """A rank-1 grid of up to 48 * 48 blocks or a rank-2 grid of up to 48 x 48,
    and an XCD count of 1 to 16."""
    if draw(st.booleans()):
        g = grid(draw(st.integers(1, 48 * 48)))
    else:
        g = grid(draw(st.integers(1, 48)), draw(st.integers(2, 48)))
    return g, arch_with_xcds(draw(st.integers(1, 16)))


@settings(max_examples=200, deadline=None)
@given(case=grids_and_xcds())
def test_builtins_are_bijective_on_random_grids(case):
    g, a = case
    total = g.total_blocks
    power_of_four = total & (total - 1) == 0 and (total.bit_length() - 1) % 2 == 0
    for name in BUILTIN_PATTERN_NAMES:
        if name == "bitwise_lowbit" and not power_of_four:
            with pytest.raises(GridRejectedError):
                builtin_pattern(name, g, a)
            continue
        assert check_bijectivity(builtin_pattern(name, g, a), g, a).bijective, (name, g, a)


def test_bitwise_unchecked_construction_for_diagnosis():
    g, a = grid(10), arch_with_xcds(8)
    pat = builtin_pattern("bitwise_lowbit", g, a, check_grid=False)
    result = check_bijectivity(pat, g, a)
    assert not result.bijective
    assert 5 in result.out_of_range


def test_expert_formula_on_divisible_grid():
    # independently coded ceiling-division oracle
    for X in (2, 4, 8):
        a = arch_with_xcds(X)
        for T in (X, 4 * X, 16 * X, 304):
            if T % X:
                continue
            g = grid(T)
            pat = builtin_pattern("gemm_contiguous", g, a)
            bpx = (T + X - 1) // X
            got = remap_table(pat, g, a)
            pid = np.arange(T)
            assert np.array_equal(got, (pid % X) * bpx + pid // X)


def test_gemm_contiguous_is_rank_permutation_on_awkward_grids():
    # canonical contract: sort launch pids by (pid % X, pid // X)
    for X, T in ((4, 10), (8, 13), (8, 40), (3, 7)):
        a = arch_with_xcds(X)
        g = grid(T)
        got = remap_table(builtin_pattern("gemm_contiguous", g, a), g, a)
        order = sorted(range(T), key=lambda i: (i % X, i // X))
        want = np.empty(T, dtype=np.int64)
        for rank, pid in enumerate(order):
            want[pid] = rank
        assert np.array_equal(got, want)


# --- check_bijectivity -------------------------------------------------------


def test_identity_bijective_everywhere():
    a = arch_with_xcds(8)
    for total in (1, 5, 10, 304, 1000):
        res = check_bijectivity(builtin_pattern("identity", grid(total), a), grid(total), a)
        assert res.bijective and res.coverage_ok
        assert not res.out_of_range and not res.collisions


def test_gemm_contiguous_bijective_16_4():
    g, a = grid(16), arch_with_xcds(4)
    res = check_bijectivity(builtin_pattern("gemm_contiguous", g, a), g, a)
    assert res.bijective


def test_bijectivity_reports_collisions():
    g, a = grid(8), arch_with_xcds(4)
    pat = pattern_from_expr("fold", "pid % 4")
    res = check_bijectivity(pat, g, a)
    assert not res.bijective and not res.coverage_ok
    assert len(res.collisions) == 4
    assert res.collisions[0] == (0, 4, 0)


def test_enumeration_cap_is_explicit():
    # raised before any per-pid array is allocated
    g, a = grid(ENUMERATION_CAP + 1), arch_with_xcds(8)
    with pytest.raises(EnumerationLimitError):
        check_bijectivity(builtin_pattern("identity", g, a), g, a)


def test_validation_result_invariant():
    # bijective iff no out-of-range, no collisions, coverage ok
    a = arch_with_xcds(8)
    for expr in ("pid", "pid % 4", BITWISE_EXPR, "(pid * 3) % 10"):
        res = check_bijectivity(pattern_from_expr("p", expr), grid(10), a)
        assert res.bijective == (
            not res.out_of_range and not res.collisions and res.coverage_ok
        )


@st.composite
def image_mixes(draw):
    """A small grid's images: a permutation with some images overwritten, or
    images drawn from a window that may be narrower or wider than the grid,
    so that out-of-range pids, collisions and missed images come in every mix,
    some past the verdict's prefixes, and none at all."""
    total = draw(st.integers(1, 64))
    if draw(st.booleans()):
        images = draw(st.permutations(range(total)))
        for _ in range(draw(st.integers(0, 4))):
            images[draw(st.integers(0, total - 1))] = draw(st.integers(-3, total + 2))
    else:
        low, high = draw(st.integers(-24, 0)), draw(st.integers(0, total + 24))
        images = draw(st.lists(st.integers(low, high), min_size=total, max_size=total))
    return np.array(images, dtype=np.int64), total


@settings(max_examples=400, deadline=None)
@given(mix=image_mixes())
def test_verdict_counts_and_prefixes_match_the_full_enumeration(mix):
    images, total = mix
    want = reference_check_images(images, total)
    got = patterns._check_images(images, total)
    assert (got.bijective, got.coverage_ok) == (want["bijective"], want["coverage_ok"])
    assert got.out_of_range_count == len(want["out_of_range"])
    assert got.out_of_range == tuple(want["out_of_range"][:SHOWN_OUT_OF_RANGE])
    assert got.collision_count == len(want["collisions"])
    assert got.collisions == tuple(want["collisions"][:SHOWN_COLLISIONS])
    assert all(type(v) is int for v in (got.out_of_range_count, got.collision_count,
                                        *got.out_of_range, *sum(got.collisions, ())))


@pytest.mark.parametrize("expr, out_of_range, collisions", [
    ("pid * 2", 1 << 19, 0),  # half the pids imaged past the grid
    ("pid // 2", 0, 1 << 19),  # every image shared by two pids
])
def test_a_rejected_verdict_on_a_large_grid_holds_little(expr, out_of_range, collisions):
    g, a = grid(1 << 20), arch_with_xcds(8)
    pattern = pattern_from_expr("p", expr)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(NonBijectiveError) as info:
            validated_remap_table(pattern, g, a)
        result = info.value.result
        del info  # its traceback holds the remap table
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (result.out_of_range_count, result.collision_count) == (out_of_range, collisions)
    assert held < 64 << 10
    assert len(json.dumps(to_dict(result))) < 1024  # its history line stays short


# --- XCD of each logical tile ------------------------------------------------


def test_xcd_of_logical_identity():
    g, a = grid(16), arch_with_xcds(8)
    pat = builtin_pattern("identity", g, a)
    assert xcd_table(pat, g, a)[5] == 5


def test_xcd_of_logical_gemm_tiles():
    g, a = grid(16), arch_with_xcds(4)
    pat = builtin_pattern("gemm_contiguous", g, a)
    # first contiguous run of 4 logical tiles on XCD 0 (inverse pids 0,4,8,12)
    assert xcd_table(pat, g, a)[:5].tolist() == [0, 0, 0, 0, 1]


def test_xcd_of_logical_requires_bijection():
    g, a = grid(10), arch_with_xcds(8)
    pat = pattern_from_expr("bitwise", BITWISE_EXPR)
    with pytest.raises(NonBijectiveError):
        xcd_table(pat, g, a)


def test_inverse_table_is_inverse():
    # the tile a launch pid computes runs on that launch pid's XCD
    g, a = grid(40), arch_with_xcds(8)
    pat = builtin_pattern("gemm_contiguous", g, a)
    fwd = remap_table(pat, g, a)
    assert np.array_equal(xcd_table(pat, g, a)[fwd], np.arange(40) % 8)


# --- colocation --------------------------------------------------------------


def xcd_counts(name, g, a):
    return np.bincount(xcd_table(builtin_pattern(name, g, a), g, a), minlength=a.num_xcds)


def test_colocation_identity_balanced():
    g, a = grid(16), arch_with_xcds(4)
    assert xcd_counts("identity", g, a).tolist() == [4, 4, 4, 4]


def test_colocation_gemm_rows():
    # 4x4 tile grid, 4 XCDs: each row of C fully co-located
    g, a = GridSpec.from_block_counts(4, 4), arch_with_xcds(4)
    rows = xcd_table(builtin_pattern("gemm_contiguous", g, a), g, a).reshape(4, 4)
    assert all(len(set(row)) == 1 for row in rows.tolist())
    assert xcd_counts("gemm_contiguous", g, a).sum() == 16


def test_colocation_softmax_rows():
    g, a = GridSpec.from_block_counts(8, 4), arch_with_xcds(8)
    rows = xcd_table(builtin_pattern("softmax_rowgroup", g, a), g, a).reshape(8, 4)
    assert all(len(set(row)) == 1 for row in rows.tolist())


def test_balance_invariant_across_builtins():
    a = arch_with_xcds(8)
    grids = [grid(64), grid(40), GridSpec.from_block_counts(16, 8),
             GridSpec.from_block_counts(9, 5), grid(304)]
    for g in grids:
        for name in BUILTIN_PATTERN_NAMES:
            if name == "bitwise_lowbit":
                continue
            counts = xcd_counts(name, g, a)
            assert counts.max() - counts.min() <= 1
            assert counts.sum() == g.total_blocks


def test_row_residue_grouping_row_to_xcd():
    # rows spread round-robin: row r on XCD r % X
    g, a = GridSpec.from_block_counts(16, 4), arch_with_xcds(8)
    pat = builtin_pattern("fdtd_stripe", g, a)
    xt = xcd_table(pat, g, a).reshape(16, 4)
    for r in range(16):
        assert set(xt[r]) == {r % 8}


def test_transpose_band_partition():
    g, a = GridSpec.from_block_counts(8, 16), arch_with_xcds(8)
    pat = builtin_pattern("transpose_band", g, a)
    xt = xcd_table(pat, g, a).reshape(8, 16)
    band = 16 // 8
    for mm in range(8):
        for nn in range(16):
            assert xt[mm, nn] == nn // band


def test_naive_rowmajor_is_column_major_walk():
    g, a = GridSpec.from_block_counts(3, 4), arch_with_xcds(8)
    t = remap_table(builtin_pattern("naive_rowmajor", g, a), g, a)
    # launch order walks logical tiles column by column
    want = [(l % 3) * 4 + l // 3 for l in range(12)]
    assert t.tolist() == want


def test_pattern_serialization_round_trip():
    g, a = grid(16), arch_with_xcds(4)
    pat = builtin_pattern("gemm_contiguous", g, a)
    clone = pattern_from_dict(pattern_to_dict(pat))
    assert clone.name == pat.name
    assert clone.expr == pat.expr
    assert dict(clone.params) == dict(pat.params)


def test_patterns_with_2d_identifiers():
    # pid_m / pid_n are bound from the row-major linearization
    g, a = GridSpec.from_block_counts(3, 5), arch_with_xcds(4)
    pat = pattern_from_expr("swap_axes", "(pid_n * num_blocks_m) + pid_m")
    res = check_bijectivity(pat, g, a)
    assert res.bijective
    assert remap(pat, 7, g, a) == (7 % 5) * 3 + 7 // 5
