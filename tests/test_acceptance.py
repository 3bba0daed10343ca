"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line (run with ``pytest -v -s`` to see them).
The directional thresholds are artifact-level gates on the simulator's
locality signal, not hardware magnitudes.
"""

import json
import socket
import time

import numpy as np
import pytest

from swizzlesim.arch import ArchSpec, MI300X_LIKE
from swizzlesim.cachesim import (
    ExecParams,
    SetAssocLru,
    hit_rate_delta,
    report_from_dict,
    report_to_json,
    simulate,
    simulate_pair,
)
from swizzlesim.client import ClientConfig, CompletionClient, prompt_digest
from swizzlesim.dsl import format_expr, parse_expr
from swizzlesim.kernels import KernelSpec, default_spec, generate_trace, spec_with_size
from swizzlesim.loop import (
    JsonlHistorySink,
    LlmProposer,
    load_history,
    optimize,
)
from swizzlesim.patterns import (
    BUILTIN_PATTERN_NAMES,
    GridRejectedError,
    GridSpec,
    builtin_pattern,
    check_bijectivity,
    pattern_from_expr,
    remap_table,
)
from swizzlesim.promptio import (
    ProposalRecord,
    build_prompt,
    parse_profiler_log,
)
from swizzlesim.traces import locality_summary

from conftest import (
    ReferenceLru,
    arch_with_xcds,
    batched,
    format_proposal,
    random_expr,
    record_batch,
    xcd_table,
)

MODULE_T0 = time.perf_counter()
RUNTIME_BUDGET_SECONDS = 540  # criterion: full suite < 10 min on 8 cores

CONTIGUOUS_EXPR = (
    "((pid % num_xcds) * (num_blocks // num_xcds))"
    " + min(pid % num_xcds, num_blocks % num_xcds) + (pid // num_xcds)"
)
BITWISE_EXPR = "((pid >> 1) & 1431655765) | ((pid & 1431655765) << 1)"


def _is_power_of_four(n):
    return n >= 1 and n & (n - 1) == 0 and (n.bit_length() - 1) % 2 == 0


# -----------------------------------------------------------------------------
# Criterion 1: bijectivity sweep over >= 200 grid configurations, < 1 min
# -----------------------------------------------------------------------------


def sweep_grids():
    grids = []
    for total in range(1, 129):  # dense small sweep incl. non-multiples of 8
        grids.append(GridSpec.from_block_counts(total))
    for total in (200, 256, 304, 999, 1000, 1024, 4095, 4096):
        grids.append(GridSpec.from_block_counts(total))
    for m in (1, 2, 3, 5, 7, 8, 9, 13, 16, 24, 32):
        for n in (2, 3, 4, 5, 7, 8, 16):
            grids.append(GridSpec.from_block_counts(m, n))
    return grids


def test_c01_bijectivity_sweep():
    t0 = time.perf_counter()
    arch = MI300X_LIKE
    grids = sweep_grids()
    assert len(grids) >= 200
    checked = 0
    for grid in grids:
        for name in BUILTIN_PATTERN_NAMES:
            if name == "bitwise_lowbit":
                if _is_power_of_four(grid.total_blocks):
                    pat = builtin_pattern(name, grid, arch)
                    assert check_bijectivity(pat, grid, arch).bijective
                else:
                    # deterministic rejection, twice
                    for _ in range(2):
                        with pytest.raises(GridRejectedError):
                            builtin_pattern(name, grid, arch)
                checked += 1
                continue
            result = check_bijectivity(builtin_pattern(name, grid, arch), grid, arch)
            assert result.bijective, f"{name} not bijective on {grid}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE C1 PASS: {len(grids)} grid configs x {len(BUILTIN_PATTERN_NAMES)} "
        f"patterns ({checked} checks) in {elapsed:.1f}s"
    )


# -----------------------------------------------------------------------------
# Criterion 2: exact expert-formula equivalence on all divisible grids <= 4096
# -----------------------------------------------------------------------------


def test_c02_expert_formula_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for X in (2, 4, 8, 16):
        arch = arch_with_xcds(X)
        for total in range(X, 4097, X):
            grid = GridSpec.from_block_counts(total)
            got = remap_table(builtin_pattern("gemm_contiguous", grid, arch), grid, arch)
            # independently coded oracle: ceiling-division blocks per XCD
            blocks_per_xcd = (total + X - 1) // X
            pid = np.arange(total, dtype=np.int64)
            want = (pid % X) * blocks_per_xcd + pid // X
            assert np.array_equal(got, want), f"mismatch at X={X} T={total}"
            checked += total
    print(
        f"ACCEPTANCE C2 PASS: exact match on {checked} pids across all "
        f"divisible grids up to 4096 blocks (X in 2,4,8,16) "
        f"in {time.perf_counter() - t0:.1f}s"
    )


# -----------------------------------------------------------------------------
# Criterion 3: co-location intents, exact
# -----------------------------------------------------------------------------


def test_c03_colocation_intents():
    arch = MI300X_LIKE
    X = arch.num_xcds
    checks = 0

    # row-group patterns: all chunks of every row on one XCD (rows >= X,
    # rows divisible by X; see decisions ledger for why divisibility is
    # required for a 100% guarantee under round-robin dispatch)
    for name in ("softmax_rowgroup", "layernorm_rowgroup", "stencil_group"):
        for rows in (8, 16, 64, 512):
            for chunks in (2, 4, 8):
                grid = GridSpec.from_block_counts(rows, chunks)
                xt = xcd_table(builtin_pattern(name, grid, arch), grid, arch)
                xt = xt.reshape(rows, chunks)
                for r in range(rows):
                    assert len(set(xt[r].tolist())) == 1, f"{name} row {r} split"
                    assert xt[r, 0] == r % X
                checks += rows

    # fdtd stripe groups: rows with equal residue share one XCD
    for rows, cols in ((16, 16), (32, 8)):
        grid = GridSpec.from_block_counts(rows, cols)
        xt = xcd_table(builtin_pattern("fdtd_stripe", grid, arch), grid, arch)
        xt = xt.reshape(rows, cols)
        for r in range(rows):
            assert set(xt[r].tolist()) == {r % X}
        for g in range(X):
            stripe = [r for r in range(rows) if r % X == g]
            assert len({int(xt[r, 0]) for r in stripe}) == 1
        checks += rows

    # gemm_contiguous: every run of total/X consecutive logical pids on one XCD
    for total in (64, 256, 2048, 4096):
        grid = GridSpec.from_block_counts(total)
        xt = xcd_table(builtin_pattern("gemm_contiguous", grid, arch), grid, arch)
        runs = xt.reshape(X, total // X)
        for x in range(X):
            assert set(runs[x].tolist()) == {x}
        checks += X

    # transpose_band: tile (m,n) sits in the band owning output row-block n
    for m, n in ((64, 64), (16, 32), (8, 8)):
        grid = GridSpec.from_block_counts(m, n)
        xt = xcd_table(builtin_pattern("transpose_band", grid, arch), grid, arch)
        xt = xt.reshape(m, n)
        band = n // X
        for nn in range(n):
            assert set(xt[:, nn].tolist()) == {nn // band}
        checks += n

    # identity reproduces plain round-robin
    grid = GridSpec.from_block_counts(4096)
    xt = xcd_table(builtin_pattern("identity", grid, arch), grid, arch)
    assert np.array_equal(xt, np.arange(4096) % X)
    checks += 1

    print(f"ACCEPTANCE C3 PASS: {checks} co-location groups verified exactly")


# -----------------------------------------------------------------------------
# Criterion 4: directional locality at desk scale, < 5 min
# -----------------------------------------------------------------------------

DIRECTIONAL_CASES = [
    # kernel, pattern, minimum delta (percentage points / 100)
    ("gemm", "gemm_contiguous", 0.05),
    ("transpose", "transpose_band", 0.10),
    ("stencil2d", "stencil_group", 0.10),
    ("softmax", "softmax_rowgroup", 0.10),
]
NO_EFFECT_CASES = [
    ("black_scholes", "gemm_contiguous", 0.02),
    ("fused_elementwise", "gemm_contiguous", 0.02),
]


def test_c04_directional_locality():
    t0 = time.perf_counter()
    arch = MI300X_LIKE
    lines = []
    for kind, pattern_name, min_delta in DIRECTIONAL_CASES:
        trace = generate_trace(default_spec(kind))
        pattern = builtin_pattern(pattern_name, trace.grid, arch)
        baseline, swizzled = simulate_pair(trace, arch, ExecParams(), pattern)
        delta = hit_rate_delta(baseline, swizzled)
        assert delta >= min_delta, (
            f"{kind}: delta {delta:+.4f} below required +{min_delta:.2f}"
        )
        lines.append(f"{kind} {delta * 100:+.1f}pp (>= +{min_delta * 100:.0f})")
    for kind, pattern_name, max_abs in NO_EFFECT_CASES:
        trace = generate_trace(default_spec(kind))
        pattern = builtin_pattern(pattern_name, trace.grid, arch)
        baseline, swizzled = simulate_pair(trace, arch, ExecParams(), pattern)
        delta = hit_rate_delta(baseline, swizzled)
        assert abs(delta) <= max_abs, f"{kind}: |delta| {abs(delta):.4f} > {max_abs}"
        lines.append(f"{kind} {delta * 100:+.1f}pp (|d| <= {max_abs * 100:.0f})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE C4 PASS: {'; '.join(lines)} in {elapsed:.0f}s")


# -----------------------------------------------------------------------------
# Criterion 5: conservation oracle, exact equality
# -----------------------------------------------------------------------------


def test_c05_conservation_oracle():
    # one XCD, capacity far above total footprint
    arch = ArchSpec(
        name="one-xcd-huge", num_xcds=1, cus_per_xcd=8,
        l2_bytes_per_xcd=1 << 27, l2_line_bytes=128, l2_associativity=16,
    )
    rng = np.random.default_rng(12345)
    results = []
    for spec in (
        KernelSpec("gemm", {"m": 256, "n": 128, "k": 128}, {"m": 64, "n": 64, "k": 64}),
        KernelSpec("transpose", {"m": 256, "n": 256}, {"m": 64, "n": 64}),
    ):
        trace = generate_trace(spec)
        total = trace.grid.total_blocks
        a = int(rng.choice([v for v in range(3, total) if np.gcd(v, total) == 1]))
        b = int(rng.integers(0, total))
        patterns = [
            builtin_pattern("identity", trace.grid, arch),
            builtin_pattern("gemm_contiguous", trace.grid, arch),
            pattern_from_expr("random_affine", f"((pid * {a}) + {b}) % {total}"),
        ]
        misses = []
        for pattern in patterns:
            rep = simulate(trace, pattern, arch)
            assert rep.misses == rep.unique_lines_touched, (
                f"{spec.kind}/{pattern.name}: misses != unique lines"
            )
            misses.append(rep.misses)
        assert len(set(misses)) == 1, f"{spec.kind}: misses differ across bijections"
        results.append(f"{spec.kind} misses={misses[0]}")
    print(f"ACCEPTANCE C5 PASS: {'; '.join(results)} invariant under bijections")


# -----------------------------------------------------------------------------
# Criterion 6: LRU vs brute-force reference, exact, >= 100 seeds
# -----------------------------------------------------------------------------


def test_c06_lru_matches_brute_force():
    t0 = time.perf_counter()
    num_sets, ways = 64, 4
    arch = ArchSpec(
        name="lru-test", num_xcds=1, cus_per_xcd=1,
        l2_bytes_per_xcd=num_sets * ways * 128, l2_line_bytes=128,
        l2_associativity=ways,
    )
    seeds = 100
    total_accesses = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1000, 10001))
        # mix a hot region with a long tail so hits and evictions both occur
        hot = rng.integers(0, num_sets * ways, size=n)
        cold = rng.integers(0, 8 * num_sets * ways, size=n)
        lines = np.where(rng.random(n) < 0.5, hot, cold).tolist()

        ours = SetAssocLru(num_sets, ways)
        ref = ReferenceLru(num_sets, ways)
        got_seq = [ours.access(l) for l in lines]
        want_seq = [ref.access(l) for l in lines]
        assert got_seq == want_seq, f"sequence diverged at seed {seed}"

        # end to end through the simulator as one workgroup stream
        from swizzlesim.traces import AccessTrace, make_buffers
        buffers = make_buffers([("b", 8 * num_sets * ways * 128)])
        arr = np.asarray(lines, dtype=np.int64) * 128

        def stream_fn(wave, pid, offs=arr):
            k = len(offs)
            return record_batch(np.zeros(k, np.int32), offs, np.full(k, 4), np.zeros(k, bool))

        trace = AccessTrace("rand", GridSpec.from_block_counts(1), buffers, batched(stream_fn))
        rep = simulate(trace, builtin_pattern("identity", trace.grid, arch), arch)
        assert rep.hits == sum(want_seq)
        assert rep.misses == len(lines) - sum(want_seq)
        total_accesses += n
    print(
        f"ACCEPTANCE C6 PASS: exact hit/miss sequences on {seeds} seeds "
        f"({total_accesses} accesses) in {time.perf_counter() - t0:.1f}s"
    )


# -----------------------------------------------------------------------------
# Criterion 7: loop semantics with a replay fixture, exact
# -----------------------------------------------------------------------------

LOOP_GEMM = KernelSpec("gemm", {"m": 1280, "n": 256, "k": 256},
                       {"m": 64, "n": 64, "k": 64})


def _proposal(expr):
    return format_proposal(ProposalRecord(
        reasoning="reviewing sharing structure",
        per_iteration_critiques={1: "prior attempt left sharers split"},
        new_approach="candidate remap",
        improvement_rationale="co-locates sharers",
        final_expression=expr,
    ))


class _LoggingClient:
    def __init__(self, responses):
        self.responses = list(responses)
        self.log = []

    def complete(self, prompt):
        from swizzlesim.client import ReplayExhaustedError

        if not self.responses:
            raise ReplayExhaustedError("scripted responses exhausted")
        response = self.responses.pop(0)
        self.log.append((prompt, response))
        return response


def test_c07_loop_semantics_with_replay_fixture(tmp_path):
    responses = [
        _proposal("pid"),  # duplicate of the identity baseline
        _proposal(BITWISE_EXPR),  # non-bijective on the 20x4 grid (80 blocks)
        _proposal(CONTIGUOUS_EXPR),  # the contiguous-grouping formula
    ]
    scripted = _LoggingClient(list(responses))
    hist_a = tmp_path / "scripted.jsonl"
    with JsonlHistorySink(hist_a) as sink:
        result_a = optimize(LOOP_GEMM, MI300X_LIKE, LlmProposer(scripted),
                            max_iters=3, history_sink=sink)

    entries = load_history(hist_a)
    assert len(entries) == 4  # baseline + 3 attempts
    assert entries[0].pattern["name"] == "identity"

    # duplicate entry carries the cached baseline report, not a re-simulation
    assert entries[1].pattern["expr"] == "pid"
    assert entries[1].report == entries[0].report
    assert "duplicate" in entries[1].diff_summary

    # the broken bitwise remap is recorded with a verdict and no report
    assert entries[2].report is None
    assert not entries[2].validation.bijective
    assert len(entries[2].validation.out_of_range) > 0

    # best is the contiguous-grouping candidate
    best = result_a.best
    assert best.iteration == 3
    assert best.pattern["expr"] == format_expr(parse_expr(CONTIGUOUS_EXPR))
    assert best.report.l2_hit_rate > entries[0].report.l2_hit_rate

    # best-so-far is monotone
    best_seq = [b for _, b in result_a.progression]
    assert best_seq == sorted(best_seq)

    # replay the recorded fixture: byte-identical loop outcome, offline
    fixture = tmp_path / "fixture.jsonl"
    with open(fixture, "w") as fh:
        for prompt, response in scripted.log:
            fh.write(json.dumps({"prompt_digest": prompt_digest(prompt),
                                 "response": response}) + "\n")
    replay_client = CompletionClient(ClientConfig.replay(str(fixture)))
    hist_b = tmp_path / "replay.jsonl"
    with JsonlHistorySink(hist_b) as sink:
        result_b = optimize(LOOP_GEMM, MI300X_LIKE, LlmProposer(replay_client),
                            max_iters=3, history_sink=sink)
    assert result_b.progression == result_a.progression
    assert result_b.best.pattern == result_a.best.pattern
    assert hist_b.read_text() == hist_a.read_text()

    print(
        "ACCEPTANCE C7 PASS: history=4 entries, duplicate cached, invalid "
        f"unranked, best=contiguous at {best.report.l2_hit_rate:.4f} "
        f"(baseline {entries[0].report.l2_hit_rate:.4f}), replay identical"
    )


# -----------------------------------------------------------------------------
# Criterion 8: stencil size-ablation direction, 1-point tolerance
# -----------------------------------------------------------------------------


def test_c08_size_ablation_direction():
    t0 = time.perf_counter()
    arch = MI300X_LIKE
    sizes = (512, 1024, 2048, 4096)
    deltas = []
    for size in sizes:
        trace = generate_trace(spec_with_size("stencil2d", size))
        pattern = builtin_pattern("stencil_group", trace.grid, arch)
        baseline, swizzled = simulate_pair(trace, arch, ExecParams(), pattern)
        deltas.append(hit_rate_delta(baseline, swizzled))
    for earlier, later in zip(deltas, deltas[1:]):
        assert later >= earlier - 0.01, f"delta shrank: {deltas}"
    rendered = ", ".join(f"{size}:{d * 100:+.1f}pp" for size, d in zip(sizes, deltas))
    print(
        f"ACCEPTANCE C8 PASS: stencil2d deltas non-decreasing [{rendered}] "
        f"in {time.perf_counter() - t0:.0f}s"
    )


# -----------------------------------------------------------------------------
# Criterion 9: round-trips, exact
# -----------------------------------------------------------------------------


def test_c09_round_trips():
    # prompt determinism
    trace = generate_trace(KernelSpec("softmax", {"rows": 16, "cols": 2048},
                                      {"cols": 1024}))
    locality = locality_summary(trace)
    prompts = {build_prompt("softmax", locality, [], MI300X_LIKE).render()
               for _ in range(3)}
    assert len(prompts) == 1

    # profiler report serialize/parse on randomized instances
    rng = np.random.default_rng(777)
    for _ in range(100):
        num_xcds = int(rng.integers(1, 9))
        per = []
        for _ in range(num_xcds):
            acc = int(rng.integers(0, 10_000))
            hits = int(rng.integers(0, acc + 1))
            per.append({"accesses": acc, "hits": hits, "misses": acc - hits,
                        "hit_rate": hits / acc if acc else 0.0})
        accesses = sum(p["accesses"] for p in per)
        hits = sum(p["hits"] for p in per)
        doc = {
            "kernel": "rand", "pattern": "p", "num_xcds": num_xcds,
            "accesses": accesses, "hits": hits, "misses": accesses - hits,
            "l2_hit_rate": hits / accesses if accesses else 0.0,
            "per_xcd": per,
            "unique_lines_touched": int(rng.integers(0, 100000)),
        }
        report = report_from_dict(doc)
        assert parse_profiler_log(report_to_json(report)) == report

    # DSL format/parse on random trees
    rng = np.random.default_rng(778)
    for _ in range(300):
        tree = random_expr(rng)
        assert parse_expr(format_expr(tree)) == tree

    print("ACCEPTANCE C9 PASS: prompt deterministic; 100 report and 300 "
          "expression round-trips exact")


# -----------------------------------------------------------------------------
# Criterion 10: offline replay + runtime budget
# -----------------------------------------------------------------------------


def test_c10_offline_replay_and_runtime(tmp_path, monkeypatch):
    # zero network access in replay mode: sockets are poisoned for the whole
    # optimize run
    spec = KernelSpec("fused_elementwise", {"n": 1 << 14}, {"n": 1024})

    scripted = _LoggingClient([_proposal("pid % num_blocks")])
    result_a = optimize(spec, MI300X_LIKE, LlmProposer(scripted), max_iters=1)

    fixture = tmp_path / "fixture.jsonl"
    with open(fixture, "w") as fh:
        for prompt, response in scripted.log:
            fh.write(json.dumps({"prompt_digest": prompt_digest(prompt),
                                 "response": response}) + "\n")

    def explode(*args, **kwargs):
        raise AssertionError("network use during replay-mode optimization")

    monkeypatch.setattr(socket, "socket", explode)
    monkeypatch.setattr(socket, "create_connection", explode)
    replay_client = CompletionClient(ClientConfig.replay(str(fixture)))
    result_b = optimize(spec, MI300X_LIKE, LlmProposer(replay_client), max_iters=1)
    assert result_b.progression == result_a.progression

    elapsed = time.perf_counter() - MODULE_T0
    assert elapsed < RUNTIME_BUDGET_SECONDS, (
        f"acceptance module took {elapsed:.0f}s, budget {RUNTIME_BUDGET_SECONDS}s"
    )
    print(
        f"ACCEPTANCE C10 PASS: replay performed zero network operations; "
        f"acceptance module elapsed {elapsed:.0f}s < {RUNTIME_BUDGET_SECONDS}s"
    )
