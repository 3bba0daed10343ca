import ctypes
import hashlib
import json
from collections import Counter

import pytest

from swizzlesim import cachesim, dsl, loop, patterns, traces
from swizzlesim.arch import MI300X_LIKE
from swizzlesim.cachesim import ExecParams, report_from_dict, simulate_pair
from swizzlesim.client import (
    ClientConfig,
    CompletionClient,
    ReplayExhaustedError,
    write_fixture_entry,
)
from swizzlesim.kernels import KernelSpec, generate_trace, spec_with_size
from swizzlesim.loop import (
    HistoryEntry,
    JsonlHistorySink,
    LlmProposer,
    LoopError,
    NoMoreCandidates,
    Proposal,
    ProposerError,
    SearchProposer,
    entry_from_dict,
    entry_to_dict,
    load_history,
    optimize,
    rank_history,
    write_progression_csv,
)
from swizzlesim.patterns import ValidationResult, builtin_pattern, pattern_from_expr
from swizzlesim.promptio import ProposalRecord

from conftest import arch_with_xcds, format_proposal

SMALL_GEMM = KernelSpec("gemm", {"m": 1280, "n": 256, "k": 256},
                        {"m": 64, "n": 64, "k": 64})

CONTIGUOUS_EXPR = (
    "((pid % num_xcds) * (num_blocks // num_xcds))"
    " + min(pid % num_xcds, num_blocks % num_xcds) + (pid // num_xcds)"
)


def fake_report(pattern, rate, unique=100):
    hits = int(rate * 1000)
    return report_from_dict({
        "kernel": "k", "pattern": pattern, "num_xcds": 1,
        "accesses": 1000, "hits": hits, "misses": 1000 - hits,
        "l2_hit_rate": rate, "unique_lines_touched": unique,
        "per_xcd": [{"accesses": 1000, "hits": hits, "misses": 1000 - hits,
                     "hit_rate": rate}],
    })


def entry(iteration, rate=None, pattern="p", valid=True):
    return HistoryEntry(
        iteration=iteration,
        pattern={"name": pattern, "expr": "pid", "params": {}},
        diff_summary="",
        validation=ValidationResult(valid, (), (), valid, 0, 0),
        report=fake_report(pattern, rate) if rate is not None and valid else None,
    )


# --- rank_history -------------------------------------------------------------


def test_rank_prefers_higher_hit_rate():
    best = rank_history([entry(0, 0.50, "a"), entry(1, 0.65, "b")])
    assert best.report.l2_hit_rate == 0.65


def test_rank_ignores_invalid_entries():
    best = rank_history([entry(0, 0.4, "good"), entry(1, None, "broken", valid=False)])
    assert best.report.l2_hit_rate == 0.4


def test_rank_baseline_only():
    baseline = entry(0, 0.3, "identity")
    assert rank_history([baseline]) is baseline


def test_rank_requires_a_validated_entry():
    with pytest.raises(LoopError):
        rank_history([entry(0, None, valid=False)])


# --- scripted proposers --------------------------------------------------------


class QueueProposer:
    def __init__(self, items):
        self.items = list(items)

    def propose(self, ctx):
        if not self.items:
            raise NoMoreCandidates("queue empty")
        item = self.items.pop(0)
        if isinstance(item, Exception):
            raise item
        return Proposal(pattern=pattern_from_expr("queued", item))


def test_zero_iterations_returns_baseline():
    result = optimize(SMALL_GEMM, MI300X_LIKE, QueueProposer([]), max_iters=0)
    assert result.iterations_run == 0
    assert result.best.iteration == 0
    assert result.best.pattern["name"] == "identity"
    assert len(result.progression) == 1


def test_history_records_failures_and_continues(tmp_path):
    proposer = QueueProposer([
        ProposerError("transport down"),
        CONTIGUOUS_EXPR,
    ])
    sink_path = tmp_path / "history.jsonl"
    with JsonlHistorySink(sink_path) as sink:
        result = optimize(SMALL_GEMM, MI300X_LIKE, proposer, max_iters=2, history_sink=sink)
    entries = load_history(sink_path)
    assert len(entries) == 3  # baseline + failure + success
    assert entries[1].pattern is None and entries[1].report is None
    assert "transport down" in entries[1].critique
    assert result.iterations_run == 2
    assert result.best.iteration == 2


def test_duplicates_reuse_cached_report(tmp_path):
    proposer = QueueProposer(["pid", "pid"])
    sink_path = tmp_path / "history.jsonl"
    with JsonlHistorySink(sink_path) as sink:
        result = optimize(SMALL_GEMM, MI300X_LIKE, proposer, max_iters=2, history_sink=sink)
    entries = load_history(sink_path)
    assert len(entries) == 3
    for dup in entries[1:]:
        assert "duplicate" in dup.diff_summary or dup.iteration == 1
        assert dup.report == entries[0].report  # identical cached metrics
    assert result.best.iteration == 0  # stable tie resolves to the baseline


def test_failed_run_keeps_a_history_with_entries_and_removes_an_empty_one(tmp_path):
    kept = tmp_path / "kept.jsonl"
    with pytest.raises(RuntimeError, match="crashed"), JsonlHistorySink(kept) as sink:
        optimize(SMALL_GEMM, MI300X_LIKE, QueueProposer([RuntimeError("crashed")]),
                 max_iters=1, history_sink=sink)
    assert [e.iteration for e in load_history(kept)] == [0]
    empty = tmp_path / "empty.jsonl"
    with pytest.raises(RuntimeError, match="before the baseline"), JsonlHistorySink(empty):
        raise RuntimeError("before the baseline")
    assert list(tmp_path.iterdir()) == [kept]


def test_best_so_far_monotone():
    proposer = QueueProposer(["pid % 7", CONTIGUOUS_EXPR, "pid"])
    result = optimize(SMALL_GEMM, MI300X_LIKE, proposer, max_iters=3)
    best_values = [b for _, b in result.progression]
    assert best_values == sorted(best_values)


def test_invalid_candidates_never_best():
    # candidate with out-of-range images never outranks the baseline
    proposer = QueueProposer(["pid + num_blocks"])
    result = optimize(SMALL_GEMM, MI300X_LIKE, proposer, max_iters=1)
    assert result.best.pattern["name"] == "identity"
    assert result.progression[1][0] is None


def test_eval_error_candidates_recorded_invalid():
    proposer = QueueProposer(["pid // (pid % 2)"])  # divides by zero at pid 0
    result = optimize(SMALL_GEMM, MI300X_LIKE, proposer, max_iters=1)
    assert result.best.pattern["name"] == "identity"
    assert result.iterations_run == 1


def test_literal_past_the_value_limit_recorded_invalid(tmp_path):
    # the run goes on past the candidate instead of ending on its literal
    proposer = QueueProposer(["pid + 0 * 99999999999999999999", CONTIGUOUS_EXPR])
    with JsonlHistorySink(tmp_path / "history.jsonl") as sink:
        result = optimize(SMALL_GEMM, MI300X_LIKE, proposer, max_iters=2, history_sink=sink)
    entries = load_history(tmp_path / "history.jsonl")
    assert entries[1].validation == ValidationResult.failure() and entries[1].report is None
    assert result.iterations_run == 2 and result.best.iteration == 2


def test_exhaustion_ends_loop_early():
    result = optimize(SMALL_GEMM, MI300X_LIKE, QueueProposer(["pid % 3"]), max_iters=5)
    assert result.iterations_run == 1
    assert len(result.progression) == 2


# --- search proposer ------------------------------------------------------------


class Ctx:
    def __init__(self, grid, arch, history=()):
        self.grid = grid
        self.arch = arch
        self.history = tuple(history)


def search_ctx(total=256, history=()):
    from swizzlesim.patterns import GridSpec
    return Ctx(GridSpec.from_block_counts(total), arch_with_xcds(8), history)


def test_search_first_member_is_contiguous_grouping():
    proposal = SearchProposer().propose(search_ctx())
    assert proposal.pattern.params == {"axis": "linear", "chunk": 32, "stride": 1}


def test_search_skips_history():
    first = SearchProposer().propose(search_ctx())
    hist = [HistoryEntry(1, {"name": "x", "expr": first.pattern.expr_text, "params": {}},
                         "", ValidationResult(True, (), (), True, 0, 0), fake_report("x", 0.5))]
    second = SearchProposer().propose(search_ctx(history=hist))
    assert second.pattern.expr_text != first.pattern.expr_text
    assert second.pattern.params["stride"] == 8


def test_search_exhausts():
    proposer = SearchProposer()
    ctx = search_ctx(total=16)
    seen = []
    history = []
    while True:
        try:
            proposal = proposer.propose(Ctx(ctx.grid, ctx.arch, history))
        except NoMoreCandidates:
            break
        seen.append(proposal.pattern.expr_text)
        history.append(HistoryEntry(len(history) + 1,
                                    {"name": "s", "expr": proposal.pattern.expr_text,
                                     "params": {}},
                                    "", ValidationResult(True, (), (), True, 0, 0),
                                    fake_report("s", 0.5)))
    assert len(seen) == len(set(seen))  # never repeats
    assert len(seen) >= 6


def test_search_loop_improves_gemm():
    result = optimize(SMALL_GEMM, MI300X_LIKE, SearchProposer(), max_iters=5)
    baseline_rate = result.progression[0][1]
    assert result.best.report.l2_hit_rate >= baseline_rate
    assert result.best.report.l2_hit_rate > 0.5  # contiguous member wins here


def test_one_remap_evaluation_per_history_entry(monkeypatch):
    calls = []
    real = patterns.remap_table

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(patterns, "remap_table", counting)
    entries = []
    optimize(spec_with_size("gemm", 256), MI300X_LIKE, SearchProposer(), max_iters=6,
             history_sink=entries)
    assert len(entries) == 7
    assert calls == [e.pattern["name"] for e in entries]


def test_search_parses_each_member_once(monkeypatch):
    parsed = []
    real = dsl.parse_expr

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(dsl, "parse_expr", counting)
    entries = []
    optimize(spec_with_size("softmax", 1024), MI300X_LIKE, SearchProposer(), max_iters=10,
             history_sink=entries)
    assert len(entries) == 11  # the baseline and 10 proposed members
    assert len(parsed) <= len(entries)


def test_library_writes_nothing_to_stdout(tmp_path, monkeypatch, capfd):
    # a benchmark run's last stdout line is its result, so nothing below the
    # CLI may print, not even a C-level write buffered until exit; the kernel
    # is built afresh so that its build is covered too
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cachesim._load_kernel.cache_clear()
    try:
        trace = generate_trace(spec_with_size("stencil2d", 512))
        pattern = builtin_pattern("stencil_group", trace.grid, MI300X_LIKE)
        simulate_pair(trace, MI300X_LIKE, ExecParams(), pattern)
        traces.locality_summary(trace)
        optimize(spec_with_size("gemm", 256), MI300X_LIKE, SearchProposer(), max_iters=3)
        ctypes.CDLL(None).fflush(None)
    finally:
        cachesim._load_kernel.cache_clear()
    assert capfd.readouterr().out == ""


def test_optimize_reads_each_stream_once(tmp_path, monkeypatch):
    spec = KernelSpec("softmax", {"rows": 16, "cols": 4096}, {"cols": 1024})  # 2 waves
    calls = Counter()
    batches = []

    def counted_trace(spec):
        trace = generate_trace(spec)
        batch_fn = trace._batch_fn

        def counting(wave, pids):
            batches.append(wave)
            calls.update((wave, pid) for pid in pids.tolist())
            return batch_fn(wave, pids)

        trace._batch_fn = counting
        return trace

    monkeypatch.setattr(loop, "generate_trace", counted_trace)
    with JsonlHistorySink(tmp_path / "table.jsonl") as sink:
        optimize(spec, MI300X_LIKE, SearchProposer(), max_iters=6, history_sink=sink)
    lazy = generate_trace(spec)
    assert calls == Counter(
        {(wave, pid): 1 for wave, members in enumerate(lazy.wave_pids) for pid in members.tolist()}
    )
    # the first member alone, then the other 63 of wave 0 and the 64 of
    # wave 1 in one batch each
    assert batches == [0, 0, 1]

    # with no budget no batch is kept and every stream is read lazily
    monkeypatch.setattr(traces, "RECORD_TABLE_BYTES", 0)
    assert traces.materialize(lazy) is lazy
    calls.clear()
    with JsonlHistorySink(tmp_path / "lazy.jsonl") as sink:
        optimize(spec, MI300X_LIKE, SearchProposer(), max_iters=6, history_sink=sink)
    assert min(calls.values()) > 1
    assert (tmp_path / "lazy.jsonl").read_bytes() == (tmp_path / "table.jsonl").read_bytes()


# The SHA-256 of history.jsonl from a 10-iteration search on softmax rows=1024:
# 7 valid members, 6 of whose tables are distinct or repeat the baseline's,
# and 3 rejected members. Re-pinned once when verdicts became bounded: the older
# history with each verdict's lists cut to 16 and 8 and their lengths added as
# the counts gives this digest.
GOLDEN_HISTORY_DIGEST = "375a3ad061e9ba073c3dfe76983119b019468d56d1edfd60b69b5b81a6e27a0e"


def test_golden_history_digest(tmp_path):
    path = tmp_path / "history.jsonl"
    with JsonlHistorySink(path) as sink:
        optimize(spec_with_size("softmax", 1024), MI300X_LIKE, SearchProposer(), max_iters=10,
                 history_sink=sink)
    entries = load_history(path)
    assert [e.report is None for e in entries].count(True) == 3
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_HISTORY_DIGEST


class NamedProposer:
    def __init__(self, named):
        self.named = list(named)

    def propose(self, ctx):
        if not self.named:
            raise NoMoreCandidates("done")
        return Proposal(pattern=pattern_from_expr(*self.named.pop(0)))


def test_each_distinct_table_is_simulated_once(monkeypatch):
    simulated = []
    real = loop.simulate

    def counting(trace, pattern, arch, **kwargs):
        simulated.append(pattern.name)
        return real(trace, pattern, arch, **kwargs)

    monkeypatch.setattr(loop, "simulate", counting)
    entries = []
    # SMALL_GEMM has 80 blocks; the last member rotates the second half, so
    # its table differs from the identity's only from pid 40 on
    half_rotated = "(1 - pid // 40) * pid + (pid // 40) * (40 + (pid + 1) % 40)"
    proposer = NamedProposer([("first", CONTIGUOUS_EXPR), ("second", f"({CONTIGUOUS_EXPR}) + 0"),
                              ("same_as_identity", "pid * 1"), ("invalid", "pid % 7"),
                              ("half_rotated", half_rotated)])
    optimize(SMALL_GEMM, MI300X_LIKE, proposer, max_iters=5, history_sink=entries)
    assert simulated == ["identity", "first", "half_rotated"]
    assert [e.report.pattern if e.report else None for e in entries] == [
        "identity", "first", "second", "same_as_identity", None, "half_rotated"]
    assert [e.diff_summary.startswith("expression: ") for e in entries[1:]] == [True] * 5
    trace = generate_trace(SMALL_GEMM)
    for e in entries[2:4]:
        assert e.report == real(trace, pattern_from_expr(e.pattern["name"], e.pattern["expr"]),
                                MI300X_LIKE)


# --- llm proposer ----------------------------------------------------------------


class ScriptedClient:
    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if not self.responses:
            raise ReplayExhaustedError("out of responses")
        return self.responses.pop(0)


def proposal_text(expr):
    return format_proposal(ProposalRecord(
        reasoning="r", per_iteration_critiques={}, new_approach="n",
        improvement_rationale="i", final_expression=expr))


def test_llm_proposer_parses_fixture():
    client = ScriptedClient([proposal_text(CONTIGUOUS_EXPR)])
    result = optimize(SMALL_GEMM, MI300X_LIKE, LlmProposer(client), max_iters=1)
    assert result.best.pattern["name"] == "proposal_01"
    assert result.best.critique == "i"


def test_llm_proposer_retries_on_parse_error_with_feedback():
    client = ScriptedClient(["no sections here", proposal_text("pid")])
    result = optimize(SMALL_GEMM, MI300X_LIKE, LlmProposer(client), max_iters=1)
    assert result.iterations_run == 1
    assert len(client.prompts) == 2
    assert "could not be used" in client.prompts[1]


def test_llm_proposer_fails_after_retry_budget():
    client = ScriptedClient(["junk", "junk", "junk"])
    result = optimize(SMALL_GEMM, MI300X_LIKE, LlmProposer(client), max_iters=1)
    # failure entry recorded, baseline still best
    assert result.iterations_run == 1
    assert result.best.iteration == 0


def test_llm_proposer_exhaustion_ends_early():
    client = ScriptedClient([proposal_text("pid % num_xcds + (pid // num_xcds) * num_xcds")])
    result = optimize(SMALL_GEMM, MI300X_LIKE, LlmProposer(client), max_iters=4)
    assert result.iterations_run == 1


# --- the locality summary, computed where it is read ------------------------------


def _count_summaries(monkeypatch) -> list:
    """The traces ``optimize`` summarizes, through ``loop.locality_summary``."""
    summarized = []
    summarize = loop.locality_summary
    monkeypatch.setattr(loop, "locality_summary",
                        lambda trace: summarized.append(trace) or summarize(trace))
    return summarized


def test_a_search_run_computes_no_locality_summary(monkeypatch):
    summarized = _count_summaries(monkeypatch)
    result = optimize(SMALL_GEMM, MI300X_LIKE, SearchProposer(), max_iters=5)
    assert result.iterations_run == 5
    assert summarized == []


def test_a_replayed_llm_run_computes_the_locality_summary_once(tmp_path, monkeypatch):
    exprs = ["pid", CONTIGUOUS_EXPR, "(pid // 2) * 3"]  # a duplicate, the best, a rejected one
    scripted = ScriptedClient([proposal_text(expr) for expr in exprs])
    optimize(SMALL_GEMM, MI300X_LIKE, LlmProposer(scripted), max_iters=3)
    fixture = tmp_path / "fixture.jsonl"
    for prompt, expr in zip(scripted.prompts, exprs, strict=True):
        write_fixture_entry(str(fixture), prompt, proposal_text(expr))

    summarized = _count_summaries(monkeypatch)
    replay = CompletionClient(ClientConfig.replay(str(fixture)))
    entries = []
    optimize(SMALL_GEMM, MI300X_LIKE, LlmProposer(replay), max_iters=3, history_sink=entries)
    # every prompt rendered the summary and matched its recorded digest
    assert [entry.pattern["expr"] for entry in entries[1:]] == [
        dsl.format_expr(dsl.parse_expr(expr)) for expr in exprs]
    assert len(summarized) == 1


# --- persistence -----------------------------------------------------------------


def test_entry_round_trip():
    e = entry(3, 0.42, "roundtrip")
    assert entry_from_dict(json.loads(json.dumps(entry_to_dict(e)))) == e


def test_history_round_trips_every_entry_kind(tmp_path):
    class RecordingSink(JsonlHistorySink):
        def __init__(self, path):
            super().__init__(path)
            self.entries = []

        def append(self, entry):
            self.entries.append(entry)
            super().append(entry)

    proposer = QueueProposer([
        "(pid // 2) * 3",  # non-bijective: out of range and colliding
        "pid // (pid - pid)",  # EvalError
        ProposerError("transport down"),
    ])
    sink_path = tmp_path / "history.jsonl"
    with RecordingSink(sink_path) as sink:
        optimize(SMALL_GEMM, MI300X_LIKE, proposer, max_iters=3, history_sink=sink)
    baseline, rejected, failed_eval, failed_proposer = sink.entries
    assert baseline.report is not None
    assert rejected.validation.out_of_range and rejected.validation.collisions
    assert failed_eval.pattern is not None and failed_eval.validation == ValidationResult.failure()
    assert failed_proposer.pattern is None and failed_proposer.report is None
    assert load_history(sink_path) == sink.entries


def test_entry_from_dict_rejects_unknown_keys():
    doc = entry_to_dict(entry(3, 0.42))
    doc["surprise"] = 1
    with pytest.raises(KeyError):
        entry_from_dict(doc)
    doc = entry_to_dict(entry(3, 0.42))
    doc["report"]["surprise"] = 1
    with pytest.raises(KeyError):
        entry_from_dict(doc)


def test_progression_csv(tmp_path):
    result = optimize(SMALL_GEMM, MI300X_LIKE, QueueProposer(["pid % 5"]), max_iters=1)
    path = tmp_path / "prog.csv"
    write_progression_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,current_hit_rate,best_so_far"
    assert len(lines) == 3
    assert lines[2].startswith("1,,")  # invalid iteration has empty current
