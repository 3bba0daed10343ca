import json

import pytest

from swizzlesim import patterns
from swizzlesim.arch import MI300X_LIKE
from swizzlesim.cachesim import report_from_dict
from swizzlesim.client import ReplayExhaustedError
from swizzlesim.kernels import KernelSpec, spec_with_size
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
from swizzlesim.patterns import ValidationResult, pattern_from_expr
from swizzlesim.promptio import ProposalRecord, format_proposal

from conftest import arch_with_xcds

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
        validation=ValidationResult(valid, (), (), valid),
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
                         "", ValidationResult(True, (), (), True), fake_report("x", 0.5))]
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
                                    "", ValidationResult(True, (), (), True),
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
    result = optimize(SMALL_GEMM, MI300X_LIKE,
                      LlmProposer(client, max_parse_retries=2), max_iters=1)
    # failure entry recorded, baseline still best
    assert result.iterations_run == 1
    assert result.best.iteration == 0


def test_llm_proposer_exhaustion_ends_early():
    client = ScriptedClient([proposal_text("pid % num_xcds + (pid // num_xcds) * num_xcds")])
    result = optimize(SMALL_GEMM, MI300X_LIKE, LlmProposer(client), max_iters=4)
    assert result.iterations_run == 1


# --- persistence -----------------------------------------------------------------


def test_entry_round_trip():
    e = entry(3, 0.42, "roundtrip")
    assert entry_from_dict(json.loads(json.dumps(entry_to_dict(e)))) == e


def test_progression_csv(tmp_path):
    result = optimize(SMALL_GEMM, MI300X_LIKE, QueueProposer(["pid % 5"]), max_iters=1)
    path = tmp_path / "prog.csv"
    write_progression_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,current_hit_rate,best_so_far"
    assert len(lines) == 3
    assert lines[2].startswith("1,,")  # invalid iteration has empty current
