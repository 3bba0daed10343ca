import json

import pytest

from swizzlesim.arch import MI300X_LIKE
from swizzlesim.cachesim import report_to_dict, report_to_json, simulate
from swizzlesim.kernels import KernelSpec, generate_trace
from swizzlesim.loop import HistoryEntry
from swizzlesim.patterns import ValidationResult, builtin_pattern, pattern_to_dict
from swizzlesim.promptio import (
    CorruptReportError,
    MissingExpressionError,
    ProposalParseError,
    ProposalRecord,
    ReportSchemaError,
    build_prompt,
    parse_profiler_log,
    parse_proposal,
)
from swizzlesim.traces import locality_summary

from conftest import arch_with_xcds, format_proposal


@pytest.fixture(scope="module")
def sample():
    spec = KernelSpec("softmax", {"rows": 16, "cols": 2048}, {"cols": 1024})
    trace = generate_trace(spec)
    arch = arch_with_xcds(8, cus_per_xcd=4, l2_bytes=1 << 18)
    locality = locality_summary(trace)
    pattern = builtin_pattern("softmax_rowgroup", trace.grid, arch)
    report = simulate(trace, pattern, arch)
    entry = HistoryEntry(
        iteration=1,
        pattern=pattern_to_dict(pattern),
        diff_summary="expression: pid -> grouped",
        validation=ValidationResult(True, (), (), True, 0, 0),
        report=report,
    )
    return trace, arch, locality, entry, report


def test_prompt_contains_all_blocks_in_order(sample):
    trace, arch, locality, entry, _ = sample
    ctx = build_prompt("softmax kernel", locality, [], MI300X_LIKE)
    text = ctx.render()
    order = [
        text.index("The original kernel is"),
        text.index("with bottleneck"),
        text.index("The memory analysis is:"),
        text.index("History of previous optimization attempts"),
        text.index("XCDs, each has"),
        text.index("Blocks are scheduled Round-robin to XCDs"),
        text.index("Your swizzling goal is to"),
    ]
    assert order == sorted(order)


def test_arch_block_substitution(sample):
    _, _, locality, _, _ = sample
    ctx = build_prompt("k", locality, [], MI300X_LIKE)
    assert "there are 8 XCDs" in ctx.arch_block
    assert "38 CUs" in ctx.arch_block
    assert "4 MB L2 cache" in ctx.arch_block


def test_scheduling_line_always_present(sample):
    _, _, locality, _, _ = sample
    assert "Round-robin to XCDs" in build_prompt("k", locality, [], MI300X_LIKE).render()


def test_empty_history_block(sample):
    _, _, locality, _, _ = sample
    ctx = build_prompt("k", locality, [], MI300X_LIKE)
    assert ctx.history_block == "(no prior attempts)"


def test_history_block_stanzas(sample):
    trace, arch, locality, entry, report = sample
    invalid = HistoryEntry(
        iteration=2,
        pattern={"name": "bad", "expr": "pid % 4", "params": {}},
        diff_summary="",
        validation=ValidationResult(False, (), ((0, 4, 0),), False, 0, 1),
        report=None,
    )
    ctx = build_prompt("k", locality, [entry, invalid], arch)
    lines = ctx.history_block.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("iteration: 1,")
    assert f"l2_hit_rate: {report.l2_hit_rate:.4f}" in lines[0]
    assert "verdict: invalid" in lines[1]


def test_prompt_byte_deterministic(sample):
    trace, arch, locality, entry, _ = sample
    a = build_prompt("k", locality, [entry], arch).render()
    b = build_prompt("k", locality, [entry], arch).render()
    assert a == b


def test_memory_analysis_mentions_sharing(sample):
    _, _, locality, _, _ = sample
    ctx = build_prompt("k", locality, [], MI300X_LIKE)
    assert "share" in ctx.memory_analysis


# --- proposal parsing ---------------------------------------------------------


def proposal_text(expr="pid", **overrides):
    record = ProposalRecord(
        reasoning=overrides.get("reasoning", "think"),
        per_iteration_critiques=overrides.get("critiques", {1: "too scattered"}),
        new_approach=overrides.get("new_approach", "group rows"),
        improvement_rationale=overrides.get("rationale", "keeps rows resident"),
        final_expression=expr,
    )
    return format_proposal(record)


def test_proposal_round_trip():
    text = proposal_text("(pid % num_xcds) * (num_blocks // num_xcds) + (pid // num_xcds)")
    record = parse_proposal(text)
    assert record.final_expression.startswith("(pid % num_xcds)")
    assert record.per_iteration_critiques == {1: "too scattered"}
    assert record.new_approach == "group rows"
    # format -> parse -> format is stable
    assert format_proposal(record) == format_proposal(parse_proposal(format_proposal(record)))


def test_proposal_tolerates_surrounding_prose():
    text = "Sure! Here is my plan.\n" + proposal_text() + "\nHope this helps."
    record = parse_proposal(text)
    assert record.final_expression == "pid"


def test_proposal_missing_fence():
    text = proposal_text().replace("```", "")
    with pytest.raises(MissingExpressionError):
        parse_proposal(text)


def test_proposal_missing_section():
    with pytest.raises(MissingExpressionError):
        parse_proposal("REASONING:\njust vibes\n")


def test_proposal_bad_expression_surfaces_parser_message():
    with pytest.raises(ProposalParseError) as excinfo:
        parse_proposal(proposal_text("pid %% wat"))
    assert "failed to parse" in str(excinfo.value)


def test_proposal_unknown_identifier_surfaced():
    with pytest.raises(ProposalParseError) as excinfo:
        parse_proposal(proposal_text("pid + warp_id"))
    assert "warp_id" in str(excinfo.value)


def test_proposal_critiques_tolerate_bad_json():
    text = proposal_text()
    text = text.replace('{"1": "too scattered"}', "not json at all")
    record = parse_proposal(text)
    assert record.per_iteration_critiques == {}


# --- profiler log parsing ------------------------------------------------------


def test_profiler_log_round_trip(sample):
    *_, report = sample
    parsed = parse_profiler_log(report_to_json(report))
    assert parsed == report


def test_profiler_log_corruption_rejected(sample):
    *_, report = sample
    doc = report_to_dict(report)
    doc["hits"] = 7
    doc["misses"] = 2
    doc["accesses"] = 10
    with pytest.raises(CorruptReportError):
        parse_profiler_log(json.dumps(doc))


def test_profiler_log_per_xcd_sum_checked(sample):
    *_, report = sample
    doc = report_to_dict(report)
    doc["misses"] += 1  # top-level invariant kept, per-XCD sum now off by one
    doc["accesses"] += 1
    with pytest.raises(CorruptReportError):
        parse_profiler_log(json.dumps(doc))
    doc = report_to_dict(report)
    doc["per_xcd"][0]["hits"] += 1  # per-XCD entry internally inconsistent
    with pytest.raises(CorruptReportError):
        parse_profiler_log(json.dumps(doc))


def test_profiler_log_schema_violations(sample):
    *_, report = sample
    doc = report_to_dict(report)
    doc["surprise"] = 1
    with pytest.raises(ReportSchemaError):
        parse_profiler_log(json.dumps(doc))
    doc = report_to_dict(report)
    del doc["hits"]
    with pytest.raises(ReportSchemaError):
        parse_profiler_log(json.dumps(doc))
    with pytest.raises(ReportSchemaError):
        parse_profiler_log("[]")
    with pytest.raises(ReportSchemaError):
        parse_profiler_log("{nope")


def test_profiler_log_per_xcd_keys_exact(sample):
    *_, report = sample
    doc = report_to_dict(report)
    doc["per_xcd"][0]["surprise"] = 1
    with pytest.raises(ReportSchemaError, match="exactly the stat fields"):
        parse_profiler_log(json.dumps(doc))
    doc = report_to_dict(report)
    del doc["per_xcd"][-1]["hit_rate"]
    with pytest.raises(ReportSchemaError, match="exactly the stat fields"):
        parse_profiler_log(json.dumps(doc))


def test_profiler_log_preserves_hit_rate():
    doc = {
        "kernel": "k", "pattern": "p", "num_xcds": 1,
        "accesses": 10, "hits": 6, "misses": 4, "l2_hit_rate": 0.60,
        "per_xcd": [{"accesses": 10, "hits": 6, "misses": 4, "hit_rate": 0.60}],
        "unique_lines_touched": 4,
    }
    assert parse_profiler_log(json.dumps(doc)).l2_hit_rate == 0.60
