"""Prompt construction and structured-output parsing for the proposer loop.

The prompt puts the hardware in front of the model explicitly: kernel
summary and bottleneck, a rendered memory-locality analysis, the full
history of attempts with their measured hit rates, the XCD/CU/L2 geometry,
the block scheduling policy, and the optimization goal — in that fixed
order, rendered byte-deterministically.

Proposals come back under fixed section headers (REASONING, CRITIQUES,
NEW_APPROACH, IMPROVEMENT_RATIONALE, FINAL_EXPRESSION) with the new swizzle
expression in a fenced code block, so replay fixtures stay stable and a
parse failure can be echoed back verbatim on retry.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from . import dsl
from .arch import ArchSpec
from .cachesim import BottleneckReport, XcdStats, report_from_dict
from .records import key_mismatch
from .traces import LocalitySummary

if TYPE_CHECKING:
    from .loop import HistoryEntry

DEFAULT_BOTTLENECK = "low per-XCD L2 cache hit rate"

DEFAULT_GOAL = (
    "remap workgroup program ids so that workgroups which reuse the same data "
    "run on the same XCD, pay special attention to keeping the mapping a "
    "bijection on [0, num_blocks) and balancing XCD load, code should be "
    "structured as a single integer expression over pid using the documented "
    "identifiers"
)

MAX_GROUPS_RENDERED = 12
MAX_PIDS_RENDERED = 8


@dataclass(frozen=True)
class PromptContext:
    """The seven prompt blocks, in render order."""

    original_code_or_trace_summary: str
    bottleneck: str
    memory_analysis: str
    history_block: str
    arch_block: str
    scheduling_block: str
    goal_block: str

    def render(self) -> str:
        return (
            f"The original kernel is {self.original_code_or_trace_summary} "
            f"with bottleneck {self.bottleneck}\n"
            "\n"
            f"The memory analysis is:\n{self.memory_analysis}\n"
            "\n"
            "History of previous optimization attempts (do not repeat an "
            "implementation):\n"
            f"{self.history_block}\n"
            "\n"
            f"{self.arch_block}\n"
            "\n"
            f"{self.scheduling_block}\n"
            "\n"
            f"Your swizzling goal is to {self.goal_block}\n"
        )


@dataclass(frozen=True)
class ProposalRecord:
    reasoning: str
    per_iteration_critiques: Mapping[int, str]
    new_approach: str
    improvement_rationale: str
    final_expression: str


class ProposalParseError(ValueError):
    """Structured-output parse failure; message is surfaced to retries."""


class MissingExpressionError(ProposalParseError):
    pass


class ReportSchemaError(ValueError):
    pass


class CorruptReportError(ReportSchemaError):
    pass


def render_locality(locality: LocalitySummary) -> str:
    if not locality.groups:
        return "no inter-workgroup data sharing detected (streaming access only)"
    lines = []
    for group in locality.groups[:MAX_GROUPS_RENDERED]:
        pids = ", ".join(str(p) for p in group.pids[:MAX_PIDS_RENDERED])
        if len(group.pids) > MAX_PIDS_RENDERED:
            pids += ", ..."
        lines.append(
            f"- buffer {group.buffer_name}: workgroups [{pids}] "
            f"({len(group.pids)} total) share {group.shared_bytes} bytes "
            f"({group.reuse_class})"
        )
    remaining = len(locality.groups) - MAX_GROUPS_RENDERED
    if remaining > 0:
        lines.append(f"- ... and {remaining} more sharing groups")
    return "\n".join(lines)


def render_history(history: Sequence["HistoryEntry"]) -> str:
    # Baseline (iteration 0) is context, not an attempt to avoid repeating.
    if not history:
        return "(no prior attempts)"
    lines = []
    for entry in history:
        pattern = entry.pattern
        if pattern is None:
            lines.append(
                f"iteration: {entry.iteration}, proposal failed: "
                f"{entry.critique or 'no candidate produced'}"
            )
            continue
        desc = f"iteration: {entry.iteration}, expr: {pattern['expr']}"
        if entry.report is not None:
            rates = ", ".join(f"{s.hit_rate:.4f}" for s in entry.report.per_xcd)
            desc += (
                f", l2_hit_rate: {entry.report.l2_hit_rate:.4f}"
                f", per_xcd_hit_rates: [{rates}]"
            )
        else:
            desc += ", verdict: invalid (failed bijectivity/coverage validation)"
        if entry.diff_summary:
            desc += f", diff: {entry.diff_summary}"
        lines.append(desc)
    return "\n".join(lines)


def build_prompt(
    kernel_summary: str,
    locality: LocalitySummary,
    history: Sequence["HistoryEntry"],
    arch: ArchSpec,
) -> PromptContext:
    """Assemble the hardware-aware prompt context. Deterministic."""
    l2_mb = arch.l2_bytes_per_xcd / (1024 * 1024)
    arch_block = (
        f"On the target GPU, there are {arch.num_xcds} XCDs, each has "
        f"{arch.cus_per_xcd} CUs and a {l2_mb:g} MB L2 cache"
    )
    return PromptContext(
        original_code_or_trace_summary=kernel_summary,
        bottleneck=DEFAULT_BOTTLENECK,
        memory_analysis=render_locality(locality),
        history_block=render_history(history),
        arch_block=arch_block,
        scheduling_block="Blocks are scheduled Round-robin to XCDs",
        goal_block=DEFAULT_GOAL,
    )


_SECTION_RE = re.compile(
    r"^(REASONING|CRITIQUES|NEW_APPROACH|IMPROVEMENT_RATIONALE|FINAL_EXPRESSION):[ \t]*$",
    re.MULTILINE,
)

_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def parse_proposal(text: str) -> ProposalRecord:
    """Extract the structured sections; prose outside sections is ignored.

    The final expression is mandatory and must parse under the swizzle
    grammar; the DSL error message is preserved for retry prompts.
    """
    sections: dict[str, str] = {}
    matches = list(_SECTION_RE.finditer(text))
    for i, match in enumerate(matches):
        start = match.end()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections[match.group(1)] = text[start:end].strip()

    if "FINAL_EXPRESSION" not in sections:
        raise MissingExpressionError(
            "proposal has no FINAL_EXPRESSION section with a fenced expression"
        )
    fence = _FENCE_RE.search(sections["FINAL_EXPRESSION"])
    if fence is None:
        raise MissingExpressionError(
            "FINAL_EXPRESSION section does not contain a fenced code block"
        )
    expression = fence.group(1).strip()
    if not expression:
        raise MissingExpressionError("fenced final expression is empty")
    try:
        dsl.parse_expr(expression)
    except dsl.ExprError as exc:
        raise ProposalParseError(f"final expression failed to parse: {exc}") from exc

    critiques: dict[int, str] = {}
    raw = sections.get("CRITIQUES", "")
    if raw:
        try:
            loaded = json.loads(raw)
            if isinstance(loaded, dict):
                for key, value in loaded.items():
                    try:
                        critiques[int(key)] = str(value)
                    except (TypeError, ValueError):
                        continue
        except json.JSONDecodeError:
            pass  # critiques are advisory; tolerate free text

    return ProposalRecord(
        reasoning=sections.get("REASONING", ""),
        per_iteration_critiques=critiques,
        new_approach=sections.get("NEW_APPROACH", ""),
        improvement_rationale=sections.get("IMPROVEMENT_RATIONALE", ""),
        final_expression=expression,
    )


def parse_profiler_log(document: str) -> BottleneckReport:
    """Parse a serialized bottleneck report, rejecting corrupt metrics."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ReportSchemaError(f"profiler log is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ReportSchemaError("profiler log must be a JSON object")
    missing, unknown = key_mismatch(BottleneckReport, data)
    if missing or unknown:
        raise ReportSchemaError(
            f"profiler log schema mismatch (missing={sorted(missing)}, unknown={unknown})"
        )
    if not isinstance(data["per_xcd"], list) or not data["per_xcd"]:
        raise ReportSchemaError("per_xcd must be a non-empty list")
    for entry in data["per_xcd"]:
        if not isinstance(entry, dict) or any(key_mismatch(XcdStats, entry)):
            raise ReportSchemaError("per_xcd entries must have exactly the stat fields")
    if data["hits"] + data["misses"] != data["accesses"]:
        raise CorruptReportError(
            f"corrupt report: hits ({data['hits']}) + misses ({data['misses']}) "
            f"!= accesses ({data['accesses']})"
        )
    for i, entry in enumerate(data["per_xcd"]):
        if entry["hits"] + entry["misses"] != entry["accesses"]:
            raise CorruptReportError(f"corrupt report: XCD {i} hits+misses != accesses")
    if sum(e["accesses"] for e in data["per_xcd"]) != data["accesses"]:
        raise CorruptReportError("corrupt report: per-XCD accesses do not sum to total")
    if len(data["per_xcd"]) != data["num_xcds"]:
        raise ReportSchemaError("per_xcd length does not match num_xcds")
    return report_from_dict(data)
